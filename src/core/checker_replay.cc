#include "core/checker_replay.hh"

#include <algorithm>
#include <array>
#include <numeric>

#include "analysis/vuln.hh"
#include "isa/decoded_run.hh"

namespace paradox
{
namespace core
{

const char *
detectReasonName(DetectReason reason)
{
    switch (reason) {
      case DetectReason::None:               return "none";
      case DetectReason::StoreMismatch:      return "store-mismatch";
      case DetectReason::LoadEntryMismatch:  return "load-entry-mismatch";
      case DetectReason::InvalidBehavior:    return "invalid-behavior";
      case DetectReason::EntryCountMismatch: return "entry-count-mismatch";
      case DetectReason::FinalStateMismatch: return "final-state-mismatch";
      case DetectReason::Timeout:            return "timeout";
      default:                               break;
    }
    return "unknown";
}

namespace
{

/** Record a weak-cell fire in @p outcome (no-op outside chip mode). */
void
noteWeakHit(const faults::FaultHit &hit, ReplayOutcome &outcome)
{
    if (hit.site < 0)
        return;
    ++outcome.weakCellHits;
    if (outcome.weakSites.size() < 16)
        outcome.weakSites.push_back(std::uint32_t(hit.site));
}

/** Corrupt @p value per @p hit: stuck-at (chip mode) or XOR. */
std::uint64_t
applyHit(const faults::FaultHit &hit, std::uint64_t value)
{
    const std::uint64_t mask = std::uint64_t(1) << hit.bit;
    if (hit.hasStuck)
        return hit.stuckValue ? value | mask : value & ~mask;
    return value ^ mask;
}

/** Tally a stamped verdict into the replay counters. */
void
tallyVerdict(std::uint8_t verdict, ReplayOutcome &outcome)
{
    if (verdict == std::uint8_t(analysis::SiteVerdict::Dead))
        ++outcome.deadFaults;
    else if (verdict == std::uint8_t(analysis::SiteVerdict::Live))
        ++outcome.liveFaults;
    else
        ++outcome.unknownFaults;
}

/**
 * Static verdict for an instruction-level hit, replicating exactly
 * how the injection below lands in the register file: functional
 * -unit hits corrupt the just-written destination, register hits go
 * through ArchState::flipBit/writeBit whose index wraps onto x1..x31
 * (integer) or f0..f31 (float).
 */
std::uint8_t
instHitVerdict(const analysis::VulnAnalysis &vuln,
               const faults::FaultInjector &injector,
               const faults::FaultHit &hit, const isa::ExecResult &r,
               std::size_t inst_idx)
{
    using analysis::SiteVerdict;
    SiteVerdict v = SiteVerdict::Unknown;
    if (injector.kind() == faults::FaultKind::FunctionalUnit) {
        if (r.wroteInt)
            v = r.rd == 0 ? SiteVerdict::Dead  // writeX(0) discards
                          : vuln.regBitVerdict(
                                inst_idx, analysis::xslot(r.rd),
                                hit.bit);
        else if (r.wroteFp)
            v = vuln.regBitVerdict(inst_idx, analysis::fslot(r.rd),
                                   hit.bit);
    } else {
        switch (injector.config().targetCategory) {
          case isa::RegCategory::Integer:
            v = vuln.regBitVerdict(
                inst_idx,
                1 + hit.regIndex % (isa::numIntRegs - 1), hit.bit);
            break;
          case isa::RegCategory::Float:
            v = vuln.regBitVerdict(
                inst_idx,
                analysis::fslot(hit.regIndex % isa::numFpRegs),
                hit.bit);
            break;
          default:
            // fflags / pc corruption steers state the analysis does
            // not model bit-wise: stay conservative.
            v = SiteVerdict::Live;
            break;
        }
    }
    return std::uint8_t(v);
}

/**
 * The targeted events of one quiet run (no hook called), counted
 * where the per-event path would have consumed them, so each injector
 * can account its share afterwards.
 */
struct QuietTally
{
    /** Instructions that reached the injection hook, per class. */
    std::array<std::uint64_t, std::size_t(isa::InstClass::NumClasses)>
        hooked{};
    /** Log entries that reached the corruption hook. */
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;

    /** The targeted events @p injector saw in this run. */
    std::uint64_t
    eventsFor(const faults::FaultInjector &injector) const
    {
        const faults::FaultConfig &c = injector.config();
        switch (injector.kind()) {
          case faults::FaultKind::LogBitFlip:
            return (c.targetLoads ? loads : 0) +
                   (c.targetStores ? stores : 0);
          case faults::FaultKind::FunctionalUnit:
            return hooked[std::size_t(c.targetClass)];
          case faults::FaultKind::RegisterBitFlip:
            return std::accumulate(hooked.begin(), hooked.end(),
                                   std::uint64_t(0));
        }
        return 0;
    }
};

/**
 * The checker's data path: a queue view over the segment's log
 * entries.  Any skew between the checker's memory behaviour and the
 * recorded stream is a divergence.
 */
class LogReplayMemory : public isa::MemIf
{
  public:
    LogReplayMemory(const LogSegment &segment, faults::FaultPlan &plan,
                    ReplayOutcome *outcome,
                    const analysis::VulnAnalysis *vuln = nullptr)
        : segment_(segment), plan_(plan), outcome_(outcome),
          vuln_(vuln)
    {}

    /**
     * Tell the log which instruction is about to execute, so a log
     * -entry fault during its load can be judged against the static
     * model (the entry's influence depends on the consuming opcode's
     * width, extension and destination liveness).
     */
    void
    setContext(const isa::Instruction *inst, std::size_t inst_idx)
    {
        curInst_ = inst;
        curIdx_ = inst_idx;
    }

    std::uint64_t
    read(Addr addr, unsigned size) override
    {
        const LogEntry *entry = next();
        if (!entry || !entry->isLoad || entry->addr != addr ||
            entry->size != size) {
            diverged_ = true;
            reason_ = DetectReason::LoadEntryMismatch;
            return 0;
        }
        return corrupt(entry->value, true);
    }

    std::uint64_t
    write(Addr addr, unsigned size, std::uint64_t value) override
    {
        const LogEntry *entry = next();
        if (!entry || entry->isLoad || entry->addr != addr ||
            entry->size != size) {
            diverged_ = true;
            reason_ = DetectReason::StoreMismatch;
            return 0;
        }
        const std::uint64_t logged = corrupt(entry->value, false);
        if (logged != value) {
            diverged_ = true;
            reason_ = DetectReason::StoreMismatch;
        }
        return entry->oldValue;
    }

    /**
     * Quiet mode (non-null @p tally): count each entry that reaches
     * the corruption hook in @p tally instead of calling the
     * injectors.  nullptr restores per-event injection.
     */
    void setQuiet(QuietTally *tally) { quiet_ = tally; }

    bool diverged() const { return diverged_; }
    DetectReason reason() const { return reason_; }
    std::size_t consumed() const { return index_; }

  private:
    const LogEntry *
    next()
    {
        if (index_ >= segment_.entries().size())
            return nullptr;
        return &segment_.entries()[index_++];
    }

    std::uint64_t
    corrupt(std::uint64_t value, bool is_load)
    {
        // next() has already advanced, so the entry being consumed
        // is index_ - 1; chip mode maps it onto a physical log row.
        if (quiet_) {
            ++(is_load ? quiet_->loads : quiet_->stores);
            return value;
        }
        const std::uint64_t entry_index = index_ - 1;
        for (auto &injector : plan_.injectors()) {
            faults::FaultHit hit =
                injector.onLogEntry(is_load, entry_index);
            if (hit.fires) {
                if (vuln_) {
                    // Store entries are always compared at access
                    // width: any value flip is a StoreMismatch.
                    hit.verdict =
                        is_load && curInst_
                            ? std::uint8_t(vuln_->loadEntryVerdict(
                                  *curInst_, curIdx_, hit.bit))
                            : std::uint8_t(analysis::SiteVerdict::Live);
                    tallyVerdict(hit.verdict, *outcome_);
                }
                value = applyHit(hit, value);
                ++outcome_->faultsInjected;
                noteWeakHit(hit, *outcome_);
            }
        }
        return value;
    }

    const LogSegment &segment_;
    faults::FaultPlan &plan_;
    ReplayOutcome *outcome_;
    const analysis::VulnAnalysis *vuln_;
    const isa::Instruction *curInst_ = nullptr;
    std::size_t curIdx_ = 0;
    QuietTally *quiet_ = nullptr;
    std::size_t index_ = 0;
    bool diverged_ = false;
    DetectReason reason_ = DetectReason::None;
};

} // namespace

void
detail::landInstructionHit(const faults::FaultInjector &injector,
                           faults::FaultHit &hit,
                           const isa::ExecResult &r,
                           isa::ArchState &state,
                           const analysis::VulnAnalysis *vuln,
                           std::size_t inst_idx)
{
    if (vuln)
        hit.verdict = instHitVerdict(*vuln, injector, hit, r, inst_idx);
    if (injector.kind() == faults::FaultKind::FunctionalUnit) {
        // Corrupt the register the instruction just wrote.
        if (r.wroteInt)
            state.writeX(r.rd, applyHit(hit, state.readX(r.rd)));
        else if (r.wroteFp)
            state.writeFBits(r.rd, applyHit(hit, state.readFBits(r.rd)));
    } else if (hit.hasStuck) {
        state.writeBit(injector.config().targetCategory, hit.regIndex,
                       hit.bit, hit.stuckValue);
    } else {
        state.flipBit(injector.config().targetCategory, hit.regIndex,
                      hit.bit);
    }
}

ReplayOutcome
replaySegment(const isa::Program &prog, const LogSegment &segment,
              unsigned checker_id, cpu::CheckerTiming &timing,
              faults::FaultPlan &plan, unsigned final_compare_cycles,
              unsigned timeout_factor, Addr timing_offset,
              const isa::DecodedProgram *decoded,
              const analysis::VulnAnalysis *vuln)
{
    ReplayOutcome outcome;
    isa::ArchState state = segment.startState();
    // Attribute injected events to this checker so per-checker
    // (pinned permanent/intermittent) fault sources fire only when
    // the defective core is the one replaying.
    plan.setActiveChecker(int(checker_id));
    LogReplayMemory log(segment, plan, &outcome, vuln);

    // Watchdog budget: a healthy replay retires roughly one
    // instruction every few cycles; a corrupted one stuck in
    // expensive wrong-path work (divide chains, I-cache thrash)
    // blows well past this and is killed by the timer.
    const Cycles watchdog =
        timeout_factor == 0
            ? ~Cycles(0)
            : Cycles(timeout_factor) * (segment.instCount() + 16);

    const unsigned count = segment.instCount();
    // The checker's L0, resolved once per segment.  Checker cycles
    // accumulate in outcome.totalCycles.
    mem::Cache *const l0 = &timing.l0(checker_id);

    // The threaded-dispatch inner loop, devirtualized over the
    // log-replay adapter.  Injectors act between instructions, on the
    // architectural state the loop reads; a corrupted pc is the one
    // thing the loop does not re-read, so the sink stops the run and
    // the loop re-enters it at the new pc.  The sink is compiled once
    // injecting and once quiet (tallying events instead).  It runs
    // per replayed instruction, so it takes its constants by value and
    // only the state it updates by reference: each access is then one
    // load from the closure.
    std::shared_ptr<const isa::DecodedProgram> owned;
    if (!decoded) {
        owned = isa::DecodedProgram::get(prog);
        decoded = owned.get();
    }
    const isa::DecodedProgram &dp = *decoded;
    QuietTally tally;
    std::uint64_t mem_left = 0;  // quiet run: loads/stores it may run
    const auto replay = [&](auto injecting, std::uint64_t max_uops) {
        constexpr bool inject = decltype(injecting)::value;
        const auto sink = [&outcome, &log, &tally, &state, &plan, &timing,
                           l0, checker_id, timing_offset, count, watchdog,
                           vuln](const isa::CommitRecord &r) -> bool {
            if (!r.valid) {
                // Wild fetch: invalid checker behaviour, caught by
                // the hardware as an exception (paper figure 7).
                outcome.detected = true;
                outcome.reason = DetectReason::InvalidBehavior;
                return false;
            }
            outcome.totalCycles += timing.instCycles(
                *l0, checker_id, r.pc + timing_offset, r.cls);
            ++outcome.instructionsExecuted;
            if (log.diverged()) {
                outcome.detected = true;
                outcome.reason = log.reason();
                return false;
            }
            if (r.halted && outcome.instructionsExecuted != count) {
                outcome.detected = true;
                outcome.reason = DetectReason::InvalidBehavior;
                return false;
            }
            // Architectural-state fault injection after the
            // instruction.
            if constexpr (inject)
                outcome.faultsInjected += applyInstructionFaults(
                    plan, *r.inst, r, state,
                    [&outcome, vuln](const faults::FaultHit &hit) {
                        noteWeakHit(hit, outcome);
                        if (vuln)
                            tallyVerdict(hit.verdict, outcome);
                    },
                    vuln, std::size_t(r.pc / isa::instBytes));
            else
                ++tally.hooked[std::size_t(r.cls)];
            // The watchdog is checked before each fetch.
            if (outcome.totalCycles > watchdog &&
                outcome.instructionsExecuted != count) {
                outcome.detected = true;
                outcome.reason = DetectReason::Timeout;
                return false;
            }
            return !inject || state.pc() == r.nextPc;
        };
        const auto mem_gate = [&](std::uint64_t idx) {
            if constexpr (inject) {
                log.setContext(dp.at(idx).inst, idx);
                return true;
            } else {
                if (mem_left == 0)
                    return false;
                --mem_left;
                return true;
            }
        };
        const std::uint64_t end = outcome.instructionsExecuted + max_uops;
        while (!outcome.detected && outcome.instructionsExecuted < end)
            if (isa::runDecoded(dp, state, log,
                                end - outcome.instructionsExecuted, sink,
                                mem_gate) == isa::RunStop::MemNext)
                break;
    };

    // Skip-ahead: run quiet (no hook called) for as many events as
    // every injector proves cannot fire, account them, then step
    // only the instruction that can fire with injection.  An empty
    // plan is one unbounded quiet run.  Once an injector must see
    // every event (chip mode, latched, bursting) the rest of the
    // segment is stepped.
    std::vector<faults::FaultInjector> &injectors = plan.injectors();
    while (!outcome.detected && outcome.instructionsExecuted < count) {
        const std::uint64_t left = count - outcome.instructionsExecuted;
        std::uint64_t inst_quiet = left;
        std::uint64_t mem_quiet = faults::FaultInjector::unbounded;
        bool step_all = false;
        for (const faults::FaultInjector &injector : injectors) {
            step_all |= injector.stepsEveryEvent();
            std::uint64_t &quiet =
                injector.kind() == faults::FaultKind::LogBitFlip
                    ? mem_quiet
                    : inst_quiet;
            quiet = std::min(quiet, injector.quietEvents());
        }
        if (step_all) {
            replay(std::true_type{}, left);
            break;
        }
        if (inst_quiet > 0) {
            tally = QuietTally{};
            mem_left = mem_quiet;
            log.setQuiet(&tally);
            replay(std::false_type{}, inst_quiet);
            log.setQuiet(nullptr);
            for (faults::FaultInjector &injector : injectors)
                injector.skipEvents(tally.eventsFor(injector));
            if (outcome.detected ||
                outcome.instructionsExecuted == count)
                break;
        }
        replay(std::true_type{}, 1);
    }

    if (!outcome.detected) {
        // End-of-segment checks: the entry stream must be exactly
        // consumed and the architectural state must match the
        // checkpoint the main core recorded.
        outcome.totalCycles += final_compare_cycles;
        if (log.consumed() != segment.entries().size()) {
            outcome.detected = true;
            outcome.reason = DetectReason::EntryCountMismatch;
        } else if (!(state == segment.endState())) {
            outcome.detected = true;
            outcome.reason = DetectReason::FinalStateMismatch;
        }
    }

    outcome.cyclesAtDetection = outcome.totalCycles;
    return outcome;
}

} // namespace core
} // namespace paradox
