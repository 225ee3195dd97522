#include "cpu/main_core.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace paradox
{
namespace cpu
{

MainCore::MainCore(const MainCoreParams &params, ClockDomain &clock,
                   mem::CacheHierarchy &hierarchy)
    : params_(params), clock_(clock), hierarchy_(hierarchy),
      predictor_(params.predictor)
{
    regReadyX_.assign(isa::numIntRegs, 0);
    regReadyF_.assign(isa::numFpRegs, 0);
    robRing_.assign(params_.robEntries, 0);
    iqRing_.assign(params_.iqEntries, 0);
    lqRing_.assign(params_.lqEntries, 0);
    sqRing_.assign(params_.sqEntries, 0);
    intAluBusy_.assign(params_.intAlus, 0);
    fpAluBusy_.assign(params_.fpAlus, 0);
    multDivBusy_.assign(params_.multDivAlus, 0);
}

Tick
MainCore::sourceReady(const isa::CommitRecord &r) const
{
    // The per-opcode operand roles are resolved at decode time
    // (isa::decodeSources); here the scoreboard just walks the
    // encoded sources.
    Tick ready = 0;
    const std::uint8_t srcs[3] = {r.srcA, r.srcB, r.srcC};
    for (std::uint8_t s : srcs) {
        if (s == isa::srcNone)
            continue;
        const Tick t = isa::srcIsFp(s) ? regReadyF_[isa::srcIdx(s)]
                                       : regReadyX_[isa::srcIdx(s)];
        ready = std::max(ready, t);
    }
    return ready;
}

Tick
MainCore::useFu(std::vector<Tick> &group, Tick ready, unsigned latency,
                bool pipelined)
{
    auto slot = std::min_element(group.begin(), group.end());
    Tick start = std::max(ready, *slot);
    Tick complete = start + cycles(latency);
    // Pipelined units accept a new op next cycle; unpipelined ones
    // (dividers) block until completion.
    *slot = pipelined ? start + cycles(1) : complete;
    return complete;
}

CommitTiming
MainCore::advance(const isa::CommitRecord &r, Addr fetch_pc,
                  Addr mem_addr, Addr next_pc, std::uint64_t pin_seg,
                  std::uint64_t stamp)
{
    CommitTiming timing;

    // ---- Fetch ----------------------------------------------------
    Tick fetch_start = std::max(fetchReadyAt_, nextFetchSlot_);
    Tick fetch_done = hierarchy_.instFetch(fetch_pc, fetch_start);
    // Bandwidth: 'width' sequential fetches per cycle; an I-cache
    // miss additionally holds the in-order frontend.
    nextFetchSlot_ = std::max(fetch_start + slotTicks(),
                              fetch_done - cycles(1));

    // ---- Decode / rename ------------------------------------------
    Tick dispatch = fetch_done + cycles(params_.frontendCycles);

    // ---- Structural occupancy (ROB/IQ/LQ/SQ rings) -----------------
    dispatch = std::max(dispatch, robRing_[robHead_]);
    dispatch = std::max(dispatch, iqRing_[iqHead_]);
    if (r.isLoad)
        dispatch = std::max(dispatch, lqRing_[lqHead_]);
    if (r.isStore)
        dispatch = std::max(dispatch, sqRing_[sqHead_]);

    // ---- Operand readiness ----------------------------------------
    Tick ready = std::max(dispatch, sourceReady(r));

    // ---- Issue + execute ------------------------------------------
    Tick complete = ready;
    bool is_mem = r.isLoad || r.isStore;
    if (is_mem) {
        Tick issue = ready;
        if (r.isLoad) {
            for (;;) {
                auto d = hierarchy_.dataAccess(mem_addr, fetch_pc, false,
                                               issue, mem::noPin, stamp);
                if (!d.blockedPinned) {
                    complete = d.completeAt;
                    timing.l1dHit = d.l1Hit;
                    break;
                }
                if (!resolver_)
                    panic("MainCore: pinned stall without resolver");
                issue = resolver_(issue);
            }
        } else {
            // Stores complete at issue (into the SQ) and access the
            // cache at commit time, below.
            complete = issue + cycles(1);
        }
    } else {
        switch (r.cls) {
          case isa::InstClass::IntAlu:
            complete = useFu(intAluBusy_, ready, params_.intAluLat, true);
            break;
          case isa::InstClass::IntMult:
            complete = useFu(multDivBusy_, ready, params_.intMultLat,
                             true);
            break;
          case isa::InstClass::IntDiv:
            complete = useFu(multDivBusy_, ready, params_.intDivLat,
                             false);
            break;
          case isa::InstClass::FpAlu:
            complete = useFu(fpAluBusy_, ready, params_.fpAluLat, true);
            break;
          case isa::InstClass::FpMult:
            complete = useFu(multDivBusy_, ready, params_.fpMultLat,
                             true);
            break;
          case isa::InstClass::FpDiv:
            complete = useFu(multDivBusy_, ready, params_.fpDivLat,
                             false);
            break;
          case isa::InstClass::Branch:
          case isa::InstClass::Jump:
            complete = useFu(intAluBusy_, ready, params_.intAluLat, true);
            break;
          default:
            complete = ready + cycles(1);
            break;
        }
    }

    // ---- Branch resolution ----------------------------------------
    if (r.isBranch || r.isJump) {
        predictor_.predict(fetch_pc, *r.inst);
        const bool actually_taken = r.isJump ? true : r.taken;
        const bool miss =
            predictor_.update(fetch_pc, *r.inst, actually_taken,
                              next_pc);
        if (miss) {
            timing.mispredicted = true;
            ++mispredicts_;
            Tick redirect = complete + cycles(params_.redirectCycles);
            fetchReadyAt_ = std::max(fetchReadyAt_, redirect);
            nextFetchSlot_ = std::max(nextFetchSlot_, redirect);
        }
    }

    // ---- Commit (in order, width-limited) --------------------------
    Tick commit = std::max(complete, nextCommitSlot_);
    commit = std::max(commit, lastCommit_);
    nextCommitSlot_ = commit + slotTicks();
    lastCommit_ = commit;
    ++committed_;

    // ---- Stores hit the cache at commit ----------------------------
    if (r.isStore) {
        Tick at = commit;
        for (;;) {
            auto d = hierarchy_.dataAccess(mem_addr, fetch_pc, true, at,
                                           pin_seg, stamp);
            if (!d.blockedPinned) {
                timing.l1dHit = d.l1Hit;
                timing.needsLineCopy = d.needsLineCopy;
                break;
            }
            if (!resolver_)
                panic("MainCore: pinned stall without resolver");
            at = resolver_(at);
            // The stall delays this commit and everything younger.
            commit = std::max(commit, at);
            lastCommit_ = std::max(lastCommit_, commit);
            nextCommitSlot_ = std::max(nextCommitSlot_,
                                       commit + slotTicks());
        }
    }

    // ---- Scoreboard updates ----------------------------------------
    if (r.wroteInt)
        regReadyX_[r.rd] = complete;
    if (r.wroteFp)
        regReadyF_[r.rd] = complete;

    robRing_[robHead_] = commit;
    if (++robHead_ == robRing_.size())
        robHead_ = 0;
    iqRing_[iqHead_] = complete;
    if (++iqHead_ == iqRing_.size())
        iqHead_ = 0;
    if (r.isLoad) {
        lqRing_[lqHead_] = commit;
        if (++lqHead_ == lqRing_.size())
            lqHead_ = 0;
    }
    if (r.isStore) {
        sqRing_[sqHead_] = commit;
        if (++sqHead_ == sqRing_.size())
            sqHead_ = 0;
    }

    timing.commitAt = commit;
    return timing;
}

void
MainCore::stallUntil(Tick t)
{
    if (t <= lastCommit_)
        return;
    lastCommit_ = t;
    nextCommitSlot_ = std::max(nextCommitSlot_, t);
    fetchReadyAt_ = std::max(fetchReadyAt_, t);
    nextFetchSlot_ = std::max(nextFetchSlot_, t);
}

void
MainCore::blockCommit(Cycles n)
{
    Tick block = cycles(unsigned(n));
    nextCommitSlot_ = std::max(nextCommitSlot_, lastCommit_) + block;
    lastCommit_ += block;
}

void
MainCore::resetPipeline(Tick at)
{
    fetchReadyAt_ = at;
    nextFetchSlot_ = at;
    nextCommitSlot_ = at;
    lastCommit_ = at;
    std::fill(regReadyX_.begin(), regReadyX_.end(), at);
    std::fill(regReadyF_.begin(), regReadyF_.end(), at);
    std::fill(robRing_.begin(), robRing_.end(), at);
    std::fill(iqRing_.begin(), iqRing_.end(), at);
    std::fill(lqRing_.begin(), lqRing_.end(), at);
    std::fill(sqRing_.begin(), sqRing_.end(), at);
    std::fill(intAluBusy_.begin(), intAluBusy_.end(), at);
    std::fill(fpAluBusy_.begin(), fpAluBusy_.end(), at);
    std::fill(multDivBusy_.begin(), multDivBusy_.end(), at);
}

} // namespace cpu
} // namespace paradox
