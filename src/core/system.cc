#include "core/system.hh"

#include <algorithm>
#include <limits>

#include "analysis/vuln.hh"
#include "core/logbytes.hh"
#include "core/replay_helper.hh"
#include "isa/decoded.hh"
#include "isa/decoded_run.hh"
#include "isa/opcode.hh"
#include "sim/logging.hh"

namespace paradox
{
namespace core
{

namespace
{

/** The deferred replay's lower bound: no instruction is free. */
constexpr bool
everyClassCostsACheckerCycle()
{
    for (unsigned c = 0; c < unsigned(isa::InstClass::NumClasses); ++c)
        if (isa::checkerExecCycles(isa::InstClass(c)) == 0)
            return false;
    return true;
}
static_assert(everyClassCostsACheckerCycle(),
              "a deferred replay's finish bound is one cycle per "
              "instruction");

} // namespace

System::System(const SystemConfig &config, const isa::Program &program)
    : System(config, program, nullptr)
{
}

System::System(const SystemConfig &config, const isa::Program &program,
               SharedUncore *uncore)
    : config_(config), program_(program), mainClock_(config.mainFreqHz),
      ckptCtrl_(config.checkpointAimd, config.adaptiveCheckpoints),
      powerModel_(power::PowerModel::Params{
          config.voltage.vSafe, config.mainFreqHz, 0.85, 0.05,
          config.checkers.count, 0.02}),
      fvModel_(power::FrequencyVoltageModel::Params{
          config.mainFreqHz, config.voltage.vSafe, 0.45}),
      energy_(powerModel_)
{
    config_.validate();
    // A segment's bytes hold at most this many line copies.
    linesCopiedThisCkpt_.reserve(config_.log.segmentBytes /
                                 config_.log.lineCopyBytes + 1);
    decodedProg_ = isa::DecodedProgram::get(program_);
    if (uncore) {
        // A multicore interleaves cores min-local-time-first, one
        // stepOnce() at a time, so shared L2/DRAM accesses happen in
        // simulated-time order: a batch of more than one instruction
        // would let one core race ahead of its siblings' clocks.
        batchLimit_ = 1;
        hierarchy_ = std::make_unique<mem::CacheHierarchy>(
            config_.hierarchy, mainClock_, uncore->l2.get(),
            uncore->dram.get());
    } else {
        hierarchy_ = std::make_unique<mem::CacheHierarchy>(
            config_.hierarchy, mainClock_);
    }
    dtlb_ = std::make_unique<mem::Tlb>(mem::TlbParams{},
                                       config_.physicalOffset);
    itlb_ = std::make_unique<mem::Tlb>(mem::TlbParams{},
                                       config_.physicalOffset);
    mainCore_ = std::make_unique<cpu::MainCore>(config_.mainCore,
                                                mainClock_, *hierarchy_);
    if (uncore && uncore->checkers) {
        schedPtr_ = uncore->checkers.get();
        checkerTimingPtr_ = uncore->checkerTiming.get();
    } else {
        checkerTiming_ =
            std::make_unique<cpu::CheckerTiming>(config_.checkers);
        sched_ = std::make_unique<CheckerScheduler>(
            config_.checkers.count,
            config_.lowestIdScheduling ? SchedPolicy::LowestFreeId
                                       : SchedPolicy::RoundRobin,
            config_.seed);
        sched_->setHealthParams(
            HealthParams{config_.escalation.quarantineEnabled,
                         config_.escalation.strikesToQuarantine,
                         config_.escalation.strikeWindow});
        schedPtr_ = sched_.get();
        checkerTimingPtr_ = checkerTiming_.get();
    }
    voltCtrl_ = std::make_unique<VoltageController>(config_.voltage);
    regulator_ = std::make_unique<Regulator>(
        config_.voltage.startVoltage,
        config_.voltage.regulatorSlewVoltsPerUs);

    currentVoltage_ = config_.voltage.vSafe;
    currentFreq_ = config_.mainFreqHz;
    eccRng_.seed(config_.seed ^ 0xecc0ecc0ecc0ecc0ULL);
    eccGap_ = eccRng_.geometric(config_.memoryEccFaultRate);
    dueGap_ = eccRng_.geometric(config_.memoryEccDueRate);
    if (config_.escalation.progressWatchdogUs > 0.0)
        watchdogTicks_ = Tick(config_.escalation.progressWatchdogUs *
                              double(ticksPerUs));

    // The "system" group registers first so its classic lines lead
    // the dump, exactly as before the registry migration.
    stats::StatGroup &sys = registry_.group("system");
    rollbackNs_ = &sys.add<stats::Distribution>(
        "rollbackNs", "memory rollback time per recovery (ns)");
    wastedNs_ = &sys.add<stats::Distribution>(
        "wastedExecNs", "execution wasted per recovery (ns)");
    ckptLen_ = &sys.add<stats::Distribution>(
        "checkpointLength", "instructions per checkpoint");
    ckptHist_ = &sys.add<stats::Histogram>(
        "checkpointLengthHist",
        "distribution of instructions per checkpoint", 0.0, 5000.0,
        50);
    evictionCuts_ = &sys.add<stats::Counter>(
        "evictionCuts", "checkpoints cut by pinned-line evictions");
    capacityCuts_ = &sys.add<stats::Counter>(
        "capacityCuts", "checkpoints cut by log capacity");
    targetCuts_ = &sys.add<stats::Counter>(
        "targetCuts", "checkpoints cut by reaching the AIMD target");
    checkerWaitStalls_ = &sys.add<stats::Counter>(
        "checkerWaitStalls", "stalls waiting for a free checker");
    retriesStat_ = &sys.add<stats::Counter>(
        "escalationRetries",
        "flagged segments re-verified on a second checker");
    retrySavesStat_ = &sys.add<stats::Counter>(
        "escalationRetrySaves",
        "re-verifications that retired the segment without rollback");
    quarantinesStat_ = &sys.add<stats::Counter>(
        "escalationQuarantines",
        "checkers retired from the pool by clustered detections");
    panicResetsStat_ = &sys.add<stats::Counter>(
        "escalationPanicResets",
        "voltage-island panic resets to v_safe with backoff");
    watchdogTripsStat_ = &sys.add<stats::Counter>(
        "escalationWatchdogTrips",
        "forward-progress watchdog escalations");
    dueRollbacksStat_ = &sys.add<stats::Counter>(
        "escalationDueRollbacks",
        "machine-check rollbacks from uncorrectable ECC errors");
    voltTrace_ = &sys.add<stats::TimeSeries>(
        "voltage", "main-core supply voltage over time", 200000);

    // Component counters, published as Gauges over the raw members.
    stats::StatGroup &main_g = registry_.group("main");
    mainCore_->registerStats(main_g);
    main_g.add<stats::Gauge>("checkpoints", "checkpoints taken",
                             [this] { return double(checkpoints_); });
    sbBatches_ = &main_g.add<stats::Counter>(
        "sb_batches", "superblock batches that committed progress");
    sbUops_ = &main_g.add<stats::Counter>(
        "sb_uops", "micro-ops committed inside superblock batches");
    sbGateStops_ = &main_g.add<stats::Counter>(
        "sb_gate_stops",
        "superblock batch stops from a gate-refused memory op");
    main_g.add<stats::Gauge>("checkers_busy", "checker cores busy",
                             [this] {
                                 return double(sched()->busyCount());
                             });
    mainCore_->predictor().registerStats(registry_.group("main.bpred"));
    stats::StatGroup &faults_g = registry_.group("faults");
    faults_g.add<stats::Gauge>("rollbacks", "rollback recoveries",
                               [this] { return double(rollbacks_); });
    faults_g.add<stats::Gauge>("detections", "errors detected",
                               [this] { return double(detections_); });
    faults_g.add<stats::Gauge>("injected", "faults injected",
                               [this] {
                                   return double(faultsInjectedTotal_);
                               });
    hierarchy_->registerStats(registry_);
    dtlb_->registerStats(registry_.group("mem.dtlb"));
    itlb_->registerStats(registry_.group("mem.itlb"));

    // Mark the stats the tracer samples periodically.  The series
    // names are the counter-track event names the trace schema has
    // always used, so trace consumers see no rename.
    const auto mark = [this](const char *stat, const char *series) {
        if (stats::Stat *s = registry_.find(stat))
            s->setSeries(series);
        else
            panic("System: sampled stat missing from registry");
    };
    mark("main.committed", "committed");
    mark("main.sb_batches", "sb_batches");
    mark("main.sb_uops", "sb_uops");
    mark("main.sb_gate_stops", "sb_gate_stops");
    mark("main.mispredicts", "mispredicts");
    mark("main.checkpoints", "checkpoints");
    mark("main.checkers_busy", "checkers_busy");
    mark("faults.rollbacks", "rollbacks");
    mark("faults.detections", "detections");
    mark("faults.injected", "faults_injected");
    mark("mem.l1d.misses", "l1d_misses");
    mark("mem.l2.misses", "l2_misses");
    mark("mem.l1d.pinned_lines", "pinned_lines");
    mark("mem.l1d.pinned_blocks", "pinned_blocks");

    mainCore_->setPinnedStallResolver([this](Tick now) -> Tick {
        // An eviction attempt on a fully pinned set: the paper cuts
        // the checkpoint, reduces the AIMD target, and waits for a
        // check to complete (sections II-B, IV-A).  The reduction
        // starts from the settled target.
        settleReplay();
        ++*evictionCuts_;
        if (config_.adaptiveCheckpoints)
            ckptCtrl_.onReduction(std::max(instsInSegment_, 1u));
        if (filling_ && instsInSegment_ > 0)
            closeSegmentAndDispatch();
        Tick t = std::max(now, mainCore_->now());
        if (!pending_.empty()) {
            t = std::max(t, waitForOldestRelease(t));
            if (!pending_.empty() && pending_.front().detected) {
                // The completing check *failed*: rollback happens as
                // soon as control returns to the run loop; free the
                // pins now so the stalled access can proceed (its
                // effects are logged and will be undone).
                hierarchy_->rollbackFrom(pending_.front().segment->id());
            }
        }
        retireVerifiedUpTo(t);
        return t;
    });
}

System::~System()
{
    settleReplay();
    if (deferred_.attached)
        deferred_.attached->detach();
}

void
System::setTracer(obs::TraceSink *sink, Tick metrics_interval)
{
    tracer_ = sink;
    metrics_.reset();
    trCheckers_.clear();
    fillSpanOpen_ = false;
    if (!tracing())
        return;

    // Track taxonomy (ids are also the Perfetto sort order): the main
    // core first, then its segment lifecycle, one track per checker,
    // then the DVFS domain, the fault machinery, and memory counters.
    trMain_ = sink->addTrack("main");
    trSegments_ = sink->addTrack("main/segments");
    trCheckers_.reserve(sched()->count());
    for (unsigned i = 0; i < sched()->count(); ++i)
        trCheckers_.push_back(
            sink->addTrack("checker/" + std::to_string(i)));
    trDvfs_ = sink->addTrack("dvfs");
    trFaults_ = sink->addTrack("faults");
    trMem_ = sink->addTrack("mem");

    // Counter tracks come generically from the stats registry: every
    // stat marked with a series name in the ctor becomes a probe,
    // routed to a track by its group prefix.  Adding a sampled metric
    // is now one setSeries call, not a hand-wired probe here.
    metrics_ = std::make_unique<obs::MetricsSampler>(
        *sink, metrics_interval);
    metrics_->probeRegistry(
        registry_, [this](const stats::Stat &s) -> obs::TrackId {
            const std::string &n = s.name();
            if (n.rfind("mem.", 0) == 0)
                return trMem_;
            if (n.rfind("faults.", 0) == 0)
                return trFaults_;
            return trMain_;
        });
}

void
System::traceEndFill(Tick ts)
{
    if (fillSpanOpen_) {
        tracer_->end(trSegments_, "fill", ts);
        fillSpanOpen_ = false;
    }
}

void
System::traceOperatingPoint(Tick ts)
{
    tracer_->counter(trDvfs_, "voltage", ts, currentVoltage_);
    tracer_->counter(trDvfs_, "frequency_ghz", ts,
                     currentFreq_ / 1e9);
}

void
System::setFaultPlan(faults::FaultPlan plan)
{
    plan.validate(sched() ? sched()->count() : config_.checkers.count);
    settleReplay();  // the replay in flight reads faultPlan_
    faultPlan_ = std::move(plan);
    if (chip_) {
        faultPlan_.attachChip(chip_.get());
        faultPlan_.setVoltage(currentVoltage_);
    }
}

void
System::setMainCoreFaultPlan(faults::FaultPlan plan)
{
    plan.validate(sched() ? sched()->count() : config_.checkers.count);
    mainCoreFaultPlan_ = std::move(plan);
    if (chip_) {
        mainCoreFaultPlan_.attachChip(chip_.get());
        mainCoreFaultPlan_.setVoltage(currentVoltage_);
    }
}

void
System::setChipModel(std::shared_ptr<const faults::ChipModel> chip)
{
    settleReplay();
    chip_ = std::move(chip);
    faultPlan_.attachChip(chip_.get());
    mainCoreFaultPlan_.attachChip(chip_.get());
    if (chip_) {
        faultPlan_.setVoltage(currentVoltage_);
        mainCoreFaultPlan_.setVoltage(currentVoltage_);
    }
}

void
System::setSupplyVoltage(double v)
{
    // A fixed undervolted rail: probabilities move with the supply,
    // the clock deliberately stays nominal (margin elimination
    // without frequency scaling -- the premise being stress-tested).
    settleReplay();
    currentVoltage_ = v;
    faultPlan_.setVoltage(v);
    mainCoreFaultPlan_.setVoltage(v);
}

void
System::setVulnModel(std::shared_ptr<const analysis::VulnAnalysis> vuln)
{
    settleReplay();
    vuln_ = std::move(vuln);
}

bool
System::maybeMainCoreFault(const isa::CommitRecord &r)
{
    // The corruption logic itself (which register, stuck-at vs flip)
    // is shared with the checker replay: applyInstructionFaults.
    const std::uint64_t fired = applyInstructionFaults(
        mainCoreFaultPlan_, *r.inst, r, archState_,
        [this](const faults::FaultHit &hit) {
            if (vuln_) {
                ++mainFiredInSeg_;
                switch (hit.verdict) {
                  case 2:
                    ++mainDeadInSeg_;
                    ++vulnDeadFired_;
                    break;
                  case 1:
                    ++vulnLiveFired_;
                    break;
                  default:
                    ++vulnUnknownFired_;
                    break;
                }
            }
            if (!tracing())
                return;
            tracer_->instant(trFaults_, "main-fault",
                             mainCore_->now(), nullptr,
                             double(hit.bit));
            if (hit.site >= 0)
                tracer_->instant(trFaults_, "weak-cell-hit",
                                 mainCore_->now(), "main",
                                 double(hit.site));
        },
        vuln_.get(), std::size_t(r.pc / isa::instBytes));
    faultsInjectedTotal_ += fired;
    return fired != 0;
}

void
System::enableDvfs(const faults::UndervoltErrorModel::Params &model)
{
    settleReplay();
    config_.dvfsEnabled = true;
    undervoltModel_.emplace(model);
    faultPlan_ = faults::uniformPlan(0.0, config_.seed);
    currentVoltage_ = config_.voltage.startVoltage;
    if (chip_) {
        faultPlan_.attachChip(chip_.get());
        faultPlan_.setVoltage(currentVoltage_);
    }
}

void
System::captureLineCopies(const isa::CommitRecord &r)
{
    const unsigned lb = hierarchy_->lineBytes();
    Addr first = r.memAddr & ~Addr(lb - 1);
    Addr last = (r.memAddr + r.memSize - 1) & ~Addr(lb - 1);
    for (Addr line = first; line <= last; line += lb) {
        if (linesCopiedThisCkpt_.contains(line))
            continue;
        // Reconstruct the pre-store line image: memory already holds
        // the post-store bytes, so splice the overwritten value back
        // in where the store touched this line.
        std::vector<std::uint8_t> &bytes = lineImage_;
        bytes.resize(lb);
        memory_.readBlock(line, bytes.data(), lb);
        for (unsigned i = 0; i < r.memSize; ++i) {
            Addr byte_addr = r.memAddr + i;
            if (byte_addr >= line && byte_addr < line + lb)
                bytes[byte_addr - line] =
                    std::uint8_t(r.storeOld >> (8 * i));
        }
        // The rollback side is addressed physically, "to allow
        // rollback without translation" (section IV-D).
        filling_->appendLineCopy(dtlb_->physical(line), bytes,
                                 config_.log.lineCopyBytes);
        linesCopiedThisCkpt_.insert(line);
    }
}

inline void
System::logResult(const isa::CommitRecord &r)
{
    const LogParams &log = config_.log;
    if (r.isLoad) {
        filling_->appendLoad(r.memAddr, r.memSize, r.loadValue,
                             log.loadEntryBytes);
    } else if (r.isStore) {
        if (config_.lineGranularityRollback) {
            captureLineCopies(r);
            filling_->appendStore(r.memAddr, r.memSize, r.storeValue,
                                  r.storeOld, log.storeEntryBytes);
        } else {
            unsigned entry = log.storeEntryBytes;
            if (config_.rollbackSupported)
                entry += log.storeOldValueBytes;
            filling_->appendStore(r.memAddr, r.memSize, r.storeValue,
                                  r.storeOld, entry);
        }
    }
}

bool
System::openSegment()
{
    for (;;) {
        retireVerifiedUpTo(mainCore_->now());
        int id = sched()->allocate(mainCore_->now());
        if (id >= 0) {
            fillingChecker_ = id;
            if (spareSegments_.empty()) {
                filling_ = std::make_unique<LogSegment>();
            } else {
                filling_ = std::move(spareSegments_.back());
                spareSegments_.pop_back();
            }
            filling_->open(segSeq_++, archState_, netIndex_,
                           mainCore_->now());
            instsInSegment_ = 0;
            segBoundBytes_ = 0;
            mainFiredInSeg_ = 0;
            mainDeadInSeg_ = 0;
            linesCopiedThisCkpt_.clear();
            if (tracing()) {
                tracer_->begin(trSegments_, "fill", mainCore_->now(),
                               filling_->id());
                fillSpanOpen_ = true;
            }
            // Continuity: record the next segment's checker in the
            // previously filled segment (section IV-C).
            if (!pending_.empty())
                pending_.back().segment->setNextCheckerId(id);
            return true;
        }
        ++*checkerWaitStalls_;
        if (tracing())
            tracer_->instant(trMain_, "checker-wait",
                             mainCore_->now());
        if (pending_.empty()) {
            // A shared checker pool exhausted by *other* cores: idle
            // a short quantum and yield so the interleaver can run
            // them (their releases free the pool).  Cannot happen
            // with a private pool -- our own segments would hold it.
            mainCore_->stallUntil(mainCore_->now() +
                                  mainClock_.cyclesToTicks(64));
            return false;
        }
        Tick t = waitForOldestRelease(mainCore_->now());
        mainCore_->stallUntil(t);
        if (processDetections(mainCore_->now())) {
            // Rolled back; checkers freed, loop re-allocates.
            continue;
        }
    }
}

void
System::closeSegmentAndDispatch()
{
    // Replays run one at a time, in dispatch order.
    settleReplay();
    filling_->close(archState_, instsInSegment_, mainCore_->now());
    if (tracing()) {
        traceEndFill(mainCore_->now());
        // Committed-instruction count of the segment just closed;
        // `trace_report --memdep` bounds the segment's log bytes by
        // it times the static per-op worst case.
        tracer_->instant(trSegments_, "seg-insts", mainCore_->now(),
                         nullptr, double(instsInSegment_),
                         filling_->id());
        // Actual log bytes vs the static worst-case bound the
        // segment's accesses were admitted under; `trace_report
        // --memdep` asserts actual <= bound on fault-free runs.
        tracer_->instant(trSegments_, "seg-log-bytes",
                         mainCore_->now(), nullptr,
                         double(filling_->bytesUsed()),
                         filling_->id());
        tracer_->instant(trSegments_, "seg-bound-bytes",
                         mainCore_->now(), nullptr,
                         double(segBoundBytes_), filling_->id());
    }
    // Taking the register checkpoint blocks commit (Table I).
    mainCore_->blockCommit(config_.regCheckpointCycles);
    const Tick dispatch = mainCore_->now();

    PendingCheck pc;
    pc.checkerId = unsigned(fillingChecker_);
    pc.startTick = dispatch;
    if (replayDeferrable()) {
        // No fault can reach the replay, so it can only come back
        // clean: it runs on the helper thread and settleReplay()
        // applies the outcome where it is first needed.  Until then
        // the finish tick is a lower bound: a clean replay retires all
        // instCount instructions, each in at least one checker cycle.
        pc.deferred = true;
        pc.finishTick = pc.detectTick =
            dispatch + checkerTiming()->cyclesToTicks(
                           Cycles(filling_->instCount()));
        deferred_.segment = filling_.get();
        deferred_.checkerId = pc.checkerId;
        if (!deferred_.attached) {
            deferred_.attached = &ReplayHelper::forThisThread();
            deferred_.attached->attach();
        }
        deferred_.helper = deferred_.attached;
        deferred_.helper->post(&System::runDeferredReplay, this);
    } else {
        replayInline(pc, dispatch);
    }
    pc.segment = std::move(filling_);

    ckptLen_->sample(double(pc.segment->instCount()));
    ckptHist_->sample(double(pc.segment->instCount()));
    ++checkpoints_;

    if (pc.detected)
        nextDetectTick_ = std::min(nextDetectTick_, pc.detectTick);
    pending_.push_back(std::move(pc));
    refreshNextEvent();

    fillingChecker_ = -1;
    instsInSegment_ = 0;
    segBoundBytes_ = 0;
    linesCopiedThisCkpt_.clear();

    checkpointHousekeeping();
}

ReplayOutcome
System::replayOn(const LogSegment &seg, unsigned checker_id)
{
    return replaySegment(program_, seg, checker_id, *checkerTiming(),
                         faultPlan_, config_.rollback.finalCompareCycles,
                         config_.checkerTimeoutFactor,
                         config_.physicalOffset, decodedProg_.get(),
                         vuln_.get());
}

bool
System::replayDeferrable()
{
    constexpr std::uint64_t disarmed =
        std::numeric_limits<std::uint64_t>::max();
    // An empty main-core plan also means the segment saw no main-core
    // fire.
    if (!mainCoreFaultPlan_.empty() || (eccGap_ & dueGap_) != disarmed ||
        config_.dvfsEnabled || tracing() || vuln_ || sched_ == nullptr)
        return false;
    // The previous replay has settled, so the plan is current.  The
    // replay feeds each injector at most one event per instruction
    // (register and functional-unit sources) or per log entry (log
    // sources); if every injector stays quiet that long, none fires.
    // A source that must see every event (chip mode, latched, in a
    // burst) has no quiet events, so its checker replays inline.
    faultPlan_.setActiveChecker(fillingChecker_);
    const LogSegment &seg = *filling_;
    for (const faults::FaultInjector &injector : faultPlan_.injectors()) {
        const std::uint64_t events =
            injector.kind() == faults::FaultKind::LogBitFlip
                ? seg.entries().size()
                : seg.instCount();
        if (injector.quietEvents() < events)
            return false;
    }
    return true;
}

void
System::runDeferredReplay(void *self)
{
    System &sys = *static_cast<System *>(self);
    DeferredReplay &d = sys.deferred_;
    d.out = sys.replayOn(*d.segment, d.checkerId);
}

void
System::settleReplay()
{
    if (!deferred_.helper)
        return;
    deferred_.helper->finish(this);
    deferred_.helper = nullptr;
    PendingCheck &pc = pending_.back();
    if (!pc.deferred || pc.segment.get() != deferred_.segment)
        panic("System: the deferred replay is not the youngest check");
    const ReplayOutcome &out = deferred_.out;
    const Tick finish =
        pc.startTick + checkerTiming()->cyclesToTicks(out.totalCycles);
    if (out.detected || out.faultsInjected != 0 || finish < pc.finishTick)
        panic("System: a deferred replay detected a divergence, "
              "injected a fault or finished below its bound");
    // No injector could fire in this segment, so no fault counter
    // moves: the replay only advanced their gaps.
    pc.deferred = false;
    pc.finishTick = pc.detectTick = finish;
    sched()->recordOutcome(pc.checkerId, false);
    consecutiveRollbacks_ = 0;
    noteCleanReplay(pc.startTick);
    refreshNextEvent();
}

void
System::noteCleanReplay(Tick dispatch)
{
    ckptCtrl_.onCleanCheckpoint();
    if (config_.dvfsEnabled && dispatch >= backoffUntil_) {
        voltCtrl_->onCleanCheckpoint();
        backoffStage_ = 0;
    }
}

void
System::replayInline(PendingCheck &pc, Tick dispatch)
{
    ReplayOutcome out = replayOn(*filling_, pc.checkerId);
    faultsInjectedTotal_ += out.faultsInjected;
    vulnDeadFired_ += out.deadFaults;
    vulnLiveFired_ += out.liveFaults;
    vulnUnknownFired_ += out.unknownFaults;
    // Faults that fired in this segment's window, on either side of
    // the main/checker pair, and how many were statically dead.  The
    // deadness contract: a flip at a provably-masked site may surface
    // only as a FinalStateMismatch (registers dead at segment end are
    // compared anyway) -- any other detection reason from an
    // all-dead-fault segment falsifies the static model.
    std::uint64_t segFired = out.deadFaults + out.liveFaults +
                             out.unknownFaults + mainFiredInSeg_;
    std::uint64_t segDead = out.deadFaults + mainDeadInSeg_;
    const auto deadDivergence = [this](const ReplayOutcome &o,
                                       std::uint64_t fired,
                                       std::uint64_t dead) {
        if (vuln_ && o.detected &&
            o.reason != DetectReason::FinalStateMismatch && fired > 0 &&
            dead == fired)
            ++deadDivergences_;
    };
    deadDivergence(out, segFired, segDead);
    if (tracing() && out.faultsInjected > 0)
        tracer_->instant(trFaults_, "inject", dispatch, nullptr,
                         double(out.faultsInjected), filling_->id());
    if (tracing())
        for (std::uint32_t site : out.weakSites)
            tracer_->instant(trFaults_, "weak-cell-hit", dispatch,
                             nullptr, double(site), filling_->id());

    bool detected = out.detected;
    Cycles total_cycles = out.totalCycles;
    Cycles detect_cycles = out.cyclesAtDetection;

    if (detected && config_.escalation.retryVerify) {
        // Escalation rung 1: detection is symmetric, so before
        // paying a rollback get a second opinion from a different
        // checker.  A clean re-verification proves the log and
        // checkpoints are intact -- the *first checker* erred -- and
        // the segment retires with no recovery cost.
        int retry_id = sched()->allocate(dispatch);
        if (retry_id >= 0) {
            ++retryVerifies_;
            ++*retriesStat_;
            ReplayOutcome retry = replayOn(*filling_, unsigned(retry_id));
            faultsInjectedTotal_ += retry.faultsInjected;
            vulnDeadFired_ += retry.deadFaults;
            vulnLiveFired_ += retry.liveFaults;
            vulnUnknownFired_ += retry.unknownFaults;
            segFired += retry.deadFaults + retry.liveFaults +
                        retry.unknownFaults;
            segDead += retry.deadFaults;
            // The retry replays the same (possibly main-corrupted)
            // log, so main-side hits stay in its fault population;
            // the first checker's do not.
            deadDivergence(retry,
                           retry.deadFaults + retry.liveFaults +
                               retry.unknownFaults + mainFiredInSeg_,
                           retry.deadFaults + mainDeadInSeg_);
            // The retry starts when the first replay signals.
            const Cycles retry_end =
                detect_cycles + retry.totalCycles;
            sched()->release(unsigned(retry_id),
                             dispatch +
                                 checkerTiming()->cyclesToTicks(
                                     retry_end));
            if (config_.lowestIdScheduling)
                checkerTiming()->powerGated(unsigned(retry_id));
            if (tracing()) {
                const Tick retry_start =
                    dispatch +
                    checkerTiming()->cyclesToTicks(detect_cycles);
                tracer_->complete(
                    checkerTrack(unsigned(retry_id)), "retry-verify",
                    retry_start,
                    checkerTiming()->cyclesToTicks(retry.totalCycles),
                    filling_->id(),
                    retry.detected ? detectReasonName(retry.reason)
                                   : nullptr);
                if (retry.faultsInjected > 0)
                    tracer_->instant(trFaults_, "inject", retry_start,
                                     nullptr,
                                     double(retry.faultsInjected),
                                     filling_->id());
                for (std::uint32_t site : retry.weakSites)
                    tracer_->instant(trFaults_, "weak-cell-hit",
                                     retry_start, nullptr,
                                     double(site), filling_->id());
            }
            if (!retry.detected) {
                // Saved: strike the erring checker, credit the
                // clean one.
                ++retrySaves_;
                ++*retrySavesStat_;
                ++detections_;
                ++reasonCounts_[static_cast<std::size_t>(out.reason)];
                if (vuln_ && segFired > 0 && segDead == segFired)
                    ++maskedDetections_;
                if (tracing())
                    tracer_->instant(trFaults_, "retry-save",
                                     dispatch,
                                     detectReasonName(out.reason),
                                     double(fillingChecker_),
                                     filling_->id());
                if (sched()->recordOutcome(unsigned(fillingChecker_),
                                           true)) {
                    ++quarantines_;
                    ++*quarantinesStat_;
                    if (tracing())
                        tracer_->instant(
                            checkerTrack(unsigned(fillingChecker_)),
                            "quarantine", dispatch);
                }
                sched()->recordOutcome(unsigned(retry_id), false);
                if (config_.dvfsEnabled)
                    voltCtrl_->onError(regulator_->voltageAt(
                        dispatch + checkerTiming()->cyclesToTicks(
                                       detect_cycles)));
                detected = false;
                total_cycles = retry_end;
            } else {
                // Both checkers flagged it: the corruption is on the
                // log/checkpoint side, so neither checker is struck
                // and the ladder proceeds to rollback.
                detected = true;
                detect_cycles += retry.cyclesAtDetection;
                total_cycles = detect_cycles;
            }
        } else if (sched()->recordOutcome(unsigned(fillingChecker_),
                                          true)) {
            // No spare checker for a second opinion: record the
            // strike and fall through to rollback.
            ++quarantines_;
            ++*quarantinesStat_;
            if (tracing())
                tracer_->instant(
                    checkerTrack(unsigned(fillingChecker_)),
                    "quarantine", dispatch);
        }
    } else if (sched()->recordOutcome(unsigned(fillingChecker_),
                                      detected)) {
        ++quarantines_;
        ++*quarantinesStat_;
        if (tracing())
            tracer_->instant(checkerTrack(unsigned(fillingChecker_)),
                             "quarantine", dispatch);
    }

    pc.finishTick =
        dispatch + checkerTiming()->cyclesToTicks(total_cycles);
    pc.detected = detected;
    pc.detectTick =
        dispatch + checkerTiming()->cyclesToTicks(detect_cycles);
    pc.reason = out.reason;
    pc.segFired = segFired;
    pc.segDead = segDead;

    if (tracing()) {
        // The replay's timing is resolved synchronously, so the whole
        // checker span (and any detection signal) can be recorded
        // now with its future timestamps; the writers sort by time.
        tracer_->complete(checkerTrack(pc.checkerId), "check",
                          pc.startTick,
                          pc.finishTick > pc.startTick
                              ? pc.finishTick - pc.startTick
                              : 0,
                          filling_->id(),
                          detected ? detectReasonName(pc.reason)
                                   : nullptr);
        if (detected)
            tracer_->instant(checkerTrack(pc.checkerId), "detect",
                             pc.detectTick,
                             detectReasonName(pc.reason), 0.0,
                             filling_->id());
    }

    if (!detected) {
        consecutiveRollbacks_ = 0;
        if (!out.detected)
            noteCleanReplay(dispatch);
    }
}

bool
System::drainChecks()
{
    while (!pending_.empty()) {
        Tick t = waitForOldestRelease(mainCore_->now());
        mainCore_->stallUntil(t);
        if (processDetections(mainCore_->now()))
            return true;
    }
    return false;
}

bool
System::maybeEccEvent(const isa::CommitRecord &r)
{
    if (!eccEventArmed(r))
        return false;
    if (eccGap_ != std::numeric_limits<std::uint64_t>::max() &&
        --eccGap_ == 0) {
        eccGap_ = eccRng_.geometric(config_.memoryEccFaultRate);
        // A single-bit upset in an ECC-protected word: encode the
        // loaded value, flip one codeword bit, and let SECDED repair
        // it.  The corrected data is what the core consumed, so
        // nothing propagates (paper section IV-E's division of
        // labour).
        mem::EccWord word = mem::Secded::encode(r.loadValue);
        mem::Secded::flipBit(word,
                             unsigned(eccRng_.nextBounded(
                                 mem::Secded::codeBits)));
        mem::EccDecode decoded = mem::Secded::decode(word);
        if (decoded.status != mem::EccStatus::Corrected ||
            decoded.data != r.loadValue)
            panic("SECDED failed to repair a single-bit memory upset");
        ++eccCorrected_;
        if (tracing())
            tracer_->instant(trFaults_, "ecc-corrected",
                             mainCore_->now());
    }
    if (dueGap_ != std::numeric_limits<std::uint64_t>::max() &&
        --dueGap_ == 0) {
        dueGap_ = eccRng_.geometric(config_.memoryEccDueRate);
        // A double-bit upset: SECDED detects but cannot correct, so
        // the load raises the machine-check equivalent and the caller
        // rolls the open segment back (section IV-E: DUEs fall to
        // the checkpoint mechanism, not the checkers).
        mem::EccWord word = mem::Secded::encode(r.loadValue);
        unsigned b1 =
            unsigned(eccRng_.nextBounded(mem::Secded::codeBits));
        unsigned b2 =
            unsigned(eccRng_.nextBounded(mem::Secded::codeBits - 1));
        if (b2 >= b1)
            ++b2;
        mem::Secded::flipBit(word, b1);
        mem::Secded::flipBit(word, b2);
        mem::EccDecode decoded = mem::Secded::decode(word);
        if (decoded.status != mem::EccStatus::Uncorrectable)
            panic("SECDED failed to flag a double-bit memory upset");
        return true;
    }
    return false;
}

void
System::machineCheckRollback()
{
    // Detected-but-uncorrectable memory error: discard the open
    // segment and restart it from its checkpoint.  Rollback rewrites
    // every touched location through the log's ECC-protected copies,
    // so the poisoned word is scrubbed on the way back.
    ++dueRollbacks_;
    ++*dueRollbacksStat_;
    Tick now = mainCore_->now();
    accumulatePower(now);
    ++rollbacks_;

    LogSegment &seg = *filling_;
    wastedNs_->sample(ticksToNs(now > seg.startTick()
                                    ? now - seg.startTick()
                                    : 0));
    std::uint64_t ops = undoSegmentMemory(seg);
    const unsigned per_op = config_.lineGranularityRollback
                                ? config_.rollback.cyclesPerLineRestore
                                : config_.rollback.cyclesPerWordUndo;
    Tick cost = mainClock_.cyclesToTicks(Cycles(ops) * per_op);
    rollbackNs_->sample(ticksToNs(cost));

    if (tracing()) {
        tracer_->instant(trFaults_, "ecc-due", now, nullptr, 0.0,
                         seg.id());
        traceEndFill(now);
        tracer_->complete(trMain_, "due-rollback", now, cost,
                          seg.id());
    }

    archState_ = seg.startState();
    netIndex_ = seg.startInstIndex();
    hierarchy_->rollbackFrom(seg.id());

    sched()->release(unsigned(fillingChecker_), now);
    if (config_.lowestIdScheduling)
        checkerTiming()->powerGated(unsigned(fillingChecker_));
    recycleSegment(std::move(filling_));
    fillingChecker_ = -1;
    instsInSegment_ = 0;
    segBoundBytes_ = 0;
    linesCopiedThisCkpt_.clear();

    mainCore_->resetPipeline(now + cost);
}

Tick
System::waitForOldestRelease(Tick now)
{
    if (pending_.front().deferred)
        settleReplay();
    PendingCheck &front = pending_.front();
    if (front.detected) {
        // The check completes by *failing*; the caller handles the
        // rollback once control returns to the run loop.  That needs
        // the gate at or below this detection, or nothing would run it.
        if (front.detectTick < nextDetectTick_)
            panic("System: detection gate out of sync with pending_");
        return std::max(now, front.detectTick);
    }
    Tick done = std::max(now, front.finishTick);
    hierarchy_->segmentVerified(front.segment->id());
    sched()->release(front.checkerId, done);
    if (config_.lowestIdScheduling)
        checkerTiming()->powerGated(front.checkerId);
    recycleSegment(std::move(front.segment));
    pending_.pop_front();
    noteForwardProgress(done);
    refreshNextEvent();
    return done;
}

void
System::retireVerifiedUpTo(Tick now)
{
    while (!pending_.empty()) {
        PendingCheck &front = pending_.front();
        if (front.detected || front.finishTick > now)
            break;
        if (front.deferred) {
            // now reached the lower bound: the real finish decides.
            settleReplay();
            continue;
        }
        hierarchy_->segmentVerified(front.segment->id());
        sched()->release(front.checkerId, front.finishTick);
        if (config_.lowestIdScheduling)
            checkerTiming()->powerGated(front.checkerId);
        noteForwardProgress(front.finishTick);
        recycleSegment(std::move(front.segment));
        pending_.pop_front();
    }
    refreshNextEvent();
}

std::uint64_t
System::undoSegmentMemory(const LogSegment &segment)
{
    std::uint64_t ops = 0;
    if (config_.lineGranularityRollback) {
        for (auto it = segment.lineCopies().rbegin();
             it != segment.lineCopies().rend(); ++it) {
            // Restore through the stored ECC words: the copy carries
            // the line's protection bits, decoded on the way back.
            // Line copies hold physical addresses; the backing store
            // is virtual, so invert the (linear) mapping.
            Addr addr = it->lineAddr - config_.physicalOffset;
            for (std::size_t i = 0; i < it->eccWordCount(); ++i) {
                memory_.write(addr, 8,
                              mem::Secded::decode(it->eccWord(i)).data);
                addr += 8;
            }
            ++ops;
        }
    } else {
        for (auto it = segment.entries().rbegin();
             it != segment.entries().rend(); ++it) {
            if (!it->isLoad) {
                memory_.write(it->addr, it->size, it->oldValue);
                ++ops;
            }
        }
    }
    return ops;
}

bool
System::processDetections(Tick now)
{
    bool any = false;
    // The detection that signalled first goes first (the oldest
    // segment on a tie).  Its rollback erases every younger segment
    // and moves time on; repeat while one is still due.
    while (now >= nextDetectTick_) {
        std::size_t idx = 0;
        while (idx < pending_.size() &&
               (!pending_[idx].detected ||
                pending_[idx].detectTick != nextDetectTick_))
            ++idx;
        if (idx == pending_.size())
            panic("System: detection gate out of sync with pending_");
        performRollback(idx, now);
        any = true;
        now = mainCore_->now();
    }
    return any;
}

void
System::performRollback(std::size_t idx, Tick stop)
{
    if (!config_.rollbackSupported)
        panic("detection fired but rollback is unsupported in this mode");
    settleReplay();

    accumulatePower(stop);

    PendingCheck &pc = pending_[idx];
    LogSegment &seg = *pc.segment;

    ++detections_;
    ++rollbacks_;
    ++reasonCounts_[static_cast<std::size_t>(pc.reason)];
    if (vuln_ && pc.segFired > 0 && pc.segDead == pc.segFired) {
        // Every fault that fired in this segment's window was at a
        // provably-masked site: the whole rollback recovers from
        // corruption that could never reach architectural output.
        ++maskedRollbacks_;
        ++maskedDetections_;
    }
    wastedNs_->sample(ticksToNs(stop > seg.startTick()
                                    ? stop - seg.startTick()
                                    : 0));
    const std::uint64_t faulty_seg_id = seg.id();
    const DetectReason faulty_reason = pc.reason;
    // The detection itself was already recorded on the checker's
    // track when the replay resolved; here only the recovery shows.
    if (tracing())
        traceEndFill(stop);

    // Undo memory newest-first: the filling segment, then every
    // dispatched segment back to (and including) the faulty one.
    std::uint64_t ops = 0;
    if (filling_)
        ops += undoSegmentMemory(*filling_);
    for (std::size_t j = pending_.size(); j-- > idx;)
        ops += undoSegmentMemory(*pending_[j].segment);

    const unsigned per_op = config_.lineGranularityRollback
                                ? config_.rollback.cyclesPerLineRestore
                                : config_.rollback.cyclesPerWordUndo;
    Tick cost = mainClock_.cyclesToTicks(Cycles(ops) * per_op);
    rollbackNs_->sample(ticksToNs(cost));

    // Restore architectural state and cache pins.
    archState_ = seg.startState();
    netIndex_ = seg.startInstIndex();
    hierarchy_->rollbackFrom(seg.id());

    // Controllers.
    ckptCtrl_.onReduction(std::max(seg.instCount(), 1u));
    if (config_.dvfsEnabled)
        voltCtrl_->onError(regulator_->voltageAt(stop));
    ++consecutiveRollbacks_;
    if (config_.escalation.panicRollbackThreshold != 0 &&
        consecutiveRollbacks_ >= config_.escalation.panicRollbackThreshold)
        panicResetVoltage(stop);

    // Release the filling slot and every slot from the faulty
    // segment onward (their data is now dead).
    if (filling_) {
        sched()->release(unsigned(fillingChecker_), stop);
        if (config_.lowestIdScheduling)
            checkerTiming()->powerGated(unsigned(fillingChecker_));
        recycleSegment(std::move(filling_));
        fillingChecker_ = -1;
        instsInSegment_ = 0;
        segBoundBytes_ = 0;
        linesCopiedThisCkpt_.clear();
    }
    for (std::size_t j = idx; j < pending_.size(); ++j) {
        sched()->release(pending_[j].checkerId,
                        std::min(stop, pending_[j].finishTick));
        if (config_.lowestIdScheduling)
            checkerTiming()->powerGated(pending_[j].checkerId);
        recycleSegment(std::move(pending_[j].segment));
    }
    pending_.erase(pending_.begin() + std::ptrdiff_t(idx),
                   pending_.end());
    nextDetectTick_ = maxTick;
    for (const PendingCheck &p : pending_)
        if (p.detected)
            nextDetectTick_ = std::min(nextDetectTick_, p.detectTick);
    refreshNextEvent();

    Tick resume = stop + cost;
    if (tracing()) {
        tracer_->complete(trMain_, "rollback", stop, cost,
                          faulty_seg_id,
                          detectReasonName(faulty_reason));
    }
    mainCore_->resetPipeline(resume);
    applyOperatingPoint(resume);
    voltTrace_->sample(resume, currentVoltage_);
    if (tracing())
        traceOperatingPoint(resume);
}

void
System::panicResetVoltage(Tick now)
{
    // Escalation rung 3: sustained rollbacks (or a watchdog trip)
    // mean the operating point itself is suspect.  Snap the island
    // back to the margined-safe voltage and hold it there for an
    // exponentially growing backoff before undervolting resumes.
    settleReplay();
    ++panicResets_;
    ++*panicResetsStat_;
    consecutiveRollbacks_ = 0;
    ckptCtrl_.onReduction(1);

    double hold_us = config_.escalation.backoffUs;
    for (unsigned i = 0;
         i < backoffStage_ && hold_us < config_.escalation.backoffMaxUs;
         ++i)
        hold_us *= 2.0;
    hold_us = std::min(hold_us, config_.escalation.backoffMaxUs);
    ++backoffStage_;
    Tick hold_until = now + Tick(hold_us * double(ticksPerUs));
    if (hold_until > backoffUntil_)
        backoffUntil_ = hold_until;

    if (tracing()) {
        tracer_->instant(trDvfs_, "panic-reset", now, nullptr,
                         double(backoffStage_));
        tracer_->complete(trDvfs_, "panic-backoff", now,
                          hold_until > now ? hold_until - now : 0);
    }

    if (config_.dvfsEnabled) {
        voltCtrl_->panicReset();
        applyOperatingPoint(now);
        voltTrace_->sample(now, currentVoltage_);
        if (tracing())
            traceOperatingPoint(now);
    }
}

void
System::applyOperatingPoint(Tick now)
{
    if (!config_.dvfsEnabled)
        return;
    regulator_->setTarget(voltCtrl_->target(), now);
    currentVoltage_ = regulator_->voltageAt(now);
    currentFreq_ = compensatedFrequency(
        config_.mainFreqHz, currentVoltage_, voltCtrl_->target(),
        fvModel_.params().vThreshold);
    mainClock_.setFrequency(currentFreq_);
    if (undervoltModel_) {
        faultPlan_.setAllRates(
            undervoltModel_->perInstructionRate(currentVoltage_));
    }
    if (chip_) {
        // Chip mode: per-cell probabilities track the rail directly.
        faultPlan_.setVoltage(currentVoltage_);
        mainCoreFaultPlan_.setVoltage(currentVoltage_);
    }
}

void
System::accumulatePower(Tick now)
{
    if (now <= lastPowerTick_)
        return;
    const Tick dt = now - lastPowerTick_;

    double checker_power = 0.0;
    if (config_.mode != Mode::Baseline) {
        const unsigned n = sched()->count();
        const unsigned awake =
            config_.lowestIdScheduling ? sched()->busyCount() : n;
        const double per_core =
            powerModel_.params().checkerComplexFraction / n;
        checker_power =
            per_core * (awake +
                        (n - awake) * powerModel_.params().gatedResidual);
        awakeTickSum_ += double(awake) * double(dt);
    }
    energy_.addInterval(dt, currentVoltage_, currentFreq_,
                        checker_power);
    lastPowerTick_ = now;
}

void
System::checkpointHousekeeping()
{
    Tick now = mainCore_->now();
    accumulatePower(now);
    applyOperatingPoint(now);
    if (config_.dvfsEnabled)
        voltTrace_->sample(now, currentVoltage_);
    if (tracing()) {
        if (config_.dvfsEnabled)
            traceOperatingPoint(now);
        metrics_->poll(now);
    }
}

RunResult
System::run(const RunLimits &limits)
{
    beginRun(limits);
    while (stepOnce()) {
    }
    return collectResult();
}

void
System::beginRun(const RunLimits &limits)
{
    settleReplay();
    isa::loadProgram(program_, archState_, memory_);
    limits_ = limits;
    halted_ = false;
    lastProgressTick_ = mainCore_->now();
    refreshNextEvent();
    phase_ = Phase::Running;
    if (tracing()) {
        traceOperatingPoint(mainCore_->now());
        metrics_->sampleAll(mainCore_->now());
    }
}

bool
System::stepOnce()
{
    switch (phase_) {
      case Phase::Running:
        stepInstruction();
        break;
      case Phase::Draining:
        stepDrain();
        break;
      default:
        break;
    }
    return phase_ != Phase::Done && phase_ != Phase::Idle;
}

bool
System::watchdogDue(Tick now) const
{
    return config_.mode != Mode::Baseline && watchdogTicks_ != 0 &&
           now > lastProgressTick_ &&
           now - lastProgressTick_ >= watchdogTicks_;
}

void
System::refreshNextEvent()
{
    Tick t = std::min(nextDetectTick_, limits_.maxTicks);
    if (!pending_.empty())
        t = std::min(t, pending_.front().finishTick);
    // watchdogDue()'s deadline; one past maxTick it can never fire.
    if (config_.mode != Mode::Baseline && watchdogTicks_ != 0 &&
        lastProgressTick_ <= maxTick - watchdogTicks_)
        t = std::min(t, lastProgressTick_ + watchdogTicks_);
    nextEventTick_ = t;
}

void
System::stepInstruction()
{
    if (netIndex_ >= limits_.maxInstructions ||
        executed_ >= limits_.maxExecuted ||
        mainCore_->now() >= limits_.maxTicks) {
        phase_ = Phase::Done;  // limit stop: no drain, partial result
        return;
    }

    if (watchdogDue(mainCore_->now())) {
        // Escalation rung 4: if no segment has verified in a whole
        // watchdog interval, assume the island is wedged in a
        // detect/rollback livelock and escalate straight to a panic
        // reset.
        const Tick now = mainCore_->now();
        ++watchdogTrips_;
        ++*watchdogTripsStat_;
        if (tracing())
            tracer_->instant(trFaults_, "watchdog-trip", now);
        panicResetVoltage(now);
        lastProgressTick_ = now;
        refreshNextEvent();
    }

    if (config_.mode != Mode::Baseline) {
        retireVerifiedUpTo(mainCore_->now());
        if (!filling_ && !openSegment())
            return;  // shared pool busy: retry on the next step
        // A clean outcome still to settle may raise the target; it
        // only matters once the pre-settle target is reached.
        if (instsInSegment_ >= ckptCtrl_.target())
            settleReplay();
        if (instsInSegment_ >= ckptCtrl_.target()) {
            ++*targetCuts_;
            closeSegmentAndDispatch();
            if (!openSegment())
                return;
        }
    }

    if (commitBatch())
        return;

    // The next load/store's exact log bytes overflow the open
    // segment: cut it at the boundary, before the access, and the
    // instruction executes into the new segment.
    ++*capacityCuts_;
    closeSegmentAndDispatch();
    if (!openSegment())
        return;  // nothing executed; retried next step
    if (!commitBatch())
        panic("System: a load/store overflows an empty log segment");
}

void
System::wildFetch()
{
    // Only an injected main-core PC corruption can take fetch outside
    // the image.  The corrupted pc is part of the recorded
    // checkpoint, so the clean checker replay is guaranteed to
    // mismatch: cut the segment and let the checks run -- the
    // resulting rollback restores a sane pc.
    if (mainCoreFaultPlan_.empty() || config_.mode == Mode::Baseline)
        panic("System: main core fetched outside the image");
    if (filling_ && instsInSegment_ > 0)
        closeSegmentAndDispatch();
    if (!drainChecks())
        panic("System: wild main-core pc survived checking");
}

inline bool
System::commit(const isa::CommitRecord &r)
{
    if (!r.valid) {
        wildFetch();
        return false;
    }
    const bool logging = config_.mode != Mode::Baseline;

    if (logging) {
        if (r.isLoad || r.isStore)
            logResult(r);
        ++instsInSegment_;
    }
    ++executed_;
    ++netIndex_;
    if (eccEventArmed(r) && maybeEccEvent(r)) {
        // Machine check: squash the in-flight instruction stream and
        // restart the open segment from its checkpoint.
        machineCheckRollback();
        return false;
    }
    // Main-core corruption lands *after* commit: subsequent
    // instructions, the log, and the recorded end-of-segment
    // checkpoint all see it, exactly as a latch upset would.  A flip
    // may hit the pc a batch carries, so it ends the batch.  (Here and
    // below, the inline tests keep the common per-record case free of
    // calls.)
    const bool corrupted =
        !mainCoreFaultPlan_.empty() && maybeMainCoreFault(r);

    const bool mmio_store = r.isStore && isMmio(r.memAddr);
    const std::uint64_t stamp = filling_ ? filling_->id() : 0;
    const std::uint64_t pin_seg =
        (config_.bufferUncheckedStores && filling_ && !mmio_store)
            ? stamp
            : mem::noPin;
    {
        // The main core translates redundantly (section IV-D): the
        // timing path runs on physical addresses, and TLB-miss walks
        // stall the pipeline.  Checkers replay the log's virtual
        // addresses untranslated.
        const mem::Translation ifetch = itlb_->translate(r.pc);
        Addr mem_paddr = r.memAddr;
        unsigned walk_cycles = ifetch.extraCycles;
        if (r.isLoad || r.isStore) {
            const mem::Translation data = dtlb_->translate(r.memAddr);
            mem_paddr = data.paddr;
            walk_cycles += data.extraCycles;
        }
        if (walk_cycles > 0)
            mainCore_->stallUntil(mainCore_->now() +
                                  mainClock_.cyclesToTicks(walk_cycles));
        // A pinned-line stall inside advance() may close the segment
        // and dispatch it (the resolver); the filling_ test below
        // then ends the batch.
        mainCore_->advance(r, ifetch.paddr, mem_paddr,
                           r.nextPc + config_.physicalOffset, pin_seg,
                           stamp);
    }

    // Below nextEventTick_ no tick-driven test can fire (detection,
    // tick limit, watchdog, verified retire); at or past it they run
    // as written, in order.
    const Tick now = mainCore_->now();
    const bool event_due = now >= nextEventTick_;
    if (logging) {
        if (mmio_store) {
            // Uncacheable stores update external state and must be
            // checked before they proceed: cut the checkpoint here
            // and drain every outstanding check.  If one fails, the
            // rollback rewinds past this store and it re-executes.
            ++mmioDrains_;
            if (tracing())
                tracer_->instant(trMain_, "mmio-drain", now);
            if (filling_ && instsInSegment_ > 0)
                closeSegmentAndDispatch();
            drainChecks();
            return false;
        }
        // A rollback rewinds past this record, HALT included.
        if (event_due && now >= nextDetectTick_ && processDetections(now))
            return false;
    }

    if (r.halted) {
        noteHaltCommitted();
        return false;
    }

    // The next instruction's boundary work, as stepInstruction()
    // would run it: anything beyond retiring verified checks ends
    // the batch so stepInstruction() does it in order.  (The count
    // limits and the AIMD target bound the batch up front.)
    if (corrupted)
        return false;
    if (event_due) {
        if (now >= limits_.maxTicks || watchdogDue(now))
            return false;
        if (logging && !pending_.empty() &&
            pending_.front().finishTick <= now)
            retireVerifiedUpTo(now);
    }
    return !logging || filling_ != nullptr;
}

void
System::noteHaltCommitted()
{
    if (config_.mode == Mode::Baseline) {
        halted_ = true;
        phase_ = Phase::Done;
        return;
    }
    // Close (or return) the trailing segment, then wait out the
    // in-flight checks one completion at a time.
    if (filling_ && instsInSegment_ > 0) {
        closeSegmentAndDispatch();
    } else if (filling_) {
        sched()->release(unsigned(fillingChecker_), mainCore_->now());
        if (config_.lowestIdScheduling)
            checkerTiming()->powerGated(unsigned(fillingChecker_));
        if (tracing())
            traceEndFill(mainCore_->now());
        recycleSegment(std::move(filling_));
        fillingChecker_ = -1;
    }
    phase_ = Phase::Draining;
}

bool
System::commitBatch()
{
    // Static per-run effect summary of the decoded image: exact
    // worst-case log bytes per micro-op and per straight-line run
    // tail.  decodedProg_ is fixed at construction, so one build
    // serves the whole run.
    if (!effects_)
        effects_ = analysis::EffectSummary::build(
            *decodedProg_,
            logEffectParams(config_, hierarchy_->lineBytes()));
    const analysis::EffectSummary &ef = *effects_;
    const std::size_t seg_cap = config_.log.segmentBytes;
    const bool logging = config_.mode != Mode::Baseline;

    // Bound the batch so target cuts and instruction limits land on
    // exactly the boundaries a batch of one would produce.
    std::uint64_t max_uops =
        std::min({batchLimit_, limits_.maxInstructions - netIndex_,
                  limits_.maxExecuted - executed_});
    if (logging)
        max_uops = std::min<std::uint64_t>(
            max_uops, ckptCtrl_.target() - instsInSegment_);

    // Byte-budget admission: when the whole remaining run fits the
    // open segment's headroom its tail bound is reserved once and
    // later memory ops in the run just draw the budget down -- so
    // batches run through segment tails instead of stopping at the
    // first op a single-op worst-case check could not clear.  When
    // the tail does not fit, fall back to admitting one op at a time
    // under its own (kind- and size-exact) bound, and when that does
    // not fit either, under its exact bytes (admitExact): the gate
    // refuses an op only if those overflow, which is where the segment
    // must be cut.  The budget never outlives the batch: commit() ends
    // the batch whenever the segment closes, and every append is <=
    // its op bound.
    std::uint64_t budget = 0;
    auto gate = [&](std::uint64_t idx) -> bool {
        if (!logging)
            return true;
        const std::uint64_t op = ef.uopBound(idx);
        if (budget >= op) {
            budget -= op;
            return true;
        }
        const std::uint64_t tail = ef.tailBound(idx);
        if (!filling_->wouldOverflow(tail, seg_cap)) {
            segBoundBytes_ += tail;
            budget = tail - op;
            return true;
        }
        if (!filling_->wouldOverflow(op, seg_cap)) {
            segBoundBytes_ += op;
            return true;
        }
        if (admitExact(idx))
            return true;
        ++*sbGateStops_;
        return false;
    };

    // commit() counts every valid record in executed_.
    const std::uint64_t executed_before = executed_;
    const isa::RunStop stop = isa::runDecoded(
        *decodedProg_, archState_, memory_, max_uops,
        [this](const isa::CommitRecord &r) __attribute__((always_inline)) {
            return commit(r);
        },
        gate);
    const std::uint64_t uops = executed_ - executed_before;
    if (uops > 0) {
        ++*sbBatches_;
        *sbUops_ += uops;
    }
    return uops > 0 || stop != isa::RunStop::MemNext;
}

bool
System::admitExact(std::uint64_t idx)
{
    const std::size_t exact = uopLogBytes(
        effects_->params(), decodedProg_->at(idx), archState_,
        [this](std::uint64_t line) {
            return linesCopiedThisCkpt_.contains(line);
        });
    if (filling_->wouldOverflow(exact, config_.log.segmentBytes))
        return false;
    segBoundBytes_ += exact;
    return true;
}

void
System::stepDrain()
{
    if (pending_.empty()) {
        halted_ = true;
        phase_ = Phase::Done;
        return;
    }
    Tick t = waitForOldestRelease(mainCore_->now());
    mainCore_->stallUntil(t);
    if (processDetections(mainCore_->now())) {
        // A late detection rolled execution back before the HALT:
        // resume the main loop from the restored state.
        phase_ = Phase::Running;
    }
}

RunResult
System::collectResult()
{
    settleReplay();
    Tick end = mainCore_->now();
    accumulatePower(end);

    if (tracing()) {
        metrics_->sampleAll(end);
        if (config_.dvfsEnabled)
            traceOperatingPoint(end);
    }

    RunResult result;
    result.halted = halted_;
    result.instructions = netIndex_;
    result.executed = executed_;
    result.time = end;
    result.checkpoints = checkpoints_;
    result.errorsDetected = detections_;
    result.rollbacks = rollbacks_;
    result.faultsInjected = faultsInjectedTotal_;
    result.avgVoltage = energy_.averageVoltage();
    result.avgPower = energy_.averagePower();
    result.avgCheckersAwake =
        end > 0 ? awakeTickSum_ / double(end) : 0.0;
    result.ckptLenP50 = ckptHist_->p50();
    result.ckptLenP95 = ckptHist_->p95();
    result.ckptLenP99 = ckptHist_->p99();
    result.wakeRates = sched()->wakeRates(end);
    result.retryVerifies = retryVerifies_;
    result.retrySaves = retrySaves_;
    result.quarantines = quarantines_;
    result.panicResets = panicResets_;
    result.watchdogTrips = watchdogTrips_;
    result.dueRollbacks = dueRollbacks_;
    result.healthyCheckers = sched()->healthyCount();
    result.weakCellHits = faultPlan_.totalWeakCellHits() +
                          mainCoreFaultPlan_.totalWeakCellHits();
    result.vulnDeadFired = vulnDeadFired_;
    result.vulnLiveFired = vulnLiveFired_;
    result.vulnUnknownFired = vulnUnknownFired_;
    result.maskedRollbacks = maskedRollbacks_;
    result.maskedDetections = maskedDetections_;
    result.vulnDeadDivergences = deadDivergences_;
    const auto describe = [&result](const faults::FaultPlan &plan,
                                    const char *domain) {
        for (const auto &injector : plan.injectors()) {
            InjectorCounts counts;
            counts.domain = domain;
            counts.kind = faults::faultKindName(injector.kind());
            counts.persistence = faults::persistenceName(
                injector.config().persistence);
            counts.targetChecker = injector.config().targetChecker;
            counts.fired = injector.fired();
            counts.weakCellHits = injector.weakCellHits();
            counts.latched = injector.latched();
            result.injectors.push_back(counts);
        }
    };
    describe(faultPlan_, "checker");
    describe(mainCoreFaultPlan_, "main");
    result.finalState = archState_;
    result.memoryFingerprint = memory_.fingerprint();
    return result;
}

SharedUncore
makeSharedUncore(const SystemConfig &config, unsigned shared_checkers)
{
    SharedUncore uncore;
    uncore.l2 = std::make_unique<mem::Cache>(config.hierarchy.l2);
    uncore.dram = std::make_unique<mem::Dram>(config.hierarchy.dram);
    if (shared_checkers > 0) {
        cpu::CheckerParams checker_params = config.checkers;
        checker_params.count = shared_checkers;
        uncore.checkerTiming =
            std::make_unique<cpu::CheckerTiming>(checker_params);
        uncore.checkers = std::make_unique<CheckerScheduler>(
            shared_checkers,
            config.lowestIdScheduling ? SchedPolicy::LowestFreeId
                                      : SchedPolicy::RoundRobin,
            config.seed);
        uncore.checkers->setHealthParams(
            HealthParams{config.escalation.quarantineEnabled,
                         config.escalation.strikesToQuarantine,
                         config.escalation.strikeWindow});
    }
    return uncore;
}

void
System::dumpStats(std::ostream &os) const
{
    registry_.dump(os);
}

} // namespace core
} // namespace paradox
