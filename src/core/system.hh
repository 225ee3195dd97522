/**
 * @file
 * The full heterogeneous fault-tolerant system: one out-of-order main
 * core plus sixteen checker cores, the segmented load-store log,
 * checkpointing, detection, rollback, and (for ParaDox) the adaptive
 * checkpoint-length and voltage controllers.
 *
 * The System executes a program functionally on the main core while
 * accounting timing through the cpu/ and mem/ models; segments are
 * dispatched to checker cores which re-execute them against the log
 * under fault injection.  Detected errors trigger genuine rollback:
 * memory is restored through the log, the architectural state returns
 * to the faulty segment's checkpoint, and the main core re-executes
 * -- so recovery cost is *paid*, not estimated, and the end state of
 * any run is provably the fault-free result (the property the test
 * suite checks).
 */

#ifndef PARADOX_CORE_SYSTEM_HH
#define PARADOX_CORE_SYSTEM_HH

#include <array>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <ostream>
#include <unordered_set>
#include <vector>

#include "analysis/effects.hh"
#include "core/aimd.hh"
#include "core/checker_replay.hh"
#include "core/config.hh"
#include "core/dvfs.hh"
#include "core/lslog.hh"
#include "core/scheduler.hh"
#include "cpu/checker_timing.hh"
#include "cpu/main_core.hh"
#include "faults/fault_model.hh"
#include "faults/undervolt_model.hh"
#include "isa/decoded.hh"
#include "isa/program.hh"
#include "mem/hierarchy.hh"
#include "mem/memory.hh"
#include "mem/tlb.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "power/power_model.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"

namespace paradox
{
namespace core
{

class ReplayHelper;

/** Bounds on one run. */
struct RunLimits
{
    /** Net committed (program-order) instruction bound. */
    std::uint64_t maxInstructions = ~std::uint64_t(0);
    /** Gross executed bound, including rolled-back re-runs. */
    std::uint64_t maxExecuted = ~std::uint64_t(0);
    /** Wall-clock (simulated) bound. */
    Tick maxTicks = maxTick;
};

/** Per-injector accounting, for error attribution in result JSON. */
struct InjectorCounts
{
    const char *domain = "checker"; //!< "checker" or "main"
    const char *kind = "";          //!< fault family name
    const char *persistence = "";
    int targetChecker = -1;         //!< -1 = ambient
    std::uint64_t fired = 0;
    std::uint64_t weakCellHits = 0; //!< chip-mode fires
    bool latched = false;           //!< permanent source stuck
};

/** Summary of one run. */
struct RunResult
{
    bool halted = false;          //!< program ran to completion
    std::uint64_t instructions = 0; //!< net committed
    std::uint64_t executed = 0;     //!< gross, incl. re-runs
    Tick time = 0;
    std::uint64_t checkpoints = 0;
    std::uint64_t errorsDetected = 0;
    std::uint64_t rollbacks = 0;
    std::uint64_t faultsInjected = 0;
    /** @{ Escalation-ladder event counts (see EscalationParams). */
    std::uint64_t retryVerifies = 0;  //!< second-checker re-verifications
    std::uint64_t retrySaves = 0;     //!< retries that avoided rollback
    std::uint64_t quarantines = 0;    //!< checkers retired from the pool
    std::uint64_t panicResets = 0;    //!< voltage snaps back to v_safe
    std::uint64_t watchdogTrips = 0;  //!< forward-progress escalations
    std::uint64_t dueRollbacks = 0;   //!< double-bit-ECC machine checks
    unsigned healthyCheckers = 0;     //!< pool size left at run end
    /** @} */
    double avgVoltage = 0.0;      //!< time-weighted supply voltage
    double avgPower = 0.0;        //!< normalized (1.0 = baseline nom.)
    double avgCheckersAwake = 0.0;
    /** @{ Checkpoint-length percentiles (from the histogram). */
    double ckptLenP50 = 0.0;
    double ckptLenP95 = 0.0;
    double ckptLenP99 = 0.0;
    /** @} */
    std::vector<double> wakeRates;
    /** Chip-mode fires attributed to weak cells (all domains). */
    std::uint64_t weakCellHits = 0;
    /** Per-injector fired/latched breakdown (checker + main plans). */
    std::vector<InjectorCounts> injectors;
    /** @{ Static-verdict accounting (zero without setVulnModel). */
    std::uint64_t vulnDeadFired = 0;    //!< fired hits at dead sites
    std::uint64_t vulnLiveFired = 0;    //!< fired hits at live sites
    std::uint64_t vulnUnknownFired = 0; //!< model had no claim
    /** Rollbacks whose segment saw only provably-dead faults. */
    std::uint64_t maskedRollbacks = 0;
    /** Detections (incl. retry-saves) from only-dead-fault segments. */
    std::uint64_t maskedDetections = 0;
    /**
     * Soundness violations: a replay of a segment whose every fault
     * was statically dead detected something other than a
     * FinalStateMismatch.  Must be zero for a sound model.
     */
    std::uint64_t vulnDeadDivergences = 0;
    /** @} */
    isa::ArchState finalState;
    std::uint64_t memoryFingerprint = 0;

    double seconds() const { return ticksToSeconds(time); }
};

/**
 * Resources shared between the cores of a multicore system: the L2,
 * DRAM, and (optionally, the paper's section VI-D suggestion) a
 * checker-core pool serving several main cores.
 */
struct SharedUncore
{
    std::unique_ptr<mem::Cache> l2;
    std::unique_ptr<mem::Dram> dram;
    std::unique_ptr<CheckerScheduler> checkers;      //!< optional
    std::unique_ptr<cpu::CheckerTiming> checkerTiming;
};

/**
 * Build a shared uncore from @p config.
 * @param shared_checkers size of a shared checker pool (0 = each
 *        core keeps its private sixteen)
 */
SharedUncore makeSharedUncore(const SystemConfig &config,
                              unsigned shared_checkers = 0);

/** The complete modelled system. */
class System
{
  public:
    System(const SystemConfig &config, const isa::Program &program);

    /**
     * Multicore form: private core/L1s/log over @p uncore's shared
     * L2 + DRAM (and shared checker pool when present).  @p uncore
     * must outlive the System.
     */
    System(const SystemConfig &config, const isa::Program &program,
           SharedUncore *uncore);

    /** Waits for a replay still running on the helper thread. */
    ~System();

    /** Install fixed-rate fault injectors (figures 8/9). */
    void setFaultPlan(faults::FaultPlan plan);

    /**
     * Install fault injectors on the *main core* itself: bits flip in
     * its architectural state as it commits, corrupting subsequent
     * execution, the log, and the recorded checkpoints.  The paper
     * injects into checkers only as a simulation convenience, arguing
     * detection is symmetric; this path makes that argument
     * executable -- clean checker replays catch the corrupted main
     * core and rollback re-executes from the last verified state.
     */
    void setMainCoreFaultPlan(faults::FaultPlan plan);

    /**
     * Enable dynamic voltage adaptation: the controller undervolts
     * the main core and the injection rate follows @p model
     * (figures 10, 11, 13).  Installs a uniform injector pair whose
     * rate is retuned at every checkpoint.
     */
    void enableDvfs(const faults::UndervoltErrorModel::Params &model);

    /**
     * Attach a persistent per-chip fault map: every installed fault
     * plan (checker and main-core, including the one enableDvfs
     * creates) switches to chip-map injection, with per-cell flip
     * probabilities tracking the supply voltage.  Call after the
     * plans are installed; later setFaultPlan/enableDvfs calls
     * re-attach automatically.
     */
    void setChipModel(std::shared_ptr<const faults::ChipModel> chip);

    /**
     * Pin the supply to a fixed undervolted operating point (chip
     * studies without the AIMD controller).  Models margin
     * elimination alone: the voltage moves, the clock stays nominal,
     * and chip-mode flip probabilities follow the new supply.
     * Incompatible with enableDvfs (the controller owns the rail).
     */
    void setSupplyVoltage(double v);

    /**
     * Install a static fault-vulnerability model (live-bit/ACE
     * masks) for the program this System executes.  Every fault that
     * fires -- checker-replay or main-core -- is stamped with the
     * model's verdict for its site, and the run accounts masked
     * rollbacks (recovery spent on provably-dead faults) and
     * soundness violations (a segment whose every fault was
     * statically dead detecting anything but a FinalStateMismatch).
     * nullptr detaches.
     */
    void setVulnModel(std::shared_ptr<const analysis::VulnAnalysis> vuln);

    /**
     * Attach an execution tracer (src/obs/): segment lifecycle,
     * checker replays, detections/rollbacks, escalation events and
     * voltage/frequency tracks are recorded into @p sink, and key
     * runtime metrics are sampled onto counter tracks every
     * @p metrics_interval of simulated time.  @p sink must outlive
     * the System; nullptr detaches.  A no-op (beyond one pointer
     * test per hook) when detached.
     */
    void setTracer(obs::TraceSink *sink,
                   Tick metrics_interval = 10 * ticksPerUs);

    /** Execute until HALT or a limit. */
    RunResult run(const RunLimits &limits = RunLimits{});

    /** @{ Incremental execution (multicore interleaving). */
    enum class Phase : std::uint8_t
    {
        Idle,     //!< beginRun() not called yet
        Running,  //!< executing instructions
        Draining, //!< HALT reached; waiting out in-flight checks
        Done,
    };

    /** Reset run state and arm the limits. */
    void beginRun(const RunLimits &limits = RunLimits{});

    /**
     * Advance by one batch of instructions (Running) or one check
     * completion (Draining).  Over a SharedUncore a batch is one
     * instruction.  @return false once Done.
     */
    bool stepOnce();

    Phase phase() const { return phase_; }

    /** Current main-core time (interleaving key). */
    Tick now() const { return mainCore_->now(); }

    /** Summarize the finished (or stopped) run. */
    RunResult collectResult();
    /** @} */

    /** @{ Introspection for tests and figure harnesses. */
    const stats::Distribution &rollbackTimesNs() const
    {
        return *rollbackNs_;
    }
    const stats::Distribution &wastedExecNs() const
    {
        return *wastedNs_;
    }
    const stats::Distribution &checkpointLengths() const
    {
        return *ckptLen_;
    }
    const stats::Histogram &checkpointLengthHistogram() const
    {
        return *ckptHist_;
    }
    const stats::TimeSeries &voltageTrace() const { return *voltTrace_; }
    const VoltageController &voltageController() const
    {
        return *voltCtrl_;
    }
    const CheckerScheduler &checkerScheduler() const { return *sched(); }
    const cpu::MainCore &mainCore() const { return *mainCore_; }
    mem::CacheHierarchy &hierarchy() { return *hierarchy_; }
    mem::SimpleMemory &memory() { return memory_; }
    const SystemConfig &config() const { return config_; }
    const power::PowerModel &powerModel() const { return powerModel_; }
    /** Detections attributed to @p reason so far. */
    std::uint64_t
    detectionCount(DetectReason reason) const
    {
        return reasonCounts_[static_cast<std::size_t>(reason)];
    }
    /** Checked-before-proceed drains forced by uncacheable stores. */
    std::uint64_t mmioDrains() const { return mmioDrains_; }
    /** Data-TLB statistics (the redundant main-core translation). */
    const mem::Tlb &dtlb() const { return *dtlb_; }
    /** Memory soft errors transparently corrected by SECDED. */
    std::uint64_t eccCorrected() const { return eccCorrected_; }
    /** @{ Escalation-ladder event counts so far. */
    std::uint64_t retryVerifies() const { return retryVerifies_; }
    std::uint64_t retrySaves() const { return retrySaves_; }
    std::uint64_t quarantines() const { return quarantines_; }
    std::uint64_t panicResets() const { return panicResets_; }
    std::uint64_t watchdogTrips() const { return watchdogTrips_; }
    std::uint64_t dueRollbacks() const { return dueRollbacks_; }
    /** @} */
    /** @} */

    /** Dump all registered statistics. */
    void dumpStats(std::ostream &os) const;

    /** The unified stats registry (text/JSON dump, sampling). */
    const stats::Registry &registry() const { return registry_; }

  private:
    /** A dispatched segment awaiting (in-order) verification. */
    struct PendingCheck
    {
        std::unique_ptr<LogSegment> segment;
        unsigned checkerId = 0;
        Tick startTick = 0;    //!< checker began executing
        Tick finishTick = 0;   //!< checker done (or detection signal)
        bool detected = false;
        Tick detectTick = 0;
        DetectReason reason = DetectReason::None;
        /** @{ Verdict-stamped fault count for this segment (replay +
         *  main-core fill), and how many of them were static-dead. */
        std::uint64_t segFired = 0;
        std::uint64_t segDead = 0;
        /** @} */
        /**
         * The replay runs on the helper thread (deferred_) and is not
         * settled yet: finishTick == detectTick is a lower bound, and
         * detected is false until settleReplay() confirms it.
         */
        bool deferred = false;
    };

    /** The one replay handed to the helper thread (DESIGN §11). */
    struct DeferredReplay
    {
        /** The helper it was posted to; null when none is in flight. */
        ReplayHelper *helper = nullptr;
        /** This thread's helper, attached at the first deferred
         *  dispatch and detached by ~System. */
        ReplayHelper *attached = nullptr;
        const LogSegment *segment = nullptr;
        unsigned checkerId = 0;
        ReplayOutcome out;  //!< written by whoever runs the replay
    };

    /** @{ Segment lifecycle. */
    bool openSegment();          //!< returns false if it had to stall
    void closeSegmentAndDispatch();
    Tick waitForOldestRelease(Tick now);
    void retireVerifiedUpTo(Tick now);
    /**
     * Stall until every outstanding check completes.  Stops early on
     * a failed check (performing the rollback).
     * @return true if a rollback occurred.
     */
    bool drainChecks();
    /** @} */

    /** @{ Checker replay (DESIGN §11, "Deferred replay"). */
    /** Replay @p seg on checker @p checker_id with this run's plan. */
    ReplayOutcome replayOn(const LogSegment &seg, unsigned checker_id);
    /**
     * Replay the filling segment now, escalation ladder included, and
     * resolve @p pc (dispatched at @p dispatch) from the outcome.
     */
    void replayInline(PendingCheck &pc, Tick dispatch);
    /**
     * True if no fault can reach the filling segment's replay, so it
     * may run on the helper thread: no checker injector can fire
     * within the segment's events, no main-core plan, ECC disarmed, no
     * DVFS, tracer or vuln model, and a private checker pool.  Points
     * the checker plan at the filling checker, as the replay does.
     */
    bool replayDeferrable();
    /** ReplayHelper job: run deferred_'s replay. */
    static void runDeferredReplay(void *self);
    /**
     * Apply the in-flight deferred replay's outcome, waiting for it
     * if need be; a no-op when none is in flight.  Called wherever
     * the outcome is first needed.  Panics if that replay detected
     * anything or finished below its bound.
     */
    void settleReplay();
    /** A clean replay of a segment dispatched at @p dispatch. */
    void noteCleanReplay(Tick dispatch);
    /** @} */

    /** True if @p addr falls in the uncacheable window. */
    bool
    isMmio(Addr addr) const
    {
        return config_.mmioSize != 0 && addr >= config_.mmioBase &&
               addr < config_.mmioBase + config_.mmioSize;
    }

    /**
     * True iff maybeEccEvent() has work for @p r: a load while either
     * the corrected-upset or the DUE gap is armed.  The commit loop
     * tests this inline, so most records make no call at all.
     */
    bool
    eccEventArmed(const isa::CommitRecord &r) const
    {
        constexpr std::uint64_t disarmed =
            std::numeric_limits<std::uint64_t>::max();
        // Either gap armed: their AND is not all ones.
        return r.isLoad && (eccGap_ & dueGap_) != disarmed;
    }

    /**
     * Model SECDED events on a loaded value: single-bit upsets are
     * corrected transparently; a double-bit upset is detected but
     * uncorrectable.
     * @return true iff a DUE fired (caller must machine-check).
     */
    bool maybeEccEvent(const isa::CommitRecord &r);

    /**
     * Machine-check response to a detected-but-uncorrectable memory
     * error: roll the open segment back to its checkpoint, restoring
     * memory through the log (which scrubs the poisoned word), and
     * resume from verified state.
     */
    void machineCheckRollback();

    /**
     * Escalation rungs 3/4: snap the voltage island back to v_safe,
     * hold it there for an exponentially growing backoff, and
     * collapse the checkpoint window to its minimum.
     */
    void panicResetVoltage(Tick now);

    /** A segment verified at @p when: feed the progress watchdog.
     *  Its callers refresh nextEventTick_. */
    void
    noteForwardProgress(Tick when)
    {
        if (when > lastProgressTick_)
            lastProgressTick_ = when;
    }

    /** Recompute nextEventTick_ from the thresholds it bounds. */
    void refreshNextEvent();

    /**
     * Apply main-core fault injection after a committed record.
     * @return true if any fault fired (the state may be corrupted).
     */
    bool maybeMainCoreFault(const isa::CommitRecord &r);

    /** @{ Resolve possibly-shared checker resources. */
    CheckerScheduler *sched() { return schedPtr_; }
    const CheckerScheduler *sched() const { return schedPtr_; }
    cpu::CheckerTiming *checkerTiming() { return checkerTimingPtr_; }
    /** @} */

    /** Shared ctor body. */
    void init(SharedUncore *uncore);

    /**
     * One Running-phase step: the instruction-boundary work (limits,
     * watchdog, check retirement, segment open and target cut), then
     * one commitBatch(), preceded by the capacity cut when the gate
     * refuses its first load/store.  Updates phase_.
     */
    void stepInstruction();

    /**
     * Run up to batchLimit_ decoded micro-ops through commit() in one
     * runDecoded() pass.  The gate admits a load/store only if its log
     * bytes fit the open segment (DESIGN §11, "One commit path").
     * @return false if the gate refused the first micro-op: its exact
     *         bytes overflow the segment, which must be cut first.
     */
    bool commitBatch();

    /**
     * commitBatch()'s last resort for micro-op @p idx, whose effect
     * bounds overflow the open segment: admit it, charging
     * segBoundBytes_, iff its exact log bytes (from its address and
     * the copied-line set) fit.  Cold, so the batch loop stays small.
     */
    [[gnu::cold]] bool admitExact(std::uint64_t idx);

    /**
     * The per-record commit pipeline, shared by every batch size:
     * log, count, ECC, main-core faults, translation and timing,
     * MMIO drain, detections, halt.
     * @return true iff the next instruction may commit in the same
     *         batch: no phase change happened (segment closed,
     *         rollback, drain, halt, injected fault, tick limit, due
     *         watchdog) and the next instruction's boundary work is
     *         at most retiring verified checks, which is done here.
     *         The count limits and the AIMD target bound a batch up
     *         front.
     *
     * Force-inlined (system.cc is its only user): commitBatch()'s
     * runDecoded() sink and the main-core kernel it calls are one
     * function, with no per-record call set-up.
     */
    [[gnu::always_inline]] inline bool commit(const isa::CommitRecord &r);

    /** A fetch left the image (nothing executed): cut and drain. */
    void wildFetch();

    /**
     * Account the fetches commit() served on fetchLine_ without the
     * I-TLB and L1I (fetchRepeats_ of them) as the hits they are, and
     * zero the count.  Runs before the next fetch that calls in and
     * at the end of every batch.
     */
    void settleFetchRepeats();

    /** True when the progress watchdog must escalate at @p now. */
    bool watchdogDue(Tick now) const;

    /** Shared halt handling once HALT has committed; updates phase_. */
    void noteHaltCommitted();

    /** One Draining-phase wait; updates phase_. */
    void stepDrain();

    /** Append @p r's memory activity to the filling segment.  Part of
     *  the per-commit kernel, so force-inlined like commit(). */
    [[gnu::always_inline]] inline void
    logResult(const isa::CommitRecord &r);

    /** Capture pre-store line images for line-granularity rollback. */
    void captureLineCopies(const isa::CommitRecord &r);

    /** Handle any detection due at or before @p now. */
    bool processDetections(Tick now);

    /** Return a segment past its last use to the spare pool. */
    void
    recycleSegment(std::unique_ptr<LogSegment> seg)
    {
        spareSegments_.push_back(std::move(seg));
    }

    /** Roll back to the start of pending index @p idx at @p now. */
    void performRollback(std::size_t idx, Tick now);

    /** Undo one segment's memory writes; returns undo operations. */
    std::uint64_t undoSegmentMemory(const LogSegment &segment);

    /** Per-checkpoint DVFS + power-integration hook. */
    void checkpointHousekeeping();

    /** Integrate power up to @p now at the current operating point. */
    void accumulatePower(Tick now);

    /** Apply controller voltage/frequency at @p now. */
    void applyOperatingPoint(Tick now);

    /** @{ Tracing hooks (single pointer test when detached). */
    bool
    tracing() const
    {
        return tracer_ != nullptr;
    }

    /** Track carrying checker @p id's replay spans. */
    obs::TrackId
    checkerTrack(unsigned id) const
    {
        return id < trCheckers_.size() ? trCheckers_[id]
                                       : trCheckers_.back();
    }

    /** Close the open fill span (segment ended at @p ts). */
    void traceEndFill(Tick ts);

    /** Record voltage/frequency counter samples at @p ts. */
    void traceOperatingPoint(Tick ts);
    /** @} */

    SystemConfig config_;
    const isa::Program &program_;

    /** The shared decoded image: every commit and every checker
     * replay runs it. */
    std::shared_ptr<const isa::DecodedProgram> decodedProg_;
    /** Most instructions one commitBatch() runs: 1 over a shared
     * uncore, whose min-time-first interleave steps one instruction
     * per stepOnce(), unbounded otherwise. */
    std::uint64_t batchLimit_ = ~std::uint64_t(0);

    mem::SimpleMemory memory_;
    isa::ArchState archState_;
    ClockDomain mainClock_;
    std::unique_ptr<mem::CacheHierarchy> hierarchy_;
    std::unique_ptr<mem::Tlb> dtlb_;
    std::unique_ptr<mem::Tlb> itlb_;
    /**
     * Per-line fetch (DESIGN §11): the virtual L1I line (pc >>
     * fetchLineShift_) of the batch's last fetch that went through
     * the I-TLB and L1I, and how many fetches since then stayed on it.
     * A line lies in one I-TLB page and, with physicalOffset
     * line-aligned (checked in the constructor), in one physical L1I
     * line, and nothing but fetches touches the I-TLB and L1I inside a
     * batch, so each repeat is a hit on both memos.  noLine outside a
     * batch.
     */
    static constexpr std::uint64_t noLine = ~std::uint64_t(0);
    std::uint64_t fetchLine_ = noLine;
    std::uint64_t fetchRepeats_ = 0;
    unsigned fetchLineShift_ = 0;
    std::unique_ptr<cpu::MainCore> mainCore_;
    std::unique_ptr<cpu::CheckerTiming> checkerTiming_;
    std::unique_ptr<CheckerScheduler> sched_;
    cpu::CheckerTiming *checkerTimingPtr_ = nullptr;
    CheckerScheduler *schedPtr_ = nullptr;
    CheckpointLengthController ckptCtrl_;
    std::unique_ptr<VoltageController> voltCtrl_;
    std::unique_ptr<Regulator> regulator_;
    faults::FaultPlan faultPlan_;
    faults::FaultPlan mainCoreFaultPlan_;
    std::shared_ptr<const faults::ChipModel> chip_;
    /** Static vulnerability model (null = no verdict stamping). */
    std::shared_ptr<const analysis::VulnAnalysis> vuln_;
    std::optional<faults::UndervoltErrorModel> undervoltModel_;
    power::PowerModel powerModel_;
    power::FrequencyVoltageModel fvModel_;
    power::EnergyAccumulator energy_;

    // Filling segment.
    std::unique_ptr<LogSegment> filling_;
    int fillingChecker_ = -1;
    unsigned instsInSegment_ = 0;
    std::unordered_set<Addr> linesCopiedThisCkpt_;
    /** Pre-store line image buffer, reused by captureLineCopies(). */
    std::vector<std::uint8_t> lineImage_;
    /**
     * Sum of the log-byte bounds the segment's accesses were admitted
     * under by commitBatch()'s gate: an effect-summary run or op
     * bound, or the op's exact bytes when neither fits.  Always >=
     * filling_->bytesUsed(); emitted per segment as the
     * "seg-bound-bytes" instant for trace_report --memdep.
     */
    std::uint64_t segBoundBytes_ = 0;
    /** Per-run static log bounds of decodedProg_ (built on demand). */
    std::optional<analysis::EffectSummary> effects_;

    // Dispatched segments, oldest first.
    std::deque<PendingCheck> pending_;
    /**
     * Smallest detectTick over the detected entries of pending_, or
     * maxTick when there are none: the per-commit detection test is
     * one compare.  Lowered at the push in closeSegmentAndDispatch(),
     * recomputed after the erase in performRollback(); the pop_fronts
     * never remove a detected entry, so they leave it unchanged.
     */
    Tick nextDetectTick_ = maxTick;
    /** The replay in flight on the helper thread, if any. */
    DeferredReplay deferred_;
    /**
     * A lower bound on every tick at which commit()'s tick-driven
     * tests can fire: nextDetectTick_, limits_.maxTicks, the watchdog
     * deadline (lastProgressTick_ + watchdogTicks_) and the oldest
     * pending check's finishTick (itself a lower bound while that
     * check is deferred).  Below it commit() skips all four with one
     * compare.  refreshNextEvent() recomputes it wherever
     * one of them changes: beginRun(), the watchdog trip, the push in
     * closeSegmentAndDispatch(), the pops in waitForOldestRelease()
     * and retireVerifiedUpTo(), and the erase in performRollback().
     * 0 (everything due) until the first refresh.
     */
    Tick nextEventTick_ = 0;
    /**
     * Spare segments, recycled so a checkpoint reuses a dead
     * segment's log buffers instead of allocating.  Every segment
     * lives in exactly one of filling_, pending_ or here, so the
     * three hold at most one segment per checker.
     */
    std::vector<std::unique_ptr<LogSegment>> spareSegments_;

    // Run-scoped counters.
    std::uint64_t segSeq_ = 1;
    std::uint64_t netIndex_ = 0;
    std::uint64_t executed_ = 0;
    std::uint64_t checkpoints_ = 0;
    std::uint64_t rollbacks_ = 0;
    std::uint64_t detections_ = 0;
    std::uint64_t faultsInjectedTotal_ = 0;
    /** @{ Static-verdict accounting (all zero without vuln_). */
    std::uint64_t vulnDeadFired_ = 0;
    std::uint64_t vulnLiveFired_ = 0;
    std::uint64_t vulnUnknownFired_ = 0;
    std::uint64_t maskedRollbacks_ = 0;
    std::uint64_t maskedDetections_ = 0;
    std::uint64_t deadDivergences_ = 0;
    /** Verdict-stamped main-core fires in the filling segment. */
    std::uint64_t mainFiredInSeg_ = 0;
    std::uint64_t mainDeadInSeg_ = 0;
    /** @} */
    std::array<std::uint64_t,
               static_cast<std::size_t>(DetectReason::NumReasons)>
        reasonCounts_{};
    double awakeTickSum_ = 0.0;
    std::uint64_t mmioDrains_ = 0;
    std::uint64_t eccCorrected_ = 0;
    std::uint64_t eccGap_ = 0;
    std::uint64_t dueGap_ = 0;
    Rng eccRng_{0};
    Tick lastPowerTick_ = 0;
    double currentVoltage_;
    double currentFreq_;

    // Escalation-ladder state.
    std::uint64_t retryVerifies_ = 0;
    std::uint64_t retrySaves_ = 0;
    std::uint64_t quarantines_ = 0;
    std::uint64_t panicResets_ = 0;
    std::uint64_t watchdogTrips_ = 0;
    std::uint64_t dueRollbacks_ = 0;
    unsigned consecutiveRollbacks_ = 0;
    unsigned backoffStage_ = 0;     //!< exponent of the backoff hold
    Tick backoffUntil_ = 0;         //!< undervolting suspended until
    Tick lastProgressTick_ = 0;     //!< last verified-segment retire
    Tick watchdogTicks_ = 0;        //!< 0 = progress watchdog off

    // Incremental-run state.
    Phase phase_ = Phase::Idle;
    RunLimits limits_{};
    bool halted_ = false;

    // Tracing (optional, non-owning).
    obs::TraceSink *tracer_ = nullptr;
    std::unique_ptr<obs::MetricsSampler> metrics_;
    obs::TrackId trMain_ = 0;
    obs::TrackId trSegments_ = 0;
    obs::TrackId trDvfs_ = 0;
    obs::TrackId trFaults_ = 0;
    obs::TrackId trMem_ = 0;
    std::vector<obs::TrackId> trCheckers_;
    bool fillSpanOpen_ = false;

    // Statistics: every stat -- the system-level aggregates below and
    // the component counters (mem.*, main.*, faults.*) published as
    // Gauges -- lives in this one registry; dumpStats and the generic
    // metrics sampling both enumerate it.
    stats::Registry registry_;
    stats::Distribution *rollbackNs_;
    stats::Distribution *wastedNs_;
    stats::Distribution *ckptLen_;
    stats::Histogram *ckptHist_;
    stats::Counter *evictionCuts_;
    stats::Counter *capacityCuts_;
    stats::Counter *targetCuts_;
    stats::Counter *checkerWaitStalls_;
    stats::Counter *retriesStat_;
    stats::Counter *retrySavesStat_;
    stats::Counter *quarantinesStat_;
    stats::Counter *panicResetsStat_;
    stats::Counter *watchdogTripsStat_;
    stats::Counter *dueRollbacksStat_;
    /** @{ Superblock batching visibility (main.sb_*). */
    stats::Counter *sbBatches_;
    stats::Counter *sbUops_;
    stats::Counter *sbGateStops_;
    /** @} */
    stats::TimeSeries *voltTrace_;
};

} // namespace core
} // namespace paradox

#endif // PARADOX_CORE_SYSTEM_HH
