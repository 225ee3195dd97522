/**
 * @file
 * System-level configuration: fault-tolerance mode and every Table I
 * parameter, grouped per subsystem.
 *
 * The four modes correspond to the systems compared in the paper's
 * evaluation:
 *
 *  - Baseline: an unmodified, fault-intolerant system (the
 *    normalization baseline of figures 10 and 13).
 *  - DetectionOnly: heterogeneous parallel error *detection* only
 *    (Ainsworth & Jones DSN'18) -- checkers and checkpoints but no
 *    rollback buffering (bar 1 of figure 10).
 *  - ParaMedic: full error correction with word-granularity rollback,
 *    fixed checkpoint targets and round-robin checker allocation
 *    (DSN'19; bar 2 of figure 10, baseline of figures 8/9).
 *  - ParaDox: this paper -- AIMD checkpoint lengths, line-granularity
 *    rollback, lowest-free-ID scheduling with power gating, and
 *    optional dynamic voltage/frequency adaptation.
 *
 * Individual ParaDox mechanisms can also be toggled independently for
 * the ablation benchmarks.
 */

#ifndef PARADOX_CORE_CONFIG_HH
#define PARADOX_CORE_CONFIG_HH

#include <cstdint>
#include <string>

#include "cpu/checker_timing.hh"
#include "cpu/main_core.hh"
#include "mem/hierarchy.hh"

namespace paradox
{
namespace core
{

/** Which fault-tolerance system to model. */
enum class Mode : std::uint8_t
{
    Baseline,
    DetectionOnly,
    ParaMedic,
    ParaDox,
};

/** Human-readable mode name. */
const char *modeName(Mode mode);

/** AIMD checkpoint-length controller parameters (section IV-A). */
struct CheckpointAimdParams
{
    unsigned initial = 1000;
    unsigned increment = 10;     //!< additive increase per clean ckpt
    unsigned maxLength = 5000;   //!< Table I: 5,000 inst. max
    unsigned minLength = 10;
};

/** Dynamic voltage adaptation parameters (section IV-B). */
struct VoltageAimdParams
{
    double vSafe = 0.980;        //!< known-safe margined voltage
    double vMinAllowed = 0.750;  //!< absolute controller floor
    /** Volts removed per clean checkpoint.  Sized so that, with the
     * 8x tide-mark slowdown, steady-state errors arrive roughly once
     * per millisecond (the paper's figure 11 cadence) rather than
     * dominating execution with recovery. */
    double decreaseStep = 0.0001;
    double recoveryFactor = 0.875; //!< gap multiplier on an error
    double tideSlowFactor = 8.0;  //!< step divisor below the tide mark
    unsigned tideResetErrors = 100; //!< errors between tide resets
    bool dynamicDecrease = true;  //!< false = constant decrease (fig 11)
    double regulatorSlewVoltsPerUs = 0.01;
    double startVoltage = 0.980;
};

/** Load-store-log geometry (Table I: 6 KiB per core). */
struct LogParams
{
    std::size_t segmentBytes = 6 * 1024;
    unsigned loadEntryBytes = 16;       //!< addr + value
    unsigned storeEntryBytes = 16;      //!< addr + new value
    unsigned storeOldValueBytes = 8;    //!< extra old value (ParaMedic)
    unsigned lineCopyBytes = 80;        //!< 64B line + addr + ECC
};

/** Recovery cost parameters (section IV-D / figure 9). */
struct RollbackParams
{
    unsigned cyclesPerWordUndo = 3;   //!< ParaMedic reverse walk
    unsigned cyclesPerLineRestore = 6; //!< ParaDox line restore
    unsigned finalCompareCycles = 16;  //!< register-file comparison
};

/**
 * Fault-escalation ladder (robustness layer above the paper's
 * transient-only recovery).  Each rung handles the failure class the
 * rung below cannot:
 *
 *  1. retryVerify -- a flagged segment is re-verified on a *second*
 *     checker before paying rollback.  Detection is symmetric: a
 *     clean second replay proves the log and checkpoints were fine
 *     and the first checker erred, so the segment retires without
 *     rollback.  Sound because any main-core corruption inside the
 *     segment makes every clean replay diverge from the recorded
 *     log/end state.
 *  2. quarantine -- checkers whose detections cluster (K strikes in
 *     a sliding window of their replays) are retired from the pool;
 *     the pool degrades gracefully down to one checker.  Handles
 *     intermittent/permanent per-core defects that would otherwise
 *     livelock lowest-free-ID scheduling.
 *  3. panic reset -- a run of consecutive rollbacks with no clean
 *     checkpoint in between means the operating point itself is
 *     unsustainable: snap the voltage island back to v_safe and hold
 *     it there for an (exponentially growing) backoff interval
 *     before the AIMD controller may undervolt again.
 *  4. forward-progress watchdog -- no segment *verified* in a whole
 *     watchdog interval escalates straight to rung 3, catching
 *     livelock shapes the rollback counter cannot see.
 */
struct EscalationParams
{
    /** Rung 1: re-verify flagged segments on a second checker. */
    bool retryVerify = false;

    /** @{ Rung 2: per-checker health tracking. */
    bool quarantineEnabled = false;
    unsigned strikesToQuarantine = 3;  //!< K strikes...
    unsigned strikeWindow = 8;         //!< ...within this many replays
    /** @} */

    /** @{ Rung 3: voltage panic reset. */
    /** Consecutive rollbacks (no clean checkpoint between) that
     * trigger a panic reset.  0 disables the rung. */
    unsigned panicRollbackThreshold = 0;
    double backoffUs = 5.0;      //!< initial hold at v_safe
    double backoffMaxUs = 320.0; //!< cap for the exponential growth
    /** @} */

    /** Rung 4: forward-progress watchdog interval in microseconds
     * (no verified segment for this long escalates).  0 disables. */
    double progressWatchdogUs = 0.0;
};

/** The complete system configuration. */
struct SystemConfig
{
    Mode mode = Mode::ParaDox;
    cpu::MainCoreParams mainCore{};
    double mainFreqHz = 3.2e9;
    cpu::CheckerParams checkers{};
    mem::HierarchyParams hierarchy{};
    LogParams log{};
    CheckpointAimdParams checkpointAimd{};
    VoltageAimdParams voltage{};
    RollbackParams rollback{};
    EscalationParams escalation{};
    unsigned regCheckpointCycles = 16;  //!< Table I
    /**
     * Checker-replay watchdog: detection fires once a replay exceeds
     * this many cycles per logged instruction (plus a fixed grace
     * allowance).  Sized so the densest legitimate segments sit far
     * below it while corrupted wrong-path execution trips it.
     * 0 disables the watchdog.
     */
    unsigned checkerTimeoutFactor = 24;
    std::uint64_t seed = 12345;

    /**
     * Uncacheable (memory-mapped I/O) window.  Stores into it update
     * external state and so "must be checked before they can
     * proceed" (section II-B): the system cuts the checkpoint at the
     * store and drains every outstanding check before committing it.
     * Zero size disables the window.
     */
    Addr mmioBase = 0;
    std::size_t mmioSize = 0;

    /**
     * Per-load probability of a (single-bit) soft error in
     * ECC-protected memory.  The paper assumes SECDED on memory and
     * caches (section IV-E); these events are corrected in place by
     * the real Hamming(72,64) codec and never reach the detection
     * machinery.  0 disables.
     */
    double memoryEccFaultRate = 0.0;

    /**
     * Per-load probability of a *double-bit* (detected-but-
     * uncorrectable, DUE) upset in ECC-protected memory.  SECDED
     * flags but cannot repair these; instead of being impossible by
     * construction they take a machine-check-style path: the open
     * segment rolls back to its checkpoint and memory is re-written
     * through the log, scrubbing the poisoned word.  Requires
     * rollback support; 0 disables.
     */
    double memoryEccDueRate = 0.0;

    /**
     * Physical-address offset applied on the *timing* path (caches,
     * DRAM, checker I-caches).  In a multicore, each core's program
     * occupies distinct physical pages; without this, co-scheduled
     * programs would falsely alias in the shared L2.  Functional
     * addresses are unaffected.
     */
    Addr physicalOffset = 0;

    /** @{ Feature toggles derived from mode (overridable). */
    bool adaptiveCheckpoints = true;   //!< AIMD lengths (ParaDox)
    bool lineGranularityRollback = true; //!< section IV-D (ParaDox)
    bool lowestIdScheduling = true;    //!< section IV-C (ParaDox)
    bool bufferUncheckedStores = true; //!< L1 pinning (correction modes)
    bool rollbackSupported = true;     //!< false for DetectionOnly
    bool dvfsEnabled = false;          //!< dynamic voltage adaptation
    /** @} */

    /** Apply the canonical toggle set for @p mode. */
    static SystemConfig forMode(Mode mode);

    /**
     * Enable the full escalation ladder with its default tuning
     * (retry-verify, quarantine, panic reset, progress watchdog).
     */
    void enableEscalation();

    /**
     * Sanity-check the configuration, calling fatal() with a
     * description of the first violated constraint.  The System
     * constructor runs this; tools building configs by hand should
     * too.
     */
    void validate() const;
};

} // namespace core
} // namespace paradox

#endif // PARADOX_CORE_CONFIG_HH
