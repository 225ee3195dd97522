/**
 * @file
 * The unified experiment API: every headline result in the paper
 * (figures 3, 8-13, Table 1) is a sweep of many independent,
 * deterministic single-system simulations.  ExperimentSpec is the
 * one value type describing such a run -- mode, workload, fault
 * plan, DVFS, seed and limits -- and runOne() executes it.
 *
 * This supersedes the per-harness RunSpec structs that used to live
 * in bench/common.hh and the two tools: one spec type means one
 * place to add a knob, and one runner (exp::Runner) to sweep it in
 * parallel.
 */

#ifndef PARADOX_EXP_SPEC_HH
#define PARADOX_EXP_SPEC_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/system.hh"
#include "faults/fault_model.hh"
#include "isa/decoded.hh"
#include "workloads/workload.hh"

namespace paradox
{
namespace exp
{

/** Forward declaration (filled by runOne). */
struct RunOutcome;

/** Default per-run bounds: generous but livelock-safe. */
inline core::RunLimits
defaultLimits()
{
    core::RunLimits limits;
    limits.maxExecuted = 60'000'000;
    limits.maxTicks = ticksPerMs * 500;
    return limits;
}

/**
 * One configured system run on a named workload.
 *
 * The common knobs are plain fields; anything rarer goes through the
 * @ref configure hook, which gets the final SystemConfig before the
 * System is built (ablation toggles, voltage-policy switches, ...).
 */
struct ExperimentSpec
{
    std::string label;             //!< free-form tag carried to sinks
    core::Mode mode = core::Mode::ParaDox;
    std::string workload = "bitcount";
    unsigned scale = 1;

    /** @{ Fault plan. */
    double faultRate = 0.0;        //!< fixed-rate injection if > 0
    faults::Persistence persistence = faults::Persistence::Transient;
    int pinChecker = -1;           //!< restrict injector to one checker
    double mainCoreRate = 0.0;     //!< faults on the main core itself
    double eccRate = 0.0;          //!< SECDED memory upsets per load
    bool dvfs = false;             //!< voltage-driven injection
    bool escalate = false;         //!< enable the escalation ladder
    /** @} */

    /** @{ Chip-map injection (faults::ChipModel).  chipSeed != 0
     *  replaces the geometric injectors with a persistent per-chip
     *  weak-cell map; faultRate is then ignored. */
    std::uint64_t chipSeed = 0;    //!< 0 = chip mode off
    unsigned weakCells = 48;       //!< weak-cell population size
    double vminSigma = 0.008;      //!< per-core Vmin spread (volts)
    /** Fixed undervolted rail (> 0; requires chip mode, no dvfs). */
    double supplyVoltage = 0.0;
    /** @} */

    /** @{ Config overrides (0 = keep the mode's default). */
    unsigned checkers = 0;
    unsigned maxCheckpoint = 0;
    unsigned timeoutFactor = 0;
    /** @} */

    /**
     * Install the static vulnerability model (analysis::VulnAnalysis
     * over the workload program + result word): every firing fault is
     * stamped live/dead/unknown and the run reports masked-rollback
     * and dead-divergence counters (RunResult).
     */
    bool vuln = false;

    /** @{ Execution tracing (src/obs). Empty traceFile = off. */
    std::string traceFile;         //!< Chrome JSON path (+ .jsonl twin)
    unsigned traceMetricsUs = 10;  //!< metrics sampling interval
    /** @} */

    /**
     * Emit per-job host timing (job_wall_ms / job_queue_ms) in result
     * JSONL records.  Off by default: timing varies run to run, and
     * campaign outputs are expected to be byte-identical between
     * serial and parallel executions of the same specs.
     */
    bool recordTimings = false;

    std::uint64_t seed = 12345;
    core::RunLimits limits = defaultLimits();

    /** Last-word tweak of the built config (may be empty). */
    std::function<void(core::SystemConfig &)> configure;

    /**
     * Post-run observer with access to the live System (voltage
     * traces, stat dumps, ...).  Runs on the worker executing this
     * spec; it must only touch its own captures.
     */
    std::function<void(core::System &, RunOutcome &)> observe;
};

/** Compact summary of a stats::Distribution. */
struct DistSummary
{
    double mean = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::uint64_t count = 0;
};

/** Everything a sweep consumer needs from one finished run. */
struct RunOutcome
{
    core::RunResult result;
    std::uint64_t finalValue = 0;  //!< memory word at resultAddr
    std::uint64_t expected = 0;    //!< workload's golden checksum
    bool correct = false;          //!< halted with the golden value
    std::uint64_t eccCorrected = 0;
    DistSummary rollbackNs;
    DistSummary wastedNs;
    DistSummary ckptLen;
    std::string tracePath;         //!< Chrome JSON written (if traced)
    std::string error;             //!< non-empty: the job threw
    /** @{ Host-side job timing, stamped by exp::Runner (< 0 when the
     *  spec ran outside a Runner batch). */
    double jobWallMs = -1.0;       //!< wall-clock spent in runOne()
    double jobQueueMs = -1.0;      //!< batch start to job start
    /** @} */

    bool ok() const { return error.empty(); }
};

/**
 * The SystemConfig runOne() builds @p spec's System from: the mode's
 * defaults, the spec's overrides, then its configure hook.  Throws
 * std::invalid_argument for a pinned checker out of range.
 */
core::SystemConfig buildConfig(const ExperimentSpec &spec);

/**
 * Install on @p system, built from buildConfig(@p spec) over
 * @p program, what runOne() installs before running: the fault plans,
 * DVFS, the chip model and fixed supply, and the vulnerability model.
 * Throws std::invalid_argument for a supply voltage without chip mode
 * or with dvfs.
 */
void armSystem(core::System &system, const ExperimentSpec &spec,
               const isa::Program &program);

/**
 * The RunOutcome of @p system's finished run @p result, checked
 * against the workload's golden checksum @p expected (host timing and
 * trace path left unset).
 */
RunOutcome summarizeRun(core::System &system, core::RunResult result,
                        std::uint64_t expected);

/**
 * A workload as every run of it in one process shares it: the built
 * program with its golden checksum, and the program's decode, held
 * strongly so that each System's isa::DecodedProgram::get finds it
 * alive.  Never mutated once published.
 */
struct WorkloadImage
{
    workloads::Workload workload;
    std::shared_ptr<const isa::DecodedProgram> decoded;
};

/**
 * The process-wide image of @p name at @p scale (0 means 1), built
 * and decoded on first use and kept until the process exits, so the
 * reference stays valid.  Thread-safe.  Throws std::invalid_argument
 * for an unknown workload.  workloads::build still gives a private
 * copy.
 */
const WorkloadImage &workloadImage(const std::string &name,
                                   unsigned scale);

/**
 * Execute @p spec to completion and summarize it, over
 * workloadImage(spec.workload, spec.scale).
 *
 * Throws std::invalid_argument for malformed specs (unknown
 * workload, out-of-range pinned checker) rather than exiting, so a
 * batch runner can report one bad job without aborting the sweep.
 */
RunOutcome runOne(const ExperimentSpec &spec);

/** Parse a mode name (baseline|detect|paramedic|paradox). */
bool parseMode(const std::string &name, core::Mode &out);

/**
 * Deterministic per-job trace filename: "dir/run-0007.json".
 * Sweeps use it so a re-run with the same specs overwrites in place.
 */
std::string tracePathForJob(const std::string &dir, std::size_t index);

} // namespace exp
} // namespace paradox

#endif // PARADOX_EXP_SPEC_HH
