/**
 * @file
 * Checker-core segment replay: functional re-execution against the
 * load-store log, under fault injection (paper sections II-B, V-A).
 *
 * A checker starts from the segment's starting architectural state
 * and re-executes exactly the committed instruction count.  Loads
 * read the next log entry's value (never main memory); stores compare
 * the computed value against the next entry.  Detection fires on:
 *
 *  - a store comparison mismatch (value, address or size),
 *  - a load consuming a mismatched entry (address/size/kind skew),
 *  - invalid checker behaviour (wild fetch, premature halt,
 *    entry over/under-run) -- figure 7's exception case,
 *  - a watchdog timeout ("any full lockup of a core is detected via
 *    timeout", section II-B), and
 *  - the final architectural-state comparison at segment end.
 *
 * Fault injection perturbs only this replay (checker side), exactly
 * as in the paper's framework.
 */

#ifndef PARADOX_CORE_CHECKER_REPLAY_HH
#define PARADOX_CORE_CHECKER_REPLAY_HH

#include <cstdint>
#include <vector>

#include "core/lslog.hh"
#include "cpu/checker_timing.hh"
#include "faults/fault_model.hh"
#include "isa/program.hh"

namespace paradox
{
namespace isa
{
class DecodedProgram;
} // namespace isa

namespace analysis
{
class VulnAnalysis;
} // namespace analysis

namespace core
{

/** Why a replay reported a divergence. */
enum class DetectReason : std::uint8_t
{
    None,
    StoreMismatch,
    LoadEntryMismatch,
    InvalidBehavior,
    EntryCountMismatch,
    FinalStateMismatch,
    Timeout,

    NumReasons
};

/** Human-readable detection reason. */
const char *detectReasonName(DetectReason reason);

/** Result of replaying one segment on one checker core. */
struct ReplayOutcome
{
    bool detected = false;
    DetectReason reason = DetectReason::None;
    /** Checker cycles from start to the detection signal. */
    Cycles cyclesAtDetection = 0;
    /** Total checker cycles (== cyclesAtDetection when detected). */
    Cycles totalCycles = 0;
    /** Instructions the checker executed before stopping. */
    unsigned instructionsExecuted = 0;
    /** Faults injected during this replay. */
    std::uint64_t faultsInjected = 0;
    /** Of those, fires attributed to chip-map weak cells. */
    std::uint64_t weakCellHits = 0;
    /** Chip-map indices of the cells that fired (capped sample). */
    std::vector<std::uint32_t> weakSites;
    /**
     * Static ACE verdicts of the injected faults (zero unless a
     * vulnerability model was handed to replaySegment).  deadFaults
     * counts hits at provably-masked sites: they may surface only as
     * a FinalStateMismatch, never as any other detection reason.
     */
    std::uint64_t deadFaults = 0;
    std::uint64_t liveFaults = 0;
    std::uint64_t unknownFaults = 0;
};

/**
 * Replay @p segment of @p prog on checker @p checker_id.
 *
 * @param timing   checker timing model (cycle accounting, L0 I-cache)
 * @param plan     active fault injectors (may be empty)
 * @param final_compare_cycles cost of the end-of-segment register
 *        file comparison
 * @param timeout_factor watchdog: detection fires if the replay
 *        exceeds timeout_factor cycles per logged instruction (plus
 *        a fixed grace allowance).  Sized so that the densest
 *        legitimate segments (divide-heavy FP at ~6 cycles per
 *        instruction, I-cache-thrashing code at ~8) sit far below
 *        it, while corrupted wrong-path execution stuck in divide
 *        chains (32+ cycles per instruction) trips it.  0 disables.
 * @param decoded  pre-decoded image of @p prog that the replay runs
 *        (isa/decoded_run.hh); null means DecodedProgram::get(prog).
 * @param vuln     optional static vulnerability model.  When given,
 *        every firing fault is stamped with the model's verdict for
 *        its site and tallied into ReplayOutcome::deadFaults /
 *        liveFaults / unknownFaults.
 */
ReplayOutcome replaySegment(const isa::Program &prog,
                            const LogSegment &segment,
                            unsigned checker_id,
                            cpu::CheckerTiming &timing,
                            faults::FaultPlan &plan,
                            unsigned final_compare_cycles,
                            unsigned timeout_factor = 24,
                            Addr timing_offset = 0,
                            const isa::DecodedProgram *decoded = nullptr,
                            const analysis::VulnAnalysis *vuln = nullptr);

namespace detail
{

/**
 * Land @p injector's firing @p hit on @p state after @p r, first
 * stamping the hit's static verdict when @p vuln is given.
 */
void landInstructionHit(const faults::FaultInjector &injector,
                        faults::FaultHit &hit, const isa::ExecResult &r,
                        isa::ArchState &state,
                        const analysis::VulnAnalysis *vuln,
                        std::size_t inst_idx);

} // namespace detail

/**
 * Apply post-commit architectural fault injection for one committed
 * instruction: every firing injector in @p plan corrupts @p state --
 * functional-unit faults flip a bit of the register the instruction
 * just wrote, latch faults flip/stick a bit of the targeted
 * category.  Shared by the main-core commit loop (System) and the
 * checker replay so the two domains interpret a commit record's
 * destination fields identically.
 *
 * @param on_hit observer invoked for each firing hit (tracing,
 *        weak-cell accounting); the hit carries the static verdict
 *        for its site when @p vuln is given
 * @param vuln optional vulnerability model for verdict stamping
 * @param inst_idx index of @p inst in its program (verdict lookup)
 * @return the number of faults that fired
 */
template <typename OnHit>
std::uint64_t
applyInstructionFaults(faults::FaultPlan &plan,
                       const isa::Instruction &inst,
                       const isa::ExecResult &r, isa::ArchState &state,
                       OnHit &&on_hit,
                       const analysis::VulnAnalysis *vuln = nullptr,
                       std::size_t inst_idx = 0)
{
    std::uint64_t fired = 0;
    for (auto &injector : plan.injectors()) {
        faults::FaultHit hit =
            injector.onInstruction(inst, r.wroteInt || r.wroteFp);
        if (!hit.fires)
            continue;
        ++fired;
        detail::landInstructionHit(injector, hit, r, state, vuln,
                                   inst_idx);
        on_hit(hit);
    }
    return fired;
}

} // namespace core
} // namespace paradox

#endif // PARADOX_CORE_CHECKER_REPLAY_HH
