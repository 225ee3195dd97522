/**
 * @file
 * Static segment-cost model.
 *
 * Combines the interval engine's trip bounds with each block's
 * instruction mix to predict, per workload: how many instructions a
 * complete run commits (min/max), how many checkpoint segments that
 * makes at a given segment length, and how many checker-core cycles
 * verifying those segments costs, at the per-class checker latencies
 * (isa::checkerExecCycles) that cpu::CheckerTiming also charges.
 *
 * min/maxDynInsts are *sound bounds*, cross-validated against
 * paradox-trace/1 seg-insts events by `trace_report --cost`; the
 * cycle and segment figures are estimates (the AIMD controller
 * adapts segment length at run time).
 */

#ifndef PARADOX_ANALYSIS_COSTMODEL_HH
#define PARADOX_ANALYSIS_COSTMODEL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "isa/opcode.hh"
#include "isa/program.hh"

namespace paradox
{
namespace analysis
{

/** Model knobs. */
struct CostParams
{
    /** Checkpoint-segment length (insts); AIMD initial by default. */
    std::uint64_t segmentLength = 1000;

    /** Extra footprint regions (e.g. the ABI result cell). */
    std::vector<isa::MemRegion> extraRegions;
};

/** The model's output for one program. */
struct WorkloadCost
{
    static constexpr std::size_t numClasses =
        std::size_t(isa::InstClass::NumClasses);

    std::string program;

    bool converged = false;   //!< interval fixpoint terminated
    std::uint64_t sweeps = 0; //!< fixpoint RPO sweeps used
    std::uint64_t loops = 0;
    std::uint64_t boundedLoops = 0;

    /**
     * Sound bounds on committed instructions in any complete
     * fault-free run.  @c maxDynInsts is only valid when @c bounded
     * (reducible CFG, every loop bounded, no indirect jumps);
     * @c minDynInsts only claims progress up to the first HALT or
     * indirect jump and is always valid.
     */
    bool bounded = false;
    std::uint64_t minDynInsts = 0;
    std::uint64_t maxDynInsts = 0;

    std::uint64_t footprintBytes = 0;  //!< merged declared+data+extra

    /**
     * @{ Identity of the decoded micro-op image the mix was counted
     * over: micro-op count and isa::DecodedProgram content hash.
     * `trace_report --cost` re-decodes the workload and verifies
     * both, so a stale cost file (workload changed after the model
     * was emitted) fails the cross-validation instead of silently
     * comparing against the wrong program.
     */
    std::uint64_t decodedUops = 0;
    std::uint64_t decodedHash = 0;
    /** @} */

    /**
     * Instruction mix by InstClass, weighted by per-block trip
     * products when @c bounded (so it over-approximates the dynamic
     * mix), else plain static counts.
     */
    std::uint64_t mix[numClasses] = {};
    std::uint64_t mixTotal = 0;

    double cyclesPerInst = 0.0;             //!< mix-weighted CPI
    std::uint64_t segmentLength = 0;        //!< params.segmentLength
    std::uint64_t checkerCyclesPerSegment = 0;
    /** Upper bounds, valid only when @c bounded. */
    std::uint64_t checkerCyclesTotal = 0;
    std::uint64_t predictedSegments = 0;
};

class CostModel
{
  public:
    static WorkloadCost compute(const isa::Program &prog,
                                const CostParams &params = {});
};

/** paradox-cost/1 JSONL header line (flat, obs::jsonField-parsable). */
std::string costJsonHeader();

/** One flat paradox-cost/1 record line for @p c at @p scale. */
std::string costJsonLine(const WorkloadCost &c, unsigned scale);

} // namespace analysis
} // namespace paradox

#endif // PARADOX_ANALYSIS_COSTMODEL_HH
