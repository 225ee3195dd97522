/**
 * @file
 * The individual analysis passes run by analysis::Linter.
 *
 * Every pass reads a shared immutable Context (program, CFG,
 * reachability) and appends Diagnostics; passes never mutate the
 * program.  Pass names double as the @c pass field of the
 * diagnostics they emit:
 *
 *  - "reach":       unreachable blocks, no reachable halt
 *  - "dataflow":    def-before-use, maybe-uninitialized, dead stores
 *  - "footprint":   out-of-footprint and misaligned constant accesses
 *  - "termination": infinite and likely-infinite loops
 *  - "memdep":      redundant / dead / always-overlapping memory
 *                   accesses (memdep.hh, needs the interval AI)
 *
 * ("cfg" diagnostics — invalid branch targets, fallthrough off the
 * end of the image — are emitted during Cfg::build itself.)
 */

#ifndef PARADOX_ANALYSIS_PASSES_HH
#define PARADOX_ANALYSIS_PASSES_HH

#include <vector>

#include "analysis/cfg.hh"
#include "analysis/diagnostic.hh"
#include "isa/program.hh"

namespace paradox
{
namespace analysis
{

class IntervalAnalysis;

/** Tuning knobs and environment facts for the passes. */
struct Options
{
    /**
     * Regions that are part of the footprint but not declared by the
     * program itself, e.g. the ABI result cell every workload stores
     * its checksum to.
     */
    std::vector<isa::MemRegion> extraRegions;

    bool warnDeadStores = true;    //!< report never-read register defs
    bool warnMaybeUninit = true;   //!< report path-dependent init

    /**
     * Run the interval abstract interpretation and the passes built
     * on it: range-based footprint checks, dead branches, division /
     * shift range checks, and loop trip bounds.  Off by default; the
     * interval fixpoint costs more than every other pass combined.
     */
    bool ranges = false;

    /**
     * Run the fault-vulnerability (live-bit/ACE) analysis and report
     * its aggregate live fractions.  Pair with ranges=true to let
     * interval facts prune provably-masked bits.
     */
    bool vuln = false;

    /**
     * Run the memory-dependence pass (redundant-load,
     * dead-memory-store, always-overlapping-access).  Requires
     * ranges=true; silently skipped when the interval fixpoint did
     * not converge.
     */
    bool memdep = false;
};

/** Shared read-only state handed to each pass. */
struct Context
{
    const isa::Program &prog;
    const Cfg &cfg;
    const std::vector<bool> &reachable;  //!< per block id
    const Options &opts;
};

/** Unreachable blocks and absence of a reachable halt. */
void checkReachability(const Context &ctx,
                       std::vector<Diagnostic> &diags);

/**
 * Forward may/must-initialized analysis (def-before-use,
 * maybe-uninitialized) plus backward liveness (dead stores).
 */
void checkDataflow(const Context &ctx, std::vector<Diagnostic> &diags);

/**
 * Constant propagation over integer registers; every load/store
 * whose address resolves to a constant is checked for alignment and
 * membership in the declared + data-derived footprint.
 */
void checkFootprint(const Context &ctx, std::vector<Diagnostic> &diags);

/**
 * Back-edge detection and loop termination heuristics: a loop with
 * no exit path is an error; a loop none of whose exit-condition
 * registers is updated inside the loop is a likely-infinite warning.
 * When @p ai is non-null, loops it proved bounded are exempt from
 * the likely-infinite heuristic.
 */
void checkTermination(const Context &ctx,
                      std::vector<Diagnostic> &diags,
                      const IntervalAnalysis *ai = nullptr);

/**
 * Interval-based checks over @p ai: range-based footprint membership
 * (constant-pass codes for definite violations so deduplication
 * collapses double reports, "possible-*" warnings for finite ranges
 * that straddle a region edge), provably dead branches, possible
 * division by zero, and out-of-range register shift amounts.
 */
void checkRanges(const Context &ctx, const IntervalAnalysis &ai,
                 std::vector<Diagnostic> &diags);

/**
 * Decoded-image consistency: the pre-decoded micro-op image
 * (isa::DecodedProgram) must agree with the CFG and the instruction
 * table -- one micro-op per instruction, resolved branch targets on
 * CFG edges, and superblock run lengths stopping at control
 * transfers.
 */
void checkDecoded(const Context &ctx, std::vector<Diagnostic> &diags);

/**
 * The program's full footprint: declared regions, runs derived from
 * the initial data image, and @p extras.  Unmerged.
 */
std::vector<isa::MemRegion>
footprintRegions(const isa::Program &prog,
                 const std::vector<isa::MemRegion> &extras);

/** Merge @p regions into sorted, disjoint, maximal runs. */
std::vector<isa::MemRegion>
mergeRegions(std::vector<isa::MemRegion> regions);

} // namespace analysis
} // namespace paradox

#endif // PARADOX_ANALYSIS_PASSES_HH
