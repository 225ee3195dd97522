/**
 * @file
 * Interval abstract interpretation over the CFG.
 *
 * A forward fixpoint propagates one Interval per integer register
 * through every reachable block.  Loop heads (DFS back-edge targets)
 * are widened after a short delay so the ascending chain terminates,
 * then a bounded narrowing phase recovers precision lost to widening.
 *
 * On top of the plain fixpoint the engine infers *trip bounds* for
 * natural loops whose exit test compares a single-step induction
 * register against a loop-invariant bound, and feeds them back as
 * *induction clamps*: on a back edge, a register known to step by a
 * constant c at most once per iteration is bounded by its preheader
 * box stretched by c * (trips - 1).  This is what lets pure pointer
 * registers (which the workloads never compare against anything) get
 * finite ranges: the counter register bounds the loop, the clamp
 * transfers that bound to every other induction register.
 *
 * Everything here is an over-approximation of the executor's wrapping
 * semantics; an execution escaping a derived bound is a bug in this
 * file, and the trace cross-validation in trace_report exists to
 * catch exactly that.
 */

#ifndef PARADOX_ANALYSIS_AI_HH
#define PARADOX_ANALYSIS_AI_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "analysis/cfg.hh"
#include "analysis/interval.hh"
#include "isa/program.hh"

namespace paradox
{
namespace analysis
{

/** Sentinel trip bound: the loop could iterate forever. */
constexpr std::uint64_t unboundedTrips = ~std::uint64_t(0);

/**
 * One natural loop, merged by header (all back edges into the same
 * header share body and bound).
 */
struct Loop
{
    std::size_t header = 0;
    std::vector<std::size_t> latches;  //!< back-edge source blocks
    std::vector<bool> inBody;          //!< per block id
    std::vector<std::size_t> bodyBlocks;  //!< sorted body block ids

    /** Upper bound on body executions per loop entry. */
    std::uint64_t tripBound = unboundedTrips;
    /** Exit-branch instruction the bound was derived from. */
    std::size_t boundExit = std::size_t(-1);

    bool bounded() const { return tripBound != unboundedTrips; }
};

/**
 * Natural loops of the reachable CFG, one per header, discovered
 * from DFS back edges (shared by the termination pass and the
 * interval engine).  Trip fields are left at their defaults.
 */
std::vector<Loop> findLoops(const Cfg &cfg,
                            const std::vector<bool> &reachable);

/**
 * Dominator sets as one bitset per block (bit p of @c doms[b] set
 * iff p dominates b).  Entry and call-return roots dominate only
 * themselves; unreachable blocks get empty sets.
 */
class Dominators
{
  public:
    static Dominators compute(const Cfg &cfg,
                              const std::vector<bool> &reachable);

    bool dominates(std::size_t a, std::size_t b) const
    { return (bits_[b][a / 64] >> (a % 64)) & 1; }

  private:
    std::vector<std::vector<std::uint64_t>> bits_;
};

/** Interval state of the 32 integer registers at one program point. */
struct RegState
{
    /** False while no feasible path to the point has been seen. */
    bool feasible = false;
    std::array<Interval, isa::numIntRegs> regs{};  //!< default bottom

    bool operator==(const RegState &) const = default;
};

/** Map a conditional branch opcode to its predicate. */
bool branchCmp(const isa::Instruction &inst, Cmp &cmp);

/** The interval fixpoint plus everything derived from it. */
class IntervalAnalysis
{
  public:
    static IntervalAnalysis run(const isa::Program &prog,
                                const Cfg &cfg,
                                const std::vector<bool> &reachable);

    /** State on entry to block @p b (bottom if unreachable). */
    const RegState &blockIn(std::size_t b) const { return in_[b]; }

    const std::vector<Loop> &loops() const { return loops_; }
    const Dominators &dominators() const { return doms_; }

    /** False only if the sweep cap was hit (widening failed). */
    bool converged() const { return converged_; }
    /** Full RPO sweeps executed across all fixpoint rounds. */
    std::size_t sweeps() const { return sweeps_; }

    /**
     * True when every back edge's header dominates its tail.  Trip
     * bounds are inferred only for such CFGs; in an irreducible graph
     * every loop stays unbounded.
     */
    bool reducible() const { return reducible_; }

    /**
     * Apply instruction @p inst (at index @p instIdx, needed for the
     * jal/jalr link value) to @p s.
     */
    static void transfer(const isa::Instruction &inst,
                         std::size_t instIdx, RegState &s);

  private:
    std::vector<RegState> in_;
    std::vector<Loop> loops_;
    Dominators doms_;
    bool converged_ = true;
    bool reducible_ = true;
    std::size_t sweeps_ = 0;
};

} // namespace analysis
} // namespace paradox

#endif // PARADOX_ANALYSIS_AI_HH
