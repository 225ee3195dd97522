/**
 * @file
 * Timing model of the checker cores (Table I: 16 in-order 4-stage
 * cores at 1 GHz, 8 KiB L0 I-cache per core, 32 KiB shared L1
 * I-cache; data comes from the load-store log, not a cache).
 *
 * A checker core retires at most one instruction per cycle; long ops
 * (its narrow divider especially, section IV-C) stall the pipe for
 * their full latency.  Instruction fetch goes through the core's
 * private L0 and the shared L1; workloads with large code footprints
 * (gobmk, povray, h264ref, omnetpp, xalancbmk in figure 10) miss in
 * the 8 KiB L0 and pay for it here.  Power-gating a checker core
 * flushes its L0, so waking it starts cold.
 */

#ifndef PARADOX_CPU_CHECKER_TIMING_HH
#define PARADOX_CPU_CHECKER_TIMING_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "isa/instruction.hh"
#include "mem/cache.hh"
#include "sim/clock.hh"
#include "sim/types.hh"

namespace paradox
{
namespace cpu
{

/**
 * Structural and fetch parameters of the checker complex.  Execute
 * latencies are per instruction class (isa::checkerExecCycles).
 */
struct CheckerParams
{
    unsigned count = 16;           //!< checker cores per main core
    double freqHz = 1e9;

    unsigned l0Bytes = 8 * 1024;
    unsigned l0Assoc = 1;   //!< direct-mapped: tiny-core reality
    unsigned l0HitCycles = 1;
    unsigned sharedL1Bytes = 32 * 1024;
    unsigned sharedL1Assoc = 4;
    unsigned sharedL1Cycles = 4;   //!< extra cycles on an L0 miss
    unsigned missCycles = 24;      //!< extra cycles beyond shared L1
};

/**
 * Cycle accounting for checker-core execution.
 *
 * Stateless with respect to scheduling: core/ decides *which* checker
 * runs a segment and *when*; this model answers "how many checker
 * cycles does this instruction cost on checker @p id".
 */
class CheckerTiming
{
  public:
    CheckerTiming() : CheckerTiming(CheckerParams{}) {}
    explicit CheckerTiming(const CheckerParams &params);

    /**
     * Cycles checker @p id spends on @p inst fetched from @p pc.  A
     * replayed segment is sequential code, so a fetch from the line
     * the L0 served last is inline (mem::Cache::tryReadHit); the rest
     * -- other L0 lines, the shared L1, an out-of-range @p id -- is
     * instCyclesSlow().
     */
    Cycles
    instCycles(unsigned id, Addr pc, const isa::Instruction &inst)
    {
        if (id < l0_.size())
            return instCycles(*l0_[id], id, pc, inst.info().cls);
        return instCyclesSlow(id, pc, inst.info().cls);
    }

    /**
     * instCycles() for a replay loop that resolved checker @p id's L0
     * once (@p l0 == l0(id)) and takes the class from the commit
     * record.
     */
    Cycles
    instCycles(mem::Cache &l0, unsigned id, Addr pc, isa::InstClass cls)
    {
        if (l0.tryReadHit(pc, lruClock_ + 1)) {
            ++lruClock_;
            return isa::checkerExecCycles(cls);
        }
        return instCyclesSlow(id, pc, cls);
    }

    /** Checker @p id's private L0 I-cache; panics if out of range. */
    mem::Cache &l0(unsigned id);

    /** Power gating flushed checker @p id's L0 I-cache. */
    void powerGated(unsigned id);

    /** The checker clock (1 GHz). */
    const ClockDomain &clock() const { return clock_; }

    /** Convert checker cycles to ticks. */
    Tick cyclesToTicks(Cycles n) const { return clock_.cyclesToTicks(n); }

    const CheckerParams &params() const { return params_; }

    /** @{ Aggregate I-cache statistics across all checkers. */
    std::uint64_t l0Misses() const;
    std::uint64_t sharedL1Misses() const { return sharedL1_->misses(); }
    /** @} */

    /** Drop all cache state (between independent runs). */
    void reset();

  private:
    /** instCycles() past the memoized L0 hit: the full fetch path. */
    Cycles instCyclesSlow(unsigned id, Addr pc, isa::InstClass cls);

    CheckerParams params_;
    ClockDomain clock_;
    std::vector<std::unique_ptr<mem::Cache>> l0_;
    std::unique_ptr<mem::Cache> sharedL1_;
    Tick lruClock_ = 0;  //!< synthetic time for cache LRU ordering
};

} // namespace cpu
} // namespace paradox

#endif // PARADOX_CPU_CHECKER_TIMING_HH
