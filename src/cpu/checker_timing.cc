#include "cpu/checker_timing.hh"

#include "sim/logging.hh"

namespace paradox
{
namespace cpu
{

CheckerTiming::CheckerTiming(const CheckerParams &params)
    : params_(params), clock_(params.freqHz)
{
    for (unsigned i = 0; i < params_.count; ++i) {
        mem::CacheParams l0;
        l0.name = "checker.l0i";
        l0.sizeBytes = params_.l0Bytes;
        l0.assoc = params_.l0Assoc;
        l0.hitCycles = params_.l0HitCycles;
        l0.mshrs = 1;
        l0_.push_back(std::make_unique<mem::Cache>(l0));
    }
    mem::CacheParams l1;
    l1.name = "checker.sharedl1i";
    l1.sizeBytes = params_.sharedL1Bytes;
    l1.assoc = params_.sharedL1Assoc;
    l1.hitCycles = params_.sharedL1Cycles;
    l1.mshrs = 4;
    sharedL1_ = std::make_unique<mem::Cache>(l1);
}

mem::Cache &
CheckerTiming::l0(unsigned id)
{
    if (id >= l0_.size())
        panic("CheckerTiming: checker id out of range");
    return *l0_[id];
}

Cycles
CheckerTiming::instCyclesSlow(unsigned id, Addr pc, isa::InstClass cls)
{
    mem::Cache &l0_cache = l0(id);
    ++lruClock_;
    Cycles cycles = 0;

    // Fetch: private L0, then the shared L1, then the main L2 path.
    auto l0r = l0_cache.access(pc, false, lruClock_);
    if (l0r.outcome != mem::CacheOutcome::Hit) {
        auto l1r = sharedL1_->access(pc, false, lruClock_);
        cycles += params_.sharedL1Cycles;
        if (l1r.outcome != mem::CacheOutcome::Hit)
            cycles += params_.missCycles;
    }

    // Execute: long latencies stall the in-order pipe.
    return cycles + isa::checkerExecCycles(cls);
}

void
CheckerTiming::powerGated(unsigned id)
{
    if (id < l0_.size())
        l0_[id]->invalidateAll();
}

std::uint64_t
CheckerTiming::l0Misses() const
{
    std::uint64_t total = 0;
    for (const auto &cache : l0_)
        total += cache->misses();
    return total;
}

void
CheckerTiming::reset()
{
    for (auto &cache : l0_)
        cache->invalidateAll();
    sharedL1_->invalidateAll();
}

} // namespace cpu
} // namespace paradox
