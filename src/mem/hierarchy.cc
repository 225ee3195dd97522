#include "mem/hierarchy.hh"

namespace paradox
{
namespace mem
{

CacheHierarchy::CacheHierarchy(const HierarchyParams &params,
                               const ClockDomain &clock)
    : clock_(clock), l1i_(params.l1i), l1d_(params.l1d),
      ownedL2_(std::make_unique<Cache>(params.l2)),
      ownedDram_(std::make_unique<Dram>(params.dram)),
      l2_(ownedL2_.get()), dram_(ownedDram_.get()),
      prefetcher_(params.prefetch),
      prefetchEnabled_(params.prefetchEnabled)
{
}

CacheHierarchy::CacheHierarchy(const HierarchyParams &params,
                               const ClockDomain &clock,
                               Cache *shared_l2, Dram *shared_dram)
    : clock_(clock), l1i_(params.l1i), l1d_(params.l1d),
      l2_(shared_l2), dram_(shared_dram),
      prefetcher_(params.prefetch),
      prefetchEnabled_(params.prefetchEnabled)
{
}

void
CacheHierarchy::registerStats(stats::Registry &reg) const
{
    l1i_.registerStats(reg.group("mem.l1i"));
    l1d_.registerStats(reg.group("mem.l1d"));
    l2_->registerStats(reg.group("mem.l2"));
    dram_->registerStats(reg.group("mem.dram"));
    prefetcher_.registerStats(reg.group("mem.pf"));
}

Tick
CacheHierarchy::l2Access(Addr addr, Addr pc, bool is_write, Tick start,
                         bool *l2_hit, bool demand)
{
    CacheAccessResult l2r = l2_->access(addr, is_write, start);
    Tick complete = start + cycles(l2_->hitCycles());
    if (l2_hit)
        *l2_hit = l2r.outcome == CacheOutcome::Hit;

    if (l2r.writebackDirty)
        dram_->access(l2r.writebackAddr, true, start);

    if (l2r.outcome != CacheOutcome::Hit) {
        Tick begin = l2_->reserveMshr(complete,
                                      complete + dram_->rowHitLatency());
        complete = dram_->access(addr, is_write, begin);
    }

    // The prefetcher trains on demand L2 lookups and fills the L2 in
    // the background (no latency charged to the demand access).
    if (demand && prefetchEnabled_) {
        if (auto pref = prefetcher_.observe(pc, addr)) {
            if (!l2_->contains(*pref)) {
                dram_->access(*pref, false, complete);
                l2_->fill(*pref, complete);
            }
        }
    }
    return complete;
}

Tick
CacheHierarchy::instFetchSlow(Addr pc, Tick now)
{
    CacheAccessResult r = l1i_.access(pc, false, now);
    Tick complete = now + cycles(l1i_.hitCycles());
    if (r.outcome == CacheOutcome::Hit)
        return complete;

    bool l2_hit = false;
    Tick fill = l2Access(pc, pc, false, complete, &l2_hit, true);
    Tick begin = l1i_.reserveMshr(now, fill);
    return fill + (begin - now);
}

DataAccessResult
CacheHierarchy::dataAccessSlow(Addr addr, Addr pc, bool is_write, Tick now,
                           std::uint64_t pin_seg, std::uint64_t stamp)
{
    DataAccessResult result;

    CacheAccessResult l1r = l1d_.access(addr, is_write, now, pin_seg,
                                        stamp);
    if (l1r.outcome == CacheOutcome::BlockedPinned) {
        result.blockedPinned = true;
        result.completeAt = now;
        return result;
    }

    result.needsLineCopy = is_write && !l1r.lineStampMatched;
    result.completeAt = now + cycles(l1d_.hitCycles());
    result.l1Hit = l1r.outcome == CacheOutcome::Hit;

    if (l1r.writebackDirty)
        l2_->access(l1r.writebackAddr, true, now);

    if (!result.l1Hit) {
        // A local, not &result.l2Hit: an escaping member address
        // makes the compiler build the result with byte stores and
        // reload it as a word.
        bool l2_hit = false;
        Tick fill = l2Access(addr, pc, false, result.completeAt,
                             &l2_hit, true);
        result.l2Hit = l2_hit;
        Tick begin = l1d_.reserveMshr(now, fill);
        result.completeAt = fill + (begin - now);
    }
    return result;
}

void
CacheHierarchy::reset()
{
    l1i_.invalidateAll();
    l1d_.invalidateAll();
    l2_->invalidateAll();
}

} // namespace mem
} // namespace paradox
