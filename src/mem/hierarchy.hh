/**
 * @file
 * The main core's cache hierarchy: L1I + L1D, a shared L2 with a
 * stride prefetcher, and DDR3 DRAM (Table I).
 *
 * The hierarchy also owns the ParaMedic-specific interactions between
 * caching and checking: unchecked dirty lines are pinned in the L1D
 * and released as segments verify, and a data access that cannot
 * allocate (all ways pinned) reports BlockedPinned so the core can
 * stall until a check completes (paper sections II-B, IV-A).
 */

#ifndef PARADOX_MEM_HIERARCHY_HH
#define PARADOX_MEM_HIERARCHY_HH

#include <cstdint>
#include <memory>

#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/prefetcher.hh"
#include "sim/clock.hh"
#include "sim/types.hh"

namespace paradox
{
namespace mem
{

/** Full-hierarchy configuration. */
struct HierarchyParams
{
    CacheParams l1i{"l1i", 32 * 1024, 2, 64, 1, 6, false};
    CacheParams l1d{"l1d", 32 * 1024, 4, 64, 2, 6, true};
    CacheParams l2{"l2", 1024 * 1024, 16, 64, 12, 16, false};
    DramParams dram{};
    StridePrefetcher::Params prefetch{};
    bool prefetchEnabled = true;
};

/** Result of one data-side access. */
struct DataAccessResult
{
    Tick completeAt = 0;       //!< when the value is available
    bool blockedPinned = false; //!< set entirely pinned; retry later
    bool l1Hit = false;
    bool l2Hit = false;
    /**
     * True when this is the first write to the line under the current
     * checkpoint timestamp, i.e. ParaDox must copy the old line into
     * the rollback side of the log (section IV-D).
     */
    bool needsLineCopy = false;
};

/** L1I/L1D/L2/DRAM composition for the main core. */
class CacheHierarchy
{
  public:
    CacheHierarchy(const HierarchyParams &params,
                   const ClockDomain &clock);

    /**
     * Multicore form: private L1s over an externally owned L2 and
     * DRAM, shared with other cores' hierarchies (contention flows
     * through the shared tags and bank timings).  The shared parts
     * must outlive this hierarchy.
     */
    CacheHierarchy(const HierarchyParams &params,
                   const ClockDomain &clock, Cache *shared_l2,
                   Dram *shared_dram);

    /**
     * Fetch-side access; returns the completion tick.  A hit on a
     * memoized L1I line is inline (Cache::tryReadHit); the rest is
     * instFetchSlow().
     */
    Tick
    instFetch(Addr pc, Tick now)
    {
        if (l1i_.tryReadHit(pc, now))
            return instFetchHit(now);
        return instFetchSlow(pc, now);
    }

    /** Completion tick of an L1I hit that starts at @p now. */
    Tick
    instFetchHit(Tick now) const
    {
        return now + cycles(l1i_.hitCycles());
    }

    /**
     * Data-side access at @p now.  A hit on a memoized L1D line is
     * inline (Cache::tryReadHit, Cache::tryWriteHit); the rest is
     * dataAccessSlow(), which gives the same result for that hit.
     * @param pc the accessing instruction (feeds the L2 prefetcher)
     * @param pin_seg segment to pin a written line under (noPin for
     *        fault-intolerant/detection-only runs)
     * @param stamp current checkpoint id for line-copy decisions
     */
    [[gnu::always_inline]] DataAccessResult
    dataAccess(Addr addr, Addr pc, bool is_write, Tick now,
               std::uint64_t pin_seg = noPin, std::uint64_t stamp = 0)
    {
        bool stamp_matched = true;  // reads never need a line copy
        if (is_write ? l1d_.tryWriteHit(addr, now, pin_seg, stamp,
                                        stamp_matched)
                     : l1d_.tryReadHit(addr, now)) {
            DataAccessResult result;
            result.completeAt = now + cycles(l1d_.hitCycles());
            result.l1Hit = true;
            result.needsLineCopy = !stamp_matched;
            return result;
        }
        return dataAccessSlow(addr, pc, is_write, now, pin_seg, stamp);
    }

    /** dataAccess() without the inline memoized hit: the full L1D
     *  lookup, and on a miss the L2, DRAM and prefetcher. */
    DataAccessResult dataAccessSlow(Addr addr, Addr pc, bool is_write,
                                    Tick now,
                                    std::uint64_t pin_seg = noPin,
                                    std::uint64_t stamp = 0);

    /** A segment verified: release its pinned lines. */
    void segmentVerified(std::uint64_t seg) { l1d_.unpinUpTo(seg); }

    /** Segments >= @p seg rolled back: release their pins. */
    void rollbackFrom(std::uint64_t seg) { l1d_.unpinFrom(seg); }

    /** Clear all cache state (between independent runs). */
    void reset();

    /** @{ Component access for statistics and tests. */
    Cache &l1i() { return l1i_; }
    Cache &l1d() { return l1d_; }
    Cache &l2() { return *l2_; }
    Dram &dram() { return *dram_; }
    const StridePrefetcher &prefetcher() const { return prefetcher_; }
    /** @} */

    unsigned lineBytes() const { return l1d_.params().lineBytes; }

    /**
     * Register every level's counters under @p reg as the groups
     * mem.l1i, mem.l1d, mem.l2, mem.dram, mem.pf.  For hierarchies
     * sharing an L2/DRAM the shared components report whole-chip
     * totals, so only one hierarchy per chip should register them.
     */
    void registerStats(stats::Registry &reg) const;

  private:
    Tick cycles(unsigned n) const { return clock_.cyclesToTicks(n); }

    /** instFetch() past the memoized hit: the full L1I lookup. */
    Tick instFetchSlow(Addr pc, Tick now);

    /** L2 lookup shared by both sides; returns completion tick. */
    Tick l2Access(Addr addr, Addr pc, bool is_write, Tick start,
                  bool *l2_hit, bool demand);

    const ClockDomain &clock_;
    Cache l1i_;
    Cache l1d_;
    std::unique_ptr<Cache> ownedL2_;
    std::unique_ptr<Dram> ownedDram_;
    Cache *l2_;
    Dram *dram_;
    StridePrefetcher prefetcher_;
    bool prefetchEnabled_;
};

} // namespace mem
} // namespace paradox

#endif // PARADOX_MEM_HIERARCHY_HH
