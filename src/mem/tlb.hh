/**
 * @file
 * Address translation: a flat page mapping with a TLB timing model.
 *
 * The load-store log's two sides are addressed differently in the
 * paper (section IV-D): detection entries carry *virtual* addresses,
 * "to avoid translation on checker-core execution, with the original
 * translation on the main core implemented redundantly", while
 * rollback cache-line copies carry *physical* addresses "to allow
 * rollback without translation".  Modelling translation makes that
 * distinction real: the main core pays TLB-miss walks, checkers
 * replay purely in virtual space, and rollback writes physical lines
 * straight back.
 *
 * The mapping itself is a single linear offset per address space
 * (virtual -> physical = va + base), which is all a single-program
 * core needs while still exercising the full translate/miss/walk
 * path; the multicore uses it to give each program distinct physical
 * pages.
 */

#ifndef PARADOX_MEM_TLB_HH
#define PARADOX_MEM_TLB_HH

#include <array>
#include <cstdint>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace paradox
{
namespace mem
{

/** TLB geometry and timing. */
struct TlbParams
{
    unsigned entries = 64;        //!< fully pinned-latency, set-assoc
    unsigned assoc = 4;
    unsigned pageBytes = 4096;
    unsigned walkCycles = 30;     //!< page-table walk on a miss
};

/** Result of one translation. */
struct Translation
{
    Addr paddr = 0;
    bool tlbHit = true;
    unsigned extraCycles = 0;     //!< walk cost when tlbHit is false
};

/**
 * A set-associative TLB over a linear virtual->physical mapping.
 */
class Tlb
{
  public:
    Tlb(const TlbParams &params, Addr physical_base);

    /**
     * Translate @p vaddr, updating TLB state and statistics.  A hit
     * on a memoized page (see memo_) is inline; every other case
     * (another way of the set, a miss and its walk) is
     * translateSlow().
     */
    Translation
    translate(Addr vaddr)
    {
        const std::uint64_t vpn = vaddr >> pageShift_;
        const MemoSlot &slot = memo_[memoSlot(vpn)];
        if (slot.vpn == vpn) {
            slot.entry->lastUsed = ++clock_;
            ++hits_;
            return Translation{vaddr + base_, true, 0};
        }
        return translateSlow(vaddr);
    }

    /**
     * Account @p n hits on the page of @p vaddr that the caller served
     * without calling in: exactly @p n translate(@p vaddr) calls.  The
     * page must be memoized, i.e. the caller's last translate() was on
     * that page.
     */
    void repeatHits(Addr vaddr, std::uint64_t n);

    /** Translation without timing side effects (rollback path). */
    Addr physical(Addr vaddr) const { return vaddr + base_; }

    /** Flush all entries (context switch / power gating). */
    void flush();

    /** @{ Statistics. */
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    /** @} */

    /** Publish the raw counters as Gauges in @p g. */
    void
    registerStats(stats::StatGroup &g) const
    {
        g.add<stats::Gauge>("hits", "TLB hits",
                            [this] { return double(hits_); });
        g.add<stats::Gauge>("misses", "TLB misses (page walks)",
                            [this] { return double(misses_); });
    }

    const TlbParams &params() const { return params_; }

  private:
    struct Entry
    {
        bool valid = false;
        std::uint64_t vpn = 0;
        std::uint64_t lastUsed = 0;
    };

    /** translate() past the same-page hit: set scan, walk, fill. */
    Translation translateSlow(Addr vaddr);

    TlbParams params_;
    Addr base_;
    std::size_t sets_;
    std::vector<Entry> entries_;
    /**
     * Page memo, direct-mapped on a hash of the vpn (memoSlot()):
     * each slot names one page and the entry holding it, so
     * translate() serves repeated hits on a few pages with one
     * compare.  Invariant: a
     * slot whose vpn is not noVpn points at the valid entry holding
     * that page.  translateSlow() writes the slot of the page it
     * resolves and clears the victim's slot before a refill; flush()
     * clears every slot.  So the compare is exactly the set scan's
     * hit condition (same hit/miss counts, same LRU stamps).
     * entries_ never reallocates after construction.
     */
    static constexpr std::uint64_t noVpn = ~std::uint64_t(0);
    static constexpr unsigned memoBits = 4;
    static constexpr std::size_t memoSlots = std::size_t(1) << memoBits;
    /** The slot of page @p vpn: the top bits of a Fibonacci hash, as
     *  Cache::memoSlot(), so pages 16 apart do not share one. */
    static std::size_t
    memoSlot(std::uint64_t vpn)
    {
        return (vpn * 0x9e3779b97f4a7c15ULL) >> (64 - memoBits);
    }
    struct MemoSlot
    {
        std::uint64_t vpn = noVpn;
        Entry *entry = nullptr;
    };
    std::array<MemoSlot, memoSlots> memo_{};
    unsigned pageShift_ = 0;    //!< log2(pageBytes), checked in ctor
    std::uint64_t clock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace mem
} // namespace paradox

#endif // PARADOX_MEM_TLB_HH
