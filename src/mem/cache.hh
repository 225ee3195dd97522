/**
 * @file
 * Set-associative write-back timing cache.
 *
 * Data correctness lives in SimpleMemory; caches model tags and
 * latency only.  Two ParaMedic/ParaDox-specific features live here:
 *
 *  - line *pinning*: L1 data-cache lines dirtied by a not-yet-checked
 *    segment may not be evicted until that segment verifies (paper
 *    section II-B / IV-A).  A miss whose set is entirely pinned
 *    reports BlockedPinned instead of evicting.
 *
 *  - per-line *timestamps*: each line records the id of the last
 *    checkpoint that copied its old contents into the load-store log,
 *    which is how ParaDox takes at most one rollback copy per line
 *    per checkpoint (section IV-D).
 */

#ifndef PARADOX_MEM_CACHE_HH
#define PARADOX_MEM_CACHE_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace paradox
{
namespace mem
{

/** Static geometry and timing of one cache. */
struct CacheParams
{
    std::string name = "cache";
    std::size_t sizeBytes = 32 * 1024;
    unsigned assoc = 4;
    unsigned lineBytes = 64;
    unsigned hitCycles = 2;      //!< hit latency, in owning-clock cycles
    unsigned mshrs = 6;          //!< outstanding-miss limit
    bool allowPinning = false;   //!< L1D unchecked-line buffering
};

/** Sentinel for "not pinned". */
constexpr std::uint64_t noPin = ~std::uint64_t(0);

/** How an access resolved. */
enum class CacheOutcome : std::uint8_t
{
    Hit,
    Miss,
    BlockedPinned,  //!< miss, but every way in the set is pinned
};

/** Everything the hierarchy needs to know about one access. */
struct CacheAccessResult
{
    CacheOutcome outcome = CacheOutcome::Miss;
    bool writebackDirty = false;  //!< a dirty victim was evicted
    Addr writebackAddr = 0;       //!< line address of that victim
    bool lineStampMatched = false; //!< line timestamp == access stamp
};

/** A set-associative, LRU, write-back, write-allocate timing cache. */
class Cache
{
  public:
    explicit Cache(const CacheParams &params);

    /**
     * Access @p addr at time @p now.
     *
     * On a miss, a victim way is allocated (possibly reporting a
     * dirty writeback); on BlockedPinned nothing changes.  When
     * @p pin_seg != noPin and this is a write, the line is pinned by
     * that segment (pins take the max: a line stays pinned until its
     * youngest writer verifies).  @p stamp sets/compares the per-line
     * checkpoint timestamp used by line-granularity rollback.
     */
    CacheAccessResult access(Addr addr, bool is_write, Tick now,
                             std::uint64_t pin_seg = noPin,
                             std::uint64_t stamp = 0);

    /**
     * The inline read hit: exactly access(@p addr, false, @p now) when
     * @p addr falls in a memoized line (see memo_) -- the same hit
     * test, ++hits, and the same LRU stamp.  Anything else returns
     * false and changes nothing; the caller then takes access()'s
     * scan.
     */
    bool
    tryReadHit(Addr addr, Tick now)
    {
        Line *line = memoHit(addr >> lineShift_);
        if (!line)
            return false;
        ++hits_;
        line->lastUsed = now;
        return true;
    }

    /**
     * The inline write hit: exactly access(@p addr, true, @p now,
     * @p pin_seg, @p stamp) when @p addr falls in a memoized line --
     * ++hits, the same LRU stamp, @p stamp_matched set to the result's
     * lineStampMatched, then the dirty bit, checkpoint stamp and pin
     * (pinned_ included).  Anything else returns false and changes
     * nothing, @p stamp_matched included.
     */
    bool
    tryWriteHit(Addr addr, Tick now, std::uint64_t pin_seg,
                std::uint64_t stamp, bool &stamp_matched)
    {
        Line *line = memoHit(addr >> lineShift_);
        if (!line)
            return false;
        ++hits_;
        line->lastUsed = now;
        stamp_matched = line->stamp == stamp;
        write(*line, pin_seg, stamp);
        return true;
    }

    /**
     * Account @p n read hits on the line holding @p addr that the
     * caller served without calling in, the last at @p last: exactly
     * @p n tryReadHit(@p addr, ...) calls.  The line must be memoized,
     * i.e. the caller's last access to this cache resolved it.
     */
    void repeatReadHits(Addr addr, std::uint64_t n, Tick last);

    /** Install a line without demand semantics (prefetch fill). */
    void fill(Addr addr, Tick now);

    /** True if the line containing @p addr is present. */
    bool contains(Addr addr) const;

    /** Unpin every line pinned by a segment <= @p seg. */
    void unpinUpTo(std::uint64_t seg);

    /** Unpin every line pinned by a segment >= @p seg (rollback). */
    void unpinFrom(std::uint64_t seg);

    /** Drop all content (used between independent runs). */
    void invalidateAll();

    /**
     * Delay @p start until an MSHR is free, then occupy one until
     * @p completion.  Models the outstanding-miss limit.
     */
    Tick reserveMshr(Tick start, Tick completion);

    /** Hit latency in owning-clock cycles. */
    unsigned hitCycles() const { return params_.hitCycles; }

    const CacheParams &params() const { return params_; }

    /** @{ Statistics. */
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t evictions() const { return evictions_; }
    std::uint64_t pinnedBlocks() const { return pinnedBlocks_; }
    std::uint64_t pinnedLineCount() const { return pinned_.size(); }
    /** @} */

    /** Publish the raw counters as Gauges in @p g. */
    void
    registerStats(stats::StatGroup &g) const
    {
        g.add<stats::Gauge>("hits", "cache hits",
                            [this] { return double(hits_); });
        g.add<stats::Gauge>("misses", "cache misses",
                            [this] { return double(misses_); });
        g.add<stats::Gauge>("evictions", "lines evicted",
                            [this] { return double(evictions_); });
        g.add<stats::Gauge>("pinned_lines", "currently pinned lines",
                            [this] { return double(pinnedLineCount()); });
        g.add<stats::Gauge>("pinned_blocks", "misses blocked on pins",
                            [this] { return double(pinnedBlocks_); });
    }

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        std::uint64_t tag = 0;
        Tick lastUsed = 0;
        std::uint64_t pinSeg = noPin;
        std::uint64_t stamp = ~std::uint64_t(0);
    };

    /** The memoized line holding line @p line_id, else null: one
     *  compare in the line id's slot (see memo_). */
    Line *
    memoHit(std::uint64_t line_id) const
    {
        const MemoSlot &slot = memo_[memoSlot(line_id)];
        return slot.lineId == line_id ? slot.line : nullptr;
    }

    /** @p line, of set @p set, is about to hold another line or
     *  none: clear the slot that names what it holds now. */
    void
    forget(const Line &line, std::size_t set)
    {
        if (!line.valid)
            return;
        const std::uint64_t id = (line.tag << setShift_) | set;
        MemoSlot &slot = memo_[memoSlot(id)];
        if (slot.lineId == id)
            slot.lineId = noLine;
    }

    /** A write to resident @p line: dirty it, stamp it with @p stamp
     *  and, when pinning, pin it under @p pin_seg (pins take the max;
     *  a newly pinned line joins pinned_). */
    void
    write(Line &line, std::uint64_t pin_seg, std::uint64_t stamp)
    {
        line.dirty = true;
        line.stamp = stamp;
        if (params_.allowPinning && pin_seg != noPin) {
            if (line.pinSeg == noPin) {
                line.pinSeg = pin_seg;
                pinned_.push_back(std::uint32_t(&line - lines_.data()));
            } else if (pin_seg > line.pinSeg) {
                line.pinSeg = pin_seg;
            }
        }
    }

    /** Unpin every line pinned by a segment in [@p lo, @p hi], and
     *  compact pinned_ to the lines that stay pinned. */
    void unpinBetween(std::uint64_t lo, std::uint64_t hi);

    std::uint64_t tagOf(Addr addr) const;
    std::size_t setOf(Addr addr) const;
    Addr lineAddr(std::uint64_t tag, std::size_t set) const;

    CacheParams params_;
    std::size_t numSets_;
    /** Geometry is power-of-two (checked in the ctor): index math is
     *  shift/mask, not the runtime divides the compiler would have to
     *  emit for the configurable params_ values. */
    unsigned lineShift_ = 0;
    unsigned setShift_ = 0;
    std::uint64_t setMask_ = 0;
    std::vector<Line> lines_;   //!< numSets_ * assoc, set-major
    /**
     * Line memo, direct-mapped on a hash of the line id (memoSlot()):
     * each slot names one line id and the way holding it, so repeated
     * accesses to a few lines (instruction fetch across a loop body,
     * stack traffic) skip the way scan, and tryReadHit() and
     * tryWriteHit() skip the call.  Invariant: a slot whose lineId is
     * not noLine points at the valid way holding that line.  access()
     * writes the slot of the line it resolves; a way stops holding its
     * line only when access() or fill() takes it as a victim (both
     * forget() it first) or in invalidateAll() (clears every slot).
     * So hit/miss counts, LRU order and pin state are bit-identical
     * with or without the memo.  lines_ never reallocates after
     * construction.
     */
    static constexpr std::uint64_t noLine = ~std::uint64_t(0);
    static constexpr unsigned memoBits = 4;
    static constexpr std::size_t memoSlots = std::size_t(1) << memoBits;
    /** The slot of line @p line_id: the top bits of a Fibonacci hash,
     *  so arrays a power of two apart (stream's) do not share one. */
    static std::size_t
    memoSlot(std::uint64_t line_id)
    {
        return (line_id * 0x9e3779b97f4a7c15ULL) >> (64 - memoBits);
    }
    struct MemoSlot
    {
        std::uint64_t lineId = noLine;
        Line *line = nullptr;
    };
    std::array<MemoSlot, memoSlots> memo_{};
    /**
     * Indices into lines_ of exactly the lines with pinSeg != noPin,
     * so unpinning walks the pins, not the cache.  A pinned line is
     * never a victim and pins only go by unpinUpTo/unpinFrom/
     * invalidateAll, which keep the list exact; pinned lines are
     * therefore always valid.
     */
    std::vector<std::uint32_t> pinned_;
    std::vector<Tick> mshrBusy_;

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t pinnedBlocks_ = 0;
};

} // namespace mem
} // namespace paradox

#endif // PARADOX_MEM_CACHE_HH
