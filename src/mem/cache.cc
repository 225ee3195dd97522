#include "mem/cache.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace paradox
{
namespace mem
{

Cache::Cache(const CacheParams &params) : params_(params)
{
    if (params_.lineBytes == 0 ||
        (params_.lineBytes & (params_.lineBytes - 1)) != 0)
        fatal("Cache: line size must be a power of two");
    if (params_.assoc == 0)
        fatal("Cache: associativity must be positive");
    numSets_ = params_.sizeBytes / (params_.lineBytes * params_.assoc);
    if (numSets_ == 0 || (numSets_ & (numSets_ - 1)) != 0)
        fatal("Cache: set count must be a positive power of two");
    lines_.resize(numSets_ * params_.assoc);
    if (params_.allowPinning)
        pinned_.reserve(lines_.size());
    mshrBusy_.assign(std::max(1u, params_.mshrs), 0);
    while ((1u << lineShift_) < params_.lineBytes)
        ++lineShift_;
    while ((std::size_t(1) << setShift_) < numSets_)
        ++setShift_;
    setMask_ = numSets_ - 1;
}

std::uint64_t
Cache::tagOf(Addr addr) const
{
    return (addr >> lineShift_) >> setShift_;
}

std::size_t
Cache::setOf(Addr addr) const
{
    return (addr >> lineShift_) & setMask_;
}

Addr
Cache::lineAddr(std::uint64_t tag, std::size_t set) const
{
    return ((tag << setShift_) + set) << lineShift_;
}

CacheAccessResult
Cache::access(Addr addr, bool is_write, Tick now, std::uint64_t pin_seg,
              std::uint64_t stamp)
{
    CacheAccessResult result;
    const std::uint64_t lineId = addr >> lineShift_;
    const std::uint64_t tag = lineId >> setShift_;
    const std::size_t set = lineId & setMask_;

    Line *line = memoHit(lineId);
    if (!line) {
        Line *base = &lines_[set * params_.assoc];
        for (unsigned w = 0; w < params_.assoc; ++w) {
            if (base[w].valid && base[w].tag == tag) {
                line = &base[w];
                break;
            }
        }
    }

    if (line) {
        ++hits_;
        result.outcome = CacheOutcome::Hit;
    } else {
        Line *base = &lines_[set * params_.assoc];
        // Victim selection: invalid way first, then LRU among the
        // unpinned ways. A fully pinned set cannot evict.
        Line *victim = nullptr;
        for (unsigned w = 0; w < params_.assoc; ++w) {
            if (!base[w].valid) {
                victim = &base[w];
                break;
            }
        }
        if (!victim) {
            for (unsigned w = 0; w < params_.assoc; ++w) {
                Line &cand = base[w];
                if (params_.allowPinning && cand.pinSeg != noPin)
                    continue;
                if (!victim || cand.lastUsed < victim->lastUsed)
                    victim = &cand;
            }
        }
        if (!victim) {
            ++pinnedBlocks_;
            result.outcome = CacheOutcome::BlockedPinned;
            return result;
        }
        if (victim->valid) {
            ++evictions_;
            if (victim->dirty) {
                result.writebackDirty = true;
                result.writebackAddr = lineAddr(victim->tag, set);
            }
        }
        ++misses_;
        result.outcome = CacheOutcome::Miss;
        forget(*victim, set);
        *victim = Line{};
        victim->valid = true;
        victim->tag = tag;
        line = victim;
    }

    memo_[memoSlot(lineId)] = MemoSlot{lineId, line};
    line->lastUsed = now;
    result.lineStampMatched = line->stamp == stamp;
    if (is_write)
        write(*line, pin_seg, stamp);
    return result;
}

void
Cache::fill(Addr addr, Tick now)
{
    const std::uint64_t tag = tagOf(addr);
    const std::size_t set = setOf(addr);
    Line *base = &lines_[set * params_.assoc];

    for (unsigned w = 0; w < params_.assoc; ++w) {
        if (base[w].valid && base[w].tag == tag)
            return;  // already present
    }
    Line *victim = nullptr;
    for (unsigned w = 0; w < params_.assoc; ++w) {
        if (!base[w].valid) {
            victim = &base[w];
            break;
        }
    }
    if (!victim) {
        for (unsigned w = 0; w < params_.assoc; ++w) {
            Line &cand = base[w];
            if (params_.allowPinning && cand.pinSeg != noPin)
                continue;
            if (!victim || cand.lastUsed < victim->lastUsed)
                victim = &cand;
        }
    }
    if (!victim)
        return;  // never displace pinned lines for a prefetch
    if (victim->valid)
        ++evictions_;
    forget(*victim, set);
    *victim = Line{};
    victim->valid = true;
    victim->tag = tag;
    // Prefetched lines are inserted cold-ish (slightly aged) so a
    // wrong prefetch is the next victim.
    victim->lastUsed = now == 0 ? 0 : now - 1;
}

void
Cache::repeatReadHits(Addr addr, std::uint64_t n, Tick last)
{
    Line *line = memoHit(addr >> lineShift_);
    if (!line)
        panic("Cache: repeated hits on a line that is not memoized");
    hits_ += n;
    line->lastUsed = last;
}

bool
Cache::contains(Addr addr) const
{
    const std::uint64_t tag = tagOf(addr);
    const std::size_t set = setOf(addr);
    const Line *base = &lines_[set * params_.assoc];
    for (unsigned w = 0; w < params_.assoc; ++w) {
        if (base[w].valid && base[w].tag == tag)
            return true;
    }
    return false;
}

void
Cache::unpinBetween(std::uint64_t lo, std::uint64_t hi)
{
    std::size_t kept = 0;
    for (const std::uint32_t idx : pinned_) {
        Line &line = lines_[idx];
        if (line.pinSeg >= lo && line.pinSeg <= hi)
            line.pinSeg = noPin;
        else
            pinned_[kept++] = idx;
    }
    pinned_.resize(kept);
}

void
Cache::unpinUpTo(std::uint64_t seg)
{
    unpinBetween(0, seg);
}

void
Cache::unpinFrom(std::uint64_t seg)
{
    unpinBetween(seg, noPin - 1);
}

void
Cache::invalidateAll()
{
    for (auto &line : lines_)
        line = Line{};
    pinned_.clear();
    memo_ = {};
    std::fill(mshrBusy_.begin(), mshrBusy_.end(), 0);
}

Tick
Cache::reserveMshr(Tick start, Tick completion)
{
    auto slot = std::min_element(mshrBusy_.begin(), mshrBusy_.end());
    Tick begin = std::max(start, *slot);
    *slot = begin + (completion - start);
    return begin;
}

} // namespace mem
} // namespace paradox
