#include "mem/tlb.hh"

#include "sim/logging.hh"

namespace paradox
{
namespace mem
{

Tlb::Tlb(const TlbParams &params, Addr physical_base)
    : params_(params), base_(physical_base)
{
    if (params_.assoc == 0 || params_.entries % params_.assoc != 0)
        fatal("Tlb: entries must be a multiple of associativity");
    sets_ = params_.entries / params_.assoc;
    if (sets_ == 0 || (sets_ & (sets_ - 1)) != 0)
        fatal("Tlb: set count must be a power of two");
    if (params_.pageBytes == 0 ||
        (params_.pageBytes & (params_.pageBytes - 1)) != 0)
        fatal("Tlb: page size must be a power of two");
    while ((1u << pageShift_) < params_.pageBytes)
        ++pageShift_;
    entries_.resize(params_.entries);
}

Translation
Tlb::translateSlow(Addr vaddr)
{
    ++clock_;
    Translation result;
    result.paddr = vaddr + base_;

    const std::uint64_t vpn = vaddr >> pageShift_;
    Entry *set = &entries_[(vpn & (sets_ - 1)) * params_.assoc];

    for (unsigned w = 0; w < params_.assoc; ++w) {
        if (set[w].valid && set[w].vpn == vpn) {
            set[w].lastUsed = clock_;
            ++hits_;
            memo_[memoSlot(vpn)] = MemoSlot{vpn, &set[w]};
            return result;
        }
    }

    // Miss: walk, then install over the LRU way.
    ++misses_;
    result.tlbHit = false;
    result.extraCycles = params_.walkCycles;
    Entry *victim = &set[0];
    for (unsigned w = 1; w < params_.assoc; ++w) {
        if (!set[w].valid) {
            victim = &set[w];
            break;
        }
        if (set[w].lastUsed < victim->lastUsed)
            victim = &set[w];
    }
    if (victim->valid) {
        MemoSlot &old = memo_[memoSlot(victim->vpn)];
        if (old.vpn == victim->vpn)
            old.vpn = noVpn;
    }
    victim->valid = true;
    victim->vpn = vpn;
    victim->lastUsed = clock_;
    memo_[memoSlot(vpn)] = MemoSlot{vpn, victim};
    return result;
}

void
Tlb::flush()
{
    for (auto &entry : entries_)
        entry.valid = false;
    memo_ = {};
}

void
Tlb::repeatHits(Addr vaddr, std::uint64_t n)
{
    const std::uint64_t vpn = vaddr >> pageShift_;
    const MemoSlot &slot = memo_[memoSlot(vpn)];
    if (slot.vpn != vpn)
        panic("Tlb: repeated hits on a page that is not memoized");
    clock_ += n;
    hits_ += n;
    slot.entry->lastUsed = clock_;
}

} // namespace mem
} // namespace paradox
