/**
 * @file
 * Memory-system unit tests: backing memory, caches (LRU, write-back,
 * pinning, timestamps, MSHRs), DRAM timing and the stride prefetcher.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <map>
#include <vector>

#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/hierarchy.hh"
#include "mem/memory.hh"
#include "mem/prefetcher.hh"
#include "mem/tlb.hh"
#include "sim/clock.hh"
#include "sim/rng.hh"

namespace
{

using namespace paradox;
using namespace paradox::mem;

TEST(SimpleMemory, ReadWriteAllSizes)
{
    SimpleMemory memory;
    memory.write(0x100, 8, 0x1122334455667788ULL);
    EXPECT_EQ(memory.read(0x100, 8), 0x1122334455667788ULL);
    EXPECT_EQ(memory.read(0x100, 4), 0x55667788u);
    EXPECT_EQ(memory.read(0x104, 4), 0x11223344u);
    EXPECT_EQ(memory.read(0x100, 2), 0x7788u);
    EXPECT_EQ(memory.read(0x100, 1), 0x88u);
}

TEST(SimpleMemory, CrossPageAccess)
{
    SimpleMemory memory;
    Addr addr = SimpleMemory::pageBytes - 4;
    memory.write(addr, 8, 0xaabbccddeeff0011ULL);
    EXPECT_EQ(memory.read(addr, 8), 0xaabbccddeeff0011ULL);
    EXPECT_EQ(memory.pageCount(), 2u);
}

TEST(SimpleMemory, UntouchedReadsZero)
{
    SimpleMemory memory;
    EXPECT_EQ(memory.read(0xdead000, 8), 0u);
}

TEST(SimpleMemory, WriteReturnsPreviousValue)
{
    SimpleMemory memory;
    EXPECT_EQ(memory.write(0x10, 8, 5), 0u);
    EXPECT_EQ(memory.write(0x10, 8, 9), 5u);
}

TEST(SimpleMemory, FingerprintIgnoresZeroPages)
{
    SimpleMemory a, b;
    a.write(0x100, 8, 42);
    b.write(0x100, 8, 42);
    b.read(0x999000, 8);           // no page materialized by read
    b.write(0x555000, 8, 1);
    b.write(0x555000, 8, 0);       // page exists but is all-zero
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
    b.write(0x100, 1, 43);
    EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(SimpleMemory, BlockCopyRoundTrip)
{
    SimpleMemory memory;
    std::uint8_t in[64], out[64];
    for (unsigned i = 0; i < 64; ++i)
        in[i] = std::uint8_t(i * 3);
    memory.writeBlock(0x1000, in, 64);
    memory.readBlock(0x1000, out, 64);
    EXPECT_EQ(std::memcmp(in, out, 64), 0);
}

/**
 * 20k random reads and writes of 1-8 bytes (any size, not only powers
 * of two), byte and block accesses against a byte-map model: in the
 * page table's range, across page boundaries (the table's last page
 * into the hash-mapped pages above it included) and far beyond the
 * table.  Reads of absent pages materialize nothing; the page count,
 * readBlock() and fingerprint() (also of a memory rebuilt from the
 * model in another order) agree with the model.
 */
TEST(SimpleMemory, MatchesByteMapReference)
{
    // Byte-map model: page number -> page bytes, one entry per page a
    // write has touched.
    constexpr Addr page = SimpleMemory::pageBytes;
    std::map<Addr, std::array<std::uint8_t, page>> model;
    SimpleMemory memory;
    auto modelWrite = [&](Addr addr, std::uint8_t byte) {
        model[addr / page][addr % page] = byte;
    };
    auto modelByte = [&](Addr addr) -> std::uint8_t {
        auto it = model.find(addr / page);
        return it == model.end() ? 0 : it->second[addr % page];
    };
    auto modelRead = [&](Addr addr, unsigned size) {
        std::uint64_t v = 0;
        for (unsigned i = 0; i < size; ++i)
            v |= std::uint64_t(modelByte(addr + i)) << (8 * i);
        return v;
    };

    // An absent page reads zero and stays absent; the write that
    // follows materializes it.
    const Addr a = 0x107 * page;
    EXPECT_EQ(memory.read(a + 8, 8), 0u);
    EXPECT_EQ(memory.pageCount(), 0u);
    EXPECT_EQ(memory.write(a + 8, 8, 0x0102030405060708ULL), 0u);
    for (unsigned i = 0; i < 8; ++i)
        modelWrite(a + 8 + i, std::uint8_t(0x08 - i));
    EXPECT_EQ(memory.read(a + 8, 8), 0x0102030405060708ULL);

    // Regions: the workloads' pages, the table's top page and the
    // first hash-mapped page after it, and pages far above the table.
    const Addr top = SimpleMemory::tablePages * page;
    const std::array<Addr, 4> bases = {0x100 * page, top - 2 * page,
                                       top + 64 * page,
                                       Addr(1) << 40};
    Rng rng(5);
    std::vector<std::uint8_t> block, want;
    unsigned crossings = 0;
    for (int i = 0; i < 20000; ++i) {
        SCOPED_TRACE(i);
        const Addr base = bases[rng.nextBounded(bases.size())];
        const unsigned size = 1 + unsigned(rng.nextBounded(8));
        // Half the accesses end at most 8 bytes past a page boundary.
        const Addr addr =
            rng.nextBounded(2)
                ? base + rng.nextBounded(3 * page)
                : base + page * (1 + rng.nextBounded(2)) -
                      rng.nextBounded(8);
        crossings += addr / page != (addr + size - 1) / page;
        const unsigned op = unsigned(rng.nextBounded(100));
        if (op < 40) {
            ASSERT_EQ(memory.read(addr, size), modelRead(addr, size));
        } else if (op < 85) {
            const std::uint64_t value = rng.next();
            ASSERT_EQ(memory.write(addr, size, value),
                      modelRead(addr, size));
            for (unsigned k = 0; k < size; ++k)
                modelWrite(addr + k, std::uint8_t(value >> (8 * k)));
        } else if (op < 90) {
            ASSERT_EQ(memory.readByte(addr), modelByte(addr));
        } else if (op < 93) {
            const std::uint8_t byte = std::uint8_t(rng.next());
            memory.writeByte(addr, byte);
            modelWrite(addr, byte);
        } else if (op < 97) {
            const std::size_t n = 1 + rng.nextBounded(2 * page);
            block.assign(n, 0xee);
            want.resize(n);
            memory.readBlock(addr, block.data(), n);
            for (std::size_t k = 0; k < n; ++k)
                want[k] = modelByte(addr + k);
            ASSERT_EQ(block, want);
        } else {
            const std::size_t n = 1 + rng.nextBounded(page + 64);
            block.resize(n);
            for (std::uint8_t &byte : block)
                byte = std::uint8_t(rng.next());
            memory.writeBlock(addr, block.data(), n);
            for (std::size_t k = 0; k < n; ++k)
                modelWrite(addr + k, block[k]);
        }
    }
    EXPECT_GT(crossings, 2000u);
    EXPECT_EQ(memory.pageCount(), model.size());
    for (const auto &[num, bytes] : model)
        for (Addr off = 0; off < page; ++off)
            ASSERT_EQ(memory.readByte(num * page + off), bytes[off])
                << "byte 0x" << std::hex << num * page + off;

    // fingerprint(): FNV over each non-zero page's 64-bit words,
    // seeded with the page number, summed.
    std::uint64_t expected = 0;
    for (const auto &[num, bytes] : model) {
        std::uint64_t h = 0xcbf29ce484222325ULL ^ num, nonZero = 0;
        for (std::size_t k = 0; k < page; k += 8) {
            std::uint64_t word;
            std::memcpy(&word, bytes.data() + k, 8);
            nonZero |= word;
            h = (h ^ word) * 0x100000001b3ULL;
        }
        if (nonZero)
            expected += h;
    }
    EXPECT_EQ(memory.fingerprint(), expected);
    // The same content written page by page, highest first, plus a
    // materialized all-zero page, fingerprints the same.
    SimpleMemory rebuilt;
    for (auto it = model.rbegin(); it != model.rend(); ++it)
        rebuilt.writeBlock(it->first * page, it->second.data(), page);
    rebuilt.write(0x90 * page, 8, 0);
    EXPECT_EQ(rebuilt.fingerprint(), expected);
}

CacheParams
tinyCache(bool pinning = false)
{
    CacheParams p;
    p.name = "tiny";
    p.sizeBytes = 1024;  // 4 sets x 4 ways x 64 B
    p.assoc = 4;
    p.lineBytes = 64;
    p.hitCycles = 2;
    p.mshrs = 2;
    p.allowPinning = pinning;
    return p;
}

TEST(Cache, HitAfterMiss)
{
    Cache cache(tinyCache());
    auto r1 = cache.access(0x1000, false, 1);
    EXPECT_EQ(r1.outcome, CacheOutcome::Miss);
    auto r2 = cache.access(0x1000, false, 2);
    EXPECT_EQ(r2.outcome, CacheOutcome::Hit);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(Cache, SameLineDifferentWordsHit)
{
    Cache cache(tinyCache());
    cache.access(0x1000, false, 1);
    EXPECT_EQ(cache.access(0x1038, false, 2).outcome,
              CacheOutcome::Hit);
}

TEST(Cache, LruEvictsOldest)
{
    Cache cache(tinyCache());
    // 4 sets: lines mapping to set 0 are multiples of 256.
    cache.access(0x0000, false, 1);
    cache.access(0x0100, false, 2);
    cache.access(0x0200, false, 3);
    cache.access(0x0300, false, 4);
    cache.access(0x0000, false, 5);  // refresh first line
    cache.access(0x0400, false, 6);  // evicts 0x0100 (oldest)
    EXPECT_TRUE(cache.contains(0x0000));
    EXPECT_FALSE(cache.contains(0x0100));
}

TEST(Cache, DirtyVictimReportsWriteback)
{
    Cache cache(tinyCache());
    cache.access(0x0000, true, 1);
    cache.access(0x0100, false, 2);
    cache.access(0x0200, false, 3);
    cache.access(0x0300, false, 4);
    auto r = cache.access(0x0400, false, 5);
    EXPECT_EQ(r.outcome, CacheOutcome::Miss);
    EXPECT_TRUE(r.writebackDirty);
    EXPECT_EQ(r.writebackAddr, 0x0000u);
}

TEST(Cache, FullyPinnedSetBlocks)
{
    Cache cache(tinyCache(true));
    for (Addr a : {0x0000, 0x0100, 0x0200, 0x0300})
        cache.access(a, true, 1, /*pin_seg=*/7);
    auto r = cache.access(0x0400, false, 2);
    EXPECT_EQ(r.outcome, CacheOutcome::BlockedPinned);
    EXPECT_EQ(cache.pinnedBlocks(), 1u);
    EXPECT_EQ(cache.pinnedLineCount(), 4u);

    cache.unpinUpTo(7);
    auto r2 = cache.access(0x0400, false, 3);
    EXPECT_EQ(r2.outcome, CacheOutcome::Miss);
}

TEST(Cache, PinnedLinesSurviveEvictionPressure)
{
    Cache cache(tinyCache(true));
    cache.access(0x0000, true, 1, 3);   // pinned by segment 3
    cache.access(0x0100, false, 2);
    cache.access(0x0200, false, 3);
    cache.access(0x0300, false, 4);
    cache.access(0x0400, false, 5);     // must evict an unpinned way
    EXPECT_TRUE(cache.contains(0x0000));
}

TEST(Cache, PinTakesYoungestWriter)
{
    Cache cache(tinyCache(true));
    cache.access(0x0000, true, 1, 3);
    cache.access(0x0000, true, 2, 5);   // re-pinned by younger seg
    cache.unpinUpTo(3);                 // seg 3 verified
    // Still pinned by 5: filling the set then missing must block.
    cache.access(0x0100, true, 3, 5);
    cache.access(0x0200, true, 4, 5);
    cache.access(0x0300, true, 5, 5);
    EXPECT_EQ(cache.access(0x0400, false, 6).outcome,
              CacheOutcome::BlockedPinned);
    cache.unpinFrom(5);                 // rollback of segment 5
    EXPECT_EQ(cache.access(0x0400, false, 7).outcome,
              CacheOutcome::Miss);
}

TEST(Cache, LineStampTracksCheckpoint)
{
    Cache cache(tinyCache(true));
    auto r1 = cache.access(0x0000, true, 1, noPin, /*stamp=*/10);
    EXPECT_FALSE(r1.lineStampMatched);
    auto r2 = cache.access(0x0000, true, 2, noPin, 10);
    EXPECT_TRUE(r2.lineStampMatched);   // same checkpoint: no copy
    auto r3 = cache.access(0x0000, true, 3, noPin, 11);
    EXPECT_FALSE(r3.lineStampMatched);  // new checkpoint: copy again
}

TEST(Cache, MshrLimitsDelayBursts)
{
    Cache cache(tinyCache());
    // Two MSHRs: the third overlapping miss must start later.
    Tick t1 = cache.reserveMshr(100, 200);
    Tick t2 = cache.reserveMshr(100, 200);
    Tick t3 = cache.reserveMshr(100, 200);
    EXPECT_EQ(t1, 100u);
    EXPECT_EQ(t2, 100u);
    EXPECT_EQ(t3, 200u);
}

TEST(Cache, FillInstallsWithoutDemandStats)
{
    Cache cache(tinyCache());
    cache.fill(0x1000, 5);
    EXPECT_TRUE(cache.contains(0x1000));
    EXPECT_EQ(cache.misses(), 0u);
    EXPECT_EQ(cache.access(0x1000, false, 6).outcome,
              CacheOutcome::Hit);
}

TEST(Dram, RowHitIsCheaperThanConflict)
{
    Dram dram;
    Tick first = dram.access(0x0, false, 0);        // row miss
    Tick hit = dram.access(0x40, false, first) - first;  // same row
    // Different row, same bank under the XOR-folded mapping:
    // row_index 72 folds to (72 ^ 9 ^ 1) % 8 == 0, like row_index 0.
    Tick start = dram.access(0x40, false, 0);
    Tick conflict =
        dram.access(Addr(72) * 8192, false, start) - start;
    EXPECT_LT(hit, conflict);
    EXPECT_GE(dram.rowHits(), 1u);
    EXPECT_GE(dram.rowConflicts(), 1u);
}

TEST(Dram, LatencyValuesMatchTimingParameters)
{
    Dram dram;
    // Row hit: tCL + burst at 800 MHz -> (11 + 4) * 1.25 ns.
    EXPECT_EQ(dram.rowHitLatency(), Tick(15 * 1250000));
    EXPECT_EQ(dram.rowConflictLatency(), Tick(37 * 1250000));
}

TEST(Dram, BankOccupancySerializes)
{
    Dram dram;
    Tick a = dram.access(0x0, false, 0);
    // Immediate second access to the same bank cannot start before
    // the first completes.
    Tick b = dram.access(0x40, false, 0);
    EXPECT_GE(b, a);
}

TEST(Prefetcher, ConfirmedStrideIssues)
{
    StridePrefetcher pf;
    Addr pc = 0x44;
    EXPECT_FALSE(pf.observe(pc, 0x1000).has_value());
    EXPECT_FALSE(pf.observe(pc, 0x1040).has_value());  // stride seen
    auto p1 = pf.observe(pc, 0x1080);
    auto p2 = pf.observe(pc, 0x10c0);
    ASSERT_TRUE(p2.has_value());
    EXPECT_EQ(*p2, 0x10c0u + 2 * 0x40u);
    (void)p1;
    EXPECT_GT(pf.issued(), 0u);
}

TEST(Prefetcher, IrregularPatternStaysQuiet)
{
    StridePrefetcher pf;
    Rng rng(5);
    for (int i = 0; i < 200; ++i)
        EXPECT_FALSE(pf.observe(0x44, rng.next() & 0xfffff)
                         .has_value());
}

TEST(Hierarchy, L1HitFastL2SlowerDramSlowest)
{
    ClockDomain clock(3.2e9);
    HierarchyParams params;
    params.prefetchEnabled = false;
    CacheHierarchy h(params, clock);

    auto miss = h.dataAccess(0x10000, 0, false, 0);
    EXPECT_FALSE(miss.l1Hit);
    auto hit = h.dataAccess(0x10000, 0, false, miss.completeAt);
    EXPECT_TRUE(hit.l1Hit);
    Tick hit_lat = hit.completeAt - miss.completeAt;
    Tick miss_lat = miss.completeAt;
    EXPECT_LT(hit_lat, miss_lat);
    EXPECT_EQ(hit_lat, clock.cyclesToTicks(2));
}

TEST(Hierarchy, SegmentVerifiedReleasesPins)
{
    ClockDomain clock(3.2e9);
    HierarchyParams params;
    // Shrink the L1D so one segment can pin a whole set.
    params.l1d.sizeBytes = 1024;
    params.l1d.assoc = 4;
    CacheHierarchy h(params, clock);

    // Pin all four ways of set 0 under segment 9.
    for (Addr a : {0x0000, 0x0100, 0x0200, 0x0300})
        h.dataAccess(a, 0, true, 0, /*pin_seg=*/9, /*stamp=*/9);
    auto blocked = h.dataAccess(0x0400, 0, true, 10, 9, 9);
    EXPECT_TRUE(blocked.blockedPinned);

    h.segmentVerified(9);
    auto ok = h.dataAccess(0x0400, 0, true, 20, 10, 10);
    EXPECT_FALSE(ok.blockedPinned);
}

TEST(Hierarchy, NeedsLineCopyOncePerCheckpoint)
{
    ClockDomain clock(3.2e9);
    CacheHierarchy h(HierarchyParams{}, clock);
    auto w1 = h.dataAccess(0x5000, 0, true, 0, 1, /*stamp=*/1);
    EXPECT_TRUE(w1.needsLineCopy);
    auto w2 = h.dataAccess(0x5008, 0, true, 1, 1, 1);
    EXPECT_FALSE(w2.needsLineCopy);   // same line, same checkpoint
    auto w3 = h.dataAccess(0x5008, 0, true, 2, 2, 2);
    EXPECT_TRUE(w3.needsLineCopy);    // next checkpoint
}

TEST(Hierarchy, InstFetchUsesL1I)
{
    ClockDomain clock(3.2e9);
    CacheHierarchy h(HierarchyParams{}, clock);
    Tick first = h.instFetch(0x0, 0);
    Tick second = h.instFetch(0x4, first) - first;
    EXPECT_LT(second, first);
    EXPECT_EQ(second, clock.cyclesToTicks(1));
}

} // namespace

namespace
{

using paradox::mem::Tlb;
using paradox::mem::TlbParams;
using paradox::mem::Translation;

TEST(TlbTest, LinearMappingAndHitAfterMiss)
{
    Tlb tlb(TlbParams{}, 0x100000000ULL);
    Translation first = tlb.translate(0x4000);
    EXPECT_EQ(first.paddr, 0x100004000ULL);
    EXPECT_FALSE(first.tlbHit);
    EXPECT_EQ(first.extraCycles, tlb.params().walkCycles);

    Translation second = tlb.translate(0x4008);  // same page
    EXPECT_TRUE(second.tlbHit);
    EXPECT_EQ(second.extraCycles, 0u);
    EXPECT_EQ(tlb.hits(), 1u);
    EXPECT_EQ(tlb.misses(), 1u);
}

TEST(TlbTest, CapacityEvictsLru)
{
    TlbParams params;
    params.entries = 8;
    params.assoc = 2;  // 4 sets
    Tlb tlb(params, 0);
    // Three pages mapping to set 0 (vpn % 4 == 0): two fit, third
    // evicts the least recently used.
    tlb.translate(0 * 4096);
    tlb.translate(4 * 4096);
    tlb.translate(0 * 4096);            // refresh page 0
    tlb.translate(8 * 4096);            // evicts page 4
    EXPECT_TRUE(tlb.translate(0 * 4096).tlbHit);
    EXPECT_FALSE(tlb.translate(4 * 4096).tlbHit);
}

TEST(TlbTest, FlushDropsEverything)
{
    Tlb tlb(TlbParams{}, 0);
    tlb.translate(0x1000);
    tlb.flush();
    EXPECT_FALSE(tlb.translate(0x1000).tlbHit);
}

TEST(TlbTest, PhysicalIsSideEffectFree)
{
    Tlb tlb(TlbParams{}, 0x5000);
    EXPECT_EQ(tlb.physical(0x1234), 0x6234u);
    EXPECT_EQ(tlb.misses(), 0u);
    EXPECT_EQ(tlb.hits(), 0u);
}

} // namespace

namespace
{

using namespace paradox;
using namespace paradox::mem;

/**
 * Two caches fed the same stream, one through tryReadHit() wherever
 * a read could take it and one through access() only, stay
 * indistinguishable: the same outcomes, counters, writebacks, and
 * resident lines (so the same victim choices).  Times jitter
 * backwards as well as forwards, as the main core's issue times do,
 * so the LRU stamps the inline hit writes decide victims.
 */
TEST(CacheFastPath, InlineReadHitMatchesAccessOnlyTwin)
{
    Cache fast(tinyCache(true));
    Cache twin(tinyCache(true));
    Rng rng(7);
    // Lines 256 B apart share set 0; 0x40 apart spread over all four.
    std::vector<Addr> lines;
    for (Addr a = 0; a < 0x800; a += 0x40)
        lines.push_back(a);
    Addr addr = 0;
    Tick now = 100;
    std::uint64_t seg = 1;
    unsigned inline_hits = 0;

    for (int i = 0; i < 20000; ++i) {
        now += rng.nextBounded(4);
        const Tick t = now - rng.nextBounded(3);
        // Mostly the same line again (a fetch or stack walk), else a
        // jump anywhere in the small footprint.
        if (rng.nextBounded(4) == 0)
            addr = lines[rng.nextBounded(lines.size())];
        const Addr a = addr + 8 * rng.nextBounded(8);
        const unsigned op = unsigned(rng.nextBounded(100));
        SCOPED_TRACE(i);
        if (op < 70) {
            if (fast.tryReadHit(a, t)) {
                ++inline_hits;
                EXPECT_EQ(twin.access(a, false, t).outcome,
                          CacheOutcome::Hit);
            } else {
                const auto f = fast.access(a, false, t);
                const auto w = twin.access(a, false, t);
                EXPECT_EQ(f.outcome, w.outcome);
                EXPECT_EQ(f.writebackDirty, w.writebackDirty);
                EXPECT_EQ(f.writebackAddr, w.writebackAddr);
            }
        } else if (op < 93) {
            const std::uint64_t pin = rng.nextBounded(2) ? seg : noPin;
            const auto f = fast.access(a, true, t, pin, seg);
            const auto w = twin.access(a, true, t, pin, seg);
            EXPECT_EQ(f.outcome, w.outcome);
            EXPECT_EQ(f.writebackDirty, w.writebackDirty);
            EXPECT_EQ(f.writebackAddr, w.writebackAddr);
            EXPECT_EQ(f.lineStampMatched, w.lineStampMatched);
        } else if (op < 98) {
            fast.unpinUpTo(seg);
            twin.unpinUpTo(seg);
            ++seg;
        } else if (op < 99) {
            fast.fill(a ^ 0x400, t);
            twin.fill(a ^ 0x400, t);
        } else {
            fast.invalidateAll();
            twin.invalidateAll();
        }
        ASSERT_EQ(fast.hits(), twin.hits());
        ASSERT_EQ(fast.misses(), twin.misses());
        ASSERT_EQ(fast.evictions(), twin.evictions());
        ASSERT_EQ(fast.pinnedBlocks(), twin.pinnedBlocks());
        ASSERT_EQ(fast.pinnedLineCount(), twin.pinnedLineCount());
        for (Addr l : lines)
            ASSERT_EQ(fast.contains(l), twin.contains(l)) << l;
    }
    // The stream exercised both paths and every way of the sets.
    EXPECT_GT(inline_hits, 5000u);
    EXPECT_GT(twin.evictions(), 500u);
    EXPECT_GT(twin.pinnedBlocks(), 0u);
}

/**
 * Brute-force reference for the pin bookkeeping: each line carries
 * its pin, and every unpin and every count scans all lines.  Victim
 * choice (an invalid way first, else the least recently used unpinned
 * way), pins taking the youngest writer and cold prefetch fills follow
 * Cache's documented rules.
 */
class PinScanCache
{
  public:
    PinScanCache(unsigned sets, unsigned ways)
        : sets_(sets), ways_(ways), lines_(sets * ways)
    {
    }

    CacheOutcome
    access(Addr addr, bool is_write, Tick now, std::uint64_t pin_seg)
    {
        CacheOutcome outcome = CacheOutcome::Hit;
        Line *line = find(addr);
        if (line) {
            ++hits;
        } else {
            line = victim(addr);
            if (!line) {
                ++blocked;
                return CacheOutcome::BlockedPinned;
            }
            evictions += line->valid;
            ++misses;
            *line = Line{true, tagOf(addr), 0, noPin};
            outcome = CacheOutcome::Miss;
        }
        line->lastUsed = now;
        if (is_write && pin_seg != noPin &&
            (line->pinSeg == noPin || pin_seg > line->pinSeg))
            line->pinSeg = pin_seg;
        return outcome;
    }

    void
    fill(Addr addr, Tick now)
    {
        if (find(addr))
            return;
        Line *line = victim(addr);
        if (!line)
            return;
        evictions += line->valid;
        *line = Line{true, tagOf(addr), now == 0 ? 0 : now - 1, noPin};
    }

    void
    unpinUpTo(std::uint64_t seg)
    {
        for (Line &line : lines_)
            if (line.pinSeg != noPin && line.pinSeg <= seg)
                line.pinSeg = noPin;
    }

    void
    unpinFrom(std::uint64_t seg)
    {
        for (Line &line : lines_)
            if (line.pinSeg != noPin && line.pinSeg >= seg)
                line.pinSeg = noPin;
    }

    void
    invalidateAll()
    {
        for (Line &line : lines_)
            line = Line{};
    }

    std::uint64_t
    pinnedLines() const
    {
        std::uint64_t n = 0;
        for (const Line &line : lines_)
            n += line.valid && line.pinSeg != noPin;
        return n;
    }

    bool contains(Addr addr) { return find(addr) != nullptr; }

    std::uint64_t hits = 0, misses = 0, evictions = 0, blocked = 0;

  private:
    struct Line
    {
        bool valid = false;
        std::uint64_t tag = 0;
        Tick lastUsed = 0;
        std::uint64_t pinSeg = noPin;
    };

    std::uint64_t tagOf(Addr addr) const { return (addr >> 6) / sets_; }
    Line *set(Addr addr) { return &lines_[((addr >> 6) % sets_) * ways_]; }

    Line *
    find(Addr addr)
    {
        Line *base = set(addr);
        for (unsigned w = 0; w < ways_; ++w)
            if (base[w].valid && base[w].tag == tagOf(addr))
                return &base[w];
        return nullptr;
    }

    Line *
    victim(Addr addr)
    {
        Line *base = set(addr);
        for (unsigned w = 0; w < ways_; ++w)
            if (!base[w].valid)
                return &base[w];
        Line *best = nullptr;
        for (unsigned w = 0; w < ways_; ++w)
            if (base[w].pinSeg == noPin &&
                (!best || base[w].lastUsed < best->lastUsed))
                best = &base[w];
        return best;
    }

    unsigned sets_;
    unsigned ways_;
    std::vector<Line> lines_;
};

/**
 * The cache's pinned-line list stays exact under every operation
 * that pins or unpins: 20k random steps against PinScanCache, with
 * pinned writes under rising segment ids, verify and rollback
 * unpins, prefetch fills, wholesale invalidation and misses into
 * fully pinned sets.
 */
TEST(Cache, PinnedListMatchesScanReference)
{
    Cache cache(tinyCache(true));
    PinScanCache ref(4, 4);
    Rng rng(11);
    // 64 lines over 4 sets: 16 candidates per 4-way set, so pinned
    // writes fill whole sets and later misses there block.
    std::vector<Addr> lines;
    for (Addr a = 0; a < 0x1000; a += 0x40)
        lines.push_back(a);
    std::uint64_t seg = 1;
    Tick now = 10;
    std::uint64_t max_pinned = 0;

    for (int i = 0; i < 20000; ++i) {
        now += 1 + rng.nextBounded(3);
        const Addr a = lines[rng.nextBounded(lines.size())] +
                       8 * rng.nextBounded(8);
        const unsigned op = unsigned(rng.nextBounded(100));
        SCOPED_TRACE(i);
        if (op < 40) {
            ASSERT_EQ(cache.access(a, true, now, seg, seg).outcome,
                      ref.access(a, true, now, seg));
        } else if (op < 70) {
            ASSERT_EQ(cache.access(a, rng.nextBounded(2) != 0, now).outcome,
                      ref.access(a, false, now, noPin));
        } else if (op < 82) {
            ++seg;  // the next segment starts filling
        } else if (op < 91) {
            const std::uint64_t upto = seg - rng.nextBounded(4);
            cache.unpinUpTo(upto);
            ref.unpinUpTo(upto);
        } else if (op < 95) {
            const std::uint64_t from = seg - rng.nextBounded(4);
            cache.unpinFrom(from);
            ref.unpinFrom(from);
            ++seg;  // ids keep rising after a rollback
        } else if (op < 99) {
            cache.fill(a, now);
            ref.fill(a, now);
        } else {
            cache.invalidateAll();
            ref.invalidateAll();
        }
        ASSERT_EQ(cache.pinnedLineCount(), ref.pinnedLines());
        ASSERT_EQ(cache.pinnedBlocks(), ref.blocked);
        ASSERT_EQ(cache.hits(), ref.hits);
        ASSERT_EQ(cache.misses(), ref.misses);
        ASSERT_EQ(cache.evictions(), ref.evictions);
        for (Addr l : lines)
            ASSERT_EQ(cache.contains(l), ref.contains(l)) << l;
        max_pinned = std::max(max_pinned, ref.pinnedLines());
    }
    // Every line pinned at once, and many misses into pinned sets.
    EXPECT_EQ(max_pinned, 16u);
    EXPECT_GT(ref.blocked, 500u);
}

TEST(CacheFastPath, InlineHitStampDecidesVictim)
{
    Cache cache(tinyCache());
    // Set 0 full; line 0x000 is the least recently used (main-core
    // issue times need not be monotonic).
    cache.access(0x000, false, 1);
    cache.access(0x100, false, 5);
    cache.access(0x200, false, 6);
    cache.access(0x300, false, 7);
    cache.access(0x000, false, 4);
    // The inline hit re-stamps 0x000 as the youngest line...
    EXPECT_TRUE(cache.tryReadHit(0x008, 20));
    // ... so the next miss in the set evicts 0x100 instead.
    EXPECT_EQ(cache.access(0x400, false, 21).outcome, CacheOutcome::Miss);
    EXPECT_TRUE(cache.contains(0x000));
    EXPECT_FALSE(cache.contains(0x100));
    EXPECT_EQ(cache.hits(), 2u);
}

/**
 * The memo contract: every resident line access() resolved last in its
 * memo slot hits inline, not only the last line, with access()'s
 * effects (++hits, the LRU stamp); a line evicted, displaced from its
 * slot or invalidated does not, and then changes nothing.
 */
TEST(CacheFastPath, InlineHitOnMemoizedResidentLinesOnly)
{
    Cache cache(tinyCache());  // 4 sets x 4 ways: set 0 is 0x000, 0x100..
    EXPECT_FALSE(cache.tryReadHit(0x000, 1));  // cold: no side effects
    EXPECT_EQ(cache.hits() + cache.misses(), 0u);
    EXPECT_FALSE(cache.contains(0x000));
    // Lines 0, 4, 8 and 12 fill set 0, in memo slots 0, 7, 15 and 6.
    for (Addr a : {0x000, 0x100, 0x200, 0x300})
        cache.access(a, false, 1 + a / 0x100);
    EXPECT_TRUE(cache.tryReadHit(0x008, 5));  // resident, not the last
    EXPECT_TRUE(cache.tryReadHit(0x13f, 6));
    EXPECT_TRUE(cache.tryReadHit(0x200, 7));
    EXPECT_TRUE(cache.tryReadHit(0x300, 8));
    // 0x000 is now the least recently used: line 72 (slot 7) evicts
    // it, and takes 0x100's slot.
    EXPECT_EQ(cache.access(0x1200, false, 9).outcome, CacheOutcome::Miss);
    EXPECT_FALSE(cache.contains(0x000));
    EXPECT_FALSE(cache.tryReadHit(0x000, 10));  // evicted: slot cleared
    EXPECT_TRUE(cache.contains(0x100));
    EXPECT_FALSE(cache.tryReadHit(0x100, 10));  // resident, slot taken
    EXPECT_EQ(cache.access(0x100, false, 10).outcome, CacheOutcome::Hit);
    EXPECT_TRUE(cache.tryReadHit(0x100, 11));
    cache.invalidateAll();
    for (Addr a : {0x100, 0x200, 0x300, 0x1200})
        EXPECT_FALSE(cache.tryReadHit(a, 12));
    EXPECT_EQ(cache.hits(), 6u);
    EXPECT_EQ(cache.misses(), 5u);
}

/**
 * Fill set 0 so that the last line accessed (0x000) is also the least
 * recently used one, then prefetch 0x400 over it.
 */
void
evictLastLineByPrefetch(Cache &cache)
{
    cache.access(0x100, false, 5);
    cache.access(0x200, false, 6);
    cache.access(0x300, false, 7);
    cache.access(0x000, false, 1);
    cache.fill(0x400, 10);
    ASSERT_FALSE(cache.contains(0x000));
    ASSERT_TRUE(cache.contains(0x400));
}

TEST(CacheFastPath, PrefetchFillEvictingTheLastLineEndsItsInlineHit)
{
    Cache cache(tinyCache());
    evictLastLineByPrefetch(cache);
    EXPECT_FALSE(cache.tryReadHit(0x008, 11));
    EXPECT_EQ(cache.access(0x008, false, 11).outcome, CacheOutcome::Miss);

    Cache twin(tinyCache());  // the same, seen first by access()
    evictLastLineByPrefetch(twin);
    EXPECT_EQ(twin.access(0x008, false, 11).outcome, CacheOutcome::Miss);
    EXPECT_EQ(cache.hits() + twin.hits(), 0u);
}

/**
 * The line memo against the scan-only PinScanCache over a stream that
 * cycles through more lines than the memo has slots (a drifting hot
 * set of 40 lines, 32 resident at most, 16 memo slots): reads and
 * writes try the inline hit first, repeated hits go through
 * repeatReadHits(), and pinned writes, verify and rollback unpins,
 * prefetch fill()s and invalidateAll() interleave.  Hits, misses,
 * evictions, pins and the resident lines agree after every step; as
 * each step evicts at most one line, equal resident sets mean the
 * same victim every time.
 */
TEST(CacheFastPath, MemoMatchesScanReferenceOverManyLines)
{
    CacheParams params = tinyCache(true);
    params.sizeBytes = 2048;  // 8 sets x 4 ways
    Cache cache(params);
    PinScanCache ref(8, 4);
    Rng rng(29);
    std::vector<Addr> pool;  // 256 lines, 32 per set
    for (Addr a = 0; a < 0x4000; a += 0x40)
        pool.push_back(a);
    std::vector<Addr> hot(40);
    for (Addr &line : hot)
        line = pool[rng.nextBounded(pool.size())];
    std::uint64_t seg = 1;
    Tick now = 100;
    Addr last = 0;
    bool last_resolved = false;  // the last op resolved line `last`
    unsigned inline_hits = 0, repeats = 0;

    for (int i = 0; i < 40000; ++i) {
        SCOPED_TRACE(i);
        now += 1 + rng.nextBounded(3);
        const Tick t = now - rng.nextBounded(2);
        if (rng.nextBounded(40) == 0)
            hot[rng.nextBounded(hot.size())] =
                pool[rng.nextBounded(pool.size())];
        const Addr a = hot[rng.nextBounded(hot.size())] +
                       8 * rng.nextBounded(8);
        const unsigned op = unsigned(rng.nextBounded(1000));
        bool resolved = false;
        if (op < 550) {
            CacheOutcome outcome = CacheOutcome::Hit;
            if (cache.tryReadHit(a, t))
                ++inline_hits;
            else
                outcome = cache.access(a, false, t).outcome;
            ASSERT_EQ(outcome, ref.access(a, false, t, noPin));
            resolved = outcome != CacheOutcome::BlockedPinned;
        } else if (op < 800) {
            const std::uint64_t pin = rng.nextBounded(2) ? seg : noPin;
            bool matched = false;
            CacheOutcome outcome;
            if (cache.tryWriteHit(a, t, pin, seg, matched)) {
                ++inline_hits;
                outcome = CacheOutcome::Hit;
            } else {
                outcome = cache.access(a, true, t, pin, seg).outcome;
            }
            ASSERT_EQ(outcome, ref.access(a, true, t, pin));
            resolved = outcome != CacheOutcome::BlockedPinned;
        } else if (op < 850) {
            if (last_resolved) {
                const unsigned n = 1 + unsigned(rng.nextBounded(5));
                cache.repeatReadHits(last, n, t);
                for (unsigned k = 0; k < n; ++k)
                    ASSERT_EQ(ref.access(last, false, t, noPin),
                              CacheOutcome::Hit);
                ++repeats;
            }
            resolved = last_resolved;
        } else if (op < 920) {
            cache.unpinUpTo(seg);
            ref.unpinUpTo(seg);
            ++seg;
        } else if (op < 930) {
            cache.unpinFrom(seg);
            ref.unpinFrom(seg);
            ++seg;
        } else if (op < 995) {
            cache.fill(a, t);
            ref.fill(a, t);
        } else {
            cache.invalidateAll();
            ref.invalidateAll();
        }
        if (op < 800)
            last = a;
        last_resolved = resolved;
        ASSERT_EQ(cache.hits(), ref.hits);
        ASSERT_EQ(cache.misses(), ref.misses);
        ASSERT_EQ(cache.evictions(), ref.evictions);
        ASSERT_EQ(cache.pinnedBlocks(), ref.blocked);
        ASSERT_EQ(cache.pinnedLineCount(), ref.pinnedLines());
        for (Addr l : pool)
            ASSERT_EQ(cache.contains(l), ref.contains(l)) << l;
    }
    EXPECT_GT(inline_hits, 10000u);
    EXPECT_GT(repeats, 1000u);
    EXPECT_GT(ref.evictions, 3000u);
    EXPECT_GT(ref.blocked, 0u);
}

/**
 * A scan-only model of the TLB's replacement policy: per set, vpns in
 * recency order, free ways filled before the least recently used is
 * evicted.
 */
class ReferenceTlb
{
  public:
    ReferenceTlb(unsigned entries, unsigned assoc, unsigned page_shift)
        : sets_(entries / assoc), assoc_(assoc), pageShift_(page_shift)
    {
    }

    bool
    translate(Addr vaddr)
    {
        const std::uint64_t vpn = vaddr >> pageShift_;
        std::vector<std::uint64_t> &set = sets_[vpn % sets_.size()];
        for (std::size_t i = 0; i < set.size(); ++i) {
            if (set[i] == vpn) {
                set.erase(set.begin() + std::ptrdiff_t(i));
                set.push_back(vpn);
                return true;
            }
        }
        if (set.size() == assoc_)
            set.erase(set.begin());
        set.push_back(vpn);
        return false;
    }

    void
    flush()
    {
        for (auto &set : sets_)
            set.clear();
    }

  private:
    std::vector<std::vector<std::uint64_t>> sets_;
    unsigned assoc_;
    unsigned pageShift_;
};

TEST(TlbFastPath, MatchesScanOnlyReferenceOverMultiPageStream)
{
    TlbParams params;
    params.entries = 8;
    params.assoc = 2;  // 4 sets
    Tlb tlb(params, 0x40000000);
    ReferenceTlb ref(params.entries, params.assoc, 12);
    Rng rng(11);
    Addr page = 0;
    std::uint64_t hits = 0, misses = 0;
    for (int i = 0; i < 20000; ++i) {
        SCOPED_TRACE(i);
        // Runs of same-page accesses, then a hop to one of 24 pages
        // (three times the capacity, six pages per set).
        if (rng.nextBounded(8) == 0)
            page = rng.nextBounded(24);
        if (rng.nextBounded(500) == 0) {
            tlb.flush();
            ref.flush();
        }
        const Addr va = (page << 12) + rng.nextBounded(4096);
        const Translation t = tlb.translate(va);
        const bool hit = ref.translate(va);
        ASSERT_EQ(t.tlbHit, hit);
        EXPECT_EQ(t.paddr, va + 0x40000000);
        EXPECT_EQ(t.extraCycles, hit ? 0u : params.walkCycles);
        (hit ? hits : misses) += 1;
    }
    EXPECT_EQ(tlb.hits(), hits);
    EXPECT_EQ(tlb.misses(), misses);
    EXPECT_GT(misses, 1000u);
}

/**
 * The page memo against the scan-only ReferenceTlb over a drifting hot
 * set of 96 pages, more than the TLB holds.  Four sets under 16 memo
 * slots, so a refill's victim and the new page can use different
 * slots and the victim's must be cleared.  Every translate() agrees
 * on hit or miss (so on every victim), repeatHits() counts as that
 * many hits on the page last translated, and flush() empties both.
 */
TEST(TlbFastPath, MemoMatchesScanReferenceWithRepeatsAndFlush)
{
    TlbParams params;
    params.entries = 16;  // 4 sets x 4 ways
    Tlb tlb(params, 0x40000000);
    ReferenceTlb ref(params.entries, params.assoc, 12);
    Rng rng(17);
    std::vector<Addr> hot(96);
    for (Addr &vpn : hot)
        vpn = rng.nextBounded(512);
    Addr last = 0;
    bool last_valid = false;  // no flush since `last` was translated
    std::uint64_t hits = 0, misses = 0;
    for (int i = 0; i < 40000; ++i) {
        SCOPED_TRACE(i);
        if (rng.nextBounded(30) == 0)
            hot[rng.nextBounded(hot.size())] = rng.nextBounded(512);
        const unsigned op = unsigned(rng.nextBounded(100));
        if (op < 85) {
            // Mostly a page of the first 12 hot ones, else any.
            const std::size_t k = rng.nextBounded(4)
                                      ? rng.nextBounded(12)
                                      : rng.nextBounded(hot.size());
            const Addr va = (hot[k] << 12) + rng.nextBounded(4096);
            const Translation t = tlb.translate(va);
            const bool hit = ref.translate(va);
            ASSERT_EQ(t.tlbHit, hit);
            ASSERT_EQ(t.paddr, va + 0x40000000);
            ASSERT_EQ(t.extraCycles, hit ? 0u : params.walkCycles);
            (hit ? hits : misses) += 1;
            last = va;
            last_valid = true;
        } else if (op < 99) {
            if (last_valid) {
                const unsigned n = 1 + unsigned(rng.nextBounded(6));
                tlb.repeatHits(last, n);
                for (unsigned r = 0; r < n; ++r)
                    ASSERT_TRUE(ref.translate(last));
                hits += n;
            }
        } else {
            tlb.flush();
            ref.flush();
            last_valid = false;
        }
        ASSERT_EQ(tlb.hits(), hits);
        ASSERT_EQ(tlb.misses(), misses);
    }
    EXPECT_GT(misses, 2000u);
    EXPECT_GT(hits, 20000u);
}

/**
 * Twin hierarchies fed one random load/store stream, one through
 * dataAccess() (whose same-line hits take Cache::tryReadHit and
 * Cache::tryWriteHit inline) and one through dataAccessSlow() only,
 * stay indistinguishable: every DataAccessResult field, the L1D and
 * L2 counters, the pinned lines and the resident lines, after every
 * step.  The stream has rising checkpoint stamps, pinned writes into
 * an L1D small enough to fill whole sets with pins, verify and
 * rollback unpins, L1D prefetch fills (which can evict the line the
 * inline path would hit) and instruction fetches sharing the L2.
 */
TEST(CacheHierarchy, InlineHitPathsMatchSlowPath)
{
    HierarchyParams p;
    p.l1d = CacheParams{"l1d", 1024, 2, 64, 2, 2, true};
    p.l2 = CacheParams{"l2", 8 * 1024, 4, 64, 12, 4, false};
    ClockDomain clock(3.2e9);
    CacheHierarchy fast(p, clock);
    CacheHierarchy slow(p, clock);
    Rng rng(23);
    // 64 lines over the L1D's 8 two-way sets.
    std::vector<Addr> lines;
    for (Addr a = 0; a < 0x1000; a += 0x40)
        lines.push_back(a);
    Addr addr = 0;
    Tick now = 100;
    std::uint64_t seg = 1;
    Addr last_line = ~Addr(0);  // line the previous access resolved
    unsigned same_reads = 0, same_writes = 0, same_copies = 0;
    unsigned blocked = 0;

    for (int i = 0; i < 40000; ++i) {
        now += 1 + rng.nextBounded(4);
        // Mostly the same line again (stack traffic), else anywhere.
        if (rng.nextBounded(3) == 0)
            addr = lines[rng.nextBounded(lines.size())];
        const Addr a = addr + 8 * rng.nextBounded(8);
        const Addr pc = 0x8000 + 4 * rng.nextBounded(16);
        const unsigned op = unsigned(rng.nextBounded(100));
        SCOPED_TRACE(i);
        if (op < 84) {
            const bool write = op >= 45;
            const std::uint64_t pin =
                write && rng.nextBounded(4) != 0 ? seg : noPin;
            const DataAccessResult f =
                fast.dataAccess(a, pc, write, now, pin, seg);
            const DataAccessResult s =
                slow.dataAccessSlow(a, pc, write, now, pin, seg);
            ASSERT_EQ(f.completeAt, s.completeAt);
            ASSERT_EQ(f.blockedPinned, s.blockedPinned);
            ASSERT_EQ(f.l1Hit, s.l1Hit);
            ASSERT_EQ(f.l2Hit, s.l2Hit);
            ASSERT_EQ(f.needsLineCopy, s.needsLineCopy);
            const Addr line = a & ~Addr(63);
            if (line == last_line && !f.blockedPinned) {
                ++(write ? same_writes : same_reads);
                same_copies += f.needsLineCopy;
            }
            if (f.blockedPinned)
                ++blocked;
            else
                last_line = line;
        } else if (op < 92) {
            ++seg;  // the next checkpoint: new stamp and pin id
        } else if (op < 96) {
            const std::uint64_t upto = seg - rng.nextBounded(3);
            fast.segmentVerified(upto);
            slow.segmentVerified(upto);
        } else if (op < 97) {
            fast.rollbackFrom(seg);
            slow.rollbackFrom(seg);
            ++seg;  // ids keep rising after a rollback
        } else if (op < 99) {
            fast.l1d().fill(a ^ 0x200, now);
            slow.l1d().fill(a ^ 0x200, now);
        } else {
            ASSERT_EQ(fast.instFetch(pc, now), slow.instFetch(pc, now));
        }
        ASSERT_EQ(fast.l1d().hits(), slow.l1d().hits());
        ASSERT_EQ(fast.l1d().misses(), slow.l1d().misses());
        ASSERT_EQ(fast.l1d().evictions(), slow.l1d().evictions());
        ASSERT_EQ(fast.l1d().pinnedBlocks(), slow.l1d().pinnedBlocks());
        ASSERT_EQ(fast.l1d().pinnedLineCount(),
                  slow.l1d().pinnedLineCount());
        ASSERT_EQ(fast.l2().hits(), slow.l2().hits());
        ASSERT_EQ(fast.l2().misses(), slow.l2().misses());
        for (Addr l : lines) {
            ASSERT_EQ(fast.l1d().contains(l), slow.l1d().contains(l)) << l;
            ASSERT_EQ(fast.l2().contains(l), slow.l2().contains(l)) << l;
        }
    }
    // The inline paths ran: same-line reads, writes (some the first
    // of their checkpoint) and misses into fully pinned sets.
    EXPECT_GT(same_reads, 5000u);
    EXPECT_GT(same_writes, 5000u);
    EXPECT_GT(same_copies, 500u);
    EXPECT_GT(blocked, 100u);
}

} // namespace
