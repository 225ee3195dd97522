/**
 * @file
 * Static fault-vulnerability analysis tests: golden live-bit masks on
 * hand-built programs (dead stores, partially-live shifted values,
 * interval-masked high bits), chip weak-cell and load-entry verdicts,
 * model determinism, and -- the property the whole pass exists for --
 * randomized injection into statically-dead sites across many seeds
 * must never produce an architecturally visible divergence.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "analysis/cfg.hh"
#include "analysis/regmodel.hh"
#include "analysis/vuln.hh"
#include "faults/chip_model.hh"
#include "isa/builder.hh"
#include "isa_oracle.hh"
#include "mem/memory.hh"
#include "workloads/workload.hh"

namespace
{

using namespace paradox;
using namespace paradox::isa;
using namespace paradox::analysis;

constexpr XReg r0{0}, r1{1}, r2{2}, r3{3}, r4{4}, r5{5};

constexpr std::uint64_t allBits = ~std::uint64_t{0};
constexpr Addr base = 0x1000;

// ---------------------------------------------------------------------
// Golden live-bit masks
// ---------------------------------------------------------------------

TEST(Vuln, DeadStoreRegisterHasNoLiveBits)
{
    ProgramBuilder b("t");
    b.footprint(base, 8, "out");
    b.ldi(r1, 0x123)  // idx 0: stored below -> fully live
        .ldi(r2, base)   // idx 1: store base -> fully live
        .ldi(r3, 42)     // idx 2: never used again -> dead
        .sd(r1, r2, 0)   // idx 3
        .halt();         // idx 4
    const Program prog = b.build();
    const auto va = VulnAnalysis::build(prog);

    EXPECT_EQ(va->liveOutMask(2, xslot(3)), 0u);
    for (unsigned bit : {0u, 17u, 63u})
        EXPECT_EQ(va->regBitVerdict(2, xslot(3), bit),
                  SiteVerdict::Dead);

    // The stored value and the base address must stay fully live.
    EXPECT_EQ(va->liveOutMask(0, xslot(1)), allBits);
    EXPECT_EQ(va->liveOutMask(1, xslot(2)), allBits);
    EXPECT_EQ(va->regBitVerdict(0, xslot(1), 5), SiteVerdict::Live);

    // x0 is never a live site: flips are discarded by the write port.
    EXPECT_EQ(va->regBitVerdict(0, 0, 3), SiteVerdict::Dead);

    // Registers are not architectural output at HALT: nothing is
    // live out of the exit block.
    EXPECT_EQ(va->liveOutMask(4, xslot(1)), 0u);
}

TEST(Vuln, ShiftedValueIsPartiallyLive)
{
    // Only the low byte of r1 survives the 56-bit left shift into
    // the stored double-word; bits 8..63 are provably masked.
    ProgramBuilder b("t");
    b.footprint(base, 8, "out");
    b.ldi(r1, 0xAB)        // idx 0
        .slli(r2, r1, 56)  // idx 1
        .ldi(r3, base)     // idx 2
        .sd(r2, r3, 0)     // idx 3
        .halt();
    const Program prog = b.build();
    const auto va = VulnAnalysis::build(prog);

    EXPECT_EQ(va->liveOutMask(0, xslot(1)), 0xffu);
    EXPECT_EQ(va->regBitVerdict(0, xslot(1), 7), SiteVerdict::Live);
    EXPECT_EQ(va->regBitVerdict(0, xslot(1), 8), SiteVerdict::Dead);
    EXPECT_EQ(va->regBitVerdict(0, xslot(1), 63), SiteVerdict::Dead);
    // The shifted result itself feeds the store whole.
    EXPECT_EQ(va->liveOutMask(1, xslot(2)), allBits);
}

TEST(Vuln, IntervalMaskPrunesHighBits)
{
    // r2 is provably the constant 0xff, so AND r3, r1, r2 kills
    // bits 8..63 of r1 -- but only when the interval facts are in.
    ProgramBuilder b("t");
    b.footprint(base, 8, "out");
    b.ldi(r1, 0x12345)      // idx 0
        .ldi(r2, 0xff)      // idx 1: the mask
        .and_(r3, r1, r2)   // idx 2
        .ldi(r4, base)      // idx 3
        .sd(r3, r4, 0)      // idx 4
        .halt();
    const Program prog = b.build();

    const auto with_iv = VulnAnalysis::build(prog);
    EXPECT_EQ(with_iv->liveOutMask(0, xslot(1)), 0xffu);
    EXPECT_EQ(with_iv->regBitVerdict(0, xslot(1), 32),
              SiteVerdict::Dead);
    // Soundness: the masking operand itself must stay fully live --
    // pruning both AND inputs at once would let two "dead" flips
    // conspire into a live result bit.
    EXPECT_EQ(with_iv->liveOutMask(1, xslot(2)), allBits);

    // Without interval facts the same bits are conservatively live.
    const Cfg cfg = Cfg::build(prog);
    const VulnAnalysis no_iv =
        VulnAnalysis::run(prog, cfg, cfg.reachableBlocks());
    EXPECT_EQ(no_iv.liveOutMask(0, xslot(1)), allBits);
    EXPECT_EQ(no_iv.regBitVerdict(0, xslot(1), 32),
              SiteVerdict::Live);
}

// ---------------------------------------------------------------------
// Chip-cell and load-entry verdicts
// ---------------------------------------------------------------------

TEST(Vuln, ChipCellVerdictsAreDeterministicAndLogRowsStayLive)
{
    const auto w = workloads::build("bitcount", 1);
    const std::vector<MemRegion> result = {
        {workloads::resultAddr, 8, "result"}};
    const auto va1 = VulnAnalysis::build(w.program, result);
    const auto va2 = VulnAnalysis::build(w.program, result);
    EXPECT_EQ(va1->programHash(), va2->programHash());

    faults::ChipConfig cc;
    cc.chipSeed = 7;
    const faults::ChipModel chip(cc);
    ASSERT_FALSE(chip.cells().empty());
    bool saw_log_row = false;
    for (const faults::WeakCell &cell : chip.cells()) {
        EXPECT_EQ(va1->cellVerdict(cell), va2->cellVerdict(cell));
        if (cell.kind == faults::SiteKind::LogRow) {
            saw_log_row = true;
            // Store rows always matter and load rows are judged per
            // consuming instruction at replay time, so the static
            // per-cell verdict must stay conservative.
            EXPECT_EQ(va1->cellVerdict(cell), SiteVerdict::Live);
        }
    }
    EXPECT_TRUE(saw_log_row);
}

TEST(Vuln, LoadEntryVerdictFollowsAccessWidth)
{
    ProgramBuilder b("t");
    b.footprint(base, 16, "buf");
    b.ldi(r2, base)      // idx 0
        .lb(r1, r2, 0)   // idx 1: sign-extending byte load
        .sd(r1, r2, 8)   // idx 2
        .lb(r0, r2, 1)   // idx 3: load to x0
        .halt();
    const Program prog = b.build();
    const auto va = VulnAnalysis::build(prog);
    const Instruction &lb1 = prog.code()[1];
    const Instruction &lb_x0 = prog.code()[3];

    // Bits at/above the access width are re-extended away.
    EXPECT_EQ(va->loadEntryVerdict(lb1, 1, 8), SiteVerdict::Dead);
    EXPECT_EQ(va->loadEntryVerdict(lb1, 1, 63), SiteVerdict::Dead);
    // Low bits land in a stored register.
    EXPECT_EQ(va->loadEntryVerdict(lb1, 1, 0), SiteVerdict::Live);
    // The sign bit smears across the whole destination.
    EXPECT_EQ(va->loadEntryVerdict(lb1, 1, 7), SiteVerdict::Live);
    // A load to x0 never becomes architectural.
    EXPECT_EQ(va->loadEntryVerdict(lb_x0, 3, 0), SiteVerdict::Dead);
}

// ---------------------------------------------------------------------
// The soundness property: dead sites are invisible
// ---------------------------------------------------------------------

struct CleanRun
{
    std::uint64_t fingerprint = 0;
    std::uint64_t result = 0;
    std::uint64_t executed = 0;
    std::vector<std::uint32_t> instIdx;  //!< per executed step
};

CleanRun
runClean(const workloads::Workload &w)
{
    CleanRun c;
    mem::SimpleMemory memory;
    ArchState state;
    loadProgram(w.program, state, memory);
    for (;;) {
        const ExecResult r = step(w.program, state, memory);
        EXPECT_TRUE(r.valid);
        c.instIdx.push_back(std::uint32_t(r.pc / instBytes));
        ++c.executed;
        if (r.halted)
            break;
    }
    c.fingerprint = memory.fingerprint();
    c.result = memory.read(workloads::resultAddr, 8);
    return c;
}

TEST(Vuln, DeadSiteInjectionIsArchitecturallyInvisible)
{
    const auto w = workloads::build("bitcount", 1);
    const auto va = VulnAnalysis::build(
        w.program, {{workloads::resultAddr, 8, "result"}});
    const CleanRun clean = runClean(w);
    ASSERT_GT(clean.executed, 100u);
    EXPECT_EQ(clean.result, w.expectedResult);

    std::mt19937_64 rng(0xD15EA5Eu);
    constexpr unsigned kInjections = 48;
    unsigned injected = 0;
    for (unsigned trial = 0; injected < kInjections; ++trial) {
        ASSERT_LT(trial, 100000u) << "could not find dead sites";
        const std::uint64_t at = rng() % clean.executed;
        const unsigned slot = unsigned(rng() % numRegSlots);
        const unsigned bit = unsigned(rng() % 64);
        if (va->regBitVerdict(clean.instIdx[std::size_t(at)], slot,
                              bit) != SiteVerdict::Dead)
            continue;
        ++injected;

        mem::SimpleMemory memory;
        ArchState state;
        loadProgram(w.program, state, memory);
        std::uint64_t executed = 0;
        bool halted = false;
        // Hard cap: a dead flip may never change control flow, so
        // the corrupted run retires exactly the clean count.
        for (; executed < clean.executed * 2 + 16; ++executed) {
            const ExecResult r = step(w.program, state, memory);
            ASSERT_TRUE(r.valid);
            if (executed == at) {
                // Post-commit flip at the statically-dead site.
                if (slot == 0)
                    ; // x0: nothing to corrupt
                else if (slot < numIntRegs)
                    state.writeX(slot, state.readX(slot) ^
                                           (std::uint64_t{1} << bit));
                else
                    state.writeFBits(
                        slot - numIntRegs,
                        state.readFBits(slot - numIntRegs) ^
                            (std::uint64_t{1} << bit));
            }
            if (r.halted) {
                ++executed;
                halted = true;
                break;
            }
        }
        ASSERT_TRUE(halted) << "slot " << slot << " bit " << bit
                            << " @" << at;
        EXPECT_EQ(executed, clean.executed)
            << "slot " << slot << " bit " << bit << " @" << at;
        EXPECT_EQ(memory.fingerprint(), clean.fingerprint)
            << "slot " << slot << " bit " << bit << " @" << at;
        EXPECT_EQ(memory.read(workloads::resultAddr, 8), clean.result)
            << "slot " << slot << " bit " << bit << " @" << at;
    }
}

// A live site, by contrast, can be architecturally visible -- the
// masks are not vacuously "everything is dead".
TEST(Vuln, AnalysisReportsLiveBitsToo)
{
    const auto w = workloads::build("bitcount", 1);
    const auto va = VulnAnalysis::build(
        w.program, {{workloads::resultAddr, 8, "result"}});
    const VulnAnalysis::Stats &st = va->stats();
    EXPECT_GT(st.regBitsLive, 0u);
    EXPECT_LT(st.regBitsLive, st.regBitsTotal);
    EXPECT_GT(st.liveFraction, 0.0);
    EXPECT_LT(st.liveFraction, 1.0);
}

} // namespace
