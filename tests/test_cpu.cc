/**
 * @file
 * CPU timing-model unit tests: the tournament branch predictor, the
 * out-of-order main-core approximation and the checker timing model.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <vector>

#include "cpu/branch_pred.hh"
#include "cpu/checker_timing.hh"
#include "cpu/main_core.hh"
#include "isa/builder.hh"
#include "mem/hierarchy.hh"
#include "sim/rng.hh"

namespace
{

using namespace paradox;
using namespace paradox::isa;
using cpu::TournamentPredictor;

Instruction
makeBranch()
{
    Instruction inst;
    inst.op = Opcode::BNE;
    inst.rs1 = 1;
    inst.rs2 = 0;
    return inst;
}

TEST(Predictor, LearnsAlwaysTakenLoop)
{
    TournamentPredictor pred;
    Instruction br = makeBranch();
    const Addr pc = 0x40;
    const Addr target = 0x10;
    int late_miss = 0;
    for (int i = 0; i < 200; ++i) {
        pred.predict(pc, br);
        bool miss = pred.update(pc, br, true, target);
        if (i > 20 && miss)
            ++late_miss;
    }
    EXPECT_EQ(late_miss, 0);
}

TEST(Predictor, LearnsAlternatingPatternViaLocalHistory)
{
    TournamentPredictor pred;
    Instruction br = makeBranch();
    const Addr pc = 0x80;
    const Addr target = 0x20;
    int late_miss = 0;
    for (int i = 0; i < 400; ++i) {
        bool taken = i % 2 == 0;
        pred.predict(pc, br);
        bool miss = pred.update(pc, br, taken, target);
        if (i > 100 && miss)
            ++late_miss;
    }
    // Local history easily captures a period-2 pattern.
    EXPECT_LT(late_miss, 10);
}

TEST(Predictor, BtbSuppliesTargets)
{
    TournamentPredictor pred;
    Instruction jmp;
    jmp.op = Opcode::JAL;
    jmp.rd = 0;
    const Addr pc = 0x100, target = 0x400;
    auto p1 = pred.predict(pc, jmp);
    EXPECT_FALSE(p1.targetKnown);
    pred.update(pc, jmp, true, target);
    auto p2 = pred.predict(pc, jmp);
    EXPECT_TRUE(p2.targetKnown);
    EXPECT_EQ(p2.target, target);
    EXPECT_FALSE(pred.update(pc, jmp, true, target));
}

TEST(Predictor, RasPredictsReturns)
{
    TournamentPredictor pred;
    Instruction call;
    call.op = Opcode::JAL;
    call.rd = 3;  // link register: a call
    Instruction ret;
    ret.op = Opcode::JALR;
    ret.rd = 0;
    ret.rs1 = 3;

    pred.predict(0x100, call);  // pushes 0x104
    pred.update(0x100, call, true, 0x800);
    auto p = pred.predict(0x900, ret);
    EXPECT_TRUE(p.targetKnown);
    EXPECT_EQ(p.target, 0x104u);
}

TEST(Predictor, CountsMispredicts)
{
    TournamentPredictor pred;
    Instruction br = makeBranch();
    pred.predict(0x10, br);
    pred.update(0x10, br, true, 0x99);  // cold: certainly mispredicted
    EXPECT_GT(pred.mispredicts(), 0u);
    EXPECT_GT(pred.lookups(), 0u);
}

struct CoreFixture
{
    ClockDomain clock{3.2e9};
    mem::HierarchyParams hparams;
    std::unique_ptr<mem::CacheHierarchy> hier;
    std::unique_ptr<cpu::MainCore> core;

    CoreFixture()
    {
        hier = std::make_unique<mem::CacheHierarchy>(hparams, clock);
        core = std::make_unique<cpu::MainCore>(cpu::MainCoreParams{},
                                               clock, *hier);
    }

    /** Feed a non-memory instruction through the core. */
    cpu::CommitTiming
    feedAlu(Addr pc, unsigned rd, unsigned rs1, unsigned rs2)
    {
        Instruction inst;
        inst.op = Opcode::ADD;
        inst.rd = std::uint8_t(rd);
        inst.rs1 = std::uint8_t(rs1);
        inst.rs2 = std::uint8_t(rs2);
        ExecResult r;
        r.valid = true;
        r.op = inst.op;
        r.cls = InstClass::IntAlu;
        r.pc = pc;
        r.nextPc = pc + instBytes;
        r.wroteInt = rd != 0;
        r.rd = inst.rd;
        return core->advance(makeCommitRecord(inst, r), mem::noPin, 0);
    }
};

TEST(MainCore, IndependentStreamApproachesFullWidth)
{
    CoreFixture f;
    // Warm the I-cache and pipeline.
    for (unsigned i = 0; i < 64; ++i)
        f.feedAlu((i % 8) * instBytes, 1 + i % 3, 0, 0);
    Tick start = f.core->now();
    const unsigned n = 3000;
    for (unsigned i = 0; i < n; ++i)
        f.feedAlu((i % 8) * instBytes, 1 + i % 3, 0, 0);
    double cycles_per_inst =
        double(f.core->now() - start) / double(f.clock.period()) / n;
    // 3-wide core: independent ALU ops should sustain near 3 IPC.
    EXPECT_LT(cycles_per_inst, 0.45);
}

TEST(MainCore, DependentChainSerializesToOnePerCycle)
{
    CoreFixture f;
    for (unsigned i = 0; i < 64; ++i)
        f.feedAlu((i % 8) * instBytes, 1, 1, 1);
    Tick start = f.core->now();
    const unsigned n = 3000;
    for (unsigned i = 0; i < n; ++i)
        f.feedAlu((i % 8) * instBytes, 1, 1, 1);  // x1 = x1 + x1
    double cycles_per_inst =
        double(f.core->now() - start) / double(f.clock.period()) / n;
    EXPECT_GT(cycles_per_inst, 0.9);
    EXPECT_LT(cycles_per_inst, 1.3);
}

TEST(MainCore, DivIsSlowerThanAdd)
{
    CoreFixture f;
    auto run_chain = [&f](Opcode op, InstClass cls) {
        for (unsigned i = 0; i < 32; ++i)
            f.feedAlu((i % 4) * instBytes, 1, 1, 1);
        Tick start = f.core->now();
        for (unsigned i = 0; i < 500; ++i) {
            Instruction inst;
            inst.op = op;
            inst.rd = 1;
            inst.rs1 = 1;
            inst.rs2 = 2;
            ExecResult r;
            r.valid = true;
            r.op = op;
            r.cls = cls;
            r.pc = (i % 4) * instBytes;
            r.nextPc = r.pc + instBytes;
            r.wroteInt = true;
            r.rd = 1;
            f.core->advance(makeCommitRecord(inst, r), mem::noPin, 0);
        }
        return f.core->now() - start;
    };
    CoreFixture g;
    Tick div_time = run_chain(Opcode::DIV, InstClass::IntDiv);
    Tick add_time = g.feedAlu(0, 1, 1, 1).commitAt;  // placeholder
    (void)add_time;
    CoreFixture h;
    Tick add_chain = 0;
    {
        for (unsigned i = 0; i < 32; ++i)
            h.feedAlu((i % 4) * instBytes, 1, 1, 1);
        Tick start = h.core->now();
        for (unsigned i = 0; i < 500; ++i)
            h.feedAlu((i % 4) * instBytes, 1, 1, 1);
        add_chain = h.core->now() - start;
    }
    EXPECT_GT(div_time, 5 * add_chain);
}

TEST(MainCore, BlockCommitAddsCycles)
{
    CoreFixture f;
    f.feedAlu(0, 1, 0, 0);
    Tick before = f.core->now();
    f.core->blockCommit(16);
    EXPECT_EQ(f.core->now(), before + f.clock.cyclesToTicks(16));
}

TEST(MainCore, StallUntilMovesTimeForward)
{
    CoreFixture f;
    f.feedAlu(0, 1, 0, 0);
    Tick target = f.core->now() + 1'000'000;
    f.core->stallUntil(target);
    EXPECT_EQ(f.core->now(), target);
    f.core->stallUntil(target - 500);  // never goes backwards
    EXPECT_EQ(f.core->now(), target);
}

TEST(MainCore, ResetPipelineRestartsAtGivenTick)
{
    CoreFixture f;
    for (int i = 0; i < 10; ++i)
        f.feedAlu(0, 1, 1, 1);
    Tick resume = f.core->now() + 5'000'000;
    f.core->resetPipeline(resume);
    EXPECT_EQ(f.core->now(), resume);
    auto t = f.feedAlu(0, 1, 0, 0);
    EXPECT_GT(t.commitAt, resume);
}

TEST(MainCore, LoadsPayCacheLatency)
{
    CoreFixture f;
    for (unsigned i = 0; i < 32; ++i)
        f.feedAlu((i % 4) * instBytes, 1, 0, 0);

    auto feed_load = [&f](Addr addr) {
        Instruction inst;
        inst.op = Opcode::LD;
        inst.rd = 2;
        inst.rs1 = 1;
        ExecResult r;
        r.valid = true;
        r.op = inst.op;
        r.cls = InstClass::Load;
        r.pc = 0;
        r.nextPc = instBytes;
        r.isLoad = true;
        r.memAddr = addr;
        r.memSize = 8;
        r.wroteInt = true;
        r.rd = 2;
        return f.core->advance(makeCommitRecord(inst, r), mem::noPin,
                               0);
    };
    auto miss = feed_load(0x200000);
    auto hit = feed_load(0x200000);
    EXPECT_FALSE(miss.l1dHit);
    EXPECT_TRUE(hit.l1dHit);
}

TEST(CheckerTiming, OneCyclePlusLatencies)
{
    cpu::CheckerTiming timing;
    Instruction add;
    add.op = Opcode::ADD;
    Instruction div;
    div.op = Opcode::DIV;

    // Prime the L0 so fetch is a hit.
    timing.instCycles(0, 0x0, add);
    Cycles add_cycles = timing.instCycles(0, 0x0, add);
    Cycles div_cycles = timing.instCycles(0, 0x0, div);
    EXPECT_EQ(add_cycles, checkerExecCycles(InstClass::IntAlu));
    EXPECT_EQ(div_cycles, checkerExecCycles(InstClass::IntDiv));
}

TEST(CheckerTiming, L0MissCostsMore)
{
    cpu::CheckerTiming timing;
    Instruction add;
    add.op = Opcode::ADD;
    Cycles cold = timing.instCycles(0, 0x10000, add);
    Cycles warm = timing.instCycles(0, 0x10000, add);
    EXPECT_GT(cold, warm);
}

TEST(CheckerTiming, PowerGatingFlushesL0)
{
    cpu::CheckerTiming timing;
    Instruction add;
    add.op = Opcode::ADD;
    timing.instCycles(3, 0x40, add);
    Cycles warm = timing.instCycles(3, 0x40, add);
    timing.powerGated(3);
    Cycles after_gate = timing.instCycles(3, 0x40, add);
    EXPECT_GT(after_gate, warm);
}

TEST(CheckerTiming, CheckersHavePrivateL0s)
{
    cpu::CheckerTiming timing;
    Instruction add;
    add.op = Opcode::ADD;
    timing.instCycles(0, 0x40, add);  // warms checker 0 + shared L1
    Cycles c0 = timing.instCycles(0, 0x40, add);
    Cycles c1 = timing.instCycles(1, 0x40, add);
    // Checker 1's L0 is cold (shared L1 hit only).
    EXPECT_GT(c1, c0);
}

} // namespace

namespace
{

using namespace paradox;
using namespace paradox::isa;

TEST(Predictor, GlobalHistoryLearnsCorrelatedBranches)
{
    // Branch B is taken exactly when branch A was taken: global
    // history captures the correlation that local history cannot.
    cpu::TournamentPredictor pred;
    Instruction br;
    br.op = Opcode::BNE;
    Rng rng(42);
    int late_miss_b = 0;
    for (int i = 0; i < 3000; ++i) {
        bool a_taken = rng.chance(0.5);  // random direction
        pred.predict(0x100, br);
        pred.update(0x100, br, a_taken, 0x40);
        pred.predict(0x200, br);
        bool miss = pred.update(0x200, br, a_taken, 0x80);
        if (i > 1500 && miss)
            ++late_miss_b;
    }
    // B is perfectly predictable from history; allow a small tail.
    EXPECT_LT(late_miss_b, 150);
}

TEST(Predictor, ResetForgetsEverything)
{
    cpu::TournamentPredictor pred;
    Instruction jmp;
    jmp.op = Opcode::JAL;
    pred.predict(0x10, jmp);
    pred.update(0x10, jmp, true, 0x500);
    pred.reset();
    auto p = pred.predict(0x10, jmp);
    EXPECT_FALSE(p.targetKnown);
    EXPECT_EQ(pred.lookups(), 1u);  // stats reset too
}

TEST(MainCoreExtra, MispredictsDelayFetch)
{
    // A stream of randomly-directed branches must run slower than
    // the same number of well-predicted (always-taken-loop) ones.
    auto run_branches = [](bool random_dir) {
        ClockDomain clock(3.2e9);
        mem::CacheHierarchy hier(mem::HierarchyParams{}, clock);
        cpu::MainCore core(cpu::MainCoreParams{}, clock, hier);
        Rng rng(7);
        Instruction br;
        br.op = Opcode::BNE;
        br.rs1 = 1;
        const unsigned n = 4000;
        for (unsigned i = 0; i < n; ++i) {
            ExecResult r;
            r.valid = true;
            r.op = br.op;
            r.cls = InstClass::Branch;
            r.pc = 0x40;
            r.isBranch = true;
            r.taken = random_dir ? rng.chance(0.5) : true;
            r.nextPc = r.taken ? 0x0 : 0x44;
            core.advance(isa::makeCommitRecord(br, r), mem::noPin, 0);
        }
        return core.now();
    };
    Tick predictable = run_branches(false);
    Tick random_time = run_branches(true);
    EXPECT_GT(random_time, predictable * 2);
}

} // namespace

namespace
{

using namespace paradox;
using namespace paradox::isa;

/**
 * instCycles() against a reference built from plain Cache::access
 * calls on caches of the same geometry: per-checker L0s over one
 * shared L1, one synthetic LRU clock, fetch cost plus the class's
 * execute latency.  Streams run sequentially through loops larger
 * than the L0, branch between aliasing code regions and hop between
 * checkers, with power gating mixed in.  Table I's direct-mapped L0
 * ignores LRU stamps; the 2-way variant makes every stamp the inline
 * hit writes decide a victim.
 */
class CheckerTimingFastPath : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CheckerTimingFastPath, CycleSumsMatchAccessOnlyReference)
{
    cpu::CheckerParams params;
    params.l0Assoc = GetParam();
    cpu::CheckerTiming timing(params);

    mem::CacheParams l0p;
    l0p.sizeBytes = params.l0Bytes;
    l0p.assoc = params.l0Assoc;
    l0p.mshrs = 1;
    mem::CacheParams l1p;
    l1p.sizeBytes = params.sharedL1Bytes;
    l1p.assoc = params.sharedL1Assoc;
    l1p.mshrs = 4;
    std::vector<std::unique_ptr<mem::Cache>> l0;
    for (unsigned i = 0; i < params.count; ++i)
        l0.push_back(std::make_unique<mem::Cache>(l0p));
    mem::Cache l1(l1p);
    Tick clock = 0;
    const auto reference = [&](unsigned id, Addr pc,
                               const Instruction &inst) {
        ++clock;
        Cycles c = 0;
        if (l0[id]->access(pc, false, clock).outcome !=
            mem::CacheOutcome::Hit) {
            c += params.sharedL1Cycles;
            if (l1.access(pc, false, clock).outcome !=
                mem::CacheOutcome::Hit)
                c += params.missCycles;
        }
        return c + checkerExecCycles(inst.info().cls);
    };

    const Opcode ops[] = {Opcode::ADD, Opcode::MUL, Opcode::DIV,
                          Opcode::LD, Opcode::FADD, Opcode::BEQ};
    Rng rng(3);
    Cycles sum = 0, ref_sum = 0;
    std::uint64_t l0_ref_misses = 0;
    for (int seg = 0; seg < 300; ++seg) {
        const unsigned id = unsigned(rng.nextBounded(4));
        if (rng.nextBounded(10) == 0) {
            timing.powerGated(id);
            l0[id]->invalidateAll();
        }
        // A segment: a sequential run through a loop body of up to
        // 12 KiB, entered at a random offset, that now and then
        // branches to the same offset in another 16 KiB-aligned
        // region (same L0 set, different tag).
        Addr base = 0x10000 + 0x4000 * rng.nextBounded(3);
        const Addr body = 4 * (1 + rng.nextBounded(3072));
        Addr off = 4 * rng.nextBounded(body / 4);
        for (int i = 0; i < 200; ++i) {
            if (rng.nextBounded(12) == 0)
                base = 0x10000 + 0x4000 * rng.nextBounded(3);
            Instruction inst;
            inst.op = ops[rng.nextBounded(std::size(ops))];
            const Cycles c = timing.instCycles(id, base + off, inst);
            const Cycles r = reference(id, base + off, inst);
            ASSERT_EQ(c, r) << "segment " << seg << " inst " << i;
            sum += c;
            ref_sum += r;
            off = (off + 4) % body;
        }
    }
    for (const auto &cache : l0)
        l0_ref_misses += cache->misses();
    EXPECT_EQ(sum, ref_sum);
    EXPECT_EQ(timing.l0Misses(), l0_ref_misses);
    EXPECT_EQ(timing.sharedL1Misses(), l1.misses());
    EXPECT_GT(l0_ref_misses, 1000u);
}

INSTANTIATE_TEST_SUITE_P(L0Assoc, CheckerTimingFastPath,
                         ::testing::Values(1u, 2u));

TEST(CheckerTiming, SameLineFetchMissesAfterPowerGate)
{
    cpu::CheckerTiming timing;
    Instruction add;
    add.op = Opcode::ADD;
    timing.instCycles(2, 0x80, add);
    EXPECT_EQ(timing.instCycles(2, 0x84, add),
              checkerExecCycles(InstClass::IntAlu));  // same-line hit
    const std::uint64_t misses = timing.l0Misses();
    timing.powerGated(2);
    // The very line the L0 served last must miss now.
    EXPECT_GT(timing.instCycles(2, 0x88, add),
              checkerExecCycles(InstClass::IntAlu));
    EXPECT_EQ(timing.l0Misses(), misses + 1);
}

} // namespace
