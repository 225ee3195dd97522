/**
 * @file
 * CPU timing-model unit tests: the tournament branch predictor, the
 * out-of-order main-core approximation and the checker timing model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <memory>
#include <vector>

#include "cpu/branch_pred.hh"
#include "cpu/checker_timing.hh"
#include "cpu/main_core.hh"
#include "isa/builder.hh"
#include "isa_oracle.hh"
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

/**
 * The main-core timing model as it was before the per-commit kernel:
 * the class switch, separate int and FP scoreboards, std::min_element
 * over per-group FU vectors and every tick constant read from the
 * clock where it is used.  KernelMatchesReferenceModel holds
 * cpu::MainCore to it record for record.
 */
class ReferenceCore
{
  public:
    using Resolver = std::function<Tick(Tick)>;

    ReferenceCore(const cpu::MainCoreParams &params, ClockDomain &clock,
                  mem::CacheHierarchy &hier, Resolver resolver)
        : params_(params), clock_(clock), hier_(hier),
          predictor_(params.predictor), resolver_(std::move(resolver)),
          regX_(numIntRegs, 0), regF_(numFpRegs, 0),
          rob_(params.robEntries, 0), iq_(params.iqEntries, 0),
          lq_(params.lqEntries, 0), sq_(params.sqEntries, 0),
          intAlu_(params.intAlus, 0), fpAlu_(params.fpAlus, 0),
          multDiv_(params.multDivAlus, 0)
    {}

    Tick now() const { return lastCommit_; }

    void
    resetPipeline(Tick at)
    {
        fetchReadyAt_ = nextFetchSlot_ = nextCommitSlot_ = at;
        lastCommit_ = at;
        for (auto *v : {&regX_, &regF_, &rob_, &iq_, &lq_, &sq_, &intAlu_,
                        &fpAlu_, &multDiv_})
            std::fill(v->begin(), v->end(), at);
    }

    cpu::CommitTiming
    advance(const CommitRecord &r, std::uint64_t pin_seg,
            std::uint64_t stamp)
    {
        cpu::CommitTiming timing;
        const Addr pc = r.pc, addr = r.memAddr;
        Tick fetch_start = std::max(fetchReadyAt_, nextFetchSlot_);
        Tick fetch_done = hier_.instFetch(pc, fetch_start);
        nextFetchSlot_ = std::max(fetch_start + slotTicks(),
                                  fetch_done - cycles(1));
        Tick dispatch = fetch_done + cycles(params_.frontendCycles);
        dispatch = std::max(dispatch, rob_[robHead_]);
        dispatch = std::max(dispatch, iq_[iqHead_]);
        if (r.isLoad)
            dispatch = std::max(dispatch, lq_[lqHead_]);
        if (r.isStore)
            dispatch = std::max(dispatch, sq_[sqHead_]);
        Tick src = 0;
        for (std::uint8_t s : {r.srcA, r.srcB, r.srcC}) {
            if (s == srcNone)
                continue;
            src = std::max(src, srcIsFp(s) ? regF_[srcIdx(s)]
                                           : regX_[srcIdx(s)]);
        }
        const Tick ready = std::max(dispatch, src);

        Tick complete = ready;
        if (r.isLoad) {
            Tick issue = ready;
            for (;;) {
                auto d = hier_.dataAccessSlow(addr, pc, false, issue,
                                              mem::noPin, stamp);
                if (!d.blockedPinned) {
                    complete = d.completeAt;
                    timing.l1dHit = d.l1Hit;
                    break;
                }
                issue = resolver_(issue);
            }
        } else if (r.isStore) {
            complete = ready + cycles(1);
        } else {
            switch (r.cls) {
              case InstClass::IntAlu:
              case InstClass::Branch:
              case InstClass::Jump:
                complete = useFu(intAlu_, ready, params_.intAluLat, true);
                break;
              case InstClass::IntMult:
                complete = useFu(multDiv_, ready, params_.intMultLat, true);
                break;
              case InstClass::IntDiv:
                complete = useFu(multDiv_, ready, params_.intDivLat, false);
                break;
              case InstClass::FpAlu:
                complete = useFu(fpAlu_, ready, params_.fpAluLat, true);
                break;
              case InstClass::FpMult:
                complete = useFu(multDiv_, ready, params_.fpMultLat, true);
                break;
              case InstClass::FpDiv:
                complete = useFu(multDiv_, ready, params_.fpDivLat, false);
                break;
              default:
                complete = ready + cycles(1);
                break;
            }
        }

        if (r.isBranch || r.isJump) {
            predictor_.predict(pc, *r.inst);
            if (predictor_.update(pc, *r.inst, r.isJump ? true : r.taken,
                                  r.nextPc)) {
                timing.mispredicted = true;
                Tick redirect = complete + cycles(params_.redirectCycles);
                fetchReadyAt_ = std::max(fetchReadyAt_, redirect);
                nextFetchSlot_ = std::max(nextFetchSlot_, redirect);
            }
        }

        Tick commit = std::max(complete, nextCommitSlot_);
        commit = std::max(commit, lastCommit_);
        nextCommitSlot_ = commit + slotTicks();
        lastCommit_ = commit;

        if (r.isStore) {
            Tick at = commit;
            for (;;) {
                auto d = hier_.dataAccessSlow(addr, pc, true, at, pin_seg,
                                              stamp);
                if (!d.blockedPinned) {
                    timing.l1dHit = d.l1Hit;
                    timing.needsLineCopy = d.needsLineCopy;
                    break;
                }
                at = resolver_(at);
                commit = std::max(commit, at);
                lastCommit_ = std::max(lastCommit_, commit);
                nextCommitSlot_ = std::max(nextCommitSlot_,
                                           commit + slotTicks());
            }
        }

        if (r.wroteInt)
            regX_[r.rd] = complete;
        if (r.wroteFp)
            regF_[r.rd] = complete;
        const auto push = [](std::vector<Tick> &ring, std::size_t &head,
                             Tick t) {
            ring[head] = t;
            if (++head == ring.size())
                head = 0;
        };
        push(rob_, robHead_, commit);
        push(iq_, iqHead_, complete);
        if (r.isLoad)
            push(lq_, lqHead_, commit);
        if (r.isStore)
            push(sq_, sqHead_, commit);
        timing.commitAt = commit;
        return timing;
    }

  private:
    Tick cycles(unsigned n) const { return clock_.cyclesToTicks(n); }
    Tick slotTicks() const { return clock_.period() / params_.width; }

    Tick
    useFu(std::vector<Tick> &group, Tick ready, unsigned latency,
          bool pipelined)
    {
        auto slot = std::min_element(group.begin(), group.end());
        Tick start = std::max(ready, *slot);
        Tick complete = start + cycles(latency);
        *slot = pipelined ? start + cycles(1) : complete;
        return complete;
    }

    cpu::MainCoreParams params_;
    ClockDomain &clock_;
    mem::CacheHierarchy &hier_;
    TournamentPredictor predictor_;
    Resolver resolver_;
    Tick fetchReadyAt_ = 0, nextFetchSlot_ = 0, nextCommitSlot_ = 0;
    Tick lastCommit_ = 0;
    std::vector<Tick> regX_, regF_, rob_, iq_, lq_, sq_;
    std::vector<Tick> intAlu_, fpAlu_, multDiv_;
    std::size_t robHead_ = 0, iqHead_ = 0, lqHead_ = 0, sqHead_ = 0;
};

/**
 * cpu::MainCore's inline kernel against ReferenceCore: 30k random
 * records of every InstClass with int, FP, x0 and unused sources,
 * loads and pinned stores into an L1D small enough to fill sets with
 * pins, branches and calls/returns.  The clock is retuned every ~100
 * records and by the pinned-stall resolver (as closing a segment
 * retunes it through the DVFS step), and the pipeline is reset now
 * and then.  CommitTiming and now() must agree after every record.
 */
TEST(MainCore, KernelMatchesReferenceModel)
{
    mem::HierarchyParams hp;
    hp.l1d = mem::CacheParams{"l1d", 512, 2, 64, 2, 2, true};
    const double freqs[] = {3.2e9, 2.3e9, 1.6e9, 2.9e9, 3.0e9};
    ClockDomain kernel_clock(3.2e9), ref_clock(3.2e9);
    mem::CacheHierarchy kernel_hier(hp, kernel_clock);
    mem::CacheHierarchy ref_hier(hp, ref_clock);
    std::uint64_t seg = 1;
    unsigned kernel_stalls = 0, ref_stalls = 0;
    // Free every pin, retune the clock, and let the access retry
    // 40 ticks on: the same steps on either side.
    const auto resolver = [&seg, &freqs](ClockDomain &clock,
                                         mem::CacheHierarchy &hier,
                                         unsigned &stalls) {
        return [&seg, &freqs, &clock, &hier, &stalls](Tick now) {
            clock.setFrequency(freqs[stalls++ % 5]);
            hier.segmentVerified(seg);
            return now + 40;
        };
    };
    cpu::MainCore kernel(cpu::MainCoreParams{}, kernel_clock, kernel_hier);
    kernel.setPinnedStallResolver(
        resolver(kernel_clock, kernel_hier, kernel_stalls));
    ReferenceCore ref(cpu::MainCoreParams{}, ref_clock, ref_hier,
                      resolver(ref_clock, ref_hier, ref_stalls));

    Instruction add, bne, call, ret, jump;
    add.op = Opcode::ADD;
    bne.op = Opcode::BNE;
    call.op = Opcode::JAL;
    call.rd = 1;
    ret.op = Opcode::JALR;
    jump.op = Opcode::JAL;
    Rng rng(31);
    const auto source = [&rng]() -> std::uint8_t {
        switch (rng.nextBounded(4)) {
          case 0: return srcNone;
          case 1: return 0;  // x0
          case 2: return std::uint8_t(rng.nextBounded(numIntRegs));
          default:
            return std::uint8_t(srcFpBit | rng.nextBounded(numFpRegs));
        }
    };
    const auto classes = unsigned(InstClass::NumClasses);
    unsigned mispredicts = 0, copies = 0;

    for (int i = 0; i < 30000; ++i) {
        SCOPED_TRACE(i);
        if (rng.nextBounded(100) == 0) {
            const double f = freqs[rng.nextBounded(5)];
            kernel_clock.setFrequency(f);
            ref_clock.setFrequency(f);
        }
        if (rng.nextBounded(20) == 0)
            ++seg;
        if (rng.nextBounded(2000) == 0) {
            const Tick at = ref.now() + 7;
            kernel.resetPipeline(at);
            ref.resetPipeline(at);
        }
        CommitRecord r;
        r.valid = true;
        r.cls = InstClass(rng.nextBounded(classes));
        r.pc = 0x1000 + instBytes * rng.nextBounded(256);
        r.nextPc = r.pc + instBytes;
        r.srcA = source();
        r.srcB = source();
        r.srcC = source();
        r.rd = std::uint8_t(rng.nextBounded(32));
        r.inst = &add;
        switch (r.cls) {
          case InstClass::Load:
          case InstClass::Store:
            (r.cls == InstClass::Load ? r.isLoad : r.isStore) = true;
            r.memAddr = 0x40 * rng.nextBounded(48) + 8 * rng.nextBounded(8);
            r.memSize = 8;
            break;
          case InstClass::Branch:
            r.inst = &bne;
            r.isBranch = true;
            r.taken = rng.chance(0.6);
            if (r.taken)
                r.nextPc = 0x1000 + instBytes * rng.nextBounded(8);
            break;
          case InstClass::Jump: {
            const Instruction *jumps[] = {&call, &ret, &jump};
            r.inst = jumps[rng.nextBounded(3)];
            r.isJump = true;
            r.taken = true;
            r.nextPc = 0x1000 + instBytes * rng.nextBounded(16);
            break;
          }
          default:
            break;
        }
        r.op = r.inst->op;
        if (!r.isStore && !r.isBranch) {
            const bool fp = r.cls == InstClass::FpAlu ||
                            r.cls == InstClass::FpMult ||
                            r.cls == InstClass::FpDiv;
            (fp ? r.wroteFp : r.wroteInt) = true;
        }
        const std::uint64_t pin = rng.nextBounded(4) ? seg : mem::noPin;
        const cpu::CommitTiming k = kernel.advance(r, pin, seg);
        const cpu::CommitTiming e = ref.advance(r, pin, seg);
        ASSERT_EQ(k.commitAt, e.commitAt);
        ASSERT_EQ(k.l1dHit, e.l1dHit);
        ASSERT_EQ(k.mispredicted, e.mispredicted);
        ASSERT_EQ(k.needsLineCopy, e.needsLineCopy);
        ASSERT_EQ(kernel.now(), ref.now());
        mispredicts += k.mispredicted;
        copies += k.needsLineCopy;
    }
    EXPECT_EQ(kernel_stalls, ref_stalls);
    EXPECT_GT(kernel_stalls, 50u);  // the resolver retuned mid-record
    EXPECT_GT(mispredicts, 1000u);
    EXPECT_GT(copies, 500u);
}

} // namespace
