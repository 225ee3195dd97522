/**
 * @file
 * Fault-injection framework tests: geometric inter-arrival behaviour,
 * per-kind event targeting, and the undervolt error-rate model.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "faults/fault_model.hh"
#include "faults/undervolt_model.hh"

namespace
{

using namespace paradox;
using namespace paradox::faults;

isa::Instruction
makeInst(isa::Opcode op)
{
    isa::Instruction inst;
    inst.op = op;
    inst.rd = 1;
    return inst;
}

TEST(FaultInjector, ZeroRateNeverFires)
{
    FaultConfig fc;
    fc.kind = FaultKind::RegisterBitFlip;
    fc.rate = 0.0;
    FaultInjector injector(fc);
    auto inst = makeInst(isa::Opcode::ADD);
    for (int i = 0; i < 100000; ++i)
        EXPECT_FALSE(injector.onInstruction(inst, true).fires);
    EXPECT_EQ(injector.fired(), 0u);
}

TEST(FaultInjector, RateOneFiresEveryEvent)
{
    FaultConfig fc;
    fc.kind = FaultKind::RegisterBitFlip;
    fc.rate = 1.0;
    FaultInjector injector(fc);
    auto inst = makeInst(isa::Opcode::ADD);
    for (int i = 0; i < 100; ++i)
        EXPECT_TRUE(injector.onInstruction(inst, true).fires);
}

TEST(FaultInjector, ObservedRateMatchesConfigured)
{
    FaultConfig fc;
    fc.kind = FaultKind::RegisterBitFlip;
    fc.rate = 0.01;
    FaultInjector injector(fc);
    auto inst = makeInst(isa::Opcode::ADD);
    const int n = 200000;
    int fires = 0;
    for (int i = 0; i < n; ++i)
        fires += injector.onInstruction(inst, true).fires;
    EXPECT_NEAR(double(fires) / n, 0.01, 0.002);
}

TEST(FaultInjector, FunctionalUnitTargetsClassOnly)
{
    FaultConfig fc;
    fc.kind = FaultKind::FunctionalUnit;
    fc.targetClass = isa::InstClass::IntDiv;
    fc.rate = 1.0;
    FaultInjector injector(fc);
    EXPECT_FALSE(
        injector.onInstruction(makeInst(isa::Opcode::ADD), true).fires);
    EXPECT_TRUE(
        injector.onInstruction(makeInst(isa::Opcode::DIV), true).fires);
}

TEST(FaultInjector, FunctionalUnitSkipsDiscardedInstructions)
{
    FaultConfig fc;
    fc.kind = FaultKind::FunctionalUnit;
    fc.targetClass = isa::InstClass::IntAlu;
    fc.rate = 1.0;
    FaultInjector injector(fc);
    // "No error is injected if no register is touched" -- but the
    // event still consumes the gap.
    auto hit = injector.onInstruction(makeInst(isa::Opcode::ADD),
                                      /*wrote_reg=*/false);
    EXPECT_FALSE(hit.fires);
}

TEST(FaultInjector, LogInjectorIgnoresInstructions)
{
    FaultConfig fc;
    fc.kind = FaultKind::LogBitFlip;
    fc.rate = 1.0;
    FaultInjector injector(fc);
    EXPECT_FALSE(
        injector.onInstruction(makeInst(isa::Opcode::ADD), true).fires);
    EXPECT_TRUE(injector.onLogEntry(true).fires);
}

TEST(FaultInjector, LogTargetingRespectsLoadStoreSelection)
{
    FaultConfig fc;
    fc.kind = FaultKind::LogBitFlip;
    fc.rate = 1.0;
    fc.targetLoads = true;
    fc.targetStores = false;
    FaultInjector injector(fc);
    EXPECT_TRUE(injector.onLogEntry(true).fires);
    EXPECT_FALSE(injector.onLogEntry(false).fires);
}

TEST(FaultInjector, BitsCoverWholeWord)
{
    FaultConfig fc;
    fc.kind = FaultKind::LogBitFlip;
    fc.rate = 1.0;
    FaultInjector injector(fc);
    std::uint64_t seen = 0;
    for (int i = 0; i < 4000; ++i) {
        auto hit = injector.onLogEntry(true);
        ASSERT_TRUE(hit.fires);
        ASSERT_LT(hit.bit, 64u);
        seen |= std::uint64_t(1) << hit.bit;
    }
    EXPECT_EQ(seen, ~std::uint64_t(0));
}

TEST(FaultInjector, ResetReplaysIdenticalSequence)
{
    FaultConfig fc;
    fc.kind = FaultKind::RegisterBitFlip;
    fc.rate = 0.05;
    FaultInjector a(fc);
    auto inst = makeInst(isa::Opcode::ADD);
    std::vector<bool> first;
    for (int i = 0; i < 1000; ++i)
        first.push_back(a.onInstruction(inst, true).fires);
    a.reset();
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.onInstruction(inst, true).fires, first[i]) << i;
}

/** One targeted event of @p injector's kind. */
FaultHit
fireEvent(FaultInjector &injector, std::uint64_t index)
{
    if (injector.kind() == FaultKind::LogBitFlip)
        return injector.onLogEntry(index % 3 != 0, index);
    return injector.onInstruction(makeInst(isa::Opcode::ADD), true);
}

TEST(FaultInjector, SkipEventsMatchesPerEventStepping)
{
    // An injector that skips up to quietEvents() at a time and steps
    // the rest must reproduce pure per-event stepping: the same
    // firing events at the same sites, the same fire count.
    for (const Persistence persistence :
         {Persistence::Transient, Persistence::Intermittent,
          Persistence::Permanent}) {
        for (const FaultKind kind :
             {FaultKind::RegisterBitFlip, FaultKind::FunctionalUnit,
              FaultKind::LogBitFlip}) {
            FaultConfig fc;
            fc.kind = kind;
            fc.rate = 0.01;
            fc.seed = 17;
            fc.persistence = persistence;
            fc.burstLength = 8;
            FaultInjector stepped(fc), skipping(fc);
            Rng pick(3);
            const std::uint64_t events = 20000;
            std::uint64_t skipped = 0;
            for (std::uint64_t e = 0; e < events;) {
                const std::uint64_t quiet = skipping.quietEvents();
                if (quiet > 0) {
                    // Skip all of the quiet run, or a random part.
                    std::uint64_t k = std::min(quiet, events - e);
                    if (pick.chance(0.5))
                        k = 1 + pick.nextBounded(k);
                    skipping.skipEvents(k);
                    for (std::uint64_t i = 0; i < k; ++i)
                        ASSERT_FALSE(fireEvent(stepped, e + i).fires)
                            << "a skipped event fired at " << e + i;
                    e += k;
                    skipped += k;
                    continue;
                }
                const FaultHit want = fireEvent(stepped, e);
                const FaultHit got = fireEvent(skipping, e);
                ASSERT_EQ(got.fires, want.fires) << "event " << e;
                EXPECT_EQ(got.bit, want.bit) << "event " << e;
                EXPECT_EQ(got.regIndex, want.regIndex) << "event " << e;
                ++e;
            }
            EXPECT_EQ(skipping.fired(), stepped.fired());
            EXPECT_EQ(skipping.latched(), stepped.latched());
            EXPECT_GT(stepped.fired(), 0u);
            // A permanent source stops skipping once it latches.
            EXPECT_GT(skipped, persistence == Persistence::Permanent
                                   ? 0
                                   : events / 2);
        }
    }
}

TEST(FaultInjector, QuietEventsBoundsEachState)
{
    FaultConfig fc;
    fc.kind = FaultKind::RegisterBitFlip;
    fc.rate = 0.0;
    EXPECT_EQ(FaultInjector(fc).quietEvents(), FaultInjector::unbounded);

    // A latched permanent source must see every event.
    fc.rate = 1.0;
    fc.persistence = Persistence::Permanent;
    FaultInjector stuck(fc);
    EXPECT_EQ(stuck.quietEvents(), 0u);
    ASSERT_TRUE(stuck.onInstruction(makeInst(isa::Opcode::ADD), true)
                    .fires);
    EXPECT_TRUE(stuck.latched());
    EXPECT_TRUE(stuck.stepsEveryEvent());
    EXPECT_EQ(stuck.quietEvents(), 0u);

    // Pinned to checker 2: unbounded while another checker replays,
    // latched again once checker 2 does.
    fc.targetChecker = 2;
    FaultInjector pinned(fc);
    pinned.setActiveChecker(2);
    ASSERT_TRUE(pinned.onInstruction(makeInst(isa::Opcode::ADD), true)
                    .fires);
    pinned.setActiveChecker(0);
    EXPECT_EQ(pinned.quietEvents(), FaultInjector::unbounded);
    EXPECT_FALSE(pinned.stepsEveryEvent());
    pinned.setActiveChecker(2);
    EXPECT_EQ(pinned.quietEvents(), 0u);

    // An open burst is stepped event by event.
    fc.targetChecker = -1;
    fc.persistence = Persistence::Intermittent;
    FaultInjector burst(fc);
    ASSERT_TRUE(burst.onInstruction(makeInst(isa::Opcode::ADD), true)
                    .fires);
    EXPECT_TRUE(burst.stepsEveryEvent());
    EXPECT_EQ(burst.quietEvents(), 0u);

    // Chip mode consults the weak-cell map on every event.
    ChipConfig cc;
    ChipModel chip(cc);
    fc.rate = 0.0;
    fc.persistence = Persistence::Transient;
    FaultInjector mapped(fc);
    mapped.attachChip(&chip);
    EXPECT_EQ(mapped.quietEvents(), 0u);
    EXPECT_TRUE(mapped.stepsEveryEvent());
}

TEST(FaultPlan, UniformPlanHasBothSources)
{
    FaultPlan plan = uniformPlan(1e-4, 9);
    ASSERT_EQ(plan.injectors().size(), 2u);
    EXPECT_EQ(plan.injectors()[0].kind(), FaultKind::RegisterBitFlip);
    EXPECT_EQ(plan.injectors()[1].kind(), FaultKind::LogBitFlip);
}

TEST(FaultPlan, SetAllRatesRetunes)
{
    FaultPlan plan = uniformPlan(1e-4, 9);
    plan.setAllRates(0.5);
    for (const auto &injector : plan.injectors())
        EXPECT_DOUBLE_EQ(injector.rate(), 0.5);
}

TEST(UndervoltModel, MonotoneDecreasingInVoltage)
{
    UndervoltErrorModel model;
    double prev = 1.1;
    for (double v = 0.70; v <= 1.10; v += 0.01) {
        double rate = model.perInstructionRate(v);
        EXPECT_LE(rate, prev);
        prev = rate;
    }
}

TEST(UndervoltModel, FloorSaturatesAtOne)
{
    UndervoltErrorModel model;
    EXPECT_DOUBLE_EQ(model.perInstructionRate(0.70), 1.0);
    EXPECT_DOUBLE_EQ(model.perInstructionRate(0.50), 1.0);
}

TEST(UndervoltModel, NominalIsNegligible)
{
    UndervoltErrorModel model;
    EXPECT_LT(model.perInstructionRate(1.1), 1e-12);
}

TEST(UndervoltModel, InverseRoundTrips)
{
    UndervoltErrorModel model;
    for (double rate : {1e-3, 1e-5, 1e-8}) {
        double v = model.voltageForRate(rate);
        EXPECT_NEAR(model.perInstructionRate(v), rate, rate * 1e-6);
    }
}

TEST(FaultConfig, ValidationRejectsMalformedParameters)
{
    FaultConfig good;
    EXPECT_NO_THROW(good.validate());

    FaultConfig fc = good;
    fc.rate = -0.1;
    EXPECT_THROW(fc.validate(), std::invalid_argument);
    fc.rate = 1.5;
    EXPECT_THROW(fc.validate(), std::invalid_argument);

    fc = good;
    fc.burstBias = 1.5;
    EXPECT_THROW(fc.validate(), std::invalid_argument);

    fc = good;
    fc.burstLength = 0;
    EXPECT_THROW(fc.validate(), std::invalid_argument);

    fc = good;
    fc.targetChecker = -2;
    EXPECT_THROW(fc.validate(), std::invalid_argument);

    // The injector validates at construction, so a malformed config
    // cannot even be instantiated, let alone run.
    EXPECT_THROW(FaultInjector{fc}, std::invalid_argument);
}

TEST(ChipModel, SameSeedYieldsIdenticalMap)
{
    ChipConfig cc;
    cc.chipSeed = 42;
    ChipModel a(cc), b(cc);
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
    EXPECT_EQ(a.toJson(), b.toJson());
    ASSERT_EQ(a.cells().size(), b.cells().size());
}

TEST(ChipModel, DifferentSeedsYieldDistinctMaps)
{
    ChipConfig cc;
    cc.chipSeed = 1;
    ChipModel a(cc);
    cc.chipSeed = 2;
    ChipModel b(cc);
    EXPECT_NE(a.fingerprint(), b.fingerprint());
    EXPECT_NE(a.toJson(), b.toJson());
}

TEST(ChipModel, MapIsWellFormed)
{
    ChipConfig cc;
    cc.chipSeed = 7;
    cc.weakCells = 96;
    ChipModel chip(cc);
    ASSERT_EQ(chip.cells().size(), cc.weakCells);

    std::size_t partitioned = 0;
    for (int core = -1; core < int(cc.checkerCount); ++core)
        for (SiteKind kind :
             {SiteKind::RegisterBit, SiteKind::LogRow,
              SiteKind::FunctionalUnit})
            partitioned += chip.cellsFor(core, kind).size();
    EXPECT_EQ(partitioned, chip.cells().size());

    for (const WeakCell &cell : chip.cells()) {
        EXPECT_GE(cell.core, -1);
        EXPECT_LT(cell.core, int(cc.checkerCount));
        EXPECT_LT(cell.bit, 64u);
        EXPECT_GE(cell.vmin, cc.shape.vFloor +
                                 chip.coreVminOffset(cell.core));
        switch (cell.kind) {
          case SiteKind::RegisterBit:
            EXPECT_LT(cell.index, cc.regCount);
            break;
          case SiteKind::LogRow:
            EXPECT_LT(cell.index, cc.logRows);
            break;
          case SiteKind::FunctionalUnit:
            EXPECT_LT(cell.index, cc.unitCount);
            break;
        }
    }
}

TEST(ChipModel, FlipProbabilityAnchorsAtCellVmin)
{
    ChipConfig cc;
    cc.chipSeed = 11;
    ChipModel chip(cc);
    const WeakCell &cell = chip.cells().front();

    EXPECT_DOUBLE_EQ(chip.flipProbability(cell, cell.vmin), 1.0);
    EXPECT_DOUBLE_EQ(chip.flipProbability(cell, cell.vmin - 0.05),
                     1.0);
    double prev = 1.0;
    for (double dv = 0.005; dv <= 0.2; dv += 0.005) {
        double p = chip.flipProbability(cell, cell.vmin + dv);
        EXPECT_LE(p, prev);
        prev = p;
    }
    EXPECT_LT(chip.flipProbability(cell, cc.shape.vNominal), 1e-12);
}

TEST(FaultInjector, ChipModeStuckAtReportsSite)
{
    ChipConfig cc;
    cc.chipSeed = 5;
    cc.weakCells = 256; // dense map: every domain draws cells
    ChipModel chip(cc);

    // Find a checker domain owning a register-file weak cell.
    int core = -1;
    for (int c = 0; c < int(cc.checkerCount); ++c)
        if (!chip.cellsFor(c, SiteKind::RegisterBit).empty()) {
            core = c;
            break;
        }
    ASSERT_GE(core, 0) << "dense map has no register cells at all";

    FaultConfig fc;
    fc.kind = FaultKind::RegisterBitFlip;
    fc.seed = 99;
    FaultInjector injector(fc);
    injector.attachChip(&chip);
    injector.setVoltage(0.60); // far below every cell's Vmin: p == 1
    injector.setActiveChecker(core);

    FaultHit hit = injector.onInstruction(makeInst(isa::Opcode::ADD),
                                          true);
    ASSERT_TRUE(hit.fires);
    EXPECT_TRUE(hit.hasStuck);
    ASSERT_GE(hit.site, 0);
    const WeakCell &cell = chip.cells()[unsigned(hit.site)];
    EXPECT_EQ(cell.core, core);
    EXPECT_EQ(cell.kind, SiteKind::RegisterBit);
    EXPECT_EQ(hit.stuckValue, cell.stuckValue);
    EXPECT_EQ(hit.bit, cell.bit);
    EXPECT_EQ(injector.weakCellHits(), 1u);
}

TEST(FaultInjector, ChipModePermanentLatchPinsSite)
{
    ChipConfig cc;
    cc.chipSeed = 5;
    cc.weakCells = 256;
    ChipModel chip(cc);

    int core = -1;
    for (int c = 0; c < int(cc.checkerCount); ++c)
        if (!chip.cellsFor(c, SiteKind::RegisterBit).empty()) {
            core = c;
            break;
        }
    ASSERT_GE(core, 0);

    FaultConfig fc;
    fc.kind = FaultKind::RegisterBitFlip;
    fc.persistence = Persistence::Permanent;
    fc.seed = 99;
    FaultInjector injector(fc);
    injector.attachChip(&chip);
    injector.setVoltage(0.60);
    injector.setActiveChecker(core);

    auto inst = makeInst(isa::Opcode::ADD);
    FaultHit first = injector.onInstruction(inst, true);
    ASSERT_TRUE(first.fires);
    for (int i = 0; i < 50; ++i) {
        FaultHit hit = injector.onInstruction(inst, true);
        ASSERT_TRUE(hit.fires);
        EXPECT_EQ(hit.site, first.site)
            << "permanent latch wandered off its pinned cell";
        EXPECT_EQ(hit.bit, first.bit);
        EXPECT_EQ(hit.stuckValue, first.stuckValue);
    }
    EXPECT_TRUE(injector.latched());

    // The latch is a Vmin violation, not physical damage: back at
    // nominal voltage the pinned site goes quiet again.
    injector.setVoltage(cc.shape.vNominal);
    for (int i = 0; i < 1000; ++i)
        EXPECT_FALSE(injector.onInstruction(inst, true).fires);
}

TEST(FaultInjector, ChipModeQuietAtNominalVoltage)
{
    ChipConfig cc;
    cc.chipSeed = 5;
    cc.weakCells = 256;
    ChipModel chip(cc);

    FaultConfig fc;
    fc.kind = FaultKind::RegisterBitFlip;
    fc.seed = 99;
    FaultInjector injector(fc);
    injector.attachChip(&chip);
    injector.setVoltage(cc.shape.vNominal);

    auto inst = makeInst(isa::Opcode::ADD);
    for (int core = 0; core < int(cc.checkerCount); ++core) {
        injector.setActiveChecker(core);
        for (int i = 0; i < 200; ++i)
            EXPECT_FALSE(injector.onInstruction(inst, true).fires);
    }
    EXPECT_EQ(injector.weakCellHits(), 0u);
}

} // namespace
