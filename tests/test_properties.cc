/**
 * @file
 * Property tests across module boundaries:
 *
 *  - differential fuzzing: randomly generated (control-flow-safe)
 *    programs, executed on the main path, must replay cleanly on the
 *    checker path with zero faults, for any segmentation;
 *  - rollback-granularity equivalence: word-by-word undo (ParaMedic)
 *    and line-copy restore (ParaDox) must produce bit-identical
 *    memory images under identical fault streams;
 *  - segmentation invariance: the functional result of a run is
 *    independent of checkpoint lengths, checker counts and modes.
 */

#include <gtest/gtest.h>

#include "core/system.hh"
#include "isa/builder.hh"
#include "isa/executor.hh"
#include "sim/rng.hh"
#include "workloads/workload.hh"

namespace
{

using namespace paradox;
using namespace paradox::isa;

/**
 * Generate a random but well-formed program: straight-line blocks of
 * random ALU/FP/memory ops over a bounded data window, joined by a
 * counted loop so execution is guaranteed to terminate.
 */
Program
randomProgram(std::uint64_t seed, unsigned block_len, unsigned iters)
{
    Rng rng(seed);
    ProgramBuilder b("fuzz");
    constexpr Addr window = 0x40000;  // data window base
    constexpr unsigned window_words = 256;

    // Seed registers and a few data words.
    for (unsigned i = 1; i <= 8; ++i)
        b.ldi(XReg{i}, rng.next());
    for (unsigned i = 0; i < window_words; ++i)
        b.data64(window + i * 8, rng.next());
    b.ldi(XReg{20}, window);
    b.ldi(XReg{21}, iters);

    b.label("loop");
    for (unsigned i = 0; i < block_len; ++i) {
        XReg rd{1 + unsigned(rng.nextBounded(8))};
        XReg ra{1 + unsigned(rng.nextBounded(8))};
        XReg rb{1 + unsigned(rng.nextBounded(8))};
        switch (rng.nextBounded(12)) {
          case 0: b.add(rd, ra, rb); break;
          case 1: b.sub(rd, ra, rb); break;
          case 2: b.xor_(rd, ra, rb); break;
          case 3: b.mul(rd, ra, rb); break;
          case 4: b.div(rd, ra, rb); break;
          case 5: b.srli(rd, ra, unsigned(rng.nextBounded(63)) + 1);
            break;
          case 6: b.slt(rd, ra, rb); break;
          case 7: {
            // Bounded load: addr = window + (ra & mask)*8.
            b.andi(XReg{9}, ra, window_words - 1);
            b.slli(XReg{9}, XReg{9}, 3);
            b.add(XReg{9}, XReg{9}, XReg{20});
            b.ld(rd, XReg{9}, 0);
            break;
          }
          case 8: {
            // Bounded store.
            b.andi(XReg{9}, ra, window_words - 1);
            b.slli(XReg{9}, XReg{9}, 3);
            b.add(XReg{9}, XReg{9}, XReg{20});
            b.sd(rb, XReg{9}, 0);
            break;
          }
          case 9: {
            b.fmvDX(FReg{1}, ra);
            b.fmvDX(FReg{2}, rb);
            b.fmul(FReg{3}, FReg{1}, FReg{2});
            b.fmvXD(rd, FReg{3});
            break;
          }
          case 10: b.mulh(rd, ra, rb); break;
          default: b.remu(rd, ra, rb); break;
        }
    }
    b.addi(XReg{21}, XReg{21}, -1);
    b.bne(XReg{21}, xzero, "loop");
    // Fold registers into the result address.
    b.ldi(XReg{10}, workloads::resultAddr);
    b.ldi(XReg{11}, 0);
    for (unsigned i = 1; i <= 8; ++i)
        b.xor_(XReg{11}, XReg{11}, XReg{i});
    b.sd(XReg{11}, XReg{10}, 0);
    b.halt();
    return b.build();
}

class FuzzedProgram : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(FuzzedProgram, FaultFreeCheckingNeverFalselyDetects)
{
    Program prog = randomProgram(GetParam(), 40, 200);
    core::SystemConfig config =
        core::SystemConfig::forMode(core::Mode::ParaDox);
    // Stress segmentation with a small window.
    config.checkpointAimd.initial = 64;
    config.checkpointAimd.maxLength = 256;
    core::System system(config, prog);
    core::RunResult r = system.run();
    ASSERT_TRUE(r.halted);
    EXPECT_EQ(r.errorsDetected, 0u)
        << "false detection on fault-free fuzz seed " << GetParam();
}

TEST_P(FuzzedProgram, FaultedRunMatchesBaseline)
{
    Program prog = randomProgram(GetParam(), 40, 200);

    core::SystemConfig base =
        core::SystemConfig::forMode(core::Mode::Baseline);
    core::System base_sys(base, prog);
    core::RunResult rb = base_sys.run();
    ASSERT_TRUE(rb.halted);

    core::SystemConfig config =
        core::SystemConfig::forMode(core::Mode::ParaDox);
    config.seed = GetParam();
    core::System system(config, prog);
    system.setFaultPlan(faults::uniformPlan(1e-3, GetParam() * 7 + 1));
    core::RunLimits limits;
    limits.maxExecuted = 60'000'000;
    core::RunResult r = system.run(limits);
    ASSERT_TRUE(r.halted);
    EXPECT_EQ(r.finalState, rb.finalState);
    EXPECT_EQ(r.memoryFingerprint, rb.memoryFingerprint);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzedProgram,
                         ::testing::Range<std::uint64_t>(1, 13));

/**
 * Escalation-ladder property: a *permanent* fault pinned to a single
 * checker, at any rate and seed, must never corrupt the final state
 * -- the run ends bit-identical to the fault-free golden run -- and
 * once the fault has latched, the defective checker is eventually
 * quarantined.
 */
TEST_P(FuzzedProgram, PermanentSingleCheckerFaultIsContained)
{
    const std::uint64_t seed = GetParam();
    Program prog = randomProgram(seed, 40, 200);

    core::SystemConfig base =
        core::SystemConfig::forMode(core::Mode::Baseline);
    core::System base_sys(base, prog);
    core::RunResult golden = base_sys.run();
    ASSERT_TRUE(golden.halted);

    const double rate = seed % 2 ? 1e-3 : 1e-4;
    core::SystemConfig config =
        core::SystemConfig::forMode(core::Mode::ParaDox);
    config.seed = seed;
    config.enableEscalation();
    core::System system(config, prog);
    system.setFaultPlan(faults::uniformPlan(
        rate, seed * 13 + 5, faults::Persistence::Permanent, 0));
    core::RunLimits limits;
    limits.maxExecuted = 60'000'000;
    core::RunResult r = system.run(limits);

    ASSERT_TRUE(r.halted) << "seed " << seed;
    EXPECT_EQ(r.finalState, golden.finalState) << "seed " << seed;
    EXPECT_EQ(r.memoryFingerprint, golden.memoryFingerprint)
        << "seed " << seed;
    // If the fault ever latched, the checker must have detected at
    // least once; once detections cluster it is retired.  (At low
    // rates the fault may never latch in a short run -- containment
    // is the invariant, quarantine is conditional on detections.)
    if (r.quarantines > 0) {
        EXPECT_TRUE(system.checkerScheduler().quarantined(0))
            << "seed " << seed;
        EXPECT_EQ(r.healthyCheckers, config.checkers.count - 1)
            << "seed " << seed;
    }
    if (r.errorsDetected >= 3) {
        EXPECT_GE(r.quarantines, 1u) << "seed " << seed;
    }
}

TEST(RollbackEquivalence, WordAndLineGranularityAgree)
{
    // Same workload, same fault stream; only the rollback mechanism
    // differs.  Both must land on the exact fault-free image.
    auto w = workloads::build("gcc", 1);
    std::uint64_t fingerprints[2];
    isa::ArchState states[2];
    int idx = 0;
    for (bool line_granularity : {false, true}) {
        core::SystemConfig config =
            core::SystemConfig::forMode(core::Mode::ParaDox);
        config.lineGranularityRollback = line_granularity;
        core::System system(config, w.program);
        system.setFaultPlan(faults::uniformPlan(5e-4, 99));
        core::RunLimits limits;
        limits.maxExecuted = 60'000'000;
        core::RunResult r = system.run(limits);
        EXPECT_TRUE(r.halted);
        EXPECT_GT(r.rollbacks, 0u);
        fingerprints[idx] = r.memoryFingerprint;
        states[idx] = r.finalState;
        ++idx;
    }
    EXPECT_EQ(fingerprints[0], fingerprints[1]);
    EXPECT_EQ(states[0], states[1]);
}

TEST(SegmentationInvariance, ResultIndependentOfCheckpointLength)
{
    auto w = workloads::build("sjeng", 1);
    std::uint64_t expect = w.expectedResult;
    for (unsigned max_len : {64u, 300u, 1000u, 5000u}) {
        core::SystemConfig config =
            core::SystemConfig::forMode(core::Mode::ParaDox);
        config.checkpointAimd.initial = max_len;
        config.checkpointAimd.maxLength = max_len;
        core::System system(config, w.program);
        core::RunResult r = system.run();
        ASSERT_TRUE(r.halted) << max_len;
        EXPECT_EQ(system.memory().read(workloads::resultAddr, 8),
                  expect)
            << max_len;
        EXPECT_EQ(r.errorsDetected, 0u) << max_len;
    }
}

TEST(SegmentationInvariance, ResultIndependentOfCheckerCount)
{
    auto w = workloads::build("omnetpp", 1);
    for (unsigned checkers : {1u, 2u, 5u, 16u, 32u}) {
        core::SystemConfig config =
            core::SystemConfig::forMode(core::Mode::ParaDox);
        config.checkers.count = checkers;
        core::System system(config, w.program);
        system.setFaultPlan(faults::uniformPlan(2e-4, 55));
        core::RunLimits limits;
        limits.maxExecuted = 80'000'000;
        core::RunResult r = system.run(limits);
        ASSERT_TRUE(r.halted) << checkers;
        EXPECT_EQ(system.memory().read(workloads::resultAddr, 8),
                  w.expectedResult)
            << checkers;
    }
}

TEST(SegmentationInvariance, TinyLogSegmentsStillWork)
{
    auto w = workloads::build("stream", 1);
    core::SystemConfig config =
        core::SystemConfig::forMode(core::Mode::ParaDox);
    config.log.segmentBytes = 512;  // absurdly small log
    core::System system(config, w.program);
    core::RunResult r = system.run();
    ASSERT_TRUE(r.halted);
    EXPECT_EQ(system.memory().read(workloads::resultAddr, 8),
              w.expectedResult);
    EXPECT_EQ(r.errorsDetected, 0u);
}

} // namespace
