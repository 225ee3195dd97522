/**
 * @file
 * Fault-escalation ladder tests: persistence classes of the fault
 * injectors, per-checker health tracking and quarantine, retry
 * re-verification, panic voltage resets, the forward-progress
 * watchdog, the DUE machine-check path, and the lifted checker
 * timeout factor.
 */

#include <gtest/gtest.h>

#include <regex>
#include <sstream>
#include <string>

#include "core/scheduler.hh"
#include "core/system.hh"
#include "isa/builder.hh"
#include "workloads/workload.hh"

namespace
{

using namespace paradox;
using namespace paradox::isa;

constexpr XReg r1{1}, r2{2}, r3{3};

isa::Instruction
makeInst(isa::Opcode op)
{
    isa::Instruction inst;
    inst.op = op;
    inst.rd = 1;
    return inst;
}

// ---------------------------------------------------------------- //
// Injector persistence classes.                                    //
// ---------------------------------------------------------------- //

TEST(Persistence, NamesRoundTrip)
{
    using faults::Persistence;
    for (Persistence p : {Persistence::Transient,
                          Persistence::Intermittent,
                          Persistence::Permanent}) {
        Persistence out;
        ASSERT_TRUE(
            faults::parsePersistence(faults::persistenceName(p), out));
        EXPECT_EQ(out, p);
    }
    faults::Persistence out;
    EXPECT_FALSE(faults::parsePersistence("sticky", out));
}

TEST(Persistence, PermanentLatchesAStuckSite)
{
    faults::FaultConfig fc;
    fc.kind = faults::FaultKind::RegisterBitFlip;
    fc.rate = 0.01;
    fc.persistence = faults::Persistence::Permanent;
    fc.seed = 5;
    faults::FaultInjector injector(fc);
    auto inst = makeInst(isa::Opcode::ADD);

    // Run until the first firing latches the fault.
    faults::FaultHit first;
    for (int i = 0; i < 100000 && !first.fires; ++i)
        first = injector.onInstruction(inst, true);
    ASSERT_TRUE(first.fires);
    EXPECT_TRUE(injector.latched());

    // From now on every event fires, always at the same location.
    for (int i = 0; i < 1000; ++i) {
        faults::FaultHit hit = injector.onInstruction(inst, true);
        ASSERT_TRUE(hit.fires);
        EXPECT_EQ(hit.bit, first.bit);
        EXPECT_EQ(hit.regIndex, first.regIndex);
    }
}

TEST(Persistence, IntermittentBurstsShareOneSite)
{
    faults::FaultConfig fc;
    fc.kind = faults::FaultKind::RegisterBitFlip;
    fc.rate = 0.005;
    fc.persistence = faults::Persistence::Intermittent;
    fc.burstLength = 12;
    fc.burstBias = 1.0;  // deterministic inside the burst
    fc.seed = 9;
    faults::FaultInjector injector(fc);
    auto inst = makeInst(isa::Opcode::ADD);

    faults::FaultHit first;
    for (int i = 0; i < 100000 && !first.fires; ++i)
        first = injector.onInstruction(inst, true);
    ASSERT_TRUE(first.fires);
    EXPECT_FALSE(injector.latched());

    // The next burstLength events all fire at the burst's site.
    for (unsigned i = 0; i < fc.burstLength; ++i) {
        faults::FaultHit hit = injector.onInstruction(inst, true);
        ASSERT_TRUE(hit.fires) << i;
        EXPECT_EQ(hit.bit, first.bit);
        EXPECT_EQ(hit.regIndex, first.regIndex);
    }
}

TEST(Persistence, PinnedInjectorIgnoresOtherCheckers)
{
    faults::FaultConfig fc;
    fc.kind = faults::FaultKind::RegisterBitFlip;
    fc.rate = 1.0;
    fc.targetChecker = 2;
    faults::FaultInjector injector(fc);
    auto inst = makeInst(isa::Opcode::ADD);

    injector.setActiveChecker(0);
    for (int i = 0; i < 1000; ++i)
        EXPECT_FALSE(injector.onInstruction(inst, true).fires);
    EXPECT_EQ(injector.fired(), 0u);

    injector.setActiveChecker(2);
    EXPECT_TRUE(injector.onInstruction(inst, true).fires);
}

// ---------------------------------------------------------------- //
// Scheduler health tracking.                                       //
// ---------------------------------------------------------------- //

TEST(SchedulerHealth, ClusteredStrikesQuarantine)
{
    core::CheckerScheduler sched(4, core::SchedPolicy::LowestFreeId,
                                 0);
    sched.setHealthParams(core::HealthParams{true, 3, 8});
    EXPECT_FALSE(sched.recordOutcome(1, true));
    EXPECT_FALSE(sched.recordOutcome(1, true));
    EXPECT_EQ(sched.strikeCount(1), 2u);
    EXPECT_TRUE(sched.recordOutcome(1, true));  // third strike
    EXPECT_TRUE(sched.quarantined(1));
    EXPECT_EQ(sched.healthyCount(), 3u);
    // A retired checker never reports quarantine again.
    EXPECT_FALSE(sched.recordOutcome(1, true));
}

TEST(SchedulerHealth, QuarantinedCheckerIsNeverAllocated)
{
    core::CheckerScheduler sched(3, core::SchedPolicy::LowestFreeId,
                                 0);
    sched.setHealthParams(core::HealthParams{true, 1, 8});
    EXPECT_TRUE(sched.recordOutcome(0, true));
    for (int round = 0; round < 4; ++round) {
        int a = sched.allocate(0);
        int b = sched.allocate(0);
        ASSERT_GE(a, 0);
        ASSERT_GE(b, 0);
        EXPECT_NE(a, 0);
        EXPECT_NE(b, 0);
        EXPECT_LT(sched.allocate(0), 0);  // pool exhausted, not 0
        sched.release(unsigned(a), 10);
        sched.release(unsigned(b), 10);
    }
}

TEST(SchedulerHealth, CleanReplaysSlideStrikesOutOfTheWindow)
{
    core::CheckerScheduler sched(4, core::SchedPolicy::RoundRobin, 0);
    sched.setHealthParams(core::HealthParams{true, 3, 4});
    // Two strikes, then enough clean replays to expire them, then two
    // more: never three in any window of four.
    for (int burst = 0; burst < 5; ++burst) {
        EXPECT_FALSE(sched.recordOutcome(2, true));
        EXPECT_FALSE(sched.recordOutcome(2, true));
        for (int i = 0; i < 4; ++i)
            EXPECT_FALSE(sched.recordOutcome(2, false));
        EXPECT_EQ(sched.strikeCount(2), 0u);
    }
    EXPECT_FALSE(sched.quarantined(2));
}

TEST(SchedulerHealth, LastHealthyCheckerIsNeverQuarantined)
{
    core::CheckerScheduler sched(2, core::SchedPolicy::LowestFreeId,
                                 0);
    sched.setHealthParams(core::HealthParams{true, 1, 8});
    EXPECT_TRUE(sched.recordOutcome(0, true));
    for (int i = 0; i < 10; ++i)
        EXPECT_FALSE(sched.recordOutcome(1, true));
    EXPECT_FALSE(sched.quarantined(1));
    EXPECT_EQ(sched.healthyCount(), 1u);
    EXPECT_GE(sched.allocate(0), 0);
}

TEST(SchedulerHealth, DisabledPolicyOnlyRecords)
{
    core::CheckerScheduler sched(4, core::SchedPolicy::RoundRobin, 0);
    for (int i = 0; i < 20; ++i)
        EXPECT_FALSE(sched.recordOutcome(1, true));
    EXPECT_FALSE(sched.quarantined(1));
    EXPECT_EQ(sched.healthyCount(), 4u);
}

// ---------------------------------------------------------------- //
// Config validation / lifted timeout factor.                       //
// ---------------------------------------------------------------- //

TEST(ConfigValidation, RejectsInconsistentEscalationParams)
{
    core::SystemConfig config =
        core::SystemConfig::forMode(core::Mode::ParaDox);
    config.escalation.quarantineEnabled = true;
    config.escalation.strikesToQuarantine = 5;
    config.escalation.strikeWindow = 3;  // window < strikes
    auto w = workloads::build("bitcount", 1);
    EXPECT_EXIT({ core::System system(config, w.program); },
                ::testing::ExitedWithCode(1), "strikeWindow");
}

TEST(ConfigValidation, RejectsZeroCheckers)
{
    core::SystemConfig config =
        core::SystemConfig::forMode(core::Mode::ParaDox);
    config.checkers.count = 0;
    auto w = workloads::build("bitcount", 1);
    EXPECT_EXIT({ core::System system(config, w.program); },
                ::testing::ExitedWithCode(1), "checkers");
}

/** Cheap real path plus a wrong-path divide farm in the image. */
Program
farmProgram(unsigned iters)
{
    ProgramBuilder b("farm");
    b.ldi(r1, iters);
    b.label("loop");
    b.addi(r2, r2, 3);
    b.xor_(r3, r2, r1);
    b.addi(r1, r1, -1);
    b.bne(r1, xzero, "loop");
    b.ldi(XReg{10}, workloads::resultAddr);
    b.sd(r2, XReg{10}, 0);
    b.halt();
    b.label("divfarm");
    for (int i = 0; i < 120; ++i)
        b.fdiv(FReg{1}, FReg{2}, FReg{3});
    b.j("divfarm");
    return b.build();
}

/**
 * A checker whose pc is corrupted mid-replay can wander into the
 * divide farm and stall: the replay watchdog must convert that into a
 * Timeout detection, and the system must roll the segment back to the
 * golden image -- the run's final state is exactly the fault-free
 * one.
 */
TEST(ReplayTimeout, StuckReplayTripsWatchdogAndRollsBack)
{
    Program prog = farmProgram(4000);

    core::SystemConfig base =
        core::SystemConfig::forMode(core::Mode::Baseline);
    core::System base_sys(base, prog);
    core::RunResult golden = base_sys.run();
    ASSERT_TRUE(golden.halted);

    std::uint64_t timeouts = 0;
    for (std::uint64_t seed = 1; seed <= 6 && timeouts == 0; ++seed) {
        core::SystemConfig config =
            core::SystemConfig::forMode(core::Mode::ParaDox);
        config.seed = seed;
        core::System system(config, prog);
        faults::FaultConfig fc;
        fc.kind = faults::FaultKind::RegisterBitFlip;
        fc.targetCategory = isa::RegCategory::Misc;  // checker pc
        fc.rate = 2e-3;
        fc.seed = seed * 101 + 3;
        faults::FaultPlan plan;
        plan.add(fc);
        system.setFaultPlan(std::move(plan));

        core::RunLimits limits;
        limits.maxExecuted = 40'000'000;
        core::RunResult r = system.run(limits);
        ASSERT_TRUE(r.halted) << seed;
        EXPECT_EQ(r.finalState, golden.finalState) << seed;
        EXPECT_EQ(r.memoryFingerprint, golden.memoryFingerprint)
            << seed;
        EXPECT_GT(r.rollbacks, 0u) << seed;
        timeouts +=
            system.detectionCount(core::DetectReason::Timeout);
    }
    EXPECT_GT(timeouts, 0u)
        << "no seed produced a wandering-checker timeout";
}

TEST(ReplayTimeout, FactorZeroDisablesTheWatchdog)
{
    // With the lifted timeout factor set to 0 the watchdog budget is
    // unbounded; a legitimate run is unaffected.
    auto w = workloads::build("bitcount", 1);
    core::SystemConfig config =
        core::SystemConfig::forMode(core::Mode::ParaDox);
    config.checkerTimeoutFactor = 0;
    core::System system(config, w.program);
    core::RunResult r = system.run();
    ASSERT_TRUE(r.halted);
    EXPECT_EQ(r.errorsDetected, 0u);
    EXPECT_EQ(system.memory().read(workloads::resultAddr, 8),
              w.expectedResult);
}

// ---------------------------------------------------------------- //
// System-level escalation behaviour.                               //
// ---------------------------------------------------------------- //

TEST(Escalation, RetryVerifySavesTransientDetections)
{
    auto w = workloads::build("bitcount", 1);

    core::SystemConfig config =
        core::SystemConfig::forMode(core::Mode::ParaDox);
    config.enableEscalation();
    config.escalation.quarantineEnabled = false;  // isolate rung 1
    core::System system(config, w.program);
    system.setFaultPlan(faults::uniformPlan(5e-4, 77));
    core::RunLimits limits;
    limits.maxExecuted = 40'000'000;
    core::RunResult r = system.run(limits);

    ASSERT_TRUE(r.halted);
    EXPECT_EQ(system.memory().read(workloads::resultAddr, 8),
              w.expectedResult);
    EXPECT_GT(r.retryVerifies, 0u);
    EXPECT_GT(r.retrySaves, 0u);
    // Transient faults do not reproduce on the second checker, so
    // saves avoid rollbacks: strictly fewer rollbacks than detections.
    EXPECT_LT(r.rollbacks, r.errorsDetected);
    EXPECT_EQ(r.rollbacks, r.errorsDetected - r.retrySaves);
}

TEST(Escalation, PermanentPinnedFaultIsQuarantined)
{
    // The acceptance scenario: a permanent fault pinned to checker 0
    // at rate 1e-3.  The ladder must retire the defective checker and
    // both workloads must complete bit-identical to golden.
    for (const char *name : {"bitcount", "stream"}) {
        auto w = workloads::build(name, 1);

        core::SystemConfig base =
            core::SystemConfig::forMode(core::Mode::ParaDox);
        core::System golden_sys(base, w.program);
        core::RunResult golden = golden_sys.run();
        ASSERT_TRUE(golden.halted) << name;

        core::SystemConfig config =
            core::SystemConfig::forMode(core::Mode::ParaDox);
        config.enableEscalation();
        core::System system(config, w.program);
        system.setFaultPlan(faults::uniformPlan(
            1e-3, 42, faults::Persistence::Permanent, 0));
        core::RunLimits limits;
        limits.maxExecuted = 80'000'000;
        core::RunResult r = system.run(limits);

        ASSERT_TRUE(r.halted) << name;
        EXPECT_EQ(r.finalState, golden.finalState) << name;
        EXPECT_EQ(r.memoryFingerprint, golden.memoryFingerprint)
            << name;
        EXPECT_EQ(system.memory().read(workloads::resultAddr, 8),
                  w.expectedResult)
            << name;
        EXPECT_GE(r.quarantines, 1u) << name;
        EXPECT_TRUE(system.checkerScheduler().quarantined(0)) << name;
        EXPECT_EQ(r.healthyCheckers,
                  config.checkers.count - unsigned(r.quarantines))
            << name;
    }
}

TEST(Escalation, DegradesGracefullyToOneChecker)
{
    // Ambient permanent fault (every checker is defective): the pool
    // shrinks but the last checker survives and the run completes
    // correctly (its detections keep forcing rollbacks until the
    // stuck sites happen not to corrupt observable state -- or the
    // retry path re-verifies on the same last checker).
    auto w = workloads::build("bitcount", 1);
    core::SystemConfig config =
        core::SystemConfig::forMode(core::Mode::ParaDox);
    config.enableEscalation();
    config.checkers.count = 4;
    core::System system(config, w.program);
    // Intermittent ambient faults: bursts strike whichever checker
    // replays during the bad window.
    system.setFaultPlan(faults::uniformPlan(
        2e-3, 11, faults::Persistence::Intermittent, -1));
    core::RunLimits limits;
    limits.maxExecuted = 80'000'000;
    core::RunResult r = system.run(limits);
    ASSERT_TRUE(r.halted);
    EXPECT_EQ(system.memory().read(workloads::resultAddr, 8),
              w.expectedResult);
    EXPECT_GE(r.healthyCheckers, 1u);
}

TEST(Escalation, DisabledLadderMatchesClassicBehaviour)
{
    // With EscalationParams at defaults the new machinery must be
    // completely inert: identical counters to the seed behaviour.
    auto w = workloads::build("bitcount", 1);
    core::SystemConfig config =
        core::SystemConfig::forMode(core::Mode::ParaDox);
    core::System system(config, w.program);
    system.setFaultPlan(faults::uniformPlan(1e-3, 7));
    core::RunLimits limits;
    limits.maxExecuted = 40'000'000;
    core::RunResult r = system.run(limits);
    ASSERT_TRUE(r.halted);
    EXPECT_EQ(r.retryVerifies, 0u);
    EXPECT_EQ(r.retrySaves, 0u);
    EXPECT_EQ(r.quarantines, 0u);
    EXPECT_EQ(r.panicResets, 0u);
    EXPECT_EQ(r.watchdogTrips, 0u);
    EXPECT_EQ(r.healthyCheckers, 16u);
    EXPECT_EQ(r.rollbacks, r.errorsDetected);
}

TEST(Escalation, DueRollbackRecoversFromUncorrectableEcc)
{
    auto w = workloads::build("stream", 1);

    core::SystemConfig base =
        core::SystemConfig::forMode(core::Mode::ParaDox);
    core::System golden_sys(base, w.program);
    core::RunResult golden = golden_sys.run();
    ASSERT_TRUE(golden.halted);

    core::SystemConfig config =
        core::SystemConfig::forMode(core::Mode::ParaDox);
    config.memoryEccDueRate = 1e-4;  // dense, for test visibility
    core::System system(config, w.program);
    core::RunLimits limits;
    limits.maxExecuted = 40'000'000;
    core::RunResult r = system.run(limits);

    ASSERT_TRUE(r.halted);
    EXPECT_GT(r.dueRollbacks, 0u);
    EXPECT_EQ(r.finalState, golden.finalState);
    EXPECT_EQ(r.memoryFingerprint, golden.memoryFingerprint);
    EXPECT_EQ(system.memory().read(workloads::resultAddr, 8),
              w.expectedResult);
}

TEST(Escalation, SustainedRollbacksEscalateToPanicResets)
{
    // Rungs 3/4 in isolation: no retry, no quarantine -- a permanent
    // fault pinned to checker 0 livelocks the island in rollback, so
    // consecutive rollbacks must cross the panic threshold and the
    // stalled verified-commit stream must trip the watchdog.
    auto w = workloads::build("bitcount", 1);
    core::SystemConfig config =
        core::SystemConfig::forMode(core::Mode::ParaDox);
    config.escalation.panicRollbackThreshold = 4;
    config.escalation.progressWatchdogUs = 2.0;
    core::System system(config, w.program);
    system.setFaultPlan(faults::uniformPlan(
        0.5, 21, faults::Persistence::Permanent, 0));
    core::RunLimits limits;
    limits.maxExecuted = 3'000'000;  // bounded: the run cannot finish
    core::RunResult r = system.run(limits);
    EXPECT_FALSE(r.halted);
    EXPECT_GT(r.panicResets, 0u);
    EXPECT_GT(r.watchdogTrips, 0u);
}

TEST(Escalation, WatchdogTripsAtTheSameCommitWithAndWithoutBatching)
{
    // The progress watchdog can come due inside a superblock batch;
    // commit() must then end the batch at the record where a batch of
    // one (a System over a one-core shared uncore) trips it.  The
    // livelock above, with a watchdog short enough to come due between
    // checkpoints, both ways: every result field and stat must match,
    // but for main.sb_*, which count how the host batched commits.
    static const std::regex batching(",\"main\\.sb_[a-z_]+\":[^,}]*");
    auto w = workloads::build("bitcount", 1);
    core::RunResult results[2];
    std::string stats[2];
    for (int k = 0; k < 2; ++k) {
        core::SystemConfig config =
            core::SystemConfig::forMode(core::Mode::ParaDox);
        config.escalation.panicRollbackThreshold = 4;
        config.escalation.progressWatchdogUs = 0.5;
        core::SharedUncore uncore = core::makeSharedUncore(config);
        core::System system(config, w.program,
                            k == 0 ? nullptr : &uncore);
        system.setFaultPlan(faults::uniformPlan(
            0.5, 21, faults::Persistence::Permanent, 0));
        core::RunLimits limits;
        limits.maxExecuted = 1'000'000;
        results[k] = system.run(limits);
        std::ostringstream os;
        system.registry().dumpJson(os);
        stats[k] = std::regex_replace(os.str(), batching, "");
    }
    EXPECT_GT(results[0].watchdogTrips, 10u);
    EXPECT_EQ(results[0].watchdogTrips, results[1].watchdogTrips);
    EXPECT_EQ(results[0].panicResets, results[1].panicResets);
    EXPECT_EQ(results[0].executed, results[1].executed);
    EXPECT_EQ(results[0].time, results[1].time);
    EXPECT_EQ(stats[0], stats[1]);
}

TEST(Escalation, PanicResetSnapsVoltageToSafe)
{
    core::VoltageAimdParams params;
    core::VoltageController ctrl(params);
    for (int i = 0; i < 50; ++i)
        ctrl.onCleanCheckpoint();
    ASSERT_LT(ctrl.target(), params.vSafe);
    const double undervolted = ctrl.target();
    ctrl.panicReset();
    EXPECT_EQ(ctrl.target(), params.vSafe);
    EXPECT_EQ(ctrl.panicResets(), 1u);
    // The trouble spot is remembered: descending past it is slowed.
    EXPECT_GE(ctrl.tideMark(), undervolted);
}

} // namespace
