/**
 * @file
 * End-to-end system tests: the full ParaMedic/ParaDox pipeline on
 * real workloads, including the paper's headline invariant -- under
 * any injected fault rate and model, the run completes with exactly
 * the fault-free architectural result.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <regex>
#include <sstream>

#include "core/replay_helper.hh"
#include "core/result_json.hh"
#include "core/system.hh"
#include "faults/chip_model.hh"
#include "obs/trace.hh"
#include "power/undervolt_data.hh"
#include "workloads/workload.hh"

namespace
{

using namespace paradox;
using core::Mode;
using core::RunResult;
using core::System;
using core::SystemConfig;

workloads::Workload
smallWorkload(const std::string &name = "bitcount")
{
    return workloads::build(name, 1);
}

RunResult
runMode(Mode mode, const workloads::Workload &w,
        double fault_rate = 0.0, std::uint64_t seed = 7)
{
    SystemConfig config = SystemConfig::forMode(mode);
    config.seed = seed;
    System system(config, w.program);
    if (fault_rate > 0.0)
        system.setFaultPlan(faults::uniformPlan(fault_rate, seed));
    core::RunLimits limits;
    limits.maxExecuted = 80'000'000;
    limits.maxTicks = ticksPerMs * 400;
    return system.run(limits);
}

std::uint64_t
resultChecksum(System &system)
{
    return system.memory().read(workloads::resultAddr, 8);
}

TEST(SystemBaseline, RunsToCompletion)
{
    auto w = smallWorkload();
    SystemConfig config = SystemConfig::forMode(Mode::Baseline);
    System system(config, w.program);
    RunResult r = system.run();
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(resultChecksum(system), w.expectedResult);
    EXPECT_GT(r.time, 0u);
    EXPECT_EQ(r.errorsDetected, 0u);
}

TEST(SystemFaultFree, AllModesProduceCorrectResultAndNoErrors)
{
    auto w = smallWorkload();
    for (Mode mode : {Mode::Baseline, Mode::DetectionOnly,
                      Mode::ParaMedic, Mode::ParaDox}) {
        SystemConfig config = SystemConfig::forMode(mode);
        System system(config, w.program);
        RunResult r = system.run();
        EXPECT_TRUE(r.halted) << core::modeName(mode);
        EXPECT_EQ(resultChecksum(system), w.expectedResult)
            << core::modeName(mode);
        EXPECT_EQ(r.errorsDetected, 0u) << core::modeName(mode);
    }
}

TEST(SystemFaultFree, FaultToleranceCostsTime)
{
    auto w = smallWorkload();
    RunResult base = runMode(Mode::Baseline, w);
    RunResult pdox = runMode(Mode::ParaDox, w);
    EXPECT_TRUE(base.halted);
    EXPECT_TRUE(pdox.halted);
    // Checkpointing costs something but must stay moderate when
    // error-free (figure 10's overheads are < 15%).
    EXPECT_GE(pdox.time, base.time);
    EXPECT_LT(double(pdox.time), double(base.time) * 1.6);
    EXPECT_GT(pdox.checkpoints, 0u);
}

/** The headline invariant: injected faults never corrupt results. */
class FaultedRun
    : public ::testing::TestWithParam<std::tuple<double, std::uint64_t>>
{
};

TEST_P(FaultedRun, ParaDoxRepairsEverything)
{
    auto [rate, seed] = GetParam();
    auto w = smallWorkload();
    SystemConfig config = SystemConfig::forMode(Mode::ParaDox);
    config.seed = seed;
    System system(config, w.program);
    system.setFaultPlan(faults::uniformPlan(rate, seed));
    core::RunLimits limits;
    limits.maxExecuted = 100'000'000;
    RunResult r = system.run(limits);
    ASSERT_TRUE(r.halted) << "rate=" << rate << " seed=" << seed;
    EXPECT_EQ(resultChecksum(system), w.expectedResult)
        << "rate=" << rate << " seed=" << seed;
    if (rate >= 1e-4) {
        EXPECT_GT(r.errorsDetected, 0u);
        EXPECT_GT(r.rollbacks, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    RateSweep, FaultedRun,
    ::testing::Combine(::testing::Values(1e-6, 1e-5, 1e-4, 1e-3),
                       ::testing::Values(1u, 2u, 3u)));

TEST(FaultedRunModes, ParaMedicAlsoRepairs)
{
    auto w = smallWorkload();
    SystemConfig config = SystemConfig::forMode(Mode::ParaMedic);
    System system(config, w.program);
    system.setFaultPlan(faults::uniformPlan(1e-4, 11));
    core::RunLimits limits;
    limits.maxExecuted = 200'000'000;
    RunResult r = system.run(limits);
    ASSERT_TRUE(r.halted);
    EXPECT_EQ(resultChecksum(system), w.expectedResult);
    EXPECT_GT(r.rollbacks, 0u);
}

TEST(FaultedRunModes, EveryFaultKindIsRepaired)
{
    auto w = smallWorkload();
    using faults::FaultConfig;
    using faults::FaultKind;

    std::vector<FaultConfig> configs;
    FaultConfig log_faults;
    log_faults.kind = FaultKind::LogBitFlip;
    log_faults.rate = 3e-4;
    configs.push_back(log_faults);

    FaultConfig fu_faults;
    fu_faults.kind = FaultKind::FunctionalUnit;
    fu_faults.targetClass = isa::InstClass::IntAlu;
    fu_faults.rate = 3e-4;
    configs.push_back(fu_faults);

    for (auto category :
         {isa::RegCategory::Integer, isa::RegCategory::Float,
          isa::RegCategory::Flags, isa::RegCategory::Misc}) {
        FaultConfig reg_faults;
        reg_faults.kind = FaultKind::RegisterBitFlip;
        reg_faults.targetCategory = category;
        reg_faults.rate = 3e-4;
        configs.push_back(reg_faults);
    }

    for (const auto &fc : configs) {
        SystemConfig config = SystemConfig::forMode(Mode::ParaDox);
        System system(config, w.program);
        faults::FaultPlan plan;
        plan.add(fc);
        system.setFaultPlan(std::move(plan));
        core::RunLimits limits;
        limits.maxExecuted = 100'000'000;
        RunResult r = system.run(limits);
        ASSERT_TRUE(r.halted) << "kind=" << int(fc.kind);
        EXPECT_EQ(resultChecksum(system), w.expectedResult)
            << "kind=" << int(fc.kind) << " cat="
            << int(fc.targetCategory);
    }
}

TEST(SystemAdaptation, ParaDoxShrinksCheckpointsUnderErrors)
{
    auto w = smallWorkload();
    RunResult clean = runMode(Mode::ParaDox, w, 0.0);
    RunResult faulty = runMode(Mode::ParaDox, w, 1e-3);
    ASSERT_TRUE(clean.halted);
    ASSERT_TRUE(faulty.halted);
    EXPECT_GT(faulty.checkpoints, clean.checkpoints);
}

TEST(SystemAdaptation, ParaDoxBeatsParaMedicAtHighErrorRates)
{
    auto w = smallWorkload();
    RunResult medic = runMode(Mode::ParaMedic, w, 2e-3);
    RunResult dox = runMode(Mode::ParaDox, w, 2e-3);
    ASSERT_TRUE(dox.halted);
    // ParaMedic may not even finish inside the execution budget
    // (livelock); if it does, ParaDox must still be faster.
    if (medic.halted) {
        EXPECT_LT(dox.time, medic.time);
    }
}

TEST(SystemMemoryState, FaultedRunLeavesExactFaultFreeMemoryImage)
{
    auto w = workloads::build("bzip2", 1);
    RunResult clean = runMode(Mode::ParaDox, w, 0.0, 5);
    RunResult faulty = runMode(Mode::ParaDox, w, 5e-4, 5);
    ASSERT_TRUE(clean.halted);
    ASSERT_TRUE(faulty.halted);
    EXPECT_GT(faulty.rollbacks, 0u);
    EXPECT_EQ(clean.memoryFingerprint, faulty.memoryFingerprint);
    EXPECT_EQ(clean.finalState, faulty.finalState);
}

TEST(SystemDvfs, UndervoltsAndRecovers)
{
    auto w = smallWorkload();
    SystemConfig config = SystemConfig::forMode(Mode::ParaDox);
    System system(config, w.program);
    system.enableDvfs(faults::UndervoltErrorModel::Params{});
    core::RunLimits limits;
    limits.maxExecuted = 100'000'000;
    RunResult r = system.run(limits);
    ASSERT_TRUE(r.halted);
    EXPECT_EQ(resultChecksum(system), w.expectedResult);
    // The controller must actually have undervolted.
    EXPECT_LT(r.avgVoltage, config.voltage.vSafe);
    EXPECT_LT(r.avgPower, 1.05);
}

TEST(SystemScheduling, ParaDoxConcentratesCheckersOnLowIds)
{
    auto w = smallWorkload();
    RunResult r = runMode(Mode::ParaDox, w);
    ASSERT_TRUE(r.halted);
    ASSERT_EQ(r.wakeRates.size(), 16u);
    // Lowest-free-ID scheduling: low IDs are the busiest (a small
    // tolerance absorbs release-timing jitter among the saturated
    // low IDs), and high-ID checkers stay nearly idle.
    for (std::size_t i = 1; i < r.wakeRates.size(); ++i)
        EXPECT_LE(r.wakeRates[i], r.wakeRates[0] + 0.05) << i;
    EXPECT_LT(r.wakeRates[15], 0.05);
    EXPECT_GT(r.wakeRates[0], r.wakeRates[15]);
}

TEST(SystemScheduling, ParaMedicUsesAllCheckersEvenly)
{
    auto w = smallWorkload();
    RunResult r = runMode(Mode::ParaMedic, w);
    ASSERT_TRUE(r.halted);
    double min_rate = 1.0, max_rate = 0.0;
    for (double rate : r.wakeRates) {
        min_rate = std::min(min_rate, rate);
        max_rate = std::max(max_rate, rate);
    }
    EXPECT_GT(min_rate, 0.0);
    EXPECT_LT(max_rate - min_rate, 0.2);
}

TEST(SystemDeterminism, SameSeedSameResult)
{
    auto w = smallWorkload();
    RunResult a = runMode(Mode::ParaDox, w, 1e-4, 42);
    RunResult b = runMode(Mode::ParaDox, w, 1e-4, 42);
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(a.errorsDetected, b.errorsDetected);
    EXPECT_EQ(a.executed, b.executed);
    EXPECT_EQ(a.memoryFingerprint, b.memoryFingerprint);
}

TEST(SystemStats, RecoveryCostsAreRecorded)
{
    auto w = smallWorkload();
    SystemConfig config = SystemConfig::forMode(Mode::ParaDox);
    System system(config, w.program);
    system.setFaultPlan(faults::uniformPlan(1e-4, 3));
    core::RunLimits limits;
    limits.maxExecuted = 100'000'000;
    RunResult r = system.run(limits);
    ASSERT_TRUE(r.halted);
    ASSERT_GT(r.rollbacks, 0u);
    EXPECT_EQ(system.rollbackTimesNs().count(), r.rollbacks);
    EXPECT_EQ(system.wastedExecNs().count(), r.rollbacks);
    EXPECT_GT(system.wastedExecNs().mean(), 0.0);
}

TEST(SystemLimits, TickLimitStopsAtTheSameCommitWithAndWithoutBatching)
{
    // A superblock batch must end at the record that reaches the tick
    // limit, where a batch of one (a System over a one-core shared
    // uncore) stops.  A faulty ParaDox run, cut halfway through its
    // fault-free-length time, both ways.
    auto w = smallWorkload("stream");
    const Tick full = runMode(Mode::ParaDox, w).time;
    RunResult results[2];
    for (int k = 0; k < 2; ++k) {
        const SystemConfig config = SystemConfig::forMode(Mode::ParaDox);
        core::SharedUncore uncore = core::makeSharedUncore(config);
        System system(config, w.program, k == 0 ? nullptr : &uncore);
        system.setFaultPlan(faults::uniformPlan(1e-3, 7));
        core::RunLimits limits;
        limits.maxTicks = full / 2 + 7;
        results[k] = system.run(limits);
    }
    EXPECT_FALSE(results[0].halted);
    EXPECT_GT(results[0].rollbacks, 0u);
    EXPECT_EQ(results[0].instructions, results[1].instructions);
    EXPECT_EQ(results[0].executed, results[1].executed);
    EXPECT_EQ(results[0].time, results[1].time);
    EXPECT_EQ(results[0].checkpoints, results[1].checkpoints);
    EXPECT_EQ(results[0].rollbacks, results[1].rollbacks);
}

/**
 * A run's result JSON and stats registry.  The registry leaves out
 * main.sb_*: settling a deferred replay can end a superblock batch
 * early, so those count how the host batched commits, not anything
 * simulated.
 */
struct RunSnapshot
{
    std::string result;
    std::string stats;

    bool
    operator==(const RunSnapshot &o) const
    {
        return result == o.result && stats == o.stats;
    }
};

std::string
registryWithoutBatching(const System &system)
{
    static const std::regex batching(",\"main\\.sb_[a-z_]+\":[^,}]*");
    std::ostringstream os;
    system.registry().dumpJson(os);
    return std::regex_replace(os.str(), batching, "");
}

/**
 * Run @p w under @p config after @p prepare (fault plans, chip model)
 * has set up the System.  A tracer forces every checker replay
 * inline; untraced, the replays no fault can reach run on the helper
 * thread.
 */
RunSnapshot
snapshotRun(const workloads::Workload &w, const SystemConfig &config,
            bool traced,
            const std::function<void(System &)> &prepare = nullptr,
            const core::RunLimits &limits = core::RunLimits{})
{
    System system(config, w.program);
    if (prepare)
        prepare(system);
    obs::TraceSink sink(16);
    if (traced)
        system.setTracer(&sink);
    const RunResult r = system.run(limits);
    return {core::toJson(r), registryWithoutBatching(system)};
}

/**
 * Expect the untraced and traced runs of @p w to agree, and return
 * how many replays ran on a helper thread in the untraced one.
 */
std::uint64_t
expectDeferredMatchesInline(const std::string &what,
                            const workloads::Workload &w,
                            const SystemConfig &config,
                            const std::function<void(System &)> &prepare)
{
    const std::uint64_t before = core::ReplayHelper::jobsRunOnHelpers();
    const RunSnapshot deferred = snapshotRun(w, config, false, prepare);
    const std::uint64_t ran =
        core::ReplayHelper::jobsRunOnHelpers() - before;
    const RunSnapshot inline_ = snapshotRun(w, config, true, prepare);
    EXPECT_EQ(inline_.result.find("\"faults_injected\":0,"),
              std::string::npos)
        << what << ": no fault fired";
    EXPECT_EQ(deferred.result, inline_.result) << what;
    EXPECT_EQ(deferred.stats, inline_.stats) << what;
    return ran;
}

/**
 * Expect @p ran replays on a helper thread to be some, where the host
 * gives the helper a CPU of its own; otherwise every job runs on its
 * owner.
 */
void
expectSomeOnHelpers(std::uint64_t ran)
{
    if (core::ReplayHelper::usableCpus() >= 2) {
        EXPECT_GT(ran, 0u) << "no replay ran on a helper thread";
    }
}

/** Install @p plan as the checker fault plan. */
std::function<void(System &)>
withPlan(const faults::FaultPlan &plan)
{
    return [plan](System &system) { system.setFaultPlan(plan); };
}

TEST(SystemDeferredReplay, HelperThreadAndInlineReplaysAgree)
{
    for (const char *name : {"bitcount", "stream", "mcf", "gobmk"}) {
        const auto w = smallWorkload(name);
        for (Mode mode :
             {Mode::ParaDox, Mode::ParaMedic, Mode::DetectionOnly}) {
            const SystemConfig config = SystemConfig::forMode(mode);
            const RunSnapshot deferred = snapshotRun(w, config, false);
            const RunSnapshot inline_ = snapshotRun(w, config, true);
            EXPECT_EQ(deferred.result, inline_.result)
                << name << " " << core::modeName(mode);
            EXPECT_EQ(deferred.stats, inline_.stats)
                << name << " " << core::modeName(mode);
        }
    }
}

TEST(SystemDeferredReplay, TransientCheckerFaultsAgree)
{
    // Most segments lie between two fires, so their replays run on
    // the helper even though the plan is not empty; the segments that
    // can fire replay inline.
    std::uint64_t ran = 0;
    for (const double rate : {1e-4, 1e-3}) {
        for (const char *name : {"bitcount", "stream", "mcf"}) {
            const std::string what =
                std::string(name) + " rate " + std::to_string(rate);
            ran += expectDeferredMatchesInline(
                what, smallWorkload(name),
                SystemConfig::forMode(Mode::ParaDox),
                withPlan(faults::uniformPlan(rate, 7)));
        }
    }
    expectSomeOnHelpers(ran);
}

TEST(SystemDeferredReplay, PinnedIntermittentAndPermanentPlansAgree)
{
    // Segments on other checkers never reach a pinned source; a
    // latched permanent or an open burst forces every replay on its
    // checker inline.  The ladder quarantines the defective checker.
    SystemConfig config = SystemConfig::forMode(Mode::ParaDox);
    config.enableEscalation();
    for (const faults::Persistence persistence :
         {faults::Persistence::Intermittent,
          faults::Persistence::Permanent}) {
        const std::string what =
            std::string("pinned ") + faults::persistenceName(persistence);
        expectSomeOnHelpers(expectDeferredMatchesInline(
            what, smallWorkload("stream"), config,
            withPlan(faults::uniformPlan(1e-3, 7, persistence, 0))));
    }
}

TEST(SystemDeferredReplay, RetryVerifyAgrees)
{
    SystemConfig config = SystemConfig::forMode(Mode::ParaDox);
    config.escalation.retryVerify = true;
    for (const char *name : {"bitcount", "mcf"})
        expectDeferredMatchesInline(
            std::string(name) + " retry-verify", smallWorkload(name),
            config, withPlan(faults::uniformPlan(1e-3, 7)));
}

TEST(SystemDeferredReplay, ChipModePlanReplaysInline)
{
    // Chip mode consults the weak-cell map at every event, so no
    // replay may leave the simulating thread.
    const std::string name = "bitcount";
    faults::ChipConfig cc;
    cc.chipSeed = 3;
    cc.shape = power::errorModelParams(name);
    const auto chip = std::make_shared<const faults::ChipModel>(cc);
    SystemConfig config = SystemConfig::forMode(Mode::ParaDox);
    config.enableEscalation();
    const auto prepare = [&chip, &cc](System &system) {
        system.setFaultPlan(
            faults::chipPlan(7, faults::Persistence::Transient, -1));
        system.setChipModel(chip);
        system.setSupplyVoltage(cc.shape.vFloor + 0.045);
    };
    EXPECT_EQ(expectDeferredMatchesInline("chip", smallWorkload(name),
                                          config, prepare),
              0u);
}

TEST(SystemDeferredReplay, InstructionLimitWithReplayInFlightIsClean)
{
    // mcf's fault-free segments run about 1,500 instructions, and a
    // checker needs at least a cycle for each, so the stop lands with
    // the youngest replay still deferred: collectResult() settles it,
    // and so does the destructor when no result is collected.
    const auto w = smallWorkload("mcf");
    core::RunLimits limits;
    limits.maxInstructions = 30'011;
    const SystemConfig config = SystemConfig::forMode(Mode::ParaDox);
    const RunSnapshot deferred =
        snapshotRun(w, config, false, nullptr, limits);
    EXPECT_EQ(deferred, snapshotRun(w, config, true, nullptr, limits));
    EXPECT_NE(deferred.result.find("\"instructions\":30011"),
              std::string::npos)
        << deferred.result;

    System system(SystemConfig::forMode(Mode::ParaDox), w.program);
    system.beginRun(limits);
    while (system.stepOnce()) {
    }
    EXPECT_EQ(system.phase(), System::Phase::Done);
}

TEST(SystemDeferredReplay, TwoSystemsSteppedOnOneThreadMatchSoloRuns)
{
    // Both post to this thread's one helper: each post finishes the
    // other System's replay first.
    const auto wa = smallWorkload("bitcount");
    const auto wb = smallWorkload("stream");
    const SystemConfig config = SystemConfig::forMode(Mode::ParaDox);
    const auto solo = [&config](const workloads::Workload &w) {
        System system(config, w.program);
        const RunResult r = system.run();
        return RunSnapshot{core::toJson(r),
                           registryWithoutBatching(system)};
    };
    const RunSnapshot soloA = solo(wa);
    const RunSnapshot soloB = solo(wb);

    System a(config, wa.program);
    System b(config, wb.program);
    a.beginRun();
    b.beginRun();
    for (bool runA = true, runB = true; runA || runB;) {
        if (runA)
            runA = a.stepOnce();
        if (runB)
            runB = b.stepOnce();
    }
    const RunResult ra = a.collectResult();
    const RunResult rb = b.collectResult();
    EXPECT_EQ(RunSnapshot({core::toJson(ra), registryWithoutBatching(a)}),
              soloA);
    EXPECT_EQ(RunSnapshot({core::toJson(rb), registryWithoutBatching(b)}),
              soloB);
}

} // namespace
