/**
 * @file
 * The System's helper-thread checker replay under ThreadSanitizer.
 * tests/CMakeLists.txt compiles the core, cpu, mem, faults and exp
 * sources -- everything a replay and the simulating thread share, plus
 * the runner's pool -- into this binary with -fsanitize=thread.  The
 * replays no fault can reach are deferred to a helper thread (DESIGN
 * §11, "Deferred replay"): every replay of a fault-free run, and those
 * between two fires of a fault-injecting one.
 */

#include <gtest/gtest.h>

#include "core/replay_helper.hh"
#include "core/system.hh"
#include "exp/runner.hh"
#include "exp/sink.hh"
#include "tsan_options.hh"
#include "workloads/workload.hh"

namespace
{

using namespace paradox;

/**
 * Fail if no replay ran on a helper thread (@p ran) on a host with
 * @p cpus_needed usable CPUs.  On a smaller host the jobs run on their
 * owners, so the test is marked skipped, saying why.
 */
void
expectJobsOnHelpers(std::uint64_t ran, unsigned cpus_needed)
{
    const unsigned cpus = core::ReplayHelper::usableCpus();
    if (cpus < cpus_needed)
        GTEST_SKIP() << cpus << " usable CPUs, " << cpus_needed
                     << " needed for the helpers to overlap: " << ran
                     << " replays ran on a helper thread";
    EXPECT_GT(ran, 0u) << "no replay ran on a helper thread";
}

TEST(SystemTsan, RunnerJobsAtTwoWorkersMatchSerialRuns)
{
    std::vector<exp::ExperimentSpec> specs;
    for (const char *name : {"bitcount", "stream", "mcf"}) {
        for (core::Mode mode : {core::Mode::ParaDox, core::Mode::ParaMedic,
                                core::Mode::DetectionOnly}) {
            exp::ExperimentSpec spec;
            spec.workload = name;
            spec.mode = mode;
            specs.push_back(spec);
        }
    }
    const std::uint64_t before = core::ReplayHelper::jobsRunOnHelpers();
    exp::Runner runner(exp::RunnerOptions{2});
    const std::vector<exp::RunOutcome> outs = runner.run(specs);
    const std::uint64_t ran = core::ReplayHelper::jobsRunOnHelpers() - before;
    ASSERT_EQ(outs.size(), specs.size());
    for (std::size_t k = 0; k < specs.size(); ++k) {
        ASSERT_TRUE(outs[k].ok()) << outs[k].error;
        EXPECT_TRUE(outs[k].correct) << specs[k].workload;
        EXPECT_EQ(exp::recordJson(specs[k], outs[k]),
                  exp::recordJson(specs[k], exp::runOne(specs[k])));
    }
    // Two workers, each with a helper.
    expectJobsOnHelpers(ran, 4);
}

TEST(SystemTsan, SerialRunHandsReplaysToTheHelper)
{
    exp::ExperimentSpec spec;
    spec.workload = "mcf";
    const std::uint64_t before = core::ReplayHelper::jobsRunOnHelpers();
    const exp::RunOutcome out = exp::runOne(spec);
    ASSERT_TRUE(out.ok()) << out.error;
    EXPECT_TRUE(out.correct);
    // This thread and its helper; the runner test's workers have no
    // System attached any more.
    expectJobsOnHelpers(core::ReplayHelper::jobsRunOnHelpers() - before,
                        2);
}

TEST(SystemTsan, FaultInjectingRunHandsQuietReplaysToTheHelper)
{
    // The helper advances the injectors' gaps; the simulating thread
    // reads them at the next dispatch and replays the segments a fault
    // can reach itself.
    exp::ExperimentSpec spec;
    spec.workload = "bitcount";
    spec.faultRate = 1e-4;
    const std::uint64_t before = core::ReplayHelper::jobsRunOnHelpers();
    const exp::RunOutcome out = exp::runOne(spec);
    ASSERT_TRUE(out.ok()) << out.error;
    EXPECT_TRUE(out.correct);
    EXPECT_GT(out.result.faultsInjected, 0u);
    expectJobsOnHelpers(core::ReplayHelper::jobsRunOnHelpers() - before,
                        2);
}

TEST(SystemTsan, StopWithReplayInFlightThenDestroy)
{
    const auto w = workloads::build("mcf", 1);
    core::System system(core::SystemConfig::forMode(core::Mode::ParaDox),
                        w.program);
    core::RunLimits limits;
    limits.maxInstructions = 30'011;
    system.beginRun(limits);
    while (system.stepOnce()) {
    }
    EXPECT_EQ(system.phase(), core::System::Phase::Done);
}

TEST(SystemTsan, ForkedChildrenAfterTheHelperStarted)
{
    // This thread's helper exists from the first run on; the children
    // inherit it without its thread and must start their own.
    exp::ExperimentSpec spec;
    spec.workload = "stream";
    const std::string expect = exp::recordJson(spec, exp::runOne(spec));
    const std::vector<exp::IsolatedResult> res = exp::runIsolated(
        2,
        [&spec](std::size_t) {
            return exp::recordJson(spec, exp::runOne(spec));
        },
        exp::RunnerOptions{2});
    ASSERT_EQ(res.size(), 2u);
    for (const exp::IsolatedResult &r : res) {
        EXPECT_FALSE(r.crashed);
        EXPECT_EQ(r.payload, expect);
    }
}

} // namespace
