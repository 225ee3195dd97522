/**
 * @file
 * System-level batching differential: every workload under every mode
 * and fault scenario, run once through exp::runOne (a private System,
 * whose commitBatch() runs whole superblocks) and once on the same
 * spec's System over a one-core shared uncore (a batch of one per
 * step, as every multicore core runs), must produce byte-identical
 * result records and stats registries.  Batching is a host-side
 * optimization; no simulated number may depend on it.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/system.hh"
#include "exp/runner.hh"
#include "sim_scenarios.hh"
#include "workloads/workload.hh"

namespace
{

using namespace paradox;

using testing_support::scenarios;
using testing_support::simDigest;

std::string
registryJson(const core::System &system)
{
    std::ostringstream os;
    system.registry().dumpJson(os);
    return os.str();
}

/** @p spec through exp::runOne: full-size batches. */
std::string
batchedDigest(exp::ExperimentSpec spec)
{
    std::string registry;
    spec.observe = [&registry](core::System &sys, exp::RunOutcome &) {
        registry = registryJson(sys);
    };
    const exp::RunOutcome out = exp::runOne(spec);
    EXPECT_TRUE(out.correct) << spec.workload;
    return simDigest(spec, out, registry);
}

/** @p spec on a System over a one-core shared uncore: batches of one. */
std::string
batchOfOneDigest(const exp::ExperimentSpec &spec)
{
    const workloads::Workload w =
        workloads::build(spec.workload, spec.scale);
    const core::SystemConfig config = exp::buildConfig(spec);
    core::SharedUncore uncore = core::makeSharedUncore(config);
    core::System system(config, w.program, &uncore);
    exp::armSystem(system, spec, w.program);
    const exp::RunOutcome out = exp::summarizeRun(
        system, system.run(spec.limits), w.expectedResult);
    return simDigest(spec, out, registryJson(system));
}

class SystemDifferential : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(SystemDifferential, BatchesOfOneAgreeOnEveryWorkload)
{
    const testing_support::Scenario &scenario = scenarios()[GetParam()];
    const std::vector<std::string> &names = workloads::allNames();

    std::vector<exp::ExperimentSpec> specs(names.size());
    for (std::size_t w = 0; w < names.size(); ++w) {
        specs[w].workload = names[w];
        scenario.apply(specs[w]);
    }

    exp::RunnerOptions opt;
    opt.jobs = 2;
    // Job 2w runs workload w batched, job 2w + 1 in batches of one.
    const std::vector<std::string> digests =
        exp::Runner(opt).map<std::string>(
            2 * specs.size(), [&specs](std::size_t i) {
                const exp::ExperimentSpec &spec = specs[i / 2];
                return i % 2 == 0 ? batchedDigest(spec)
                                  : batchOfOneDigest(spec);
            });

    for (std::size_t w = 0; w < names.size(); ++w) {
        SCOPED_TRACE(names[w] + " / " + scenario.name);
        EXPECT_EQ(digests[2 * w], digests[2 * w + 1]);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, SystemDifferential,
    ::testing::Range<std::size_t>(0, scenarios().size()),
    [](const ::testing::TestParamInfo<std::size_t> &info) {
        return std::string(scenarios()[info.param].name);
    });

} // namespace
