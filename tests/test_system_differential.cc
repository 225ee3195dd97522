/**
 * @file
 * System-level engine differential: every workload under every mode
 * and fault scenario, run once with the decoded engine (superblock
 * batches) and once with the reference engine (batches of one), must
 * produce byte-identical result records and stats registries.  Engine
 * choice and batching are host-side optimizations; no simulated
 * number may depend on them.
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

class SystemDifferential : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(SystemDifferential, EnginesAgreeOnEveryWorkload)
{
    const testing_support::Scenario &scenario = scenarios()[GetParam()];
    const std::vector<std::string> &names = workloads::allNames();

    std::vector<exp::ExperimentSpec> specs;
    for (const std::string &name : names) {
        for (isa::EngineKind engine :
             {isa::EngineKind::Decoded, isa::EngineKind::Reference}) {
            exp::ExperimentSpec spec;
            spec.workload = name;
            spec.engine = engine;
            scenario.apply(spec);
            specs.push_back(spec);
        }
    }
    std::vector<std::string> registries(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        specs[i].observe = [&registries, i](core::System &sys,
                                            exp::RunOutcome &) {
            std::ostringstream os;
            sys.registry().dumpJson(os);
            registries[i] = os.str();
        };

    exp::RunnerOptions opt;
    opt.jobs = 2;
    const std::vector<exp::RunOutcome> outs =
        exp::Runner(opt).run(specs);

    for (std::size_t w = 0; w < names.size(); ++w) {
        const std::size_t d = 2 * w, r = 2 * w + 1;
        SCOPED_TRACE(names[w] + " / " + scenario.name);
        ASSERT_TRUE(outs[d].ok()) << outs[d].error;
        ASSERT_TRUE(outs[r].ok()) << outs[r].error;
        EXPECT_TRUE(outs[d].correct);
        // Render both under the decoded spec: the engine is the only
        // field the two specs differ in.
        EXPECT_EQ(simDigest(specs[d], outs[d], registries[d]),
                  simDigest(specs[d], outs[r], registries[r]));
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, SystemDifferential,
    ::testing::Range<std::size_t>(0, scenarios().size()),
    [](const ::testing::TestParamInfo<std::size_t> &info) {
        return std::string(scenarios()[info.param].name);
    });

} // namespace
