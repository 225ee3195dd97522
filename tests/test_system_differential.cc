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

#include <functional>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "core/system.hh"
#include "exp/runner.hh"
#include "exp/sink.hh"
#include "workloads/workload.hh"

namespace
{

using namespace paradox;

struct Scenario
{
    const char *name;
    std::function<void(exp::ExperimentSpec &)> apply;
};

const std::vector<Scenario> &
scenarios()
{
    using core::Mode;
    static const std::vector<Scenario> all = {
        {"baseline", [](exp::ExperimentSpec &s) { s.mode = Mode::Baseline; }},
        {"detect",
         [](exp::ExperimentSpec &s) { s.mode = Mode::DetectionOnly; }},
        {"paramedic",
         [](exp::ExperimentSpec &s) { s.mode = Mode::ParaMedic; }},
        {"paradox", [](exp::ExperimentSpec &s) { s.mode = Mode::ParaDox; }},
        {"paradox_dvfs", [](exp::ExperimentSpec &s) { s.dvfs = true; }},
        {"rate_1e4", [](exp::ExperimentSpec &s) { s.faultRate = 1e-4; }},
        {"paramedic_rate_1e4",
         [](exp::ExperimentSpec &s) {
             s.mode = Mode::ParaMedic;
             s.faultRate = 1e-4;
         }},
        {"ecc",
         [](exp::ExperimentSpec &s) {
             s.eccRate = 1e-3;
             s.configure = [](core::SystemConfig &c) {
                 c.memoryEccDueRate = 1e-4;
             };
         }},
        {"chip", [](exp::ExperimentSpec &s) { s.chipSeed = 202; }},
        {"main_rate", [](exp::ExperimentSpec &s) { s.mainCoreRate = 1e-4; }},
    };
    return all;
}

/** Result record + stats registry, minus the batching counters. */
std::string
digest(const exp::ExperimentSpec &spec, const exp::RunOutcome &out,
       const std::string &registry)
{
    // main.sb_* describe how the host batched commits, which is the
    // one thing the two engines are allowed to differ in.
    static const std::regex batching(",\"main\\.sb_[a-z_]+\":[^,}]*");
    return exp::recordJson(spec, out) + "\n" +
           std::regex_replace(registry, batching, "");
}

class SystemDifferential : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(SystemDifferential, EnginesAgreeOnEveryWorkload)
{
    const Scenario &scenario = scenarios()[GetParam()];
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
        EXPECT_EQ(digest(specs[d], outs[d], registries[d]),
                  digest(specs[d], outs[r], registries[r]));
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, SystemDifferential,
    ::testing::Range<std::size_t>(0, scenarios().size()),
    [](const ::testing::TestParamInfo<std::size_t> &info) {
        return std::string(scenarios()[info.param].name);
    });

} // namespace
