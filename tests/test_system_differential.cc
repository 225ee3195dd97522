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
#include "mem/cache.hh"
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

/** The mem.itlb.* and mem.l1i.* lines of @p system's registry dump:
 *  the counters the per-line fetch (DESIGN §11) settles. */
std::string
fetchCounters(const core::System &system)
{
    std::ostringstream dump;
    system.registry().dump(dump);
    std::istringstream in(dump.str());
    std::string line, out;
    while (std::getline(in, line))
        if (line.rfind("mem.itlb.", 0) == 0 || line.rfind("mem.l1i.", 0) == 0)
            out += line + "\n";
    return out;
}

double
statValue(core::System &system, const std::string &name)
{
    const stats::Stat *stat = system.registry().find(name);
    return stat ? stat->sampleValue() : -1.0;
}

/**
 * Batches that stop mid-line settle their per-line fetch repeats
 * exactly.  An L1I of 8 lines (line changes miss and evict, so the
 * settled LRU stamps choose victims) and an L1D of 8 pinnable lines
 * (pinned writes fill whole sets and stall, and the stall cuts the
 * batch); stream and gobmk in ParaDox mode, batched and in batches of
 * one, to instruction limits that land mid-line.  Both count one I-TLB
 * and one L1I access per executed instruction, and the fetch counters,
 * the whole record and the registry agree.  stream's stores stall on
 * pins, gobmk's code evicts L1I lines.
 */
TEST(SystemDifferentialFetch, BatchesStoppingMidLineSettleExactly)
{
    double pinned_stalls = 0.0, l1i_evictions = 0.0;
    for (const char *name : {"stream", "gobmk"}) {
        exp::ExperimentSpec spec;
        spec.workload = name;
        spec.mode = core::Mode::ParaDox;
        core::SystemConfig config = exp::buildConfig(spec);
        config.hierarchy.l1i =
            mem::CacheParams{"l1i", 512, 2, 64, 1, 6, false};
        config.hierarchy.l1d =
            mem::CacheParams{"l1d", 512, 2, 64, 2, 6, true};
        const workloads::Workload w =
            workloads::build(spec.workload, spec.scale);

        for (const std::uint64_t limit : {20011u, 50006u, 90003u}) {
            SCOPED_TRACE(std::string(name) + " to " +
                         std::to_string(limit));
            core::RunLimits limits;
            limits.maxInstructions = limit;

            core::System batched(config, w.program);
            exp::armSystem(batched, spec, w.program);
            const core::RunResult result = batched.run(limits);
            ASSERT_EQ(result.instructions, limit);
            // The next fetch is in the line of the last one.
            EXPECT_NE(result.finalState.pc() % 64, 0u);
            EXPECT_GT(statValue(batched, "main.sb_uops") /
                          statValue(batched, "main.sb_batches"),
                      16.0);
            pinned_stalls += statValue(batched, "system.evictionCuts");
            l1i_evictions += statValue(batched, "mem.l1i.evictions");

            core::SharedUncore uncore = core::makeSharedUncore(config);
            core::System one(config, w.program, &uncore);
            exp::armSystem(one, spec, w.program);
            const core::RunResult one_result = one.run(limits);

            // One fetch per executed instruction, on either side: a
            // repeat left unsettled would be missing from both.
            for (core::System *sys : {&batched, &one})
                for (const char *group : {"mem.itlb.", "mem.l1i."})
                    EXPECT_EQ(statValue(*sys, std::string(group) + "hits") +
                                  statValue(*sys,
                                            std::string(group) + "misses"),
                              double(result.executed))
                        << group;
            EXPECT_EQ(fetchCounters(batched), fetchCounters(one));
            EXPECT_EQ(simDigest(spec,
                                exp::summarizeRun(batched, result,
                                                  w.expectedResult),
                                registryJson(batched)),
                      simDigest(spec,
                                exp::summarizeRun(one, one_result,
                                                  w.expectedResult),
                                registryJson(one)));
        }
    }
    EXPECT_GT(pinned_stalls, 100.0);
    EXPECT_GT(l1i_evictions, 100.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, SystemDifferential,
    ::testing::Range<std::size_t>(0, scenarios().size()),
    [](const ::testing::TestParamInfo<std::size_t> &info) {
        return std::string(scenarios()[info.param].name);
    });

} // namespace
