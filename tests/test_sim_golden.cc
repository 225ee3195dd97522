/**
 * @file
 * Golden simulated output: every workload at scale 1 under every
 * scenario of sim_scenarios.hh must hash to the digest checked in at
 * tests/sim_golden.txt.
 *
 * test_system_differential only compares full-size batches with
 * batches of one, which share all of the timing model (caches, TLBs,
 * checker timing, the commit glue); a host-side shortcut that is wrong
 * in that shared code moves both together and passes it.  This test
 * pins the numbers themselves.
 *
 * A change that is *meant* to move simulated numbers regenerates the
 * table with
 *
 *     build/tests/test_sim_golden --update
 *
 * and says so in its description; a performance change never should.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
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

const char *const tablePath = PARADOX_SIM_GOLDEN_TABLE;

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 14695981039346656037ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)v);
    return buf;
}

/** "<workload> <scenario>" -> digest, one entry per run. */
using Table = std::map<std::string, std::string>;

std::string
key(const std::string &workload, const std::string &scenario)
{
    return workload + " " + scenario;
}

/** Runs every workload under scenario @p idx; failures are recorded
 *  in the digest itself so they can never match a good table. */
std::vector<std::pair<std::string, std::string>>
runScenario(std::size_t idx)
{
    const testing_support::Scenario &scenario = scenarios()[idx];
    const std::vector<std::string> &names = workloads::allNames();

    std::vector<exp::ExperimentSpec> specs(names.size());
    std::vector<std::string> registries(names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
        specs[i].workload = names[i];
        scenario.apply(specs[i]);
        specs[i].observe = [&registries, i](core::System &sys,
                                            exp::RunOutcome &) {
            std::ostringstream os;
            sys.registry().dumpJson(os);
            registries[i] = os.str();
        };
    }
    exp::RunnerOptions opt;
    opt.jobs = 2;
    const std::vector<exp::RunOutcome> outs = exp::Runner(opt).run(specs);

    std::vector<std::pair<std::string, std::string>> rows;
    for (std::size_t i = 0; i < names.size(); ++i) {
        const std::string text = testing_support::simDigest(
            specs[i], outs[i], registries[i]);
        rows.emplace_back(key(names[i], scenario.name), hex(fnv1a(text)));
    }
    return rows;
}

Table
loadTable()
{
    Table table;
    std::ifstream in(tablePath);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string workload, scenario, digest;
        if (fields >> workload >> scenario >> digest)
            table[key(workload, scenario)] = digest;
    }
    return table;
}

int
updateTable()
{
    std::ofstream out(tablePath);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", tablePath);
        return 1;
    }
    out << "# Golden simulated output (tests/test_sim_golden.cc): FNV-1a 64\n"
           "# of exp::recordJson + Registry::dumpJson, minus main.sb_*,\n"
           "# per workload x scenario, decoded engine, scale 1.\n"
           "# Regenerate with `test_sim_golden --update` only for a change\n"
           "# that is meant to move simulated numbers.\n";
    for (std::size_t s = 0; s < scenarios().size(); ++s)
        for (const auto &[k, digest] : runScenario(s))
            out << k << " " << digest << "\n";
    std::printf("wrote %s\n", tablePath);
    return out ? 0 : 1;
}

class SimGolden : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(SimGolden, MatchesCheckedInDigests)
{
    static const Table table = loadTable();
    ASSERT_FALSE(table.empty()) << "no golden table at " << tablePath;
    for (const auto &[k, digest] : runScenario(GetParam())) {
        const auto it = table.find(k);
        ASSERT_NE(it, table.end())
            << k << " missing from " << tablePath;
        EXPECT_EQ(it->second, digest)
            << k << ": simulated output moved (see this file's header)";
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, SimGolden,
    ::testing::Range<std::size_t>(0, scenarios().size()),
    [](const ::testing::TestParamInfo<std::size_t> &info) {
        return std::string(scenarios()[info.param].name);
    });

} // namespace

int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--update")
            return updateTable();
    return RUN_ALL_TESTS();
}
