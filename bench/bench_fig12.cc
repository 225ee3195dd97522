/**
 * @file
 * Figure 12 — proportion of time each of the 16 checker cores is
 * awake, with ParaDox's aggressive checker gating (lowest-free-ID
 * scheduling), across the SPEC proxies.
 *
 * Expected shape (paper): usage concentrates on low IDs; a few
 * workloads (gobmk, sjeng, h264ref) touch many checkers at peaks,
 * but no workload keeps more than ~8 busy on average, which is the
 * basis for the paper's checker-sharing observation.
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common.hh"
#include "workloads/workload.hh"

int
main(int argc, char **argv)
{
    using namespace paradox;
    using namespace paradox::bench;

    exp::Runner runner = benchRunner("bench_fig12", argc, argv);

    banner("Figure 12: per-checker wake rates under aggressive "
           "gating");
    std::printf("%-11s", "workload");
    for (int i = 0; i < 16; ++i)
        std::printf(" c%02d ", i);
    std::printf("  avg-awake\n");

    const std::vector<std::string> &names = workloads::specNames();
    std::vector<exp::ExperimentSpec> specs;
    for (const std::string &name : names) {
        exp::ExperimentSpec spec;
        spec.mode = core::Mode::ParaDox;
        spec.workload = name;
        specs.push_back(spec);
    }

    std::vector<exp::RunOutcome> outcomes = runner.run(specs);
    checkRuns("bench_fig12", specs, outcomes);

    double worst_avg = 0.0;
    for (std::size_t i = 0; i < names.size(); ++i) {
        const core::RunResult &r = outcomes[i].result;
        std::printf("%-11s", names[i].c_str());
        for (double rate : r.wakeRates)
            std::printf(" %4.2f", rate);
        std::printf("  %6.2f\n", r.avgCheckersAwake);
        worst_avg = std::max(worst_avg, r.avgCheckersAwake);
    }
    std::printf("\nmax average checkers awake across workloads: "
                "%.2f of 16\n",
                worst_avg);
    return 0;
}
