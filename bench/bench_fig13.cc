/**
 * @file
 * Figure 13 — power consumption, slowdown and energy-delay product
 * on an undervolted system with reliability restored via ParaDox,
 * normalized to the voltage-margined fault-intolerant baseline.
 *
 * Expected shape (paper): ~22% mean power reduction, ~4.5% typical
 * slowdown, ~15% mean EDP reduction; astar is the EDP outlier
 * (conflict misses in buffered L1 writes); checker-core power adds
 * at most ~5%.
 */

#include <cstdio>
#include <vector>

#include "common.hh"
#include "power/power_model.hh"
#include "workloads/workload.hh"

int
main(int argc, char **argv)
{
    using namespace paradox;
    using namespace paradox::bench;

    exp::Runner runner = benchRunner("bench_fig13", argc, argv);

    banner("Figure 13: power / slowdown / EDP, undervolted ParaDox "
           "vs margined baseline");
    std::printf("%-11s %-10s %-10s %-10s %-10s\n", "workload",
                "power", "slowdown", "EDP", "avgV");

    const std::vector<std::string> &names = workloads::specNames();
    std::vector<exp::ExperimentSpec> specs;
    for (const std::string &name : names) {
        exp::ExperimentSpec base;
        base.mode = core::Mode::Baseline;
        base.workload = name;
        base.scale = 24;  // long enough for DVS steady state
        specs.push_back(base);

        exp::ExperimentSpec p = base;
        p.mode = core::Mode::ParaDox;
        p.dvfs = true;
        specs.push_back(p);
    }

    std::vector<exp::RunOutcome> outcomes = runner.run(specs);
    checkRuns("bench_fig13", specs, outcomes);

    std::vector<double> powers, slows, edps;
    for (std::size_t i = 0; i < names.size(); ++i) {
        const core::RunResult &rb = outcomes[2 * i].result;
        const core::RunResult &rp = outcomes[2 * i + 1].result;
        double power = rp.avgPower / rb.avgPower;
        double slow = double(rp.time) / double(rb.time);
        double edp = power::edpRatio(rp.avgPower, rp.time, rb.avgPower,
                                     rb.time);
        powers.push_back(power);
        slows.push_back(slow);
        edps.push_back(edp);
        std::printf("%-11s %-10.3f %-10.3f %-10.3f %-10.4f\n",
                    names[i].c_str(), power, slow, edp,
                    rp.avgVoltage);
    }
    std::printf("%-11s %-10.3f %-10.3f %-10.3f\n", "gmean",
                geomean(powers), geomean(slows), geomean(edps));
    std::printf("\npaper anchors: power ~0.78, slowdown ~1.045, "
                "EDP ~0.85\n");
    return 0;
}
