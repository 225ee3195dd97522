/**
 * @file
 * Figure 10 — normalized slowdown across SPEC CPU2006 proxies:
 * error-free passive detection [DSN'18], error-free ParaMedic
 * [DSN'19], and ParaDox with dynamic voltage scaling (errors from
 * the per-workload exponential undervolt model), all relative to a
 * fault-intolerant baseline.
 *
 * Expected shape (paper): slowdowns stay within ~1.15x; ordering is
 * detection-only <= ParaMedic <= ParaDox(DVS); gobmk/povray/h264ref/
 * omnetpp/xalancbmk pay for checker L0 I-cache misses even in
 * detection-only mode.
 */

#include <cstdio>
#include <vector>

#include "common.hh"
#include "workloads/workload.hh"

int
main(int argc, char **argv)
{
    using namespace paradox;
    using namespace paradox::bench;

    exp::Runner runner = benchRunner("bench_fig10", argc, argv);

    banner("Figure 10: normalized slowdown "
           "(detection-only / ParaMedic / ParaDox+DVS)");
    std::printf("%-11s %-12s %-12s %-12s\n", "workload", "detect",
                "paramedic", "paradox-dvs");

    // Four runs per workload: baseline, detect, paramedic, dox+dvs.
    const std::vector<std::string> &names = workloads::specNames();
    std::vector<exp::ExperimentSpec> specs;
    for (const std::string &name : names) {
        exp::ExperimentSpec base;
        base.mode = core::Mode::Baseline;
        base.workload = name;
        base.scale = 16;  // long enough for DVS steady state
        specs.push_back(base);

        exp::ExperimentSpec d = base;
        d.mode = core::Mode::DetectionOnly;
        specs.push_back(d);

        exp::ExperimentSpec m = base;
        m.mode = core::Mode::ParaMedic;
        specs.push_back(m);

        exp::ExperimentSpec p = base;
        p.mode = core::Mode::ParaDox;
        p.dvfs = true;
        specs.push_back(p);
    }

    std::vector<exp::RunOutcome> outcomes = runner.run(specs);
    checkRuns("bench_fig10", specs, outcomes);

    std::vector<double> detect, medic, dox;
    for (std::size_t i = 0; i < names.size(); ++i) {
        const double t0 = double(outcomes[4 * i].result.time);
        const double sd = double(outcomes[4 * i + 1].result.time) / t0;
        const double sm = double(outcomes[4 * i + 2].result.time) / t0;
        const double sp = double(outcomes[4 * i + 3].result.time) / t0;
        detect.push_back(sd);
        medic.push_back(sm);
        dox.push_back(sp);
        std::printf("%-11s %-12.3f %-12.3f %-12.3f\n",
                    names[i].c_str(), sd, sm, sp);
    }
    std::printf("%-11s %-12.3f %-12.3f %-12.3f\n", "gmean",
                geomean(detect), geomean(medic), geomean(dox));
    return 0;
}
