/**
 * @file
 * Figure 9 — average overheads of re-execution (wasted execution)
 * and memory rollback at low and high error rates, for bitcount
 * (compute-bound) and stream (memory-bound).
 *
 * Expected shape (paper): wasted execution dominates rollback by one
 * to two orders of magnitude; ParaDox's rollback is ~10x cheaper than
 * ParaMedic's (line- vs word-granularity); at high rates ParaDox also
 * wastes far less execution because its checkpoints shrink.  Stream's
 * checkpoints are short regardless (log fills quickly), so its gap is
 * smaller.
 */

#include <cstdio>
#include <vector>

#include "common.hh"

namespace
{

using namespace paradox;
using namespace paradox::bench;

exp::ExperimentSpec
pointSpec(const char *workload, core::Mode mode, double rate)
{
    exp::ExperimentSpec spec;
    spec.workload = workload;
    spec.mode = mode;
    spec.faultRate = rate;
    spec.seed = 1234;
    // Longer runs at lower rates, so each point observes errors.
    spec.scale = 1;
    if (rate <= 1e-7)
        spec.scale = 96;
    else if (rate <= 1e-6)
        spec.scale = 24;
    else if (rate <= 1e-5)
        spec.scale = 6;
    spec.limits.maxExecuted = 300'000'000;
    spec.limits.maxTicks = ticksPerMs * 2000;
    return spec;
}

} // namespace

int
main(int argc, char **argv)
{
    exp::Runner runner = benchRunner("bench_fig9", argc, argv);

    banner("Figure 9: mean recovery overheads (ns), with ranges");
    std::printf("%-9s %-10s %-8s %7s  %-34s %-34s\n", "workload",
                "system", "rate", "rolls",
                "rollback ns mean [min,max]",
                "wasted-exec ns mean [min,max]");

    std::vector<exp::ExperimentSpec> specs;
    for (const char *workload : {"bitcount", "stream"})
        for (double rate : {1e-7, 1e-6, 1e-5, 1e-4})
            for (core::Mode mode :
                 {core::Mode::ParaMedic, core::Mode::ParaDox})
                specs.push_back(pointSpec(workload, mode, rate));

    std::vector<exp::RunOutcome> outcomes = runner.run(specs);
    checkRuns("bench_fig9", specs, outcomes);

    for (std::size_t i = 0; i < specs.size(); ++i) {
        const exp::ExperimentSpec &spec = specs[i];
        const exp::RunOutcome &o = outcomes[i];
        std::printf("%-9s %-10s %-8.0e %7llu  "
                    "%10.1f [%8.1f,%10.1f]  %10.1f [%8.1f,%10.1f]\n",
                    spec.workload.c_str(), core::modeName(spec.mode),
                    spec.faultRate,
                    static_cast<unsigned long long>(o.result.rollbacks),
                    o.rollbackNs.mean, o.rollbackNs.min,
                    o.rollbackNs.max, o.wastedNs.mean, o.wastedNs.min,
                    o.wastedNs.max);
        if (i % 8 == 7)
            std::printf("\n");
    }
    return 0;
}
