/**
 * @file
 * Figure 8 — performance of bitcount under increasing error
 * probabilities, relative to ParaMedic with fault-free execution.
 *
 * Expected shape (paper): both systems are fine at realistic rates;
 * ParaMedic collapses (livelock-like, ~16x) once ~1 in 5,000
 * operations faults, while ParaDox's adaptive checkpoint lengths
 * sustain comparable performance at error rates about two orders of
 * magnitude higher (8x slowdown only near 1e-2).
 */

#include <cstdio>
#include <vector>

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace paradox;
    using namespace paradox::bench;

    exp::Runner runner = benchRunner("bench_fig8", argc, argv);

    banner("Figure 8: bitcount slowdown vs error rate "
           "(relative to fault-free ParaMedic)");

    const std::vector<double> rates = {1e-7, 3e-7, 1e-6, 3e-6, 1e-5,
                                       3e-5, 1e-4, 3e-4, 1e-3, 3e-3,
                                       1e-2};

    // Spec 0 is the fault-free reference; then one pair per rate.
    std::vector<exp::ExperimentSpec> specs;
    exp::ExperimentSpec base;
    base.mode = core::Mode::ParaMedic;
    base.workload = "bitcount";
    specs.push_back(base);
    for (double rate : rates) {
        for (core::Mode mode :
             {core::Mode::ParaMedic, core::Mode::ParaDox}) {
            exp::ExperimentSpec spec = base;
            spec.mode = mode;
            spec.faultRate = rate;
            specs.push_back(spec);
        }
    }

    std::vector<exp::RunOutcome> outcomes = runner.run(specs);
    // A faulty ParaMedic run may livelock into a limit: its slowdown
    // is then a lower bound.
    const std::vector<bool> lower_bound =
        checkRuns("bench_fig8", specs, outcomes,
                  [](const exp::ExperimentSpec &spec) {
                      return spec.mode == core::Mode::ParaMedic &&
                             spec.faultRate > 0.0;
                  });
    const double t0 = double(outcomes[0].result.time);

    std::printf("%-10s %-22s %-22s\n", "rate",
                "ParaMedic slowdown", "ParaDox slowdown");
    for (std::size_t i = 0; i < rates.size(); ++i) {
        const std::size_t m = 1 + 2 * i, d = 2 + 2 * i;
        const double medic = double(outcomes[m].result.time) / t0;
        const double dox = double(outcomes[d].result.time) / t0;
        std::printf("%-10.0e %s%-21.2f %s%-21.2f\n", rates[i],
                    boundMark(lower_bound[m]), medic,
                    boundMark(lower_bound[d]), dox);
    }
    return 0;
}
