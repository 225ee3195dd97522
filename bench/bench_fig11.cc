/**
 * @file
 * Figure 11 — supply voltage over time for ParaDox running bitcount,
 * comparing the default *dynamic* decrease (slowed 8x below the
 * highest-voltage-error tide mark) against a *constant* decrease
 * rate.
 *
 * Expected shape (paper): the dynamic policy reaches a lower average
 * steady-state voltage with far fewer errors than the constant
 * policy, and both averages sit well below the highest voltage at
 * which any error was observed.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common.hh"

namespace
{

using namespace paradox;
using namespace paradox::bench;

struct Trace
{
    std::vector<std::pair<Tick, double>> samples;
    double highestError = 0.0;

    double
    steadyAverage() const
    {
        // Steady state: time-ordered second half of the trace.
        double sum = 0.0;
        std::size_t n = 0;
        for (std::size_t i = samples.size() / 2; i < samples.size();
             ++i) {
            sum += samples[i].second;
            ++n;
        }
        return n ? sum / double(n) : 0.0;
    }
};

exp::ExperimentSpec
policySpec(bool dynamic_decrease, Trace &out)
{
    exp::ExperimentSpec spec;
    spec.workload = "bitcount";
    spec.scale = 96;
    spec.mode = core::Mode::ParaDox;
    spec.dvfs = true;
    spec.limits.maxExecuted = 400'000'000;
    spec.limits.maxTicks = ticksPerMs * 40;
    spec.configure = [dynamic_decrease](core::SystemConfig &c) {
        c.voltage.dynamicDecrease = dynamic_decrease;
    };
    spec.observe = [&out](core::System &system, exp::RunOutcome &) {
        out.samples = system.voltageTrace().samples();
        out.highestError =
            system.voltageController().highestErrorVoltage();
    };
    return spec;
}

void
printDecimated(const char *label, const Trace &t)
{
    std::printf("\n# %s voltage trace (time_ms voltage_v), "
                "%zu samples decimated to <=40 rows\n",
                label, t.samples.size());
    const std::size_t step =
        t.samples.size() > 40 ? t.samples.size() / 40 : 1;
    for (std::size_t i = 0; i < t.samples.size(); i += step) {
        std::printf("%8.3f  %6.4f\n",
                    double(t.samples[i].first) / double(ticksPerMs),
                    t.samples[i].second);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    exp::Runner runner = benchRunner("bench_fig11", argc, argv);

    banner("Figure 11: voltage over time on ParaDox running bitcount");

    Trace dynamic, constant;
    std::vector<exp::ExperimentSpec> specs = {
        policySpec(true, dynamic),
        policySpec(false, constant),
    };
    std::vector<exp::RunOutcome> outcomes = runner.run(specs);
    checkRuns("bench_fig11", specs, outcomes);
    const core::RunResult &rd = outcomes[0].result;
    const core::RunResult &rc = outcomes[1].result;

    std::printf("%-22s %-14s %-14s\n", "metric", "dynamic",
                "constant");
    std::printf("%-22s %-14.4f %-14.4f\n", "steady-state avg V",
                dynamic.steadyAverage(), constant.steadyAverage());
    std::printf("%-22s %-14.4f %-14.4f\n", "highest error V",
                dynamic.highestError, constant.highestError);
    std::printf("%-22s %-14llu %-14llu\n", "errors",
                (unsigned long long)rd.errorsDetected,
                (unsigned long long)rc.errorsDetected);
    std::printf("%-22s %-14.3f %-14.3f\n", "simulated time (ms)",
                rd.seconds() * 1e3, rc.seconds() * 1e3);
    std::printf("%-22s %-14.4f %-14.4f\n", "avg voltage (whole run)",
                rd.avgVoltage, rc.avgVoltage);

    printDecimated("dynamic-decrease", dynamic);
    printDecimated("constant-decrease", constant);
    return 0;
}
