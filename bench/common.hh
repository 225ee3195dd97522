/**
 * @file
 * Shared helpers for the figure-regeneration harnesses: table
 * printing that matches the paper's rows/series, and the outcome
 * check every sweep passes before a number is printed.  The harnesses
 * build exp::ExperimentSpec batches and sweep them through
 * exp::Runner.
 */

#ifndef PARADOX_BENCH_COMMON_HH
#define PARADOX_BENCH_COMMON_HH

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "exp/cli.hh"
#include "exp/runner.hh"
#include "exp/spec.hh"

namespace paradox
{
namespace bench
{

/** Default per-run bounds: generous but livelock-safe. */
inline core::RunLimits
defaultLimits()
{
    return exp::defaultLimits();
}

/**
 * Parse the one flag every harness shares: --jobs N (0 = all
 * cores).  Returns a Runner over that many workers with progress
 * reporting on stderr.
 */
inline exp::Runner
benchRunner(const char *name, int argc, char **argv)
{
    unsigned jobs = 0;
    exp::Cli cli(name, "figure-regeneration harness");
    cli.opt("jobs", jobs, "parallel simulations (0 = all cores)");
    if (!cli.parse(argc, argv))
        std::exit(2);
    exp::RunnerOptions opt;
    opt.jobs = jobs;
    opt.progress = true;
    opt.label = name;
    return exp::Runner(opt);
}

/**
 * Which runs of a sweep may stop at a limit: their figure is then a
 * lower bound (fig 8's ParaMedic livelock points), printed with
 * boundMark().
 */
using LowerBoundRule = std::function<bool(const exp::ExperimentSpec &)>;

/**
 * The outcome check of every figure bench.  Each run of @p specs must
 * finish correct (halt with the golden checksum), or stop at a limit
 * while @p may_stop_short declares it a lower bound.  Any other run
 * -- a limit stop nobody declared, a wrong result, a job that threw
 * -- prints its workload, mode, scale, seed and rate on stderr, and
 * the bench exits 1 once every such run is named.
 * @return per run, whether its figure is a lower bound
 */
inline std::vector<bool>
checkRuns(const char *bench, const std::vector<exp::ExperimentSpec> &specs,
          const std::vector<exp::RunOutcome> &outcomes,
          const LowerBoundRule &may_stop_short = nullptr)
{
    std::vector<bool> lower_bound(specs.size(), false);
    bool failed = false;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const exp::ExperimentSpec &spec = specs[i];
        const exp::RunOutcome &out = outcomes[i];
        if (out.correct)
            continue;
        const bool limit_stop = out.ok() && !out.result.halted;
        if (limit_stop && may_stop_short && may_stop_short(spec)) {
            lower_bound[i] = true;
            continue;
        }
        const std::string why =
            !out.ok()    ? "failed: " + out.error
            : limit_stop ? std::string("stopped at a limit")
                         : std::string("halted with a wrong result");
        std::fprintf(stderr,
                     "%s: run %zu %s: workload %s, mode %s, scale %u, "
                     "seed %llu, rate %g\n",
                     bench, i, why.c_str(), spec.workload.c_str(),
                     core::modeName(spec.mode), spec.scale,
                     (unsigned long long)spec.seed, spec.faultRate);
        failed = true;
    }
    if (failed)
        std::exit(1);
    return lower_bound;
}

/** "≥" before a lower-bound figure, a space before an exact one. */
inline const char *
boundMark(bool lower_bound)
{
    return lower_bound ? "≥" : " ";
}

/** Geometric mean of a container of positive values. */
template <typename C>
double
geomean(const C &values)
{
    double log_sum = 0.0;
    std::size_t n = 0;
    for (double v : values) {
        log_sum += std::log(v);
        ++n;
    }
    return n ? std::exp(log_sum / double(n)) : 0.0;
}

/** Print a banner line for a figure harness. */
inline void
banner(const char *what)
{
    std::printf("================================================="
                "=====\n%s\n"
                "================================================="
                "=====\n",
                what);
}

} // namespace bench
} // namespace paradox

#endif // PARADOX_BENCH_COMMON_HH
