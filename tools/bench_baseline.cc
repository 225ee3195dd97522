/**
 * @file
 * bench_baseline: wall-clock throughput baseline for the simulator.
 *
 * Runs a small fixed set of workloads fault-free through the full
 * ParaDox pipeline (main core + checkers + load-store log) and
 * reports simulated instructions per wall-clock second.  The output
 * is a single schema'd JSON document ("paradox-bench/1") meant to be
 * checked in as BENCH_baseline.json so perf regressions show up as
 * a diff in review rather than as a surprise months later.
 *
 * Each workload runs --reps times (default 3) and the *best* wall
 * time is kept: the minimum is the least noisy estimator for a
 * deterministic CPU-bound job on a shared machine.  The median and
 * slowest rep are reported next to it as the spread.
 *
 * The report header carries the host/build provenance (CPU model,
 * cores, compiler, flags, git SHA): throughput is only comparable
 * within one box and build, and the provenance makes a cross-box
 * re-measurement visible in review.
 *
 * --profile adds one extra *profiled* repetition per workload (the
 * timed reps stay unperturbed), writes its paradox-prof/1 attribution
 * to PREFIX-<workload>.prof.jsonl (--profile-out PREFIX, default
 * "bench") and embeds a "prof" object -- attributed-coverage fraction
 * and the top self-time phases -- in the workload's record.
 *
 * Exit status 0 iff every run completed with the golden checksum.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "exp/cli.hh"
#include "exp/spec.hh"
#include "obs/hostinfo.hh"
#include "obs/profiler.hh"
#include "sim/logging.hh"

namespace
{

struct BenchResult
{
    std::string name;
    std::uint64_t simInstructions = 0;
    std::uint64_t executed = 0;
    double wallMs = 0.0;        //!< best rep
    double wallMsMedian = 0.0;
    double wallMsMax = 0.0;
    double instPerSec = 0.0;
    bool correct = false;
    /** @{ --profile extras (profFile empty = not profiled). */
    std::string profFile;
    std::uint64_t profWallNs = 0;
    double profCoverage = 0.0;
    std::vector<paradox::obs::ProfPhase> hot; //!< top phases by self
    /** @} */
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace paradox;
    using Clock = std::chrono::steady_clock;

    std::string workloads_arg = "bitcount,stream,mcf";
    std::string out_path;
    unsigned scale = 2;
    unsigned reps = 3;
    bool quiet = false;
    bool profile = false;
    std::string profile_out = "bench";

    exp::Cli cli("bench_baseline",
                 "wall-clock simulator throughput baseline");
    cli.opt("workloads", workloads_arg,
            "comma-separated workload list");
    cli.opt("scale", scale, "workload size multiplier");
    cli.opt("reps", reps, "repetitions per workload (best kept)");
    cli.opt("out", out_path, "write the JSON report here");
    cli.flag("profile", profile,
             "run one extra profiled rep per workload and report "
             "host-time attribution (paradox-prof/1)");
    cli.opt("profile-out", profile_out,
            "profile filename prefix (PREFIX-<workload>.prof.jsonl)");
    cli.flag("quiet", quiet, "suppress progress output");
    cli.alias("q", "quiet");
    if (!cli.parse(argc, argv))
        return 2;
    if (quiet)
        setLogLevel(0);
    if (reps == 0)
        reps = 1;
    if (profile && !obs::profilingCompiledIn) {
        warn("--profile requested but the profiler is compiled out "
             "(PARADOX_PROFILING=0); skipping attribution");
        profile = false;
    }

    std::vector<std::string> names;
    std::string cur;
    for (char c : workloads_arg + ",") {
        if (c == ',') {
            if (!cur.empty())
                names.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }

    std::vector<BenchResult> results;
    bool all_correct = true;
    for (const auto &name : names) {
        exp::ExperimentSpec spec;
        spec.workload = name;
        spec.scale = scale;
        spec.mode = core::Mode::ParaDox;
        spec.checkers = 16;
        spec.maxCheckpoint = 5000;
        spec.limits.maxExecuted = 2'000'000'000ULL;
        spec.limits.maxTicks = ticksPerMs * 30000;

        BenchResult best;
        best.name = name;
        std::vector<double> rep_ms;
        for (unsigned rep = 0; rep < reps; ++rep) {
            exp::RunOutcome out;
            const auto t0 = Clock::now();
            try {
                out = exp::runOne(spec);
            } catch (const std::exception &e) {
                std::fprintf(stderr, "bench_baseline: %s: %s\n",
                             name.c_str(), e.what());
                return 2;
            }
            const auto t1 = Clock::now();
            const double ms =
                std::chrono::duration<double, std::milli>(t1 - t0)
                    .count();
            rep_ms.push_back(ms);
            if (rep == 0 || ms < best.wallMs) {
                best.wallMs = ms;
                best.simInstructions = out.result.instructions;
                best.executed = out.result.executed;
                best.correct = out.correct;
            }
            if (!out.correct)
                best.correct = false;
            if (!quiet)
                std::fprintf(stderr,
                             "bench_baseline: %-10s rep %u/%u: "
                             "%.1f ms%s\n",
                             name.c_str(), rep + 1, reps, ms,
                             out.correct ? "" : "  [WRONG RESULT]");
        }
        std::sort(rep_ms.begin(), rep_ms.end());
        best.wallMsMedian = rep_ms[rep_ms.size() / 2];
        best.wallMsMax = rep_ms.back();
        best.instPerSec =
            best.wallMs > 0.0
                ? double(best.executed) / (best.wallMs / 1e3)
                : 0.0;

        // The profiled rep is separate from (and after) the timed
        // reps, so enabling attribution never perturbs the published
        // throughput numbers.
        if (profile) {
            obs::Profiler::reset();
            obs::Profiler::setEnabled(true);
            exp::RunOutcome out;
            const auto t0 = Clock::now();
            try {
                out = exp::runOne(spec);
            } catch (const std::exception &e) {
                obs::Profiler::setEnabled(false);
                std::fprintf(stderr, "bench_baseline: %s: %s\n",
                             name.c_str(), e.what());
                return 2;
            }
            const auto t1 = Clock::now();
            obs::Profiler::setEnabled(false);

            best.profWallNs = std::uint64_t(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    t1 - t0)
                    .count());
            std::vector<obs::ProfPhase> phases =
                obs::Profiler::snapshot();
            best.profCoverage =
                best.profWallNs
                    ? double(obs::Profiler::rootTotalNs(phases)) /
                          double(best.profWallNs)
                    : 0.0;

            obs::ProfMeta meta;
            meta.tool = "bench_baseline";
            meta.workload = name;
            meta.simInstructions = out.result.executed;
            meta.wallNs = best.profWallNs;
            best.profFile =
                profile_out + "-" + name + ".prof.jsonl";
            if (!obs::writeProfJsonlFile(best.profFile, phases,
                                         meta)) {
                std::fprintf(stderr,
                             "bench_baseline: cannot write %s\n",
                             best.profFile.c_str());
                return 2;
            }

            best.hot = phases;
            std::sort(best.hot.begin(), best.hot.end(),
                      [](const obs::ProfPhase &a,
                         const obs::ProfPhase &b) {
                          return a.selfNs > b.selfNs;
                      });
            if (best.hot.size() > 5)
                best.hot.resize(5);
            if (!quiet)
                std::fprintf(stderr,
                             "bench_baseline: %-10s profiled: "
                             "%.1f ms, %.1f%% attributed -> %s\n",
                             name.c_str(),
                             double(best.profWallNs) / 1e6,
                             100.0 * best.profCoverage,
                             best.profFile.c_str());
        }

        all_correct = all_correct && best.correct;
        results.push_back(best);
    }

    std::string json = "{\"schema\":\"paradox-bench/1\","
                       "\"tool\":\"bench_baseline\",";
    json += "\"host\":{" + obs::hostJsonFields() + "},";
    json += "\"scale\":" + std::to_string(scale) +
            ",\"reps\":" + std::to_string(reps) + ",\"workloads\":[";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const BenchResult &r = results[i];
        char buf[512];
        std::snprintf(buf, sizeof buf,
                      "%s{\"name\":\"%s\",\"sim_instructions\":%llu,"
                      "\"executed\":%llu,\"wall_ms\":%.1f,"
                      "\"wall_ms_median\":%.1f,\"wall_ms_max\":%.1f,"
                      "\"inst_per_sec\":%.0f,\"correct\":%s",
                      i ? "," : "", r.name.c_str(),
                      (unsigned long long)r.simInstructions,
                      (unsigned long long)r.executed, r.wallMs,
                      r.wallMsMedian, r.wallMsMax, r.instPerSec,
                      r.correct ? "true" : "false");
        json += buf;
        if (!r.profFile.empty()) {
            std::snprintf(buf, sizeof buf,
                          ",\"prof\":{\"wall_ns\":%llu,"
                          "\"coverage\":%.4f,\"file\":\"%s\","
                          "\"hot\":[",
                          (unsigned long long)r.profWallNs,
                          r.profCoverage, r.profFile.c_str());
            json += buf;
            for (std::size_t h = 0; h < r.hot.size(); ++h) {
                const obs::ProfPhase &p = r.hot[h];
                std::snprintf(
                    buf, sizeof buf,
                    "%s{\"path\":\"%s\",\"self_ns\":%llu,"
                    "\"self_pct\":%.1f}",
                    h ? "," : "", p.path.c_str(),
                    (unsigned long long)p.selfNs,
                    r.profWallNs ? 100.0 * double(p.selfNs) /
                                       double(r.profWallNs)
                                 : 0.0);
                json += buf;
            }
            json += "]}";
        }
        json += "}";
    }
    json += "]}";

    if (out_path.empty()) {
        std::printf("%s\n", json.c_str());
    } else {
        std::FILE *f = std::fopen(out_path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "bench_baseline: cannot write %s\n",
                         out_path.c_str());
            return 2;
        }
        std::fprintf(f, "%s\n", json.c_str());
        std::fclose(f);
    }

    for (const BenchResult &r : results)
        std::fprintf(stderr,
                     "bench_baseline: %-10s %8.1f ms  "
                     "%11.0f sim-inst/s%s\n",
                     r.name.c_str(), r.wallMs, r.instPerSec,
                     r.correct ? "" : "  [WRONG RESULT]");
    return all_correct ? 0 : 1;
}
