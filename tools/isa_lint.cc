/**
 * @file
 * isa_lint: static analysis of the built-in PDX64 workloads.
 *
 * Runs the analysis::Linter pass pipeline (CFG, reachability,
 * register dataflow, memory footprint, termination heuristics, and
 * optionally the interval range passes) over any subset of the
 * registered workloads:
 *
 *   isa_lint --list                 # names, one per line
 *   isa_lint --all                  # lint every workload
 *   isa_lint bitcount stream        # lint selected workloads
 *   isa_lint --all --json           # one JSON report per line
 *   isa_lint --all --Werror         # warnings fail the run
 *   isa_lint --all --scale 4        # lint at benchmark scale
 *   isa_lint --all --ranges         # interval ranges + trip bounds
 *   isa_lint --all --stats          # per-pass counts and timings
 *   isa_lint --all --vuln --json            # paradox-vuln/1 JSONL
 *   isa_lint --all --vuln --chip-seed 101 --json  # + cell verdicts
 *   isa_lint --all --memdep --json          # paradox-memdep/1 JSONL
 *
 * --vuln replaces the lint reports on stdout with the static
 * fault-vulnerability model (live-bit/ACE masks, one record per
 * workload; JSONL under --json; implies --ranges so interval facts
 * prune provably-masked ranges); lint still runs and failing
 * workloads print their report to stderr, so the model stream stays
 * machine-parsable.  --chip-seed additionally emits per-weak-cell
 * verdicts for that chip's fault map.  --memdep does the same with
 * the memory-dependence / effect-summary model: per-run load/store
 * counts, worst-case log-byte bounds, and the alias-oracle pair
 * census, stamped with the decoded content hash so `trace_report
 * --memdep` can reject a stale model.
 *
 * Exit status: 0 when every linted program is clean, 1 when any
 * program has an error-severity diagnostic (or any warning under
 * --Werror), 2 on usage errors.  CI runs `isa_lint --all --ranges
 * --Werror`, so a malformed workload can never reach the
 * fault-injection experiments.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/linter.hh"
#include "analysis/memdep.hh"
#include "analysis/vuln.hh"
#include "core/config.hh"
#include "core/logbytes.hh"
#include "isa/decoded.hh"
#include "exp/cli.hh"
#include "faults/chip_model.hh"
#include "isa/builder.hh"
#include "power/undervolt_data.hh"
#include "workloads/workload.hh"

int
main(int argc, char **argv)
{
    using namespace paradox;

    bool all = false, json = false, werror = false, list = false;
    bool ranges = false, stats = false, vuln = false;
    bool memdep = false;
    unsigned scale = 1;
    std::uint64_t chipSeed = 0;

    exp::Cli cli("isa_lint",
                 "static analysis (CFG, dataflow, footprint, "
                 "termination) over the built-in workloads; name "
                 "workloads as positional arguments or pass --all");
    cli.flag("all", all, "lint every registered workload");
    cli.flag("list", list, "print workload names and exit");
    cli.flag("json", json, "one paradox-lint/1 JSON object per line");
    cli.flag("Werror", werror, "treat warnings as errors");
    cli.flag("ranges", ranges,
             "run the interval abstract interpretation: range-based "
             "footprint checks, dead branches, div/shift ranges, "
             "loop trip bounds");
    cli.flag("stats", stats,
             "append per-pass diagnostic counts and wall-clock "
             "timings to text reports");
    cli.flag("vuln", vuln,
             "emit the static fault-vulnerability model (live-bit/ACE "
             "masks, paradox-vuln/1 JSONL under --json) instead of "
             "lint reports (implies --ranges)");
    cli.flag("memdep", memdep,
             "emit the static memory-dependence / effect-summary "
             "model (per-run log-byte bounds, alias pair census, "
             "paradox-memdep/1 JSONL under --json) instead of lint "
             "reports (implies --ranges)");
    cli.opt("scale", scale, "workload size multiplier");
    cli.opt("chip-seed", chipSeed,
            "with --vuln: also emit per-weak-cell ACE verdicts for "
            "this chip's fault map (0 = off)");

    // Split positional workload names from flags; value-taking
    // options keep their value glued to them.
    const std::vector<std::string> valueOpts = {"--scale",
                                                "--chip-seed"};
    std::vector<std::string> names;
    std::vector<char *> flagArgs = {argv[0]};
    for (int i = 1; i < argc; ++i) {
        if (argv[i][0] != '-') {
            names.push_back(argv[i]);
            continue;
        }
        flagArgs.push_back(argv[i]);
        for (const auto &opt : valueOpts)
            if (opt == argv[i] && i + 1 < argc) {
                flagArgs.push_back(argv[++i]);
                break;
            }
    }
    if (!cli.parse(int(flagArgs.size()), flagArgs.data()))
        return 2;

    if (list) {
        for (const auto &name : workloads::allNames())
            std::printf("%s\n", name.c_str());
        return 0;
    }
    if (all)
        names = workloads::allNames();
    if (names.empty()) {
        std::fprintf(stderr,
                     "isa_lint: no workloads selected "
                     "(pass names, --all, or --list)\n");
        return 2;
    }
    if (vuln && memdep) {
        std::fprintf(stderr,
                     "isa_lint: --vuln and --memdep are mutually "
                     "exclusive (one model stream per run)\n");
        return 2;
    }
    if (vuln || memdep)
        ranges = true;

    // Every workload stores its checksum to the ABI result cell,
    // which is part of the footprint but not of any one program.
    analysis::Options opts;
    opts.extraRegions.push_back({workloads::resultAddr, 8, "result"});
    opts.ranges = ranges;
    // The vulnerability and memory-dependence passes ride along with
    // the interval passes: their diagnostics land in lint reports
    // (and their counts and timings in --stats) whether or not a
    // model stream is emitted.
    opts.vuln = ranges;
    opts.memdep = ranges;
    const analysis::Linter linter(opts);

    bool failed = false;
    std::size_t totalErrors = 0, totalWarnings = 0;
    if (vuln && json)
        std::printf("%s\n", analysis::vulnJsonHeader().c_str());
    if (memdep && json)
        std::printf("%s\n", analysis::memdepJsonHeader().c_str());
    for (const auto &name : names) {
        analysis::Report report;
        bool built = false;
        workloads::Workload w;
        try {
            w = workloads::build(name, scale);
            built = true;
            report = linter.lint(w.program);
        } catch (const isa::BuildError &err) {
            // Assembly-level failures become build diagnostics so the
            // report formats stay uniform.
            report.program = name;
            for (const auto &msg : err.messages())
                report.diags.push_back(
                    {analysis::Severity::Error, "build", "build-error",
                     analysis::Diagnostic::noIndex, "", "", msg});
        }
        totalErrors += report.errors();
        totalWarnings += report.warnings();
        if (!report.clean(werror))
            failed = true;

        if (vuln) {
            if (!report.clean(werror))
                std::fputs(report.toText(stats).c_str(), stderr);
            if (!built)
                continue;
            const auto va = analysis::VulnAnalysis::build(
                w.program, opts.extraRegions);
            if (json) {
                std::printf(
                    "%s\n",
                    analysis::vulnJsonLine(*va, name, scale).c_str());
            } else {
                const analysis::VulnAnalysis::Stats &st = va->stats();
                std::printf(
                    "%s: %llu/%llu register bits live (%.1f%%), "
                    "%llu interval-pruned edge(s), "
                    "%llu/%llu footprint bytes live at entry\n",
                    name.c_str(), (unsigned long long)st.regBitsLive,
                    (unsigned long long)st.regBitsTotal,
                    100.0 * st.liveFraction,
                    (unsigned long long)st.prunedEdges,
                    (unsigned long long)st.footprintLiveAtEntry,
                    (unsigned long long)st.footprintBytes);
            }
            if (chipSeed != 0) {
                // Rebuild the chip exactly as exp::runOne samples it,
                // so the fingerprint matches chip-mode campaign runs.
                const core::SystemConfig sys =
                    core::SystemConfig::forMode(core::Mode::ParaDox);
                faults::ChipConfig cc;
                cc.chipSeed = chipSeed;
                cc.checkerCount = sys.checkers.count;
                cc.logRows = unsigned(sys.log.segmentBytes /
                                      sys.log.loadEntryBytes);
                cc.shape = power::errorModelParams(name);
                const faults::ChipModel chip(cc);
                if (json) {
                    std::printf("%s\n",
                                analysis::vulnChipJsonLine(*va, chip,
                                                           name)
                                    .c_str());
                } else {
                    unsigned dead = 0;
                    for (const auto &cell : chip.cells())
                        if (va->cellVerdict(cell) ==
                            analysis::SiteVerdict::Dead)
                            ++dead;
                    std::printf("%s: chip %llu: %u/%zu weak cell(s) "
                                "provably dead\n",
                                name.c_str(),
                                (unsigned long long)chipSeed, dead,
                                chip.cells().size());
                }
            }
            continue;
        }

        if (memdep) {
            if (!report.clean(werror))
                std::fputs(report.toText(stats).c_str(), stderr);
            if (!built)
                continue;
            const analysis::Cfg cfg = analysis::Cfg::build(w.program);
            const std::vector<bool> reachable = cfg.reachableBlocks();
            const analysis::IntervalAnalysis ai =
                analysis::IntervalAnalysis::run(w.program, cfg,
                                                reachable);
            const analysis::Context ctx{w.program, cfg, reachable,
                                        opts};
            const analysis::MemDep md = analysis::MemDep::run(ctx, ai);
            const analysis::MemDep::PairCounts pairs = md.pairCounts();
            const auto dp = isa::DecodedProgram::get(w.program);
            // The byte geometry the running system admits batches
            // under (line size from the default hierarchy).
            const core::SystemConfig sys =
                core::SystemConfig::forMode(core::Mode::ParaDox);
            const analysis::EffectSummary es =
                analysis::EffectSummary::build(
                    *dp, core::logEffectParams(
                             sys, sys.hierarchy.l1d.lineBytes));
            if (json) {
                std::printf("%s\n",
                            analysis::memdepJsonLine(
                                name, scale, es, pairs,
                                md.accesses().size())
                                .c_str());
            } else {
                std::printf(
                    "%s: %zu access(es), pairs no/may/must "
                    "%llu/%llu/%llu, %zu run(s), max run bound "
                    "%llu B, max op bound %llu B\n",
                    name.c_str(), md.accesses().size(),
                    (unsigned long long)pairs.no,
                    (unsigned long long)pairs.may,
                    (unsigned long long)pairs.must,
                    es.runs().size(),
                    (unsigned long long)es.maxRunBytes(),
                    (unsigned long long)es.maxUopBytes());
            }
            continue;
        }

        if (json)
            std::printf("%s\n", report.toJson().c_str());
        else
            std::fputs(report.toText(stats).c_str(), stdout);
    }

    if (!json && !vuln && !memdep)
        std::printf("%zu workload(s): %zu error(s), %zu warning(s)%s\n",
                    names.size(), totalErrors, totalWarnings,
                    werror ? " [-Werror]" : "");
    return failed ? 1 : 0;
}
