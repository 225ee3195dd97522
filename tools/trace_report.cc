/**
 * @file
 * trace_report: offline analysis of paradox-trace/1 JSONL traces.
 *
 * Reads the .jsonl twin that every traced run writes next to its
 * Chrome JSON (obs::writeTraceJsonl) and prints, per trace:
 *
 *   - per-track event summaries (spans / instants / counter samples)
 *   - segment-latency percentiles (exact, over the recorded "fill"
 *     and "check" span durations)
 *   - a rollback timeline (every recovery span, with its cause)
 *   - a time-in-voltage-level histogram (step-function weighting of
 *     the "voltage" counter track -- the figure 11 view)
 *   - error bursts: clusters of detection instants closer together
 *     than --burst-gap-us, the signature of an intermittent or
 *     latched fault source
 *
 * --cost COST.jsonl additionally cross-validates each trace against
 * the static segment-cost model (`isa_lint --ranges --cost --json`):
 * the summed "seg-insts" instants of a complete fault-free run must
 * land inside the model's [min_dyn_insts, max_dyn_insts] bounds.
 * Traces containing fault or recovery events are skipped (replayed
 * instructions would be double-counted); a bound violation makes the
 * exit status non-zero -- either the workload changed without
 * re-emitting the model, or the abstract interpretation is unsound.
 *
 * --memdep MEMDEP.jsonl cross-validates each fault-free trace
 * against the static memory-dependence model (`isa_lint --memdep
 * --json`): every segment's actual logged bytes ("seg-log-bytes")
 * must stay within the static bound the superblock gate admitted it
 * under ("seg-bound-bytes") and within committed-insts times the
 * model's per-op worst case.  The decoded-hash staleness gate is
 * shared with --cost.
 *
 * --json emits the same analysis as a single machine-readable JSON
 * object instead.  Exit status 0 iff every input parsed and no
 * static cost/memdep bound was violated; 1 on a violation or
 * unreadable trace; 2 on usage errors; 3 when a --cost/--memdep
 * model itself is unreadable or garbled (distinct so CI can tell
 * "the model is wrong" from "the model could not be loaded").
 *
 * --jobs N analyzes the input traces on N worker threads.  Results
 * are buffered and emitted in input order, so the report is
 * byte-identical at any job count (CI cmp-gates this).
 *
 *   trace_report [--json] [--burst-gap-us N] [--cost COST.jsonl]
 *                [--memdep MEMDEP.jsonl] [--jobs N] FILE.jsonl ...
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exp/cli.hh"
#include "isa/decoded.hh"
#include "obs/trace.hh"
#include "obs/trace_reader.hh"
#include "sim/types.hh"
#include "workloads/workload.hh"

namespace
{

using namespace paradox;

/** Exact percentile over a sorted sample vector (nearest-rank). */
double
pctile(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const double rank = p * double(sorted.size() - 1);
    const std::size_t lo = std::size_t(rank);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - double(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double
usOf(Tick t)
{
    return double(t) / double(ticksPerUs);
}

/** AIMD voltage steps are ~0.1 mV; bin to 5 mV for the histogram. */
double
voltageBin(double v)
{
    return std::round(v / 0.005) * 0.005;
}

struct TrackSummary
{
    std::uint64_t spans = 0;
    std::uint64_t instants = 0;
    std::uint64_t counters = 0;
    Tick busy = 0;  //!< summed span duration
};

struct SpanStats
{
    std::vector<double> durUs;  //!< sorted after collection

    void
    add(Tick dur)
    {
        durUs.push_back(usOf(dur));
    }
};

struct Burst
{
    Tick start = 0;
    Tick end = 0;
    std::size_t count = 0;
};

struct Analysis
{
    std::string path;
    obs::ParsedTrace trace;
    std::map<obs::TrackId, TrackSummary> perTrack;
    std::map<std::string, SpanStats> spans;  //!< by event name
    std::vector<const obs::ParsedEvent *> rollbacks;
    /** (voltage level binned to 5 mV, time spent at it). */
    std::map<double, Tick> voltageTime;
    std::vector<Burst> bursts;
    Tick span = 0;  //!< last event timestamp

    /** @{ Static-cost cross-validation inputs. */
    std::uint64_t segInsts = 0;   //!< summed "seg-insts" values
    std::uint64_t segments = 0;   //!< number of "seg-insts" instants
    bool faulty = false;          //!< any fault/recovery event seen
    /** @} */

    /** @{ Memdep cross-validation inputs, in segment order. */
    std::vector<std::uint64_t> segInstsVec;   //!< "seg-insts"
    std::vector<std::uint64_t> segLogBytes;   //!< "seg-log-bytes"
    std::vector<std::uint64_t> segBoundBytes; //!< "seg-bound-bytes"
    /** @} */
};

/** One paradox-cost/1 record, keyed by program name. */
struct CostRec
{
    std::uint64_t minDyn = 0;
    std::uint64_t maxDyn = 0;
    bool bounded = false;
    std::uint64_t scale = 1;
    /** @{ Decoded-image identity the model's mix was counted over
     *  (0 when the record predates decoded_uops/decoded_hash). */
    std::uint64_t decodedUops = 0;
    std::uint64_t decodedHash = 0;
    /** @} */
};

/** Outcome of checking one trace against the cost model. */
struct CostCheck
{
    bool attempted = false;  //!< a matching cost record existed
    bool skipped = false;    //!< trace had faults or no seg-insts
    std::string skipReason;
    bool ok = true;          //!< bounds held (when not skipped)
    /** @{ Decoded-image verification: the record's decoded identity
     *  vs a fresh decode of the workload at the record's scale. */
    bool decodedChecked = false;
    bool decodedOk = true;
    std::string decodedNote;
    /** @} */
    CostRec rec;
};

bool
loadCostModel(const std::string &path,
              std::map<std::string, CostRec> &out, std::string &error)
{
    std::ifstream is(path);
    if (!is) {
        error = "cannot open " + path;
        return false;
    }
    std::string line, v;
    bool sawHeader = false;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        if (obs::jsonField(line, "schema", v)) {
            if (v != "paradox-cost/1") {
                error = path + ": unsupported schema '" + v + "'";
                return false;
            }
            sawHeader = true;
            continue;
        }
        if (!obs::jsonField(line, "record", v) || v != "cost")
            continue;
        std::string prog;
        if (!obs::jsonField(line, "program", prog) || prog.empty()) {
            error = path + ": cost record without a program name";
            return false;
        }
        CostRec rec;
        // A record that lost its bound fields (truncated write,
        // hand-edited file) must fail loudly: silently defaulting
        // the bounds to zero would turn every trace into a
        // "violation" of a model that was never computed.
        if (!obs::jsonField(line, "min_dyn_insts", v)) {
            error = path + ": garbled cost record for '" + prog +
                    "' (missing min_dyn_insts)";
            return false;
        }
        rec.minDyn = std::strtoull(v.c_str(), nullptr, 10);
        if (!obs::jsonField(line, "max_dyn_insts", v)) {
            error = path + ": garbled cost record for '" + prog +
                    "' (missing max_dyn_insts)";
            return false;
        }
        rec.maxDyn = std::strtoull(v.c_str(), nullptr, 10);
        if (obs::jsonField(line, "bounded", v))
            rec.bounded = v == "1" || v == "true";
        // max_dyn_insts is only computed for a bounded program; an
        // unbounded one carries 0 there.
        if (rec.bounded && rec.maxDyn < rec.minDyn) {
            error = path + ": garbled cost record for '" + prog +
                    "' (max_dyn_insts < min_dyn_insts)";
            return false;
        }
        if (obs::jsonField(line, "scale", v))
            rec.scale = std::strtoull(v.c_str(), nullptr, 10);
        if (obs::jsonField(line, "decoded_uops", v))
            rec.decodedUops = std::strtoull(v.c_str(), nullptr, 10);
        if (obs::jsonField(line, "decoded_hash", v))
            rec.decodedHash = std::strtoull(v.c_str(), nullptr, 10);
        out[prog] = rec;
    }
    if (!sawHeader || out.empty()) {
        error = path + ": no paradox-cost/1 records "
                "(expected `isa_lint --ranges --cost --json` output)";
        return false;
    }
    return true;
}

/**
 * Check one analyzed trace against the model.  Only complete
 * fault-free runs are comparable: any injection, detection, retry,
 * rollback, or watchdog event means instructions were re-executed
 * (or the run was cut short), so the seg-insts sum no longer counts
 * each committed instruction exactly once.
 */
CostCheck
checkCost(const Analysis &a,
          const std::map<std::string, CostRec> &model)
{
    CostCheck c;
    auto it = model.find(a.trace.tool);
    if (it == model.end())
        return c;
    c.attempted = true;
    c.rec = it->second;

    // Verify the decoded-image identity the cost record was counted
    // over against a fresh decode of the same workload at the
    // record's scale: a stale cost file (the workload changed after
    // `isa_lint --cost` ran) must fail loudly, not slip a wrong
    // bound past the seg-insts comparison below.
    if (c.rec.decodedUops != 0) {
        c.decodedChecked = true;
        try {
            const workloads::Workload w =
                workloads::build(a.trace.tool,
                                 unsigned(c.rec.scale));
            const auto dp = isa::DecodedProgram::get(w.program);
            if (dp->size() != c.rec.decodedUops ||
                dp->contentHash() != c.rec.decodedHash) {
                c.decodedOk = false;
                c.ok = false;
                c.decodedNote =
                    "cost record decode (" +
                    std::to_string(c.rec.decodedUops) +
                    " uops) does not match the current workload (" +
                    std::to_string(dp->size()) +
                    " uops) -- stale cost file?";
            }
        } catch (const std::exception &e) {
            // Not a registered workload (custom tool name): nothing
            // to re-decode against.
            c.decodedChecked = false;
        }
    }

    if (a.faulty) {
        c.skipped = true;
        c.skipReason = "trace contains fault/recovery events";
        return c;
    }
    if (a.segments == 0) {
        c.skipped = true;
        c.skipReason = "trace has no seg-insts events";
        return c;
    }
    if (a.segInsts < c.rec.minDyn)
        c.ok = false;
    if (c.rec.bounded && a.segInsts > c.rec.maxDyn)
        c.ok = false;
    return c;
}

/** One paradox-memdep/1 record, keyed by program name. */
struct MemdepRec
{
    std::uint64_t scale = 1;
    std::uint64_t decodedUops = 0;
    std::uint64_t decodedHash = 0;
    std::uint64_t maxRunBytes = 0;  //!< worst per-run log bound
    std::uint64_t maxUopBytes = 0;  //!< worst per-op log bound
};

/** Outcome of checking one trace against the memdep model. */
struct MemdepCheck
{
    bool attempted = false;  //!< a matching memdep record existed
    bool skipped = false;    //!< trace had faults or no byte events
    std::string skipReason;
    bool ok = true;          //!< all per-segment bounds held
    std::size_t segsChecked = 0;
    std::size_t violations = 0;
    /** @{ Decoded-image staleness gate (same pattern as --cost). */
    bool decodedChecked = false;
    bool decodedOk = true;
    std::string decodedNote;
    /** @} */
    MemdepRec rec;
};

bool
loadMemdepModel(const std::string &path,
                std::map<std::string, MemdepRec> &out,
                std::string &error)
{
    std::ifstream is(path);
    if (!is) {
        error = "cannot open " + path;
        return false;
    }
    std::string line, v;
    bool sawHeader = false;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        if (obs::jsonField(line, "schema", v)) {
            if (v != "paradox-memdep/1") {
                error = path + ": unsupported schema '" + v + "'";
                return false;
            }
            sawHeader = true;
            continue;
        }
        if (!obs::jsonField(line, "record", v) || v != "memdep")
            continue;
        std::string prog;
        if (!obs::jsonField(line, "program", prog) || prog.empty()) {
            error = path + ": memdep record without a program name";
            return false;
        }
        MemdepRec rec;
        // Records that lost their bound fields must fail loudly: a
        // defaulted zero bound would flag every segment.
        if (!obs::jsonField(line, "max_run_log_bytes", v)) {
            error = path + ": garbled memdep record for '" + prog +
                    "' (missing max_run_log_bytes)";
            return false;
        }
        rec.maxRunBytes = std::strtoull(v.c_str(), nullptr, 10);
        if (!obs::jsonField(line, "max_uop_log_bytes", v)) {
            error = path + ": garbled memdep record for '" + prog +
                    "' (missing max_uop_log_bytes)";
            return false;
        }
        rec.maxUopBytes = std::strtoull(v.c_str(), nullptr, 10);
        if (obs::jsonField(line, "scale", v))
            rec.scale = std::strtoull(v.c_str(), nullptr, 10);
        if (obs::jsonField(line, "decoded_uops", v))
            rec.decodedUops = std::strtoull(v.c_str(), nullptr, 10);
        if (obs::jsonField(line, "decoded_hash", v))
            rec.decodedHash = std::strtoull(v.c_str(), nullptr, 10);
        out[prog] = rec;
    }
    if (!sawHeader || out.empty()) {
        error = path + ": no paradox-memdep/1 records (expected "
                "`isa_lint --memdep --json` output)";
        return false;
    }
    return true;
}

/**
 * Check one analyzed trace against the memdep model.  Only
 * fault-free runs are comparable (a rolled-back segment's byte
 * instants describe work that was undone).  Two invariants, both
 * per segment:
 *
 *  - actual log bytes <= the admitted static bound the gate charged
 *    ("seg-bound-bytes"), the effect-summary soundness contract;
 *  - actual log bytes <= committed insts * max per-op bound, the
 *    per-op byte model validated independently of the gate.
 */
MemdepCheck
checkMemdep(const Analysis &a,
            const std::map<std::string, MemdepRec> &model)
{
    MemdepCheck c;
    auto it = model.find(a.trace.tool);
    if (it == model.end())
        return c;
    c.attempted = true;
    c.rec = it->second;

    // Staleness gate: the model must describe the decoded image the
    // traced run actually executed.
    if (c.rec.decodedUops != 0) {
        c.decodedChecked = true;
        try {
            const workloads::Workload w = workloads::build(
                a.trace.tool, unsigned(c.rec.scale));
            const auto dp = isa::DecodedProgram::get(w.program);
            if (dp->size() != c.rec.decodedUops ||
                dp->contentHash() != c.rec.decodedHash) {
                c.decodedOk = false;
                c.ok = false;
                c.decodedNote =
                    "memdep record decode (" +
                    std::to_string(c.rec.decodedUops) +
                    " uops) does not match the current workload (" +
                    std::to_string(dp->size()) +
                    " uops) -- stale memdep file?";
            }
        } catch (const std::exception &) {
            c.decodedChecked = false;
        }
    }

    if (a.faulty) {
        c.skipped = true;
        c.skipReason = "trace contains fault/recovery events";
        return c;
    }
    if (a.segLogBytes.empty()) {
        c.skipped = true;
        c.skipReason = "trace has no seg-log-bytes events";
        return c;
    }
    for (std::size_t i = 0; i < a.segLogBytes.size(); ++i) {
        ++c.segsChecked;
        bool bad = false;
        if (i < a.segBoundBytes.size() &&
            a.segLogBytes[i] > a.segBoundBytes[i])
            bad = true;
        if (i < a.segInstsVec.size() &&
            a.segLogBytes[i] >
                a.segInstsVec[i] * c.rec.maxUopBytes)
            bad = true;
        if (bad)
            ++c.violations;
    }
    if (c.violations > 0)
        c.ok = false;
    return c;
}

bool
isFaultEvent(const std::string &name)
{
    return name == "inject" || name == "detect" ||
           name == "main-fault" || name == "retry-save" ||
           name == "watchdog-trip" || name == "ecc-due" ||
           name == "rollback" || name == "due-rollback" ||
           name == "panic-reset";
}

bool
isRollback(const std::string &name)
{
    return name == "rollback" || name == "due-rollback";
}

bool
isDetect(const std::string &name)
{
    return name == "detect" || name == "main-fault" ||
           name == "watchdog-trip";
}

void
analyze(Analysis &a, Tick burst_gap)
{
    std::vector<Tick> detects;
    const obs::ParsedEvent *last_voltage = nullptr;

    for (const obs::ParsedEvent &e : a.trace.events) {
        TrackSummary &t = a.perTrack[e.track];
        a.span = std::max(a.span, e.ts + e.dur);
        switch (e.phase) {
          case obs::Phase::Complete:
            ++t.spans;
            t.busy += e.dur;
            a.spans[e.name].add(e.dur);
            if (isRollback(e.name))
                a.rollbacks.push_back(&e);
            if (isFaultEvent(e.name))
                a.faulty = true;
            break;
          case obs::Phase::Begin:
            // Begin/End pairs are rendered as one span; accumulate
            // on End so unterminated pairs don't count.
            break;
          case obs::Phase::End:
            break;
          case obs::Phase::Instant:
            ++t.instants;
            if (isDetect(e.name))
                detects.push_back(e.ts);
            if (e.name == "seg-insts") {
                a.segInsts += std::uint64_t(e.value);
                ++a.segments;
                a.segInstsVec.push_back(std::uint64_t(e.value));
            }
            if (e.name == "seg-log-bytes")
                a.segLogBytes.push_back(std::uint64_t(e.value));
            if (e.name == "seg-bound-bytes")
                a.segBoundBytes.push_back(std::uint64_t(e.value));
            if (isFaultEvent(e.name))
                a.faulty = true;
            break;
          case obs::Phase::Counter:
            ++t.counters;
            if (e.name == "voltage") {
                if (last_voltage)
                    a.voltageTime[voltageBin(last_voltage->value)] +=
                        e.ts - last_voltage->ts;
                last_voltage = &e;
            }
            break;
        }
    }

    // Pair Begin/End spans (per track, LIFO nesting).
    std::map<obs::TrackId, std::vector<const obs::ParsedEvent *>> open;
    for (const obs::ParsedEvent &e : a.trace.events) {
        if (e.phase == obs::Phase::Begin) {
            open[e.track].push_back(&e);
        } else if (e.phase == obs::Phase::End) {
            auto &stack = open[e.track];
            if (stack.empty())
                continue;
            const obs::ParsedEvent *b = stack.back();
            stack.pop_back();
            TrackSummary &t = a.perTrack[e.track];
            ++t.spans;
            t.busy += e.ts - b->ts;
            a.spans[b->name.empty() ? e.name : b->name].add(e.ts -
                                                           b->ts);
        }
    }

    // Close the final voltage level at the end of the trace.
    if (last_voltage && a.span > last_voltage->ts)
        a.voltageTime[voltageBin(last_voltage->value)] +=
            a.span - last_voltage->ts;

    for (auto &kv : a.spans)
        std::sort(kv.second.durUs.begin(), kv.second.durUs.end());

    // Error bursts: runs of detection instants with gaps < burst_gap.
    std::sort(detects.begin(), detects.end());
    for (std::size_t i = 0; i < detects.size();) {
        std::size_t j = i + 1;
        while (j < detects.size() &&
               detects[j] - detects[j - 1] < burst_gap)
            ++j;
        if (j - i >= 2)
            a.bursts.push_back({detects[i], detects[j - 1], j - i});
        i = j;
    }

    std::sort(a.rollbacks.begin(), a.rollbacks.end(),
              [](const obs::ParsedEvent *x, const obs::ParsedEvent *y) {
                  return x->ts < y->ts;
              });
}

void
printCostText(const Analysis &a, const CostCheck &c)
{
    std::printf("\ncost cross-validation:\n");
    if (!c.attempted) {
        std::printf("  no cost record for tool '%s'\n",
                    a.trace.tool.c_str());
        return;
    }
    if (c.decodedChecked)
        std::printf("  decoded image: %llu uop(s), %s\n",
                    (unsigned long long)c.rec.decodedUops,
                    c.decodedOk ? "matches current decode"
                                : c.decodedNote.c_str());
    if (c.skipped) {
        std::printf("  skipped: %s\n", c.skipReason.c_str());
        return;
    }
    std::printf("  %llu committed insts over %llu segment(s); "
                "static bounds [%llu, %s]: %s\n",
                (unsigned long long)a.segInsts,
                (unsigned long long)a.segments,
                (unsigned long long)c.rec.minDyn,
                c.rec.bounded
                    ? std::to_string(c.rec.maxDyn).c_str()
                    : "unbounded",
                c.ok ? "OK" : "VIOLATED");
}

void
printMemdepText(const Analysis &a, const MemdepCheck &c)
{
    std::printf("\nmemdep cross-validation:\n");
    if (!c.attempted) {
        std::printf("  no memdep record for tool '%s'\n",
                    a.trace.tool.c_str());
        return;
    }
    if (c.decodedChecked)
        std::printf("  decoded image: %llu uop(s), %s\n",
                    (unsigned long long)c.rec.decodedUops,
                    c.decodedOk ? "matches current decode"
                                : c.decodedNote.c_str());
    if (c.skipped) {
        std::printf("  skipped: %s\n", c.skipReason.c_str());
        return;
    }
    std::printf("  %zu segment(s) checked against per-run bounds "
                "(max run %llu B, max op %llu B): %zu violation(s) "
                "-- %s\n",
                c.segsChecked,
                (unsigned long long)c.rec.maxRunBytes,
                (unsigned long long)c.rec.maxUopBytes, c.violations,
                c.ok ? "OK" : "VIOLATED");
}

void
printText(const Analysis &a, const CostCheck *cost,
          const MemdepCheck *memdep)
{
    std::printf("== %s ==\n", a.path.c_str());
    std::printf("tool %s, %zu tracks, %zu events, %.3f ms spanned",
                a.trace.tool.empty() ? "?" : a.trace.tool.c_str(),
                a.trace.tracks.size(), a.trace.events.size(),
                usOf(a.span) / 1e3);
    if (a.trace.dropped)
        std::printf(" (%llu DROPPED)",
                    (unsigned long long)a.trace.dropped);
    std::printf("\n\ntracks:\n");
    for (const auto &kv : a.perTrack) {
        const TrackSummary &t = kv.second;
        std::printf("  %-14s %6llu spans %6llu instants "
                    "%6llu samples  busy %.3f ms\n",
                    a.trace.trackName(kv.first).c_str(),
                    (unsigned long long)t.spans,
                    (unsigned long long)t.instants,
                    (unsigned long long)t.counters,
                    usOf(t.busy) / 1e3);
    }

    std::printf("\nlatency percentiles (us):\n");
    std::printf("  %-14s %8s %8s %8s %8s %8s %8s\n", "span", "count",
                "p50", "p90", "p95", "p99", "max");
    for (const auto &kv : a.spans) {
        const std::vector<double> &d = kv.second.durUs;
        std::printf("  %-14s %8zu %8.2f %8.2f %8.2f %8.2f %8.2f\n",
                    kv.first.c_str(), d.size(), pctile(d, 0.50),
                    pctile(d, 0.90), pctile(d, 0.95), pctile(d, 0.99),
                    d.empty() ? 0.0 : d.back());
    }

    if (!a.rollbacks.empty()) {
        std::printf("\nrollback timeline:\n");
        for (const obs::ParsedEvent *e : a.rollbacks)
            std::printf("  %12.3f us  %-12s %6.2f us%s%s\n",
                        usOf(e->ts), e->name.c_str(), usOf(e->dur),
                        e->detail.empty() ? "" : "  cause=",
                        e->detail.c_str());
    }

    if (!a.voltageTime.empty()) {
        Tick total = 0;
        for (const auto &kv : a.voltageTime)
            total += kv.second;
        std::printf("\ntime in voltage level:\n");
        for (const auto &kv : a.voltageTime)
            std::printf("  %.4f V  %10.3f ms  %5.1f%%\n", kv.first,
                        usOf(kv.second) / 1e3,
                        total ? 100.0 * double(kv.second) /
                                    double(total)
                              : 0.0);
    }

    if (!a.bursts.empty()) {
        std::printf("\nerror bursts:\n");
        for (const Burst &b : a.bursts)
            std::printf("  %12.3f us  %zu detections in %.2f us\n",
                        usOf(b.start), b.count, usOf(b.end - b.start));
    }
    if (cost)
        printCostText(a, *cost);
    if (memdep)
        printMemdepText(a, *memdep);
    std::printf("\n");
}

void
jsonEscapeTo(std::ostringstream &os, const std::string &s)
{
    for (char c : s) {
        if (c == '"' || c == '\\')
            os << '\\';
        os << c;
    }
}

std::string
toJson(const Analysis &a, const CostCheck *cost,
       const MemdepCheck *memdep)
{
    std::ostringstream os;
    os << "{\"file\":\"";
    jsonEscapeTo(os, a.path);
    os << "\",\"tool\":\"";
    jsonEscapeTo(os, a.trace.tool);
    os << "\",\"events\":" << a.trace.events.size()
       << ",\"dropped\":" << a.trace.dropped
       << ",\"span_us\":" << usOf(a.span);
    os << ",\"tracks\":{";
    bool first = true;
    for (const auto &kv : a.perTrack) {
        if (!first)
            os << ",";
        first = false;
        os << "\"";
        jsonEscapeTo(os, a.trace.trackName(kv.first));
        os << "\":{\"spans\":" << kv.second.spans
           << ",\"instants\":" << kv.second.instants
           << ",\"samples\":" << kv.second.counters
           << ",\"busy_us\":" << usOf(kv.second.busy) << "}";
    }
    os << "},\"latency_us\":{";
    first = true;
    for (const auto &kv : a.spans) {
        if (!first)
            os << ",";
        first = false;
        const std::vector<double> &d = kv.second.durUs;
        os << "\"";
        jsonEscapeTo(os, kv.first);
        os << "\":{\"count\":" << d.size()
           << ",\"p50\":" << pctile(d, 0.50)
           << ",\"p90\":" << pctile(d, 0.90)
           << ",\"p95\":" << pctile(d, 0.95)
           << ",\"p99\":" << pctile(d, 0.99)
           << ",\"max\":" << (d.empty() ? 0.0 : d.back()) << "}";
    }
    os << "},\"rollbacks\":[";
    first = true;
    for (const obs::ParsedEvent *e : a.rollbacks) {
        if (!first)
            os << ",";
        first = false;
        os << "{\"ts_us\":" << usOf(e->ts)
           << ",\"dur_us\":" << usOf(e->dur) << ",\"kind\":\"";
        jsonEscapeTo(os, e->name);
        os << "\",\"cause\":\"";
        jsonEscapeTo(os, e->detail);
        os << "\"}";
    }
    os << "],\"voltage_time_ms\":{";
    first = true;
    for (const auto &kv : a.voltageTime) {
        if (!first)
            os << ",";
        first = false;
        os << "\"" << kv.first << "\":" << usOf(kv.second) / 1e3;
    }
    os << "},\"bursts\":[";
    first = true;
    for (const Burst &b : a.bursts) {
        if (!first)
            os << ",";
        first = false;
        os << "{\"start_us\":" << usOf(b.start)
           << ",\"span_us\":" << usOf(b.end - b.start)
           << ",\"detections\":" << b.count << "}";
    }
    os << "]";
    if (cost) {
        os << ",\"cost\":{\"attempted\":"
           << (cost->attempted ? "true" : "false");
        if (cost->attempted) {
            if (cost->decodedChecked) {
                os << ",\"decoded_uops\":" << cost->rec.decodedUops
                   << ",\"decoded_ok\":"
                   << (cost->decodedOk ? "true" : "false");
            }
            os << ",\"skipped\":" << (cost->skipped ? "true" : "false");
            if (cost->skipped) {
                os << ",\"skip_reason\":\"";
                jsonEscapeTo(os, cost->skipReason);
                os << "\"";
            } else {
                os << ",\"seg_insts\":" << a.segInsts
                   << ",\"segments\":" << a.segments
                   << ",\"min_dyn_insts\":" << cost->rec.minDyn
                   << ",\"bounded\":"
                   << (cost->rec.bounded ? "true" : "false");
                if (cost->rec.bounded)
                    os << ",\"max_dyn_insts\":" << cost->rec.maxDyn;
                os << ",\"ok\":" << (cost->ok ? "true" : "false");
            }
        }
        os << "}";
    }
    if (memdep) {
        os << ",\"memdep\":{\"attempted\":"
           << (memdep->attempted ? "true" : "false");
        if (memdep->attempted) {
            if (memdep->decodedChecked) {
                os << ",\"decoded_uops\":" << memdep->rec.decodedUops
                   << ",\"decoded_ok\":"
                   << (memdep->decodedOk ? "true" : "false");
            }
            os << ",\"skipped\":"
               << (memdep->skipped ? "true" : "false");
            if (memdep->skipped) {
                os << ",\"skip_reason\":\"";
                jsonEscapeTo(os, memdep->skipReason);
                os << "\"";
            } else {
                os << ",\"segments\":" << memdep->segsChecked
                   << ",\"max_run_log_bytes\":"
                   << memdep->rec.maxRunBytes
                   << ",\"max_uop_log_bytes\":"
                   << memdep->rec.maxUopBytes
                   << ",\"violations\":" << memdep->violations
                   << ",\"ok\":" << (memdep->ok ? "true" : "false");
            }
        }
        os << "}";
    }
    os << "}";
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    bool json = false;
    unsigned burst_gap_us = 50;
    std::string costPath;
    std::string memdepPath;
    exp::Cli cli("trace_report",
                 "summarize paradox-trace/1 execution traces");
    cli.flag("json", json, "emit machine-readable JSON");
    cli.opt("burst-gap-us", burst_gap_us,
            "max gap between detections in one burst");
    cli.opt("cost", costPath,
            "paradox-cost/1 JSONL to cross-validate traces against");
    cli.opt("memdep", memdepPath,
            "paradox-memdep/1 JSONL to cross-validate per-segment "
            "log bytes against");
    unsigned jobsOpt = 1;
    cli.opt("jobs", jobsOpt,
            "worker threads analyzing traces (output stays in "
            "input order)");

    // Cli has no positional support; split them off by hand.
    std::vector<std::string> flags, files;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help") {
            cli.usage(stdout);
            std::printf("\narguments:\n  FILE.jsonl ...        "
                        "traces to analyze\n");
            return 0;
        }
        if (arg.rfind("-", 0) == 0) {
            flags.push_back(arg);
            if ((arg == "--burst-gap-us" || arg == "--cost" ||
                 arg == "--memdep" || arg == "--jobs") &&
                i + 1 < argc)
                flags.push_back(argv[++i]);
        } else {
            files.push_back(arg);
        }
    }
    std::string error;
    if (!cli.parseArgs(flags, error)) {
        std::fprintf(stderr, "trace_report: %s\n", error.c_str());
        cli.usage(stderr);
        return 2;
    }
    if (files.empty()) {
        std::fprintf(stderr,
                     "trace_report: no input traces (expected "
                     "FILE.jsonl ...)\n");
        return 2;
    }

    std::map<std::string, CostRec> costModel;
    const bool haveCost = !costPath.empty();
    if (haveCost && !loadCostModel(costPath, costModel, error)) {
        // Exit 3, distinct from both a bound violation (1) and a
        // usage error (2): the model could not be used at all, so
        // nothing was cross-validated.
        std::fprintf(stderr,
                     "trace_report: cost model unusable: %s (no "
                     "traces were checked; this is not a bound "
                     "violation)\n",
                     error.c_str());
        return 3;
    }
    std::map<std::string, MemdepRec> memdepModel;
    const bool haveMemdep = !memdepPath.empty();
    if (haveMemdep &&
        !loadMemdepModel(memdepPath, memdepModel, error)) {
        std::fprintf(stderr,
                     "trace_report: memdep model unusable: %s (no "
                     "traces were checked; this is not a bound "
                     "violation)\n",
                     error.c_str());
        return 3;
    }

    // Per-file analysis is independent: read, analyze and
    // cross-validate on worker threads (the loaded models are
    // read-only), then aggregate and print serially in input order
    // so the report is byte-identical at any --jobs.
    struct FileJob
    {
        bool readOk = false;
        std::string readError;
        Analysis a;
        CostCheck check;
        MemdepCheck mdCheck;
    };
    std::vector<FileJob> results(files.size());
    {
        const unsigned jobs = std::max(
            1u, std::min<unsigned>(jobsOpt,
                                   unsigned(files.size())));
        std::atomic<std::size_t> cursor{0};
        auto worker = [&] {
            for (std::size_t i;
                 (i = cursor.fetch_add(1)) < files.size();) {
                FileJob &job = results[i];
                job.a.path = files[i];
                job.readOk = obs::readTraceJsonlFile(
                    files[i], job.a.trace, job.readError);
                if (!job.readOk)
                    continue;
                analyze(job.a, Tick(burst_gap_us) * ticksPerUs);
                if (haveCost)
                    job.check = checkCost(job.a, costModel);
                if (haveMemdep)
                    job.mdCheck = checkMemdep(job.a, memdepModel);
            }
        };
        if (jobs == 1) {
            worker();
        } else {
            std::vector<std::thread> pool;
            for (unsigned t = 0; t < jobs; ++t)
                pool.emplace_back(worker);
            for (std::thread &t : pool)
                t.join();
        }
    }

    bool all_ok = true;
    bool first = true;
    std::size_t costChecked = 0, costViolated = 0;
    std::size_t memdepChecked = 0, memdepViolated = 0;
    if (json)
        std::printf("[");
    for (FileJob &job : results) {
        if (!job.readOk) {
            std::fprintf(stderr, "trace_report: %s: %s\n",
                         job.a.path.c_str(), job.readError.c_str());
            all_ok = false;
            continue;
        }
        const Analysis &a = job.a;
        if (haveCost) {
            const CostCheck &check = job.check;
            if (check.attempted && check.decodedChecked &&
                !check.decodedOk)
                all_ok = false;
            if (check.attempted && !check.skipped) {
                ++costChecked;
                if (!check.ok) {
                    ++costViolated;
                    all_ok = false;
                }
            }
        }
        if (haveMemdep) {
            const MemdepCheck &mdCheck = job.mdCheck;
            if (mdCheck.attempted && mdCheck.decodedChecked &&
                !mdCheck.decodedOk)
                all_ok = false;
            if (mdCheck.attempted && !mdCheck.skipped) {
                ++memdepChecked;
                if (!mdCheck.ok) {
                    ++memdepViolated;
                    all_ok = false;
                }
            }
        }
        if (json) {
            std::printf("%s%s", first ? "" : ",\n",
                        toJson(a, haveCost ? &job.check : nullptr,
                               haveMemdep ? &job.mdCheck : nullptr)
                            .c_str());
            first = false;
        } else {
            printText(a, haveCost ? &job.check : nullptr,
                      haveMemdep ? &job.mdCheck : nullptr);
        }
    }
    if (json)
        std::printf("]\n");
    if (haveCost)
        std::fprintf(stderr,
                     "trace_report: cost model: %zu trace(s) checked, "
                     "%zu violation(s)\n", costChecked, costViolated);
    if (haveMemdep)
        std::fprintf(stderr,
                     "trace_report: memdep model: %zu trace(s) "
                     "checked, %zu violation(s)\n",
                     memdepChecked, memdepViolated);
    return all_ok ? 0 : 1;
}
