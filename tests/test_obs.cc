/**
 * @file
 * Tests for the observability subsystem (src/obs): sink semantics,
 * both serializations round-tripped through the reader, the metrics
 * sampler, and end-to-end determinism of a traced system run.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <sstream>

#include "core/system.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "obs/trace_reader.hh"
#include "obs/trace_writer.hh"
#include "sim/stats.hh"
#include "workloads/workload.hh"

namespace
{

using namespace paradox;

TEST(TraceSink, RecordsTypedEvents)
{
    obs::TraceSink sink;
    obs::TrackId t0 = sink.addTrack("main");
    obs::TrackId t1 = sink.addTrack("checker/0");
    EXPECT_EQ(t0, 0u);
    EXPECT_EQ(t1, 1u);

    sink.begin(t0, "fill", 100, 7);
    sink.end(t0, "fill", 250, 7);
    sink.complete(t1, "check", 250, 900, 7, "store-mismatch");
    sink.instant(t1, "detect", 1150);
    sink.counter(t0, "voltage", 1200, 0.98);

    ASSERT_EQ(sink.events().size(), 5u);
    EXPECT_EQ(sink.events()[0].phase, obs::Phase::Begin);
    EXPECT_EQ(sink.events()[2].dur, 900u);
    EXPECT_STREQ(sink.events()[2].detail, "store-mismatch");
    EXPECT_EQ(sink.events()[2].id, 7u);
    EXPECT_DOUBLE_EQ(sink.events()[4].value, 0.98);
    EXPECT_EQ(sink.dropped(), 0u);
}

TEST(TraceSink, DisabledSinkRecordsNothing)
{
    obs::TraceSink sink;
    obs::TrackId t = sink.addTrack("main");
    sink.setEnabled(false);
    sink.instant(t, "detect", 10);
    sink.complete(t, "check", 0, 5);
    EXPECT_TRUE(sink.events().empty());
    EXPECT_EQ(sink.dropped(), 0u);

    sink.setEnabled(true);
    sink.instant(t, "detect", 20);
    EXPECT_EQ(sink.events().size(), 1u);
}

TEST(TraceSink, OverflowCountsDroppedEvents)
{
    obs::TraceSink sink(2);
    obs::TrackId t = sink.addTrack("main");
    sink.instant(t, "a", 1);
    sink.instant(t, "b", 2);
    sink.instant(t, "c", 3);
    sink.instant(t, "d", 4);
    EXPECT_EQ(sink.events().size(), 2u);
    EXPECT_EQ(sink.dropped(), 2u);
}

TEST(TraceSink, ClearResetsEverything)
{
    obs::TraceSink sink(4);
    obs::TrackId t = sink.addTrack("main");
    for (int i = 0; i < 8; ++i)
        sink.instant(t, "e", Tick(i));
    sink.clear();
    EXPECT_TRUE(sink.events().empty());
    EXPECT_TRUE(sink.tracks().empty());
    EXPECT_EQ(sink.dropped(), 0u);
}

TEST(TraceSink, NestedSpansKeepLifoOrder)
{
    obs::TraceSink sink;
    obs::TrackId t = sink.addTrack("main");
    // outer [10, 100) wrapping inner [30, 60): Begin/End pairs nest
    // LIFO on a track, and the stable sort must preserve that order
    // even though inner-end and a same-tick outer event could tie.
    sink.begin(t, "outer", 10);
    sink.begin(t, "inner", 30);
    sink.end(t, "inner", 60);
    sink.end(t, "outer", 100);

    std::ostringstream os;
    obs::writeTraceJsonl(sink, os, "t");
    std::istringstream is(os.str());
    obs::ParsedTrace parsed;
    std::string error;
    ASSERT_TRUE(obs::readTraceJsonl(is, parsed, error)) << error;
    ASSERT_EQ(parsed.events.size(), 4u);
    EXPECT_EQ(parsed.events[0].name, "outer");
    EXPECT_EQ(parsed.events[0].phase, obs::Phase::Begin);
    EXPECT_EQ(parsed.events[1].name, "inner");
    EXPECT_EQ(parsed.events[2].name, "inner");
    EXPECT_EQ(parsed.events[2].phase, obs::Phase::End);
    EXPECT_EQ(parsed.events[3].name, "outer");
    EXPECT_EQ(parsed.events[3].phase, obs::Phase::End);
}

TEST(TracePhase, CharRoundTrip)
{
    for (obs::Phase p :
         {obs::Phase::Begin, obs::Phase::End, obs::Phase::Complete,
          obs::Phase::Instant, obs::Phase::Counter}) {
        obs::Phase back;
        ASSERT_TRUE(obs::parsePhase(obs::phaseChar(p), back));
        EXPECT_EQ(back, p);
    }
    obs::Phase dummy;
    EXPECT_FALSE(obs::parsePhase('?', dummy));
}

TEST(TraceWriter, ChromeJsonShape)
{
    obs::TraceSink sink;
    obs::TrackId t = sink.addTrack("main");
    sink.begin(t, "fill", 2 * ticksPerUs);
    sink.end(t, "fill", 3 * ticksPerUs);
    sink.complete(t, "check", 3 * ticksPerUs, ticksPerUs / 2, 9);
    sink.counter(t, "voltage", 0, 0.98);

    std::ostringstream os;
    obs::writeChromeJson(sink, os, "test");
    const std::string json = os.str();

    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
    // Events are sorted by timestamp: the counter at t=0 leads.
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
    // 2e9 fs = exactly 2 us.
    EXPECT_NE(json.find("\"ts\":2.000000000"), std::string::npos);
    // 0.5 us duration on the X span.
    EXPECT_NE(json.find("\"dur\":0.500000000"), std::string::npos);
    EXPECT_NE(json.find("paradox-trace/1"), std::string::npos);
}

TEST(TraceWriter, JsonlRoundTripsThroughReader)
{
    obs::TraceSink sink;
    obs::TrackId main = sink.addTrack("main");
    obs::TrackId chk = sink.addTrack("checker/0");
    sink.begin(main, "fill", 10, 3);
    sink.end(main, "fill", 40, 3);
    sink.complete(chk, "check", 40, 55, 3, "timeout");
    sink.instant(chk, "detect", 95, "timeout");
    sink.counter(main, "voltage", 100, 0.875);

    std::ostringstream os;
    obs::writeTraceJsonl(sink, os, "round\ttrip");

    std::istringstream is(os.str());
    obs::ParsedTrace parsed;
    std::string error;
    ASSERT_TRUE(obs::readTraceJsonl(is, parsed, error)) << error;

    EXPECT_EQ(parsed.tool, "round\ttrip");
    ASSERT_EQ(parsed.tracks.size(), 2u);
    EXPECT_EQ(parsed.tracks[0], "main");
    EXPECT_EQ(parsed.tracks[1], "checker/0");
    ASSERT_EQ(parsed.events.size(), 5u);

    const obs::ParsedEvent &check = parsed.events[2];
    EXPECT_EQ(check.phase, obs::Phase::Complete);
    EXPECT_EQ(check.ts, 40u);
    EXPECT_EQ(check.dur, 55u);
    EXPECT_EQ(check.name, "check");
    EXPECT_EQ(check.detail, "timeout");
    EXPECT_EQ(check.id, 3u);
    EXPECT_EQ(check.track, chk);

    EXPECT_DOUBLE_EQ(parsed.events[4].value, 0.875);
}

TEST(TraceWriter, WritersSortEventsByTimestamp)
{
    obs::TraceSink sink;
    obs::TrackId t = sink.addTrack("main");
    // Recorded out of order (the system emits future-dated checker
    // spans); the serialized stream must come out time-ordered.
    sink.instant(t, "late", 500);
    sink.instant(t, "early", 100);

    std::ostringstream os;
    obs::writeTraceJsonl(sink, os, "t");
    std::istringstream is(os.str());
    obs::ParsedTrace parsed;
    std::string error;
    ASSERT_TRUE(obs::readTraceJsonl(is, parsed, error)) << error;
    ASSERT_EQ(parsed.events.size(), 2u);
    EXPECT_EQ(parsed.events[0].name, "early");
    EXPECT_EQ(parsed.events[1].name, "late");
}

TEST(TraceReader, RejectsBadSchemaAndMissingHeader)
{
    obs::ParsedTrace parsed;
    std::string error;

    std::istringstream bad_schema(
        "{\"record\":\"header\",\"schema\":\"paradox-trace/999\"}\n");
    EXPECT_FALSE(obs::readTraceJsonl(bad_schema, parsed, error));
    EXPECT_NE(error.find("schema"), std::string::npos);

    std::istringstream no_header(
        "{\"record\":\"event\",\"ph\":\"i\",\"ts\":1,\"track\":0}\n");
    EXPECT_FALSE(obs::readTraceJsonl(no_header, parsed, error));

    std::istringstream empty("");
    EXPECT_FALSE(obs::readTraceJsonl(empty, parsed, error));
}

TEST(TraceReader, JsonFieldRejectsSubstringKeys)
{
    std::string value;
    const std::string line =
        "{\"track_id\":5,\"id\":7,\"name\":\"x\"}";
    ASSERT_TRUE(obs::jsonField(line, "id", value));
    EXPECT_EQ(value, "7");
    ASSERT_TRUE(obs::jsonField(line, "track_id", value));
    EXPECT_EQ(value, "5");
    EXPECT_FALSE(obs::jsonField(line, "rack_id", value));
}

TEST(TraceJsonlPath, DerivedFromChromePath)
{
    EXPECT_EQ(obs::traceJsonlPath("out.json"), "out.jsonl");
    EXPECT_EQ(obs::traceJsonlPath("dir/run-0001.json"),
              "dir/run-0001.jsonl");
    EXPECT_EQ(obs::traceJsonlPath("trace"), "trace.jsonl");
}

TEST(MetricsSampler, PollsAtInterval)
{
    obs::TraceSink sink;
    obs::TrackId t = sink.addTrack("main");
    obs::MetricsSampler sampler(sink, 100);
    int value = 0;
    sampler.probe(t, "committed", [&] { return double(value); });

    sampler.poll(0);  // first poll samples immediately
    value = 10;
    sampler.poll(50);  // within the interval: skipped
    sampler.poll(120);  // past it: sampled
    value = 20;
    sampler.poll(130);  // interval restarts from 120

    ASSERT_EQ(sink.events().size(), 2u);
    EXPECT_DOUBLE_EQ(sink.events()[0].value, 0.0);
    EXPECT_DOUBLE_EQ(sink.events()[1].value, 10.0);
    EXPECT_EQ(sink.events()[1].phase, obs::Phase::Counter);
}

TEST(MetricsSampler, SkipsAheadAfterStall)
{
    obs::TraceSink sink;
    obs::TrackId t = sink.addTrack("main");
    obs::MetricsSampler sampler(sink, 100);
    sampler.probe(t, "x", [] { return 1.0; });
    sampler.poll(0);
    // A long dead period must yield one catch-up sample, not many.
    sampler.poll(100000);
    sampler.poll(100050);
    EXPECT_EQ(sink.events().size(), 2u);
}

/** Run one traced system and return its JSONL serialization. */
std::string
tracedRunJsonl(double fault_rate)
{
    workloads::Workload w = workloads::build("bitcount", 1);
    core::SystemConfig config =
        core::SystemConfig::forMode(core::Mode::ParaDox);
    config.seed = 99;
    core::System system(config, w.program);
    if (fault_rate > 0.0)
        system.setFaultPlan(faults::uniformPlan(fault_rate, 99));

    obs::TraceSink sink;
    system.setTracer(&sink, ticksPerUs);
    core::RunResult r = system.run();
    EXPECT_TRUE(r.halted);

    std::ostringstream os;
    obs::writeTraceJsonl(sink, os, "test");
    return os.str();
}

TEST(SystemTracing, EmitsSegmentLifecycleSpans)
{
    std::istringstream is(tracedRunJsonl(1e-4));
    obs::ParsedTrace parsed;
    std::string error;
    ASSERT_TRUE(obs::readTraceJsonl(is, parsed, error)) << error;

    std::size_t fills = 0, checks = 0, detects = 0, rollbacks = 0,
                voltage = 0;
    for (const obs::ParsedEvent &e : parsed.events) {
        if (e.name == "fill" && e.phase == obs::Phase::End)
            ++fills;
        else if (e.name == "check")
            ++checks;
        else if (e.name == "detect")
            ++detects;
        else if (e.name == "rollback")
            ++rollbacks;
        else if (e.name == "voltage")
            ++voltage;
    }
    EXPECT_GT(fills, 0u);
    EXPECT_GT(checks, 0u);
    EXPECT_GT(rollbacks, 0u);
    // Every rollback was triggered by a detection; extra detections
    // can exist (younger pending segments wiped by an older rollback
    // never get their own recovery span).
    EXPECT_GE(detects, rollbacks);
    EXPECT_GT(voltage, 0u);

    // Timestamps are non-decreasing after the writer's sort.
    for (std::size_t i = 1; i < parsed.events.size(); ++i)
        EXPECT_LE(parsed.events[i - 1].ts, parsed.events[i].ts);
}

TEST(SystemTracing, DeterministicAcrossIdenticalRuns)
{
    EXPECT_EQ(tracedRunJsonl(1e-4), tracedRunJsonl(1e-4));
    EXPECT_EQ(tracedRunJsonl(0.0), tracedRunJsonl(0.0));
}

/** Value printed on the dump line that starts with @p name. */
double
dumpValue(const std::string &dump, const std::string &name)
{
    const std::size_t pos = dump.find(name + " ");
    if (pos == std::string::npos ||
        (pos != 0 && dump[pos - 1] != '\n'))
        return -1.0;
    return std::strtod(dump.c_str() + pos + name.size(), nullptr);
}

TEST(SystemStats, RegistryDumpKeepsLegacyLayout)
{
    workloads::Workload w = workloads::build("bitcount", 1);
    core::SystemConfig config =
        core::SystemConfig::forMode(core::Mode::ParaDox);
    core::System system(config, w.program);
    core::RunResult r = system.run();
    ASSERT_TRUE(r.halted);

    std::ostringstream os;
    system.dumpStats(os);
    const std::string dump = os.str();

    // The classic "system" lines still lead the dump, and the
    // component groups follow under their dotted prefixes.
    EXPECT_EQ(dump.rfind("system.rollbackNs", 0), 0u);
    const char *order[] = {
        "system.checkpointLength", "system.evictionCuts",
        "system.voltage",          "main.committed",
        "main.checkpoints",        "main.bpred.lookups",
        "faults.rollbacks",        "mem.l1i.hits",
        "mem.l1d.misses",          "mem.l1d.pinned_lines",
        "mem.l2.misses",           "mem.dram.row_hits",
        "mem.pf.issued",           "mem.dtlb.hits",
        "mem.itlb.hits",
    };
    std::size_t last = 0;
    for (const char *name : order) {
        const std::size_t pos = dump.find(name);
        ASSERT_NE(pos, std::string::npos) << name;
        EXPECT_GT(pos, last) << name << " out of order";
        last = pos;
    }

    // Gauges read the live component counters.
    EXPECT_EQ(dumpValue(dump, "main.committed"), double(r.executed));
    EXPECT_EQ(dumpValue(dump, "main.checkpoints"),
              double(r.checkpoints));
    EXPECT_GT(dumpValue(dump, "mem.l1i.hits"), 0.0);
}

TEST(SystemStats, RegistryJsonDumpIsFlatObject)
{
    workloads::Workload w = workloads::build("bitcount", 1);
    core::SystemConfig config =
        core::SystemConfig::forMode(core::Mode::ParaDox);
    core::System system(config, w.program);
    ASSERT_TRUE(system.run().halted);

    std::ostringstream os;
    system.registry().dumpJson(os);
    const std::string json = os.str();
    EXPECT_EQ(json.rfind("{", 0), 0u);
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"main.committed\":"), std::string::npos);
    EXPECT_NE(json.find("\"mem.l1d.misses\":"), std::string::npos);
    EXPECT_NE(json.find("\"system.evictionCuts\":"),
              std::string::npos);
}

TEST(SystemTracing, SamplerSourcesCountersFromRegistry)
{
    std::istringstream is(tracedRunJsonl(0.0));
    obs::ParsedTrace parsed;
    std::string error;
    ASSERT_TRUE(obs::readTraceJsonl(is, parsed, error)) << error;

    std::set<std::string> counters;
    for (const obs::ParsedEvent &e : parsed.events)
        if (e.phase == obs::Phase::Counter)
            counters.insert(e.name);
    // Every stat marked with a series name in the System ctor must
    // show up as a counter track, under its legacy event name.
    for (const char *name :
         {"committed", "mispredicts", "checkpoints", "checkers_busy",
          "rollbacks", "detections", "faults_injected", "l1d_misses",
          "l2_misses", "pinned_lines", "pinned_blocks"})
        EXPECT_TRUE(counters.count(name)) << name;
}

TEST(SystemTracing, UntracedRunRecordsNothing)
{
    workloads::Workload w = workloads::build("bitcount", 1);
    core::SystemConfig config =
        core::SystemConfig::forMode(core::Mode::ParaDox);
    core::System system(config, w.program);
    core::RunResult r = system.run();
    EXPECT_TRUE(r.halted);
    // Percentiles are still summarized without any tracer attached.
    EXPECT_GT(r.ckptLenP50, 0.0);
    EXPECT_GE(r.ckptLenP99, r.ckptLenP50);
}

} // namespace
