/**
 * @file
 * Simulation-kernel unit tests: RNG distributions, clock domains
 * and the statistics package.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/clock.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"

namespace
{

using namespace paradox;

TEST(Rng, DeterministicFromSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    bool any_diff = false;
    for (int i = 0; i < 16; ++i)
        any_diff |= a.next() != b.next();
    EXPECT_TRUE(any_diff);
}

TEST(Rng, BoundedStaysInRange)
{
    Rng rng(9);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.nextBounded(17), 17u);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(9);
    for (int i = 0; i < 10000; ++i) {
        double v = rng.nextDouble();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(5);
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
}

TEST(Rng, GeometricMeanMatchesRate)
{
    Rng rng(77);
    const double p = 0.01;
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += double(rng.geometric(p));
    double mean = sum / n;
    EXPECT_NEAR(mean, 1.0 / p, 0.05 / p);
}

TEST(Rng, GeometricZeroRateNeverFires)
{
    Rng rng(3);
    EXPECT_EQ(rng.geometric(0.0),
              std::numeric_limits<std::uint64_t>::max());
}

TEST(Rng, GeometricCertainFiresImmediately)
{
    Rng rng(3);
    EXPECT_EQ(rng.geometric(1.0), 1u);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(101);
    const double lambda = 4.0;
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(lambda);
    EXPECT_NEAR(sum / n, 1.0 / lambda, 0.02);
}

TEST(ClockDomain, MainCoreFrequencyExact)
{
    ClockDomain clock(3.2e9);
    // 3.2 GHz divides the femtosecond tick exactly: 312500 fs.
    EXPECT_EQ(clock.period(), 312500u);
    EXPECT_EQ(clock.cyclesToTicks(3'200'000'000ULL), ticksPerSecond);
}

TEST(ClockDomain, CheckerFrequencyExact)
{
    ClockDomain clock(1e9);
    EXPECT_EQ(clock.period(), 1'000'000u);
}

TEST(ClockDomain, RetuneChangesPeriod)
{
    ClockDomain clock(3.2e9);
    Tick before = clock.period();
    clock.setFrequency(1.6e9);
    EXPECT_EQ(clock.period(), before * 2);
}

TEST(ClockDomain, TicksToCyclesRoundsUp)
{
    ClockDomain clock(1e9);
    EXPECT_EQ(clock.ticksToCycles(1), 1u);
    EXPECT_EQ(clock.ticksToCycles(1'000'000), 1u);
    EXPECT_EQ(clock.ticksToCycles(1'000'001), 2u);
}

TEST(VoltageDomain, TracksVoltage)
{
    VoltageDomain domain(0.98);
    EXPECT_DOUBLE_EQ(domain.nominal(), 0.98);
    domain.setVoltage(0.85);
    EXPECT_DOUBLE_EQ(domain.voltage(), 0.85);
    EXPECT_DOUBLE_EQ(domain.nominal(), 0.98);
}

TEST(Stats, CounterAccumulates)
{
    stats::Counter counter("c", "test");
    ++counter;
    counter += 5;
    EXPECT_EQ(counter.value(), 6u);
    counter.reset();
    EXPECT_EQ(counter.value(), 0u);
}

TEST(Stats, DistributionMoments)
{
    stats::Distribution dist("d", "test");
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        dist.sample(v);
    EXPECT_EQ(dist.count(), 8u);
    EXPECT_DOUBLE_EQ(dist.mean(), 5.0);
    EXPECT_DOUBLE_EQ(dist.min(), 2.0);
    EXPECT_DOUBLE_EQ(dist.max(), 9.0);
    EXPECT_NEAR(dist.stddev(), 2.138, 0.001);
}

TEST(Stats, DistributionEmpty)
{
    stats::Distribution dist("d", "test");
    EXPECT_EQ(dist.count(), 0u);
    EXPECT_EQ(dist.mean(), 0.0);
    EXPECT_EQ(dist.stddev(), 0.0);
}

TEST(Stats, TimeSeriesDecimationKeepsBound)
{
    stats::TimeSeries series("t", "test", 100);
    for (Tick i = 0; i < 100000; ++i)
        series.sample(i, double(i));
    EXPECT_LE(series.samples().size(), 100u);
    EXPECT_GE(series.samples().size(), 25u);
    // Retained samples stay time-ordered.
    for (std::size_t i = 1; i < series.samples().size(); ++i)
        EXPECT_LT(series.samples()[i - 1].first,
                  series.samples()[i].first);
}

TEST(Stats, GroupDumpContainsPrefix)
{
    stats::StatGroup group("sys");
    auto &counter = group.add<stats::Counter>("events", "event count");
    counter += 3;
    std::ostringstream os;
    group.dump(os);
    EXPECT_NE(os.str().find("sys.events 3"), std::string::npos);
    group.resetAll();
    EXPECT_EQ(counter.value(), 0u);
}

TEST(Stats, GaugeReadsLiveCallback)
{
    std::uint64_t raw = 0;
    stats::Gauge gauge("g", "live value",
                       [&] { return double(raw); });
    EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
    raw = 42;
    EXPECT_DOUBLE_EQ(gauge.value(), 42.0);
    EXPECT_TRUE(gauge.sampleable());
    EXPECT_DOUBLE_EQ(gauge.sampleValue(), 42.0);
    // reset() must not clear the component-owned state.
    gauge.reset();
    EXPECT_DOUBLE_EQ(gauge.value(), 42.0);
}

TEST(Stats, RegistryGroupsKeepCreationOrder)
{
    stats::Registry reg;
    reg.group("b").add<stats::Counter>("x", "first");
    reg.group("a").add<stats::Counter>("y", "second");
    // group() is get-or-create: no duplicate on re-lookup.
    stats::StatGroup &b_again = reg.group("b");
    b_again.add<stats::Counter>("z", "third");
    ASSERT_EQ(reg.groups().size(), 2u);
    EXPECT_EQ(reg.groups()[0]->prefix(), "b");
    EXPECT_EQ(reg.groups()[1]->prefix(), "a");

    // Dump order follows creation order, not name order.
    std::ostringstream os;
    reg.dump(os);
    const std::string dump = os.str();
    EXPECT_LT(dump.find("b.x"), dump.find("a.y"));
    EXPECT_LT(dump.find("b.z"), dump.find("a.y"));
}

TEST(Stats, RegistryFindAndForEach)
{
    stats::Registry reg;
    auto &c = reg.group("mem.l1d").add<stats::Counter>("hits", "h");
    c += 7;
    stats::Stat *found = reg.find("mem.l1d.hits");
    ASSERT_NE(found, nullptr);
    EXPECT_DOUBLE_EQ(found->sampleValue(), 7.0);
    EXPECT_EQ(reg.find("mem.l1d.misses"), nullptr);
    EXPECT_EQ(reg.find("nope"), nullptr);

    std::vector<std::string> names;
    reg.forEach([&](const stats::Stat &s) {
        names.push_back(s.name());
    });
    ASSERT_EQ(names.size(), 1u);
    EXPECT_EQ(names[0], "mem.l1d.hits");
}

TEST(Stats, SeriesMarkingOptsIntoSampling)
{
    stats::Registry reg;
    auto &c = reg.group("g").add<stats::Counter>("n", "d");
    EXPECT_TRUE(c.series().empty());
    c.setSeries("legacy_name");
    EXPECT_EQ(c.series(), "legacy_name");
    // The series string is owned by the stat: the c_str pointer a
    // sampler probe captures stays valid for the stat's lifetime.
    const char *p = c.series().c_str();
    EXPECT_STREQ(p, "legacy_name");
}

TEST(Stats, RegistryJsonDumpIsValidFlatObject)
{
    stats::Registry reg;
    reg.group("a").add<stats::Counter>("c", "count") += 2;
    auto &s = reg.group("a").add<stats::Scalar>("s", "scalar");
    s = 1.5;
    std::ostringstream os;
    reg.dumpJson(os);
    const std::string json = os.str();
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"a.c\":2"), std::string::npos);
    EXPECT_NE(json.find("\"a.s\":1.5"), std::string::npos);
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
}

} // namespace

namespace
{

using paradox::stats::Histogram;

TEST(Stats, HistogramBucketsAndEdges)
{
    Histogram hist("h", "test", 0.0, 100.0, 10);
    for (double v : {5.0, 15.0, 15.5, 99.9, -1.0, 100.0, 250.0})
        hist.sample(v);
    EXPECT_EQ(hist.count(), 7u);
    EXPECT_EQ(hist.underflow(), 1u);
    EXPECT_EQ(hist.overflow(), 2u);
    EXPECT_EQ(hist.buckets()[0], 1u);   // 5.0
    EXPECT_EQ(hist.buckets()[1], 2u);   // 15.0, 15.5
    EXPECT_EQ(hist.buckets()[9], 1u);   // 99.9
    EXPECT_DOUBLE_EQ(hist.bucketLow(3), 30.0);
}

TEST(Stats, HistogramPercentile)
{
    Histogram hist("h", "test", 0.0, 100.0, 100);
    for (int i = 0; i < 100; ++i)
        hist.sample(double(i) + 0.5);
    // Median of 0.5..99.5 falls in the 49-50 region.
    EXPECT_NEAR(hist.percentile(0.5), 50.0, 1.5);
    EXPECT_NEAR(hist.percentile(0.9), 90.0, 1.5);
}

TEST(Stats, HistogramReset)
{
    Histogram hist("h", "test", 0.0, 10.0, 5);
    hist.sample(3.0);
    hist.reset();
    EXPECT_EQ(hist.count(), 0u);
    EXPECT_EQ(hist.buckets()[1], 0u);
}

TEST(Stats, HistogramPercentileEmpty)
{
    Histogram hist("h", "test", 0.0, 100.0, 10);
    EXPECT_DOUBLE_EQ(hist.percentile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(hist.p50(), 0.0);
    EXPECT_DOUBLE_EQ(hist.p99(), 0.0);
}

TEST(Stats, HistogramPercentileSingleSample)
{
    Histogram hist("h", "test", 0.0, 100.0, 10);
    hist.sample(42.0);
    // Every percentile lands in the one occupied bucket [40, 50).
    EXPECT_DOUBLE_EQ(hist.p50(), 50.0);
    EXPECT_DOUBLE_EQ(hist.p95(), 50.0);
    EXPECT_DOUBLE_EQ(hist.p99(), 50.0);
}

TEST(Stats, HistogramPercentileAccessors)
{
    Histogram hist("h", "test", 0.0, 1000.0, 1000);
    for (int i = 0; i < 1000; ++i)
        hist.sample(double(i) + 0.5);
    EXPECT_NEAR(hist.p50(), 500.0, 1.5);
    EXPECT_NEAR(hist.p95(), 950.0, 1.5);
    EXPECT_NEAR(hist.p99(), 990.0, 1.5);
}

TEST(Stats, HistogramPercentileAllOverflow)
{
    Histogram hist("h", "test", 0.0, 10.0, 5);
    hist.sample(100.0);
    hist.sample(200.0);
    // Both samples lie past the top edge; percentiles saturate there.
    EXPECT_DOUBLE_EQ(hist.p50(), 10.0);
    EXPECT_DOUBLE_EQ(hist.p99(), 10.0);
}

TEST(Stats, HistogramPercentileUnderflowOnly)
{
    Histogram hist("h", "test", 10.0, 20.0, 5);
    hist.sample(1.0);
    EXPECT_DOUBLE_EQ(hist.p50(), 10.0);
}

TEST(Stats, TimeSeriesEmptyAndSingle)
{
    stats::TimeSeries series("t", "test", 10);
    EXPECT_TRUE(series.samples().empty());
    series.sample(5, 1.5);
    ASSERT_EQ(series.samples().size(), 1u);
    EXPECT_EQ(series.samples()[0].first, 5u);
    EXPECT_DOUBLE_EQ(series.samples()[0].second, 1.5);
    series.reset();
    EXPECT_TRUE(series.samples().empty());
}

TEST(Stats, TimeSeriesUnboundedKeepsEverything)
{
    stats::TimeSeries series("t", "test");  // capacity 0 = unbounded
    for (Tick i = 0; i < 1000; ++i)
        series.sample(i, double(i));
    EXPECT_EQ(series.samples().size(), 1000u);
}

} // namespace

#include "core/result_json.hh"

namespace
{

TEST(ResultJson, WellFormedAndComplete)
{
    paradox::core::RunResult r;
    r.halted = true;
    r.instructions = 42;
    r.time = 1000;
    r.wakeRates = {0.5, 0.25};
    std::string json = paradox::core::toJson(r);
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"halted\":true"), std::string::npos);
    EXPECT_NE(json.find("\"instructions\":42"), std::string::npos);
    EXPECT_NE(json.find("\"wake_rates\":[0.5,0.25]"),
              std::string::npos);
    // Balanced braces/brackets.
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
}

} // namespace
