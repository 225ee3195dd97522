/**
 * @file
 * paradox_perfbench: the repository benchmark program.
 *
 *   paradox_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * Three workloads, each a fixed set of exp::ExperimentSpec jobs run
 * through exp::Runner, with the seed forwarded to every spec:
 *
 *  - fault_free:  ParaDox, no faults, one worker; one long run each of
 *                 bitcount, stream, mcf and gobmk.
 *  - fault_storm: ParaDox with checker-side transient faults at 1e-4
 *                 per event on bitcount, stream and mcf; one worker.
 *  - paper_sweep: the figure 10 + 13 sweep, 20 programs x {baseline,
 *                 detect, paramedic, paradox, paradox+dvfs}, two workers.
 *
 * astar is in none of them: it segfaults under ParaMedic/ParaDox.
 *
 * A run first executes every job once in a forked child
 * (exp::runIsolated), so a crashing job is named and counted as failed
 * while the others still report; that pass also records each job's
 * golden-checked result and a digest of its RunResult JSON and stats
 * registry.  One untimed in-process pass warms up, and the workload
 * then repeats for --seconds, each repetition followed by one set-up
 * sweep (RunLimits::maxInstructions = 0); every repetition must
 * reproduce each job's digest.  End-to-end host times are medians over
 * the repetitions (and set-up sweeps) of times scaled to a reference
 * clock by a clock probe run on the same thread around each job
 * (addChainHz() says why).
 *
 * --trace 0 prints the end-to-end metrics.  --trace 1 prints the
 * per-layer metrics: after each repetition the per-layer harness
 * (layers.hh) runs one pass with spans on and one with spans off,
 * which also measures the tracing overhead.  The last stdout line is
 * one JSON object: {"correct", "attempted", "failed", "metrics"}.  The
 * exit status is 0 iff every check passed.
 */

#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <ctime>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/result_json.hh"
#include "exp/cli.hh"
#include "exp/runner.hh"
#include "exp/spec.hh"
#include "layers.hh"
#include "obs/hostinfo.hh"
#include "power/power_model.hh"
#include "sim/logging.hh"
#include "workloads/workload.hh"

namespace
{

using namespace paradox;
using Clock = std::chrono::steady_clock;

/** @{ Run lengths (workload scale) and the fault-storm rate. */
constexpr unsigned freeScale = 8;
constexpr unsigned stormScale = 8;
constexpr unsigned sweepScale = 1;
constexpr double stormRate = 1e-4;
/** @} */

/** Timed repetitions and set-up samples per run, at least. */
constexpr unsigned minReps = 3;
constexpr unsigned minSetupSamples = 7;

/** Stream prefix each program contributes to one harness pass. */
constexpr std::uint64_t harnessInsts = 1'000'000;

/** @{ Clock probes: dependent adds in the probes around a job (about
 *  0.5 ms) and in each in-job sample (about 20 us), the in-job sampling
 *  period, and the clock that every reported host time is scaled to. */
constexpr std::uint64_t probeAdds = 1'000'000;
constexpr std::uint64_t sampleAdds = 50'000;
constexpr long samplePeriodNs = 5'000'000;
constexpr double refClockHz = 2.5e9;
/** @} */

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/**
 * The calling thread's effective clock right now: the rate of a chain
 * of @p adds dependent adds, one per cycle.
 *
 * On the shared 4-vCPU Xeon VM this benchmark was written on, each vCPU
 * switches, for anything from a fraction of a second to minutes, between
 * a fast and a slow state in which the simulator takes 1.5-1.7x longer,
 * and whole runs can fall in either state: the median repetition of
 * five 25 s fault_free runs ranged from 0.76 s to 1.36 s.  The add
 * chain slows by a similar factor (1.7-1.9x; a pointer chase moved
 * 1.14x and a branchy switch loop 1.2x), so host times are reported at
 * refClockHz: measured time x mean sampled clock / refClockHz, with the
 * clock sampled on the job's own thread before, every samplePeriodNs
 * during, and after it.  The same five runs then read 0.867-0.885 s.
 */
double
addChainHz(std::uint64_t adds)
{
    std::uint64_t x = 0;
    const Clock::time_point t0 = Clock::now();
    for (std::uint64_t i = 0; i < adds; ++i) {
        asm volatile("" : "+r"(x));  // keeps each add in the chain
        ++x;
    }
    const double s = secondsSince(t0);
    asm volatile("" : : "r"(x));
    return double(adds) / s;
}

/** Clock samples of one timed job, all taken on its worker thread. */
struct JobClock
{
    double sumHz = 0.0;
    unsigned samples = 0;
    double hookS = 0.0;  //!< host time the benchmark itself spent
    timer_t timer{};
    bool armed = false;

    void
    add(double hz)
    {
        sumHz += hz;
        ++samples;
    }

    /** Factor from raw host time to time at refClockHz. */
    double
    scale() const
    {
        return samples ? sumHz / samples / refClockHz : 1.0;
    }
};

/** The job whose clock the calling thread samples, if any. */
thread_local JobClock *sampledJob = nullptr;

void
onSampleTimer(int)
{
    JobClock *job = sampledJob;
    if (!job)
        return;
    const int saved_errno = errno;
    const Clock::time_point t0 = Clock::now();
    job->add(addChainHz(sampleAdds));
    job->hookS += secondsSince(t0);
    errno = saved_errno;
}

/** Route the sampling timers' signal to onSampleTimer (once). */
bool
installSampleHandler()
{
    struct sigaction sa{};
    sa.sa_handler = onSampleTimer;
    sa.sa_flags = SA_RESTART;
    sigemptyset(&sa.sa_mask);
    return sigaction(SIGRTMIN, &sa, nullptr) == 0;
}

/**
 * Probe the calling thread's clock into @p job, then keep sampling it
 * every samplePeriodNs through a timer that signals this thread only.
 * The handler touches @p job only between here and stopSampling().
 */
void
startSampling(JobClock &job)
{
    const Clock::time_point t0 = Clock::now();
    job.add(addChainHz(probeAdds));
    sigevent sev{};
    sev.sigev_notify = SIGEV_THREAD_ID;
    sev.sigev_signo = SIGRTMIN;
#ifdef sigev_notify_thread_id
    sev.sigev_notify_thread_id = pid_t(syscall(SYS_gettid));
#else
    sev._sigev_un._tid = pid_t(syscall(SYS_gettid));  // glibc < 2.37
#endif
    itimerspec period{};
    period.it_interval.tv_nsec = samplePeriodNs;
    period.it_value.tv_nsec = samplePeriodNs;
    job.armed = timer_create(CLOCK_MONOTONIC, &sev, &job.timer) == 0;
    job.hookS += secondsSince(t0);
    sampledJob = &job;
    std::atomic_signal_fence(std::memory_order_seq_cst);
    if (job.armed)
        timer_settime(job.timer, 0, &period, nullptr);
}

/** Stop the timer and take the closing probe. */
void
stopSampling(JobClock &job)
{
    sampledJob = nullptr;
    std::atomic_signal_fence(std::memory_order_seq_cst);
    const Clock::time_point t0 = Clock::now();
    if (job.armed)
        timer_delete(job.timer);
    job.armed = false;
    job.add(addChainHz(probeAdds));
    job.hookS += secondsSince(t0);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile (@p p in (0, 1]). */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t rank = std::size_t(std::ceil(p * double(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

std::uint64_t
fnv1a(const std::string &s, std::uint64_t h = 0xcbf29ce484222325ULL)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Registry counters one job contributes to the per-layer metrics. */
struct JobCounts
{
    std::uint64_t registryHash = 0;
    std::uint64_t bpredLookups = 0, bpredMisses = 0;
    std::uint64_t l1iAccesses = 0, l1iMisses = 0;
    std::uint64_t l1dAccesses = 0, l1dMisses = 0;
    std::uint64_t l2Accesses = 0, l2Misses = 0;
    std::uint64_t itlbAccesses = 0, dtlbAccesses = 0, dtlbMisses = 0;
    std::uint64_t sbBatches = 0, sbUops = 0, sbGateStops = 0;
    std::uint64_t checkpoints = 0;
};

std::uint64_t
stat(const stats::Registry &reg, const char *name)
{
    const stats::Stat *s = reg.find(name);
    if (!s || !s->sampleable())
        throw std::runtime_error(std::string("registry lacks ") + name);
    return std::uint64_t(s->sampleValue());
}

JobCounts
readCounts(const core::System &system)
{
    const stats::Registry &reg = system.registry();
    std::ostringstream os;
    reg.dumpJson(os);
    JobCounts c;
    c.registryHash = fnv1a(os.str());
    c.bpredLookups = stat(reg, "main.bpred.lookups");
    c.bpredMisses = stat(reg, "main.bpred.mispredicts");
    c.l1iMisses = stat(reg, "mem.l1i.misses");
    c.l1iAccesses = stat(reg, "mem.l1i.hits") + c.l1iMisses;
    c.l1dMisses = stat(reg, "mem.l1d.misses");
    c.l1dAccesses = stat(reg, "mem.l1d.hits") + c.l1dMisses;
    c.l2Misses = stat(reg, "mem.l2.misses");
    c.l2Accesses = stat(reg, "mem.l2.hits") + c.l2Misses;
    c.itlbAccesses =
        stat(reg, "mem.itlb.hits") + stat(reg, "mem.itlb.misses");
    c.dtlbMisses = stat(reg, "mem.dtlb.misses");
    c.dtlbAccesses = stat(reg, "mem.dtlb.hits") + c.dtlbMisses;
    c.sbBatches = stat(reg, "main.sb_batches");
    c.sbUops = stat(reg, "main.sb_uops");
    c.sbGateStops = stat(reg, "main.sb_gate_stops");
    c.checkpoints = stat(reg, "main.checkpoints");
    return c;
}

/** Digest of everything a deterministic job must reproduce. */
std::uint64_t
digest(const exp::RunOutcome &out, std::uint64_t registry_hash)
{
    return fnv1a(core::toJson(out.result) + "/" +
                     std::to_string(out.finalValue),
                 registry_hash);
}

struct Job
{
    exp::ExperimentSpec spec;
    std::string name;       //!< workload/program/mode/scale/seed
    bool fastReplay = true; //!< checkers take the injector-free path
};

struct Workload
{
    std::string name;
    unsigned workers = 1;
    std::vector<Job> jobs;   //!< timed jobs first, then references
    std::size_t timedJobs = 0;
    /** (subject, margined baseline) job pairs for power and EDP. */
    std::vector<std::pair<std::size_t, std::size_t>> powerPairs;
    /** Harness replay paths and injection rate. */
    bool harnessFast = true;
    bool harnessSlow = false;
    double harnessRate = 0.0;
};

std::size_t
addJob(Workload &wl, const std::string &program, core::Mode mode,
       unsigned scale, std::uint64_t seed, bool dvfs, double rate)
{
    Job j;
    j.spec.mode = mode;
    j.spec.workload = program;
    j.spec.scale = scale;
    j.spec.seed = seed;
    j.spec.dvfs = dvfs;
    j.spec.faultRate = rate;
    j.fastReplay = !dvfs && rate == 0.0;
    char rate_tag[32] = "";
    if (rate > 0.0)
        std::snprintf(rate_tag, sizeof rate_tag, "@%g", rate);
    j.name = wl.name + "/" + program + "/" + core::modeName(mode) +
             (dvfs ? "+dvfs" : "") + rate_tag + "/s" +
             std::to_string(scale) + "/seed" + std::to_string(seed);
    wl.jobs.push_back(std::move(j));
    return wl.jobs.size() - 1;
}

/** The named workload, or false for an unknown name. */
bool
makeWorkload(const std::string &name, std::uint64_t seed, Workload &wl)
{
    wl.name = name;
    if (name == "fault_free" || name == "fault_storm") {
        const bool storm = name == "fault_storm";
        const std::vector<std::string> programs =
            storm ? std::vector<std::string>{"bitcount", "stream", "mcf"}
                  : std::vector<std::string>{"bitcount", "stream", "mcf",
                                             "gobmk"};
        const unsigned scale = storm ? stormScale : freeScale;
        const double rate = storm ? stormRate : 0.0;
        for (const std::string &p : programs)
            addJob(wl, p, core::Mode::ParaDox, scale, seed, false, rate);
        wl.timedJobs = wl.jobs.size();
        for (std::size_t i = 0; i < programs.size(); ++i)
            wl.powerPairs.emplace_back(
                i, addJob(wl, programs[i], core::Mode::Baseline, scale,
                          seed, false, 0.0));
        wl.harnessFast = !storm;
        wl.harnessSlow = storm;
        wl.harnessRate = rate;
        return true;
    }
    if (name == "paper_sweep") {
        wl.workers = 2;
        for (const std::string &p : workloads::allNames()) {
            if (p == "astar")
                continue;  // segfaults under ParaMedic/ParaDox today
            const std::size_t base = addJob(wl, p, core::Mode::Baseline,
                                            sweepScale, seed, false, 0.0);
            addJob(wl, p, core::Mode::DetectionOnly, sweepScale, seed,
                   false, 0.0);
            addJob(wl, p, core::Mode::ParaMedic, sweepScale, seed, false,
                   0.0);
            addJob(wl, p, core::Mode::ParaDox, sweepScale, seed, false,
                   0.0);
            wl.powerPairs.emplace_back(
                addJob(wl, p, core::Mode::ParaDox, sweepScale, seed, true,
                       0.0),
                base);
        }
        wl.timedJobs = wl.jobs.size();
        wl.harnessFast = true;
        wl.harnessSlow = true;  // the DVFS jobs' rate-0 injector pair
        return true;
    }
    return false;
}

/** What the forked reference pass learned about one job. */
struct Reference
{
    bool ok = false;
    std::uint64_t digest = 0;
    double avgPower = 0.0;
    Tick time = 0;
    std::uint64_t executed = 0;
};

/** Failure bookkeeping: every job run counts as one attempt. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, std::string> why;  //!< first reason per name

    void
    check(bool ok, const std::string &name, const std::string &reason)
    {
        ++attempted;
        if (ok)
            return;
        ++failed;
        if (why.emplace(name, reason).second)
            std::fprintf(stderr, "perfbench: FAILED %s: %s\n",
                         name.c_str(), reason.c_str());
    }
};

std::vector<Reference>
referencePass(const Workload &wl, Tally &tally)
{
    const std::vector<exp::IsolatedResult> res = exp::runIsolated(
        wl.jobs.size(),
        [&wl](std::size_t i) -> std::string {
            exp::ExperimentSpec spec = wl.jobs[i].spec;
            JobCounts counts;
            spec.observe = [&counts](core::System &s, exp::RunOutcome &) {
                counts = readCounts(s);
            };
            const exp::RunOutcome out = exp::runOne(spec);
            char buf[160];
            std::snprintf(buf, sizeof buf, "%d %llx %.17g %llu %llu\n",
                          out.correct ? 1 : 0,
                          (unsigned long long)digest(out,
                                                     counts.registryHash),
                          out.result.avgPower,
                          (unsigned long long)out.result.time,
                          (unsigned long long)out.result.executed);
            return buf;
        },
        exp::RunnerOptions{wl.workers, false, "perfbench", 150});

    std::vector<Reference> refs(wl.jobs.size());
    for (std::size_t i = 0; i < res.size(); ++i) {
        const exp::IsolatedResult &r = res[i];
        Reference &ref = refs[i];
        int correct = 0;
        unsigned long long dig = 0, time = 0, executed = 0;
        if (r.crashed) {
            tally.check(false, wl.jobs[i].name,
                        "crashed (wait status " + std::to_string(r.status) +
                            ")");
            continue;
        }
        if (std::sscanf(r.payload.c_str(), "%d %llx %lg %llu %llu",
                        &correct, &dig, &ref.avgPower, &time,
                        &executed) != 5) {
            tally.check(false, wl.jobs[i].name, "unreadable result");
            continue;
        }
        ref.digest = dig;
        ref.time = Tick(time);
        ref.executed = executed;
        ref.ok = correct == 1;
        tally.check(ref.ok, wl.jobs[i].name, "missed its golden checksum");
    }
    return refs;
}

/**
 * One in-process repetition of the timed jobs.  Host times leave out
 * the benchmark's own hooks (clock probes, registry reads).
 */
struct Rep
{
    double rawWallS = 0.0;         //!< as measured
    double wallS = 0.0;            //!< at refClockHz
    std::vector<double> rawJobMs;  //!< per timed job, as measured
    std::vector<double> jobMs;     //!< per timed job, at refClockHz
    std::uint64_t executed = 0;
};

/** The timed jobs that survived the reference pass, as Runner specs. */
struct TimedSet
{
    std::vector<std::size_t> jobIndex;      //!< into Workload::jobs
    std::vector<exp::ExperimentSpec> specs;
    std::vector<JobCounts> counts;          //!< written by observe hooks
    std::vector<JobClock> clocks;           //!< written by both hooks
    std::vector<exp::RunOutcome> last;      //!< latest outcomes
};

TimedSet
makeTimedSet(const Workload &wl, const std::vector<Reference> &refs)
{
    TimedSet ts;
    for (std::size_t i = 0; i < wl.timedJobs; ++i)
        if (refs[i].ok)
            ts.jobIndex.push_back(i);
    // Longest first (by simulated work, which is deterministic), so the
    // workers finish together and the repetition's tail stays short.
    std::stable_sort(ts.jobIndex.begin(), ts.jobIndex.end(),
                     [&refs](std::size_t a, std::size_t b) {
                         return refs[a].executed > refs[b].executed;
                     });
    ts.counts.resize(ts.jobIndex.size());
    ts.clocks.resize(ts.jobIndex.size());
    for (std::size_t k = 0; k < ts.jobIndex.size(); ++k) {
        exp::ExperimentSpec spec = wl.jobs[ts.jobIndex[k]].spec;
        JobCounts *slot = &ts.counts[k];
        JobClock *clock = &ts.clocks[k];
        // Both hooks run on the job's worker thread, before the System
        // is built and after the run.
        spec.configure = [clock](core::SystemConfig &) {
            startSampling(*clock);
        };
        spec.observe = [slot, clock](core::System &s, exp::RunOutcome &) {
            stopSampling(*clock);
            const Clock::time_point t0 = Clock::now();
            *slot = readCounts(s);
            clock->hookS += secondsSince(t0);
        };
        ts.specs.push_back(std::move(spec));
    }
    return ts;
}

Rep
runRep(const Workload &wl, const std::vector<Reference> &refs,
       exp::Runner &runner, TimedSet &ts, Tally &tally)
{
    Rep rep;
    std::fill(ts.clocks.begin(), ts.clocks.end(), JobClock{});
    const Clock::time_point t0 = Clock::now();
    ts.last = runner.run(ts.specs);
    const double wall_s = secondsSince(t0);
    // A job that threw skipped its observe hook and left its timer.
    for (JobClock &clock : ts.clocks)
        if (clock.armed)
            timer_delete(clock.timer);
    rep.rawJobMs.resize(ts.specs.size());
    rep.jobMs.resize(ts.specs.size());
    double raw_ms = 0.0, scaled_ms = 0.0, hook_s = 0.0;
    for (std::size_t k = 0; k < ts.specs.size(); ++k) {
        const exp::RunOutcome &out = ts.last[k];
        const Job &job = wl.jobs[ts.jobIndex[k]];
        const JobClock &clock = ts.clocks[k];
        rep.rawJobMs[k] = out.jobWallMs - clock.hookS * 1e3;
        rep.jobMs[k] = rep.rawJobMs[k] * clock.scale();
        raw_ms += rep.rawJobMs[k];
        scaled_ms += rep.jobMs[k];
        hook_s += clock.hookS;
        rep.executed += out.result.executed;
        if (!out.ok())
            tally.check(false, job.name, "threw: " + out.error);
        else if (!out.correct)
            tally.check(false, job.name, "missed its golden checksum");
        else
            tally.check(digest(out, ts.counts[k].registryHash) ==
                            refs[ts.jobIndex[k]].digest,
                        job.name,
                        "RunResult or registry differs from its reference "
                        "run (not deterministic)");
    }
    // The workers share the hooks' time about evenly; the wall is
    // scaled by the repetition's time-weighted clock.
    rep.rawWallS = wall_s - hook_s / wl.workers;
    rep.wallS = rep.rawWallS * ratio(scaled_ms, raw_ms);
    return rep;
}

/**
 * Summed set-up time of every timed job, at refClockHz: exp::runOne
 * with RunLimits::maxInstructions = 0 (@p specs are prepared that way).
 */
double
setupSweep(const std::vector<exp::ExperimentSpec> &specs,
           const TimedSet &ts, const Workload &wl, Tally &tally)
{
    JobClock clock;
    const Clock::time_point t0 = Clock::now();
    startSampling(clock);
    for (std::size_t k = 0; k < specs.size(); ++k) {
        try {
            exp::runOne(specs[k]);
        } catch (const std::exception &e) {
            tally.check(false, wl.jobs[ts.jobIndex[k]].name,
                        std::string("set-up threw: ") + e.what());
        }
    }
    stopSampling(clock);
    return (secondsSince(t0) - clock.hookS) * clock.scale();
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/** One reported metric. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
    std::string note;
};

std::string
fmt(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

double
gmean(const std::vector<double> &v)
{
    double log_sum = 0.0;
    for (double x : v)
        log_sum += std::log(x);
    return v.empty() ? 0.0 : std::exp(log_sum / double(v.size()));
}

/** What the timed repetitions measured; host times at refClockHz. */
struct Measured
{
    std::size_t reps = 0;
    double wallS = 0.0;          //!< median repetition
    std::uint64_t executed = 0;  //!< instructions in one repetition
    std::vector<double> jobMs;   //!< each timed job's median run
    /** Each timed job's fastest run as measured, for the per-layer
     *  attribution (the harness layers are timed the same way). */
    std::vector<double> fastestRawJobMs;
    double setupS = 0.0;         //!< median set-up sweep
    double runnerUtil = 0.0;     //!< median over repetitions
};

/**
 * Repeat the timed jobs for @p budget_s seconds.  After each
 * repetition comes one set-up sweep, so the set-up samples span the
 * whole run, and then @p between (the traced run's harness passes,
 * kept next to the repetitions they are set against).
 *
 * Host times are medians over the repetitions of times scaled to
 * refClockHz (addChainHz() says why).
 */
Measured
measure(const Workload &wl, const std::vector<Reference> &refs,
        exp::Runner &runner, TimedSet &ts, double budget_s, Tally &tally,
        const std::function<void()> &between)
{
    std::vector<exp::ExperimentSpec> setup_specs = ts.specs;
    for (exp::ExperimentSpec &s : setup_specs) {
        s.configure = {};
        s.observe = {};
        s.limits.maxInstructions = 0;
    }
    std::vector<double> setup, walls, raw_walls, util;
    std::vector<std::vector<double>> job_ms(ts.specs.size());
    Measured m;
    m.fastestRawJobMs.assign(ts.specs.size(), INFINITY);
    const Clock::time_point start = Clock::now();
    while (walls.size() < minReps || secondsSince(start) < budget_s) {
        const Rep r = runRep(wl, refs, runner, ts, tally);
        setup.push_back(setupSweep(setup_specs, ts, wl, tally));
        walls.push_back(r.wallS);
        raw_walls.push_back(r.rawWallS);
        double raw_job_s = 0.0;
        for (std::size_t k = 0; k < r.jobMs.size(); ++k) {
            job_ms[k].push_back(r.jobMs[k]);
            m.fastestRawJobMs[k] =
                std::min(m.fastestRawJobMs[k], r.rawJobMs[k]);
            raw_job_s += r.rawJobMs[k] / 1e3;
        }
        util.push_back(raw_job_s / (wl.workers * r.rawWallS));
        m.executed = r.executed;
        if (between)
            between();
    }
    while (setup.size() < minSetupSamples)
        setup.push_back(setupSweep(setup_specs, ts, wl, tally));
    m.reps = walls.size();
    m.wallS = median(walls);
    for (const std::vector<double> &v : job_ms)
        m.jobMs.push_back(median(v));
    m.setupS = median(setup);
    m.runnerUtil = median(util);
    std::printf("%zu repetitions: wall_s at %.1f GHz min %.4f median %.4f "
                "max %.4f; as measured min %.4f median %.4f max %.4f\n",
                m.reps, refClockHz / 1e9,
                *std::min_element(walls.begin(), walls.end()), m.wallS,
                *std::max_element(walls.begin(), walls.end()),
                *std::min_element(raw_walls.begin(), raw_walls.end()),
                median(raw_walls),
                *std::max_element(raw_walls.begin(), raw_walls.end()));
    return m;
}

std::vector<Metric>
endToEndMetrics(const Workload &wl, const std::vector<Reference> &refs,
                const TimedSet &ts, const Measured &m)
{
    double sim_ms = 0.0;
    for (const exp::RunOutcome &out : ts.last)
        sim_ms += ticksToSeconds(out.result.time) * 1e3;
    std::vector<double> powers, edps;
    for (const auto &[subject, base] : wl.powerPairs) {
        const Reference &s = refs[subject];
        const Reference &b = refs[base];
        if (!s.ok || !b.ok)
            continue;
        powers.push_back(s.avgPower / b.avgPower);
        edps.push_back(
            power::edpRatio(s.avgPower, s.time, b.avgPower, b.time));
    }
    const std::string samples = "n=" + std::to_string(m.jobMs.size()) +
                                " jobs, median of " +
                                std::to_string(m.reps) + " runs each";
    const std::string reps =
        "median of " + std::to_string(m.reps) + " repetitions";
    return {
        {"wall_s", m.wallS, "s", reps},
        {"sim_minst_per_s", double(m.executed) / m.wallS / 1e6, "Minst/s",
         reps},
        {"setup_s", m.setupS, "s", "median"},
        {"peak_rss_mb", peakRssMb(), "MB", ""},
        {"job_ms_p50", percentile(m.jobMs, 0.5), "ms", samples},
        {"job_ms_p90", percentile(m.jobMs, 0.9), "ms", samples},
        {"sim_time_ms", sim_ms, "sim_ms", "simulated"},
        {"sim_power_gmean", gmean(powers), "ratio",
         std::to_string(powers.size()) + " pairs vs margined baseline"},
        {"sim_edp_gmean", gmean(edps), "ratio",
         std::to_string(edps.size()) + " pairs vs margined baseline"},
    };
}

/** One program's harness counts and fastest-pass ns per layer. */
struct LayerCosts
{
    perfbench::HarnessCounts counts;
    std::array<double, perfbench::NumLayers> ns{};

    /** MainCore::advance alone: the TLB, cache and predictor calls
     *  it makes are timed standalone and taken out. */
    double
    mainSelfNs() const
    {
        return ns[perfbench::MainTotal] - ns[perfbench::Mem] -
               ns[perfbench::Tlb] - ns[perfbench::Bpred];
    }
};

/**
 * The per-layer harness over every distinct program of a workload's
 * timed jobs.  Construction runs one untraced warm-up pass, whose
 * counts every later pass must reproduce; pair() runs one traced and
 * one untraced pass, alternating which goes first so a drift in host
 * speed does not bias the overhead estimate.
 */
class LayerHarness
{
  public:
    LayerHarness(const Workload &wl, const TimedSet &ts, std::uint64_t seed,
                 Tally &tally)
        : wl_(wl), tally_(tally)
    {
        for (std::size_t k = 0; k < ts.specs.size(); ++k) {
            const exp::ExperimentSpec &spec = ts.specs[k];
            std::size_t p = programIndex(spec.workload);
            if (p == programs_.size()) {
                programs_.push_back(spec.workload);
                built_.push_back(std::make_unique<workloads::Workload>(
                    workloads::build(spec.workload, spec.scale)));
                perfbench::HarnessInput in;
                in.workload = built_.back().get();
                in.replayFast = wl.harnessFast;
                in.replaySlow = wl.harnessSlow;
                in.faultRate = wl.harnessRate;
                in.seed = seed;
                in.maxInstructions = harnessInsts;
                inputs_.push_back(in);
            }
            // Segments as long as the plain ParaDox job's mean checkpoint.
            if (spec.mode == core::Mode::ParaDox && !spec.dvfs &&
                ts.last[k].ckptLen.count > 0)
                inputs_[p].segmentLength = std::max(
                    1u, unsigned(std::lround(ts.last[k].ckptLen.mean)));
        }
        costs_.resize(inputs_.size());
        for (LayerCosts &c : costs_)
            c.ns.fill(INFINITY);
        pass(false);
        for (std::size_t p = 0; p < first_.size(); ++p)
            costs_[p].counts = first_[p];
    }

    void
    pair()
    {
        double wall[2] = {0.0, 0.0};  // [untraced, traced]
        const bool traced_first = pairRatio_.size() % 2 == 0;
        wall[traced_first] = pass(traced_first);
        wall[!traced_first] = pass(!traced_first);
        if (ok_)
            pairRatio_.push_back(wall[1] / wall[0]);
    }

    std::size_t
    programIndex(const std::string &name) const
    {
        return std::size_t(std::find(programs_.begin(), programs_.end(),
                                     name) -
                           programs_.begin());
    }

    /** Per program: fastest traced time per layer, and the counts. */
    const std::vector<LayerCosts> &costs() const { return costs_; }
    /** Traced / untraced wall (at refClockHz) of each pass pair. */
    const std::vector<double> &pairRatio() const { return pairRatio_; }

    /** Hash of every layer's result checksums. */
    std::string
    checksum() const
    {
        std::uint64_t fold = 0;
        for (const perfbench::HarnessCounts &c : first_)
            for (std::uint64_t f : c.fold)
                fold = fnv1a(std::to_string(f), fold);
        char buf[20];
        std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)fold);
        return buf;
    }

    void
    writeSpans(const std::string &path) const
    {
        if (!path.empty() && !spans_.writeJsonl(path, wl_.name, programs_))
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         path.c_str());
    }

  private:
    /** One pass over every program; returns its wall time at
     *  refClockHz. */
    double
    pass(bool traced)
    {
        spans_.setEnabled(traced);
        spans_.setPass(passes_++);
        const std::size_t first_span = spans_.spans().size();
        std::vector<perfbench::HarnessCounts> counts;
        JobClock clock;
        const Clock::time_point t0 = Clock::now();
        startSampling(clock);
        for (std::size_t p = 0; p < inputs_.size() && ok_; ++p) {
            const std::string name = wl_.name + "/harness/" + programs_[p];
            try {
                counts.push_back(
                    perfbench::runHarness(inputs_[p], unsigned(p), spans_));
            } catch (const std::exception &e) {
                tally_.check(false, name, e.what());
                ok_ = false;
                break;
            }
            tally_.check(counts.back().resultOk, name,
                         "interpreter missed the golden checksum");
            if (!first_.empty())
                tally_.check(counts.back().fold == first_[p].fold &&
                                 counts.back().insts == first_[p].insts,
                             name, "layer checksums differ between passes");
        }
        stopSampling(clock);
        const double wall = (secondsSince(t0) - clock.hookS) * clock.scale();
        if (first_.empty())
            first_ = std::move(counts);
        if (traced) {
            std::vector<std::array<double, perfbench::NumLayers>> ns(
                inputs_.size());
            for (std::size_t s = first_span; s < spans_.spans().size(); ++s) {
                const perfbench::Span &sp = spans_.spans()[s];
                ns[sp.program][sp.layer] += double(sp.t1Ns - sp.t0Ns);
            }
            for (std::size_t p = 0; p < ns.size(); ++p)
                for (unsigned l = 0; l < perfbench::NumLayers; ++l)
                    costs_[p].ns[l] = std::min(costs_[p].ns[l], ns[p][l]);
        }
        return wall;
    }

    const Workload &wl_;
    Tally &tally_;
    std::vector<std::string> programs_;
    std::vector<std::unique_ptr<workloads::Workload>> built_;
    std::vector<perfbench::HarnessInput> inputs_;
    perfbench::SpanLog spans_;
    std::vector<perfbench::HarnessCounts> first_;
    std::vector<LayerCosts> costs_;
    std::vector<double> pairRatio_;
    unsigned passes_ = 0;
    bool ok_ = true;
};

/**
 * Per-layer metrics: harness per-call costs, the e2e jobs' registry
 * counts, and the attribution of the e2e job time to the layers
 * (per-call cost x the e2e job's call count), whose remainder is
 * core.system.
 */
std::vector<Metric>
layerMetrics(const Workload &wl, const TimedSet &ts, const Measured &m,
             const LayerHarness &h)
{
    // Harness-side totals over the programs.
    double isa_ns = 0, isa_n = 0, main_ns = 0, insts = 0, bp_ns = 0,
           bp_n = 0, mem_ns = 0, mem_n = 0, tlb_ns = 0, tlb_n = 0,
           log_ns = 0, log_n = 0, log_bytes = 0, rp_ns = 0, rp_n = 0,
           ck_ns = 0, ck_n = 0, l0 = 0, ctrl_ns = 0, segs = 0;
    const double variants = double(wl.harnessFast) + double(wl.harnessSlow);
    for (const LayerCosts &c : h.costs()) {
        const perfbench::HarnessCounts &hc = c.counts;
        isa_ns += c.ns[perfbench::Isa];
        isa_n += double(hc.isaInsts);
        main_ns += c.mainSelfNs();
        insts += double(hc.insts);
        bp_ns += c.ns[perfbench::Bpred];
        bp_n += double(hc.branches);
        mem_ns += c.ns[perfbench::Mem];
        mem_n += double(hc.memAccesses);
        tlb_ns += c.ns[perfbench::Tlb];
        tlb_n += double(hc.translations);
        log_ns += c.ns[perfbench::Log];
        log_n += double(hc.logEntries);
        log_bytes += double(hc.logBytes);
        // Replay self time: checker timing is its own layer.
        rp_ns += c.ns[perfbench::ReplayFast] + c.ns[perfbench::ReplaySlow] -
                 variants * c.ns[perfbench::CheckerTime];
        rp_n += double(hc.replayFastInsts + hc.replaySlowInsts);
        ck_ns += c.ns[perfbench::CheckerTime];
        ck_n += double(hc.checkerCalls);
        l0 += double(hc.l0Misses);
        ctrl_ns += c.ns[perfbench::Ctrl];
        segs += double(hc.segments);
    }

    // Attribution of each e2e job's host time, plus e2e counts.
    double attributed = 0, job_ns = 0, executed = 0, committed = 0,
           cycles = 0, replayed_all = 0, replayed_fast = 0, ckpts = 0,
           rollbacks = 0;
    JobCounts tot;
    for (std::size_t k = 0; k < ts.specs.size(); ++k) {
        const Job &job = wl.jobs[ts.jobIndex[k]];
        const exp::RunOutcome &out = ts.last[k];
        const JobCounts &jc = ts.counts[k];
        const LayerCosts &c = h.costs()[h.programIndex(job.spec.workload)];
        const perfbench::HarnessCounts &hc = c.counts;
        const double ex = double(out.result.executed);
        const double replayed =
            out.ckptLen.mean * double(out.ckptLen.count);
        // Replay (checker timing included) at the job's own path.
        const double replay_ns =
            job.fastReplay && wl.harnessFast ? c.ns[perfbench::ReplayFast]
                                             : c.ns[wl.harnessSlow
                                                        ? perfbench::ReplaySlow
                                                        : perfbench::ReplayFast];
        const double insts_p = double(hc.insts);
        attributed +=
            ex * ratio(c.ns[perfbench::Isa], double(hc.isaInsts)) +
            ex * ratio(c.mainSelfNs(), insts_p) +
            double(jc.bpredLookups) *
                ratio(c.ns[perfbench::Bpred], double(hc.branches)) +
            double(jc.l1iAccesses + jc.l1dAccesses) *
                ratio(c.ns[perfbench::Mem], double(hc.memAccesses)) +
            double(jc.itlbAccesses + jc.dtlbAccesses) *
                ratio(c.ns[perfbench::Tlb], double(hc.translations)) +
            (job.spec.mode == core::Mode::Baseline
                 ? 0.0
                 : ex * ratio(c.ns[perfbench::Log], insts_p)) +
            replayed * ratio(replay_ns, insts_p) +
            double(jc.checkpoints) *
                ratio(c.ns[perfbench::Ctrl], double(hc.segments));
        job_ns += m.fastestRawJobMs[k] * 1e6;
        executed += ex;
        committed += double(out.result.instructions);
        cycles += ticksToSeconds(out.result.time) *
                  core::SystemConfig{}.mainFreqHz;
        replayed_all += replayed;
        if (job.fastReplay)
            replayed_fast += replayed;
        ckpts += double(out.ckptLen.count);
        rollbacks += double(out.result.rollbacks);
        tot.bpredMisses += jc.bpredMisses;
        tot.l1iAccesses += jc.l1iAccesses;
        tot.l1iMisses += jc.l1iMisses;
        tot.l1dAccesses += jc.l1dAccesses;
        tot.l1dMisses += jc.l1dMisses;
        tot.l2Accesses += jc.l2Accesses;
        tot.l2Misses += jc.l2Misses;
        tot.dtlbAccesses += jc.dtlbAccesses;
        tot.dtlbMisses += jc.dtlbMisses;
        tot.sbBatches += jc.sbBatches;
        tot.sbUops += jc.sbUops;
        tot.sbGateStops += jc.sbGateStops;
    }
    const double setup_ns = m.setupS * 1e9;
    const double n_jobs = double(std::max<std::size_t>(ts.specs.size(), 1));

    return {
        {"isa.ns_per_inst", ratio(isa_ns, isa_n), "ns", ""},
        {"cpu.main.ns_per_inst", ratio(main_ns, insts), "ns", ""},
        {"cpu.main.sim_ipc", ratio(executed, cycles), "inst/cycle",
         "simulated"},
        {"cpu.bpred.ns_per_branch", ratio(bp_ns, bp_n), "ns", ""},
        {"cpu.bpred.mpki", 1e3 * ratio(double(tot.bpredMisses), executed),
         "1/kinst", "simulated"},
        {"mem.ns_per_access", ratio(mem_ns, mem_n), "ns", ""},
        {"mem.accesses_per_inst",
         ratio(double(tot.l1iAccesses + tot.l1dAccesses), executed), "count",
         "simulated"},
        {"mem.tlb.ns_per_translate", ratio(tlb_ns, tlb_n), "ns", ""},
        {"mem.l1i.miss_rate",
         ratio(double(tot.l1iMisses), double(tot.l1iAccesses)), "ratio",
         "simulated"},
        {"mem.l1d.miss_rate",
         ratio(double(tot.l1dMisses), double(tot.l1dAccesses)), "ratio",
         "simulated"},
        {"mem.l2.miss_rate",
         ratio(double(tot.l2Misses), double(tot.l2Accesses)), "ratio",
         "simulated"},
        {"mem.dtlb.miss_rate",
         ratio(double(tot.dtlbMisses), double(tot.dtlbAccesses)), "ratio",
         "simulated"},
        {"core.lslog.ns_per_entry", ratio(log_ns, log_n), "ns", ""},
        {"core.lslog.bytes_per_inst", ratio(log_bytes, insts), "B",
         "harness stream"},
        {"core.replay.ns_per_inst", ratio(rp_ns, rp_n), "ns",
         "self, checker timing excluded"},
        {"core.replay.fast_frac", ratio(replayed_fast, replayed_all),
         "ratio", "simulated"},
        {"cpu.checker_timing.ns_per_inst", ratio(ck_ns, ck_n), "ns", ""},
        {"cpu.checker_timing.l0_miss_rate", ratio(l0, ck_n), "ratio",
         "harness stream"},
        {"core.ctrl.ns_per_ckpt", ratio(ctrl_ns, segs), "ns", ""},
        {"core.system.ns_per_inst",
         ratio(job_ns - setup_ns - attributed, executed), "ns",
         "e2e time no layer accounts for"},
        {"core.system.uops_per_batch",
         ratio(double(tot.sbUops), double(tot.sbBatches)), "count",
         "simulated"},
        {"core.system.gate_stops_per_batch",
         ratio(double(tot.sbGateStops), double(tot.sbBatches)), "count",
         "simulated"},
        {"core.system.ckpt_len_mean", ratio(replayed_all, ckpts), "count",
         "simulated"},
        {"core.system.reexec_frac", ratio(executed, committed) - 1.0,
         "ratio", "simulated"},
        {"core.system.rollbacks", rollbacks, "count", "simulated"},
        {"exp.setup_ms_per_job", m.setupS * 1e3 / n_jobs, "ms", ""},
        {"exp.runner_util", m.runnerUtil, "ratio", ""},
        {"trace.overhead_frac", median(h.pairRatio()) - 1.0, "ratio",
         std::to_string(h.pairRatio().size()) + " on/off pass pairs"},
        {"trace.coverage", ratio(setup_ns + attributed, job_ns), "ratio",
         ""},
    };
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    unsigned trace = 0;
    std::string spans_out;
    double overhead_bound = 0.1;

    exp::Cli cli("paradox_perfbench", "repository benchmark");
    cli.opt("workload", workload,
            "fault_free | fault_storm | paper_sweep");
    cli.opt("seed", seed, "seed forwarded to every ExperimentSpec");
    cli.opt("seconds", seconds, "measured time of the run");
    cli.opt("trace", trace, "0: end-to-end metrics, 1: per-layer metrics");
    cli.opt("spans-out", spans_out,
            "write the per-chunk spans (JSONL) here (--trace 1)");
    cli.opt("overhead-bound", overhead_bound,
            "withhold per-layer numbers above this tracing overhead");
    if (!cli.parse(argc, argv))
        return 2;
    Workload wl;
    if (!makeWorkload(workload, seed, wl) || trace > 1 || seconds <= 0.0) {
        std::fprintf(stderr,
                     "paradox_perfbench: need --workload fault_free|"
                     "fault_storm|paper_sweep, --trace 0|1, --seconds > 0\n");
        return 2;
    }
    setLogLevel(0);
    if (!installSampleHandler()) {
        std::perror("paradox_perfbench: sigaction");
        return 2;
    }

    Tally tally;
    // Forked first, while this process is still single-threaded.
    const std::vector<Reference> refs = referencePass(wl, tally);
    TimedSet ts = makeTimedSet(wl, refs);

    exp::Runner runner(
        exp::RunnerOptions{wl.workers, false, "perfbench", 0});
    // Untimed warm-up: caches, allocator and lazy decode settle.
    runRep(wl, refs, runner, ts, tally);

    // A traced run interleaves the layer harness with the e2e
    // repetitions whose registry counts and host time it attributes.
    std::unique_ptr<LayerHarness> layers;
    if (trace)
        layers = std::make_unique<LayerHarness>(wl, ts, seed, tally);
    const Measured m =
        measure(wl, refs, runner, ts, seconds, tally, [&layers] {
            if (layers)
                layers->pair();
        });

    std::vector<Metric> metrics;
    std::string checksum;
    if (!layers) {
        metrics = endToEndMetrics(wl, refs, ts, m);
    } else {
        layers->writeSpans(spans_out);
        checksum = layers->checksum();
        metrics = layerMetrics(wl, ts, m, *layers);
        const double overhead = median(layers->pairRatio()) - 1.0;
        if (overhead > overhead_bound) {
            std::fprintf(stderr,
                         "perfbench: tracing overhead %.3f exceeds %.3f; "
                         "per-layer numbers withheld\n",
                         overhead, overhead_bound);
            metrics.erase(metrics.begin(), metrics.end() - 2);
            tally.check(false, wl.name + "/trace",
                        "tracing overhead above its bound");
        }
    }

    // ---- Report. -------------------------------------------------------
    for (const Metric &mt : metrics)
        std::printf("%-34s %16.6f %-10s %s\n", mt.name.c_str(), mt.value,
                    mt.unit.c_str(), mt.note.c_str());
    std::printf("{\"provenance\":{\"workload\":\"%s\",\"seed\":%llu,"
                "\"workers\":%u,\"seconds\":%s,\"trace\":%u,\"reps\":%zu,"
                "\"jobs\":%zu,\"failed_frac\":%s,\"layer_checksum\":\"%s\","
                "\"host\":{%s}}}\n",
                wl.name.c_str(), (unsigned long long)seed, wl.workers,
                fmt(seconds).c_str(), trace, m.reps, wl.jobs.size(),
                fmt(ratio(double(tally.failed), double(tally.attempted)))
                    .c_str(),
                checksum.c_str(), obs::hostJsonFields().c_str());
    const bool correct = tally.failed == 0;
    std::string json = "{\"correct\": " +
                       std::string(correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(tally.attempted) +
                       ", \"failed\": " + std::to_string(tally.failed) +
                       ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
                fmt(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
                "\"}";
    json += "}}";
    std::printf("%s\n", json.c_str());
    return correct ? 0 : 1;
}
