/**
 * @file
 * Parallel experiment runner: executes N independent ExperimentSpecs
 * concurrently with per-job isolation and deterministic result
 * ordering.
 *
 * Two execution backends:
 *
 *  - Runner (threads): each job builds its own System/workload/RNG
 *    inside the worker, so nothing is shared between jobs; results
 *    land at their spec's index, so a batch's output is bitwise
 *    independent of the job count.
 *
 *  - runIsolated() (forked children): for campaigns that must
 *    contain a crashing simulator.  The parent starts no thread of
 *    its own and multiplexes child pipes with poll().  If the calling
 *    thread ran a System before, its replay helper thread
 *    (core::ReplayHelper) exists; it holds no lock between jobs, and
 *    each child starts its own.
 *
 * Both report progress and an ETA to stderr when asked.
 */

#ifndef PARADOX_EXP_RUNNER_HH
#define PARADOX_EXP_RUNNER_HH

#include <chrono>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "exp/spec.hh"

namespace paradox
{
namespace exp
{

/** How a Runner (or runIsolated) schedules a batch. */
struct RunnerOptions
{
    unsigned jobs = 1;        //!< worker count; 0 = defaultJobs()
    bool progress = false;    //!< progress/ETA line on stderr
    std::string label = "exp";//!< prefix for the progress line
    unsigned childTimeoutSec = 0; //!< runIsolated: alarm() per child
};

/** Hardware concurrency with a sane floor. */
unsigned defaultJobs();

/** Thread-pool batch executor with ordered results. */
class Runner
{
  public:
    explicit Runner(RunnerOptions opt = {}) : opt_(std::move(opt)) {}

    /**
     * Run every spec (possibly concurrently); result i corresponds
     * to spec i regardless of completion order.  A throwing job is
     * reported in its RunOutcome::error; the rest of the batch is
     * unaffected.
     */
    std::vector<RunOutcome> run(const std::vector<ExperimentSpec> &specs);

    /**
     * Ordered typed fan-out: evaluate fn(0..n-1) on the pool and
     * return the results in index order.  The first exception thrown
     * by any job is rethrown in the caller after the pool drains.
     */
    template <typename R>
    std::vector<R>
    map(std::size_t n, const std::function<R(std::size_t)> &fn)
    {
        std::vector<R> results(n);
        dispatch(n, [&](std::size_t i) {
            const auto start = std::chrono::steady_clock::now();
            results[i] = fn(i);
            return std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                .count();
        });
        return results;
    }

    const RunnerOptions &options() const { return opt_; }

  private:
    /**
     * Run job(0..n-1) across the pool; rethrows the first job
     * exception once all workers have stopped.  A job returns its
     * wall-clock seconds (< 0 if unknown), which feed the progress
     * meter's ETA.
     */
    void dispatch(std::size_t n,
                  const std::function<double(std::size_t)> &job);

    RunnerOptions opt_;
};

/** Outcome of one process-isolated job. */
struct IsolatedResult
{
    std::string payload;  //!< everything fn wrote back (via return)
    int status = 0;       //!< raw waitpid() status
    bool crashed = false; //!< abnormal exit or empty payload
    double wallMs = -1.0; //!< child lifetime, fork to reap
    double queueMs = -1.0;//!< batch start to fork
};

/**
 * Run fn(0..n-1) in forked children, at most opt.jobs in flight,
 * results in index order.  fn executes in the child; its return
 * value is piped back verbatim.  A child that dies (signal, _exit
 * without writing, sanitizer abort) yields crashed=true without
 * taking the batch down.
 */
std::vector<IsolatedResult>
runIsolated(std::size_t n, const std::function<std::string(std::size_t)> &fn,
            const RunnerOptions &opt);

} // namespace exp
} // namespace paradox

#endif // PARADOX_EXP_RUNNER_HH
