/**
 * @file
 * One long-lived helper thread per calling thread that runs checker
 * replays off the simulation's critical path (DESIGN §11, "Deferred
 * replay").
 *
 * The helper holds at most one job.  Its owner -- the thread that
 * posts to it -- finishes the previous job before it posts the next,
 * so jobs run one at a time, in post order, whether the helper or the
 * owner runs them.  Where a job runs changes no result; it only
 * decides whether the job overlaps the owner's work.  Finishing a job
 * never spins: a job the helper has not claimed yet is taken back and
 * run on the owner; one it is running is waited for with
 * std::atomic::wait.
 *
 * The helper starts at the first post from a thread, is joined when
 * that thread exits, and is started afresh in a forked child, where
 * the parent's helper thread does not exist.
 *
 * A helper overlaps work only if it and its owner each have a CPU.
 * The Systems that post to a helper attach to it, and jobs go to the
 * helper threads only while twice the number of helpers with a
 * System attached fits in the process's CPU affinity mask; otherwise
 * post() runs them on the owner.
 */

#ifndef PARADOX_CORE_REPLAY_HELPER_HH
#define PARADOX_CORE_REPLAY_HELPER_HH

#include <pthread.h>
#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <exception>

namespace paradox
{
namespace core
{

class ReplayHelper
{
  public:
    using Job = void (*)(void *ctx);

    /** The calling thread's helper, started on first use. */
    static ReplayHelper &forThisThread();

    ReplayHelper(const ReplayHelper &) = delete;
    ReplayHelper &operator=(const ReplayHelper &) = delete;
    ~ReplayHelper();

    /**
     * @{ A System attaches before its first post and detaches when
     * it is destroyed.  Owner thread only.
     */
    void attach();
    void detach();
    /** @} */

    /**
     * Hand job(ctx) to the helper thread.  The job already posted, if
     * any, is finished first.  When the helper has no CPU of its own
     * (more attached helpers and their owners than usable CPUs, or no
     * thread could be started) the job runs here, at once.  Owner
     * thread only.
     */
    void post(Job job, void *ctx);

    /**
     * Return once the job posted with @p ctx has run (at once if it
     * already has, or another job replaced it).  Rethrows what a job
     * the helper ran threw.  Owner thread only.
     */
    void finish(const void *ctx);

    /** CPUs this process may run on: its affinity mask, not the
     *  machine's online count. */
    static unsigned usableCpus();
    /** Jobs that helper threads, not owners, have run so far in
     *  this process. */
    static std::uint64_t jobsRunOnHelpers();

  private:
    enum State : std::uint32_t
    {
        Idle,     //!< no job, or the last one is done
        Posted,   //!< a job waits to be claimed
        Running,  //!< the helper thread claimed the job
        Stopping, //!< the owner thread is exiting
    };

    ReplayHelper();
    static void *threadMain(void *self);
    /** Spin, then yield, then sleep until a job or a stop arrives. */
    State awaitWork();

    std::atomic<std::uint32_t> state_{Idle};
    /** @{ Written by the owner only while state_ is Idle. */
    Job job_ = nullptr;
    void *ctx_ = nullptr;
    /** @} */
    /** What the last job the helper ran threw; read once Idle. */
    std::exception_ptr error_;
    pthread_t thread_{};
    /** False if no thread could be started: post() then runs each
     *  job on the owner. */
    bool started_ = false;
    unsigned users_ = 0;  //!< Systems attached; owner thread only
    pid_t pid_;  //!< the process whose thread thread_ is
};

} // namespace core
} // namespace paradox

#endif // PARADOX_CORE_REPLAY_HELPER_HH
