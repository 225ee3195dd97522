#include "core/replay_helper.hh"

#include <sched.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>
#include <utility>

namespace paradox
{
namespace core
{

namespace
{

/** A replay needs a few KiB of stack; the default 8 MiB is waste. */
constexpr std::size_t helperStackBytes = 256 * 1024;
/**
 * @{ How an idle helper waits for its next job: it polls with a pause
 * spinPolls times, then yields the CPU between polls for up to
 * yieldFor, then sleeps.  Segments are dispatched tens to hundreds of
 * microseconds apart, so the yield phase usually spans the gap; a
 * sleeping helper costs each post a futex wake on the posting thread.
 */
constexpr unsigned spinPolls = 256;
constexpr std::chrono::microseconds yieldFor{2000};
/** @} */

/** Helpers with a System attached (ReplayHelper::attach()). */
std::atomic<unsigned> activeHelpers{0};
/** Jobs the helper threads have run. */
std::atomic<std::uint64_t> helperJobs{0};

/**
 * True if each active helper and its owner can have a CPU of their
 * own.  Otherwise (exp::Runner at --jobs 4 on four CPUs) a replay
 * handed to a helper only competes with the workers for CPU time, and
 * a yielding helper, which stays runnable, is balanced like a busy
 * thread: two workers can end up sharing one CPU while helpers hold
 * another.  So then post() runs each job on the owner.
 */
bool
spareCpuPerHelper()
{
    static const unsigned cpus = ReplayHelper::usableCpus();
    return 2 * activeHelpers.load(std::memory_order_relaxed) <= cpus;
}

inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

} // namespace

ReplayHelper &
ReplayHelper::forThisThread()
{
    thread_local std::unique_ptr<ReplayHelper> helper;
    // After fork() the child inherits this thread's helper object but
    // not its thread.  The object is left in place, not destroyed: a
    // System from before the fork may still finish a job it posted
    // there (an unclaimed one is taken back) and detach from it.
    if (!helper || helper->pid_ != getpid()) {
        (void)helper.release();
        helper.reset(new ReplayHelper);
    }
    return *helper;
}

unsigned
ReplayHelper::usableCpus()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return unsigned(std::max(CPU_COUNT(&set), 1));
    return std::max(std::thread::hardware_concurrency(), 1u);
}

std::uint64_t
ReplayHelper::jobsRunOnHelpers()
{
    return helperJobs.load(std::memory_order_relaxed);
}

ReplayHelper::ReplayHelper() : pid_(getpid())
{
    pthread_attr_t attr;
    pthread_attr_init(&attr);
    pthread_attr_setstacksize(&attr, helperStackBytes);
    // Signals stay with the simulating threads: the helper starts
    // with every signal blocked.
    sigset_t all, old;
    sigfillset(&all);
    pthread_sigmask(SIG_SETMASK, &all, &old);
    started_ = pthread_create(&thread_, &attr, &ReplayHelper::threadMain,
                              this) == 0;
    pthread_sigmask(SIG_SETMASK, &old, nullptr);
    pthread_attr_destroy(&attr);
}

ReplayHelper::~ReplayHelper()
{
    if (users_ > 0)
        activeHelpers.fetch_sub(1, std::memory_order_relaxed);
    if (pid_ != getpid())
        return;  // inherited across fork(): its thread is not ours
    finish(ctx_);
    if (!started_)
        return;
    state_.store(Stopping, std::memory_order_release);
    state_.notify_all();
    pthread_join(thread_, nullptr);
}

void
ReplayHelper::attach()
{
    if (users_++ == 0)
        activeHelpers.fetch_add(1, std::memory_order_relaxed);
}

void
ReplayHelper::detach()
{
    if (--users_ == 0)
        activeHelpers.fetch_sub(1, std::memory_order_relaxed);
}

void
ReplayHelper::post(Job job, void *ctx)
{
    finish(ctx_);
    job_ = job;
    ctx_ = ctx;
    if (!started_ || !spareCpuPerHelper()) {
        job(ctx);  // no CPU to overlap it on: done before it is posted
        return;
    }
    state_.store(Posted, std::memory_order_release);
    state_.notify_one();
}

void
ReplayHelper::finish(const void *ctx)
{
    for (;;) {
        std::uint32_t s = state_.load(std::memory_order_acquire);
        if (s == Idle && error_)
            std::rethrow_exception(std::exchange(error_, nullptr));
        if (s == Idle || ctx != ctx_)
            return;
        if (s == Posted) {
            // Not claimed yet: take the job back and run it here.
            if (state_.compare_exchange_strong(s, Idle,
                                               std::memory_order_acquire)) {
                job_(ctx_);
                return;
            }
            continue;
        }
        state_.wait(Running, std::memory_order_acquire);
    }
}

ReplayHelper::State
ReplayHelper::awaitWork()
{
    const auto ready = [this](std::uint32_t &s) {
        s = state_.load(std::memory_order_acquire);
        return s == Posted || s == Stopping;
    };
    std::uint32_t s;
    for (unsigned i = 0; i < spinPolls; ++i) {
        if (ready(s))
            return State(s);
        cpuRelax();
    }
    const auto yield_until = std::chrono::steady_clock::now() + yieldFor;
    while (std::chrono::steady_clock::now() < yield_until) {
        if (ready(s))
            return State(s);
        sched_yield();
    }
    while (!ready(s))
        state_.wait(s, std::memory_order_acquire);
    return State(s);
}

void *
ReplayHelper::threadMain(void *self)
{
    ReplayHelper &h = *static_cast<ReplayHelper *>(self);
    for (;;) {
        std::uint32_t s = h.awaitWork();
        if (s == Stopping)
            return nullptr;
        // Claim the job unless the owner took it back first.
        if (h.state_.compare_exchange_strong(s, Running,
                                             std::memory_order_acquire)) {
            try {
                h.job_(h.ctx_);
            } catch (...) {
                h.error_ = std::current_exception();  // finish() rethrows
            }
            helperJobs.fetch_add(1, std::memory_order_relaxed);
            h.state_.store(Idle, std::memory_order_release);
            h.state_.notify_all();
        }
    }
}

} // namespace core
} // namespace paradox
