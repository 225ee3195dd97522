/**
 * @file
 * Traced per-layer harness of the repository benchmark.
 *
 * Each simulator layer is timed from outside, by calling its public
 * functions on a workload program's own instruction stream: the
 * decoded interpreter, the main-core timing model with its TLBs, the
 * cache hierarchy, the branch predictor, the load-store log, checker
 * replay, checker timing and the controllers.  Spans are recorded per
 * chunk of the stream (8192 instructions), never per call, kept in
 * memory, and written out when the benchmark ends.
 */

#ifndef PARADOX_PERFBENCH_LAYERS_HH
#define PARADOX_PERFBENCH_LAYERS_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "workloads/workload.hh"

namespace perfbench
{

/** Timed layers; a span covers one layer over one chunk. */
enum Layer : std::uint8_t
{
    Isa,          //!< isa::runDecoded with a folding sink
    MainTotal,    //!< MainCore::advance + I/D Tlb::translate
    Mem,          //!< CacheHierarchy::instFetch + dataAccess
    Tlb,          //!< Tlb::translate, I and D side
    Bpred,        //!< TournamentPredictor::predict + update
    Log,          //!< LogSegment open, appends, close
    ReplayFast,   //!< replaySegment, no injectors (decoded path)
    ReplaySlow,   //!< replaySegment under the workload's fault plan
    CheckerTime,  //!< CheckerTiming::instCycles
    Ctrl,         //!< checkpoint/voltage controllers + regulator
    NumLayers
};

/** Stable span name of @p layer. */
const char *layerName(Layer layer);

/** One program of a workload, as the harness sees it. */
struct HarnessInput
{
    const paradox::workloads::Workload *workload = nullptr;
    /** Segment length: the e2e run's mean checkpoint length. */
    unsigned segmentLength = 1000;
    /** Replay without injectors (jobs with an empty fault plan). */
    bool replayFast = true;
    /** Replay under an injector pair at @ref faultRate (jobs with
     *  fixed-rate faults or DVFS). */
    bool replaySlow = false;
    double faultRate = 0.0;
    std::uint64_t seed = 1;
    /** Instructions of the stream to process (a prefix). */
    std::uint64_t maxInstructions = 1'000'000;
};

/** Deterministic per-program counts of one harness pass. */
struct HarnessCounts
{
    std::uint64_t isaInsts = 0;      //!< interpreter-pass instructions
    std::uint64_t insts = 0;         //!< stream instructions
    std::uint64_t branches = 0;      //!< predictor predict+update pairs
    std::uint64_t memAccesses = 0;   //!< instFetch + dataAccess calls
    std::uint64_t translations = 0;  //!< Tlb::translate calls
    std::uint64_t logEntries = 0;    //!< loads + stores + line copies
    std::uint64_t logBytes = 0;
    std::uint64_t segments = 0;
    std::uint64_t replayFastInsts = 0;
    std::uint64_t replaySlowInsts = 0;
    std::uint64_t checkerCalls = 0;  //!< instCycles calls
    std::uint64_t l0Misses = 0;
    bool resultOk = true;            //!< halted run matched its golden
    /** Per-layer checksums of the results each loop produced. */
    std::array<std::uint64_t, NumLayers> fold{};
};

/** One recorded span. */
struct Span
{
    std::uint64_t t0Ns = 0;  //!< since the harness epoch
    std::uint64_t t1Ns = 0;
    std::uint32_t program = 0;
    std::uint16_t pass = 0;
    Layer layer = Isa;
};

/**
 * In-memory span recorder.  Disabled, it runs the same bodies without
 * reading the clock, which is how the benchmark measures its own
 * tracing overhead.
 */
class SpanLog
{
  public:
    using Clock = std::chrono::steady_clock;

    SpanLog() : epoch_(Clock::now()) { spans_.reserve(1 << 16); }

    void setEnabled(bool on) { enabled_ = on; }
    void setPass(unsigned pass) { pass_ = std::uint16_t(pass); }

    template <typename Body>
    void
    span(Layer layer, unsigned program, Body &&body)
    {
        if (!enabled_) {
            body();
            return;
        }
        const Clock::time_point t0 = Clock::now();
        body();
        const Clock::time_point t1 = Clock::now();
        spans_.push_back(Span{sinceEpoch(t0), sinceEpoch(t1),
                              std::uint32_t(program), pass_, layer});
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Write every span as one JSON line; false on I/O failure. */
    bool writeJsonl(const std::string &path, const std::string &workload,
                    const std::vector<std::string> &programs) const;

  private:
    std::uint64_t
    sinceEpoch(Clock::time_point t) const
    {
        return std::uint64_t(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t -
                                                                 epoch_)
                .count());
    }

    Clock::time_point epoch_;
    std::vector<Span> spans_;
    bool enabled_ = true;
    std::uint16_t pass_ = 0;
};

/**
 * Run every layer over @p in's instruction stream once, recording
 * spans under @p program in @p log.  Throws std::runtime_error when
 * the stream misbehaves (wild fetch, fault-free replay detecting).
 */
HarnessCounts runHarness(const HarnessInput &in, unsigned program,
                         SpanLog &log);

} // namespace perfbench

#endif // PARADOX_PERFBENCH_LAYERS_HH
