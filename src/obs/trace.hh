/**
 * @file
 * Structured execution tracing (the observability backbone).
 *
 * A TraceSink records typed events -- begin/end and complete spans,
 * instants, and counter samples -- stamped with simulated time and a
 * track id (main core, each checker, the DVFS domain, the fault
 * injector...).  Model code appends into a preallocated vector with
 * no formatting or allocation on the hot path; two writers serialize
 * a finished trace afterwards (Chrome/Perfetto trace-event JSON and
 * the versioned `paradox-trace/1` JSONL consumed by trace_report and
 * the tests).
 *
 * The simulator's hot loop stays clean at run time: with no sink
 * installed (the default) or a disabled sink, every hook reduces to
 * one pointer test.
 *
 * Event names and details are interned `const char *` pointers to
 * string literals: recording never copies or hashes a string.  The
 * sink is single-threaded by design -- one System owns one sink; a
 * parallel sweep gives each job its own (see exp::tracePathForJob).
 */

#ifndef PARADOX_OBS_TRACE_HH
#define PARADOX_OBS_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace paradox
{
namespace obs
{

/** Index into the sink's track table. */
using TrackId = std::uint16_t;

/** Event phases, matching the trace-event format's vocabulary. */
enum class Phase : std::uint8_t
{
    Begin,    //!< span opens ("B"); closed by a later End
    End,      //!< span closes ("E")
    Complete, //!< span with a known duration ("X")
    Instant,  //!< point event ("i")
    Counter,  //!< one sample of a named counter series ("C")
};

/** Single character used for a phase in both serialized formats. */
char phaseChar(Phase phase);

/** Parse a phase character; returns false on an unknown one. */
bool parsePhase(char c, Phase &out);

/** One recorded event (POD; names/details are interned literals). */
struct TraceEvent
{
    Tick ts = 0;                //!< simulated time (fs)
    Tick dur = 0;               //!< Complete spans: duration (fs)
    const char *name = nullptr; //!< event/series name (literal)
    const char *detail = nullptr; //!< optional annotation (literal)
    double value = 0.0;         //!< Counter sample / instant payload
    std::uint64_t id = 0;       //!< correlation id (e.g. segment id)
    TrackId track = 0;
    Phase phase = Phase::Instant;
};

/** Bounded, preallocated event buffer with a track registry. */
class TraceSink
{
  public:
    /** @p capacity bounds the event count (overflow is counted). */
    explicit TraceSink(std::size_t capacity = defaultCapacity);

    /** Register a track; returns its id (also its sort order). */
    TrackId addTrack(const std::string &name);

    /** @{ Runtime switch; recording while disabled is a no-op. */
    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }
    /** @} */

    /** @{ Record one event (names must be string literals). */
    void
    begin(TrackId track, const char *name, Tick ts,
          std::uint64_t id = 0)
    {
        push({ts, 0, name, nullptr, 0.0, id, track, Phase::Begin});
    }

    void
    end(TrackId track, const char *name, Tick ts, std::uint64_t id = 0)
    {
        push({ts, 0, name, nullptr, 0.0, id, track, Phase::End});
    }

    void
    complete(TrackId track, const char *name, Tick start, Tick dur,
             std::uint64_t id = 0, const char *detail = nullptr)
    {
        push({start, dur, name, detail, 0.0, id, track,
              Phase::Complete});
    }

    void
    instant(TrackId track, const char *name, Tick ts,
            const char *detail = nullptr, double value = 0.0,
            std::uint64_t id = 0)
    {
        push({ts, 0, name, detail, value, id, track, Phase::Instant});
    }

    void
    counter(TrackId track, const char *name, Tick ts, double value)
    {
        push({ts, 0, name, nullptr, value, 0, track, Phase::Counter});
    }
    /** @} */

    /** @{ Introspection for the writers and tests. */
    const std::vector<TraceEvent> &events() const { return events_; }
    const std::vector<std::string> &tracks() const { return tracks_; }
    std::size_t capacity() const { return capacity_; }
    /** Events discarded because the buffer was full. */
    std::uint64_t dropped() const { return dropped_; }
    /** @} */

    /** Drop all recorded events and tracks. */
    void clear();

    static constexpr std::size_t defaultCapacity = 1u << 20;

  private:
    void
    push(const TraceEvent &e)
    {
        if (!enabled_)
            return;
        if (events_.size() >= capacity_) {
            ++dropped_;
            return;
        }
        events_.push_back(e);
    }

    std::vector<TraceEvent> events_;
    std::vector<std::string> tracks_;
    std::size_t capacity_;
    std::uint64_t dropped_ = 0;
    bool enabled_ = true;
};

} // namespace obs
} // namespace paradox

#endif // PARADOX_OBS_TRACE_HH
