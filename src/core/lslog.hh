/**
 * @file
 * The segmented load-store log (paper figure 1 / section II-B).
 *
 * The log is the checker cores' entire data-side view of the world:
 * every load the main core commits deposits (address, value); every
 * store deposits (address, new value) -- plus the overwritten value
 * under ParaMedic's word-granularity rollback.  Under ParaDox the
 * rollback data is instead kept as whole cache-line copies (with
 * their ECC) filling the segment from the opposite end (figure 6),
 * and a segment is full when the two indices would meet.
 *
 * Each checker core owns one 6 KiB log segment (Table I); a segment
 * is bound to its checker from the moment the main core starts
 * filling it until the segment verifies (or rolls back), because its
 * contents are what rollback of *younger* errors needs.
 */

#ifndef PARADOX_CORE_LSLOG_HH
#define PARADOX_CORE_LSLOG_HH

#include <array>
#include <cstdint>
#include <vector>

#include "core/config.hh"
#include "isa/arch_state.hh"
#include "mem/secded.hh"
#include "sim/types.hh"

namespace paradox
{
namespace core
{

/** One detection-side entry: a committed load or store. */
struct LogEntry
{
    bool isLoad;
    std::uint8_t size;
    Addr addr;
    std::uint64_t value;     //!< loaded value / stored value
    std::uint64_t oldValue;  //!< overwritten value (word rollback)
};

/** One rollback-side cache-line copy (ParaDox, section IV-D). */
struct LineCopy
{
    Addr lineAddr;
    std::vector<std::uint8_t> bytes;       //!< pre-write line image

    /** Number of 64-bit ECC words covering the line. */
    std::size_t eccWordCount() const { return bytes.size() / 8; }

    /**
     * The line's ECC word @p i (< eccWordCount()), reproducing the
     * exact bits the cache would have held alongside the data.
     * Encoded on demand: most copies are discarded when their segment
     * verifies, and only a rollback (or an explicit ECC audit) ever
     * reads the protection bits, so paying Secded::encode at capture
     * time for every store's line would be pure overhead on the
     * common path.
     */
    mem::EccWord eccWord(std::size_t i) const;
};

/**
 * One run-time segment: the unit of checking, checkpointing and
 * rollback.
 */
class LogSegment
{
  public:
    /** Reset to an empty segment starting from @p start. */
    void open(std::uint64_t id, const isa::ArchState &start,
              std::uint64_t start_inst_index, Tick start_tick);

    /** @{ Identity and boundary state. */
    std::uint64_t id() const { return id_; }
    const isa::ArchState &startState() const { return startState_; }
    const isa::ArchState &endState() const { return endState_; }
    std::uint64_t startInstIndex() const { return startInstIndex_; }
    Tick startTick() const { return startTick_; }
    Tick closeTick() const { return closeTick_; }
    unsigned instCount() const { return instCount_; }
    /** @} */

    /** Record the close boundary. */
    void close(const isa::ArchState &end, unsigned inst_count,
               Tick close_tick);

    /** @{ Detection-side entries, in commit order. */
    void appendLoad(Addr addr, unsigned size, std::uint64_t value,
                    unsigned entry_bytes);
    void appendStore(Addr addr, unsigned size, std::uint64_t value,
                     std::uint64_t old_value, unsigned entry_bytes);
    const std::vector<LogEntry> &entries() const { return entries_; }
    /** @} */

    /** @{ Rollback-side line copies (ParaDox). */
    void appendLineCopy(Addr line_addr,
                        const std::vector<std::uint8_t> &bytes,
                        unsigned copy_bytes);
    const std::vector<LineCopy> &lineCopies() const { return lines_; }
    /** True if this checkpoint already copied @p line_addr. */
    bool hasLineCopy(Addr line_addr) const;
    /** @} */

    /** Bytes consumed by both sides. */
    std::size_t bytesUsed() const { return bytesUsed_; }

    /** True if @p extra_bytes more would overflow @p capacity. */
    bool
    wouldOverflow(std::size_t extra_bytes, std::size_t capacity) const
    {
        return bytesUsed_ + extra_bytes > capacity;
    }

    /**
     * Continuity link: id of the checker scheduled for the *next*
     * segment, stored at the end of this one (section IV-C).
     */
    void setNextCheckerId(int id) { nextCheckerId_ = id; }
    int nextCheckerId() const { return nextCheckerId_; }

  private:
    std::uint64_t id_ = 0;
    isa::ArchState startState_;
    isa::ArchState endState_;
    std::uint64_t startInstIndex_ = 0;
    Tick startTick_ = 0;
    Tick closeTick_ = 0;
    unsigned instCount_ = 0;
    std::vector<LogEntry> entries_;
    std::vector<LineCopy> lines_;
    std::size_t bytesUsed_ = 0;
    int nextCheckerId_ = -1;
};

} // namespace core
} // namespace paradox

#endif // PARADOX_CORE_LSLOG_HH
