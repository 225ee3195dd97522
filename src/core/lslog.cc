#include "core/lslog.hh"

#include <algorithm>

namespace paradox
{
namespace core
{

void
LogSegment::open(std::uint64_t id, const isa::ArchState &start,
                 std::uint64_t start_inst_index, Tick start_tick)
{
    id_ = id;
    startState_ = start;
    endState_ = start;
    startInstIndex_ = start_inst_index;
    startTick_ = start_tick;
    closeTick_ = start_tick;
    instCount_ = 0;
    entries_.clear();
    lines_.clear();
    bytesUsed_ = 0;
    nextCheckerId_ = -1;
}

void
LogSegment::close(const isa::ArchState &end, unsigned inst_count,
                  Tick close_tick)
{
    endState_ = end;
    instCount_ = inst_count;
    closeTick_ = close_tick;
}

void
LogSegment::appendLoad(Addr addr, unsigned size, std::uint64_t value,
                       unsigned entry_bytes)
{
    entries_.push_back(
        LogEntry{true, std::uint8_t(size), addr, value, 0});
    bytesUsed_ += entry_bytes;
}

void
LogSegment::appendStore(Addr addr, unsigned size, std::uint64_t value,
                        std::uint64_t old_value, unsigned entry_bytes)
{
    entries_.push_back(
        LogEntry{false, std::uint8_t(size), addr, value, old_value});
    bytesUsed_ += entry_bytes;
}

mem::EccWord
LineCopy::eccWord(std::size_t i) const
{
    std::uint64_t word = 0;
    for (unsigned b = 0; b < 8; ++b)
        word |= std::uint64_t(bytes[i * 8 + b]) << (8 * b);
    return mem::Secded::encode(word);
}

void
LogSegment::appendLineCopy(Addr line_addr,
                           const std::vector<std::uint8_t> &bytes,
                           unsigned copy_bytes)
{
    lines_.push_back(LineCopy{line_addr, bytes});
    bytesUsed_ += copy_bytes;
}

bool
LogSegment::hasLineCopy(Addr line_addr) const
{
    return std::any_of(lines_.begin(), lines_.end(),
                       [line_addr](const LineCopy &copy) {
                           return copy.lineAddr == line_addr;
                       });
}

} // namespace core
} // namespace paradox
