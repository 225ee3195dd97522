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
    lineCount_ = 0;
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
    if (lineCount_ == lines_.size())
        lines_.emplace_back();
    LineCopy &copy = lines_[lineCount_++];
    copy.lineAddr = line_addr;
    copy.bytes.assign(bytes.begin(), bytes.end());
    bytesUsed_ += copy_bytes;
}

bool
LogSegment::hasLineCopy(Addr line_addr) const
{
    const std::span<const LineCopy> lines = lineCopies();
    return std::any_of(lines.begin(), lines.end(),
                       [line_addr](const LineCopy &copy) {
                           return copy.lineAddr == line_addr;
                       });
}

bool
LineAddrSet::contains(Addr line) const
{
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = home(line); slots_[i].gen == gen_;
         i = (i + 1) & mask)
        if (slots_[i].line == line)
            return true;
    return false;
}

void
LineAddrSet::insert(Addr line)
{
    if (2 * (count_ + 1) > slots_.size())
        grow();
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = home(line);
    for (; slots_[i].gen == gen_; i = (i + 1) & mask)
        if (slots_[i].line == line)
            return;
    slots_[i] = Slot{line, gen_};
    ++count_;
}

void
LineAddrSet::clear()
{
    count_ = 0;
    if (++gen_ == 0) {
        // The generation wrapped: no stale slot may alias it.
        for (Slot &slot : slots_)
            slot.gen = 0;
        gen_ = 1;
    }
}

void
LineAddrSet::grow()
{
    std::vector<Slot> old(2 * slots_.size());
    old.swap(slots_);
    --shift_;
    const std::uint32_t live = gen_;
    count_ = 0;
    for (const Slot &slot : old)
        if (slot.gen == live)
            insert(slot.line);
}

} // namespace core
} // namespace paradox
