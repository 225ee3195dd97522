#include "mem/memory.hh"

#include <algorithm>
#include <cstring>

#include "sim/logging.hh"

namespace paradox
{
namespace mem
{

SimpleMemory::Page *
SimpleMemory::findPage(Addr addr) const
{
    const Addr num = addr / pageBytes;
    if (num == lastPageNum_)
        return lastPage_;
    auto it = pages_.find(num);
    lastPageNum_ = num;
    lastPage_ = it == pages_.end() ? nullptr : it->second.get();
    return lastPage_;
}

SimpleMemory::Page &
SimpleMemory::touchPage(Addr addr)
{
    const Addr num = addr / pageBytes;
    if (num == lastPageNum_ && lastPage_)
        return *lastPage_;
    auto &slot = pages_[num];
    if (!slot)
        slot = std::make_unique<Page>();
    lastPageNum_ = num;
    lastPage_ = slot.get();
    return *slot;
}

std::uint64_t
SimpleMemory::read(Addr addr, unsigned size)
{
    if (size == 0 || size > 8)
        panic("SimpleMemory::read: bad size");
    const std::size_t off = addr % pageBytes;
    if (off + size <= pageBytes) {
        const Page *page = findPage(addr);
        if (!page)
            return 0;
        std::uint64_t v = 0;
        for (unsigned i = 0; i < size; ++i)
            v |= std::uint64_t((*page)[off + i]) << (8 * i);
        return v;
    }
    std::uint64_t v = 0;
    for (unsigned i = 0; i < size; ++i)
        v |= std::uint64_t(readByte(addr + i)) << (8 * i);
    return v;
}

std::uint64_t
SimpleMemory::write(Addr addr, unsigned size, std::uint64_t value)
{
    if (size == 0 || size > 8)
        panic("SimpleMemory::write: bad size");
    const std::size_t off = addr % pageBytes;
    if (off + size <= pageBytes) {
        Page &page = touchPage(addr);
        std::uint64_t old = 0;
        for (unsigned i = 0; i < size; ++i) {
            old |= std::uint64_t(page[off + i]) << (8 * i);
            page[off + i] = std::uint8_t(value >> (8 * i));
        }
        return old;
    }
    std::uint64_t old = 0;
    for (unsigned i = 0; i < size; ++i) {
        old |= std::uint64_t(readByte(addr + i)) << (8 * i);
        writeByte(addr + i, std::uint8_t(value >> (8 * i)));
    }
    return old;
}

std::uint8_t
SimpleMemory::readByte(Addr addr) const
{
    const Page *page = findPage(addr);
    return page ? (*page)[addr % pageBytes] : 0;
}

void
SimpleMemory::writeByte(Addr addr, std::uint8_t value)
{
    touchPage(addr)[addr % pageBytes] = value;
}

void
SimpleMemory::readBlock(Addr addr, std::uint8_t *out, std::size_t n) const
{
    while (n != 0) {
        const std::size_t off = addr % pageBytes;
        const std::size_t chunk = std::min(n, pageBytes - off);
        const Page *page = findPage(addr);
        if (page)
            std::memcpy(out, page->data() + off, chunk);
        else
            std::memset(out, 0, chunk);
        addr += chunk;
        out += chunk;
        n -= chunk;
    }
}

void
SimpleMemory::writeBlock(Addr addr, const std::uint8_t *in, std::size_t n)
{
    while (n != 0) {
        const std::size_t off = addr % pageBytes;
        const std::size_t chunk = std::min(n, pageBytes - off);
        std::memcpy(touchPage(addr).data() + off, in, chunk);
        addr += chunk;
        in += chunk;
        n -= chunk;
    }
}

std::uint64_t
SimpleMemory::fingerprint() const
{
    std::uint64_t acc = 0;
    for (const auto &[pageNum, page] : pages_) {
        std::uint64_t h = 0xcbf29ce484222325ULL ^ pageNum;
        std::uint64_t nonZero = 0;
        const std::uint8_t *data = page->data();
        // FNV over 64-bit words; fingerprints are only ever compared
        // between runs of the same binary, never persisted.
        for (std::size_t i = 0; i < pageBytes; i += 8) {
            std::uint64_t word;
            std::memcpy(&word, data + i, 8);
            nonZero |= word;
            h = (h ^ word) * 0x100000001b3ULL;
        }
        // All-zero pages contribute nothing: content equality must
        // not depend on which pages happen to be materialized.
        if (nonZero)
            acc += h;
    }
    return acc;
}

} // namespace mem
} // namespace paradox
