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
    if (num < tablePages)
        return num < table_.size() ? table_[num].get() : nullptr;
    auto it = high_.find(num);
    return it == high_.end() ? nullptr : it->second.get();
}

SimpleMemory::Page &
SimpleMemory::touchPage(Addr addr)
{
    const Addr num = addr / pageBytes;
    std::unique_ptr<Page> *slot;
    if (num < tablePages) {
        if (num >= table_.size())
            table_.resize(num + 1);
        slot = &table_[num];
    } else {
        slot = &high_[num];
    }
    if (!*slot) {
        *slot = std::make_unique<Page>();
        ++pageCount_;
    }
    return **slot;
}

std::uint64_t
SimpleMemory::readSlow(Addr addr, unsigned size) const
{
    if (size == 0 || size > 8)
        panic("SimpleMemory::read: bad size");
    std::uint64_t v = 0;
    const std::size_t off = addr % pageBytes;
    if (off + size <= pageBytes) {
        if (const Page *page = findPage(addr))
            std::memcpy(&v, page->data() + off, size);
        return v;
    }
    for (unsigned i = 0; i < size; ++i)
        v |= std::uint64_t(readByte(addr + i)) << (8 * i);
    return v;
}

std::uint64_t
SimpleMemory::writeSlow(Addr addr, unsigned size, std::uint64_t value)
{
    if (size == 0 || size > 8)
        panic("SimpleMemory::write: bad size");
    std::uint64_t old = 0;
    const std::size_t off = addr % pageBytes;
    if (off + size <= pageBytes) {
        Page &page = touchPage(addr);
        std::memcpy(&old, page.data() + off, size);
        std::memcpy(page.data() + off, &value, size);
        return old;
    }
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
    // FNV over 64-bit words, seeded with the page number; fingerprints
    // are only ever compared between runs of the same binary, never
    // persisted.
    const auto pageHash = [](Addr num, const Page &page) {
        std::uint64_t h = 0xcbf29ce484222325ULL ^ num;
        std::uint64_t nonZero = 0;
        for (std::size_t i = 0; i < pageBytes; i += 8) {
            std::uint64_t word;
            std::memcpy(&word, page.data() + i, 8);
            nonZero |= word;
            h = (h ^ word) * 0x100000001b3ULL;
        }
        // All-zero pages contribute nothing: content equality must
        // not depend on which pages happen to be materialized.
        return nonZero ? h : 0;
    };
    std::uint64_t acc = 0;
    for (Addr num = 0; num < table_.size(); ++num)
        if (table_[num])
            acc += pageHash(num, *table_[num]);
    for (const auto &[num, page] : high_)
        acc += pageHash(num, *page);
    return acc;
}

} // namespace mem
} // namespace paradox
