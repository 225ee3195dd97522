/**
 * @file
 * Sparse functional backing memory.
 *
 * Timing lives in the cache hierarchy and DRAM models; this class is
 * the authoritative byte store that the main core executes against
 * and that rollback restores.  Pages materialize zero-filled on first
 * touch, so workloads can use scattered address spaces cheaply.
 */

#ifndef PARADOX_MEM_MEMORY_HH
#define PARADOX_MEM_MEMORY_HH

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#include "isa/mem_if.hh"
#include "sim/types.hh"

namespace paradox
{
namespace mem
{

/** Sparse, page-granular byte-addressable memory. */
class SimpleMemory final : public isa::MemIf
{
  public:
    static constexpr std::size_t pageBytes = 4096;

    /**
     * Pages below this number are found through a direct table (grown
     * to the highest one touched); sparse pages above it through a
     * hash map.  The workloads touch pages 0x7f-0x600.
     */
    static constexpr Addr tablePages = Addr(1) << 16;

    /** Inline for an access inside one resident table page; the rest
     *  (absent or high pages, page crossings, bad sizes) is
     *  readSlow().  Force-inlined: runDecoded's load handlers are its
     *  hot callers. */
    [[gnu::always_inline]] std::uint64_t
    read(Addr addr, unsigned size) override
    {
        const std::size_t off = addr % pageBytes;
        if (Page *page = tablePage(addr);
            page && size - 1 < 8 && off + size <= pageBytes) {
            std::uint64_t v = 0;
            std::memcpy(&v, page->data() + off, size);
            return v;
        }
        return readSlow(addr, size);
    }

    /** Inline like read(); the rest is writeSlow(). */
    [[gnu::always_inline]] std::uint64_t
    write(Addr addr, unsigned size, std::uint64_t value) override
    {
        const std::size_t off = addr % pageBytes;
        if (Page *page = tablePage(addr);
            page && size - 1 < 8 && off + size <= pageBytes) {
            std::uint64_t old = 0;
            std::memcpy(&old, page->data() + off, size);
            std::memcpy(page->data() + off, &value, size);
            return old;
        }
        return writeSlow(addr, size, value);
    }

    /** Read one byte (materializing nothing on absent pages). */
    std::uint8_t readByte(Addr addr) const;

    /** Write one byte. */
    void writeByte(Addr addr, std::uint8_t value);

    /** Copy @p n bytes starting at @p addr into @p out. */
    void readBlock(Addr addr, std::uint8_t *out, std::size_t n) const;

    /** Write @p n bytes starting at @p addr from @p in. */
    void writeBlock(Addr addr, const std::uint8_t *in, std::size_t n);

    /**
     * Order-independent fingerprint of all touched pages.  Pages that
     * were materialized but remain all-zero hash identically to
     * untouched pages, so two memories with the same logical content
     * always compare equal.
     */
    std::uint64_t fingerprint() const;

    /** Number of materialized pages (for capacity diagnostics). */
    std::size_t pageCount() const { return pageCount_; }

  private:
    using Page = std::array<std::uint8_t, pageBytes>;

    // The inline paths copy values as host words.
    static_assert(std::endian::native == std::endian::little);

    /** The resident table page holding @p addr, else null. */
    [[gnu::always_inline]] Page *
    tablePage(Addr addr) const
    {
        const Addr num = addr / pageBytes;
        return num < table_.size() ? table_[num].get() : nullptr;
    }

    std::uint64_t readSlow(Addr addr, unsigned size) const;
    std::uint64_t writeSlow(Addr addr, unsigned size, std::uint64_t value);

    Page *findPage(Addr addr) const;
    Page &touchPage(Addr addr);

    /** Pages below tablePages, indexed by page number. */
    std::vector<std::unique_ptr<Page>> table_;
    /** Pages at or above tablePages, by page number. */
    std::unordered_map<Addr, std::unique_ptr<Page>> high_;
    std::size_t pageCount_ = 0;
};

} // namespace mem
} // namespace paradox

#endif // PARADOX_MEM_MEMORY_HH
