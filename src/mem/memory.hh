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
#include <cstdint>
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
class SimpleMemory : public isa::MemIf
{
  public:
    static constexpr std::size_t pageBytes = 4096;

    std::uint64_t read(Addr addr, unsigned size) override;
    std::uint64_t write(Addr addr, unsigned size,
                        std::uint64_t value) override;

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
    std::size_t pageCount() const { return pages_.size(); }

  private:
    using Page = std::array<std::uint8_t, pageBytes>;

    Page *findPage(Addr addr) const;
    Page &touchPage(Addr addr);

    std::unordered_map<Addr, std::unique_ptr<Page>> pages_;

    /**
     * Memo of the last page looked up.  Accesses are strongly
     * page-local (the commit loop hammers the stack and a few data
     * pages), so this turns the per-access hash lookup into a single
     * compare.  Page storage is node-stable (unique_ptr in a node
     * map) and pages are never deallocated, so a cached pointer can
     * only go stale one way: a page materializing after a null was
     * memoized -- touchPage trusts only a non-null memo and refreshes
     * it to cover that.
     */
    mutable Addr lastPageNum_ = ~Addr(0);
    mutable Page *lastPage_ = nullptr;
};

} // namespace mem
} // namespace paradox

#endif // PARADOX_MEM_MEMORY_HH
