/**
 * @file
 * Architectural state of a PDX64 core.
 *
 * This is the state ParaMedic checkpoints at segment boundaries and
 * compares between main and checker cores at segment ends, and the
 * state the fault injector flips bits in (integer, float, flags and
 * miscellaneous categories, paper section V-A).
 */

#ifndef PARADOX_ISA_ARCH_STATE_HH
#define PARADOX_ISA_ARCH_STATE_HH

#include <array>
#include <bit>
#include <cstdint>

#include "isa/instruction.hh"
#include "sim/types.hh"

namespace paradox
{
namespace isa
{

/** Register category targeted by architectural-state fault injection. */
enum class RegCategory : std::uint8_t
{
    Integer,    //!< x1..x31
    Float,      //!< f0..f31
    Flags,      //!< sticky FP exception flags
    Misc,       //!< program counter
    NumCategories
};

/** Complete architectural state. */
class ArchState
{
  public:
    /** Reset to all-zero state with @p entry_pc. */
    void reset(Addr entry_pc = 0);

    /** @{ Integer register file access; x0 reads as zero. */
    std::uint64_t
    readX(unsigned idx) const
    {
        return idx == 0 ? 0 : x_[idx];
    }

    void
    writeX(unsigned idx, std::uint64_t value)
    {
        if (idx != 0)
            x_[idx] = value;
    }
    /** @} */

    /** @{ FP register file access (raw 64-bit patterns). */
    std::uint64_t readFBits(unsigned idx) const { return f_[idx]; }
    void writeFBits(unsigned idx, std::uint64_t bits) { f_[idx] = bits; }
    double
    readF(unsigned idx) const
    {
        return std::bit_cast<double>(f_[idx]);
    }

    void
    writeF(unsigned idx, double value)
    {
        f_[idx] = std::bit_cast<std::uint64_t>(value);
    }
    /** @} */

    /** @{ Program counter. */
    Addr pc() const { return pc_; }
    void setPc(Addr pc) { pc_ = pc; }
    /** @} */

    /** @{ Sticky FP exception flags (invalid, divzero, overflow...). */
    std::uint64_t fflags() const { return fflags_; }
    void setFflags(std::uint64_t flags) { fflags_ = flags; }
    void orFflags(std::uint64_t bits) { fflags_ |= bits; }
    /** @} */

    /** Exact equality of every architectural component. */
    bool operator==(const ArchState &other) const = default;

    /**
     * 64-bit fingerprint of the whole state; used by tests and by the
     * final-state comparison fast path.
     */
    std::uint64_t fingerprint() const;

    /**
     * Flip bit @p bit of element @p idx within @p cat.  Entry point
     * for the fault injector.  Out-of-range indices wrap.
     */
    void flipBit(RegCategory cat, unsigned idx, unsigned bit);

    /**
     * Force bit @p bit of element @p idx within @p cat to @p value
     * -- the stuck-at form of flipBit for data-dependent weak-cell
     * faults (a no-op when the stored bit already equals @p value).
     * Same site mapping and wrapping rules as flipBit.
     */
    void writeBit(RegCategory cat, unsigned idx, unsigned bit,
                  bool value);

    /** FP flag bit positions. */
    static constexpr std::uint64_t flagInvalid = 1;
    static constexpr std::uint64_t flagDivZero = 2;
    static constexpr std::uint64_t flagOverflow = 4;

  private:
    std::array<std::uint64_t, numIntRegs> x_{};
    std::array<std::uint64_t, numFpRegs> f_{};
    Addr pc_ = 0;
    std::uint64_t fflags_ = 0;
};

} // namespace isa
} // namespace paradox

#endif // PARADOX_ISA_ARCH_STATE_HH
