/**
 * @file
 * Hamming(72,64) SECDED codec.
 *
 * ParaDox assumes SECDED ECC protects memory and caches (paper
 * section IV-E), and the line-granularity rollback path copies cache
 * lines *with their ECC* into the load-store log rather than
 * recalculating it (section IV-D).  This is a real single-error-
 * correcting, double-error-detecting extended Hamming code over
 * 64-bit words: 7 Hamming parity bits plus one overall parity bit.
 * Encode and decode are word-parallel (one masked parity per check
 * bit); tests/test_secded.cc pins them to a bit-serial oracle.
 */

#ifndef PARADOX_MEM_SECDED_HH
#define PARADOX_MEM_SECDED_HH

#include <cstdint>

namespace paradox
{
namespace mem
{

/** Outcome of decoding a possibly corrupted codeword. */
enum class EccStatus : std::uint8_t
{
    Ok,             //!< no error present
    Corrected,      //!< single-bit error found and repaired
    Uncorrectable,  //!< double-bit error detected (data unreliable)
};

/** A 72-bit SECDED codeword: 64 data bits + 8 check bits. */
struct EccWord
{
    std::uint64_t data;
    std::uint8_t check;

    bool operator==(const EccWord &) const = default;
};

/** Result of a decode attempt. */
struct EccDecode
{
    std::uint64_t data;   //!< corrected data (garbage if Uncorrectable)
    EccStatus status;
    unsigned flippedBit;  //!< codeword bit repaired when Corrected
};

/** Hamming(72,64) encoder/decoder. */
class Secded
{
  public:
    /** Encode @p data into a codeword. */
    static EccWord encode(std::uint64_t data);

    /** Decode @p word, correcting a single flipped bit if present. */
    static EccDecode decode(const EccWord &word);

    /**
     * Flip codeword bit @p bit (0..71) in place.  Bits 0..63 are data
     * bits, 64..71 are check bits.  Fault-injection helper.
     */
    static void flipBit(EccWord &word, unsigned bit);

    /** Total codeword bits. */
    static constexpr unsigned codeBits = 72;
};

} // namespace mem
} // namespace paradox

#endif // PARADOX_MEM_SECDED_HH
