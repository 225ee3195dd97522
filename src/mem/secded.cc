#include "mem/secded.hh"

#include <array>
#include <bit>

#include "sim/logging.hh"

namespace paradox
{
namespace mem
{

namespace
{

// Hamming positions run 1..71; the seven powers of two hold parity,
// the remaining 64 positions hold data (in increasing order).  Bit 71
// of the codeword is the overall parity of everything else.
constexpr unsigned hammingPositions = 71;

constexpr bool
isPowerOfTwo(unsigned v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

struct Layout
{
    // posToData[p]: data index + 1, or 0 for parity positions.
    std::array<unsigned, hammingPositions + 1> posToData{};
    // coverMask[j]: the data bits Hamming parity bit j (position 2^j)
    // covers -- those whose position has bit j set.
    std::array<std::uint64_t, 7> coverMask{};

    constexpr Layout()
    {
        unsigned d = 0;
        for (unsigned pos = 1; pos <= hammingPositions; ++pos) {
            if (isPowerOfTwo(pos))
                continue;
            posToData[pos] = d + 1;
            for (unsigned j = 0; j < 7; ++j)
                if (pos & (1u << j))
                    coverMask[j] |= std::uint64_t(1) << d;
            ++d;
        }
    }
};

constexpr Layout layout{};

bool
parity(std::uint64_t v)
{
    return std::popcount(v) & 1;
}

/** The seven Hamming parity bits of @p data (check bits 0..6). */
unsigned
hammingCheck(std::uint64_t data)
{
    unsigned check = 0;
    for (unsigned j = 0; j < 7; ++j)
        check |= unsigned(parity(data & layout.coverMask[j])) << j;
    return check;
}

} // namespace

EccWord
Secded::encode(std::uint64_t data)
{
    const unsigned check = hammingCheck(data);
    // Overall parity over all 71 Hamming bits.
    const bool overall = parity(data) ^ parity(check);
    return EccWord{data, std::uint8_t(check | unsigned(overall) << 7)};
}

EccDecode
Secded::decode(const EccWord &word)
{
    // Bit j of the syndrome XORs every covered position: the data
    // bits under coverMask[j] and parity bit j itself.
    const unsigned syndrome = hammingCheck(word.data) ^ (word.check & 0x7f);
    // Parity of all 72 bits: 0 for even weight.
    const bool overall = parity(word.data) ^ parity(word.check);

    EccDecode result{word.data, EccStatus::Ok, 0};

    if (syndrome == 0 && !overall)
        return result;  // clean

    if (syndrome == 0 && overall) {
        // The overall parity bit itself flipped; data is intact.
        result.status = EccStatus::Corrected;
        result.flippedBit = 71;
        return result;
    }

    if (!overall || syndrome > hammingPositions) {
        // Even total weight error with a non-zero syndrome, or a
        // syndrome pointing outside the codeword: >= 2 bit flips.
        result.status = EccStatus::Uncorrectable;
        return result;
    }

    // Single-bit error at Hamming position 'syndrome'.
    result.status = EccStatus::Corrected;
    const unsigned data_idx = layout.posToData[syndrome];
    if (data_idx != 0) {
        result.data = word.data ^ (std::uint64_t(1) << (data_idx - 1));
        result.flippedBit = data_idx - 1;
    } else {
        // A parity bit (position 2^j) flipped; data is intact.
        result.flippedBit = 64 + unsigned(std::countr_zero(syndrome));
    }
    return result;
}

void
Secded::flipBit(EccWord &word, unsigned bit)
{
    if (bit < 64)
        word.data ^= std::uint64_t(1) << bit;
    else if (bit < codeBits)
        word.check ^= std::uint8_t(1) << (bit - 64);
    else
        panic("Secded::flipBit: bit out of range");
}

} // namespace mem
} // namespace paradox
