/**
 * @file
 * SECDED codec property tests: round-trip, exhaustive single-bit
 * correction, and exhaustive double-bit detection; plus the
 * word-parallel codec pinned codeword-for-codeword to a bit-serial
 * Hamming(72,64) oracle.
 */

#include <gtest/gtest.h>

#include <array>

#include "mem/secded.hh"
#include "sim/rng.hh"

namespace
{

using namespace paradox;
using mem::EccStatus;
using mem::EccWord;
using mem::Secded;

/**
 * The bit-serial reference codec: expand the codeword onto Hamming
 * positions 1..71 (parity at the powers of two, data bits in
 * increasing order at the rest, bit 71 the overall parity) and XOR
 * position indices one bit at a time.
 */
namespace serial
{

constexpr unsigned positions = 71;

struct Layout
{
    std::array<unsigned, 64> dataPos{};
    std::array<unsigned, 7> parityPos{};
    std::array<unsigned, positions + 1> posToData{};

    Layout()
    {
        unsigned d = 0, p = 0;
        for (unsigned pos = 1; pos <= positions; ++pos) {
            if ((pos & (pos - 1)) == 0) {
                parityPos[p++] = pos;
            } else {
                dataPos[d] = pos;
                posToData[pos] = ++d;
            }
        }
    }
};

const Layout layout;

std::array<bool, positions + 1>
expand(const EccWord &w)
{
    std::array<bool, positions + 1> bits{};
    for (unsigned i = 0; i < 64; ++i)
        bits[layout.dataPos[i]] = (w.data >> i) & 1;
    for (unsigned j = 0; j < 7; ++j)
        bits[layout.parityPos[j]] = (w.check >> j) & 1;
    return bits;
}

EccWord
encode(std::uint64_t data)
{
    EccWord w{data, 0};
    for (unsigned j = 0; j < 7; ++j) {
        bool parity = false;
        for (unsigned i = 0; i < 64; ++i)
            if (layout.dataPos[i] & (1u << j))
                parity ^= (data >> i) & 1;
        w.check |= std::uint8_t(parity) << j;
    }
    bool overall = false;
    const auto bits = expand(w);
    for (unsigned pos = 1; pos <= positions; ++pos)
        overall ^= bits[pos];
    w.check |= std::uint8_t(overall) << 7;
    return w;
}

mem::EccDecode
decode(const EccWord &word)
{
    const auto bits = expand(word);
    unsigned syndrome = 0;
    bool overall = (word.check >> 7) & 1;
    for (unsigned pos = 1; pos <= positions; ++pos) {
        if (bits[pos]) {
            syndrome ^= pos;
            overall ^= true;
        }
    }
    mem::EccDecode result{word.data, EccStatus::Ok, 0};
    if (syndrome == 0 && !overall)
        return result;
    if (syndrome == 0) {
        result.status = EccStatus::Corrected;
        result.flippedBit = 71;
        return result;
    }
    if (!overall || syndrome > positions) {
        result.status = EccStatus::Uncorrectable;
        return result;
    }
    result.status = EccStatus::Corrected;
    const unsigned data_idx = layout.posToData[syndrome];
    if (data_idx != 0) {
        result.data = word.data ^ (std::uint64_t(1) << (data_idx - 1));
        result.flippedBit = data_idx - 1;
    } else {
        for (unsigned j = 0; j < 7; ++j)
            if (layout.parityPos[j] == syndrome)
                result.flippedBit = 64 + j;
    }
    return result;
}

} // namespace serial

/** Codec and oracle agree on @p w's decode, field for field. */
void
expectDecodeMatches(const EccWord &w)
{
    const mem::EccDecode got = Secded::decode(w);
    const mem::EccDecode want = serial::decode(w);
    EXPECT_EQ(got.status, want.status)
        << std::hex << w.data << " check " << unsigned(w.check);
    EXPECT_EQ(got.data, want.data)
        << std::hex << w.data << " check " << unsigned(w.check);
    EXPECT_EQ(got.flippedBit, want.flippedBit)
        << std::hex << w.data << " check " << unsigned(w.check);
}

TEST(SecdedOracle, EncodeMatchesTheBitSerialCodec)
{
    Rng rng(11);
    for (std::uint64_t v : {0ULL, ~0ULL, 1ULL, 1ULL << 63})
        EXPECT_EQ(Secded::encode(v), serial::encode(v)) << v;
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t v = rng.next();
        ASSERT_EQ(Secded::encode(v), serial::encode(v)) << v;
        expectDecodeMatches(Secded::encode(v));
    }
}

TEST(SecdedOracle, EverySingleFlipDecodesLikeTheBitSerialCodec)
{
    Rng rng(12);
    for (int trial = 0; trial < 64; ++trial) {
        const EccWord clean = serial::encode(rng.next());
        for (unsigned bit = 0; bit < Secded::codeBits; ++bit) {
            EccWord w = clean;
            Secded::flipBit(w, bit);
            expectDecodeMatches(w);
        }
    }
}

TEST(SecdedOracle, EveryDoubleFlipDecodesLikeTheBitSerialCodec)
{
    Rng rng(13);
    const std::uint64_t words[] = {0, ~0ULL, 0xdeadbeefcafef00dULL,
                                   rng.next(), rng.next()};
    for (std::uint64_t v : words) {
        const EccWord clean = serial::encode(v);
        for (unsigned b1 = 0; b1 < Secded::codeBits; ++b1) {
            for (unsigned b2 = b1 + 1; b2 < Secded::codeBits; ++b2) {
                EccWord w = clean;
                Secded::flipBit(w, b1);
                Secded::flipBit(w, b2);
                expectDecodeMatches(w);
            }
        }
    }
}

TEST(SecdedOracle, RandomCheckBytesDecodeLikeTheBitSerialCodec)
{
    Rng rng(14);
    for (int i = 0; i < 20000; ++i)
        expectDecodeMatches(
            EccWord{rng.next(), std::uint8_t(rng.nextBounded(256))});
}

TEST(Secded, CleanRoundTrip)
{
    for (std::uint64_t v :
         {0ULL, ~0ULL, 0x5555555555555555ULL, 0xdeadbeefcafef00dULL}) {
        EccWord w = Secded::encode(v);
        auto d = Secded::decode(w);
        EXPECT_EQ(d.status, EccStatus::Ok);
        EXPECT_EQ(d.data, v);
    }
}

TEST(Secded, RandomRoundTrip)
{
    Rng rng(42);
    for (int i = 0; i < 2000; ++i) {
        std::uint64_t v = rng.next();
        auto d = Secded::decode(Secded::encode(v));
        EXPECT_EQ(d.status, EccStatus::Ok);
        EXPECT_EQ(d.data, v);
    }
}

/** Exhaustive single-bit sweep, parameterized over the flipped bit. */
class SecdedSingleBit : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(SecdedSingleBit, CorrectsEveryPosition)
{
    const unsigned bit = GetParam();
    Rng rng(1000 + bit);
    for (int trial = 0; trial < 50; ++trial) {
        std::uint64_t v = rng.next();
        EccWord w = Secded::encode(v);
        Secded::flipBit(w, bit);
        auto d = Secded::decode(w);
        EXPECT_EQ(d.status, EccStatus::Corrected)
            << "bit " << bit << " value " << v;
        EXPECT_EQ(d.data, v) << "bit " << bit;
    }
}

INSTANTIATE_TEST_SUITE_P(AllBits, SecdedSingleBit,
                         ::testing::Range(0u, Secded::codeBits));

TEST(Secded, DetectsAllDoubleBitFlips)
{
    Rng rng(7);
    const std::uint64_t v = rng.next();
    const EccWord clean = Secded::encode(v);
    for (unsigned b1 = 0; b1 < Secded::codeBits; ++b1) {
        for (unsigned b2 = b1 + 1; b2 < Secded::codeBits; ++b2) {
            EccWord w = clean;
            Secded::flipBit(w, b1);
            Secded::flipBit(w, b2);
            auto d = Secded::decode(w);
            EXPECT_EQ(d.status, EccStatus::Uncorrectable)
                << "bits " << b1 << "," << b2;
        }
    }
}

TEST(Secded, DoubleFlipSameBitIsClean)
{
    EccWord w = Secded::encode(0x123456789abcdef0ULL);
    Secded::flipBit(w, 13);
    Secded::flipBit(w, 13);
    auto d = Secded::decode(w);
    EXPECT_EQ(d.status, EccStatus::Ok);
}

TEST(Secded, CheckBitsDifferAcrossData)
{
    // Sanity: the code is not degenerate.
    EXPECT_NE(Secded::encode(1).check, Secded::encode(2).check);
}

} // namespace
