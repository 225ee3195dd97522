#include "analysis/interval.hh"

#include <algorithm>

namespace paradox
{
namespace analysis
{

namespace
{

using I128 = __int128;

constexpr std::int64_t kMin = Interval::min64;
constexpr std::int64_t kMax = Interval::max64;

/**
 * Box [lo, hi] computed in 128 bits.  If it fits in int64 it maps to
 * the exact interval; otherwise some concrete value could have
 * wrapped, and the only sound 64-bit box is top.
 */
Interval
clamp128(I128 lo, I128 hi)
{
    if (lo < I128(kMin) || hi > I128(kMax))
        return Interval::top();
    return {std::int64_t(lo), std::int64_t(hi)};
}

} // namespace

std::uint64_t
Interval::width() const
{
    if (isBottom())
        return 0;
    if (isTop())
        return ~std::uint64_t(0);
    return std::uint64_t(hi) - std::uint64_t(lo) + 1;
}

std::string
Interval::toString() const
{
    if (isBottom())
        return "bot";
    if (isTop())
        return "top";
    // Appended piecewise: "[" + std::string temporary trips GCC 12's
    // -Wrestrict false positive.
    std::string s = "[";
    s += std::to_string(lo);
    s += ", ";
    s += std::to_string(hi);
    s += ']';
    return s;
}

Interval
join(const Interval &a, const Interval &b)
{
    if (a.isBottom())
        return b;
    if (b.isBottom())
        return a;
    return {std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
}

Interval
meet(const Interval &a, const Interval &b)
{
    if (a.isBottom() || b.isBottom())
        return Interval::bottom();
    return Interval::range(std::max(a.lo, b.lo), std::min(a.hi, b.hi));
}

Interval
widen(const Interval &prev, const Interval &next)
{
    if (prev.isBottom())
        return next;
    if (next.isBottom())
        return prev;
    return {next.lo < prev.lo ? kMin : prev.lo,
            next.hi > prev.hi ? kMax : prev.hi};
}

Interval
intervalAdd(const Interval &a, const Interval &b)
{
    if (a.isBottom() || b.isBottom())
        return Interval::bottom();
    return clamp128(I128(a.lo) + b.lo, I128(a.hi) + b.hi);
}

Interval
intervalSub(const Interval &a, const Interval &b)
{
    if (a.isBottom() || b.isBottom())
        return Interval::bottom();
    return clamp128(I128(a.lo) - b.hi, I128(a.hi) - b.lo);
}

Interval
intervalNeg(const Interval &a)
{
    return intervalSub(Interval::constant(0), a);
}

Interval
intervalMul(const Interval &a, const Interval &b)
{
    if (a.isBottom() || b.isBottom())
        return Interval::bottom();
    const I128 c[4] = {I128(a.lo) * b.lo, I128(a.lo) * b.hi,
                       I128(a.hi) * b.lo, I128(a.hi) * b.hi};
    return clamp128(*std::min_element(c, c + 4),
                    *std::max_element(c, c + 4));
}

Interval
intervalMulHigh(const Interval &a, const Interval &b)
{
    if (a.isBottom() || b.isBottom())
        return Interval::bottom();
    // The full product fits in 127 bits, so the high word is exact.
    const I128 c[4] = {I128(a.lo) * b.lo, I128(a.lo) * b.hi,
                       I128(a.hi) * b.lo, I128(a.hi) * b.hi};
    const I128 lo = *std::min_element(c, c + 4) >> 64;
    const I128 hi = *std::max_element(c, c + 4) >> 64;
    return clamp128(lo, hi);
}

Interval
intervalDiv(const Interval &a, const Interval &b)
{
    if (a.isBottom() || b.isBottom())
        return Interval::bottom();
    // Divisor 0 yields -1 (RISC-V); INT64_MIN / -1 wraps to itself.
    Interval out = Interval::bottom();
    if (b.contains(0))
        out = join(out, Interval::constant(-1));
    if (a.contains(kMin) && b.contains(-1))
        out = join(out, Interval::constant(kMin));
    // Remaining cases: quotient magnitude never exceeds |dividend|.
    const Interval bneg = meet(b, {kMin, -1});
    const Interval bpos = meet(b, {1, kMax});
    for (const Interval &d : {bneg, bpos}) {
        if (d.isBottom())
            continue;
        const I128 c[4] = {I128(a.lo) / d.lo, I128(a.lo) / d.hi,
                           I128(a.hi) / d.lo, I128(a.hi) / d.hi};
        out = join(out, clamp128(*std::min_element(c, c + 4),
                                 *std::max_element(c, c + 4)));
    }
    return out;
}

Interval
intervalRem(const Interval &a, const Interval &b)
{
    if (a.isBottom() || b.isBottom())
        return Interval::bottom();
    // Divisor 0 yields the dividend, so that case adds nothing new.
    // Otherwise |result| < |divisor| and the sign follows the
    // dividend (truncating division).
    // |result| <= |dividend| always, and < |divisor| when it is
    // nonzero; the sign follows the dividend.
    I128 mag = std::max(I128(a.hi), -I128(a.lo));
    if (!b.contains(0))
        mag = std::min(mag, std::max(I128(b.hi), -I128(b.lo)) - 1);
    const I128 lo = a.lo < 0 ? -mag : 0;
    const I128 hi = a.hi > 0 ? mag : 0;
    return clamp128(lo, hi);
}

Interval
intervalDivU(const Interval &a, const Interval &b)
{
    if (a.isBottom() || b.isBottom())
        return Interval::bottom();
    // Precise only when both boxes are non-negative (where signed and
    // unsigned agree); divisor 0 yields all-ones = -1.
    if (a.lo < 0 || b.lo < 0)
        return Interval::top();
    Interval out = Interval::bottom();
    if (b.contains(0))
        out = join(out, Interval::constant(-1));
    const Interval d = meet(b, {1, kMax});
    if (!d.isBottom())
        out = join(out, Interval{a.lo / d.hi, a.hi / d.lo});
    return out;
}

Interval
intervalRemU(const Interval &a, const Interval &b)
{
    if (a.isBottom() || b.isBottom())
        return Interval::bottom();
    if (a.lo < 0 || b.lo < 0)
        return Interval::top();
    // Unsigned remainder with a non-negative dividend: bounded by
    // both the dividend and divisor-1 (divisor 0 yields dividend).
    std::int64_t hi = a.hi;
    if (!b.contains(0) && b.hi - 1 < hi)
        hi = b.hi - 1;
    return {0, hi};
}

Interval
intervalShl(const Interval &a, unsigned sh)
{
    if (a.isBottom())
        return Interval::bottom();
    sh &= 63;  // the executor masks register shift amounts
    return clamp128(I128(a.lo) << sh, I128(a.hi) << sh);
}

Interval
intervalShrLogical(const Interval &a, unsigned sh)
{
    if (a.isBottom())
        return Interval::bottom();
    sh &= 63;
    if (sh == 0)
        return a;
    if (a.lo < 0) {
        // Negative inputs become huge unsigned values; the result is
        // non-negative for sh >= 1 but not otherwise representable.
        return {0, kMax};
    }
    return {a.lo >> sh, a.hi >> sh};
}

Interval
intervalShrArith(const Interval &a, unsigned sh)
{
    if (a.isBottom())
        return Interval::bottom();
    sh &= 63;
    return {a.lo >> sh, a.hi >> sh};
}

namespace
{

/** Smallest power-of-two mask covering every value in @p v. */
std::int64_t
coverMask(std::int64_t v)
{
    std::int64_t m = 0;
    while (m < v)
        m = m * 2 + 1;
    return m;
}

} // namespace

Interval
intervalAnd(const Interval &a, const Interval &b)
{
    if (a.isBottom() || b.isBottom())
        return Interval::bottom();
    if (a.isConstant() && b.isConstant())
        return Interval::constant(a.lo & b.lo);
    // Non-negative & anything non-negative-capped stays within the
    // smaller operand's bit budget.
    if (a.lo >= 0 && b.lo >= 0)
        return {0, std::min(a.hi, b.hi)};
    if (a.lo >= 0)
        return {0, a.hi};
    if (b.lo >= 0)
        return {0, b.hi};
    return Interval::top();
}

Interval
intervalOr(const Interval &a, const Interval &b)
{
    if (a.isBottom() || b.isBottom())
        return Interval::bottom();
    if (a.isConstant() && b.isConstant())
        return Interval::constant(a.lo | b.lo);
    if (a.lo >= 0 && b.lo >= 0) {
        // OR never clears bits and never exceeds the union of the
        // operands' bit masks.
        const std::int64_t m = coverMask(a.hi) | coverMask(b.hi);
        return {std::max(a.lo, b.lo), m};
    }
    return Interval::top();
}

Interval
intervalXor(const Interval &a, const Interval &b)
{
    if (a.isBottom() || b.isBottom())
        return Interval::bottom();
    if (a.isConstant() && b.isConstant())
        return Interval::constant(a.lo ^ b.lo);
    if (a.lo >= 0 && b.lo >= 0)
        return {0, coverMask(a.hi) | coverMask(b.hi)};
    return Interval::top();
}

Cmp
negate(Cmp c)
{
    switch (c) {
    case Cmp::Eq: return Cmp::Ne;
    case Cmp::Ne: return Cmp::Eq;
    case Cmp::LtS: return Cmp::GeS;
    case Cmp::GeS: return Cmp::LtS;
    case Cmp::LtU: return Cmp::GeU;
    case Cmp::GeU: return Cmp::LtU;
    }
    return Cmp::Eq;
}

namespace
{

/**
 * Unsigned comparisons can be decided/refined with signed arithmetic
 * only when both boxes sit on one side of the sign boundary (within
 * either half the unsigned order matches the signed order, and all
 * negatives compare above all non-negatives).
 */
bool
sameUnsignedHalf(const Interval &a, const Interval &b)
{
    return (a.lo >= 0 && b.lo >= 0) || (a.hi < 0 && b.hi < 0);
}

Tri
evalLtS(const Interval &a, const Interval &b)
{
    if (a.hi < b.lo)
        return Tri::True;
    if (a.lo >= b.hi)
        return Tri::False;
    return Tri::Unknown;
}

} // namespace

Tri
evalCmp(Cmp cmp, const Interval &a, const Interval &b)
{
    if (a.isBottom() || b.isBottom())
        return Tri::Unknown;
    switch (cmp) {
    case Cmp::Eq:
        if (a.isConstant() && b.isConstant() && a.lo == b.lo)
            return Tri::True;
        if (meet(a, b).isBottom())
            return Tri::False;
        return Tri::Unknown;
    case Cmp::Ne: {
        const Tri eq = evalCmp(Cmp::Eq, a, b);
        if (eq == Tri::True)
            return Tri::False;
        if (eq == Tri::False)
            return Tri::True;
        return Tri::Unknown;
    }
    case Cmp::LtS:
        return evalLtS(a, b);
    case Cmp::GeS: {
        const Tri lt = evalLtS(a, b);
        if (lt == Tri::True)
            return Tri::False;
        if (lt == Tri::False)
            return Tri::True;
        return Tri::Unknown;
    }
    case Cmp::LtU:
        if (sameUnsignedHalf(a, b))
            return evalLtS(a, b);
        // All negatives (huge unsigned) exceed all non-negatives.
        if (a.hi < 0 && b.lo >= 0)
            return Tri::False;
        if (a.lo >= 0 && b.hi < 0)
            return Tri::True;
        return Tri::Unknown;
    case Cmp::GeU: {
        const Tri lt = evalCmp(Cmp::LtU, a, b);
        if (lt == Tri::True)
            return Tri::False;
        if (lt == Tri::False)
            return Tri::True;
        return Tri::Unknown;
    }
    }
    return Tri::Unknown;
}

void
refineCmp(Cmp cmp, Interval &a, Interval &b)
{
    if (a.isBottom() || b.isBottom()) {
        a = b = Interval::bottom();
        return;
    }
    switch (cmp) {
    case Cmp::Eq: {
        const Interval m = meet(a, b);
        a = b = m;
        break;
    }
    case Cmp::Ne:
        // Only endpoint-constant facts survive in a box domain.
        if (b.isConstant()) {
            if (a.lo == b.lo)
                a = Interval::range(a.lo + 1, a.hi);
            if (!a.isBottom() && a.hi == b.lo)
                a = Interval::range(a.lo, a.hi - 1);
        }
        if (a.isConstant()) {
            if (b.lo == a.lo)
                b = Interval::range(b.lo + 1, b.hi);
            if (!b.isBottom() && b.hi == a.lo)
                b = Interval::range(b.lo, b.hi - 1);
        }
        break;
    case Cmp::LtS: {
        const Interval na = b.hi == kMin
                                ? Interval::bottom()
                                : meet(a, {kMin, b.hi - 1});
        const Interval nb = a.lo == kMax
                                ? Interval::bottom()
                                : meet(b, {a.lo + 1, kMax});
        a = na;
        b = nb;
        break;
    }
    case Cmp::GeS: {
        const Interval na = meet(a, {b.lo, kMax});
        const Interval nb = meet(b, {kMin, a.hi});
        a = na;
        b = nb;
        break;
    }
    case Cmp::LtU:
    case Cmp::GeU:
        if (sameUnsignedHalf(a, b))
            refineCmp(cmp == Cmp::LtU ? Cmp::LtS : Cmp::GeS, a, b);
        break;
    }
    if (a.isBottom() || b.isBottom())
        a = b = Interval::bottom();
}

} // namespace analysis
} // namespace paradox
