/**
 * @file
 * FMIN/FMAX semantics and the NaN of FADD/FMUL/FMADD, defined once
 * for every executor.
 *
 * C leaves the sign of fmin(+0, -0) unspecified, and GCC's inlined
 * minsd and the libm call pick different zeros depending on the
 * optimisation level, so std::fmin/std::fmax would make the decoded
 * loop and the reference executor disagree in some builds.  These
 * follow RISC-V F instead: -0 orders below +0, a NaN operand yields
 * the other operand, and two NaNs yield the canonical quiet NaN.
 *
 * Likewise the compiler may commute a + b or a * b, and the x86 FPU
 * returns its first operand's NaN, so which NaN operand propagates
 * would depend on register allocation: fpNanFirst() fixes it.
 */

#ifndef PARADOX_ISA_FP_MINMAX_HH
#define PARADOX_ISA_FP_MINMAX_HH

#include <bit>
#include <cmath>
#include <cstdint>

namespace paradox
{
namespace isa
{

/** The RISC-V canonical quiet NaN. */
inline constexpr std::uint64_t canonicalNanBits = 0x7ff8000000000000ULL;

/** FMIN: the smaller operand, with -0 < +0 and NaNs ignored. */
inline double
fpMin(double a, double b)
{
    if (std::isnan(a))
        return std::isnan(b) ? std::bit_cast<double>(canonicalNanBits)
                             : b;
    if (std::isnan(b))
        return a;
    if (a == b)  // equal values, or +0 and -0: the negative one
        return std::signbit(a) ? a : b;
    return a < b ? a : b;
}

/**
 * The result @p r of a + b or a * b for @p a and @p b with a fixed
 * NaN: the first NaN operand, quieted, which is what the x86 FPU
 * gives a op b in that operand order.  A NaN from operands that are
 * not NaN (inf - inf, 0 * inf) is the FPU's default NaN either way.
 */
inline double
fpNanFirst(double r, double a, double b)
{
    if (!std::isnan(r)) [[likely]]
        return r;
    constexpr std::uint64_t quietBit = 0x0008000000000000ULL;
    if (std::isnan(a))
        return std::bit_cast<double>(std::bit_cast<std::uint64_t>(a) |
                                     quietBit);
    if (std::isnan(b))
        return std::bit_cast<double>(std::bit_cast<std::uint64_t>(b) |
                                     quietBit);
    return r;
}

/** FMAX: the larger operand, with +0 > -0 and NaNs ignored. */
inline double
fpMax(double a, double b)
{
    if (std::isnan(a))
        return std::isnan(b) ? std::bit_cast<double>(canonicalNanBits)
                             : b;
    if (std::isnan(b))
        return a;
    if (a == b)  // equal values, or +0 and -0: the positive one
        return std::signbit(a) ? b : a;
    return a > b ? a : b;
}

} // namespace isa
} // namespace paradox

#endif // PARADOX_ISA_FP_MINMAX_HH
