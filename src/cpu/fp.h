/**
 * @file
 * Bit-deterministic single-precision FP semantics. The FP entries of
 * XLOOPS_HANDLER_LIST (isa/op_meta.h) produce their results through
 * these helpers, so every executor that expands the list agrees.
 *
 * Plain C++ float expressions are *not* bit-deterministic at the
 * edges: when both operands of a commutative op are NaNs, x86 returns
 * the payload of whichever operand the compiler scheduled into the
 * destination slot — so two correct translation units of the same
 * source can disagree, and the differential test layer rightly fails.
 * Likewise float→int casts of NaN / out-of-range values are undefined
 * behavior in C++.
 *
 * The ISA therefore defines, as RISC-V does: every NaN-producing
 * operation returns the canonical quiet NaN (0x7fc00000, payload never
 * propagates), and float→int conversion of NaN or out-of-range values
 * returns the x86 "integer indefinite" 0x80000000. This makes every
 * executor bit-identical on every input, on every compiler.
 */

#ifndef XLOOPS_CPU_FP_H
#define XLOOPS_CPU_FP_H

#include <cmath>
#include <cstring>

#include "common/types.h"

namespace xloops {
namespace fp {

constexpr u32 canonicalNan = 0x7fc00000u;
constexpr u32 intIndefinite = 0x80000000u;

inline float
fromBits(u32 v)
{
    float f;
    std::memcpy(&f, &v, 4);
    return f;
}

inline u32
toBits(float f)
{
    u32 v;
    std::memcpy(&v, &f, 4);
    return v;
}

/** Result encoding of an FP arithmetic op: NaNs canonicalized. */
inline u32
canon(float f)
{
    return std::isnan(f) ? canonicalNan : toBits(f);
}

/** fcvt.w.s: truncating float→i32 with defined edge behavior. */
inline u32
toWord(float f)
{
    if (std::isnan(f) || f >= 2147483648.0f || f < -2147483648.0f)
        return intIndefinite;
    return static_cast<u32>(static_cast<i32>(f));
}

} // namespace fp
} // namespace xloops

#endif // XLOOPS_CPU_FP_H
