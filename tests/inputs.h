// Shared front-end test inputs: the assembler syntax sampler, the
// committed input files under tests/, and seeded byte mutants for the
// hostile-input properties of test_asm and test_frontend.

#ifndef XLOOPS_TESTS_INPUTS_H
#define XLOOPS_TESTS_INPUTS_H

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"

namespace xloops::test {

/**
 * Every directive, pseudo-op, encoding format and operand form the
 * assembler accepts, quirks included: stacked labels, a '.' inside a
 * label, both comment markers, whitespace inside an operand, the
 * "zero" register, %hi:/%lo: symbol prefixes, hex and negative
 * literals, .word of a symbol, and CRLF line ends.
 */
inline const char *const asmSampler =
    "# syntax sampler\n"
    "    .text\n"
    "_start: entry.0:start_2:   # stacked labels\r\n"
    "    li    r1, 100          ; li -> addi\n"
    "    li    r2, 0xabcdef     # li -> lui + ori\n"
    "    li    r3, 0x7ffe000    # li -> lui\n"
    "    li    r4, -0x10\n"
    "    li    r5, 0xffffffff\r\n"
    "    la    r7, words\n"
    "    lui   r9, %hi:words\n"
    "    ori   r9, r9, %lo:bytes\n"
    "    mov   r10, r1\n"
    "    not   r11, r2\n"
    "    neg   r12, r3\n"
    "    add   r13, r1, r2\r\n"
    "    fcvt.s.w r14,r13,zero\n"
    "    addi  r15, zero, -8192\n"
    "    slli  r15, r15, 2\n"
    "    lw    r16, 0 ( r7 )    # whitespace inside an operand\n"
    "    lw    r17, %lo:bytes(r9)\n"
    "    lh    r18, -4(r7)\n"
    "    lbu   r19, 3(r7)\n"
    "    sw    r16, 4(r7)\n"
    "    sb    r19, 0x10(r7)\n"
    "    sh    r18, _start(r0)\n"
    "    amoadd r20, r1, (r7)\n"
    "    amoswap r21, r2, ( r8 )\n"
    "    fence\n"
    "    csrr  r22, 0\n"
    "    beq   r1, r2, fwd\n"
    "    bgt   r1, r2, fwd\n"
    "    ble   r1, r2, _start\n"
    "    beqz  r1, fwd\n"
    "    bnez  r1, entry.0\n"
    "    j     fwd\n"
    "    jal   r31, fwd\n"
    "    jalr  r0, r31\n"
    "fwd:\n"
    "body: addiu.xi r5, 4\n"
    "    addu.xi r6, r7\r\n"
    "    xloop.uc r1, r2, body\n"
    "    xloop.or r1, r2, body, nohint\n"
    "    xloop.om.de r1,r2,body\n"
    "    nop\n"
    "    halt\r\n"
    "    .data\n"
    "words:  .word 1, -2, 0x30, words, fwd\r\n"
    "halves: .half 1, -1, 0x7fff\n"
    "bytes:  .byte 1, 2, 255\n"
    "    .align 4\n"
    "floats: .float 1.5, -0.25, 3e2\n"
    "buf:    .space 12\n"
    "    .align\t8\n"
    "tail:   .word %lo:tail, %hi:tail\n";

/** Contents of @p path; empty when it cannot be read. */
inline std::string
readFile(const std::filesystem::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream all;
    all << in.rdbuf();
    return all.str();
}

/** Files under tests/@p dir ending in @p ext, in name order. */
inline std::vector<std::filesystem::path>
testFiles(const std::string &dir, const std::string &ext)
{
    std::vector<std::filesystem::path> out;
    for (const auto &e : std::filesystem::directory_iterator(
             std::filesystem::path(XLOOPS_TESTS_DIR) / dir))
        if (e.path().extension() == ext)
            out.push_back(e.path());
    std::sort(out.begin(), out.end());
    return out;
}

/**
 * The runs of more than six decimal digits in @p s, in order. A mutant
 * whose runs differ from its source's is skipped: it may have grown a
 * literal into a gigabyte .space or array.
 */
inline std::vector<std::string>
longDigitRuns(const std::string &s)
{
    std::vector<std::string> out;
    for (size_t i = 0; i < s.size();) {
        size_t j = i;
        while (j < s.size() && s[j] >= '0' && s[j] <= '9')
            j++;
        if (j - i > 6)
            out.push_back(s.substr(i, j - i));
        i = j > i ? j : i + 1;
    }
    return out;
}

/**
 * A mutant of @p src: 1-4 edits, each replacing, inserting or deleting
 * one byte. Half the new bytes are any byte value; the other half come
 * from the characters the two grammars are made of, so mutants reach
 * past the first token.
 */
inline std::string
mutate(const std::string &src, Rng &rng)
{
    static const std::string syntax =
        " \t\r\n,:;#()[]{}=<>+-*/%&|!^._xr0123456789abczlwsi";
    std::string m = src;
    const unsigned edits = 1 + rng.nextBelow(4);
    for (unsigned e = 0; e < edits; e++) {
        const auto byte = [&] {
            return rng.nextBelow(2)
                       ? static_cast<char>(rng.nextBelow(256))
                       : syntax[rng.nextBelow(
                             static_cast<u32>(syntax.size()))];
        };
        const u32 at = rng.nextBelow(static_cast<u32>(m.size() + 1));
        switch (rng.nextBelow(3)) {
          case 0:
            if (at < m.size())
                m[at] = byte();
            break;
          case 1:
            m.insert(m.begin() + at, byte());
            break;
          default:
            if (at < m.size())
                m.erase(at, 1);
            break;
        }
    }
    return m;
}

} // namespace xloops::test

#endif // XLOOPS_TESTS_INPUTS_H
