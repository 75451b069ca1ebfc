/**
 * @file
 * Table II kernels dominated by the unordered-concurrent (uc)
 * inter-iteration pattern: rgb2cmyk, sgemm, ssearch (KMP), symm,
 * viterbi, and war (Floyd-Warshall with the inner j-loop
 * specialized). All are race-free, so every valid parallel execution
 * must reproduce the serial memory image exactly.
 */

#include "common/rng.h"
#include "kernels/kernel.h"

namespace xloops {

namespace {

// ---------------------------------------------------------------- rgb2cmyk

constexpr unsigned rgbPixels = 512;

const char *rgb2cmykSrc = R"(
  li r1, 0
  li r2, 512
  la r5, rsrc
  la r6, gsrc
  la r7, bsrc
  la r8, cdst
  la r9, mdst
  la r20, ydst
  la r21, kdst
body:
  lw r10, 0(r5)
  lw r11, 0(r6)
  lw r12, 0(r7)
  mov r13, r10           # mx = max(r, g, b)
  bge r13, r11, mxa
  mov r13, r11
mxa:
  bge r13, r12, mxb
  mov r13, r12
mxb:
  li r14, 255
  sub r14, r14, r13      # k = 255 - mx
  sub r15, r13, r10      # c = mx - r
  sub r16, r13, r11      # m = mx - g
  sub r17, r13, r12      # y = mx - b
  sw r15, 0(r8)
  sw r16, 0(r9)
  sw r17, 0(r20)
  sw r14, 0(r21)
  addiu.xi r5, 4
  addiu.xi r6, 4
  addiu.xi r7, 4
  addiu.xi r8, 4
  addiu.xi r9, 4
  addiu.xi r20, 4
  addiu.xi r21, 4
  xloop.uc r1, r2, body
  halt
  .data
rsrc: .space 2048
gsrc: .space 2048
bsrc: .space 2048
cdst: .space 2048
mdst: .space 2048
ydst: .space 2048
kdst: .space 2048
)";

Kernel
rgb2cmyk()
{
    Kernel k;
    k.name = "rgb2cmyk-uc";
    k.suite = "C";
    k.patterns = "uc";
    k.source = rgb2cmykSrc;
    k.setup = [](MainMemory &mem, const Program &prog) {
        Rng rng(0xc0102);
        const Addr rsrc = prog.symbol("rsrc");
        const Addr gsrc = prog.symbol("gsrc");
        const Addr bsrc = prog.symbol("bsrc");
        for (unsigned i = 0; i < rgbPixels; i++) {
            mem.writeWord(rsrc + 4 * i, rng.nextBelow(256));
            mem.writeWord(gsrc + 4 * i, rng.nextBelow(256));
            mem.writeWord(bsrc + 4 * i, rng.nextBelow(256));
        }
    };
    k.outputs = {{"cdst", rgbPixels}, {"mdst", rgbPixels},
                 {"ydst", rgbPixels}, {"kdst", rgbPixels}};
    return k;
}

// ------------------------------------------------------------------- sgemm

constexpr unsigned gemmN = 16;

const char *sgemmSrc = R"(
  li r1, 0
  li r2, 16
  la r3, mata
  la r4, matb
  la r5, matc
bodyi:
  slli r10, r1, 6        # i * 64 bytes (row stride)
  add r11, r3, r10       # &A[i][0]
  add r12, r5, r10       # &C[i][0]
  li r13, 0              # j
bodyj:
  li r14, 0              # acc = 0.0f
  li r15, 0              # kk
  slli r16, r13, 2
  add r16, r4, r16       # &B[0][j]
  mov r17, r11
bodyk:
  lw r18, 0(r17)
  lw r19, 0(r16)
  fmul r20, r18, r19
  fadd r14, r14, r20
  addi r17, r17, 4
  addi r16, r16, 64
  addi r15, r15, 1
  blt r15, r2, bodyk
  slli r21, r13, 2
  add r21, r12, r21
  sw r14, 0(r21)
  addi r13, r13, 1
  blt r13, r2, bodyj
  xloop.uc r1, r2, bodyi
  halt
  .data
mata: .space 1024
matb: .space 1024
matc: .space 1024
)";

Kernel
sgemm()
{
    Kernel k;
    k.name = "sgemm-uc";
    k.suite = "C";
    k.patterns = "uc";
    k.source = sgemmSrc;
    k.setup = [](MainMemory &mem, const Program &prog) {
        Rng rng(0x59e88);
        const Addr mata = prog.symbol("mata");
        const Addr matb = prog.symbol("matb");
        for (unsigned i = 0; i < gemmN * gemmN; i++) {
            mem.writeFloat(mata + 4 * i, rng.nextFloat() * 4.0f - 2.0f);
            mem.writeFloat(matb + 4 * i, rng.nextFloat() * 4.0f - 2.0f);
        }
    };
    k.outputs = {{"matc", gemmN * gemmN}};
    return k;
}

// ----------------------------------------------------------------- ssearch

constexpr unsigned searchStreams = 16;
constexpr unsigned streamBytes = 128;

const char *ssearchSrc = R"(
  li r1, 0
  li r2, 16
  la r5, text
  la r6, pat
  la r7, fail
  la r8, matches
body:
  slli r10, r1, 7        # stream * 128 bytes
  add r10, r5, r10
  li r11, 0              # position in stream
  li r12, 0              # q: KMP state
  li r13, 0              # match count
loopt:
  add r14, r10, r11
  lbu r15, 0(r14)        # ch
kmp:
  beqz r12, tryq
  add r16, r6, r12
  lbu r17, 0(r16)
  beq r17, r15, tryq
  slli r18, r12, 2
  add r18, r7, r18
  lw r12, -4(r18)        # q = fail[q-1]
  j kmp
tryq:
  add r16, r6, r12
  lbu r17, 0(r16)
  bne r17, r15, nomatch
  addi r12, r12, 1
nomatch:
  li r19, 4
  bne r12, r19, cont
  addi r13, r13, 1
  slli r18, r12, 2
  add r18, r7, r18
  lw r12, -4(r18)        # restart from fail[len-1]
cont:
  addi r11, r11, 1
  li r20, 128
  blt r11, r20, loopt
  slli r21, r1, 2
  add r21, r8, r21
  sw r13, 0(r21)
  xloop.uc r1, r2, body
  halt
  .data
text:    .space 2048
pat:     .space 8
fail:    .space 16
matches: .space 64
)";

Kernel
ssearch()
{
    Kernel k;
    k.name = "ssearch-uc";
    k.suite = "C";
    k.patterns = "uc";
    k.source = ssearchSrc;
    k.setup = [](MainMemory &mem, const Program &prog) {
        Rng rng(0x55ea);
        const std::vector<u8> pattern = {'a', 'b', 'a', 'b'};
        // Text drawn from a 3-letter alphabet so matches are common.
        std::vector<u8> text(searchStreams * streamBytes);
        for (auto &c : text)
            c = static_cast<u8>('a' + rng.nextBelow(3));
        mem.loadBytes(prog.symbol("text"), text);
        mem.loadBytes(prog.symbol("pat"), pattern);
        // KMP failure function, word-sized entries.
        std::vector<u32> fail(pattern.size(), 0);
        for (unsigned q = 1; q < pattern.size(); q++) {
            u32 kk = fail[q - 1];
            while (kk > 0 && pattern[kk] != pattern[q])
                kk = fail[kk - 1];
            if (pattern[kk] == pattern[q])
                kk++;
            fail[q] = kk;
        }
        const Addr failTab = prog.symbol("fail");
        for (unsigned i = 0; i < fail.size(); i++)
            mem.writeWord(failTab + 4 * i, fail[i]);
    };
    k.outputs = {{"matches", searchStreams}};
    return k;
}

// -------------------------------------------------------------- symm (uc)

// Integer triple loop C = A*B; symm-uc specializes the outer i loop,
// symm-or (kernels_or.cc) the inner accumulation loop.
constexpr unsigned symmN = 12;

const char *symmUcSrc = R"(
  li r1, 0
  li r2, 12
  la r3, syma
  la r4, symb
  la r5, symc
bodyi:
  li r10, 48
  mul r11, r1, r10
  add r12, r3, r11       # &A[i][0]
  add r13, r5, r11       # &C[i][0]
  li r14, 0              # j
bodyj:
  li r15, 0              # acc
  li r16, 0              # kk
  slli r17, r14, 2
  add r17, r4, r17       # &B[0][j]
  mov r18, r12
bodyk:
  lw r19, 0(r18)
  lw r20, 0(r17)
  mul r21, r19, r20
  add r15, r15, r21
  addi r18, r18, 4
  addi r17, r17, 48
  addi r16, r16, 1
  blt r16, r2, bodyk
  slli r22, r14, 2
  add r22, r13, r22
  sw r15, 0(r22)
  addi r14, r14, 1
  blt r14, r2, bodyj
  xloop.uc r1, r2, bodyi
  halt
  .data
syma: .space 576
symb: .space 576
symc: .space 576
)";

void
symmSetup(MainMemory &mem, const Program &prog)
{
    Rng rng(0x5e33);
    const Addr syma = prog.symbol("syma");
    const Addr symb = prog.symbol("symb");
    // A symmetric, B general (Polybench symm flavour).
    for (unsigned i = 0; i < symmN; i++) {
        for (unsigned j = 0; j <= i; j++) {
            const u32 v = rng.nextBelow(100);
            mem.writeWord(syma + 4 * (i * symmN + j), v);
            mem.writeWord(syma + 4 * (j * symmN + i), v);
        }
        for (unsigned j = 0; j < symmN; j++)
            mem.writeWord(symb + 4 * (i * symmN + j), rng.nextBelow(100));
    }
}

Kernel
symmUc()
{
    Kernel k;
    k.name = "symm-uc";
    k.suite = "Po";
    k.patterns = "uc";
    k.source = symmUcSrc;
    k.setup = symmSetup;
    k.outputs = {{"symc", symmN * symmN}};
    return k;
}

// ----------------------------------------------------------------- viterbi

constexpr unsigned vitFrames = 16;
constexpr unsigned vitSteps = 32;

const char *viterbiSrc = R"(
  li r1, 0
  li r2, 16
  la r5, obs
  la r6, metric
body:
  slli r10, r1, 7        # frame * 32 steps * 4B
  add r10, r5, r10
  li r11, 0              # pm0..pm3
  li r12, 0
  li r13, 0
  li r14, 0
  li r15, 0              # t
steps:
  lw r16, 0(r10)         # ob
  # npm0 = min(pm0 + ((ob^0)&3), pm1 + ((ob>>2^0)&3))
  andi r17, r16, 3
  add r17, r11, r17
  srli r18, r16, 2
  andi r18, r18, 3
  add r18, r12, r18
  blt r17, r18, n0
  mov r17, r18
n0:
  # npm1 = min(pm2 + ((ob^1)&3), pm3 + ((ob>>2^1)&3))
  xori r19, r16, 1
  andi r19, r19, 3
  add r19, r13, r19
  srli r20, r16, 2
  xori r20, r20, 1
  andi r20, r20, 3
  add r20, r14, r20
  blt r19, r20, n1
  mov r19, r20
n1:
  # npm2 = min(pm0 + ((ob^2)&3), pm1 + ((ob>>2^2)&3))
  xori r21, r16, 2
  andi r21, r21, 3
  add r21, r11, r21
  srli r22, r16, 2
  xori r22, r22, 2
  andi r22, r22, 3
  add r22, r12, r22
  blt r21, r22, n2
  mov r21, r22
n2:
  # npm3 = min(pm2 + ((ob^3)&3), pm3 + ((ob>>2^3)&3))
  xori r23, r16, 3
  andi r23, r23, 3
  add r23, r13, r23
  srli r24, r16, 2
  xori r24, r24, 3
  andi r24, r24, 3
  add r24, r14, r24
  blt r23, r24, n3
  mov r23, r24
n3:
  mov r11, r17
  mov r12, r19
  mov r13, r21
  mov r14, r23
  addi r10, r10, 4
  addi r15, r15, 1
  li r25, 32
  blt r15, r25, steps
  # survivor metric = min(pm0..pm3)
  blt r11, r12, m0
  mov r11, r12
m0:
  blt r11, r13, m1
  mov r11, r13
m1:
  blt r11, r14, m2
  mov r11, r14
m2:
  slli r26, r1, 2
  add r26, r6, r26
  sw r11, 0(r26)
  xloop.uc r1, r2, body
  halt
  .data
obs:    .space 2048
metric: .space 64
)";

Kernel
viterbi()
{
    Kernel k;
    k.name = "viterbi-uc";
    k.suite = "C";
    k.patterns = "uc";
    k.source = viterbiSrc;
    k.setup = [](MainMemory &mem, const Program &prog) {
        Rng rng(0x71728b1);
        const Addr obs = prog.symbol("obs");
        for (unsigned i = 0; i < vitFrames * vitSteps; i++)
            mem.writeWord(obs + 4 * i, rng.nextBelow(16));
    };
    k.outputs = {{"metric", vitFrames}};
    return k;
}

// -------------------------------------------------------------------- war

constexpr unsigned warN = 16;

/** Shared Floyd-Warshall source; @p innerHint selects war-uc (inner
 *  j-loop specialized) vs war-om (outer i-loop specialized). */
std::string
warSource(bool inner_hint)
{
    std::string src = R"(
  la r3, path
  li r2, 16
  li r20, 0              # k
kloop:
  slli r27, r20, 6
  add r25, r3, r27       # &path[k][0]
  li r21, 0              # i
bodyi:
  slli r27, r21, 6
  add r24, r3, r27       # &path[i][0]
  slli r28, r20, 2
  add r28, r24, r28
  lw r26, 0(r28)         # path[i][k]
  li r23, 0              # j
bodyj:
  slli r10, r23, 2
  add r11, r24, r10      # &path[i][j]
  add r12, r25, r10      # &path[k][j]
  lw r13, 0(r11)
  lw r14, 0(r12)
  add r15, r26, r14
  blt r13, r15, skipj
  sw r15, 0(r11)
skipj:
)";
    src += inner_hint ? "  xloop.uc r23, r2, bodyj\n"
                      : "  xloop.uc r23, r2, bodyj, nohint\n";
    src += inner_hint ? "  xloop.om r21, r2, bodyi, nohint\n"
                      : "  xloop.om r21, r2, bodyi\n";
    src += R"(
  addi r20, r20, 1
  blt r20, r2, kloop
  halt
  .data
path: .space 1024
)";
    return src;
}

void
warSetup(MainMemory &mem, const Program &prog)
{
    Rng rng(0x3a12);
    const Addr path = prog.symbol("path");
    for (unsigned i = 0; i < warN; i++)
        for (unsigned j = 0; j < warN; j++)
            mem.writeWord(path + 4 * (i * warN + j),
                          i == j ? 0 : 1 + rng.nextBelow(64));
}

Kernel
warUc()
{
    Kernel k;
    k.name = "war-uc";
    k.suite = "Po";
    k.patterns = "uc";
    k.source = warSource(true);
    k.setup = warSetup;
    k.outputs = {{"path", warN * warN}};
    return k;
}

Kernel
warOm()
{
    Kernel k;
    k.name = "war-om";
    k.suite = "Po";
    k.patterns = "om,uc";
    k.source = warSource(false);
    k.setup = warSetup;
    k.outputs = {{"path", warN * warN}};
    return k;
}

} // namespace

std::vector<Kernel>
makeUcKernels()
{
    return {rgb2cmyk(), sgemm(), ssearch(), symmUc(), viterbi(), warUc(),
            warOm()};
}

} // namespace xloops
