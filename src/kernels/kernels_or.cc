/**
 * @file
 * Table II kernels dominated by the ordered-through-registers (or)
 * pattern: adpcm (IMA decoder state), covar (column accumulation),
 * dither (Floyd-Steinberg error diffusion), kmeans (distance
 * accumulator), sha (SHA-1 round rotation), and symm-or (inner
 * product accumulation). All CIR chains are race-free and
 * deterministic, so outputs must match the serial golden image.
 */

#include "common/rng.h"
#include "kernels/kernel.h"

namespace xloops {

namespace {

// ------------------------------------------------------------------- adpcm

constexpr unsigned adpcmSamples = 1024;

const u32 imaStepTable[89] = {
    7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 21, 23, 25, 28, 31, 34, 37,
    41, 45, 50, 55, 60, 66, 73, 80, 88, 97, 107, 118, 130, 143, 157, 173,
    190, 209, 230, 253, 279, 307, 337, 371, 408, 449, 494, 544, 598, 658,
    724, 796, 876, 963, 1060, 1166, 1282, 1411, 1552, 1707, 1878, 2066,
    2272, 2499, 2749, 3024, 3327, 3660, 4026, 4428, 4871, 5358, 5894,
    6484, 7132, 7845, 8630, 9493, 10442, 11487, 12635, 13899, 15289,
    16818, 18500, 20350, 22385, 24623, 27086, 29794, 32767};

const i32 imaIndexTable[16] = {-1, -1, -1, -1, 2, 4, 6, 8,
                               -1, -1, -1, -1, 2, 4, 6, 8};

const char *adpcmSrc = R"(
  li r1, 0
  li r2, 1024
  la r5, deltas
  la r6, pcm
  la r7, steptab
  la r8, idxtab
  li r3, 0               # valpred (CIR)
  li r4, 0               # index (CIR)
body:
  lw r10, 0(r5)          # delta nibble
  slli r11, r4, 2
  add r11, r7, r11
  lw r12, 0(r11)         # step = steptab[index]
  srli r13, r12, 3       # vpdiff = step >> 3
  andi r14, r10, 4
  beqz r14, d4
  add r13, r13, r12
d4:
  andi r14, r10, 2
  beqz r14, d2
  srli r15, r12, 1
  add r13, r13, r15
d2:
  andi r14, r10, 1
  beqz r14, d1
  srli r15, r12, 2
  add r13, r13, r15
d1:
  andi r14, r10, 8
  beqz r14, dpos
  sub r3, r3, r13
  j dclamp
dpos:
  add r3, r3, r13
dclamp:
  li r16, 32767
  ble r3, r16, chi
  mov r3, r16
chi:
  li r16, -32768
  bge r3, r16, clo
  mov r3, r16
clo:
  slli r17, r10, 2
  add r17, r8, r17
  lw r18, 0(r17)
  add r4, r4, r18        # index += idxtab[delta]
  bge r4, r0, inn
  li r4, 0
inn:
  li r19, 88
  ble r4, r19, ihi
  mov r4, r19
ihi:
  sw r3, 0(r6)
  addiu.xi r5, 4
  addiu.xi r6, 4
  xloop.or r1, r2, body
  halt
  .data
deltas:  .space 4096
pcm:     .space 4096
steptab: .space 356
idxtab:  .space 64
)";

Kernel
adpcm()
{
    Kernel k;
    k.name = "adpcm-or";
    k.suite = "M";
    k.patterns = "or";
    k.source = adpcmSrc;
    k.setup = [](MainMemory &mem, const Program &prog) {
        Rng rng(0xadc);
        const Addr deltas = prog.symbol("deltas");
        const Addr steptab = prog.symbol("steptab");
        const Addr idxtab = prog.symbol("idxtab");
        for (unsigned i = 0; i < adpcmSamples; i++)
            mem.writeWord(deltas + 4 * i, rng.nextBelow(16));
        for (unsigned i = 0; i < 89; i++)
            mem.writeWord(steptab + 4 * i, imaStepTable[i]);
        for (unsigned i = 0; i < 16; i++)
            mem.writeWord(idxtab + 4 * i,
                          static_cast<u32>(imaIndexTable[i]));
    };
    k.outputs = {{"pcm", adpcmSamples}};
    return k;
}

// ------------------------------------------------------------------- covar

constexpr unsigned covRows = 32;
constexpr unsigned covCols = 8;

const char *covarSrc = R"(
  la r5, data
  la r6, meanv
  la r7, cov
  li r9, 0               # j (column)
  li r20, 8
meancol:
  li r3, 0               # sum (CIR)
  li r1, 0
  li r2, 32
  slli r10, r9, 2
  add r11, r5, r10       # &data[0][j]
mbody:
  lw r12, 0(r11)
  add r3, r3, r12        # single-instruction CIR path
  addiu.xi r11, 32
  xloop.or r1, r2, mbody
  srai r13, r3, 5        # mean = sum / 32
  slli r14, r9, 2
  add r14, r6, r14
  sw r13, 0(r14)
  addi r9, r9, 1
  blt r9, r20, meancol
  # covariance accumulation: cov[j1][j2] for j2 <= j1
  li r9, 0               # j1
covj1:
  li r21, 0              # j2
covj2:
  slli r10, r9, 2
  add r22, r6, r10
  lw r22, 0(r22)         # mean[j1]
  slli r10, r21, 2
  add r23, r6, r10
  lw r23, 0(r23)         # mean[j2]
  li r3, 0               # s (CIR)
  li r1, 0
  li r2, 32
  slli r10, r9, 2
  add r24, r5, r10       # &data[0][j1]
  slli r10, r21, 2
  add r25, r5, r10       # &data[0][j2]
cbody:
  lw r12, 0(r24)
  sub r12, r12, r22
  lw r13, 0(r25)
  sub r13, r13, r23
  mul r14, r12, r13
  add r3, r3, r14        # CIR
  addiu.xi r24, 32
  addiu.xi r25, 32
  xloop.or r1, r2, cbody
  slli r10, r9, 5        # j1 * 8 * 4
  slli r15, r21, 2
  add r10, r10, r15
  add r10, r7, r10
  sw r3, 0(r10)
  addi r21, r21, 1
  ble r21, r9, covj2
  addi r9, r9, 1
  blt r9, r20, covj1
  halt
  .data
data:  .space 1024
meanv: .space 32
cov:   .space 256
)";

Kernel
covar()
{
    Kernel k;
    k.name = "covar-or";
    k.suite = "Po";
    k.patterns = "or";
    k.source = covarSrc;
    k.setup = [](MainMemory &mem, const Program &prog) {
        Rng rng(0xc0a);
        const Addr data = prog.symbol("data");
        for (unsigned i = 0; i < covRows * covCols; i++)
            mem.writeWord(data + 4 * i, rng.nextBelow(200));
    };
    k.outputs = {{"meanv", covCols}, {"cov", covCols * covCols}};
    return k;
}

// ------------------------------------------------------------------ dither

constexpr unsigned ditherRows = 32;
constexpr unsigned ditherCols = 64;

const char *ditherSrc = R"(
  la r5, gray
  la r6, bw
  li r9, 0               # row
  li r20, 32
rowloop:
  li r3, 0               # err (CIR), reset per row
  li r1, 0
  li r2, 64
body:
  lw r10, 0(r5)
  add r10, r10, r3       # gray + diffused error
  li r11, 127
  slt r12, r11, r10      # out = (v > 127)
  sw r12, 0(r6)
  li r13, 255
  mul r14, r12, r13
  sub r3, r10, r14       # residual
  srai r3, r3, 1         # diffuse half to the right
  addiu.xi r5, 4
  addiu.xi r6, 4
  xloop.or r1, r2, body
  addi r9, r9, 1
  blt r9, r20, rowloop
  halt
  .data
gray: .space 8192
bw:   .space 8192
)";

Kernel
dither()
{
    Kernel k;
    k.name = "dither-or";
    k.suite = "C";
    k.patterns = "or";
    k.source = ditherSrc;
    k.setup = [](MainMemory &mem, const Program &prog) {
        Rng rng(0xd1f);
        const Addr gray = prog.symbol("gray");
        for (unsigned i = 0; i < ditherRows * ditherCols; i++)
            mem.writeWord(gray + 4 * i, rng.nextBelow(256));
    };
    k.outputs = {{"bw", ditherRows * ditherCols}};
    return k;
}

// ------------------------------------------------------------------ kmeans

constexpr unsigned kmObjects = 100;
constexpr unsigned kmClusters = 4;

const char *kmeansSrc = R"(
  li r1, 0
  li r2, 100
  la r5, ptx
  la r6, pty
  la r7, cenx
  la r8, ceny
  la r9, member
  li r3, 0               # total distance (CIR)
body:
  lw r10, 0(r5)          # x
  lw r11, 0(r6)          # y
  li r12, 0              # c
  li r13, 4
  li r14, 0x7fffff       # best
  li r15, 0              # bestc
cloop:
  slli r16, r12, 2
  add r17, r7, r16
  lw r17, 0(r17)
  add r18, r8, r16
  lw r18, 0(r18)
  sub r17, r10, r17
  sub r18, r11, r18
  mul r17, r17, r17
  mul r18, r18, r18
  add r17, r17, r18      # squared distance
  bge r17, r14, cnext
  mov r14, r17
  mov r15, r12
cnext:
  addi r12, r12, 1
  blt r12, r13, cloop
  slli r16, r1, 2
  add r16, r9, r16
  sw r15, 0(r16)
  add r3, r3, r14        # CIR: single-instruction path
  addiu.xi r5, 4
  addiu.xi r6, 4
  xloop.or r1, r2, body
  la r19, total
  sw r3, 0(r19)
  halt
  .data
ptx:    .space 400
pty:    .space 400
cenx:   .space 16
ceny:   .space 16
member: .space 400
total:  .word 0
)";

Kernel
kmeans()
{
    Kernel k;
    k.name = "kmeans-or";
    k.suite = "C";
    k.patterns = "or,uc";
    k.source = kmeansSrc;
    k.setup = [](MainMemory &mem, const Program &prog) {
        Rng rng(0x3ea5);
        const Addr ptx = prog.symbol("ptx");
        const Addr pty = prog.symbol("pty");
        const Addr cenx = prog.symbol("cenx");
        const Addr ceny = prog.symbol("ceny");
        for (unsigned i = 0; i < kmObjects; i++) {
            mem.writeWord(ptx + 4 * i, rng.nextBelow(256));
            mem.writeWord(pty + 4 * i, rng.nextBelow(256));
        }
        for (unsigned c = 0; c < kmClusters; c++) {
            mem.writeWord(cenx + 4 * c, 32 + 64 * c);
            mem.writeWord(ceny + 4 * c, 224 - 64 * c);
        }
    };
    k.outputs = {{"member", kmObjects}, {"total", 1}};
    return k;
}

// --------------------------------------------------------------------- sha

constexpr unsigned shaBlocks = 4;

const char *shaSrc = R"(
  la r5, wsched
  la r6, digest
  li r9, 0               # block
  li r20, 4
blockloop:
  li r3, 0x67452301      # a..e (CIRs of the round loop)
  li r4, 0xEFCDAB89
  li r7, 0x98BADCFE
  li r8, 0x10325476
  li r21, 0xC3D2E1F0
  li r1, 0
  li r2, 80
body:
  # select f and K by round range
  li r10, 20
  bge r1, r10, f2
  and r11, r4, r7
  not r12, r4
  and r12, r12, r8
  or r11, r11, r12       # f = (b&c) | (~b&d)
  li r13, 0x5A827999
  j fdone
f2:
  li r10, 40
  bge r1, r10, f3
  xor r11, r4, r7
  xor r11, r11, r8       # f = b^c^d
  li r13, 0x6ED9EBA1
  j fdone
f3:
  li r10, 60
  bge r1, r10, f4
  and r11, r4, r7
  and r12, r4, r8
  or r11, r11, r12
  and r12, r7, r8
  or r11, r11, r12       # f = maj(b,c,d)
  li r13, 0x8F1BBCDC
  j fdone
f4:
  xor r11, r4, r7
  xor r11, r11, r8
  li r13, 0xCA62C1D6
fdone:
  slli r14, r3, 5
  srli r15, r3, 27
  or r14, r14, r15       # rotl(a, 5)
  add r14, r14, r11
  add r14, r14, r21
  add r14, r14, r13
  lw r15, 0(r5)          # w[t]
  add r14, r14, r15      # temp
  mov r21, r8            # e = d
  mov r8, r7             # d = c
  slli r15, r4, 30
  srli r16, r4, 2
  or r7, r15, r16        # c = rotl(b, 30)
  mov r4, r3             # b = a
  mov r3, r14            # a = temp
  addiu.xi r5, 4
  xloop.or r1, r2, body
  # fold the block digest
  lw r10, 0(r6)
  add r10, r10, r3
  sw r10, 0(r6)
  lw r10, 4(r6)
  add r10, r10, r4
  sw r10, 4(r6)
  lw r10, 8(r6)
  add r10, r10, r7
  sw r10, 8(r6)
  lw r10, 12(r6)
  add r10, r10, r8
  sw r10, 12(r6)
  lw r10, 16(r6)
  add r10, r10, r21
  sw r10, 16(r6)
  addi r9, r9, 1
  blt r9, r20, blockloop
  halt
  .data
wsched: .space 1280
digest: .space 20
)";

Kernel
sha()
{
    Kernel k;
    k.name = "sha-or";
    k.suite = "M";
    k.patterns = "or,uc";
    k.source = shaSrc;
    k.setup = [](MainMemory &mem, const Program &prog) {
        Rng rng(0x5a1);
        const Addr wsched = prog.symbol("wsched");
        // Per block: 16 random message words expanded to 80.
        for (unsigned b = 0; b < shaBlocks; b++) {
            u32 w[80];
            for (unsigned t = 0; t < 16; t++)
                w[t] = static_cast<u32>(rng.next());
            for (unsigned t = 16; t < 80; t++) {
                const u32 x = w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16];
                w[t] = (x << 1) | (x >> 31);
            }
            for (unsigned t = 0; t < 80; t++)
                mem.writeWord(wsched + 4 * (80 * b + t), w[t]);
        }
    };
    k.outputs = {{"digest", 5}};
    return k;
}

// ----------------------------------------------------------------- symm-or

const char *symmOrSrc = R"(
  li r9, 0               # i
  li r2, 12
  la r3, syma
  la r4, symb
  la r5, symc
outi:
  li r10, 48
  mul r11, r9, r10
  add r12, r3, r11       # &A[i][0]
  add r13, r5, r11       # &C[i][0]
  li r14, 0              # j
outj:
  li r15, 0              # acc (CIR of the inner loop)
  li r16, 0              # kk
  slli r17, r14, 2
  add r17, r4, r17       # &B[0][j]
  mov r18, r12
bodyk:
  lw r19, 0(r18)
  lw r20, 0(r17)
  mul r21, r19, r20
  add r15, r15, r21      # single-instruction CIR path
  addiu.xi r18, 4
  addiu.xi r17, 48
  xloop.or r16, r2, bodyk
  slli r22, r14, 2
  add r22, r13, r22
  sw r15, 0(r22)
  addi r14, r14, 1
  blt r14, r2, outj
  addi r9, r9, 1
  blt r9, r2, outi
  halt
  .data
syma: .space 576
symb: .space 576
symc: .space 576
)";

Kernel
symmOr()
{
    Kernel k;
    k.name = "symm-or";
    k.suite = "Po";
    k.patterns = "or";
    k.source = symmOrSrc;
    k.setup = [](MainMemory &mem, const Program &prog) {
        Rng rng(0x5e33);  // same dataset as symm-uc
        constexpr unsigned n = 12;
        const Addr syma = prog.symbol("syma");
        const Addr symb = prog.symbol("symb");
        for (unsigned i = 0; i < n; i++) {
            for (unsigned j = 0; j <= i; j++) {
                const u32 v = rng.nextBelow(100);
                mem.writeWord(syma + 4 * (i * n + j), v);
                mem.writeWord(syma + 4 * (j * n + i), v);
            }
            for (unsigned j = 0; j < n; j++)
                mem.writeWord(symb + 4 * (i * n + j), rng.nextBelow(100));
        }
    };
    k.outputs = {{"symc", 144}};
    return k;
}

} // namespace

std::vector<Kernel>
makeOrKernels()
{
    return {adpcm(), covar(), dither(), kmeans(), sha(), symmOr()};
}

} // namespace xloops
