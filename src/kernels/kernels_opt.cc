/**
 * @file
 * Table IV case studies.
 *
 * Hand-optimized xloop.or kernels (adpcm/dither/sha "-or-opt"):
 * instructions are rescheduled to shrink the inter-iteration critical
 * path of each CIR — cross-iteration state is updated as early as
 * possible, loop-invariant constants are hoisted, and LLFU ops on the
 * CIR chain are replaced with shift/add forms (paper Section IV-G).
 *
 * Loop-transformed "-uc" variants (bfs/dither/kmeans/qsort/rsort):
 * privatize-and-reduce, split (level-synchronous) worklists, and
 * row-private error diffusion turn ordered/atomic loops into
 * unordered-concurrent ones.
 */

#include <queue>

#include "common/log.h"
#include "common/rng.h"
#include "kernels/kernel.h"

namespace xloops {

namespace {

// ----------------------------------------------------------- adpcm-or-opt

const char *adpcmOptSrc = R"(
  li r1, 0
  li r2, 1024
  la r5, deltas
  la r6, pcm
  la r7, steptab
  la r8, idxtab
  li r3, 0               # valpred (CIR)
  li r4, 0               # index (CIR)
  li r28, 88             # hoisted constants
  li r29, 32767
  li r30, -32768
body:
  lw r10, 0(r5)          # delta
  slli r11, r4, 2
  add r11, r7, r11
  lw r12, 0(r11)         # step = steptab[old index]
  # index chain first: the CIR the next iteration needs earliest
  slli r17, r10, 2
  add r17, r8, r17
  lw r18, 0(r17)
  add r4, r4, r18
  bge r4, r0, inn
  li r4, 0
inn:
  ble r4, r28, ihi
  mov r4, r28
ihi:
  # valpred chain
  srli r13, r12, 3
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
  ble r3, r29, chi
  mov r3, r29
chi:
  bge r3, r30, clo
  mov r3, r30
clo:
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

// ---------------------------------------------------------- dither-or-opt

const char *ditherOptSrc = R"(
  la r5, gray
  la r6, bw
  li r9, 0
  li r20, 32
  li r21, 127            # hoisted constant
rowloop:
  li r3, 0               # err (CIR)
  li r1, 0
  li r2, 64
body:
  lw r10, 0(r5)
  add r10, r10, r3
  slt r12, r21, r10      # out bit
  slli r14, r12, 8
  sub r14, r14, r12      # out*255 without the multiplier
  sub r3, r10, r14
  srai r3, r3, 1         # CIR written as early as possible
  sw r12, 0(r6)          # store moved off the critical path
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

// ------------------------------------------------------------- sha-or-opt

const char *shaOptSrc = R"(
  la r5, wsched
  la r6, digest
  li r9, 0
  li r20, 4
blockloop:
  li r3, 0x67452301
  li r4, 0xEFCDAB89
  li r7, 0x98BADCFE
  li r8, 0x10325476
  li r21, 0xC3D2E1F0
  li r1, 0
  li r2, 80
body:
  li r10, 20
  bge r1, r10, f2
  and r11, r4, r7
  not r12, r4
  and r12, r12, r8
  or r11, r11, r12
  li r13, 0x5A827999
  j fdone
f2:
  li r10, 40
  bge r1, r10, f3
  xor r11, r4, r7
  xor r11, r11, r8
  li r13, 0x6ED9EBA1
  j fdone
f3:
  li r10, 60
  bge r1, r10, f4
  and r11, r4, r7
  and r12, r4, r8
  or r11, r11, r12
  and r12, r7, r8
  or r11, r11, r12
  li r13, 0x8F1BBCDC
  j fdone
f4:
  xor r11, r4, r7
  xor r11, r11, r8
  li r13, 0xCA62C1D6
fdone:
  slli r14, r3, 5
  srli r15, r3, 27
  or r14, r14, r15       # rotl(old a, 5)
  add r14, r14, r11
  add r14, r14, r13      # temp partial
  mov r22, r21           # save old e
  mov r21, r8            # e = d  -- CIRs written early so the next
  mov r8, r7             # d = c     iteration's f() can start sooner
  slli r15, r4, 30
  srli r16, r4, 2
  or r7, r15, r16        # c = rotl(b, 30)
  mov r4, r3             # b = a
  lw r15, 0(r5)
  add r14, r14, r22
  add r14, r14, r15
  mov r3, r14            # a = temp (only CIR still written late)
  addiu.xi r5, 4
  xloop.or r1, r2, body
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

// ---------------------------------------------------------------- bfs-uc

// Level-synchronous BFS: a serial loop over levels, an xloop.uc over
// the current frontier, amomin relaxation, and a split (two-buffer)
// worklist filled through an AMO cursor.
const char *bfsUcSrc = R"(
  la r5, wla             # current frontier
  la r15, wlb            # next frontier
  la r6, adjoff
  la r7, adjlist
  la r8, dist
  la r9, ntail
  li r27, 1              # current frontier size
levels:
  beqz r27, alldone
  sw r0, 0(r9)           # next tail = 0
  li r1, 0
  mov r2, r27
body:
  slli r10, r1, 2
  add r10, r5, r10
  lw r11, 0(r10)         # u
  slli r12, r11, 2
  add r13, r6, r12
  lw r14, 0(r13)
  lw r16, 4(r13)
  add r17, r8, r12
  lw r18, 0(r17)
  addi r18, r18, 1
nbr:
  bge r14, r16, bdone
  slli r19, r14, 2
  add r19, r7, r19
  lw r20, 0(r19)
  slli r21, r20, 2
  add r21, r8, r21
  amomin r22, r18, (r21)
  ble r22, r18, nonext
  li r23, 1
  amoadd r24, r23, (r9)
  slli r25, r24, 2
  add r25, r15, r25
  sw r20, 0(r25)         # next[slot] = v
nonext:
  addi r14, r14, 1
  j nbr
bdone:
  xloop.uc r1, r2, body
  lw r27, 0(r9)          # next frontier size
  mov r26, r5            # swap frontier buffers
  mov r5, r15
  mov r15, r26
  j levels
alldone:
  halt
  .data
wla:     .space 8192
wlb:     .space 8192
adjoff:  .space 260
adjlist: .space 1024
dist:    .space 256
ntail:   .word 0
)";

// -------------------------------------------------------------- dither-uc

// Row-private error diffusion: the outer row loop becomes the
// specialized unordered loop; each iteration runs a whole row.
const char *ditherUcSrc = R"(
  la r5, gray
  la r6, bw
  li r1, 0
  li r2, 32              # rows
body:
  slli r10, r1, 8        # row * 64 * 4 bytes
  add r11, r5, r10
  add r12, r6, r10
  li r3, 0               # row-private err
  li r13, 0
  li r14, 64
cols:
  lw r15, 0(r11)
  add r15, r15, r3
  li r16, 127
  slt r17, r16, r15
  sw r17, 0(r12)
  slli r18, r17, 8
  sub r18, r18, r17
  sub r3, r15, r18
  srai r3, r3, 1
  addi r11, r11, 4
  addi r12, r12, 4
  addi r13, r13, 1
  blt r13, r14, cols
  xloop.uc r1, r2, body
  halt
  .data
gray: .space 8192
bw:   .space 8192
)";

// -------------------------------------------------------------- kmeans-uc

// Privatize-and-reduce: the uc loop stores each object's best
// distance; a serial reduction accumulates the total.
const char *kmeansUcSrc = R"(
  li r1, 0
  li r2, 100
  la r5, ptx
  la r6, pty
  la r7, cenx
  la r8, ceny
  la r9, member
  la r26, bestd
body:
  lw r10, 0(r5)
  lw r11, 0(r6)
  li r12, 0
  li r13, 4
  li r14, 0x7fffff
  li r15, 0
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
  add r17, r17, r18
  bge r17, r14, cnext
  mov r14, r17
  mov r15, r12
cnext:
  addi r12, r12, 1
  blt r12, r13, cloop
  slli r16, r1, 2
  add r17, r9, r16
  sw r15, 0(r17)
  add r17, r26, r16
  sw r14, 0(r17)         # privatized best distance
  addiu.xi r5, 4
  addiu.xi r6, 4
  xloop.uc r1, r2, body
  # serial reduction
  li r3, 0
  li r13, 0
  li r12, 100
reduce:
  slli r16, r13, 2
  add r17, r26, r16
  lw r18, 0(r17)
  add r3, r3, r18
  addi r13, r13, 1
  blt r13, r12, reduce
  la r19, total
  sw r3, 0(r19)
  halt
  .data
ptx:    .space 400
pty:    .space 400
cenx:   .space 16
ceny:   .space 16
member: .space 400
bestd:  .space 400
total:  .word 0
)";

// --------------------------------------------------------------- qsort-uc

// Split worklists: the dynamic-bound loop becomes a level-synchronous
// pair of buffers with a plain xloop.uc over each level.
const char *qsortUcSrc = R"(
  la r5, wloa
  la r6, whia
  la r15, wlob
  la r16, whib
  la r7, qdata
  la r9, qtail
  li r27, 1              # current level size
levels:
  beqz r27, alldone
  sw r0, 0(r9)
  li r1, 0
  mov r2, r27
body:
  slli r10, r1, 2
  add r11, r5, r10
  lw r12, 0(r11)         # lo
  add r11, r6, r10
  lw r13, 0(r11)         # hi
  bge r12, r13, qdone
  slli r14, r13, 2
  add r14, r7, r14
  lw r17, 0(r14)         # pivot
  mov r18, r12           # store
  mov r19, r12           # scan
ploop:
  bge r19, r13, pdone
  slli r20, r19, 2
  add r20, r7, r20
  lw r21, 0(r20)
  bge r21, r17, pnext
  slli r22, r18, 2
  add r22, r7, r22
  lw r23, 0(r22)
  sw r21, 0(r22)
  sw r23, 0(r20)
  addi r18, r18, 1
pnext:
  addi r19, r19, 1
  j ploop
pdone:
  slli r22, r18, 2
  add r22, r7, r22
  lw r23, 0(r22)
  sw r17, 0(r22)
  sw r23, 0(r14)
  addi r24, r18, -1
  bge r12, r24, nol
  li r21, 1
  amoadd r25, r21, (r9)
  slli r26, r25, 2
  add r20, r15, r26
  sw r12, 0(r20)
  add r20, r16, r26
  sw r24, 0(r20)
nol:
  addi r24, r18, 1
  bge r24, r13, qdone
  li r21, 1
  amoadd r25, r21, (r9)
  slli r26, r25, 2
  add r20, r15, r26
  sw r24, 0(r20)
  add r20, r16, r26
  sw r13, 0(r20)
qdone:
  xloop.uc r1, r2, body
  lw r27, 0(r9)
  mov r28, r5            # swap both worklist buffers
  mov r5, r15
  mov r15, r28
  mov r28, r6
  mov r6, r16
  mov r16, r28
  j levels
alldone:
  halt
  .data
wloa:  .space 2048
whia:  .space 2048
wlob:  .space 2048
whib:  .space 2048
qdata: .space 1024
qtail: .word 0
)";

// --------------------------------------------------------------- rsort-uc

// Privatize-and-reduce radix pass: 8 contiguous chunks build private
// histograms concurrently; a serial pass derives per-chunk cursors;
// a second uc loop scatters each chunk with its private cursors.
const char *rsortUcSrc = R"(
  li r1, 0
  li r2, 8               # chunks
  la r5, rin
  la r6, chist           # 8 x 64 private histograms
body:
  slli r10, r1, 8        # chunk * 64 elems * 4
  add r10, r5, r10
  slli r11, r1, 8        # chunk * 64 buckets * 4
  add r11, r6, r11
  li r12, 0
  li r13, 64
h1:
  lw r14, 0(r10)
  andi r15, r14, 63
  slli r15, r15, 2
  add r15, r11, r15
  lw r16, 0(r15)
  addi r16, r16, 1
  sw r16, 0(r15)
  addi r10, r10, 4
  addi r12, r12, 1
  blt r12, r13, h1
  xloop.uc r1, r2, body
  # serial: per-chunk exclusive cursors, digit-major
  la r7, ccur
  li r15, 0              # running total
  li r16, 0              # digit
  li r17, 64
dig:
  li r18, 0              # chunk
  li r19, 8
chk:
  slli r20, r18, 8
  slli r21, r16, 2
  add r20, r20, r21
  add r22, r6, r20
  lw r23, 0(r22)
  add r24, r7, r20
  sw r15, 0(r24)
  add r15, r15, r23
  addi r18, r18, 1
  blt r18, r19, chk
  addi r16, r16, 1
  blt r16, r17, dig
  # scatter, each chunk with its private cursors
  li r1, 0
  li r2, 8
  la r8, rout
body2:
  slli r10, r1, 8
  add r10, r5, r10
  slli r11, r1, 8
  add r11, r7, r11
  li r12, 0
  li r13, 64
s1:
  lw r14, 0(r10)
  andi r15, r14, 63
  slli r15, r15, 2
  add r15, r11, r15
  lw r16, 0(r15)
  addi r17, r16, 1
  sw r17, 0(r15)
  slli r16, r16, 2
  add r16, r8, r16
  sw r14, 0(r16)
  addi r10, r10, 4
  addi r12, r12, 1
  blt r12, r13, s1
  xloop.uc r1, r2, body2
  halt
  .data
rin:   .space 2048
chist: .space 2048
ccur:  .space 2048
rout:  .space 2048
)";

// -------------------------------------------------------------------------

void
adpcmSetup(MainMemory &mem, const Program &prog);

const u32 imaStep[89] = {
    7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 21, 23, 25, 28, 31, 34, 37,
    41, 45, 50, 55, 60, 66, 73, 80, 88, 97, 107, 118, 130, 143, 157, 173,
    190, 209, 230, 253, 279, 307, 337, 371, 408, 449, 494, 544, 598, 658,
    724, 796, 876, 963, 1060, 1166, 1282, 1411, 1552, 1707, 1878, 2066,
    2272, 2499, 2749, 3024, 3327, 3660, 4026, 4428, 4871, 5358, 5894,
    6484, 7132, 7845, 8630, 9493, 10442, 11487, 12635, 13899, 15289,
    16818, 18500, 20350, 22385, 24623, 27086, 29794, 32767};

const i32 imaIndex[16] = {-1, -1, -1, -1, 2, 4, 6, 8,
                          -1, -1, -1, -1, 2, 4, 6, 8};

void
adpcmSetup(MainMemory &mem, const Program &prog)
{
    Rng rng(0xadc);  // identical dataset to adpcm-or
    const Addr deltas = prog.symbol("deltas");
    const Addr steptab = prog.symbol("steptab");
    const Addr idxtab = prog.symbol("idxtab");
    for (unsigned i = 0; i < 1024; i++)
        mem.writeWord(deltas + 4 * i, rng.nextBelow(16));
    for (unsigned i = 0; i < 89; i++)
        mem.writeWord(steptab + 4 * i, imaStep[i]);
    for (unsigned i = 0; i < 16; i++)
        mem.writeWord(idxtab + 4 * i, static_cast<u32>(imaIndex[i]));
}

void
ditherSetup(MainMemory &mem, const Program &prog)
{
    Rng rng(0xd1f);  // identical dataset to dither-or
    const Addr gray = prog.symbol("gray");
    for (unsigned i = 0; i < 32 * 64; i++)
        mem.writeWord(gray + 4 * i, rng.nextBelow(256));
}

void
shaSetup(MainMemory &mem, const Program &prog)
{
    Rng rng(0x5a1);  // identical dataset to sha-or
    const Addr wsched = prog.symbol("wsched");
    for (unsigned b = 0; b < 4; b++) {
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
}

Kernel
kernelOf(const std::string &name, const std::string &patterns,
         const char *src,
         std::function<void(MainMemory &, const Program &)> setup,
         std::vector<std::pair<std::string, unsigned>> outputs)
{
    Kernel k;
    k.name = name;
    k.suite = "C";
    k.patterns = patterns;
    k.source = src;
    k.setup = std::move(setup);
    k.outputs = std::move(outputs);
    return k;
}

} // namespace

std::vector<Kernel>
makeOptKernels()
{
    std::vector<Kernel> v;

    v.push_back(kernelOf("adpcm-or-opt", "or", adpcmOptSrc, adpcmSetup,
                         {{"pcm", 1024}}));
    v.push_back(kernelOf("dither-or-opt", "or", ditherOptSrc, ditherSetup,
                         {{"bw", 32 * 64}}));
    v.push_back(kernelOf("sha-or-opt", "or", shaOptSrc, shaSetup,
                         {{"digest", 5}}));

    // bfs-uc: level-synchronous transform; dist[] is deterministic.
    {
        Kernel k = kernelOf(
            "bfs-uc", "uc", bfsUcSrc,
            [](MainMemory &mem, const Program &prog) {
                Rng rng(0xbf5);  // identical graph to bfs-uc-db
                std::vector<std::vector<u32>> adj(64);
                for (unsigned vv = 0; vv < 64; vv++) {
                    adj[vv].push_back((vv + 1) % 64);
                    for (unsigned d = 1; d < 3; d++)
                        adj[vv].push_back(rng.nextBelow(64));
                }
                const Addr adjoff = prog.symbol("adjoff");
                const Addr adjlist = prog.symbol("adjlist");
                const Addr dist = prog.symbol("dist");
                u32 off = 0;
                for (unsigned vv = 0; vv < 64; vv++) {
                    mem.writeWord(adjoff + 4 * vv, off);
                    for (const u32 w : adj[vv])
                        mem.writeWord(adjlist + 4 * off++, w);
                }
                mem.writeWord(adjoff + 4 * 64, off);
                for (unsigned vv = 0; vv < 64; vv++)
                    mem.writeWord(dist + 4 * vv, vv == 0 ? 0 : 0x0fffffff);
                mem.writeWord(prog.symbol("wla"), 0);
            },
            {{"dist", 64}});
        v.push_back(std::move(k));
    }

    v.push_back(kernelOf("dither-uc", "uc", ditherUcSrc, ditherSetup,
                         {{"bw", 32 * 64}}));

    v.push_back(kernelOf(
        "kmeans-uc", "uc", kmeansUcSrc,
        [](MainMemory &mem, const Program &prog) {
            Rng rng(0x3ea5);  // identical dataset to kmeans-or
            const Addr ptx = prog.symbol("ptx");
            const Addr pty = prog.symbol("pty");
            const Addr cenx = prog.symbol("cenx");
            const Addr ceny = prog.symbol("ceny");
            for (unsigned i = 0; i < 100; i++) {
                mem.writeWord(ptx + 4 * i, rng.nextBelow(256));
                mem.writeWord(pty + 4 * i, rng.nextBelow(256));
            }
            for (unsigned c = 0; c < 4; c++) {
                mem.writeWord(cenx + 4 * c, 32 + 64 * c);
                mem.writeWord(ceny + 4 * c, 224 - 64 * c);
            }
        },
        {{"member", 100}, {"total", 1}}));

    {
        Kernel k = kernelOf(
            "qsort-uc", "uc", qsortUcSrc,
            [](MainMemory &mem, const Program &prog) {
                Rng rng(0x4507a);  // identical dataset to qsort-uc-db
                const Addr qdata = prog.symbol("qdata");
                for (unsigned i = 0; i < 256; i++)
                    mem.writeWord(qdata + 4 * i, rng.nextBelow(100000));
                mem.writeWord(prog.symbol("wloa"), 0);
                mem.writeWord(prog.symbol("whia"), 255);
            },
            {{"qdata", 256}});
        k.check = [](MainMemory &mem, const Program &prog,
                     std::string &why) {
            const Addr qdata = prog.symbol("qdata");
            for (unsigned i = 1; i < 256; i++) {
                if (mem.readWord(qdata + 4 * i) <
                    mem.readWord(qdata + 4 * (i - 1))) {
                    why = strf("not sorted at ", i);
                    return false;
                }
            }
            return true;
        };
        v.push_back(std::move(k));
    }

    v.push_back(kernelOf(
        "rsort-uc", "uc", rsortUcSrc,
        [](MainMemory &mem, const Program &prog) {
            Rng rng(0x4504);  // identical dataset to rsort-ua
            const Addr rin = prog.symbol("rin");
            for (unsigned i = 0; i < 512; i++)
                mem.writeWord(rin + 4 * i, rng.nextBelow(1 << 16));
        },
        {{"rout", 512}}));

    return v;
}

} // namespace xloops
