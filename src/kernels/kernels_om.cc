/**
 * @file
 * Table II kernels dominated by memory-ordered patterns: dynprog
 * (distance-1/2 DP recurrence), knn (shared best-list insertion),
 * ksack-sm/ksack-lg (unbounded knapsack whose violation rate is
 * data-dependent: small weights conflict inside the lane window,
 * large weights do not), stencil (in-place Gauss-Seidel sweep, orm),
 * and mm (PBBS greedy maximal matching, orm: a k counter CIR plus
 * irregular vertex updates). om/orm guarantees serial-equivalent
 * memory, so all outputs compare against the golden image.
 */

#include "common/log.h"
#include "common/rng.h"
#include "kernels/kernel.h"

namespace xloops {

namespace {

// ----------------------------------------------------------------- dynprog

constexpr unsigned dynN = 256;

const char *dynprogSrc = R"(
  li r1, 2
  li r2, 256
  la r5, dp
  la r6, ca
  la r7, cb
body:
  slli r10, r1, 2
  add r11, r5, r10       # &dp[i]
  lw r12, -4(r11)        # dp[i-1]
  lw r13, -8(r11)        # dp[i-2]
  add r14, r6, r10
  lw r14, 0(r14)
  add r12, r12, r14      # dp[i-1] + ca[i]
  add r15, r7, r10
  lw r15, 0(r15)
  add r13, r13, r15      # dp[i-2] + cb[i]
  blt r12, r13, dmin
  mov r12, r13
dmin:
  sw r12, 0(r11)
  xloop.om r1, r2, body
  halt
  .data
dp: .space 1024
ca: .space 1024
cb: .space 1024
)";

Kernel
dynprog()
{
    Kernel k;
    k.name = "dynprog-om";
    k.suite = "Po";
    k.patterns = "om";
    k.source = dynprogSrc;
    k.setup = [](MainMemory &mem, const Program &prog) {
        Rng rng(0xd9);
        const Addr dp = prog.symbol("dp");
        const Addr ca = prog.symbol("ca");
        const Addr cb = prog.symbol("cb");
        mem.writeWord(dp, 0);
        mem.writeWord(dp + 4, 1);
        for (unsigned i = 0; i < dynN; i++) {
            mem.writeWord(ca + 4 * i, rng.nextBelow(50));
            mem.writeWord(cb + 4 * i, rng.nextBelow(50));
        }
    };
    k.outputs = {{"dp", dynN}};
    return k;
}

// -------------------------------------------------------------------- knn

constexpr unsigned knnPoints = 128;

const char *knnSrc = R"(
  li r1, 0
  li r2, 128
  la r5, knx
  la r6, kny
  la r9, best
  li r20, 77             # query x
  li r21, 140            # query y
body:
  slli r10, r1, 2
  add r11, r5, r10
  lw r12, 0(r11)         # x
  add r11, r6, r10
  lw r13, 0(r11)         # y
  sub r12, r12, r20
  sub r13, r13, r21
  mul r12, r12, r12
  mul r13, r13, r13
  add r12, r12, r13      # d
  lw r14, 12(r9)         # best[3] (largest of the 4 kept)
  bge r12, r14, knext
  # shift-and-insert into the sorted best[0..3]
  lw r15, 8(r9)
  bge r12, r15, ins3
  sw r15, 12(r9)
  lw r16, 4(r9)
  bge r12, r16, ins2
  sw r16, 8(r9)
  lw r17, 0(r9)
  bge r12, r17, ins1
  sw r17, 4(r9)
  sw r12, 0(r9)
  j knext
ins1:
  sw r12, 4(r9)
  j knext
ins2:
  sw r12, 8(r9)
  j knext
ins3:
  sw r12, 12(r9)
knext:
  xloop.om r1, r2, body
  halt
  .data
knx:  .space 512
kny:  .space 512
best: .space 16
)";

Kernel
knn()
{
    Kernel k;
    k.name = "knn-om";
    k.suite = "P";
    k.patterns = "om,uc";
    k.source = knnSrc;
    k.setup = [](MainMemory &mem, const Program &prog) {
        Rng rng(0x42e21);
        const Addr knx = prog.symbol("knx");
        const Addr kny = prog.symbol("kny");
        const Addr best = prog.symbol("best");
        for (unsigned i = 0; i < knnPoints; i++) {
            mem.writeWord(knx + 4 * i, rng.nextBelow(256));
            mem.writeWord(kny + 4 * i, rng.nextBelow(256));
        }
        for (unsigned j = 0; j < 4; j++)
            mem.writeWord(best + 4 * j, 0x7fffffff);
    };
    k.outputs = {{"best", 4}};
    return k;
}

// ------------------------------------------------------------------- ksack

constexpr unsigned ksackCap = 256;

/** Unbounded knapsack over capacities; weights/values are hoisted
 *  into registers so the LSQ sees only the dp[] traffic. */
const char *ksackSrc = R"(
  li r1, 1
  li r2, 256
  la r5, dp
  la r6, wv
  lw r20, 0(r6)          # w0..w3
  lw r21, 4(r6)
  lw r22, 8(r6)
  lw r23, 12(r6)
  lw r24, 16(r6)         # v0..v3
  lw r25, 20(r6)
  lw r26, 24(r6)
  lw r27, 28(r6)
body:
  slli r10, r1, 2
  add r11, r5, r10       # &dp[c]
  li r12, 0              # best
  blt r1, r20, k1
  sub r13, r1, r20
  slli r13, r13, 2
  add r13, r5, r13
  lw r13, 0(r13)
  add r13, r13, r24
  ble r13, r12, k1
  mov r12, r13
k1:
  blt r1, r21, k2
  sub r13, r1, r21
  slli r13, r13, 2
  add r13, r5, r13
  lw r13, 0(r13)
  add r13, r13, r25
  ble r13, r12, k2
  mov r12, r13
k2:
  blt r1, r22, k3
  sub r13, r1, r22
  slli r13, r13, 2
  add r13, r5, r13
  lw r13, 0(r13)
  add r13, r13, r26
  ble r13, r12, k3
  mov r12, r13
k3:
  blt r1, r23, k4
  sub r13, r1, r23
  slli r13, r13, 2
  add r13, r5, r13
  lw r13, 0(r13)
  add r13, r13, r27
  ble r13, r12, k4
  mov r12, r13
k4:
  sw r12, 0(r11)
  xloop.om r1, r2, body
  halt
  .data
dp: .space 1028
wv: .space 32
)";

Kernel
ksack(bool small_weights)
{
    Kernel k;
    k.name = small_weights ? "ksack-sm-om" : "ksack-lg-om";
    k.suite = "C";
    k.patterns = "om";
    k.source = ksackSrc;
    k.setup = [small_weights](MainMemory &mem, const Program &prog) {
        Rng rng(small_weights ? 0x515 : 0x1a6);
        const Addr wv = prog.symbol("wv");
        for (unsigned j = 0; j < 4; j++) {
            const u32 w = small_weights ? 1 + rng.nextBelow(7)
                                        : 16 + rng.nextBelow(48);
            mem.writeWord(wv + 4 * j, w);
            mem.writeWord(wv + 16 + 4 * j, 1 + rng.nextBelow(30));
        }
    };
    k.outputs = {{"dp", ksackCap}};
    return k;
}

// ----------------------------------------------------------------- stencil

constexpr unsigned stRows = 16;
constexpr unsigned stCols = 32;

const char *stencilSrc = R"(
  li r1, 1
  li r2, 15              # rows 1..14
  la r5, grid
  li r3, 0               # checksum (CIR -> orm)
body:
  slli r10, r1, 7        # row * 32 * 4
  add r11, r5, r10       # &grid[i][0]
  li r12, 1              # j
  li r13, 31
cols:
  slli r14, r12, 2
  add r15, r11, r14      # &g[i][j]
  lw r16, 0(r15)
  lw r17, -4(r15)
  add r16, r16, r17
  lw r17, 4(r15)
  add r16, r16, r17
  addi r18, r15, -128
  lw r17, 0(r18)         # g[i-1][j]
  add r16, r16, r17
  addi r18, r15, 128
  lw r17, 0(r18)         # g[i+1][j]
  add r16, r16, r17
  li r17, 5
  div r16, r16, r17
  sw r16, 0(r15)
  add r3, r3, r16        # checksum CIR
  addi r12, r12, 1
  blt r12, r13, cols
  xloop.orm r1, r2, body
  la r19, stsum
  sw r3, 0(r19)
  halt
  .data
grid:  .space 2048
stsum: .word 0
)";

Kernel
stencil()
{
    Kernel k;
    k.name = "stencil-om";
    k.suite = "P";
    k.patterns = "orm,uc";
    k.source = stencilSrc;
    k.setup = [](MainMemory &mem, const Program &prog) {
        Rng rng(0x57e);
        const Addr grid = prog.symbol("grid");
        for (unsigned i = 0; i < stRows * stCols; i++)
            mem.writeWord(grid + 4 * i, rng.nextBelow(1000));
    };
    k.outputs = {{"grid", stRows * stCols}, {"stsum", 1}};
    return k;
}

// --------------------------------------------------------------------- mm

constexpr unsigned mmVertices = 64;
constexpr unsigned mmEdges = 128;

const char *mmSrc = R"(
  li r1, 0
  li r2, 128
  la r5, ev
  la r6, eu
  la r7, vert
  la r8, mout
  li r3, 0               # k (CIR)
body:
  slli r10, r1, 2
  add r11, r5, r10
  lw r12, 0(r11)         # v
  add r11, r6, r10
  lw r13, 0(r11)         # u
  slli r14, r12, 2
  add r14, r7, r14
  lw r15, 0(r14)         # vert[v]
  bge r15, r0, mnext
  slli r16, r13, 2
  add r16, r7, r16
  lw r17, 0(r16)         # vert[u]
  bge r17, r0, mnext
  sw r13, 0(r14)         # match v-u
  sw r12, 0(r16)
  slli r18, r3, 2
  add r18, r8, r18
  sw r1, 0(r18)          # out[k] = edge index
  addi r3, r3, 1
mnext:
  xloop.orm r1, r2, body
  la r19, mk
  sw r3, 0(r19)
  halt
  .data
ev:   .space 512
eu:   .space 512
vert: .space 256
mout: .space 512
mk:   .word 0
)";

Kernel
mm()
{
    Kernel k;
    k.name = "mm-orm";
    k.suite = "P";
    k.patterns = "orm,uc";
    k.source = mmSrc;
    k.setup = [](MainMemory &mem, const Program &prog) {
        Rng rng(0x333e);
        const Addr ev = prog.symbol("ev");
        const Addr eu = prog.symbol("eu");
        const Addr vert = prog.symbol("vert");
        for (unsigned e = 0; e < mmEdges; e++) {
            const u32 v = rng.nextBelow(mmVertices);
            u32 u = rng.nextBelow(mmVertices);
            if (u == v)
                u = (u + 1) % mmVertices;
            mem.writeWord(ev + 4 * e, v);
            mem.writeWord(eu + 4 * e, u);
        }
        for (unsigned v = 0; v < mmVertices; v++)
            mem.writeWord(vert + 4 * v, static_cast<u32>(-1));
    };
    k.outputs = {{"vert", mmVertices}, {"mout", mmEdges}, {"mk", 1}};
    // Semantic double-check: the matching must be valid and maximal.
    k.check = [](MainMemory &mem, const Program &prog,
                 std::string &why) {
        const Addr ev = prog.symbol("ev");
        const Addr eu = prog.symbol("eu");
        const Addr vertAt = prog.symbol("vert");
        std::vector<i32> vert(mmVertices);
        for (unsigned v = 0; v < mmVertices; v++)
            vert[v] = static_cast<i32>(mem.readWord(vertAt + 4 * v));
        for (unsigned v = 0; v < mmVertices; v++) {
            if (vert[v] < 0)
                continue;
            if (vert[static_cast<unsigned>(vert[v])] !=
                static_cast<i32>(v)) {
                why = "matching is not symmetric";
                return false;
            }
        }
        for (unsigned e = 0; e < mmEdges; e++) {
            const u32 v = mem.readWord(ev + 4 * e);
            const u32 u = mem.readWord(eu + 4 * e);
            if (vert[v] < 0 && vert[u] < 0) {
                why = "matching is not maximal";
                return false;
            }
        }
        return true;
    };
    return k;
}

} // namespace

std::vector<Kernel>
makeOmKernels()
{
    return {dynprog(), knn(), ksack(true), ksack(false), stencil(), mm()};
}

} // namespace xloops
