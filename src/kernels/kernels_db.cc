/**
 * @file
 * Table II kernels with the dynamic-bound pattern (xloop.uc.db): bfs
 * (label-correcting worklist traversal with amomin relaxation) and
 * qsort (worklist of partitions). Both grow the loop bound from
 * inside iterations via AMO-reserved worklist slots — the paper's
 * Figure 1(e) idiom.
 *
 * The final dist[] (bfs) and the sorted array (qsort) are
 * order-independent, so they are compared against the serial golden
 * image; worklist layouts are schedule-dependent and excluded.
 */

#include <queue>

#include "common/log.h"
#include "common/rng.h"
#include "kernels/kernel.h"

namespace xloops {

namespace {

// --------------------------------------------------------------------- bfs

constexpr unsigned bfsNodes = 64;
constexpr unsigned bfsDegree = 3;

const char *bfsSrc = R"(
  li r1, 0
  li r2, 1               # bound: worklist holds the source
  la r5, wl
  la r6, adjoff
  la r7, adjlist
  la r8, dist
  la r9, tail
body:
  slli r10, r1, 2
  add r10, r5, r10
  lw r11, 0(r10)         # u = wl[i]
  slli r12, r11, 2
  add r13, r6, r12
  lw r14, 0(r13)         # off
  lw r15, 4(r13)         # end
  add r17, r8, r12
  lw r18, 0(r17)
  addi r18, r18, 1       # candidate distance
nbr:
  bge r14, r15, bdone
  slli r19, r14, 2
  add r19, r7, r19
  lw r20, 0(r19)         # v
  slli r21, r20, 2
  add r21, r8, r21
  amomin r22, r18, (r21) # old = min-relax dist[v]
  ble r22, r18, nonext   # no improvement
  li r23, 1
  amoadd r24, r23, (r9)  # slot = tail++
  slli r25, r24, 2
  add r25, r5, r25
  sw r20, 0(r25)         # append v
  addi r2, r24, 1        # raise the bound (LMU takes the max)
nonext:
  addi r14, r14, 1
  j nbr
bdone:
  xloop.uc.db r1, r2, body
  halt
  .data
wl:      .space 16384
adjoff:  .space 260
adjlist: .space 1024
dist:    .space 256
tail:    .word 1
)";

Kernel
bfs()
{
    Kernel k;
    k.name = "bfs-uc-db";
    k.suite = "C";
    k.patterns = "uc,db";
    k.source = bfsSrc;
    k.deterministic = true;
    k.outputs = {{"dist", bfsNodes}};  // worklist layout excluded
    k.setup = [](MainMemory &mem, const Program &prog) {
        Rng rng(0xbf5);
        // Random connected-ish digraph in CSR form: a ring plus
        // random extra edges.
        std::vector<std::vector<u32>> adj(bfsNodes);
        for (unsigned v = 0; v < bfsNodes; v++) {
            adj[v].push_back((v + 1) % bfsNodes);
            for (unsigned d = 1; d < bfsDegree; d++)
                adj[v].push_back(rng.nextBelow(bfsNodes));
        }
        const Addr adjoff = prog.symbol("adjoff");
        const Addr adjlist = prog.symbol("adjlist");
        const Addr dist = prog.symbol("dist");
        u32 off = 0;
        for (unsigned v = 0; v < bfsNodes; v++) {
            mem.writeWord(adjoff + 4 * v, off);
            for (const u32 w : adj[v])
                mem.writeWord(adjlist + 4 * off++, w);
        }
        mem.writeWord(adjoff + 4 * bfsNodes, off);
        for (unsigned v = 0; v < bfsNodes; v++)
            mem.writeWord(dist + 4 * v, v == 0 ? 0 : 0x0fffffff);
        mem.writeWord(prog.symbol("wl"), 0);  // source node
    };
    k.check = [](MainMemory &mem, const Program &prog, std::string &why) {
        // Reference BFS distances.
        const Addr adjoff = prog.symbol("adjoff");
        const Addr adjlist = prog.symbol("adjlist");
        const Addr dist = prog.symbol("dist");
        std::vector<std::vector<u32>> adj(bfsNodes);
        for (unsigned v = 0; v < bfsNodes; v++) {
            const u32 off = mem.readWord(adjoff + 4 * v);
            const u32 end = mem.readWord(adjoff + 4 * (v + 1));
            for (u32 e = off; e < end; e++)
                adj[v].push_back(mem.readWord(adjlist + 4 * e));
        }
        std::vector<i32> ref(bfsNodes, -1);
        std::queue<u32> q;
        ref[0] = 0;
        q.push(0);
        while (!q.empty()) {
            const u32 u = q.front();
            q.pop();
            for (const u32 v : adj[u]) {
                if (ref[v] < 0) {
                    ref[v] = ref[u] + 1;
                    q.push(v);
                }
            }
        }
        for (unsigned v = 0; v < bfsNodes; v++) {
            const u32 d = mem.readWord(dist + 4 * v);
            if (ref[v] >= 0 && d != static_cast<u32>(ref[v])) {
                why = strf("dist[", v, "] = ", d, ", BFS says ", ref[v]);
                return false;
            }
        }
        return true;
    };
    return k;
}

// ------------------------------------------------------------------- qsort

constexpr unsigned qsElems = 256;

const char *qsortSrc = R"(
  li r1, 0
  li r2, 1
  la r5, wlo
  la r6, whi
  la r7, qdata
  la r9, qtail
body:
  slli r10, r1, 2
  add r11, r5, r10
  lw r12, 0(r11)         # lo
  add r11, r6, r10
  lw r13, 0(r11)         # hi (inclusive)
  bge r12, r13, qdone
  # Lomuto partition with pivot = data[hi]
  slli r14, r13, 2
  add r14, r7, r14
  lw r15, 0(r14)         # pivot
  mov r16, r12           # store index
  mov r17, r12           # scan index
ploop:
  bge r17, r13, pdone
  slli r18, r17, 2
  add r18, r7, r18
  lw r19, 0(r18)
  bge r19, r15, pnext
  slli r20, r16, 2
  add r20, r7, r20
  lw r21, 0(r20)
  sw r19, 0(r20)
  sw r21, 0(r18)
  addi r16, r16, 1
pnext:
  addi r17, r17, 1
  j ploop
pdone:
  slli r20, r16, 2
  add r20, r7, r20
  lw r21, 0(r20)
  sw r15, 0(r20)
  sw r21, 0(r14)
  # push [lo, store-1] when it has >= 2 elements
  addi r22, r16, -1
  bge r12, r22, nol
  li r23, 1
  amoadd r24, r23, (r9)
  slli r25, r24, 2
  add r26, r5, r25
  sw r12, 0(r26)
  add r26, r6, r25
  sw r22, 0(r26)
  addi r2, r24, 1
nol:
  # push [store+1, hi] when it has >= 2 elements
  addi r22, r16, 1
  bge r22, r13, qdone
  li r23, 1
  amoadd r24, r23, (r9)
  slli r25, r24, 2
  add r26, r5, r25
  sw r22, 0(r26)
  add r26, r6, r25
  sw r13, 0(r26)
  addi r2, r24, 1
qdone:
  xloop.uc.db r1, r2, body
  halt
  .data
wlo:   .space 2048
whi:   .space 2048
qdata: .space 1024
qtail: .word 1
)";

Kernel
qsort()
{
    Kernel k;
    k.name = "qsort-uc-db";
    k.suite = "C";
    k.patterns = "uc,db";
    k.source = qsortSrc;
    k.deterministic = true;
    k.outputs = {{"qdata", qsElems}};  // sorted array is unique
    k.setup = [](MainMemory &mem, const Program &prog) {
        Rng rng(0x4507a);
        const Addr qdata = prog.symbol("qdata");
        for (unsigned i = 0; i < qsElems; i++)
            mem.writeWord(qdata + 4 * i, rng.nextBelow(100000));
        mem.writeWord(prog.symbol("wlo"), 0);
        mem.writeWord(prog.symbol("whi"), qsElems - 1);
    };
    k.check = [](MainMemory &mem, const Program &prog, std::string &why) {
        const Addr qdata = prog.symbol("qdata");
        for (unsigned i = 1; i < qsElems; i++) {
            if (mem.readWord(qdata + 4 * i) <
                mem.readWord(qdata + 4 * (i - 1))) {
                why = strf("not sorted at ", i);
                return false;
            }
        }
        return true;
    };
    return k;
}

} // namespace

std::vector<Kernel>
makeDbKernels()
{
    return {bfs(), qsort()};
}

} // namespace xloops
