/**
 * @file
 * Table II kernels with the unordered-atomic (ua) pattern: btree
 * (concurrent BST build with amoswap child claims), hsort (shared
 * binary-heap inserts), huffman (dual histogram update, paper
 * Fig. 1d), and rsort (radix histogram + atomic scatter). The
 * hardware currently executes ua with the om mechanisms (paper
 * Section II-D), so results are serial-equivalent; semantic checkers
 * validate the data-structure invariants as well.
 */

#include <algorithm>
#include <functional>

#include "common/log.h"
#include "common/rng.h"
#include "kernels/kernel.h"

namespace xloops {

namespace {

// ------------------------------------------------------------------- btree

constexpr unsigned btKeys = 256;

const char *btreeSrc = R"(
  li r1, 1               # node 0 is the root
  li r2, 256
  la r6, nodes           # {key, left, right, pad} x N
body:
  slli r10, r1, 4
  add r10, r6, r10
  lw r11, 0(r10)         # key of the node being inserted
  li r12, 0              # cur = root
walk:
  slli r13, r12, 4
  add r13, r6, r13
  lw r14, 0(r13)         # cur key
  addi r15, r13, 4       # assume left child
  blt r11, r14, haveoff
  addi r15, r13, 8       # right child
haveoff:
  lw r16, 0(r15)
  bnez r16, descend
  amoswap r17, r1, (r15) # try to claim the empty slot
  beqz r17, done
  mov r12, r17           # lost the race: descend into winner
  j walk
descend:
  mov r12, r16
  j walk
done:
  xloop.ua r1, r2, body
  halt
  .data
nodes: .space 4096
)";

Kernel
btree()
{
    Kernel k;
    k.name = "btree-ua";
    k.suite = "C";
    k.patterns = "ua,uc";
    k.source = btreeSrc;
    k.setup = [](MainMemory &mem, const Program &prog) {
        Rng rng(0xb7e);
        const Addr nodes = prog.symbol("nodes");
        for (unsigned i = 0; i < btKeys; i++) {
            mem.writeWord(nodes + 16 * i, rng.nextBelow(100000));
            mem.writeWord(nodes + 16 * i + 4, 0);
            mem.writeWord(nodes + 16 * i + 8, 0);
        }
    };
    k.outputs = {{"nodes", 4 * btKeys}};
    k.check = [](MainMemory &mem, const Program &prog, std::string &why) {
        // Every node must be reachable and obey the BST invariant.
        const Addr base = prog.symbol("nodes");
        unsigned visited = 0;
        std::function<bool(u32, i64, i64)> dfs =
            [&](u32 n, i64 lo, i64 hi) {
                const i64 key = mem.readWord(base + 16 * n);
                if (key < lo || key > hi)
                    return false;
                visited++;
                const u32 l = mem.readWord(base + 16 * n + 4);
                const u32 r = mem.readWord(base + 16 * n + 8);
                if (l && !dfs(l, lo, key))
                    return false;
                if (r && !dfs(r, key, hi))
                    return false;
                return true;
            };
        if (!dfs(0, -1, i64{1} << 40)) {
            why = "BST ordering invariant violated";
            return false;
        }
        if (visited != btKeys) {
            why = strf("tree has ", visited, " reachable nodes, want ",
                       btKeys);
            return false;
        }
        return true;
    };
    return k;
}

// ------------------------------------------------------------------- hsort

constexpr unsigned hsElems = 256;

const char *hsortSrc = R"(
  li r1, 0
  li r2, 256
  la r5, hin
  la r6, heap
  la r7, hn
body:
  slli r10, r1, 2
  add r10, r5, r10
  lw r11, 0(r10)         # v
  li r12, 1
  amoadd r13, r12, (r7)  # slot = hn++
  slli r14, r13, 2
  add r14, r6, r14
  sw r11, 0(r14)         # heap[slot] = v
sift:
  beqz r13, sdone
  addi r15, r13, -1
  srli r15, r15, 1       # parent index
  slli r16, r15, 2
  add r16, r6, r16
  lw r17, 0(r16)
  lw r18, 0(r14)
  ble r17, r18, sdone    # heap property holds
  sw r18, 0(r16)         # swap up
  sw r17, 0(r14)
  mov r13, r15
  mov r14, r16
  j sift
sdone:
  xloop.ua r1, r2, body
  halt
  .data
hin:  .space 1024
heap: .space 1024
hn:   .word 0
)";

Kernel
hsort()
{
    Kernel k;
    k.name = "hsort-ua";
    k.suite = "C";
    k.patterns = "ua";
    k.source = hsortSrc;
    k.setup = [](MainMemory &mem, const Program &prog) {
        Rng rng(0x4507);
        const Addr hin = prog.symbol("hin");
        for (unsigned i = 0; i < hsElems; i++)
            mem.writeWord(hin + 4 * i, rng.nextBelow(100000));
    };
    k.outputs = {{"heap", hsElems}, {"hn", 1}};
    k.check = [](MainMemory &mem, const Program &prog, std::string &why) {
        const Addr heap = prog.symbol("heap");
        if (mem.readWord(prog.symbol("hn")) != hsElems) {
            why = "heap count wrong";
            return false;
        }
        for (unsigned i = 1; i < hsElems; i++) {
            if (mem.readWord(heap + 4 * ((i - 1) / 2)) >
                mem.readWord(heap + 4 * i)) {
                why = strf("min-heap property violated at ", i);
                return false;
            }
        }
        return true;
    };
    return k;
}

// ----------------------------------------------------------------- huffman

constexpr unsigned hfSymbols = 2048;

const char *huffmanSrc = R"(
  li r1, 0
  li r2, 2048
  la r5, syms
  la r6, hist
  la r7, histhi
body:
  slli r10, r1, 2
  add r10, r5, r10
  lw r11, 0(r10)         # sym (0..255)
  li r12, 1
  slli r13, r11, 2
  add r13, r6, r13
  amoadd r14, r12, (r13) # hist[sym]++
  srli r15, r11, 4
  slli r15, r15, 2
  add r15, r7, r15
  amoadd r14, r12, (r15) # histhi[sym>>4]++
  xloop.ua r1, r2, body
  halt
  .data
syms:   .space 8192
hist:   .space 1024
histhi: .space 64
)";

Kernel
huffman()
{
    Kernel k;
    k.name = "huffman-ua";
    k.suite = "C";
    k.patterns = "ua";
    k.source = huffmanSrc;
    k.setup = [](MainMemory &mem, const Program &prog) {
        Rng rng(0x8f);
        const Addr syms = prog.symbol("syms");
        for (unsigned i = 0; i < hfSymbols; i++) {
            // Skewed distribution (entropy-coding flavour).
            const u32 r = rng.nextBelow(256);
            const u32 sym = r < 128 ? r % 16 : r;
            mem.writeWord(syms + 4 * i, sym);
        }
    };
    k.outputs = {{"hist", 256}, {"histhi", 16}};
    k.check = [](MainMemory &mem, const Program &prog, std::string &why) {
        const Addr hist = prog.symbol("hist");
        u64 total = 0;
        for (unsigned i = 0; i < 256; i++)
            total += mem.readWord(hist + 4 * i);
        if (total != hfSymbols) {
            why = strf("histogram total ", total);
            return false;
        }
        return true;
    };
    return k;
}

// ------------------------------------------------------------------- rsort

constexpr unsigned rsElems = 512;
constexpr unsigned rsBuckets = 64;

const char *rsortSrc = R"(
  li r1, 0
  li r2, 512
  la r5, rin
  la r6, rhist
body:
  slli r10, r1, 2
  add r10, r5, r10
  lw r11, 0(r10)
  andi r12, r11, 63      # 6-bit digit
  slli r12, r12, 2
  add r12, r6, r12
  li r13, 1
  amoadd r14, r13, (r12) # digit histogram
  xloop.ua r1, r2, body
  # serial exclusive prefix sum into cursors
  la r7, rcur
  li r15, 0              # running total
  li r16, 0
  li r17, 64
psum:
  slli r18, r16, 2
  add r19, r6, r18
  lw r20, 0(r19)
  add r21, r7, r18
  sw r15, 0(r21)
  add r15, r15, r20
  addi r16, r16, 1
  blt r16, r17, psum
  # scatter pass: stable because ua commits in iteration order
  li r1, 0
  li r2, 512
  la r8, rout
body2:
  slli r10, r1, 2
  add r10, r5, r10
  lw r11, 0(r10)
  andi r12, r11, 63
  slli r12, r12, 2
  add r12, r7, r12
  li r13, 1
  amoadd r14, r13, (r12) # pos = cursor[digit]++
  slli r14, r14, 2
  add r14, r8, r14
  sw r11, 0(r14)
  xloop.ua r1, r2, body2
  halt
  .data
rin:   .space 2048
rhist: .space 256
rcur:  .space 256
rout:  .space 2048
)";

Kernel
rsort()
{
    Kernel k;
    k.name = "rsort-ua";
    k.suite = "C";
    k.patterns = "ua";
    k.source = rsortSrc;
    k.setup = [](MainMemory &mem, const Program &prog) {
        Rng rng(0x4504);
        const Addr rin = prog.symbol("rin");
        for (unsigned i = 0; i < rsElems; i++)
            mem.writeWord(rin + 4 * i, rng.nextBelow(1 << 16));
    };
    k.outputs = {{"rout", rsElems}, {"rhist", rsBuckets}};
    k.check = [](MainMemory &mem, const Program &prog, std::string &why) {
        // Output must be a permutation ordered by the 6-bit digit.
        const Addr rout = prog.symbol("rout");
        u32 prevDigit = 0;
        for (unsigned i = 0; i < rsElems; i++) {
            const u32 d = mem.readWord(rout + 4 * i) & 63;
            if (d < prevDigit) {
                why = strf("digit order violated at ", i);
                return false;
            }
            prevDigit = d;
        }
        return true;
    };
    return k;
}

} // namespace

std::vector<Kernel>
makeUaKernels()
{
    return {btree(), hsort(), huffman(), rsort()};
}

} // namespace xloops
