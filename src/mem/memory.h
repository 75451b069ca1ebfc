/**
 * @file
 * Functional memory: a sparse paged byte-addressable 32-bit space,
 * plus the abstract port through which all simulated engines access
 * memory (so the LPSU can interpose per-lane load-store queues).
 *
 * The memory maintains an *incremental content digest*: an XOR over a
 * per-byte hash of (address, value), updated on every write, where a
 * zero byte contributes nothing (so untouched and zero-filled pages
 * are indistinguishable, as they are architecturally). Two memories
 * hold identical content iff their digests match, which lets the
 * differential lockstep checker compare full images in O(1) at every
 * sync point and fall back to a byte walk only to name the first
 * mismatching address after a divergence fires.
 */

#ifndef XLOOPS_MEM_MEMORY_H
#define XLOOPS_MEM_MEMORY_H

#include <array>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/log.h"
#include "common/rng.h"
#include "common/types.h"
#include "isa/opcodes.h"

namespace xloops {

class JsonWriter;
class JsonValue;

/**
 * Abstract functional memory interface. Sizes are 1, 2, or 4 bytes;
 * values are zero-extended on read (sign extension is the executor's
 * job). AMOs are read-modify-write and return the old value.
 */
class MemIface
{
  public:
    virtual ~MemIface() = default;
    virtual u32 read(Addr addr, unsigned size) = 0;
    virtual void write(Addr addr, unsigned size, u32 value) = 0;
    virtual u32 amo(Op op, Addr addr, u32 operand) = 0;
};

/** Sparse paged main memory. */
class MainMemory final : public MemIface
{
  public:
    // read/write are defined inline (with a direct-mapped
    // page-translation cache in front of the sparse page map) so
    // callers holding a concrete MainMemory — the threaded
    // interpreter's hot loop, the GPP commit loop, the LPSU lanes —
    // devirtualize and inline the whole access. Callers going through
    // MemIface still dispatch virtually to the same code.
    u32
    read(Addr addr, unsigned size) override
    {
        checkAccess(addr, size);
        const u8 *page = lookupPage(addr);
        const Addr off = addr & pageMask;
        u32 value = 0;
        for (unsigned i = 0; i < size; i++)
            value |= static_cast<u32>(page[off + i]) << (8 * i);
        return value;
    }

    void
    write(Addr addr, unsigned size, u32 value) override
    {
        checkAccess(addr, size);
        u8 *page = lookupPage(addr);
        const Addr off = addr & pageMask;
        for (unsigned i = 0; i < size; i++) {
            const u8 nb = static_cast<u8>(value >> (8 * i));
            u8 &ob = page[off + i];
            if (ob != nb) {
                dig ^= byteContrib(addr + i, ob) ^
                       byteContrib(addr + i, nb);
                ob = nb;
            }
        }
    }

    u32 amo(Op op, Addr addr, u32 operand) override;

    /** Word helpers used by loaders, kernels, and tests. */
    u32 readWord(Addr addr) { return read(addr, 4); }
    void writeWord(Addr addr, u32 value) { write(addr, 4, value); }
    float readFloat(Addr addr);
    void writeFloat(Addr addr, float value);

    /** Copy a byte blob into memory at @p base. Whole pages of zeros
     *  bound for untouched pages allocate nothing. */
    void loadBytes(Addr base, const std::vector<u8> &bytes);

    /** Storage pages allocated so far. */
    size_t pageCount() const { return pages.size(); }

    /** Apply the AMO combine function (shared with LSQ drains). */
    static u32 amoCompute(Op op, u32 old, u32 operand);

    /**
     * Incremental content digest: equal iff the byte images are equal
     * (up to hash collision; 64-bit, adversary-free). O(1) to read.
     */
    u64 digest() const { return dig; }

    /** Deep-copy @p other's pages and digest (lockstep shadow init). */
    void copyFrom(const MainMemory &other);

    /**
     * First byte address at which @p a and @p b differ (missing pages
     * compare as zero), or ~Addr{0} when the images are identical.
     * O(touched memory); used only to report a divergence.
     */
    static Addr firstDifference(const MainMemory &a, const MainMemory &b);

    /**
     * Emit {"digest": "0x..", "pages": {"0x..": "hex..", ..}}: one
     * entry per 64 KiB wire unit (key addr >> 16), holding the unit's
     * bytes up to its last nonzero one; all-zero units are omitted.
     */
    void saveState(JsonWriter &w) const;

    /** Restore pages and recompute the digest from scratch. Throws
     *  FatalError on a unit key above 0xffff or a repeated unit. */
    void loadState(const JsonValue &v);

  private:
    /** Storage page: a kernel's text and its few KiB of data
     *  allocate, zero and copy only the 4 KiB pages they touch. */
    static constexpr unsigned pageBits = 12;
    static constexpr Addr pageSize = 1u << pageBits;
    static constexpr Addr pageMask = pageSize - 1;
    /** Checkpoint wire unit (xloops-ckpt-1): 16 storage pages. */
    static constexpr unsigned unitBits = 16;
    static constexpr Addr unitSize = 1u << unitBits;
    /** Translation-cache slots, indexed by the page number's low four
     *  bits, so a kernel's arrays on nearby pages keep a slot each. */
    static constexpr unsigned translationSlots = 16;

    /** Digest contribution of byte @p b at @p addr (zero bytes: 0). */
    static u64
    byteContrib(Addr addr, u8 b)
    {
        return b == 0 ? 0
                      : mix64((static_cast<u64>(addr) << 8) | b);
    }

    static void
    checkAccess(Addr addr, unsigned size)
    {
        if (size != 1 && size != 2 && size != 4)
            panic(strf("bad access size ", size));
        if (addr % size != 0)
            fatal(strf("misaligned ", size, "-byte access at 0x",
                       std::hex, addr));
    }

    /** One translation: a page number (~0 never matches, as page
     *  numbers fit in 20 bits) and its page array. */
    struct Translation
    {
        u32 pageNum = ~u32{0};
        u8 *page = nullptr;
    };

    /** Direct-mapped translation cache over the sparse map. Page
     *  arrays are pointer-stable across map growth; the cache is
     *  dropped whenever the map itself is rebuilt (copyFrom /
     *  loadState). */
    u8 *
    lookupPage(Addr addr)
    {
        const u32 pageNum = addr >> pageBits;
        Translation &t = translations[pageNum & (translationSlots - 1)];
        if (t.pageNum != pageNum) {
            t.page = pageFor(pageNum);
            t.pageNum = pageNum;
        }
        return t.page;
    }

    /** Page @p pageNum, allocated zero-filled on first touch. */
    u8 *pageFor(u32 pageNum);

    std::unordered_map<u32, std::unique_ptr<u8[]>> pages;
    u64 dig = 0;
    std::array<Translation, translationSlots> translations{};
};

} // namespace xloops

#endif // XLOOPS_MEM_MEMORY_H
