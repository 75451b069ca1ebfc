/**
 * @file
 * An assembled xrisc program image: text segment, data segments, and a
 * symbol table. Producible by the assembler or the compiler back end,
 * loadable into a simulated memory.
 */

#ifndef XLOOPS_ASM_PROGRAM_H
#define XLOOPS_ASM_PROGRAM_H

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "isa/instruction.h"

namespace xloops {

class MainMemory;
class JsonWriter;
class JsonValue;
class Program;

/**
 * Densely predecoded text segment: one decoded Instruction per text
 * word, indexed by word address, built once at load. The simulate
 * loops (cpu/run.h, cpu/functional.cc, system/system.cc, the LPSU
 * scan in lpsu/lpsu.cc) fetch through this instead of re-running
 * Instruction::decode() on every dynamic instruction.
 *
 * fetch() has the exact semantics of Program::fetch(): same result
 * for every in-text word, same FatalError for misaligned or
 * out-of-text pcs, and the same decode error for a non-instruction
 * word (undecodable words are detected at build time but only fault
 * when actually fetched, matching the lazy path).
 */
class DecodedProgram
{
  public:
    DecodedProgram() = default;
    explicit DecodedProgram(const Program &prog);

    /** Decoded instruction at @p pc; throws like Program::fetch. */
    const Instruction &
    fetch(Addr pc) const
    {
        const size_t idx = static_cast<size_t>((pc - base) / 4);
        if (pc < base || pc % 4 != 0 || idx >= insts.size())
            badFetch(pc);
        if (!valid[idx])
            badDecode(idx);
        return insts[idx];
    }

    size_t numInsts() const { return insts.size(); }
    Addr textBase() const { return base; }

    /** Nonzero number unique to each built image (copies share it);
     *  an image is immutable once built, so equal serials mean equal
     *  images, even where a later image reuses a freed one's address. */
    u64 serial() const { return serialNum; }

  private:
    [[noreturn]] void badFetch(Addr pc) const;
    [[noreturn]] void badDecode(size_t idx) const;
    static u64 nextSerial();

    u64 serialNum = nextSerial();
    Addr base = 0;
    std::vector<Instruction> insts;
    std::vector<bool> valid;   ///< decodable at build time
    std::vector<u32> words;    ///< raw words (exact error replay)
};

/** Default base address of the text segment. */
constexpr Addr textBaseDefault = 0x1000;

/** Default base address of the data segment. */
constexpr Addr dataBaseDefault = 0x100000;

/** An assembled program. */
class Program
{
  public:
    Addr textBase = textBaseDefault;
    Addr entry = textBaseDefault;

    /** Encoded instruction words, textBase + 4*i for word i. */
    std::vector<u32> text;

    struct DataChunk
    {
        Addr base;
        std::vector<u8> bytes;
    };
    std::vector<DataChunk> data;

    /** Label addresses; found by any string-like key. */
    std::map<std::string, Addr, std::less<>> symbols;

    /** Address of @p name; throws FatalError when undefined. */
    Addr symbol(const std::string &name) const;

    bool hasSymbol(const std::string &name) const
    {
        return symbols.count(name) != 0;
    }

    /** Copy text and data segments into @p memory. */
    void loadInto(MainMemory &memory) const;

    /** Decode the instruction at @p pc. Throws on out-of-text pc. */
    Instruction fetch(Addr pc) const;

    /**
     * The predecoded image — the hot-path alternative to fetch().
     * Built on first use, cached, and shared by copies (the cache is
     * immutable once built). The text segment must not be mutated
     * after the first call. The lazy build is not locked: a Program
     * one thread owns may build it on demand, but a Program that
     * threads share must have it built before it is published. Kernel
     * images (kernels/kernel.h) are shared by every sweep worker and
     * service job that runs their binary, so they build it inside
     * their std::call_once and are never mutated after.
     */
    const DecodedProgram &
    decoded() const
    {
        if (!decodedCache)
            decodedCache = std::make_shared<const DecodedProgram>(*this);
        return *decodedCache;
    }

    /** True when @p pc lies inside the text segment. */
    bool inText(Addr pc) const
    {
        return pc >= textBase && pc < textBase + 4 * text.size();
    }

    /** Number of instructions in the text segment. */
    size_t numInsts() const { return text.size(); }

    /** Stable content hash (capsules verify replay uses the same
     *  image the failing run did). */
    u64 hash() const;

    /** Serialize the complete image (capsule embedding). */
    void saveState(JsonWriter &w) const;

    /** Inverse of saveState. */
    static Program fromJson(const JsonValue &v);

  private:
    mutable std::shared_ptr<const DecodedProgram> decodedCache;
};

} // namespace xloops

#endif // XLOOPS_ASM_PROGRAM_H
