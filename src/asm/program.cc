#include "asm/program.h"

#include <atomic>

#include "common/json.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "mem/memory.h"

namespace xloops {

DecodedProgram::DecodedProgram(const Program &prog)
    : base(prog.textBase), words(prog.text)
{
    insts.reserve(words.size());
    valid.reserve(words.size());
    for (const u32 word : words) {
        try {
            insts.push_back(Instruction::decode(word));
            valid.push_back(true);
        } catch (const FatalError &) {
            // Preserve lazy-fetch semantics: a non-instruction word
            // only faults if the program actually reaches it.
            insts.push_back(Instruction{});
            valid.push_back(false);
        }
    }
}

u64
DecodedProgram::nextSerial()
{
    static std::atomic<u64> last{0};
    return last.fetch_add(1, std::memory_order_relaxed) + 1;
}

void
DecodedProgram::badFetch(Addr pc) const
{
    fatal(strf("instruction fetch outside text segment: 0x", std::hex,
               pc));
}

void
DecodedProgram::badDecode(size_t idx) const
{
    // Re-run the raw decode so the error message is byte-identical to
    // the one Program::fetch would have produced.
    Instruction::decode(words[idx]);
    panic("undecodable word decoded on the second attempt");
}

Addr
Program::symbol(const std::string &name) const
{
    const auto it = symbols.find(name);
    if (it == symbols.end())
        fatal(strf("undefined symbol '", name, "'"));
    return it->second;
}

void
Program::loadInto(MainMemory &memory) const
{
    for (size_t i = 0; i < text.size(); i++)
        memory.writeWord(textBase + static_cast<Addr>(4 * i), text[i]);
    for (const auto &chunk : data)
        memory.loadBytes(chunk.base, chunk.bytes);
}

Instruction
Program::fetch(Addr pc) const
{
    if (!inText(pc) || pc % 4 != 0)
        fatal(strf("instruction fetch outside text segment: 0x", std::hex,
                   pc));
    return Instruction::decode(text[(pc - textBase) / 4]);
}

u64
Program::hash() const
{
    u64 h = mix64(textBase) ^ mix64(entry + 1);
    for (const u32 word : text)
        h = mix64(h ^ word);
    for (const auto &chunk : data) {
        h = mix64(h ^ chunk.base);
        for (const u8 b : chunk.bytes)
            h = mix64(h ^ b);
    }
    return h;
}

void
Program::saveState(JsonWriter &w) const
{
    w.field("text_base", static_cast<u64>(textBase));
    w.field("entry", static_cast<u64>(entry));
    std::vector<u8> bytes;
    bytes.reserve(text.size() * 4);
    for (const u32 word : text)
        for (unsigned i = 0; i < 4; i++)
            bytes.push_back(static_cast<u8>(word >> (8 * i)));
    w.field("text", hexEncode(bytes.data(), bytes.size()));
    w.key("data").beginArray();
    for (const auto &chunk : data) {
        w.beginObject();
        w.field("base", static_cast<u64>(chunk.base));
        w.field("bytes", hexEncode(chunk.bytes.data(), chunk.bytes.size()));
        w.endObject();
    }
    w.endArray();
    w.key("symbols").beginObject();
    for (const auto &[name, addr] : symbols)
        w.field(name, static_cast<u64>(addr));
    w.endObject();
}

Program
Program::fromJson(const JsonValue &v)
{
    Program p;
    p.textBase = static_cast<Addr>(v.at("text_base").asU64());
    p.entry = static_cast<Addr>(v.at("entry").asU64());
    const std::vector<u8> bytes = hexDecode(v.at("text").asString());
    if (bytes.size() % 4 != 0)
        fatal("capsule text segment is not word-aligned");
    p.text.reserve(bytes.size() / 4);
    for (size_t i = 0; i < bytes.size(); i += 4) {
        p.text.push_back(u32{bytes[i]} | (u32{bytes[i + 1]} << 8) |
                         (u32{bytes[i + 2]} << 16) |
                         (u32{bytes[i + 3]} << 24));
    }
    for (const JsonValue &cv : v.at("data").array()) {
        DataChunk chunk;
        chunk.base = static_cast<Addr>(cv.at("base").asU64());
        chunk.bytes = hexDecode(cv.at("bytes").asString());
        p.data.push_back(std::move(chunk));
    }
    for (const auto &[name, addr] : v.at("symbols").members())
        p.symbols[name] = static_cast<Addr>(addr.asU64());
    return p;
}

} // namespace xloops
