/**
 * @file
 * xas — assembler / disassembler driver.
 *
 *   xas program.s              assemble, print a listing
 *   xas -d program.s           assemble, print disassembly only
 *   xas -s program.s           print the symbol table
 *
 * Exit codes: 0 clean, 1 user error (bad flag, missing file, bad
 * assembly).
 */

#include <cstdio>
#include <string>

#include "asm/assembler.h"
#include "common/cli.h"
#include "common/log.h"
#include "common/serialize.h"
#include "isa/disasm.h"

using namespace xloops;

int
main(int argc, char **argv)
{
    bool disasmOnly = false;
    bool symbolsOnly = false;
    std::string path;
    cli::Command cmd{
        "xas",
        "[-d|-s] program.s",
        {
            cli::toggle("-d", "print disassembly only", disasmOnly),
            cli::toggle("-s", "print the symbol table", symbolsOnly),
        }};
    cmd.positional = [&path](const std::string &arg) { path = arg; };

    try {
        cli::parseCommandLine(cmd, argc, argv);
        if (path.empty())
            cli::usageError(cmd, "no input file given");
        const Program prog = assemble(readFile(path));
        if (symbolsOnly) {
            for (const auto &[name, addr] : prog.symbols)
                std::printf("%08x %s\n", addr, name.c_str());
            return 0;
        }
        std::printf("text: %zu instructions at 0x%x\n", prog.text.size(),
                    prog.textBase);
        for (size_t i = 0; i < prog.text.size(); i++) {
            const Addr pc = prog.textBase + static_cast<Addr>(4 * i);
            const Instruction inst = Instruction::decode(prog.text[i]);
            if (disasmOnly)
                std::printf("%08x: %s\n", pc,
                            disassemble(inst, pc).c_str());
            else
                std::printf("%08x: %08x  %s\n", pc, prog.text[i],
                            disassemble(inst, pc).c_str());
        }
        if (!disasmOnly) {
            for (const auto &chunk : prog.data)
                std::printf("data: %zu bytes at 0x%x\n",
                            chunk.bytes.size(), chunk.base);
        }
        return 0;
    } catch (const FatalError &error) {
        std::fprintf(stderr, "%s\n", error.what());
        return 1;
    }
}
