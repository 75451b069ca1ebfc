/**
 * @file
 * Extension study: data-dependent-exit loops (xloop.om.de), the
 * control pattern the paper's conclusion lists as future work.
 * Measures a linear-search loop whose trip count is unknown at entry,
 * sweeping how deep into the array the hit lies: speculative lanes
 * overrun the exit and get cancelled, so the win grows with the
 * search length while staying architecturally exact.
 */

#include <cstdio>

#include "asm/assembler.h"
#include "system/system.h"

using namespace xloops;

namespace {

const char *searchSrc = R"(
  li r1, 0
  li r2, 0
  la r5, hay
  li r6, 123456
  la r7, foundidx
body:
  slli r10, r1, 2
  add r10, r5, r10
  lw r11, 0(r10)
  bne r11, r6, miss
  li r2, 1
  sw r1, 0(r7)
miss:
  xloop.om.de r1, r2, body
  halt
  .data
hay:      .space 4096
foundidx: .word -1
)";

} // namespace

int
main()
{
    const Program prog = assemble(searchSrc);
    std::printf("Extension: data-dependent-exit search loop "
                "(io+x vs io traditional)\n\n");
    std::printf("%8s %12s %12s %9s %10s\n", "hit at", "trad cyc",
                "spec cyc", "speedup", "cancelled");
    for (const unsigned hit : {15u, 63u, 255u, 1023u}) {
        auto setup = [&](MainMemory &mem) {
            for (unsigned i = 0; i < 1024; i++)
                mem.writeWord(prog.symbol("hay") + 4 * i, i);
            mem.writeWord(prog.symbol("hay") + 4 * hit, 123456);
        };
        XloopsSystem trad(configs::io());
        trad.loadProgram(prog);
        setup(trad.memory());
        const Cycle t = trad.run(prog, ExecMode::Traditional).cycles;

        XloopsSystem spec(configs::ioX());
        spec.loadProgram(prog);
        setup(spec.memory());
        const Cycle s = spec.run(prog, ExecMode::Specialized).cycles;
        const bool ok =
            spec.memory().readWord(prog.symbol("foundidx")) == hit;
        std::printf("%8u %12llu %12llu %8.2fx %10llu %s\n", hit,
                    static_cast<unsigned long long>(t),
                    static_cast<unsigned long long>(s),
                    static_cast<double>(t) / static_cast<double>(s),
                    static_cast<unsigned long long>(
                        spec.lpsuModel().stats().get(
                            Stat::CancelledIterations)),
                    ok ? "" : "WRONG RESULT");
    }
    std::printf("\nSpeculative iterations beyond the exit are cancelled "
                "with their stores still\nbuffered in the LSQs, so the "
                "result is exactly the serial one.\n");
    return 0;
}
