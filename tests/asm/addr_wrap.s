# Effective addresses rs1 + imm wrap mod 2^32 (docs/ISA.md), in both
# directions across the signed boundary, without signed overflow.
  lui  r1, 262143
  ori  r1, r1, 8191     # r1 = 0x7fffffff
  lui  r4, 262144       # r4 = 0x80000000
  addi r3, r0, 77
  sw   r3, 1(r1)        # 0x7fffffff + 1 wraps up to 0x80000000
  lw   r2, 0(r4)
  bne  r2, r3, fail
  sw   r3, -4(r4)       # 0x80000000 - 4 wraps down to 0x7ffffffc
  lw   r2, -3(r1)
  bne  r2, r3, fail
  halt
fail:
  lw   r0, 2(r0)        # misaligned: a wrong result exits nonzero
