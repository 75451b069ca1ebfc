# INT_MIN / -1 and INT_MIN % -1 follow RISC-V M (docs/ISA.md): the
# quotient is INT_MIN and the remainder 0, where host division traps.
  lui  r1, 262144       # r1 = INT_MIN
  addi r2, r0, -1
  div  r3, r1, r2
  rem  r4, r1, r2
  bne  r3, r1, fail
  bne  r4, r0, fail
  halt
fail:
  lw   r0, 2(r0)        # misaligned: a wrong result exits nonzero
