# Never halts: cli_xsim_interrupt stops it with SIGINT.
spin:
  addi r1, r1, 1
  j    spin
