"""End-to-end benchmark of the MPFCI reproduction: six workloads, each
timed untraced from outside the program, checked against an oracle, and
optionally rerun with span wrappers for a per-layer split.  See README.md.
"""
