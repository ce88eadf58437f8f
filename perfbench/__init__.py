"""perfbench: the repo's one two-clock, layer-attributed benchmark.

Four closed-loop workloads drive the simulated DIESEL cluster through
its public API and report every figure on one of two clocks: the *sim*
clock (what the modelled cluster would do; exact for a fixed seed) and
the *host* clock (what our Python costs; CPU time normalised by a
co-measured reference loop).  See
``perfbench/README.md`` for the metric dictionary and how to read a run.
"""
