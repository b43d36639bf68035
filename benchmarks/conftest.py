"""Benchmark-suite configuration.

Every benchmark regenerates one figure/table of the paper (the experiment
index is ``repro.bench.experiments.EXPERIMENTS``) at its default grid and
asserts its qualitative shape: who wins, roughly by how much, where the
cliffs fall.  Simulated experiments are deterministic, so each benchmark
runs a single round (`pedantic(rounds=1)`); the pytest-benchmark timing
shows the wall cost of regenerating the figure.

Set REPRO_FULL=1 to run the paper's complete parameter grids.
"""
