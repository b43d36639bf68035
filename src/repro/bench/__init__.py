"""Benchmark harness: testbeds, experiment runners, reporting.

One experiment runner exists per figure/table of the paper (the index is
``repro.bench.experiments.EXPERIMENTS``); each builds a testbed, runs the
matching workload on bare PFS and/or COFS, and returns structured results
the reporters print in the paper's layout.
"""

from repro.bench.testbed import Testbed, build_flat_testbed, build_hier_testbed

__all__ = ["Testbed", "build_flat_testbed", "build_hier_testbed"]
