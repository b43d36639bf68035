"""EXP-T1 — Table I: impact of COFS on data transfers, by use pattern."""

from repro.bench.experiments import run_table1
from repro.units import MB


def test_table1(benchmark):
    out = benchmark.pedantic(
        lambda: run_table1(print_report=True), rounds=1, iterations=1
    )
    cells = out["cells"]
    small = 256 * MB   # -> 32-64 MB per node at 4-8 nodes: cache-resident

    def w(target, pattern, nodes, agg, system):
        return cells[(target, pattern, nodes, agg, system)][0]

    def r(target, pattern, nodes, agg, system):
        return cells[(target, pattern, nodes, agg, system)][1]

    # Row 1 (seq read, separate files): COFS comparable except for small
    # per-node files, where GPFS serves from the local cache and COFS pays
    # an important slowdown.
    assert r("separate", "seq", 8, small, "pfs") > \
        r("separate", "seq", 8, small, "cofs") * 1.5
    big = out["sizes"][-1]
    assert r("separate", "seq", 1, big, "cofs") > \
        r("separate", "seq", 1, big, "pfs") * 0.85

    # Row 3 (seq write, separate files): COFS drawback on a single node...
    assert w("separate", "seq", 1, big, "cofs") < \
        w("separate", "seq", 1, big, "pfs")
    # ...but the relative COFS/GPFS ratio improves as nodes come in (the
    # paper saw an outright reversal; our 64 MB page pool absorbs much of
    # the open stagger at these sizes, so the trend is softer).
    ratio_4n = w("separate", "seq", 4, small, "cofs") / \
        w("separate", "seq", 4, small, "pfs")
    ratio_8n = w("separate", "seq", 8, small, "cofs") / \
        w("separate", "seq", 8, small, "pfs")
    ratio_1n = w("separate", "seq", 1, small, "cofs") / \
        w("separate", "seq", 1, small, "pfs")
    assert ratio_4n > ratio_1n
    assert ratio_8n > 0.85

    # Shared-file rows: comparable throughout (within ~25%).
    for pattern in ("seq", "random"):
        for nodes in (4, 8):
            gpfs_w = w("shared", pattern, nodes, big, "pfs")
            cofs_w = w("shared", pattern, nodes, big, "cofs")
            assert cofs_w > gpfs_w * 0.7, (pattern, nodes)
            gpfs_r = r("shared", pattern, nodes, big, "pfs")
            cofs_r = r("shared", pattern, nodes, big, "cofs")
            assert cofs_r > gpfs_r * 0.6, (pattern, nodes)
