"""EXP-F4 — Fig. 4: create time, pure GPFS vs COFS over GPFS."""

from repro.bench.experiments import run_fig4


def test_fig4(benchmark):
    out = benchmark.pedantic(
        lambda: run_fig4(print_report=True), rounds=1, iterations=1
    )
    r = out["results"]
    sweep = out["files_per_node"]

    for fpn in sweep:
        # Pure GPFS: shared-directory creates collapse with node count.
        assert r[("pfs", 4, fpn)] > 12, fpn
        assert r[("pfs", 8, fpn)] > r[("pfs", 4, fpn)] * 1.2, fpn
        # COFS: creates stay in the low single-digit band (paper: 2-5 ms)
        # and the 4->8 node scaling penalty is eliminated.
        assert r[("cofs", 4, fpn)] < 8, fpn
        assert r[("cofs", 8, fpn)] < r[("cofs", 4, fpn)] * 1.6, fpn
        # Headline: a substantial speedup (paper: 5-10x), growing with N.
        # At 32 files/node COFS's one-time bucket mkdirs are amortized
        # over few creates, so the bar is lower there.
        floor_4n = 2 if fpn <= 32 else 3
        floor_8n = 4 if fpn <= 32 else 5
        assert r[("pfs", 4, fpn)] / r[("cofs", 4, fpn)] > floor_4n, fpn
        assert r[("pfs", 8, fpn)] / r[("cofs", 8, fpn)] > floor_8n, fpn
