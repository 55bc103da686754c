"""Bench T1 — Table 1: alliance size vs QoS coverage.

Pinned to the ``small`` profile instead of honouring
``REPRO_BENCH_SCALE``: the asserted ladder is a claim about a graph of
paper size.  On the 604-node ``tiny`` profile the 0.19% rung is a
single broker, which covers under 10% of pairs.
"""

from benchmarks.conftest import run_once
from repro.experiments import run_experiment


def test_table1_alliance_coverage(benchmark, small_config):
    result = run_once(benchmark, run_experiment, "table1", small_config)
    print("\n" + result.render())
    ladder = [result.paper_values[k]["measured"] for k in ("0.19%", "1.9%", "6.8%")]
    # Paper: 53.13% / 85.41% / 99.29%.  Shape: strictly increasing ladder,
    # near-total coverage at 6.8%, and the all-IXP row far below it.
    assert ladder[0] < ladder[1] < ladder[2]
    assert ladder[2] > 0.95
    assert 0.3 < ladder[0] < 0.8
    assert result.paper_values["ixp"]["measured"] < ladder[1]
