"""Full-scale (52k-node) end-to-end checks, gated behind REPRO_TEST_FULL=1.

These tests certify the paper-sized ``full`` profile *at that scale* —
table1's largest alliance must reach near-total coverage, and a
source-sampled fig2b-style connectivity curve on the bit-parallel kernel
must equal the dense-product reference.  Everything here is
``slow``-marked and skips unless the session opted in, so the tier-1
suite stays fast.
"""

import numpy as np
import pytest

from repro.core.connectivity import connectivity_curve, saturated_connectivity
from repro.core.maxsg import maxsg
from repro.experiments import run_experiment
from repro.experiments.config import ExperimentConfig
from tests.oracles.connectivity import curve_fractions

pytestmark = pytest.mark.slow

#: Source sample making full-scale connectivity curves tractable while
#: still spanning many BFS batches (and the 64-bit word boundary).
SAMPLED_SOURCES = 1024


@pytest.fixture(scope="module")
def full_brokers(full_internet):
    """One full-scale MaxSG run at the paper's 1.9% budget, shared."""
    budget = max(1, round(0.019 * full_internet.num_nodes))
    return maxsg(full_internet, budget)


class TestFullProfileTable1:
    def test_table1_coverage_tracks_paper(self, full_internet):
        config = ExperimentConfig(scale="full", seed=1)
        result = run_experiment("table1", config)
        # The largest alliance must reach near-total coverage, like the
        # paper's 6.8% row (99.29%); synthetic topology, loose tolerance.
        measured = result.paper_values["6.8%"]["measured"]
        assert measured > 0.9


class TestFullProfileConnectivity:
    def test_sampled_curves_bit_identical(self, full_internet, full_brokers):
        kwargs = dict(max_hops=8, num_sources=SAMPLED_SOURCES, seed=1)
        curve = connectivity_curve(full_internet, full_brokers, **kwargs)
        assert np.array_equal(
            curve.fractions,
            curve_fractions(full_internet, full_brokers, **kwargs),
        )
        assert curve.saturated == saturated_connectivity(
            full_internet, full_brokers
        )
        assert curve.num_sources == SAMPLED_SOURCES
