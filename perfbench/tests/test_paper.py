from bench import paper
from bench.layers import Outcome


def test_a_roster_cut_at_the_deadline_weighs_each_cell_once():
    # Cell 0 ran in three rosters, cell 1 in two; cell 2 failed every time.
    latencies = [[1.0, 1.0, 4.0], [2.0, 2.0], []]
    assert paper.roster_s(latencies) == 4.0
    assert paper.median_cell([[1.0, 1.0, 5.0], [2.0, 2.0, 2.0], [4.0]]) == 2.0


def test_measure_finishes_the_first_roster_then_stops_at_the_deadline(tiny_stack):
    graph = tiny_stack.graph
    cells = paper.roster(graph.num_nodes)
    out = Outcome()
    results, latencies, _ = paper.measure(graph, cells, seed=1, out=out,
                                          seconds=1e-9)
    assert out.attempted == len(results) == len(cells)
    assert sorted(c for c, _, _ in results) == list(range(len(cells)))
    assert all(len(times) == 1 for times in latencies)
