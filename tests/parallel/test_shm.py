"""Shared-memory graph store: attach/detach lifecycle and fidelity."""

import pickle

import numpy as np
import pytest

from repro.exceptions import ReproError
from repro.experiments import sweeps
from repro.parallel.shm import AttachedGraph, SharedGraphStore, attach_graph


@pytest.fixture()
def store(tiny_internet):
    store = SharedGraphStore(tiny_internet)
    yield store
    store.unlink()


class TestLifecycle:
    def test_attach_reconstructs_identical_graph(self, tiny_internet, store):
        with attach_graph(store.handle) as attached:
            graph = attached.graph
            assert graph.num_nodes == tiny_internet.num_nodes
            assert graph.num_edges == tiny_internet.num_edges
            assert graph.digest() == tiny_internet.digest()
            assert np.array_equal(graph.adj.indptr, tiny_internet.adj.indptr)
            assert np.array_equal(graph.adj.indices, tiny_internet.adj.indices)
            assert graph.names == tuple(tiny_internet.names)

    def test_attachment_is_zero_copy(self, tiny_internet, store):
        with attach_graph(store.handle) as attached:
            # The attached arrays are views into the shared segments, not
            # copies of the publisher's arrays.
            assert not np.shares_memory(
                attached.graph.adj.indices, tiny_internet.adj.indices
            )
            base = attached.graph.adj.indices.base
            assert base is not None

    def test_handle_is_picklable(self, store):
        handle = pickle.loads(pickle.dumps(store.handle))
        with attach_graph(handle) as attached:
            assert attached.graph.num_nodes > 0

    def test_close_then_access_raises(self, store):
        attached = attach_graph(store.handle)
        attached.close()
        assert attached.closed
        with pytest.raises(ReproError, match="closed"):
            attached.graph
        attached.close()  # idempotent

    def test_store_handle_after_unlink_raises(self, tiny_internet):
        store = SharedGraphStore(tiny_internet)
        store.unlink()
        with pytest.raises(ReproError, match="closed"):
            store.handle

    def test_context_manager_unlinks(self, tiny_internet):
        with SharedGraphStore(tiny_internet) as store:
            handle = store.handle
        with pytest.raises(FileNotFoundError):
            AttachedGraph(handle)


def _degree_sum(task):
    return int(sweeps.worker_graph().degrees().sum())


def _boom(task):
    raise RuntimeError("worker exploded")


class TestRunGraphTasks:
    @pytest.fixture(autouse=True)
    def _reset_worker_slot(self):
        yield
        sweeps.set_worker_graph(None)

    def test_worker_graph_unset_raises(self):
        sweeps.set_worker_graph(None)
        with pytest.raises(RuntimeError, match="not initialized"):
            sweeps.worker_graph()

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "process"])
    def test_workers_see_the_published_graph(self, tiny_internet, workers):
        expected = int(tiny_internet.degrees().sum())
        result = sweeps.run_graph_tasks(
            tiny_internet, _degree_sum, [0, 1, 2], workers=workers
        )
        assert result.values() == [expected] * 3

    def test_worker_crash_becomes_task_failure(self, tiny_internet):
        result = sweeps.run_graph_tasks(
            tiny_internet,
            _boom,
            [0],
            workers=2,
            capture_errors=True,
        )
        assert not result.ok
        assert result.failures[0].error_type == "RuntimeError"
        assert "worker exploded" in result.failures[0].message

    def test_segments_are_unlinked_after_process_run(self, tiny_internet):
        result = sweeps.run_graph_tasks(
            tiny_internet, _degree_sum, [0], workers=2
        )
        assert result.ok
        # run_graph_tasks publishes via a context manager, so the segments
        # are gone once it returns; re-publishing must not collide.
        with SharedGraphStore(tiny_internet) as store:
            assert store.handle.specs
