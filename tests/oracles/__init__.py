"""Reference implementations the differential tests compare against.

Each module keeps the plain per-vertex (or per-hop dense) loop that a
vectorized kernel in ``src/`` replaced.  Tests require bit-identical
results between the two; nothing in ``src/`` imports from here.
``policies`` holds the dense policy loops behind Figs. 5b/5c and the
Python valley-free product BFS, which the BGP tests also use as their
reachability oracle.  ``repair`` holds the tight-only affected-hub rule
that the label repairer's exact local test replaced; the repairer's
swept hubs must be a subset of it.
"""
