#!/usr/bin/env python3
"""Plugging in real measurement data (CAIDA as-rel + IXP memberships).

The reproduction ships a calibrated synthetic topology, but every
algorithm consumes a plain :class:`~repro.graph.asgraph.ASGraph`, so real
datasets drop in through the parsers in :mod:`repro.graph.io`.  This
example writes a toy dataset in the public CAIDA ``as-rel`` format plus a
PeeringDB-style membership CSV, loads it, and runs the full pipeline —
replace the two paths with real files to reproduce the paper on actual
2014 data.

Run:  python examples/custom_dataset.py
"""

import tempfile
from pathlib import Path

from repro.core import BrokerSelector, MCBGInstance
from repro.graph.io import load_caida_asrel, load_ixp_memberships
from repro.routing import BGPSimulator

#: A miniature AS ecosystem: 2 backbones (100, 200) peering; regionals
#: 10, 20, 30 buying transit; stubs 1..6 behind the regionals; one IXP.
AS_REL_DATA = """\
# <provider-AS>|<customer-AS>|-1   or   <peer-AS>|<peer-AS>|0
100|10|-1
100|20|-1
200|20|-1
200|30|-1
100|200|0
10|1|-1
10|2|-1
20|3|-1
20|4|-1
30|5|-1
30|6|-1
10|20|0
"""

IXP_DATA = """\
# ixp_name,asn
TOY-IX,10
TOY-IX,20
TOY-IX,30
TOY-IX,3
"""


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        asrel_path = Path(tmp) / "as-rel.txt"
        ixp_path = Path(tmp) / "ixp-members.csv"
        asrel_path.write_text(AS_REL_DATA)
        ixp_path.write_text(IXP_DATA)

        memberships = load_ixp_memberships(ixp_path)
        graph = load_caida_asrel(asrel_path, ixp_memberships=memberships)

    print(f"Loaded {graph!r}")
    print(f"  node names: {', '.join(graph.names)}")

    selector = BrokerSelector(graph)
    result = selector.select("maxsg", budget=3)
    names = [graph.name_of(b) for b in result.broker_set]
    print(f"\nMaxSG broker set (k=3): {names}")
    print(f"  {result.summary()}")

    feasible = MCBGInstance(graph, 3).is_feasible_solution(result.broker_set)
    print(f"  MCBG verification (exact): feasible={feasible}")

    print("\nBGP routes towards AS1 (Gao-Rexford policies):")
    sim = BGPSimulator(graph)
    dest = graph.names.index("AS1")
    info = sim.route_to(dest)
    for name in ("AS5", "AS3", "AS200"):
        source = graph.names.index(name)
        path = info.path_to(source)
        rendered = " -> ".join(graph.name_of(v) for v in path) if path else "(none)"
        print(f"  {name:>6}: {rendered}")


if __name__ == "__main__":
    main()
