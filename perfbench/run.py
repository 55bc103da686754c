"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve-tcp --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its
``src``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer split with ``--trace 1``.
The lines before it give provenance, the measured input properties,
every metric with its unit, the error rate and the untraced tail.  A
JSON record of the run goes to ``.perfbench-out/``; a traced run also
writes its spans there.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys

#: Workload name -> (module, entry point, scale).
WORKLOADS = {
    "serve-tcp": ("bench.serving", "run_serve_tcp", "small"),
    "churn": ("bench.serving", "run_churn", "small"),
    "paper": ("bench.paper", "run", "small"),
    "admission": ("bench.admission", "run", "tiny"),
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    from bench import env

    malloc = env.pin_allocator()
    try:
        env.activate_source()
    except env.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from bench.layers import END_TO_END, PER_LAYER

    module, entry, scale = WORKLOADS[args.workload]
    run = getattr(importlib.import_module(module), entry)
    trace = bool(args.trace)
    provenance = env.provenance(args.workload, args.seed, scale, trace, malloc)
    out = run(args.seed, args.seconds, trace)

    units = PER_LAYER if trace else END_TO_END
    missing = [name for name in units if name not in out.metrics]
    if missing:
        out.fail(f"metrics not measured: {missing}")
    metrics = {
        name: {"value": float(out.metrics.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
    error_rate = out.failed / out.attempted if out.attempted else 1.0
    record = {
        "provenance": provenance,
        "traffic": out.traffic,
        "metrics": metrics,
        "error_rate": error_rate,
        "notes": out.notes,
        "failures": out.failures[:20],
    }
    env.OUT.mkdir(parents=True, exist_ok=True)
    path = env.OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print("provenance " + json.dumps(provenance, sort_keys=True))
    print("traffic " + json.dumps(out.traffic, sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:<42} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'error_rate':<42} {error_rate:>16.6g} share "
          f"({out.failed} of {out.attempted} operations)")
    for key, value in sorted(out.notes.items()):
        print(f"  {key}: {json.dumps(value, sort_keys=True)}")
    for message in out.failures[:20]:
        print(f"FAILED {message}")
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": max(1, out.attempted),
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
