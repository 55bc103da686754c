#!/usr/bin/env python
"""Import hygiene guard for ``src/repro`` — stdlib only, no ruff needed.

Two checks over the *module-scope* import graph (function-local imports
are the sanctioned lazy escape hatch and are ignored):

1. **Cycles** — strongly connected components with more than one module.
2. **Layering** — each top-level subpackage has a rank; an import from a
   lower-ranked package into a higher-ranked one is an upward import
   (e.g. ``repro.core`` reaching into ``repro.experiments``).

The expected layer order (low imports high is the violation)::

    exceptions/types/_version (0)
      < obs/utils (1)
      < graph (2) < datasets (3) < core (4)
      < routing/economics/parallel (5)
      < resilience/simulation/serving (6)  # dynamics + query tier
      < experiments (7) < cli (8)

Findings are compared against ``baselines/import-lint.json``: new
findings fail (exit 1), pre-existing baselined ones are reported but
non-blocking, and resolved ones are mentioned so the baseline can be
re-tightened with ``--update``.

Usage::

    python tools/check_imports.py            # lint against the baseline
    python tools/check_imports.py --update   # rewrite the baseline
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"
BASELINE_PATH = REPO_ROOT / "baselines" / "import-lint.json"

# Rank of each top-level member of repro; imports must never go from a
# lower rank to a strictly higher one.  Top-level glue (__init__,
# __main__, cli) sits above everything by design.
LAYER_RANKS = {
    "exceptions": 0,
    "types": 0,
    "_version": 0,
    "obs": 1,
    "utils": 1,
    "graph": 2,
    "datasets": 3,
    "core": 4,
    "routing": 5,
    "economics": 5,
    "parallel": 5,
    "resilience": 6,
    "simulation": 6,
    "serving": 6,
    "experiments": 7,
    "cli": 8,
    "__init__": 9,
    "__main__": 9,
}


def discover_modules() -> dict[str, Path]:
    """Map dotted module names (``repro.core.engine``) to file paths."""
    modules: dict[str, Path] = {}
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        rel = path.relative_to(PACKAGE_ROOT.parent)
        parts = list(rel.with_suffix("").parts)
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def _is_type_checking_guard(node: ast.If) -> bool:
    test = node.test
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def module_scope_imports(path: Path) -> list[str]:
    """Dotted ``repro.*`` names imported at module scope.

    Imports inside function bodies (lazy) and ``if TYPE_CHECKING:``
    blocks (annotation-only) never execute at import time, so they
    cannot create import cycles and are skipped.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    found: list[str] = []

    def visit(body) -> None:
        for node in body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "repro" or alias.name.startswith("repro."):
                        found.append(alias.name)
            elif isinstance(node, ast.ImportFrom):
                if node.level:  # relative import — resolve below
                    base = path.parent
                    for _ in range(node.level - 1):
                        base = base.parent
                    rel = base.relative_to(PACKAGE_ROOT.parent)
                    prefix = ".".join(rel.parts)
                else:
                    prefix = node.module or ""
                if node.level and node.module:
                    prefix = f"{prefix}.{node.module}"
                if prefix == "repro" or prefix.startswith("repro."):
                    for alias in node.names:
                        found.append(f"{prefix}.{alias.name}")
            elif isinstance(node, ast.If):
                if not _is_type_checking_guard(node):
                    visit(node.body)
                    visit(node.orelse)
            elif isinstance(node, (ast.Try, ast.With)):
                for sub in ast.iter_child_nodes(node):
                    if hasattr(sub, "body"):
                        visit(sub.body)
                if isinstance(node, ast.Try):
                    for handler in node.handlers:
                        visit(handler.body)
                    visit(node.orelse)
                    visit(node.finalbody)
            elif isinstance(node, ast.ClassDef):
                visit(node.body)
    visit(tree.body)
    return found


def resolve(name: str, modules: dict[str, Path]) -> str | None:
    """Longest known-module prefix of a dotted import target."""
    parts = name.split(".")
    while parts:
        candidate = ".".join(parts)
        if candidate in modules:
            return candidate
        parts.pop()
    return None


def build_graph(modules: dict[str, Path]) -> dict[str, set[str]]:
    graph: dict[str, set[str]] = {m: set() for m in modules}
    for mod, path in modules.items():
        for target in module_scope_imports(path):
            resolved = resolve(target, modules)
            if resolved and resolved != mod:
                graph[mod].add(resolved)
    return graph


def find_cycles(graph: dict[str, set[str]]) -> list[list[str]]:
    """Multi-module strongly connected components (Tarjan, iterative)."""
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = [0]
    sccs: list[list[str]] = []

    for root in sorted(graph):
        if root in index:
            continue
        work = [(root, iter(sorted(graph[root])))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, children = work[-1]
            advanced = False
            for child in children:
                if child not in index:
                    index[child] = lowlink[child] = counter[0]
                    counter[0] += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(sorted(graph[child]))))
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1:
                    sccs.append(sorted(component))
    return sorted(sccs)


def top_member(module: str) -> str:
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else "__init__"


def find_layer_violations(graph: dict[str, set[str]]) -> list[str]:
    violations = []
    for mod in sorted(graph):
        src_member = top_member(mod)
        src_rank = LAYER_RANKS.get(src_member)
        if src_rank is None:
            continue
        for dep in sorted(graph[mod]):
            dst_member = top_member(dep)
            dst_rank = LAYER_RANKS.get(dst_member)
            if dst_rank is None or dst_member == src_member:
                continue
            if dst_rank > src_rank:
                violations.append(
                    f"{mod} -> {dep} "
                    f"(layer {src_member}={src_rank} must not import "
                    f"{dst_member}={dst_rank})"
                )
    return violations


def collect_findings() -> list[str]:
    modules = discover_modules()
    graph = build_graph(modules)
    findings = [
        "cycle: " + " <-> ".join(component)
        for component in find_cycles(graph)
    ]
    findings.extend(
        "upward-import: " + violation
        for violation in find_layer_violations(graph)
    )
    return sorted(findings)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the committed baseline with the current findings",
    )
    args = parser.parse_args(argv)

    findings = collect_findings()
    if args.update:
        BASELINE_PATH.parent.mkdir(parents=True, exist_ok=True)
        BASELINE_PATH.write_text(json.dumps(findings, indent=2) + "\n")
        print(f"wrote {len(findings)} baselined finding(s) to {BASELINE_PATH}")
        return 0

    baseline: list[str] = []
    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())

    new = [f for f in findings if f not in baseline]
    known = [f for f in findings if f in baseline]
    resolved = [f for f in baseline if f not in findings]

    for finding in known:
        print(f"known (baselined): {finding}")
    for finding in resolved:
        print(f"resolved (re-run with --update to tighten): {finding}")
    for finding in new:
        print(f"NEW: {finding}")
    print(
        f"{len(findings)} finding(s): {len(new)} new, "
        f"{len(known)} baselined, {len(resolved)} resolved"
    )
    return 1 if new else 0


if __name__ == "__main__":
    sys.exit(main())
