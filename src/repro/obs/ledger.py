"""Append-only, JSONL-backed run ledger — the longitudinal memory.

The tracer and metrics registry observe a single process and evaporate
at exit; the ledger is what persists.  One :class:`RunRecord` per
experiment / sweep / benchmark run captures everything a later session
needs to judge the run: git revision, graph digest, algorithm, params,
the coverage numbers (Table-1 style fractions), the run's counters,
and wall-clock histograms with exact quantiles.

Design points:

* **Atomic appends** — each record is serialized to one canonical JSON
  line and written with a single ``os.write`` on an ``O_APPEND`` file
  descriptor, so concurrent appends from process-pool workers never
  interleave partial lines (POSIX appends of one ``write`` each).
* **Schema-versioned** — every record carries
  :data:`LEDGER_SCHEMA_VERSION`; readers skip records from the future.
* **Content-addressed** — like the PR 2 result-cache layout, each
  record's ``record_id`` is the SHA-256 of its canonical body, so a
  record is self-verifying and export/import round-trips are
  bit-identical (:meth:`Ledger.export`).
* **Crash-tolerant reads** — a torn final line (power loss mid-write on
  a non-POSIX filesystem) is skipped, not fatal, and every skipped line
  is recorded with its line number and reason (:attr:`Ledger.skipped`)
  so a regression gate can refuse to pass over it.

The default ledger lives at ``.repro/ledger.jsonl``; override with the
``REPRO_LEDGER`` environment variable or an explicit path.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro._version import __version__
from repro.exceptions import ReproError

#: Bump when the record layout changes incompatibly.
LEDGER_SCHEMA_VERSION = 1

#: Environment variable naming the default ledger file.
LEDGER_ENV = "REPRO_LEDGER"

#: Fallback ledger location relative to the working directory.
DEFAULT_LEDGER_PATH = Path(".repro") / "ledger.jsonl"


def default_ledger_path() -> Path:
    """``$REPRO_LEDGER`` if set, else ``.repro/ledger.jsonl``."""
    env = os.environ.get(LEDGER_ENV)
    return Path(env) if env else DEFAULT_LEDGER_PATH


def git_revision(cwd: str | Path | None = None) -> str:
    """The current short git revision, or ``"unknown"`` outside a repo."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=str(cwd) if cwd is not None else None,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = proc.stdout.strip()
    return rev if proc.returncode == 0 and rev else "unknown"


def _canonical(value):
    """JSON-safe canonical form (numpy coerced, keys stringified)."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_canonical(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def summarize_observation(seconds: float) -> dict:
    """A single wall-clock observation as a full histogram summary.

    Shape-compatible with :meth:`repro.obs.metrics.Histogram.summary`,
    so one-shot experiment timings and session-accumulated kernel
    histograms live under the same ``timings`` schema in a record.
    """
    seconds = float(seconds)
    return {
        "count": 1,
        "total": seconds,
        "min": seconds,
        "max": seconds,
        "mean": seconds,
        "p50": seconds,
        "p90": seconds,
        "p99": seconds,
    }


@dataclass(frozen=True)
class RunRecord:
    """One run of one experiment/benchmark, as persisted in the ledger.

    ``coverage`` maps labels (e.g. the paper's ``"0.19%"``/``"1.9%"``/
    ``"6.8%"`` budgets) to measured fractions — the deterministic values
    the regression gate compares exactly.  ``timings`` maps metric names
    to histogram summaries (see :func:`summarize_observation`).
    ``result_digest`` is the SHA-256 of the rendered result table, an
    exact-match tripwire for *any* output drift.
    """

    experiment: str
    kind: str = "experiment"  # experiment | sweep | benchmark | session | serving | slo
    scale: str = ""
    seed: int = 0
    algorithm: str = ""
    git_rev: str = ""
    graph_digest: str = ""
    params: dict = field(default_factory=dict)
    coverage: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    result_digest: str = ""
    ts: float = 0.0
    version: str = __version__
    schema: int = LEDGER_SCHEMA_VERSION
    record_id: str = ""

    def body(self) -> dict:
        """Canonical record content, excluding the content address."""
        data = dataclasses.asdict(self)
        data.pop("record_id")
        return _canonical(data)

    def with_id(self) -> "RunRecord":
        """A copy whose ``record_id`` is the SHA-256 of the body."""
        material = json.dumps(
            self.body(), sort_keys=True, separators=(",", ":")
        )
        digest = hashlib.sha256(material.encode()).hexdigest()
        return dataclasses.replace(self, record_id=digest)

    def to_line(self) -> str:
        """The canonical single-line JSON serialization."""
        data = dict(self.body())
        data["record_id"] = self.record_id
        return json.dumps(data, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    def group_key(self) -> tuple:
        """What makes two records comparable for regression purposes."""
        return (self.kind, self.experiment, self.scale, self.seed,
                self.graph_digest)


def write_atomic(path: str | Path, text: str) -> None:
    """Replace ``path`` with ``text`` atomically (temp file + ``os.replace``).

    The text goes to a temp file beside ``path`` that is renamed over it,
    so a killed writer leaves the old file or the new one, never a torn
    one; on failure the temp file is removed.  Parent directories are
    created as needed.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=str(target.parent), prefix=target.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def now() -> float:
    """Wall-clock timestamp for fresh records (unix seconds)."""
    return round(time.time(), 6)


class Ledger:
    """An append-only JSONL file of :class:`RunRecord` lines."""

    def __init__(self, path: str | Path | None = None) -> None:
        self._path = Path(path) if path is not None else default_ledger_path()
        #: ``(line number, reason)`` of each line the latest read skipped.
        self.skipped: list[tuple[int, str]] = []

    @property
    def path(self) -> Path:
        return self._path

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Ledger({str(self._path)!r})"

    # ------------------------------------------------------------------
    # Append
    # ------------------------------------------------------------------
    def append(self, record: RunRecord) -> RunRecord:
        """Durably append one record; returns it with its content id.

        The serialized line goes down in a single ``write`` on an
        ``O_APPEND`` descriptor — concurrent appenders (e.g. process-pool
        workers) each land a whole line, never an interleaved fragment.
        """
        if not record.record_id:
            record = record.with_id()
        payload = (record.to_line() + "\n").encode()
        self._path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(
            self._path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        try:
            os.write(fd, payload)
        finally:
            os.close(fd)
        return record

    # ------------------------------------------------------------------
    # Read
    # ------------------------------------------------------------------
    def read_dicts(self, *, strict: bool = False) -> list[dict]:
        """Every parseable record line, in file order.

        Corrupt lines (torn writes, foreign content, a non-integer
        ``schema``) and records with a newer schema are skipped and
        listed in :attr:`skipped` unless ``strict`` is set, in which case
        the first one raises :class:`~repro.exceptions.ReproError`.
        """
        self.skipped = []
        if not self._path.exists():
            return []
        out: list[dict] = []
        for lineno, line in enumerate(
            self._path.read_text().splitlines(), start=1
        ):
            line = line.strip()
            if not line:
                continue
            reason = None
            try:
                data = json.loads(line)
            except json.JSONDecodeError as exc:
                reason = f"not JSON ({exc})"
            else:
                if not isinstance(data, dict):
                    reason = "not a JSON object"
                elif not _is_int(schema := data.get("schema", 0)):
                    reason = f"schema {schema!r} is not an integer"
                elif schema > LEDGER_SCHEMA_VERSION:
                    reason = (
                        f"schema {schema} is newer than {LEDGER_SCHEMA_VERSION}"
                    )
            if reason is None:
                out.append(data)
                continue
            if strict:
                raise ReproError(
                    f"corrupt ledger line {lineno} in {self._path}: {reason}"
                )
            self.skipped.append((lineno, reason))
        return out

    def records(self, *, strict: bool = False) -> list[RunRecord]:
        return [RunRecord.from_dict(d) for d in self.read_dicts(strict=strict)]

    def __len__(self) -> int:
        return len(self.read_dicts())

    # ------------------------------------------------------------------
    # Export / import
    # ------------------------------------------------------------------
    def export(self, path: str | Path) -> int:
        """Rewrite the ledger canonically to ``path`` (atomic).

        Because serialization is canonical, exporting an export is
        byte-identical — the round-trip contract the durability tests
        pin.  Returns the number of records written.
        """
        records = self.records()
        write_atomic(path, "".join(r.to_line() + "\n" for r in records))
        return len(records)

    def import_file(self, path: str | Path) -> int:
        """Append every record from another ledger not already present.

        Presence is judged by ``record_id`` (the content address), so
        importing the same file twice is a no-op.  Returns how many
        records were appended.
        """
        seen = {r.record_id for r in self.records()}
        added = 0
        for record in Ledger(path).records():
            if not record.record_id:
                record = record.with_id()
            if record.record_id in seen:
                continue
            self.append(record)
            seen.add(record.record_id)
            added += 1
        return added
