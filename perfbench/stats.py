"""Arithmetic of the benchmark: percentiles, span self time, failure and
waste ratios, and the ``python -X importtime`` breakdown.

Everything here is pure and stdlib-only so that it can be tested against
synthetic spans and timings (see ``test_stats.py``).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (0 < q < 100), linear interpolation between ranks."""
    if not 0 < q < 100:
        raise ValueError("q must lie strictly between 0 and 100")
    if len(values) < 2:
        raise ValueError("a percentile needs at least two samples")
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def tail_count(values: list[float], q: int) -> int:
    """Number of samples strictly above the q-th percentile."""
    cut = percentile(values, q)
    return sum(1 for v in values if v > cut)


def fail_ratio(attempted: int, raised: int, check_failed: int) -> float:
    """Failed operations over attempted ones; an operation that raised is
    never also counted as a failed check."""
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if raised + check_failed > attempted:
        raise ValueError("more failures than attempts")
    return (raised + check_failed) / attempted


def points_per_root(points: int, roots: int) -> float:
    """Secular-function samples per root returned, the scan solver's waste
    ratio; 0 when nothing was solved."""
    return points / roots if roots else 0.0


@dataclass(frozen=True)
class Span:
    """One wrapped call: ``op`` groups the spans of one operation."""

    id: int
    parent: int | None
    op: int
    name: str
    start: float
    end: float
    failed: bool = False

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval covered by its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: (s.end - s.start) - _covered(children.get(s.id, []), s.start, s.end)
            for s in spans}


def failure_origins(spans: list[Span]) -> set[int]:
    """Ids of failed spans none of whose children failed: where an error arose.

    A failure that propagates through enclosing spans is counted once, at
    the innermost span that raised it.
    """
    failed_child = {s.parent for s in spans if s.failed and s.parent is not None}
    return {s.id for s in spans if s.failed and s.id not in failed_child}


@dataclass
class Tally:
    calls: int = 0
    self_s: float = 0.0
    fail: int = 0


def tally(spans: list[Span], key) -> dict[str, Tally]:
    """Calls, self time and originating failures grouped by ``key(span)``."""
    selfs = self_times(spans)
    origins = failure_origins(spans)
    out: dict[str, Tally] = {}
    for s in spans:
        t = out.setdefault(key(s), Tally())
        t.calls += 1
        t.self_s += selfs[s.id]
        t.fail += s.id in origins
    return out


def parse_importtime(stderr: str) -> list[tuple[str, int, float, float]]:
    """Rows (module, depth, self_s, cumulative_s) of ``python -X importtime`` output."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header line
        name = fields[2].rstrip()
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        rows.append((name.strip(), depth,
                     int(fields[0]) * 1e-6, int(fields[1]) * 1e-6))
    return rows


def import_breakdown(rows: list[tuple[str, int, float, float]]) -> dict[str, float]:
    """Import time of numpy, scipy (with scipy.integrate and scipy.optimize
    split out) and of stringmass's own modules.

    A child module is printed before its parent, one nesting level deeper.
    A package's share is the cumulative time of its lines that are imported
    at top level or directly by a stringmass module, so numpy modules that
    scipy pulls in count towards scipy.
    """
    parents: list[str | None] = [None] * len(rows)
    open_children: dict[int, list[int]] = {}
    for i, (name, depth, _, _) in enumerate(rows):
        for j in open_children.pop(depth + 1, []):
            parents[j] = name
        open_children.setdefault(depth, []).append(i)

    def top(pkg: str) -> str:
        return pkg.split(".", 1)[0]

    def direct_cumulative(pkg: str) -> float:
        return sum(cum for (name, _, _, cum), parent in zip(rows, parents)
                   if top(name) == pkg
                   and (parent is None or top(parent) == "stringmass"))

    def first_cumulative(module: str) -> float:
        return next((cum for name, _, _, cum in rows if name == module), 0.0)

    total = next((cum for name, depth, _, cum in rows
                  if name == "stringmass" and depth == 0), 0.0)
    return {
        "import.numpy_s": direct_cumulative("numpy"),
        "import.scipy_s": direct_cumulative("scipy"),
        "import.scipy.integrate_s": first_cumulative("scipy.integrate"),
        "import.scipy.optimize_s": first_cumulative("scipy.optimize"),
        "import.stringmass_s": sum(s for name, _, s, _ in rows
                                   if top(name) == "stringmass"),
        "import.total_s": total,
    }
