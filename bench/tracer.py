"""Span tracer for the benchmark's traced pass.

The tracer wraps public functions of ``opendicke`` from outside the package,
at the module attributes through which they are called, so the package
sources stay untouched. Layer boundaries become spans (name, start, end,
parent) kept in memory; hot leaves (scalar and array zeta, ``gamma_of``,
``derive_phase``) are aggregated into a call count and a total, charged to
the span that was open when they ran. ``Tracer.installed()`` restores every
wrapped attribute in ``finally``, also when the traced code raises.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

# Percentiles a tail may be reported at; the tail is the highest one that
# leaves at least TAIL_BEYOND samples above it.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)
TAIL_BEYOND = 10

# Every per-layer metric of a traced run, with its unit, in report order.
LAYER_UNITS = {
    "eigen.solve.count": "count",
    "eigen.solve.p50_ms": "ms",
    "eigen.solve.tail_ms": "ms",
    "eigen.solve.failed": "count",
    "eigen.zeta_calls_per_solve": "count",
    "eigen.label_s": "s",
    "matrices.zeta_scalar.calls": "count",
    "matrices.zeta_scalar.total_s": "s",
    "matrices.zeta_scalar.mean_us": "us",
    "matrices.zeta_array.calls": "count",
    "matrices.zeta_array.points": "count",
    "matrices.zeta_array.total_s": "s",
    "matrices.zeta_array.ns_per_point": "ns",
    "model.gamma_of.calls": "count",
    "model.derive_phase.calls": "count",
    "scattering.sweep_spectrum.self_s": "s",
    "scattering.find_minima_s": "s",
    "scattering.lamb_shift_s": "s",
    "scattering.s_matrix.mean_us": "us",
    "scattering.to_csv_s": "s",
    "scattering.format_mb_per_s": "MB/s",
    "scattering.to_json_s": "s",
    "squeezing.two_mode_variance.mean_us": "us",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_frac": "ratio",
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    leaf_s: float = 0.0  # time of aggregated leaves that ran directly under this span
    leaf_calls: dict[str, int] = field(default_factory=dict)


def tail_percentile(n: int) -> float | None:
    """Highest percentile of TAIL_LADDER with at least TAIL_BEYOND of n
    samples beyond it, or None when even the median leaves fewer."""
    best = None
    for q in TAIL_LADDER:
        if round(n * (100.0 - q) / 100.0, 6) >= TAIL_BEYOND:
            best = q
    return best


def tail_value(samples) -> tuple[float | None, float]:
    """(percentile, value) of the tail rule; value 0.0 when there is no tail."""
    q = tail_percentile(len(samples))
    if q is None:
        return None, 0.0
    return q, float(np.percentile(np.asarray(samples, dtype=float), q))


def self_time(span: Span, children: list[Span]) -> float:
    """Duration of span minus the part of its interval covered by its
    direct child spans (overlaps merged, clipped to the span) and by the
    aggregated leaves charged to it."""
    covered = 0.0
    lo = hi = None
    for c in sorted(children, key=lambda c: c.start):
        a, b = max(c.start, span.start), min(c.end, span.end)
        if b <= a:
            continue
        if hi is None or a > hi:
            if hi is not None:
                covered += hi - lo
            lo, hi = a, b
        else:
            hi = max(hi, b)
    if hi is not None:
        covered += hi - lo
    return max(0.0, span.end - span.start - covered - span.leaf_s)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.leaves: dict[str, list[float]] = {}  # name -> [calls, total_s, points]
        self.counts: dict[str, int] = {}
        self.failed: dict[str, int] = {}

    # -- wrappers ---------------------------------------------------------

    def span(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(Span(name, clock(), parent=stack[-1] if stack else None))
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.failed[name] = self.failed.get(name, 0) + 1
                raise
            finally:
                stack.pop()
                spans[idx].end = clock()

        return wrapper

    def zeta_leaf(self, fn):
        """Aggregate zeta calls as matrices.zeta_scalar or matrices.zeta_array
        by the type of the frequency argument."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(system, omega, *args, **kwargs):
            t0 = clock()
            try:
                return fn(system, omega, *args, **kwargs)
            finally:
                dt = clock() - t0
                if isinstance(omega, np.ndarray):
                    name, points = "matrices.zeta_array", omega.size
                else:
                    name, points = "matrices.zeta_scalar", 1
                agg = self.leaves.setdefault(name, [0, 0.0, 0])
                agg[0] += 1
                agg[1] += dt
                agg[2] += points
                if stack:
                    top = spans[stack[-1]]
                    top.leaf_s += dt
                    top.leaf_calls[name] = top.leaf_calls.get(name, 0) + 1

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------

    def plan(self):
        """(owner, attribute, wrapper factory) for every traced boundary."""
        from opendicke import cli, eigen, matrices, scattering, squeezing

        def span(name):
            return lambda fn: self.span(name, fn)

        def count(name):
            return lambda fn: self.counter(name, fn)

        grid = scattering.SpectrumGrid
        return [
            (cli, "main", span("cli.main")),
            (cli, "open_eigenfrequencies", span("eigen.solve")),
            (cli, "sweep_eigenfrequencies", span("eigen.label")),
            (cli, "sweep_spectrum", span("scattering.sweep_spectrum")),
            (scattering, "sweep_spectrum", span("scattering.sweep_spectrum")),
            (scattering, "find_minima", span("scattering.find_minima")),
            (scattering, "lamb_shift", span("scattering.lamb_shift")),
            (scattering, "s_matrix", span("scattering.s_matrix")),
            (squeezing, "s_matrix", span("scattering.s_matrix")),
            (squeezing, "two_mode_variance", span("squeezing.two_mode_variance")),
            (grid, "to_csv", span("scattering.to_csv")),
            (grid, "to_json", span("scattering.to_json")),
            (eigen, "zeta_from_system", self.zeta_leaf),
            (scattering, "zeta_from_system", self.zeta_leaf),
            (matrices, "gamma_of", count("model.gamma_of")),
            (scattering, "gamma_of", count("model.gamma_of")),
            (squeezing, "gamma_of", count("model.gamma_of")),
            (cli, "derive_phase", count("model.derive_phase")),
            (eigen, "derive_phase", count("model.derive_phase")),
            (scattering, "derive_phase", count("model.derive_phase")),
        ]

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, wrap in self.plan():
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, wrap(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_seconds(self, name: str) -> float:
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        return sum(
            self_time(s, children.get(i, [])) for i, s in enumerate(self.spans) if s.name == name
        )

    def total_seconds(self, name: str) -> float:
        return sum(s.end - s.start for s in self.named(name))

    def mean_us(self, name: str) -> float:
        spans = self.named(name)
        return 1e6 * self.total_seconds(name) / len(spans) if spans else 0.0

    def layer_metrics(self, output_bytes: int) -> dict[str, float]:
        """Per-layer metrics of one traced pass (without trace.overhead_frac,
        which needs the untraced twin of the pass). Layers the pass never
        reached read 0."""
        solves = self.named("eigen.solve")
        solve_ms = [1e3 * (s.end - s.start) for s in solves]
        solve_zeta = sum(s.leaf_calls.get("matrices.zeta_scalar", 0) for s in solves)
        zs_calls, zs_total, _ = self.leaves.get("matrices.zeta_scalar", [0, 0.0, 0])
        za_calls, za_total, za_points = self.leaves.get("matrices.zeta_array", [0, 0.0, 0])
        fmt_s = self.total_seconds("scattering.to_csv") + self.total_seconds("scattering.to_json")
        return {
            "eigen.solve.count": len(solves),
            "eigen.solve.p50_ms": statistics.median(solve_ms) if solve_ms else 0.0,
            "eigen.solve.tail_ms": tail_value(solve_ms)[1],
            "eigen.solve.failed": self.failed.get("eigen.solve", 0),
            "eigen.zeta_calls_per_solve": solve_zeta / len(solves) if solves else 0.0,
            "eigen.label_s": self.total_seconds("eigen.label"),
            "matrices.zeta_scalar.calls": zs_calls,
            "matrices.zeta_scalar.total_s": zs_total,
            "matrices.zeta_scalar.mean_us": 1e6 * zs_total / zs_calls if zs_calls else 0.0,
            "matrices.zeta_array.calls": za_calls,
            "matrices.zeta_array.points": za_points,
            "matrices.zeta_array.total_s": za_total,
            "matrices.zeta_array.ns_per_point": 1e9 * za_total / za_points if za_points else 0.0,
            "model.gamma_of.calls": self.counts.get("model.gamma_of", 0),
            "model.derive_phase.calls": self.counts.get("model.derive_phase", 0),
            "scattering.sweep_spectrum.self_s": self.self_seconds("scattering.sweep_spectrum"),
            "scattering.find_minima_s": self.total_seconds("scattering.find_minima"),
            "scattering.lamb_shift_s": self.total_seconds("scattering.lamb_shift"),
            "scattering.s_matrix.mean_us": self.mean_us("scattering.s_matrix"),
            "scattering.to_csv_s": self.total_seconds("scattering.to_csv"),
            "scattering.format_mb_per_s": output_bytes / 1e6 / fmt_s if fmt_s else 0.0,
            "scattering.to_json_s": self.total_seconds("scattering.to_json"),
            "squeezing.two_mode_variance.mean_us": self.mean_us("squeezing.two_mode_variance"),
            "cli.main_s": self.total_seconds("cli.main"),
            "cli.self_s": self.self_seconds("cli.main"),
            "cli.output_bytes": output_bytes,
        }

    def dump(self, path: str) -> None:
        """Write the spans (name, start, end, parent) and the aggregates."""
        doc = {
            "spans": [[s.name, s.start, s.end, s.parent] for s in self.spans],
            "leaves": {k: {"calls": v[0], "total_s": v[1], "points": v[2]} for k, v in self.leaves.items()},
            "counts": self.counts,
            "failed": self.failed,
            "eigen.solve.tail_percentile": tail_value(
                [1e3 * (s.end - s.start) for s in self.named("eigen.solve")]
            )[0],
        }
        with open(path, "w") as handle:
            json.dump(doc, handle)
