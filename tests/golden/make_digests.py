"""Golden digests of the package's output bytes.

    PYTHONPATH=src python tests/golden/make_digests.py

writes tests/golden/digests.json next to this file. It holds

- for every README command-line example, run in process through
  ``cli.main(argv)`` in an empty directory: the exit code, stdout with the
  run time of the summary line masked, stderr, and the sha256 of each file
  written;
- for 1,705 seeded parameter points in five families (both phases, the
  approach to g_c from both sides, +-5% around each gap edge, and named
  points), one sha256 per family and per output: ``repr`` of
  ``open_eigenfrequencies`` (or the text of the error it raises), ``repr``
  of ``zeta_constant_term``, and the bytes of an ``s11`` row;
- the numpy version and platform tag the digests were made with.

test_golden.py recomputes every digest and compares. The digests pin the
last bit of every output, so a change that moves any of them needs its own
justification: list each changed entry in CHANGES.md with the independent
evidence (det M, mpmath) that the new value is right.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import sys
import sysconfig
import tempfile
from pathlib import Path

import numpy as np

from opendicke import BathSpec, ModelParams, cli, derive_phase, open_eigenfrequencies, s11
from opendicke.eigen import ConvergenceError
from opendicke.matrices import zeta_constant_term

DIGESTS = Path(__file__).resolve().parent / "digests.json"

# The README examples, verbatim, plus the two variants the README describes
# in prose (a non-ohmic eigen sweep and the JSON spectrum), plus the files
# the examples leave unwritten.
README_EXAMPLES = {
    "eigen": "eigen --omega-a 1 --omega-b 1 --gamma-a 0.3 --gamma-b 0.2 --sweep g:0:0.7:400",
    "eigen-nonohmic": "eigen --omega-a 1 --omega-b 1 --gamma-a 0.3 --gamma-b 0.2 "
    "--sweep g:0:0.7:400 --s-a -0.5 --s-b 0.5 -o eigen-nonohmic.csv",
    "spectrum": "spectrum --g 0.25 --sweep ratio:0.2:2:400 --probe 0.01:1.8:2000 --linear-gamma-b",
    "spectrum-json": "spectrum --g 0.25 --sweep ratio:0.2:2:400 --probe 0.01:1.8:2000 "
    "--linear-gamma-b --format json -o spectrum.json",
    "critical": "critical --omega-a 1 --omega-b 1 --gamma-a 0.5 --s-a -0.5",
    "condensates": "condensates --g 0.7071067811865476 --gamma-a 0.1 --omega 1.0",
    "squeeze": "squeeze --g 0.4 --gamma-a 0.1 --gamma-b 0.2 --omega 1.0 -o sq.csv",
    "altcoupling": "altcoupling --f-a0 0.19",
    # One file per format each command writes.
    "eigen-json": "eigen --omega-a 1 --omega-b 1 --gamma-a 0.3 --gamma-b 0.2 "
    "--sweep g:0:0.7:400 --format json -o eigen.json",
    "condensates-csv": "condensates --g 0.7071067811865476 --gamma-a 0.1 --omega 1.0 -o cond.csv",
    "condensates-json": "condensates --g 0.7071067811865476 --gamma-a 0.1 --omega 1.0 "
    "--format json -o cond.json",
    "squeeze-json": "squeeze --g 0.4 --gamma-a 0.1 --gamma-b 0.2 --omega 1.0 --format json -o sq.json",
    "critical-file": "critical --omega-a 1 --omega-b 1 --gamma-a 0.5 --s-a -0.5 -o c.csv",
    "altcoupling-file": "altcoupling --f-a0 0.19 -o alt.json",
    # The phase column, on rows that span both phases.
    "spectrum-phase": "spectrum --g 0.25 --sweep ratio:0.2:2:40 --probe 0.01:1.8:200 "
    "--include-phase-labels -o spectrum-phase.csv",
}

SUMMARY_TIME = re.compile(r"^(wrote .*) in \d+\.\d\d s$", re.MULTILINE)

FAMILY_SIZES = {"normal": 420, "superradiant": 420, "critical": 300, "gap-edge": 560}
EDGE_CONFIGS = 28  # bath configurations whose gap edges are sampled
EDGE_SCAN = 141  # couplings in [0, 2 g_c] scanned for gap flag changes
PROBE = np.linspace(0.05, 2.5, 48)  # s11 row, in units of omega_a

# Points named in the project's notes: the three gap-edge points where the
# continuation fails, and the scale test: omega_a = omega_b = k, g = 0.7 k,
# s = (-0.5, 0.5), gamma0 = (0.3, 0.2) k^(1 - s), at k = 1e-4 and 1e8.
NAMED_POINTS = [
    (1.0, 1.0, 0.4625, 0.6, -0.5, 0.5, 0.5),
    (1.0, 1.0, 0.4025, 1.0, -0.8, 0.8, -0.2),
    (1.0, 1.0, 0.5445, 1.0, -0.8, 0.8, -0.2),
    (1e-4, 1e-4, 0.7e-4, 0.3 * 1e-4**1.5, -0.5, 0.2 * 1e-4**0.5, 0.5),
    (1e8, 1e8, 0.7e8, 0.3 * 1e8**1.5, -0.5, 0.2 * 1e8**0.5, 0.5),
]


def environment() -> dict:
    return {"numpy": np.__version__, "platform": sysconfig.get_platform()}


def run_example(argv: list[str], workdir: Path) -> dict:
    """Run one command line in process inside an empty workdir."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    finally:
        os.chdir(cwd)
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(workdir.iterdir())}
    return {
        "rc": rc,
        "stdout": SUMMARY_TIME.sub(r"\1 in <t> s", out.getvalue()),
        "stderr": err.getvalue(),
        "files": files,
    }


def _params(wa, wb, g, ga, sa, gb, sb) -> ModelParams:
    return ModelParams(float(wa), float(wb), float(g), BathSpec(float(ga), float(sa)),
                       BathSpec(float(gb), float(sb)))


def _draw_exponent(rng) -> float:
    # Mostly the open domain (-1, 2]; some ohmic ports and the s = 2 bound.
    u = rng.uniform()
    if u < 0.15:
        return 0.0
    if u < 0.2:
        return 2.0
    return float(rng.uniform(-0.95, 2.0))


def _draw_bath_point(rng, lam_lo, lam_hi):
    """(omega_a, omega_b, g, gamma_a, s_a, gamma_b, s_b) with lam =
    4 g^2 / (omega_a omega_b) drawn in [lam_lo, lam_hi]."""
    wa, wb = rng.uniform(0.5, 1.5, 2)
    ga, gb = rng.uniform(0.01, 1.0, 2)
    sa, sb = _draw_exponent(rng), _draw_exponent(rng)
    lam = rng.uniform(lam_lo, lam_hi)
    return (wa, wb, 0.5 * math.sqrt(lam * wa * wb), ga, sa, gb, sb)


def _edge_configs():
    """Bath configurations with strong enough damping to open a gap."""
    rng = np.random.default_rng(4)
    out = []
    for _ in range(EDGE_CONFIGS):
        wa, wb = rng.uniform(0.7, 1.3, 2)
        ga, gb = rng.uniform(0.2, 1.0, 2)
        sa, sb = _draw_exponent(rng), _draw_exponent(rng)
        out.append((wa, wb, ga, sa, gb, sb))
    return out


def _gap_or_error(config, g) -> str:
    wa, wb, ga, sa, gb, sb = config
    try:
        return str(open_eigenfrequencies(_params(wa, wb, g, ga, sa, gb, sb)).gap)
    except ConvergenceError:
        return "error"


def find_gap_edges(config) -> list[float]:
    """Couplings in (0, 2 g_c) where the gap flag or the solve's success
    changes, each bisected to 1e-9 relative. Run once, by this script; the
    test reads the stored edges."""
    wa, wb = config[0], config[1]
    grid = np.linspace(0.0, 2.0 * 0.5 * math.sqrt(wa * wb), EDGE_SCAN)
    states = [_gap_or_error(config, g) for g in grid]
    edges = []
    for k in range(len(grid) - 1):
        if states[k] == states[k + 1]:
            continue
        lo, hi, s_lo = float(grid[k]), float(grid[k + 1]), states[k]
        while hi - lo > 1e-9 * hi:
            mid = 0.5 * (lo + hi)
            if _gap_or_error(config, mid) == s_lo:
                lo = mid
            else:
                hi = mid
        edges.append(0.5 * (lo + hi))
    return edges


def family_points(name: str, edges: list[list[float]] = ()) -> list[tuple]:
    """The seeded points of one family (see the module docstring)."""
    n = FAMILY_SIZES.get(name, 0)
    if name == "normal":
        rng = np.random.default_rng(1)
        return [_draw_bath_point(rng, 0.0, 0.9025) for _ in range(n)]
    if name == "superradiant":
        rng = np.random.default_rng(2)
        return [_draw_bath_point(rng, 1.1025, 4.0) for _ in range(n)]
    if name == "critical":
        rng = np.random.default_rng(3)
        points = []
        for k in range(n):
            wa, wb, _, ga, sa, gb, sb = _draw_bath_point(rng, 0.0, 0.0)
            eps = 0.0 if k % 30 == 0 else (-1.0) ** k * 10.0 ** rng.uniform(-12.0, math.log10(0.05))
            points.append((wa, wb, 0.5 * math.sqrt(wa * wb) * (1.0 + eps), ga, sa, gb, sb))
        return points
    if name == "gap-edge":
        rng = np.random.default_rng(5)
        pairs = [
            (config, edge)
            for config, config_edges in zip(_edge_configs(), edges)
            for edge in config_edges
        ]
        points = []
        for k in range(n):
            (wa, wb, ga, sa, gb, sb), edge = pairs[k % len(pairs)]
            points.append((wa, wb, edge * (1.0 + rng.uniform(-0.05, 0.05)), ga, sa, gb, sb))
        return points
    if name == "named":
        return list(NAMED_POINTS)
    raise ValueError(f"unknown family {name!r}")


FAMILIES = ("normal", "superradiant", "critical", "gap-edge", "named")


def family_digests(points) -> dict:
    """sha256 per output kind over every point of one family, in order."""
    eigen, const, row = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for k, point in enumerate(points):
        p = _params(*point)
        try:
            text = repr(open_eigenfrequencies(p))
        except ConvergenceError as exc:
            text = f"ConvergenceError: {exc}"
        eigen.update(f"{k}:{text}\n".encode())
        const.update(f"{k}:{zeta_constant_term(derive_phase(p), p)!r}\n".encode())
        row.update(np.asarray(s11(p, PROBE * p.omega_a)).tobytes())
    return {
        "count": len(points),
        "eigen": eigen.hexdigest(),
        "constant": const.hexdigest(),
        "s11": row.hexdigest(),
    }


def main() -> int:
    edges = [find_gap_edges(config) for config in _edge_configs()]
    doc = {"environment": environment(), "gap_edges": edges, "examples": {}, "points": {}}
    for name, text in README_EXAMPLES.items():
        with tempfile.TemporaryDirectory() as tmp:
            doc["examples"][name] = run_example(text.split(), Path(tmp))
    for name in FAMILIES:
        doc["points"][name] = family_digests(family_points(name, edges))
    DIGESTS.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
