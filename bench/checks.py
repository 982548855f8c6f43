"""Correctness checks on workload outputs.

Each checker returns a list of problems; an empty list means the output
passed. The references are independent of the code paths they check: roots
and S11 cells are re-evaluated through ``np.linalg.det`` of the explicit
``m_matrix``, not through the package's zeta.
"""

from __future__ import annotations

import io
import json
from dataclasses import replace

import numpy as np

from opendicke import FLIP_A, INPUT, BathSpec, ModelParams, derive_phase, m_matrix
from opendicke.matrices import build_a_matrix

import workloads

ROOT_RESIDUAL_TOL = 1e-9  # |det M(w)| / ||M(w)||_F^4 at a written root
DISTINCT_TOL = 1e-9  # |lower - upper| below this means the branches merged
CELL_TOL = 1e-8  # |written S11 - det ratio| at a sampled cell
MODULUS_TOL = 1e-11  # allowance above |S11| = 1 for 12-digit rounding
UNITARY_TOL = 1e-9  # ||S S^dagger - I||_2 at a dip
VARIANCE_TOL = 1e-9  # |2 w var - 1| at a dip
CELL_SAMPLES = 200


def _params(d: dict, **overrides) -> ModelParams:
    base = ModelParams(
        omega_a=1.0,
        omega_b=1.0,
        g=d.get("g", 0.0),
        bath_a=BathSpec(d.get("gamma_a", 0.1), d.get("s_a", 0.0)),
        bath_b=BathSpec(d.get("gamma_b", 0.1), d.get("s_b", 0.0)),
    )
    return replace(base, **overrides)


def _det(p: ModelParams, w: complex, signature=INPUT) -> tuple[complex, float]:
    """det M(w) and ||M(w)||_F; at w = 0 the damping drops out (w gamma(w)
    -> 0 for every admissible exponent), leaving det A."""
    pd = derive_phase(p)
    m = build_a_matrix(pd, p) if w == 0 else m_matrix(pd, p, w, signature)
    return complex(np.linalg.det(m)), float(np.linalg.norm(m))


def root_residual(p: ModelParams, w: complex) -> float:
    det, norm = _det(p, w)
    return abs(det) / norm**4


def check_eigen_csv(data: bytes, job: dict) -> list[str]:
    problems: list[str] = []
    lines = data.decode().splitlines()
    grid = workloads.sweep_grid(job["sweep"])
    header = [
        f"# axis=g sweep={grid[0]:.11e}:{grid[-1]:.11e}:{grid.size}",
        "# columns: g,re_lower,im_lower,re_upper,im_upper,gap_flag",
    ]
    if lines[:2] != header:
        problems.append(f"eigen header {lines[:2]!r}")
    rows = np.loadtxt(io.StringIO("\n".join(lines[2:])), delimiter=",", ndmin=2)
    if rows.shape != (grid.size, 6):
        return problems + [f"eigen shape {rows.shape}"]
    if not np.allclose(rows[:, 0], grid, rtol=1e-11, atol=1e-15):
        problems.append("eigen sweep column differs from the requested grid")
    lower = rows[:, 1] + 1j * rows[:, 2]
    upper = rows[:, 3] + 1j * rows[:, 4]
    for i in np.flatnonzero((rows[:, 2] > 0) | (rows[:, 4] > 0)):
        problems.append(f"root with Im > 0 at g={grid[i]!r}")
    for i in np.flatnonzero(np.abs(lower - upper) <= DISTINCT_TOL):
        problems.append(f"lower and upper coincide at g={grid[i]!r}")
    for i, g in enumerate(grid):
        p = _params(job["params"], g=float(g))
        for name, w in (("lower", lower[i]), ("upper", upper[i])):
            r = root_residual(p, complex(w))
            if not r <= ROOT_RESIDUAL_TOL:
                problems.append(f"{name} residual {r:.3e} at g={g!r}")
    return problems


def _spectrum_point(job: dict, ratio: float) -> ModelParams:
    # ratio sweep with --linear-gamma-b: omega_b = ratio omega_a, gamma_b
    # scaled in proportion to omega_b.
    p = _params(job["params"])
    return replace(
        p,
        omega_b=ratio * p.omega_a,
        bath_b=replace(p.bath_b, gamma0=p.bath_b.gamma0 * ratio * p.omega_a / p.omega_b),
    )


def expected_s11(job: dict, ratio: float, w: float) -> complex:
    p = _spectrum_point(job, ratio)
    num, _ = _det(p, w, FLIP_A)
    den, _ = _det(p, w, INPUT)
    return num / den


def _sample_cells(rng: np.random.Generator, rows: int, cols: int) -> list[tuple[int, int]]:
    flat = rng.choice(rows * cols, size=min(CELL_SAMPLES, rows * cols), replace=False)
    return [(int(k // cols), int(k % cols)) for k in np.sort(flat)]


def check_spectrum_csv(data: bytes, job: dict, rng: np.random.Generator) -> list[str]:
    problems: list[str] = []
    sweep = workloads.sweep_grid(job["sweep"])
    probe = workloads.sweep_grid(job["probe"])
    head = data[:400].split(b"\n")[:2]
    header = [
        f"# axis=ratio sweep={sweep[0]:.11e}:{sweep[-1]:.11e}:{sweep.size}"
        f" probe={probe[0]:.11e}:{probe[-1]:.11e}:{probe.size}".encode(),
        b"# columns: sweep_value,omega,re_s11,im_s11,abs_s11",
    ]
    if head != header:
        problems.append(f"spectrum header {head!r}")
    table = np.loadtxt(io.BytesIO(data), delimiter=",", comments="#", ndmin=2)
    if table.shape != (sweep.size * probe.size, 5):
        return problems + [f"spectrum shape {table.shape}"]
    cube = table.reshape(sweep.size, probe.size, 5)
    if not np.allclose(cube[:, 0, 0], sweep, rtol=1e-11) or not np.allclose(
        cube[0, :, 1], probe, rtol=1e-11
    ):
        problems.append("spectrum sweep or probe column differs from the requested grid")
    if np.any(cube[:, :, 4] > 1.0 + MODULUS_TOL):
        problems.append(f"|S11| > 1 in {int(np.sum(cube[:, :, 4] > 1.0 + MODULUS_TOL))} cells")
    for i, j in _sample_cells(rng, sweep.size, probe.size):
        got = complex(cube[i, j, 2], cube[i, j, 3])
        want = expected_s11(job, float(sweep[i]), float(probe[j]))
        if not abs(got - want) <= CELL_TOL:
            problems.append(f"S11 cell ({i},{j}) {got} != {want}")
    return problems


def check_spectrum_json(data: bytes, job: dict, rng: np.random.Generator) -> list[str]:
    problems: list[str] = []
    sweep = workloads.sweep_grid(job["sweep"])
    probe = workloads.sweep_grid(job["probe"])
    doc = json.loads(data)
    keys = ["axis", "sweep_values", "probe_frequencies", "abs_s11", "phase_labels"]
    if list(doc) != keys:
        return [f"spectrum json keys {list(doc)}"]
    if doc["axis"] != "ratio" or doc["sweep_values"] != sweep.tolist():
        problems.append("spectrum json sweep differs from the requested grid")
    if doc["probe_frequencies"] != probe.tolist():
        problems.append("spectrum json probe differs from the requested grid")
    mag = np.asarray(doc["abs_s11"], dtype=float)
    if mag.size != sweep.size * probe.size or len(doc["phase_labels"]) != sweep.size:
        return problems + [f"spectrum json sizes {mag.size}, {len(doc['phase_labels'])}"]
    if np.any(mag > 1.0 + MODULUS_TOL):
        problems.append(f"|S11| > 1 in {int(np.sum(mag > 1.0 + MODULUS_TOL))} cells")
    mag = mag.reshape(sweep.size, probe.size)
    for i, j in _sample_cells(rng, sweep.size, probe.size):
        want = abs(expected_s11(job, float(sweep[i]), float(probe[j])))
        if not abs(mag[i, j] - want) <= CELL_TOL:
            problems.append(f"|S11| cell ({i},{j}) {mag[i, j]} != {want}")
    return problems


def check_output(data: bytes, job: dict, rng: np.random.Generator) -> list[str]:
    if job["kind"] == "eigen":
        return check_eigen_csv(data, job)
    if job["format"] == "json":
        return check_spectrum_json(data, job, rng)
    return check_spectrum_csv(data, job, rng)


def check_dip(result: dict) -> list[str]:
    problems: list[str] = []
    dips = np.asarray(result["dips"], dtype=float)
    if dips.size == 0:
        problems.append("no reflection dip found")
    smats = np.asarray(result["smats_re"]) + 1j * np.asarray(result["smats_im"])
    for w, s in zip(dips, smats.reshape(-1, 2, 2)):
        err = np.linalg.norm(s @ s.conj().T - np.eye(2), 2)
        if not err <= UNITARY_TOL:
            problems.append(f"||S S^dagger - I|| = {err:.3e} at w={w!r}")
    for w, v in zip(dips, result["variances"]):
        if not abs(2.0 * w * v - 1.0) <= VARIANCE_TOL:
            problems.append(f"variance {v!r} != 1/(2w) at w={w!r}")
    if len(result["shifts"]) == 0 or not np.all(np.isfinite(result["shifts"])):
        problems.append("missing or non-finite Lamb shifts")
    return problems


def same_minima(a: dict, b: dict) -> list[str]:
    """Two dip-scan passes, at one or two workers, must find exactly the
    same minima."""
    if a["minima_counts"] != b["minima_counts"] or a["dips"] != b["dips"]:
        return ["minima differ between passes"]
    return []
