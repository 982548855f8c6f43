"""Port scattering and coherent reflection spectra.

The reflection coefficient seen from port a is the closed-form ratio

    S11(omega) = zeta(omega; -gamma_a, +gamma_b) / zeta(omega; +gamma_a, +gamma_b),

valid for arbitrary damping laws and in both phases (the superradiant phase
carries the saturated matter damping in numerator and denominator alike).
matrices.s11_rows evaluates it per block of grid rows; s11 is a block of one.
The full 2x2 scattering matrix is assembled independently from the
input-output block algebra M(A, -Gamma) M(A, Gamma)^(-1) and port weight
factors; its (1, 1) element must reproduce S11, which the test suite uses as
a two-route consistency check.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, replace

import numpy as np

from .model import ModelParams, derive_phase, gamma_of
from .matrices import INPUT, OUTPUT, build_system, m_matrix, s11_rows
# bench/tracer.py wraps scattering.zeta_from_system, so the name stays importable here.
from .matrices import zeta_from_system  # noqa: F401
from .eigen import closed_eigenfrequencies
from .fanout import fan_out

__all__ = [
    "SpectrumGrid",
    "s11",
    "s_matrix",
    "sweep_spectrum",
    "write_spectrum",
    "find_minima",
    "lamb_shift",
]


def _grid(values, name: str) -> np.ndarray:
    arr = np.asarray(values)
    if np.iscomplexobj(arr) or arr.ndim != 1:
        raise ValueError(f"{name} must be real and 1-D, got {arr.dtype} of shape {arr.shape}")
    return arr.astype(float, copy=False)


def _validate_probe(omega) -> None:
    arr = np.asarray(omega)
    if np.iscomplexobj(arr):
        raise ValueError(f"probe frequencies must be real, got {arr.dtype}")
    if not np.all(np.isfinite(arr) & (arr > 0)):
        raise ValueError("probe frequencies must be finite and positive")


def s11(params: ModelParams, omega):
    """Reflection coefficient at port a for real probe frequencies.

    Accepts a scalar or an array of frequencies (> 0). Total for omega > 0:
    the denominator zeros all sit strictly below the real axis except for
    the zero-frequency root at the exact critical point, which the omega > 0
    domain never touches. A list or tuple is read as a float array.
    """
    _validate_probe(omega)
    if isinstance(omega, (list, tuple)):
        omega = np.asarray(omega, dtype=float)
    pd = derive_phase(params)
    return s11_rows([build_system(pd, params)], omega)[0]


def s_matrix(params: ModelParams, omega: float) -> np.ndarray:
    """Full 2x2 scattering matrix at one real probe frequency.

    Each 2x2 block of M(A, -Gamma) M(A, Gamma)^(-1) is projected onto the
    (1, -1)/sqrt(2) port vector from both sides, then weighted by
    sqrt(omega_j / omega_k * gamma_k(omega) / gamma_j(omega)) built from the
    effective port quantities (the superradiant matter port carries the
    renormalized frequency and the saturated damping, which is the same as
    attaching the 2 / (lam + 1) condensate factor to the bare law). Both
    port couplings must be positive, otherwise the weights are singular.
    """
    if np.ndim(omega) != 0:
        raise ValueError(f"s_matrix takes one probe frequency omega, got shape {np.shape(omega)}")
    _validate_probe(omega)
    if params.bath_a.gamma0 <= 0 or params.bath_b.gamma0 <= 0:
        raise ValueError("the scattering matrix requires both port couplings positive")
    pd = derive_phase(params)
    m_in = m_matrix(pd, params, omega, INPUT)
    m_out = m_matrix(pd, params, omega, OUTPUT)
    t_full = m_out @ np.linalg.inv(m_in)
    system = build_system(pd, params)
    freqs = (params.omega_a, pd.omega_b_tilde)
    gammas = (gamma_of(system.bath_a, omega), gamma_of(system.bath_b, omega))
    out = np.empty((2, 2), dtype=complex)
    for j in range(2):
        for k in range(2):
            blk = t_full[2 * j : 2 * j + 2, 2 * k : 2 * k + 2]
            scalar = 0.5 * (blk[0, 0] - blk[0, 1] - blk[1, 0] + blk[1, 1])
            weight = np.sqrt(freqs[j] / freqs[k] * gammas[k] / gammas[j])
            out[j, k] = weight * scalar
    return out


# Sweep values per pool task: small enough to balance two workers on a
# 400-row grid, large enough that a task's text dwarfs its pickling.
FORMAT_ROWS = 8


@dataclass(frozen=True)
class SpectrumGrid:
    """Complex S11 on a (sweep value x probe frequency) grid, one row per
    sweep value, with the phase of each row recorded."""

    axis: str
    sweep_values: np.ndarray
    probe_frequencies: np.ndarray
    values: np.ndarray
    phase_labels: tuple[str, ...]

    def to_csv(self, stream, include_phase: bool = False) -> None:
        """Rows of (sweep_value, omega, re, im, abs) behind '#' metadata
        headers; 12 significant digits throughout."""
        self._write(stream, "csv", include_phase)

    def to_json(self) -> str:
        """Single document with the magnitude grid flattened row-major.
        Floats use the shortest round-trip repr of json.dumps."""
        out = io.StringIO()
        self._write(out, "json", False)
        return out.getvalue()

    def _write(self, stream, fmt: str, include_phase: bool) -> None:
        sv, pf, labels = self.sweep_values, self.probe_frequencies, self.phase_labels
        rows = [slice(i, i + FORMAT_ROWS) for i in range(0, sv.size, FORMAT_ROWS)]
        blocks = (
            (_format_block(fmt, include_phase, sv[r], pf, self.values[r], labels[r]), labels[r])
            for r in rows
        )
        _write_grid(stream, fmt, self.axis, sv, pf, include_phase, blocks)


def _write_grid(stream, fmt: str, axis: str, sv, pf, include_phase: bool, blocks) -> None:
    """Header, each (text, labels) block's text in order, then JSON's labels."""
    if fmt == "json":
        head = {"axis": axis, "sweep_values": sv.tolist(), "probe_frequencies": pf.tolist()}
        stream.write(json.dumps(head, separators=(",", ":"))[:-1] + ',"abs_s11":[')
    else:
        phase = ",phase" if include_phase else ""
        stream.write(
            f"# axis={axis} sweep={sv[0]:.11e}:{sv[-1]:.11e}:{sv.size}"
            f" probe={pf[0]:.11e}:{pf[-1]:.11e}:{pf.size}\n"
            f"# columns: sweep_value,omega,re_s11,im_s11,abs_s11{phase}\n"
        )
    all_labels = []
    for k, (text, labels) in enumerate(blocks):
        stream.write("," + text if k and fmt == "json" else text)
        all_labels += labels
    if fmt == "json":
        stream.write(f'],"phase_labels":{json.dumps(all_labels, separators=(",", ":"))}}}')


def _format_block(fmt: str, include_phase: bool, sweep, probe, values, labels) -> str:
    if fmt == "json":
        # The C encoder's float repr and NaN/Infinity spelling, without brackets.
        return json.dumps(np.abs(values).ravel().tolist(), separators=(",", ":"))[1:-1]
    # One template for the whole block: the probe column is formatted once per
    # block, the sweep value and label once per row, and a single % fills
    # re, im and |S11| of every cell.
    cells = ["%.11e," % w + "%.11e,%.11e,%.11e" for w in probe.tolist()]
    rows = []
    for i, v in enumerate(sweep.tolist()):
        head = "%.11e," % v
        tail = f",{labels[i]}\n" if include_phase else "\n"
        rows.append(head + (tail + head).join(cells) + tail)
    nums = np.stack((values.real, values.imag, np.abs(values)), axis=-1)
    return "".join(rows) % tuple(nums.ravel().tolist())


def resolve_point(
    params: ModelParams, axis: str, value: float, linear_gamma_b: bool
) -> ModelParams:
    """The model point of one spectrum sweep value (see sweep_spectrum)."""
    if axis == "g":
        return replace(params, g=value)
    omega_b = value * params.omega_a
    bath_b = params.bath_b
    if linear_gamma_b:
        bath_b = replace(bath_b, gamma0=bath_b.gamma0 * omega_b / params.omega_b)
    return replace(params, omega_b=omega_b, bath_b=bath_b)


def _spectrum_block(task) -> tuple[np.ndarray | str, list[str]]:
    """S11 rows (as fmt text when fmt is set) and phase labels of a block."""
    params, axis, sweep, probe, linear_gamma_b, fmt, include_phase = task
    points = [resolve_point(params, axis, v, linear_gamma_b) for v in sweep.tolist()]
    phases = [derive_phase(p) for p in points]
    values = np.vstack(s11_rows([build_system(pd, p) for pd, p in zip(phases, points)], probe))
    labels = [pd.phase.value for pd in phases]
    if fmt is not None:
        values = _format_block(fmt, include_phase, sweep, probe, values, labels)
    return values, labels


def _computed_blocks(params, axis, sweep, probe, linear_gamma_b, workers, fmt, include_phase):
    """The checked grids and, lazily and in order, _spectrum_block's results."""
    if axis not in ("g", "ratio"):
        raise ValueError(f"spectrum axis must be 'g' or 'ratio', got {axis!r}")
    if linear_gamma_b and axis != "ratio":
        raise ValueError(f"linear_gamma_b scales gamma_b along a 'ratio' sweep, got axis {axis!r}")
    sweep, probe = _grid(sweep, "sweep grid"), _grid(probe, "probe grid")
    if sweep.size == 0 or probe.size == 0:
        raise ValueError("sweep and probe grids must be nonempty")
    _validate_probe(probe)
    tasks = [
        (params, axis, sweep[i : i + FORMAT_ROWS], probe, linear_gamma_b, fmt, include_phase)
        for i in range(0, sweep.size, FORMAT_ROWS)
    ]
    return sweep, probe, fan_out(_spectrum_block, tasks, workers)


def sweep_spectrum(
    params: ModelParams,
    axis: str,
    sweep_values,
    probe_frequencies,
    *,
    linear_gamma_b: bool = False,
    workers: int = 1,
) -> SpectrumGrid:
    """Fill an S11 grid row by row, the phase auto-selected per sweep value.

    axis is either 'g' (coupling sweep) or 'ratio' (omega_b / omega_a sweep,
    the experimentally natural knob). With linear_gamma_b, on a ratio sweep
    only, the matter damping amplitude scales proportionally to omega_b. Rows
    are independent, so workers > 1 fans blocks of them out to a process
    pool; assembly is order preserving either way.
    """
    sweep, probe, blocks = _computed_blocks(
        params, axis, sweep_values, probe_frequencies, linear_gamma_b, workers, None, False
    )
    values = np.empty((sweep.size, probe.size), dtype=complex)
    labels = []
    for i, (rows, block_labels) in zip(range(0, sweep.size, FORMAT_ROWS), blocks):
        values[i : i + FORMAT_ROWS] = rows
        labels += block_labels
    return SpectrumGrid(axis, sweep, probe, values, tuple(labels))


def write_spectrum(
    stream,
    fmt: str,
    params: ModelParams,
    axis: str,
    sweep_values,
    probe_frequencies,
    *,
    linear_gamma_b: bool = False,
    include_phase: bool = False,
    workers: int = 1,
) -> None:
    """Write sweep_spectrum's grid as fmt 'csv' or 'json': the bytes of
    to_csv (include_phase is CSV only), or of to_json and a newline. Each
    pool task computes and formats FORMAT_ROWS rows, whose text is written
    in order as it arrives, so the grid is never held."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"spectrum file format must be 'csv' or 'json', got {fmt!r}")
    if include_phase and fmt == "json":
        raise ValueError("include_phase is a CSV column; JSON always has phase_labels")
    sweep, probe, blocks = _computed_blocks(
        params, axis, sweep_values, probe_frequencies, linear_gamma_b, workers, fmt, include_phase
    )
    _write_grid(stream, fmt, axis, sweep, probe, include_phase, blocks)
    stream.write("\n" if fmt == "json" else "")


def _parabolic_vertex(x, y) -> float:
    (x0, x1, x2), (y0, y1, y2) = x, y
    c0 = y0 / ((x0 - x1) * (x0 - x2))
    c1 = y1 / ((x1 - x0) * (x1 - x2))
    c2 = y2 / ((x2 - x0) * (x2 - x1))
    curv = c0 + c1 + c2
    if curv == 0.0:
        return x1
    vertex = 0.5 * (c0 * (x1 + x2) + c1 * (x0 + x2) + c2 * (x0 + x1)) / curv
    return min(max(vertex, x0), x2)


def find_minima(probe_frequencies, row) -> np.ndarray:
    """Locations of the interior local minima of |S11| along one row.

    Strict three-point comparison on |S11|^2 picks the dips, with a small
    relative floor so the ulp-level ripple of a flat unit-modulus row never
    counts; each dip is then refined by the vertex of the parabola through
    its bracketing triple, so the result does not inherit the grid pitch.
    A monotone (or flat) row yields an empty array. The probe frequencies
    must be a real, strictly increasing 1-D grid, one for each row value.
    """
    x = _grid(probe_frequencies, "probe frequencies")
    y = np.abs(np.asarray(row)) ** 2
    if x.shape != y.shape:
        raise ValueError(f"{x.size} probe frequencies for a row of shape {y.shape}")
    if x.size < 3:
        raise ValueError("a row needs at least 3 points to hold an interior minimum")
    if not np.all(np.diff(x) > 0):
        raise ValueError("probe frequencies must be strictly increasing")
    noise = 1e-12 * max(float(np.max(y)), 1.0)
    inner = (y[1:-1] < y[:-2] - noise) & (y[1:-1] < y[2:] - noise)
    idx = np.flatnonzero(inner) + 1
    return np.array([_parabolic_vertex(x[i - 1 : i + 2], y[i - 1 : i + 2]) for i in idx])


def lamb_shift(params: ModelParams, branch: str, probe_frequencies) -> float:
    """Displacement of the reflection dip from the closed excitation energy.

    Positive means the open-system dip sits above the closed eigenfrequency
    of the requested branch ('lower' or 'upper'); the dip nearest to that
    eigenfrequency is the one measured.
    """
    if branch not in ("lower", "upper"):
        raise ValueError(f"branch must be 'lower' or 'upper', got {branch!r}")
    lo, hi = closed_eigenfrequencies(params)
    target = lo if branch == "lower" else hi
    probe = _grid(probe_frequencies, "probe frequencies")
    minima = find_minima(probe, s11(params, probe))
    if minima.size == 0:
        raise ValueError(f"no reflection minimum on the probe grid for branch {branch!r}")
    nearest = minima[np.argmin(np.abs(minima - target))]
    return float(nearest - target)
