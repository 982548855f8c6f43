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

import json
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .model import ModelParams, check_frequency, derive_phase, gamma_of, real_grid, resolve_point
from .matrices import INPUT, OUTPUT, S11_TILE, build_system, m_matrix, s11_rows
# bench/tracer.py wraps scattering.zeta_from_system, so the name stays importable here.
from .matrices import zeta_from_system  # noqa: F401
from .eigen import closed_eigenfrequencies
from .fanout import fan_out

__all__ = [
    "SpectrumGrid",
    "s11",
    "s_matrix",
    "sweep_spectrum",
    "spectrum_text",
    "find_minima",
    "lamb_shift",
]


def s11(params: ModelParams, omega):
    """Reflection coefficient at port a for real probe frequencies.

    Accepts any array-like of frequencies (> 0) and returns an array of its
    shape; a scalar is a one-element probe, returned as its complex value.
    Total for omega > 0: the denominator zeros sit below the real axis,
    except the zero-frequency root at the exact critical point, which the
    omega > 0 domain never touches, and the real zero of an undamped,
    decoupled mode, where s11_rows shifts the probe by 1e-9 of itself.
    """
    check_frequency(omega, "probe frequencies")
    pd = derive_phase(params)
    row = s11_rows([build_system(pd, params)], omega)[0]
    return complex(row) if row.ndim == 0 else row


def s_matrix(params: ModelParams, omega: float) -> np.ndarray:
    """Full 2x2 scattering matrix at one real probe frequency.

    Each 2x2 block of M(A, -Gamma) M(A, Gamma)^(-1) is projected onto the
    (1, -1)/sqrt(2) port vector from both sides, then weighted by
    sqrt(omega_j / omega_k * gamma_k(omega) / gamma_j(omega)) built from the
    effective port quantities (the superradiant matter port carries the
    renormalized frequency and the saturated damping, which is the same as
    attaching the 2 / (lam + 1) condensate factor to the bare law). Both
    port rates at omega must be positive, otherwise the weights are
    singular, and a matrix with an entry the floats cannot hold raises.
    """
    check_frequency(omega, "probe frequency", scalar=True)
    pd = derive_phase(params)
    system = build_system(pd, params)
    gammas = (gamma_of(system.bath_a, omega), gamma_of(system.bath_b, omega))
    rates = f"at probe frequency {omega}, got gamma_a = {gammas[0]} and gamma_b = {gammas[1]}"
    if not (gammas[0] > 0 and gammas[1] > 0):
        raise ValueError(f"the scattering matrix requires both port couplings positive {rates}")
    freqs = (params.omega_a, pd.omega_b_tilde)
    out = np.empty((2, 2), dtype=complex)
    with np.errstate(all="ignore"):
        m_in = m_matrix(pd, params, omega, INPUT)
        m_out = m_matrix(pd, params, omega, OUTPUT)
        t_full = m_out @ np.linalg.inv(m_in)
        for j in range(2):
            for k in range(2):
                blk = t_full[2 * j : 2 * j + 2, 2 * k : 2 * k + 2]
                scalar = 0.5 * (blk[0, 0] - blk[0, 1] - blk[1, 0] + blk[1, 1])
                weight = np.sqrt(freqs[j] / freqs[k] * gammas[k] / gammas[j])
                out[j, k] = weight * scalar
    if not np.isfinite(out).all():
        raise ValueError(f"the scattering matrix is not finite {rates}")
    return out


# Sweep values per pool task: small enough to balance two workers on a
# 400-row grid and to bound the text a worker holds at once. Each task's
# text is pickled back to the parent, 72 MB in all for the README CSV,
# which costs about what the second worker saves.
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
        stream.writelines(self._text("csv", include_phase))

    def to_json(self) -> str:
        """Single document with the magnitude grid flattened row-major.
        Every float is byte for byte json.dumps's shortest round-trip repr."""
        return "".join(self._text("json", False))

    def _text(self, fmt: str, include_phase: bool):
        sv, pf, labels = self.sweep_values, self.probe_frequencies, self.phase_labels
        rows = [slice(i, i + FORMAT_ROWS) for i in range(0, sv.size, FORMAT_ROWS)]
        blocks = (
            (_format_block(fmt, include_phase, sv[r], pf, self.values[r], labels[r]), labels[r])
            for r in rows
        )
        return _grid_text(fmt, self.axis, sv, pf, include_phase, blocks)


def _grid_text(fmt: str, axis: str, sv, pf, include_phase: bool, blocks):
    """Yield the header, each (text, labels) block's text in order, then JSON's labels."""
    if fmt == "json":
        head = {"axis": axis, "sweep_values": sv.tolist(), "probe_frequencies": pf.tolist()}
        yield json.dumps(head, separators=(",", ":"))[:-1] + ',"abs_s11":['
    else:
        phase = ",phase" if include_phase else ""
        yield (
            f"# axis={axis} sweep={sv[0]:.11e}:{sv[-1]:.11e}:{sv.size}"
            f" probe={pf[0]:.11e}:{pf[-1]:.11e}:{pf.size}\n"
            f"# columns: sweep_value,omega,re_s11,im_s11,abs_s11{phase}\n"
        )
    all_labels = []
    for k, (text, labels) in enumerate(blocks):
        yield "," + text if k and fmt == "json" else text
        all_labels += labels
    if fmt == "json":
        yield f'],"phase_labels":{json.dumps(all_labels, separators=(",", ":"))}}}'


def _format_block(fmt: str, include_phase: bool, sweep, probe, values, labels) -> str:
    """A block's cells as fmt text: JSON's |S11| floats or CSV's lines, each
    tile of S11_TILE cells a NUL-padded uint8 matrix (a row per cell) whose
    NULs drop. A CSV line's row is the sweep value's and probe's slots (made
    once per block), the re, im and |S11| slots, the last cut at its comma
    (byte 20), then the row's tail."""
    cells = values.reshape(-1)
    if fmt == "csv":
        heads, omegas = _e11_slots(sweep), _e11_slots(probe)
        tails = _text_matrix([f",{label}\n" if include_phase else "\n" for label in labels])
    text = []
    for k in range(0, cells.size, S11_TILE):
        tile = cells[k : k + S11_TILE]
        if fmt == "json":
            chars = _repr_slots(np.abs(tile))
        else:
            row, col = np.divmod(np.arange(k, k + tile.size), probe.size)
            re, im, mag = (_e11_slots(part) for part in (tile.real, tile.imag, np.abs(tile)))
            parts = (heads.take(row, axis=0), omegas.take(col, axis=0), re, im, mag[:, :20])
            chars = np.concatenate((*parts, tails.take(row, axis=0)), axis=1)
        text.append(_ascii(chars))
    text = "".join(text)
    return text[1:] if fmt == "json" else text  # each JSON cell follows a comma


def _ascii(chars: np.ndarray) -> str:
    """The text of a NUL-padded uint8 character matrix, row by row."""
    return chars.tobytes().translate(None, b"\0").decode("ascii")


def _text_matrix(strings) -> np.ndarray:
    """The ASCII strings as the rows of a uint8 matrix, NUL-padded to the longest."""
    chars = np.array([s.encode("ascii") for s in strings], dtype=bytes)
    return chars.view(np.uint8).reshape(len(strings), chars.itemsize)


# 10**k for k in 0..22, each exactly a double.
_POW10 = np.array([float(10**k) for k in range(23)])
# Text as words, indexed by value: every 4-digit group, and the last group
# without its trailing zeros.
_PAIRS = _text_matrix(["%02d" % k for k in range(100)]).view(np.uint16)
_PAIRS_STRIPPED = _text_matrix([("%02d" % k).rstrip("0") for k in range(100)]).view(np.uint16)
_GROUPS, _LAST_GROUPS = np.empty((2, 100, 100, 2), dtype=np.uint16)
_GROUPS[..., 0], _GROUPS[..., 1] = _PAIRS, _PAIRS.T
_LAST_GROUPS[..., 0], _LAST_GROUPS[..., 1] = _PAIRS, _PAIRS_STRIPPED.T
_LAST_GROUPS[:, 0, 0] = _PAIRS_STRIPPED[:, 0]
_GROUPS, _LAST_GROUPS = (table.view(np.uint32).ravel() for table in (_GROUPS, _LAST_GROUPS))
# '%.11e' text as NUL-padded words: at 10**4 * sign + k, 'd.ddd' from the
# group k after a NUL (or '-' for a set sign bit); at E + 11, 'e%+03d,' for
# E = -11..12 (a carry takes E = 11 to 12).
_E11_LEADS = np.zeros((2, 10**4, 8), dtype=np.uint8)
_E11_LEADS[1, :, 0], _E11_LEADS[..., 2] = ord("-"), ord(".")
_E11_LEADS[..., [1, 3, 4, 5]] = _GROUPS.view(np.uint8).reshape(-1, 4)
_E11_LEADS = _E11_LEADS.view(np.uint64).ravel()
_E11_EXPONENTS = _text_matrix([f"e{k:+03d},\0\0\0" for k in range(-11, 13)]).view(np.uint64).ravel()


@np.errstate(all="ignore")  # non-finite and out-of-window values take the fallback
def _e11_slots(x: np.ndarray) -> np.ndarray:
    """'%.11e,' % v of each float v of a 1-D x as a row of 24 NUL-padded bytes.

    With E = floor(log10|v|) held to [-11, 11], y = |v| * 10**(11 - E) takes
    one rounding, since the power is an exact double. Where y lies in
    [1e11, 1e12), its nearest integer n and E are the digits and exponent
    '%.11e' prints: rounding is monotone and every half-integer below 2**40
    is a double, so y and the exact product round to the same integer
    unless y is a half-integer itself. (Where log10 puts E one off, y
    leaves the range or is 1e11, which prints the same.) The row's words
    are the lead of v's sign and n's first 4 digits, the groups of its last
    8, and E's text, its comma at byte 20. Zero is formatted here too. Every
    other value takes Python's '%.11e', the reference for every cell: y a
    half-integer (exact ties among them), y out of range (every exponent
    outside [-11, 11]), NaN and inf."""
    a = np.abs(x)
    usable = np.isfinite(a) & (a != 0.0)
    e = np.clip(np.floor(np.log10(np.where(usable, a, 1.0))), -11, 11)
    y = a * _POW10[(11.0 - e).astype(np.intp)]
    whole = np.floor(y)
    frac = y - whole
    usable &= (y >= 1e11) & (y < 1e12) & (frac != 0.5)
    n = whole + (frac > 0.5)
    carry = n == 1e12  # 9.9999999999996 prints as 1.00000000000e+01
    n = np.where(usable, n - 9e11 * carry, 0.0).astype(np.int64)
    e = np.where(usable, e + carry, 0.0)
    out = np.empty((x.size, 3), dtype=np.uint64)
    out[:, 0] = _E11_LEADS[np.signbit(x) * 10**4 + n // 10**8]
    words = out.view(np.uint32)
    words[:, 2], words[:, 3] = _GROUPS[n // 10**4 % 10**4], _GROUPS[n % 10**4]
    out[:, 2] = _E11_EXPONENTS[(e + 11.0).astype(np.intp)]
    chars = out.view(np.uint8)
    fallback = np.flatnonzero(~usable & (a != 0.0))
    if fallback.size:
        text = _text_matrix(["%.11e" % v for v in x[fallback].tolist()])
        chars[fallback, :20] = 0  # the comma at byte 20 stays
        chars[fallback, : text.shape[1]] = text
    return chars


def _veltkamp(x):
    """x as hi + lo, each with at most 26 significant bits (Veltkamp's split)."""
    c = 134217729.0 * x  # 2**27 + 1
    hi = c - (c - x)
    return hi, x - hi


# Indexed by j = -E for the repr window's exponents E = 0..-4: the scale
# 10**(16 - E) in Veltkamp halves, and half an ulp of 1.0 on that scale.
_SCALE = _POW10[16:21]
_SCALE_HI, _SCALE_LO = _veltkamp(_SCALE)
_HALF_ULP = _SCALE * 2.0**-53
_EXPONENT_BITS = np.int64(0x7FF << 52)
# At 10 * j + d, a comma and the text up to a first digit d (with its '.'
# where E = 0), as NUL-padded words.
_LEADS = _text_matrix(
    [
        (f",{d}." if j == 0 else f",0.{'0' * (j - 1)}{d}").ljust(8, "\0")
        for j in range(5)
        for d in range(10)
    ]
).view(np.uint64).ravel()


def _repr_slots(x: np.ndarray) -> np.ndarray:
    """',' + json.dumps(v) of each float v of a 1-D x as a row of 24 (or
    more) NUL-padded bytes.

    json.dumps writes repr(v): the shortest decimal that reads back as v,
    and the nearest to v among those. For 1e-4 <= v < 10 its digits follow
    '0.' and -E - 1 zeros, or form 'd.ddd' for E = 0, with E = floor(log10
    v). Here X = v * 10**(16 - E) is exactly x_hi + x_lo (Dekker's product:
    the power is an exact double), and X lies in (1e16, 1e17) unless log10
    put E one off. X = n + frac, with n the nearest integer. v reads back
    from the decimals strictly inside X +- half, half an ulp scaled (no
    decimal of 17 digits lies on an end here; below a power of two the gap
    is half as wide, but every power of two in the window has at most 10
    digits and falls back as below). The 16-, 15- and 14-digit decimals
    nearest X are its nearest multiples of q = 10, 100, 1000: n - r or
    n - r + q, with r = n mod q. They lie inside iff r < half - frac or
    q - r < half + frac; every term is an integer below 10**4 or a multiple
    of 2**-47 below 16, so each test is exact. A multiple of q is one of
    q / 10 too, so where a length fits every longer one fits: the shortest
    that fits gives the digits, and n's own 17 always fit (|frac| <= 1/2 <
    half). Its trailing zeros fall in the last 4-digit group. json.dumps
    writes every other value: where 13 digits fit (a shorter decimal may
    too), exact ties r + frac = q / 2 (repr rounds them half to even),
    values outside the window, NaN and infinities."""
    usable = (x >= 1e-4) & (x < 10.0)
    v = np.where(usable, x, 1.0)
    j = np.clip(-np.floor(np.log10(v)), 0, 4).astype(np.intp)
    v_hi, v_lo = _veltkamp(v)
    x_hi = v * _SCALE[j]
    s_hi, s_lo = _SCALE_HI[j], _SCALE_LO[j]
    x_lo = ((v_hi * s_hi - x_hi) + v_hi * s_lo + v_lo * s_hi) + v_lo * s_lo
    usable &= (x_hi > 1e16) & (x_hi < 1e17)
    # 2**floor(log2 v), from v's exponent bits, times half an ulp of 1.0 scaled.
    half = (v.view(np.int64) & _EXPONENT_BITS).view(np.float64) * _HALF_ULP[j]
    whole = np.rint(x_lo)
    frac = x_lo - whole
    n = x_hi.astype(np.int64) + whole.astype(np.int64)
    low = (n - n // 10_000 * 10_000).astype(np.float64)
    below, above = half - frac, half + frac
    shift = np.zeros(x.size)
    for q in (10.0, 100.0, 1000.0):
        r = low - q * np.floor(low * (1.0 / q))  # exact for integers below 10**4
        fits = (r < below) | (q - r < above)
        shift = np.where(fits, q * (r + frac > q / 2) - r, shift)
        usable &= r + frac != q / 2
    usable &= (low >= below) & (10_000.0 - low >= above)
    digits = n + shift.astype(np.int64)
    top = digits // 10**8
    first = top // 10**8
    middle, bottom = top - first * 10**8, digits - top * 10**8
    out = np.empty((x.size, 3), dtype=np.uint64)
    out[:, 0] = _LEADS.take(10 * j + first, mode="clip")  # first > 9 only where X >= 1e17
    words = out.view(np.uint32)
    words[:, 2], words[:, 3] = _GROUPS[middle // 10**4], _GROUPS[middle % 10**4]
    words[:, 4], words[:, 5] = _GROUPS[bottom // 10**4], _LAST_GROUPS[bottom % 10**4]
    chars = out.view(np.uint8)
    fallback = np.flatnonzero(~usable)
    if fallback.size:
        text = _text_matrix(["," + s for s in json.dumps(x[fallback].tolist())[1:-1].split(", ")])
        if text.shape[1] > chars.shape[1]:  # up to 25 bytes: ',-2.2250738585072014e-308'
            chars = np.pad(chars, ((0, 0), (0, text.shape[1] - chars.shape[1])))
        chars[fallback] = 0
        chars[fallback, : text.shape[1]] = text
    return chars


def _spectrum_block(task) -> tuple[np.ndarray | str, list[str]]:
    """S11 rows (as fmt text when fmt is set) and phase labels of a block."""
    points, sweep, probe, fmt, include_phase = task
    phases = [derive_phase(p) for p in points]
    values = s11_rows([build_system(pd, p) for pd, p in zip(phases, points)], probe)
    labels = [pd.phase.value for pd in phases]
    if fmt is not None:
        values = _format_block(fmt, include_phase, sweep, probe, values, labels)
    return values, labels


def _computed_blocks(params, axis, sweep, probe, linear_gamma_b, workers, fmt, include_phase):
    """The checked grids and, lazily and in order, _spectrum_block's results.
    Every model point is built first, so a bad sweep value raises at the call."""
    if axis not in ("g", "ratio"):
        raise ValueError(f"spectrum axis must be 'g' or 'ratio', got {axis!r}")
    if linear_gamma_b and axis != "ratio":
        raise ValueError(f"linear_gamma_b scales gamma_b along a 'ratio' sweep, got axis {axis!r}")
    sweep, probe = real_grid(sweep, "sweep grid"), real_grid(probe, "probe grid")
    check_frequency(probe, "probe grid")
    points = [resolve_point(params, axis, v, linear_gamma_b) for v in sweep.tolist()]
    tasks = [
        (points[i : i + FORMAT_ROWS], sweep[i : i + FORMAT_ROWS], probe, fmt, include_phase)
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


def spectrum_text(
    fmt: str,
    params: ModelParams,
    axis: str,
    sweep_values,
    probe_frequencies,
    *,
    linear_gamma_b: bool = False,
    include_phase: bool = False,
    workers: int = 1,
):
    """sweep_spectrum's grid as the text of a fmt 'csv' or 'json' file: the
    bytes of to_csv (include_phase is CSV only), or of to_json and a newline.

    Every input is checked and every model point built at the call, so a
    bad input raises before any text exists. The text comes back as an
    iterator of chunks: each pool task computes and formats FORMAT_ROWS
    rows only as the iterator is read, so the grid is never held."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"spectrum file format must be 'csv' or 'json', got {fmt!r}")
    if include_phase and fmt == "json":
        raise ValueError("include_phase is a CSV column; JSON always has phase_labels")
    sweep, probe, blocks = _computed_blocks(
        params, axis, sweep_values, probe_frequencies, linear_gamma_b, workers, fmt, include_phase
    )
    text = _grid_text(fmt, axis, sweep, probe, include_phase, blocks)
    return chain(text, ["\n"] if fmt == "json" else [])


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
    x = real_grid(probe_frequencies, "probe frequencies")
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
    probe = real_grid(probe_frequencies, "probe frequencies")
    minima = find_minima(probe, s11(params, probe))
    if minima.size == 0:
        raise ValueError(f"no reflection minimum on the probe grid for branch {branch!r}")
    nearest = minima[np.argmin(np.abs(minima - target))]
    return float(nearest - target)
