"""Closed and open excitation spectra.

Ohmic baths make A - i Gamma / 2 a constant matrix, so its four eigenvalues
are the open-system eigenfrequencies directly. Non-ohmic baths turn
zeta(omega) = 0 into a transcendental problem, solved here by continuation in
the bath exponent: start from the ohmic roots at s = 0 and walk s toward its
target in capped increments, polishing every root with a damped Newton
iteration at each step.

All physical roots live in the closed lower half plane (causality). Between
the phases a gap can open where the lower root pair collapses onto the
imaginary axis and splits into two distinct purely damped solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import ModelParams, Phase, derive_phase
from .matrices import (
    INPUT,
    BogoliubovSystem,
    build_gamma,
    build_system,
    zeta_constant_term,
    zeta_from_system,
    zeta_quartic_coeffs,
)

__all__ = [
    "AXIS_TOL",
    "ConvergenceError",
    "EigenSet",
    "BranchTable",
    "closed_eigenfrequencies",
    "open_eigenfrequencies",
    "open_eigenfrequencies_ohmic",
    "open_eigenfrequencies_nonohmic",
    "open_eigenfrequencies_companion",
    "locate_critical",
    "sweep_eigenfrequencies",
]

AXIS_TOL = 1e-9          # |Re| below this counts as on the imaginary axis
SPLIT_TOL = 1e-9         # imaginary parts closer than this are not "split"
NEWTON_TOL = 1e-11       # |step| convergence target of the polish
NEWTON_MAXIT = 200
EXPONENT_STEP = 0.05     # cap on the per-step motion of the bath exponent
MAX_HALVINGS = 6
PIN_RADIUS = 1e-8        # |omega| below which the zero-root pin applies
PIN_CONST = 1e-12        # |zeta(0)| below which omega = 0 is a root


class ConvergenceError(RuntimeError):
    """Root polishing failed; carries the last iterate and its residual."""

    def __init__(self, message: str, last_iterate: complex, residual: float):
        super().__init__(f"{message} (last iterate {last_iterate}, residual {residual:.3e})")
        self.last_iterate = last_iterate
        self.residual = residual


@dataclass(frozen=True)
class EigenSet:
    """The four complex eigenfrequencies of one parameter point.

    lower/upper are the physical branch representatives; each *_pair holds
    the branch member together with its mirror partner -conj(omega). When
    the lower pair sits on the imaginary axis with two distinct imaginary
    parts the gap flag is set and lower is the less damped member.
    """

    roots: tuple[complex, complex, complex, complex]
    lower: complex
    upper: complex
    lower_pair: tuple[complex, complex]
    upper_pair: tuple[complex, complex]
    gap: bool


def closed_eigenfrequencies(params: ModelParams) -> tuple[float, float]:
    """Excitation energies (lower, upper) of the lossless system.

    Normal phase: the biquadratic (w^2 - omega_a^2)(w^2 - omega_b^2) =
    4 g^2 omega_a omega_b, solved in closed form. Superradiant phase: the
    two nonnegative eigenvalues of the renormalized dynamical matrix.
    """
    pd = derive_phase(params)
    if pd.phase is not Phase.SUPERRADIANT:
        wa2, wb2 = params.omega_a**2, params.omega_b**2
        disc = np.sqrt((wa2 - wb2) ** 2 + 16.0 * params.g**2 * params.omega_a * params.omega_b)
        lo2 = max(0.0, 0.5 * (wa2 + wb2 - disc))
        hi2 = 0.5 * (wa2 + wb2 + disc)
        return float(np.sqrt(lo2)), float(np.sqrt(hi2))
    ev = np.linalg.eigvals(build_system(pd, params).a_matrix)
    pos = np.sort(ev.real)[2:]
    return float(max(0.0, pos[0])), float(pos[1])


def _mirror(z: complex) -> complex:
    return -z.conjugate()


def _pair_by_mirror(roots) -> list[tuple[complex, complex]]:
    """Group four roots into two (representative, partner) mirror pairs,
    representative being the larger-real-part member."""
    remaining = sorted((complex(z) for z in roots), key=lambda z: (z.real, z.imag))
    pairs: list[tuple[complex, complex]] = []
    while remaining:
        z = remaining.pop(0)
        partner = min(remaining, key=lambda w: abs(w - _mirror(z)))
        remaining.remove(partner)
        lo, hi = sorted((z, partner), key=lambda w: w.real)
        pairs.append((hi, lo))
    pairs.sort(key=lambda p: p[0].real)
    return pairs


def _label_roots(roots) -> EigenSet:
    rs = sorted((complex(z) for z in roots), key=lambda z: (z.real, z.imag))
    (low_rep, low_part), (up_rep, up_part) = _pair_by_mirror(rs)

    def on_axis(p):
        return abs(p[0].real) <= AXIS_TOL and abs(p[1].real) <= AXIS_TOL

    gap = False
    if on_axis((low_rep, low_part)):
        # Purely damped pair: order by damping, least damped is the branch.
        low_rep, low_part = sorted((low_rep, low_part), key=lambda w: -w.imag)
        gap = abs(low_rep.imag - low_part.imag) > SPLIT_TOL
    if on_axis((up_rep, up_part)):
        up_rep, up_part = sorted((up_rep, up_part), key=lambda w: -w.imag)
    return EigenSet(
        roots=tuple(rs),
        lower=low_rep,
        upper=up_rep,
        lower_pair=(low_rep, low_part),
        upper_pair=(up_rep, up_part),
        gap=gap,
    )


def _require_ohmic(params: ModelParams) -> None:
    if params.bath_a.exponent_s != 0.0 or params.bath_b.exponent_s != 0.0:
        raise ValueError("this solver requires ohmic baths (s = 0 on both ports)")


def open_eigenfrequencies_ohmic(params: ModelParams) -> EigenSet:
    """Eigenfrequencies for constant damping rates: the four eigenvalues of
    the constant matrix A - i Gamma / 2 in the phase-appropriate form."""
    _require_ohmic(params)
    pd = derive_phase(params)
    a = build_system(pd, params).a_matrix
    gam = build_gamma(pd, params, 1.0, INPUT)
    return _label_roots(np.linalg.eigvals(a - 0.5j * gam))


def open_eigenfrequencies_companion(params: ModelParams) -> EigenSet:
    """Same spectrum through the other ohmic route: roots of the explicit
    quartic via its companion matrix. Kept as an independent cross-check of
    the direct eigensolve."""
    _require_ohmic(params)
    pd = derive_phase(params)
    return _label_roots(np.roots(zeta_quartic_coeffs(pd, params, INPUT)))


AXIS_SWITCH = 1e-8  # |Re| below which the continuation treats a root as on-axis


def _newton_complex(f, w0: complex, const_term: float, subohmic: bool) -> complex:
    """Polish one off-axis root of the scalar function f by damped Newton.

    The derivative is a central difference with step 1e-7 max(1, |w|); the
    analytic derivative would be branch sensitive through the continued
    gamma(omega). The difference is taken parallel to the nearer axis so it
    never straddles the continuation cut on the imaginary axis, and every
    iterate is reflected into Re >= 0 (free of charge: the mirror symmetry
    zeta(-conj w) = conj zeta(w) leaves the residual unchanged). Iterates
    that drift inside PIN_RADIUS while zeta(0) vanishes are pinned to
    exactly 0, which also sidesteps the subohmic singularity there.
    """
    w = complex(w0)
    if w.real < 0.0:
        w = _mirror(w)
    for _ in range(NEWTON_MAXIT):
        if abs(w) < PIN_RADIUS:
            if abs(const_term) < PIN_CONST:
                return 0.0 + 0.0j
            if subohmic and abs(w) < 1e-13:
                raise ConvergenceError(
                    "iterate collapsed onto the singular origin", w, abs(const_term)
                )
        fw = f(w)
        h = 1e-7 * max(1.0, abs(w))
        step = h if abs(w.real) >= 10.0 * h else 1j * h
        df = (f(w + step) - f(w - step)) / (2.0 * step)
        if df == 0:
            raise ConvergenceError("vanishing derivative", w, abs(fw))
        dw = -fw / df
        scale = 1.0
        wn = w + dw
        if wn.real < 0.0:
            wn = _mirror(wn)
        fn = f(wn)
        while abs(fn) > abs(fw) and scale > 1.0 / 256.0:
            scale *= 0.5
            wn = w + scale * dw
            if wn.real < 0.0:
                wn = _mirror(wn)
            fn = f(wn)
        if abs(fn) > abs(fw) and abs(scale * dw) > NEWTON_TOL:
            raise ConvergenceError("backtracking stalled", w, abs(fw))
        moved = abs(wn - w)
        w = wn
        if moved < NEWTON_TOL:
            return w
    raise ConvergenceError("no convergence within iteration budget", w, abs(f(w)))


def _newton_axis(f, y0: float, const_term: float, subohmic: bool) -> float:
    """Polish one purely damped root: the rate y > 0 solving the real
    equation zeta(-i y) = 0 (real because gamma is real on the axis)."""
    y = float(y0)
    for _ in range(NEWTON_MAXIT):
        if abs(y) < PIN_RADIUS:
            if abs(const_term) < PIN_CONST:
                return 0.0
            if subohmic and abs(y) < 1e-13:
                raise ConvergenceError(
                    "iterate collapsed onto the singular origin", -1j * y, abs(const_term)
                )
        fy = f(y)
        h = 1e-7 * max(1.0, abs(y))
        df = (f(y + h) - f(y - h)) / (2.0 * h)
        if df == 0:
            raise ConvergenceError("vanishing derivative", -1j * y, abs(fy))
        dy = -fy / df
        scale = 1.0
        yn = y + dy
        fn = f(yn)
        while abs(fn) > abs(fy) and scale > 1.0 / 256.0:
            scale *= 0.5
            yn = y + scale * dy
            fn = f(yn)
        if abs(fn) > abs(fy) and abs(scale * dy) > NEWTON_TOL:
            raise ConvergenceError("backtracking stalled", -1j * y, abs(fy))
        moved = abs(yn - y)
        y = yn
        if moved < NEWTON_TOL:
            if y < -1e-10:
                raise ConvergenceError("axis root crossed into the upper half plane", -1j * y, abs(fn))
            return max(y, 0.0)
    raise ConvergenceError("no convergence within iteration budget", -1j * y, abs(f(y)))


def _classify_pairs(roots) -> list[tuple]:
    """Continuation state: each mirror pair is either ('off', rep) with the
    Re >= 0 representative, or ('axis', y_soft, y_hard) for two purely
    damped rates."""
    state: list[tuple] = []
    for rep, part in _pair_by_mirror(roots):
        if abs(rep.real) <= AXIS_SWITCH and abs(part.real) <= AXIS_SWITCH:
            ys = sorted((-rep.imag, -part.imag))
            state.append(("axis", ys[0], ys[1]))
        else:
            w = rep if rep.real >= 0 else _mirror(rep)
            state.append(("off", w))
    return state


def _pairs_to_roots(state) -> list[complex]:
    roots: list[complex] = []
    for pair in state:
        if pair[0] == "off":
            w = pair[1]
            roots.extend((w, _mirror(w)))
        else:
            roots.extend((complex(0.0, -pair[1]), complex(0.0, -pair[2])))
    return roots


def _advance_pairs(system: BogoliubovSystem, state, const: float, subohmic: bool) -> list[tuple]:
    """Move every root pair to the spectrum of the stepped system, letting
    pairs migrate between the off-axis and on-axis regimes as the gap
    boundaries shift with the exponent."""

    def f(w):
        return zeta_from_system(system, w, INPUT)

    def f_axis(y):
        return zeta_from_system(system, complex(0.0, -y), INPUT).real

    new_state: list[tuple] = []
    for pair in state:
        if pair[0] == "off":
            w = _newton_complex(f, pair[1], const, subohmic)
            if abs(w.real) > AXIS_SWITCH or abs(w) < PIN_RADIUS:
                new_state.append(("off", w))
                continue
            # The pair collapsed onto the imaginary axis: split the double
            # rate into the two damped solutions emerging around it.
            y_mid = -w.imag
            ys = sorted(
                _newton_axis(f_axis, y_mid * (1.0 + off), const, subohmic)
                for off in (-1e-3, 1e-3)
            )
            new_state.append(("axis", ys[0], ys[1]))
        else:
            _, y_a, y_b = pair
            try:
                ya = _newton_axis(f_axis, y_a, const, subohmic)
                yb = _newton_axis(f_axis, y_b, const, subohmic)
            except ConvergenceError:
                # No real zero left near the previous rates: the pair has
                # annihilated on the axis and moved sideways. Chase it in the
                # complex plane; if that lands back on the axis the stall was
                # genuine, so reraise for the outer step control.
                delta = max(1e-6, abs(y_a - y_b))
                w = _newton_complex(f, complex(delta, -0.5 * (y_a + y_b)), const, subohmic)
                if abs(w.real) <= AXIS_SWITCH:
                    raise
                new_state.append(("off", w))
                continue
            collided = abs(ya - yb) < 1e-10 and max(abs(ya), abs(yb)) > PIN_RADIUS
            if not collided:
                ys = sorted((ya, yb))
                new_state.append(("axis", ys[0], ys[1]))
                continue
            # The two rates merged exactly: the pair leaves the axis sideways.
            delta = max(1e-6, 2.0 * abs(y_a - y_b))
            w = _newton_complex(f, complex(delta, -0.5 * (ya + yb)), const, subohmic)
            new_state.append(("off", w))
    return new_state


def open_eigenfrequencies_nonohmic(params: ModelParams) -> EigenSet:
    """Eigenfrequencies for power-law baths by continuation in the exponent.

    The ohmic spectrum at the same amplitudes seeds the homotopy; the
    exponents then move toward their targets in steps of at most
    EXPONENT_STEP, every root Newton-polished at each step (purely damped
    pairs through the real on-axis equation, the rest in the complex plane).
    A failing step is halved and retried, up to MAX_HALVINGS times.
    """
    pd = derive_phase(params)
    system = build_system(pd, params)
    sa, sb = system.bath_a.exponent_s, system.bath_b.exponent_s
    g0a, g0b = system.bath_a.gamma0, system.bath_b.gamma0
    gam0 = np.zeros((4, 4), dtype=complex)
    gam0[0, 0] = gam0[1, 1] = g0a
    gam0[0, 1] = gam0[1, 0] = -g0a
    gam0[2, 2] = gam0[3, 3] = g0b
    gam0[2, 3] = gam0[3, 2] = -g0b
    roots = [complex(z) for z in np.linalg.eigvals(system.a_matrix - 0.5j * gam0)]
    const = zeta_constant_term(pd, params)

    s_max = max(abs(sa), abs(sb))
    if s_max == 0.0:
        return _label_roots(roots)
    state = _classify_pairs(roots)
    dt_init = min(1.0, EXPONENT_STEP / s_max)
    t, dt = 0.0, dt_init
    halvings = 0
    while t < 1.0 - 1e-15:
        t_next = min(1.0, t + dt)
        stepped = BogoliubovSystem(
            phase=system.phase,
            a_matrix=system.a_matrix,
            bath_a=replace(system.bath_a, exponent_s=t_next * sa),
            bath_b=replace(system.bath_b, exponent_s=t_next * sb),
        )
        subohmic = min(t_next * sa, t_next * sb) < 0.0
        try:
            state = _advance_pairs(stepped, state, const, subohmic)
        except ConvergenceError:
            halvings += 1
            if halvings > MAX_HALVINGS:
                raise
            dt *= 0.5
            continue
        t = t_next
        dt = min(dt_init, 2.0 * dt)
    return _label_roots(_pairs_to_roots(state))


def open_eigenfrequencies(params: ModelParams) -> EigenSet:
    """Dispatch on the bath exponents: direct eigensolve when both are
    ohmic, exponent continuation otherwise."""
    if params.bath_a.exponent_s == 0.0 and params.bath_b.exponent_s == 0.0:
        return open_eigenfrequencies_ohmic(params)
    return open_eigenfrequencies_nonohmic(params)


def locate_critical(params: ModelParams, g_lo: float = 0.0, g_hi: float | None = None) -> float:
    """Bisect the coupling where the zero-frequency term of zeta changes sign.

    That term is omega_a^2 omega_b^2 - 4 g^2 omega_a omega_b: no bath
    quantity enters it, so the result is identical for every damping law.
    The default bracket is [0, 2 g_c].
    """
    wa, wb = params.omega_a, params.omega_b
    if g_hi is None:
        g_hi = float(np.sqrt(wa * wb))

    def const(g: float) -> float:
        return wa * wa * wb * wb - 4.0 * g * g * wa * wb

    lo, hi = float(g_lo), float(g_hi)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"the bisection bracket must be finite, got [{g_lo}, {g_hi}]")
    c_lo, c_hi = const(lo), const(hi)
    if c_lo == 0.0:
        return lo
    if c_hi == 0.0:
        return hi
    if c_lo * c_hi > 0.0:
        raise ValueError(
            f"no sign change of the zero-frequency term on [{g_lo}, {g_hi}]"
        )
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        c_mid = const(mid)
        if c_mid == 0.0:
            return mid
        if c_lo * c_mid < 0.0:
            hi = mid
        else:
            lo, c_lo = mid, c_mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class BranchTable:
    """Labeled eigenfrequency branches along a parameter sweep."""

    axis: str
    values: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    lower_mirror: np.ndarray
    upper_mirror: np.ndarray
    gap: np.ndarray
    phases: tuple[Phase, ...]


_LABELS = ("lower", "upper", "lower_mirror", "upper_mirror")


def _greedy_match(prev: dict[str, complex], roots) -> dict[str, complex]:
    cand = list(roots)
    scored = sorted(
        (abs(cand[i] - prev[lab]), lab, i) for lab in _LABELS for i in range(len(cand))
    )
    assigned: dict[str, complex] = {}
    used: set[int] = set()
    for _, lab, i in scored:
        if lab in assigned or i in used:
            continue
        assigned[lab] = cand[i]
        used.add(i)
    return assigned


def sweep_eigenfrequencies(
    params: ModelParams,
    axis: str,
    grid,
    eigensets: list[EigenSet] | None = None,
) -> BranchTable:
    """Track the four labeled branches along an ascending grid of g or omega_b.

    Each point is solved with the phase selected by its own lambda; branch
    identity follows from a greedy minimal-distance assignment against the
    previous point (in the gap this reduces to continuity of the imaginary
    parts, since the real parts all vanish there). Precomputed eigensets may
    be passed in, which lets callers parallelize the per-point solves; the
    labeling pass itself is a sequential reduction.
    """
    if axis not in ("g", "omega_b"):
        raise ValueError(f"sweep axis must be 'g' or 'omega_b', got {axis!r}")
    values = np.asarray(grid, dtype=float)
    if values.size == 0:
        raise ValueError("sweep grid must be nonempty")
    if np.any(np.diff(values) < 0):
        raise ValueError("sweep grid must be sorted ascending")

    n = values.size
    cols = {lab: np.empty(n, dtype=complex) for lab in _LABELS}
    gap = np.zeros(n, dtype=bool)
    phases: list[Phase] = []
    prev: dict[str, complex] | None = None
    for i, v in enumerate(values):
        p = replace(params, **{axis: float(v)})
        if eigensets is not None:
            es = eigensets[i]
        else:
            try:
                es = open_eigenfrequencies(p)
            except ConvergenceError as exc:
                raise ConvergenceError(
                    f"sweep failed at {axis} = {v}: {exc}", exc.last_iterate, exc.residual
                ) from exc
        if prev is None:
            lab = {
                "lower": es.lower,
                "upper": es.upper,
                "lower_mirror": es.lower_pair[1],
                "upper_mirror": es.upper_pair[1],
            }
        else:
            lab = _greedy_match(prev, es.roots)
            # Exiting the gap, minimal distance may hand the branch label to
            # the negative-frequency member; the physical branch keeps the
            # nonnegative real part once the pair is off the axis again.
            for name, mirror in (("lower", "lower_mirror"), ("upper", "upper_mirror")):
                if lab[name].real < -AXIS_TOL and lab[mirror].real > AXIS_TOL:
                    lab[name], lab[mirror] = lab[mirror], lab[name]
        for name in _LABELS:
            cols[name][i] = lab[name]
        pair = (lab["lower"], lab["lower_mirror"])
        gap[i] = (
            abs(pair[0].real) <= AXIS_TOL
            and abs(pair[1].real) <= AXIS_TOL
            and abs(pair[0].imag - pair[1].imag) > SPLIT_TOL
        )
        phases.append(derive_phase(p).phase)
        prev = lab
    return BranchTable(
        axis=axis,
        values=values,
        lower=cols["lower"],
        upper=cols["upper"],
        lower_mirror=cols["lower_mirror"],
        upper_mirror=cols["upper_mirror"],
        gap=gap,
        phases=tuple(phases),
    )
