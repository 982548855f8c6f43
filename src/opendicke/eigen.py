"""Closed and open excitation spectra.

One solver, `open_eigenfrequencies`, covers every bath. It starts from the
four eigenvalues of the constant matrix A - i Gamma(1) / 2, which are the
open-system eigenfrequencies outright when both baths are ohmic (s = 0).
Otherwise zeta(omega) = 0 is transcendental, and the solver continues those
roots in the bath exponent: it walks s from 0 toward its target in capped
increments, polishing every root at each step with one damped Newton
(`_newton`): in the complex plane, or for a purely damped pair in the real
rate y of zeta(-i y) = 0.

All physical roots live in the closed lower half plane (causality). Between
the phases a gap can open where the lower root pair collapses onto the
imaginary axis and splits into two distinct purely damped solutions.
"""

from __future__ import annotations

import functools
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .model import BathSpec, ModelParams, Phase, PhaseData, derive_phase, real_grid, resolve_point
from .matrices import (
    INPUT,
    BogoliubovSystem,
    build_a_matrix,
    build_gamma,
    build_system,
    zeta_constant_term,
    zeta_from_system,
)

__all__ = [
    "AXIS_TOL",
    "ConvergenceError",
    "EigenSet",
    "BranchTable",
    "closed_eigenfrequencies",
    "open_eigenfrequencies",
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
        self.message = message
        self.last_iterate = last_iterate
        self.residual = residual

    def __reduce__(self):  # args holds only the formatted text
        return type(self), (self.message, self.last_iterate, self.residual)


@contextmanager
def sweep_point(axis: str, value):
    """Name the sweep point in a ConvergenceError raised by the enclosed solve."""
    try:
        yield
    except ConvergenceError as exc:
        message = f"sweep failed at {axis} = {value}: {exc.message}"
        raise ConvergenceError(message, exc.last_iterate, exc.residual) from exc


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

    Both phases solve one biquadratic in closed form,

        (w^2 - omega_a^2)(w^2 - B) = 4 g~^2 omega_a omega_b~,
        B = omega_b~^2 + 4 d omega_b~,

    with omega_b~, g~ and d from PhaseData: the bare omega_b and g, and
    d = 0, at and below the transition, so there B = omega_b^2 exactly. The
    lower root is zeta(0) / hi^2 by Vieta, free of the cancellation in lo^2.
    """
    pd = derive_phase(params)
    wa, wb = params.omega_a, pd.omega_b_tilde
    wa2, b = wa**2, wb**2 + 4.0 * pd.d_term * wb
    disc = math.sqrt((wa2 - b) ** 2 + 16.0 * pd.g_tilde**2 * wa * wb)
    hi2 = 0.5 * (wa2 + b + disc)
    lo2 = max(0.0, zeta_constant_term(pd, params)) / hi2
    return math.sqrt(lo2), math.sqrt(hi2)


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


def _on_axis(a: complex, b: complex, tol: float = AXIS_TOL) -> bool:
    return abs(a.real) <= tol and abs(b.real) <= tol


def _is_gap(a: complex, b: complex) -> bool:
    """The gap rule: a mirror pair on the axis with two distinct rates."""
    return _on_axis(a, b) and abs(a.imag - b.imag) > SPLIT_TOL


def _label_roots(roots) -> EigenSet:
    rs = sorted((complex(z) for z in roots), key=lambda z: (z.real, z.imag))
    (low_rep, low_part), (up_rep, up_part) = _pair_by_mirror(rs)
    if _on_axis(low_rep, low_part):
        # Purely damped pair: order by damping, least damped is the branch.
        low_rep, low_part = sorted((low_rep, low_part), key=lambda w: -w.imag)
    if _on_axis(up_rep, up_part):
        up_rep, up_part = sorted((up_rep, up_part), key=lambda w: -w.imag)
    return EigenSet(
        roots=tuple(rs),
        lower=low_rep,
        upper=up_rep,
        lower_pair=(low_rep, low_part),
        upper_pair=(up_rep, up_part),
        gap=_is_gap(low_rep, low_part),
    )


def _ohmic_roots(pd: PhaseData, params: ModelParams) -> np.ndarray:
    """Eigenvalues of A - i Gamma(1) / 2. Gamma(1) holds the amplitudes
    gamma0 exactly for every exponent (gamma0 * 1.0**s == gamma0), so this
    is the ohmic spectrum at the same amplitudes."""
    return np.linalg.eigvals(build_a_matrix(pd, params) - 0.5j * build_gamma(pd, params, 1.0, INPUT))


AXIS_SWITCH = 1e-8  # |Re| below which the continuation treats a root as on-axis


def _newton(f, x0, const_term: float, subohmic: bool, axis: bool):
    """Polish one root of the scalar function f by damped Newton: a complex
    frequency w, or with axis=True the rate y of a purely damped root -i y,
    for which f(y) = zeta(-i y) is real (gamma is real on the axis).

    The derivative is a central difference with step 1e-7 max(1, |x|); the
    analytic derivative would be branch sensitive through the continued
    gamma(omega). Off the axis it is taken parallel to the nearer axis so it
    never straddles the cut, and every iterate is reflected into Re >= 0
    (the mirror symmetry zeta(-conj w) = conj zeta(w) keeps the residual).
    Iterates inside PIN_RADIUS while zeta(0) vanishes are pinned to exactly
    0, which also sidesteps the subohmic singularity there.

    A residual that is not finite never counts as progress: a starting one
    raises at once, and a trial one is backtracked like a larger residual.
    A step that is NaN, or whose trials stay non-finite down to the last
    halving, stalls instead of iterating on NaN.

    f is pure, so each iterate's residual is evaluated once: the residual of
    the accepted step is carried into the next iteration, and a run of k
    iterations costs 1 + 3k evaluations plus one per step halving.
    """

    def at(x):
        return -1j * x if axis else x

    x = float(x0) if axis else complex(x0)
    if not axis and x.real < 0.0:
        x = -x.conjugate()
    fx = None
    for _ in range(NEWTON_MAXIT):
        ax = abs(x)
        if ax < PIN_RADIUS:
            if abs(const_term) < PIN_CONST:
                return 0.0 if axis else 0.0 + 0.0j
            if subohmic and ax < 1e-13:
                raise ConvergenceError(
                    "iterate collapsed onto the singular origin", at(x), abs(const_term)
                )
        if fx is None:
            fx = f(x)
            afx = abs(fx)
            if not math.isfinite(afx):
                raise ConvergenceError("residual is not finite", at(x), afx)
        h = 1e-7 * (ax if ax > 1.0 else 1.0)
        step = h if axis or abs(x.real) >= 10.0 * h else 1j * h
        df = (f(x + step) - f(x - step)) / (2.0 * step)
        if df == 0:
            raise ConvergenceError("vanishing derivative", at(x), afx)
        dx = -fx / df
        scale = 1.0
        xn = x + dx
        while True:
            if not axis and xn.real < 0.0:
                xn = -xn.conjugate()
            fn = f(xn)
            afn = abs(fn)
            if afn <= afx or scale <= 1.0 / 256.0:
                break
            scale *= 0.5
            xn = x + scale * dx
        if not afn <= afx and not abs(scale * dx) <= NEWTON_TOL:
            raise ConvergenceError("backtracking stalled", at(x), afx)
        moved = abs(xn - x)
        x, fx, afx = xn, fn, afn
        if moved < NEWTON_TOL:
            if not axis:
                return x
            if x < -1e-10:
                raise ConvergenceError("axis root crossed into the upper half plane", at(x), afn)
            return max(x, 0.0)
    raise ConvergenceError("no convergence within iteration budget", at(x), afx)


def _classify_pairs(roots) -> list[tuple]:
    """Continuation state: each mirror pair is either ('off', rep) with the
    Re >= 0 representative, or ('axis', y_soft, y_hard) for two purely
    damped rates."""
    state: list[tuple] = []
    for rep, part in _pair_by_mirror(roots):
        if _on_axis(rep, part, AXIS_SWITCH):
            state.append(("axis", *sorted((-rep.imag, -part.imag))))
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

    f = functools.partial(zeta_from_system, system)

    def f_axis(y):
        return zeta_from_system(system, complex(0.0, -y), INPUT).real

    new_state: list[tuple] = []
    for pair in state:
        if pair[0] == "off":
            w = _newton(f, pair[1], const, subohmic, axis=False)
            if abs(w.real) > AXIS_SWITCH or abs(w) < PIN_RADIUS:
                new_state.append(("off", w))
                continue
            # The pair collapsed onto the imaginary axis: split the double
            # rate into the two damped solutions emerging around it.
            y_mid = -w.imag
            ys = sorted(
                _newton(f_axis, y_mid * (1.0 + off), const, subohmic, axis=True)
                for off in (-1e-3, 1e-3)
            )
            new_state.append(("axis", *ys))
        else:
            _, y_a, y_b = pair
            try:
                ya = _newton(f_axis, y_a, const, subohmic, axis=True)
                yb = _newton(f_axis, y_b, const, subohmic, axis=True)
            except ConvergenceError:
                # No real zero left near the previous rates: the pair has
                # annihilated on the axis and moved sideways. Chase it in the
                # complex plane; if that lands back on the axis the stall was
                # genuine, so reraise for the outer step control.
                delta = max(1e-6, abs(y_a - y_b))
                w = _newton(f, complex(delta, -0.5 * (y_a + y_b)), const, subohmic, axis=False)
                if abs(w.real) <= AXIS_SWITCH:
                    raise
                new_state.append(("off", w))
                continue
            collided = abs(ya - yb) < 1e-10 and max(abs(ya), abs(yb)) > PIN_RADIUS
            if not collided:
                new_state.append(("axis", *sorted((ya, yb))))
                continue
            # The two rates merged exactly: the pair leaves the axis sideways.
            delta = max(1e-6, 2.0 * abs(y_a - y_b))
            w = _newton(f, complex(delta, -0.5 * (ya + yb)), const, subohmic, axis=False)
            new_state.append(("off", w))
    return new_state


def _continue_exponents(system: BogoliubovSystem, const: float, roots, step: float) -> EigenSet:
    """Continue the ohmic roots to the system's bath exponents, moving them
    in increments of at most step. A failing increment is halved and
    retried, up to MAX_HALVINGS times."""
    sa, sb = system.bath_a.exponent_s, system.bath_b.exponent_s
    state = _classify_pairs(roots)
    dt_init = min(1.0, step / max(abs(sa), abs(sb)))
    t, dt = 0.0, dt_init
    halvings = 0
    while t < 1.0 - 1e-15:
        t_next = min(1.0, t + dt)
        stepped = BogoliubovSystem(
            system.a_entries,
            BathSpec(system.bath_a.gamma0, t_next * sa),
            BathSpec(system.bath_b.gamma0, t_next * sb),
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
    """The four complex eigenfrequencies for any admissible bath.

    The eigenvalues of A - i Gamma / 2 at the same amplitudes with s = 0
    are the answer for ohmic baths and the seed of a homotopy otherwise:
    the exponents move toward their targets in steps of at most
    EXPONENT_STEP, every root Newton-polished at each step (purely damped
    pairs through the real on-axis equation, the rest in the complex plane).
    A coarse step can let two tracked roots fall onto one zero, so when
    both branches coincide the continuation reruns at a fifth of the step,
    then at a twenty-fifth, and keeps the first rerun that completes with
    them apart; genuinely coincident branches are returned as they are.
    """
    pd = derive_phase(params)
    system = build_system(pd, params)
    roots = _ohmic_roots(pd, params)
    if system.bath_a.exponent_s == 0.0 and system.bath_b.exponent_s == 0.0:
        return _label_roots(roots)
    const = zeta_constant_term(pd, params)
    first = None
    for step in (EXPONENT_STEP, EXPONENT_STEP / 5, EXPONENT_STEP / 25):
        try:
            es = _continue_exponents(system, const, roots, step)
        except ConvergenceError:
            if first is None:
                raise
            continue
        if abs(es.lower - es.upper) > SPLIT_TOL * max(abs(es.lower), abs(es.upper)):
            return es
        first = first or es
    return first


def locate_critical(params: ModelParams) -> float:
    """The coupling where the zero-frequency term of zeta changes sign.

    That term is omega_a^2 omega_b^2 - 4 g^2 omega_a omega_b: no bath
    quantity enters it, so its root is g_c = sqrt(omega_a omega_b) / 2 for
    every damping law, returned in closed form.
    """
    return derive_phase(params).g_c


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
    values = real_grid(grid, "sweep grid")
    if np.any(np.diff(values) < 0):
        raise ValueError("sweep grid must be sorted ascending")
    if eigensets is not None and len(eigensets) != values.size:
        raise ValueError(f"{len(eigensets)} eigensets for a sweep grid of {values.size} values")

    # Every value is resolved before any is solved, so a value that leaves
    # the model's domain is reported as such wherever it sits in the grid.
    points = [resolve_point(params, axis, v) for v in values.tolist()]
    n = values.size
    cols = {lab: np.empty(n, dtype=complex) for lab in _LABELS}
    gap = np.zeros(n, dtype=bool)
    phases: list[Phase] = []
    prev: dict[str, complex] | None = None
    for i, (v, p) in enumerate(zip(values, points)):
        if eigensets is not None:
            es = eigensets[i]
        else:
            with sweep_point(axis, v):
                es = open_eigenfrequencies(p)
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
        gap[i] = _is_gap(lab["lower"], lab["lower_mirror"])
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
