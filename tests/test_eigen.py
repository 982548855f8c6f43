import math
import pickle
from decimal import Decimal, localcontext

import numpy as np
import pytest

import opendicke.eigen as eigen_mod
from opendicke.model import Phase, derive_phase
from opendicke.matrices import INPUT, build_a_matrix, build_system, m_matrix, zeta_from_system
from opendicke.eigen import (
    ConvergenceError,
    closed_eigenfrequencies,
    locate_critical,
    open_eigenfrequencies,
    sweep_eigenfrequencies,
    sweep_point,
)

from conftest import make
from oracles import zeta_quartic_coeffs


def biquadratic_roots(wa, wb, g):
    """Independent closed-spectrum oracle: solve the quadratic in Omega^2."""
    s, prod = wa**2 + wb**2, wa**2 * wb**2 - 4.0 * g**2 * wa * wb
    disc = math.sqrt(s * s - 4.0 * prod)
    lo2, hi2 = (s - disc) / 2.0, (s + disc) / 2.0
    return math.sqrt(max(lo2, 0.0)), math.sqrt(hi2)


def decimal_closed_roots(params):
    """The biquadratic's roots at 50 digits from the same PhaseData doubles."""
    pd = derive_phase(params)
    with localcontext() as ctx:
        ctx.prec = 50
        wa, wb, g, d = map(Decimal, (params.omega_a, pd.omega_b_tilde, pd.g_tilde, pd.d_term))
        wa2, b = wa * wa, wb * wb + 4 * d * wb
        disc = ((wa2 - b) ** 2 + 16 * g * g * wa * wb).sqrt()
        return ((wa2 + b - disc) / 2).sqrt(), ((wa2 + b + disc) / 2).sqrt()


def open_eigenfrequencies_companion(params):
    """Independent ohmic reference: the roots of the explicit quartic via its
    companion matrix, labeled like the solver's. zeta_quartic_coeffs rejects
    non-ohmic baths."""
    pd = derive_phase(params)
    return eigen_mod._label_roots(np.roots(zeta_quartic_coeffs(pd, params, INPUT)))


def decoupled_open_root(w0, g0):
    """Quadratic-formula oracle for one damped port: w^2 + i g0 w - w0^2 = 0."""
    return math.sqrt(w0**2 - g0**2 / 4.0) - 0.5j * g0


class TestClosedSpectrum:
    def test_resonant_below_critical(self):
        lo, hi = closed_eigenfrequencies(make(g=0.18))
        ref_lo, ref_hi = biquadratic_roots(1.0, 1.0, 0.18)
        assert abs(lo - ref_lo) < 1e-12 and abs(hi - ref_hi) < 1e-12
        assert abs(lo - 0.8) < 1e-10
        assert abs(hi - 1.1661903789690602) < 1e-12
        assert abs(hi - 1.166190) < 1e-6

    def test_softening_at_critical(self):
        lo, hi = closed_eigenfrequencies(make(g=0.5))
        assert abs(lo) < 1e-12
        assert abs(hi - math.sqrt(2.0)) < 1e-12

    def test_decoupled(self):
        assert closed_eigenfrequencies(make(omega_a=1.3, omega_b=0.7)) == (0.7, 1.3)

    def test_superradiant_against_biquadratic_oracle(self):
        # Above the transition the same quadratic-in-Omega^2 oracle applies
        # with the renormalized matter frequency and the quadratic shift.
        p = make(g=2**-0.5)
        pd = derive_phase(p)
        wbt, gt, d = pd.omega_b_tilde, pd.g_tilde, pd.d_term
        s = 1.0 + wbt**2 + 4.0 * d * wbt
        prod = wbt**2 + 4.0 * d * wbt - 4.0 * gt**2 * wbt
        disc = math.sqrt(s * s - 4.0 * prod)
        lo_ref = math.sqrt((s - disc) / 2.0)
        hi_ref = math.sqrt((s + disc) / 2.0)
        lo, hi = closed_eigenfrequencies(p)
        assert abs(lo - lo_ref) < 1e-12 and abs(hi - hi_ref) < 1e-12
        assert lo > 0.0

    @pytest.mark.parametrize(
        "wa, wb, lam, hi_bits",
        [
            (0.5, 2.0, 50.0, "0x1.900000218e265p+6"),
            (0.2, 3.0, 3.0, "0x1.200206091c259p+3"),
            (0.2, 3.0, 0.9, "0x1.80c47fa9a26a8p+1"),
        ],
    )
    def test_lower_root_is_free_of_cancellation(self, wa, wb, lam, hi_bits):
        # lo^2 = (wa^2 + B - disc) / 2 lost 1e-13 to 9e-13 here; Vieta's
        # zeta(0) / hi^2 keeps the lower root to an ulp or two.
        p = make(omega_a=wa, omega_b=wb, g=0.5 * math.sqrt(lam * wa * wb))
        lo, hi = closed_eigenfrequencies(p)
        ref_lo, _ = decimal_closed_roots(p)
        assert abs(Decimal(lo) - ref_lo) <= Decimal("2e-15") * ref_lo
        assert hi == float.fromhex(hi_bits)

    def test_rises_again_in_superradiant_phase(self):
        lo_near = closed_eigenfrequencies(make(g=0.505))[0]
        lo_far = closed_eigenfrequencies(make(g=0.6))[0]
        assert 0.0 < lo_near < lo_far

    def test_superradiant_against_dynamical_matrix(self):
        # The two nonnegative eigenvalues of the renormalized A are the
        # closed spectrum by definition; the biquadratic must reproduce them.
        rng = np.random.default_rng(61)
        for _ in range(300):
            wa, wb = rng.uniform(0.5, 1.5, 2)
            p = make(omega_a=wa, omega_b=wb, g=0.5 * math.sqrt(rng.uniform(1.02, 6.0) * wa * wb))
            pd = derive_phase(p)
            assert pd.phase is Phase.SUPERRADIANT
            ref = np.sort(np.linalg.eigvals(build_a_matrix(pd, p)).real)[2:]
            for got, want in zip(closed_eigenfrequencies(p), ref):
                assert math.isclose(got, want, rel_tol=1e-13)

    @pytest.mark.parametrize("k", [1e-6, 1e-3, 1e3, 1e6])
    def test_scale_covariant(self, k):
        # Frequencies and coupling in a k times smaller unit: the energies
        # scale by k, in both phases, away from the soft mode at g_c.
        rng = np.random.default_rng(62)
        for lam in np.concatenate([rng.uniform(0.0, 0.8, 20), rng.uniform(1.25, 4.0, 20)]):
            wa, wb = rng.uniform(0.5, 1.5, 2)
            g = 0.5 * math.sqrt(lam * wa * wb)
            unit = closed_eigenfrequencies(make(omega_a=wa, omega_b=wb, g=g))
            scaled = closed_eigenfrequencies(make(omega_a=k * wa, omega_b=k * wb, g=k * g))
            for got, want in zip(scaled, unit):
                assert math.isclose(got, k * want, rel_tol=1e-13)


class TestOpenOhmic:
    def test_decoupled_oracle(self):
        es = open_eigenfrequencies(make(g=0.0, ga=0.3, gb=0.1))
        ref_a = decoupled_open_root(1.0, 0.3)
        ref_b = decoupled_open_root(1.0, 0.1)
        assert abs(ref_a - (0.9886859966642595 - 0.15j)) < 1e-15
        roots = np.array(es.roots)
        assert np.min(np.abs(roots - ref_a)) < 1e-12
        assert np.min(np.abs(roots - ref_b)) < 1e-12
        assert np.min(np.abs(roots - (-np.conj(ref_a)))) < 1e-12

    def test_zero_root_at_critical(self):
        es = open_eigenfrequencies(make(g=0.5, ga=0.3, gb=0.2))
        assert min(abs(z) for z in es.roots) < 1e-10

    def test_lossless_limit_matches_closed(self):
        p = make(omega_a=1.1, omega_b=0.9, g=0.25)
        lo, hi = closed_eigenfrequencies(p)
        es = open_eigenfrequencies(p)
        roots = np.array(sorted(es.roots, key=lambda z: z.real))
        expected = np.array([-hi, -lo, lo, hi])
        assert np.max(np.abs(roots - expected)) < 1e-12
        assert np.max(np.abs(roots.imag)) < 1e-12

    def test_companion_route_agrees(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            p = make(
                omega_a=rng.uniform(0.5, 1.5),
                omega_b=rng.uniform(0.5, 1.5),
                g=rng.uniform(0.0, 1.0),
                ga=rng.uniform(0.0, 0.5),
                gb=rng.uniform(0.0, 0.5),
            )
            direct = np.sort_complex(np.array(open_eigenfrequencies(p).roots))
            comp = np.sort_complex(np.array(open_eigenfrequencies_companion(p).roots))
            assert np.max(np.abs(direct - comp)) < 1e-10

    def test_requires_ohmic(self):
        with pytest.raises(ValueError):
            open_eigenfrequencies_companion(make(ga=0.1, sa=0.5))

    def test_labels_and_pairs(self):
        es = open_eigenfrequencies(make(g=0.3, ga=0.3, gb=0.1))
        assert es.lower.real > 0 and es.upper.real > es.lower.real
        assert abs(es.lower_pair[1] + np.conj(es.lower)) < 1e-12
        assert abs(es.upper_pair[1] + np.conj(es.upper)) < 1e-12
        assert not es.gap


class TestOpenNonohmic:
    def test_degenerate_homotopy(self):
        # A one-step continuation to s = (1e-9, -1e-9) moves gamma by about
        # 1e-9 relative, so the polished roots stay at the ohmic ones.
        a = np.sort_complex(np.array(open_eigenfrequencies(make(g=0.3, ga=0.3, gb=0.2)).roots))
        p = make(g=0.3, ga=0.3, gb=0.2, sa=1e-9, sb=-1e-9)
        b = np.sort_complex(np.array(open_eigenfrequencies(p).roots))
        assert np.max(np.abs(a - b)) < 1e-8

    def test_decoupled_subohmic_scalar_oracle(self):
        # Independent one-port oracle with analytic derivative:
        # w^2 + i g0 (w^2)^(-1/4) w - 1 = 0.
        g0 = 0.3

        def oracle():
            w = 1.0 - 0.1j
            for _ in range(100):
                f = w * w + 1j * g0 * (w * w) ** -0.25 * w - 1.0
                df = 2.0 * w + 0.75j * g0 * (w * w) ** -0.25
                step = -f / df
                w += step
                if abs(step) < 1e-14:
                    break
            return w

        ref = oracle()
        assert ref.real > 0 and ref.imag < 0
        es = open_eigenfrequencies(make(g=0.0, ga=g0, sa=-0.5))
        assert min(abs(z - ref) for z in es.roots) < 1e-9

    @pytest.mark.parametrize("s", [-0.5, 0.5])
    def test_zero_root_at_critical_any_exponent(self, s):
        es = open_eigenfrequencies(make(g=0.5, ga=0.3, gb=0.2, sa=s, sb=s))
        assert 0.0 + 0.0j in es.roots

    def test_subohmic_widens_gap_superohmic_shrinks(self):
        g = 0.4975
        ohmic = open_eigenfrequencies(make(g=g, ga=0.3, gb=0.2))
        sub = open_eigenfrequencies(make(g=g, ga=0.3, gb=0.2, sa=-0.5, sb=-0.5))
        sup = open_eigenfrequencies(make(g=g, ga=0.3, gb=0.2, sa=0.5, sb=0.5))
        assert ohmic.gap and sub.gap and not sup.gap

    def test_causality_random_draws(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            wa, wb = rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)
            p = make(
                omega_a=wa,
                omega_b=wb,
                g=rng.uniform(0.0, math.sqrt(wa * wb)),
                ga=rng.uniform(0.0, 0.5),
                gb=rng.uniform(0.0, 0.5),
                sa=rng.uniform(-0.5, 1.0),
                sb=rng.uniform(-0.5, 1.0),
            )
            es = open_eigenfrequencies(p)
            assert max(z.imag for z in es.roots) <= 1e-10

    def test_residuals_at_roots(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            wa, wb = rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)
            p = make(
                omega_a=wa,
                omega_b=wb,
                g=rng.uniform(0.0, math.sqrt(wa * wb)),
                ga=rng.uniform(0.0, 0.5),
                gb=rng.uniform(0.0, 0.5),
                sa=rng.uniform(-0.5, 1.0),
                sb=rng.uniform(-0.5, 1.0),
            )
            system = build_system(derive_phase(p), p)
            for z in open_eigenfrequencies(p).roots:
                assert abs(zeta_from_system(system, z, INPUT)) < 1e-9 * (1.0 + abs(z) ** 4)


class TestLocateCritical:
    def test_resonant(self):
        got = locate_critical(make(ga=0.5, sa=-0.5))
        assert abs(got - 0.5) < 1e-12

    def test_detuned(self):
        got = locate_critical(make(omega_a=1.2))
        assert abs(got - 0.5477225575051661) < 1e-12
        assert abs(got - math.sqrt(1.2) / 2.0) < 1e-12

    @pytest.mark.parametrize("k", [1e-6, 1e-3, 1e3, 1e6])
    def test_scale_covariant(self, k):
        # g_c carries the unit of the frequencies, so its relative precision
        # must not depend on k: no absolute tolerance may enter.
        rng = np.random.default_rng(63)
        for _ in range(50):
            wa, wb = rng.uniform(0.5, 2.0, 2)
            unit = locate_critical(make(omega_a=wa, omega_b=wb))
            scaled = locate_critical(make(omega_a=k * wa, omega_b=k * wb))
            assert math.isclose(scaled, k * unit, rel_tol=1e-15)

    def test_identical_across_bath_settings(self):
        results = {
            locate_critical(make(ga=g0, gb=g0, sa=s, sb=s))
            for g0 in (0.0, 0.5)
            for s in (-0.5, 0.0, 0.5)
        }
        assert len(results) == 1


class TestSweep:
    def test_gap_interval_contains_critical(self):
        grid = np.linspace(0.45, 0.55, 500)
        table = sweep_eigenfrequencies(make(ga=0.3, gb=0.2), "g", grid)
        idx = np.flatnonzero(table.gap)
        assert idx.size > 3
        assert np.array_equal(idx, np.arange(idx[0], idx[-1] + 1))
        assert grid[idx[0]] < 0.5 < grid[idx[-1]]
        inside = table.gap
        assert np.all(np.abs(table.lower[inside].real) < 1e-9)
        assert np.all(np.abs(table.lower_mirror[inside].real) < 1e-9)
        split = np.abs(table.lower[inside].imag - table.lower_mirror[inside].imag)
        assert np.all(split > 1e-9)

    def test_lossless_sweep_has_no_gap(self):
        grid = np.linspace(0.45, 0.55, 100)
        table = sweep_eigenfrequencies(make(), "g", grid)
        assert not np.any(table.gap)

    def test_weak_coupling_imaginary_split(self):
        table = sweep_eigenfrequencies(make(ga=0.3, gb=0.1), "g", np.array([0.02, 0.4]))
        weak_re = abs(table.lower[0].real - table.upper[0].real)
        weak_im = abs(table.lower[0].imag - table.upper[0].imag)
        strong_re = abs(table.lower[1].real - table.upper[1].real)
        strong_im = abs(table.lower[1].imag - table.upper[1].imag)
        assert weak_im > weak_re
        assert strong_re > strong_im

    def test_omega_b_axis(self):
        grid = np.linspace(0.5, 2.0, 40)
        table = sweep_eigenfrequencies(make(g=0.6, ga=0.1, gb=0.1), "omega_b", grid)
        assert table.phases[0] is Phase.SUPERRADIANT  # lambda = 1.44/omega_b > 1
        assert table.phases[-1] is Phase.NORMAL
        assert np.all(np.diff(table.upper.real) > -1e-9)

    def test_phase_boundary_continuity(self):
        p = make(ga=0.3, gb=0.2)
        below = open_eigenfrequencies(make(g=0.5 - 1e-6, ga=0.3, gb=0.2))
        above = open_eigenfrequencies(make(g=0.5 + 1e-6, ga=0.3, gb=0.2))
        assert abs(below.lower - above.lower) < 1e-4
        assert abs(below.upper - above.upper) < 1e-4

    def test_branch_labels_stay_physical_through_gap(self):
        # Exiting the gap the distance matcher alone can hand "lower" to the
        # mirror member; the labels must come back with Re >= 0.
        grid = np.linspace(0.4, 0.7, 100)
        table = sweep_eigenfrequencies(make(ga=0.3, gb=0.2), "g", grid)
        off_axis = np.abs(table.lower.real) > 1e-9
        assert np.all(table.lower.real[off_axis] > 0)
        assert np.all(table.upper.real > 0)
        assert np.all(table.upper_mirror.real < 0)

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep_eigenfrequencies(make(), "g", np.array([0.3, 0.1]))
        with pytest.raises(ValueError):
            sweep_eigenfrequencies(make(), "ratio", np.array([0.1, 0.3]))
        with pytest.raises(ValueError, match="sweep grid must be nonempty"):
            sweep_eigenfrequencies(make(), "g", [])

    @pytest.mark.parametrize(
        "grid, shape", [([[0.1, 0.2]], r"\(1, 2\)"), (0.1, r"\(\)")], ids=["2d", "scalar"]
    )
    def test_grid_must_be_one_dimensional(self, grid, shape):
        message = f"sweep grid must be real and 1-D, got float64 of shape {shape}"
        with pytest.raises(ValueError, match=message):
            sweep_eigenfrequencies(make(), "g", grid)

    @pytest.mark.parametrize("count", [1, 3])
    def test_eigensets_must_match_the_grid(self, count):
        eigensets = [open_eigenfrequencies(make(g=0.2))] * count
        with pytest.raises(ValueError, match=f"{count} eigensets for a sweep grid of 2 values"):
            sweep_eigenfrequencies(make(), "g", [0.2, 0.3], eigensets=eigensets)

    def test_failure_reports_grid_point(self, monkeypatch):
        def explode(params):
            raise ConvergenceError("boom", 0.1 + 0.0j, 1.0)

        monkeypatch.setattr(eigen_mod, "open_eigenfrequencies", explode)
        with pytest.raises(ConvergenceError, match="g = 0.25"):
            sweep_eigenfrequencies(make(sa=-0.5), "g", np.array([0.25, 0.5]))

    def test_domain_error_precedes_any_solve(self):
        # The solve at g = 0.4625 fails ("backtracking stalled"); g = 1e200
        # leaves the domain, which is what the sweep reports, as the CLI does.
        p = make(ga=0.6, sa=-0.5, gb=0.5, sb=0.5)
        message = "sweep leaves the model's domain at g = 1e[+]200: every PhaseData field"
        with pytest.raises(ValueError, match=message):
            sweep_eigenfrequencies(p, "g", [0.4625, 1e200])


def _newton(f, x0, const=1.0, subohmic=False, axis=False):
    return eigen_mod._newton(f, x0, const, subohmic, axis)


class TestNewtonExits:
    """One synthetic scalar function per exit of the damped Newton."""

    def test_iterates_are_folded_into_the_right_half_plane(self):
        # Plain Newton on w^2 + 2i from -0.1 + i converges to -1 + i; the
        # start and the first step (to -0.94 + 0.40i) are both mirrored.
        seen = []

        def f(w):
            seen.append(w)
            return w * w + 2j

        assert abs(_newton(f, -0.1 + 1j) - (1 - 1j)) < 1e-12
        assert seen[0] == 0.1 + 1j
        assert min(w.real for w in seen) >= 0.0

    def test_pins_zero_when_zeta_vanishes_at_the_origin(self):
        def f(x):
            raise AssertionError("the pin needs no evaluation")

        w = _newton(f, 1e-9 - 1e-9j, const=0.0)
        y = _newton(f, 1e-9, const=0.0, axis=True)
        assert type(w) is complex and w == 0
        assert type(y) is float and y == 0

    @pytest.mark.parametrize("axis, x0, iterate", [(False, 1e-14 - 1e-14j, 1e-14 - 1e-14j),
                                                   (True, 1e-14, -1e-14j)])
    def test_subohmic_collapse_onto_the_origin_raises(self, axis, x0, iterate):
        with pytest.raises(ConvergenceError, match="collapsed onto the singular origin") as exc:
            _newton(lambda x: 1.0, x0, const=0.5, subohmic=True, axis=axis)
        assert exc.value.last_iterate == iterate
        assert exc.value.residual == 0.5

    def test_vanishing_derivative_raises(self):
        with pytest.raises(ConvergenceError, match="vanishing derivative"):
            _newton(lambda w: 1.0 + 0.0j, 1.0 - 1.0j)

    def test_backtracking_stall_raises(self):
        # f(y) = y + 1 only within 1e-3 of y = 2; the full step lands on the
        # plateau, and so does every halving down to 1/256 of it.
        def f(y):
            return y + 1.0 if abs(y - 2.0) < 1e-3 else 1e3

        with pytest.raises(ConvergenceError, match="backtracking stalled") as exc:
            _newton(f, 2.0, axis=True)
        assert exc.value.last_iterate == -2j

    def test_iteration_budget_raises(self):
        # exp(-y) has no root: every Newton step is +1 and lowers |f|.
        with pytest.raises(ConvergenceError, match="no convergence within iteration budget"):
            _newton(lambda y: math.exp(-y), 1.0, axis=True)

    @pytest.mark.parametrize("value", [math.nan, math.inf, complex(math.inf, 0.0)])
    def test_nonfinite_starting_residual_raises_at_once(self, value):
        calls = []

        def f(w):
            calls.append(w)
            return value

        with pytest.raises(ConvergenceError, match="residual is not finite") as exc:
            _newton(f, 1.0 - 1.0j)
        assert calls == [1.0 - 1.0j]
        assert exc.value.last_iterate == 1.0 - 1.0j
        assert math.isnan(exc.value.residual) or exc.value.residual == math.inf

    def test_nan_trial_is_backtracked_like_a_larger_residual(self):
        # exp(y) - 2 from y = -3: the full step (to about 36) lands where f
        # is NaN, and halving brings it back to the root ln 2.
        def f(y):
            return math.exp(y) - 2.0 if y < 5.0 else math.nan

        assert abs(_newton(f, -3.0, axis=True) - math.log(2.0)) < 1e-12

    @pytest.mark.parametrize("y0", [0.999, 1.0], ids=["nan-trials", "nan-derivative"])
    def test_step_nan_to_the_last_halving_stalls(self, y0):
        # f is NaN beyond y = 1: from 0.999 every trial of the step (+1)
        # down to 1/256 of it lands there; from 1.0 the derivative itself is
        # NaN. Both stall after the halvings instead of iterating on NaN.
        seen = []

        def f(y):
            seen.append(y)
            return math.exp(-y) if y <= 1.0 else math.nan

        with pytest.raises(ConvergenceError, match="backtracking stalled") as exc:
            _newton(f, y0, axis=True)
        assert len(seen) == 1 + 2 + 9  # start, difference pair, full step and 8 halvings
        assert exc.value.last_iterate == -1j * y0
        assert exc.value.residual == math.exp(-y0)

    def test_axis_root_in_the_upper_half_plane_raises(self):
        with pytest.raises(ConvergenceError, match="crossed into the upper half plane") as exc:
            _newton(lambda y: y + 1.0, 1.0, axis=True)
        assert abs(exc.value.last_iterate - 1j) < 1e-12

    def test_axis_root_within_rounding_of_zero_is_clamped(self):
        assert _newton(lambda y: y + 5e-11, 1.0, axis=True) == 0.0


class TestNewtonEvaluations:
    """Each iterate's residual is evaluated once and carried forward."""

    @staticmethod
    def counted(f):
        calls = []

        def g(y):
            calls.append(y)
            return f(y)

        return g, calls

    @pytest.mark.parametrize("k", [1, 2, 5, eigen_mod.NEWTON_MAXIT])
    def test_k_iterations_without_backtracking_cost_1_plus_3k(self, k, monkeypatch):
        # exp(-y) has no root and every step (+1) lowers |f|: the run ends
        # after exactly NEWTON_MAXIT iterations and never backtracks.
        monkeypatch.setattr(eigen_mod, "NEWTON_MAXIT", k)
        f, calls = self.counted(lambda y: math.exp(-y))
        with pytest.raises(ConvergenceError, match="iteration budget") as exc:
            _newton(f, 1.0, axis=True)
        assert len(calls) == 1 + 3 * k
        y = -exc.value.last_iterate.imag
        assert abs(y - (1.0 + k)) < 1e-6
        assert exc.value.residual == math.exp(-y)  # the carried residual is f(x)

    @pytest.mark.parametrize("halvings", range(6))
    def test_each_halving_costs_one_evaluation(self, halvings, monkeypatch):
        # exp(-y) up to y = 1 + 1.5 / 2**halvings, a wall beyond: from y = 1
        # the full step (to about 2) is halved until it lands before the wall.
        monkeypatch.setattr(eigen_mod, "NEWTON_MAXIT", 1)
        wall = 1.0 + 1.5 * 0.5**halvings
        f, calls = self.counted(lambda y: math.exp(-y) if y <= wall else 10.0)
        with pytest.raises(ConvergenceError, match="iteration budget") as exc:
            _newton(f, 1.0, axis=True)
        assert len(calls) == 1 + 3 + halvings
        y = -exc.value.last_iterate.imag
        assert abs(y - (1.0 + 0.5**halvings)) < 1e-6
        assert exc.value.residual == math.exp(-y)

    def test_converging_run_reuses_the_accepted_residual(self):
        # Newton on y^2 - 4 from y = 3 (six iterations): after the start,
        # each iteration evaluates only the two difference points around
        # the current iterate and the next iterate.
        f, calls = self.counted(lambda y: y * y - 4.0)
        assert abs(_newton(f, 3.0, axis=True) - 2.0) < 1e-12
        assert len(calls) == 1 + 3 * 6
        iterates = calls[0::3]
        for j, x in enumerate(iterates[:-1]):
            assert calls[3 * j + 1] - x == pytest.approx(x - calls[3 * j + 2], rel=1e-6)


def test_every_zeta_call_of_a_solve_goes_through_the_module_name(monkeypatch):
    # Wrappers at eigen.zeta_from_system (the benchmark's tracer is one) see
    # every evaluation: the README non-ohmic point at g = 0.3 takes 200.
    p = make(g=0.3, ga=0.3, gb=0.2, sa=-0.5, sb=0.5)
    plain = open_eigenfrequencies(p)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return zeta_from_system(*args, **kwargs)

    monkeypatch.setattr(eigen_mod, "zeta_from_system", counted)
    assert open_eigenfrequencies(p) == plain
    assert len(calls) == 200


class TestGapEdgeContinuation:
    def test_axis_pair_is_chased_off_the_axis(self, monkeypatch):
        # Near the ohmic gap edge g = 0.4925 the on-axis pair annihilates
        # while the exponents move, so an axis solve fails and the pair is
        # chased in the complex plane.
        calls = []
        newton = eigen_mod._newton

        def spy(f, x0, const, subohmic, axis):
            try:
                out = newton(f, x0, const, subohmic, axis)
            except ConvergenceError:
                calls.append((axis, False))
                raise
            calls.append((axis, True))
            return out

        monkeypatch.setattr(eigen_mod, "_newton", spy)
        p = make(g=0.4925, ga=0.3, gb=0.2, sa=0.5, sb=-0.5)
        es = open_eigenfrequencies(p)
        assert any(a == (True, False) and b[0] is False for a, b in zip(calls, calls[1:]))

        pd = derive_phase(p)
        for z in es.roots:
            m = m_matrix(pd, p, z)
            assert abs(np.linalg.det(m)) <= 1e-9 * np.prod(np.linalg.norm(m, axis=1))
        assert len(set(es.roots)) == 4
        for rep, partner in (es.lower_pair, es.upper_pair):
            assert abs(partner + rep.conjugate()) < 1e-12


class TestConvergenceErrorPickles:
    def test_round_trip_keeps_text_and_fields(self):
        err = ConvergenceError("stuck", 0.1 - 0.2j, 3.0)
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is ConvergenceError
        assert str(back) == str(err) == "stuck (last iterate (0.1-0.2j), residual 3.000e+00)"
        assert back.last_iterate == 0.1 - 0.2j and back.residual == 3.0

    def test_sweep_point_names_the_point(self):
        with pytest.raises(ConvergenceError) as exc:
            with sweep_point("g", 0.25):
                raise ConvergenceError("boom", 0.1 + 0.0j, 1.0)
        back = pickle.loads(pickle.dumps(exc.value))
        assert str(back).startswith("sweep failed at g = 0.25: boom (last iterate")


class TestExponentDomain:
    def test_quadratic_bath_is_solved(self):
        p = make(g=0.3, ga=0.3, gb=0.2, sa=2.0)
        pd = derive_phase(p)
        es = open_eigenfrequencies(p)
        assert max(z.imag for z in es.roots) <= 0.0
        for z in es.roots:
            m = m_matrix(pd, p, z)
            assert abs(np.linalg.det(m)) <= 1e-9 * np.prod(np.linalg.norm(m, axis=1))


class TestGapRule:
    def test_split_axis_pair_only(self):
        assert eigen_mod._is_gap(-0.1j, -0.2j)
        assert not eigen_mod._is_gap(-0.1j, -0.1j)  # double rate: no split
        assert not eigen_mod._is_gap(0.1 - 0.1j, -0.1 - 0.2j)  # off the axis


class TestCoincidentBranchRetry:
    # Points where continuation at EXPONENT_STEP returns one root as both
    # branches: eigen-nonohmic bench draws (bench/workloads.jobs_for at
    # seed 24 draw 1, seed 210 draw 2, seed 407 draw 1 and seed 15 draw 1,
    # on the sweep g:0:0.7:400; the last is repaired only at a step of
    # EXPONENT_STEP / 25) and the scale point omega_a = omega_b = k,
    # g = 0.7 k, gamma0 = (0.3, 0.2) k^(1 - s) at k = 1e-4.
    POINTS = [
        make(g=0.043859649122807015, ga=0.3287368909663596, gb=0.15432152304954866,
             sa=-0.548452543184794, sb=0.508802266390444),
        make(g=0.0, ga=0.28083778079421085, gb=0.2812003562442128,
             sa=-0.5647181526501468, sb=0.597709057521417),
        make(g=0.03508771929824561, ga=0.29909236941801554, gb=0.1595676357120574,
             sa=-0.4703561038296026, sb=0.471306692859826),
        make(g=0.0, ga=0.21722033788964284, gb=0.21726782520379195,
             sa=-0.5529189318707053, sb=0.5767197113626681),
        make(1e-4, 1e-4, 0.7e-4, 0.3 * 1e-4**1.5, 0.2 * 1e-4**0.5, -0.5, 0.5),
    ]

    @pytest.mark.parametrize(
        "p", POINTS, ids=["seed24", "seed210", "seed407", "seed15", "k1e-4"]
    )
    def test_branches_separate_and_solve_det_m(self, p):
        es = open_eigenfrequencies(p)
        assert es.lower != es.upper
        assert len(set(es.roots)) == 4
        pd = derive_phase(p)
        for z in es.roots:
            m = m_matrix(pd, p, z)
            assert abs(np.linalg.det(m)) <= 1e-9 * np.prod(np.linalg.norm(m, axis=1))

    def test_genuinely_coincident_branches_are_returned(self):
        # Decoupled identical ports: both branches are the same damped mode
        # at every step, so the retry cannot separate them.
        p = make(g=0.0, ga=0.2, gb=0.2, sa=0.5, sb=0.5)
        es = open_eigenfrequencies(p)
        assert es.lower == es.upper
        m = m_matrix(derive_phase(p), p, es.lower)
        assert abs(np.linalg.det(m)) <= 1e-9 * np.prod(np.linalg.norm(m, axis=1))

    def test_failed_retries_return_the_first_result(self, monkeypatch):
        steps = []
        continue_exponents = eigen_mod._continue_exponents

        def spy(system, const, roots, step):
            steps.append(step)
            if len(steps) > 1:
                raise ConvergenceError("stuck", 0j, 1.0)
            return continue_exponents(system, const, roots, step)

        monkeypatch.setattr(eigen_mod, "_continue_exponents", spy)
        es = open_eigenfrequencies(self.POINTS[0])
        assert es.lower == es.upper
        step = eigen_mod.EXPONENT_STEP
        assert steps == [step, step / 5, step / 25]

    def test_failed_first_continuation_raises(self, monkeypatch):
        def stuck(system, const, roots, step):
            raise ConvergenceError("stuck", 0j, 1.0)

        monkeypatch.setattr(eigen_mod, "_continue_exponents", stuck)
        with pytest.raises(ConvergenceError, match="stuck"):
            open_eigenfrequencies(self.POINTS[0])
