from dataclasses import fields, replace

import numpy as np
import pytest

from opendicke.model import BathSpec, ModelParams, Phase, PhaseData, derive_phase
from opendicke.model import _superradiant_fields
from opendicke.scattering import resolve_point, s11, sweep_spectrum
from opendicke.matrices import (
    FLIP_A,
    INPUT,
    OUTPUT,
    BogoliubovSystem,
    ZetaSignature,
    build_a_matrix,
    build_gamma,
    build_system,
    m_matrix,
    s11_rows,
    zeta,
    zeta_constant_term,
    zeta_from_system,
    zeta_quartic_coeffs,
)

from conftest import make

SIGMA = np.diag([1.0, -1.0, 1.0, -1.0])


def test_signature_validation():
    with pytest.raises(ValueError):
        ZetaSignature(0, 1)


class TestAMatrix:
    def test_decoupled_is_diagonal(self):
        p = make(omega_a=0.8, omega_b=1.3)
        a = build_a_matrix(derive_phase(p), p)
        assert np.array_equal(a, np.diag([0.8, -0.8, 1.3, -1.3]).astype(complex))

    def test_first_row_normal_phase(self):
        p = make(g=0.3)
        a = build_a_matrix(derive_phase(p), p)
        assert np.array_equal(a[0], np.array([1.0, 0.0, 0.3, 0.3], dtype=complex))

    @pytest.mark.parametrize("g", [0.1, 0.45, 0.6, 0.9])
    def test_bogoliubov_structure(self, g):
        # Pseudo-Hermitian wrt Sigma, plus the particle-hole relation that
        # forces the eigenvalues into +-Omega pairs.
        p = make(g=g, omega_a=1.1, omega_b=0.9)
        a = build_a_matrix(derive_phase(p), p)
        assert np.array_equal(a, SIGMA @ a.conj().T @ SIGMA)
        swap = np.array([[0, 1], [1, 0]], dtype=float)
        perm = np.block([[swap, np.zeros((2, 2))], [np.zeros((2, 2)), swap]])
        assert np.array_equal(a, -perm @ a.conj() @ perm)
        ev = np.linalg.eigvals(a)
        assert np.max(np.abs(np.sort(ev.real) + np.sort(ev.real)[::-1])) < 1e-12

    def test_superradiant_matches_normal_at_critical(self):
        # Evaluate the superradiant entries at the boundary value lam = 1 and
        # compare against the normal-phase matrix at g = g_c.
        wbt, gt, d, gbt = _superradiant_fields(1.0, 1.0, 0.5, 0.2)
        pd_sp = PhaseData(
            lam=1.0, g_c=0.5, phase=Phase.SUPERRADIANT,
            omega_b_tilde=wbt, g_tilde=gt, d_term=d, gamma_b_tilde_amp=gbt,
            alpha_per_n=0.0, beta_per_n=0.0,
        )
        p = make(g=0.5, gb=0.2)
        a_sp = build_a_matrix(pd_sp, p)
        a_np = build_a_matrix(derive_phase(p), p)
        assert np.max(np.abs(a_sp - a_np)) <= 1e-14

    @staticmethod
    def literal_layout(pd, p):
        wa = p.omega_a
        wb, g, d = pd.omega_b_tilde, pd.g_tilde, pd.d_term
        return np.array(
            [
                [wa, 0.0, g, g],
                [0.0, -wa, -g, -g],
                [g, g, wb + 2.0 * d, 2.0 * d],
                [-g, -g, -2.0 * d, -wb - 2.0 * d],
            ],
            dtype=complex,
        )

    def test_layout_matches_the_literal_matrix_bit_for_bit(self):
        # Row 3 negates A[2, 3] and A[2, 2] instead of writing -2 d and
        # -omega_b~ - 2 d out: negation is exact and rounding sign-symmetric.
        rng = np.random.default_rng(29)
        phases = set()
        for _ in range(100):
            wa, wb = rng.uniform(0.2, 3.0, 2)
            g_c = 0.5 * np.sqrt(wa * wb)
            for g in (rng.uniform(0.0, 0.999) * g_c, g_c, rng.uniform(1.001, 3.0) * g_c):
                p = make(omega_a=wa, omega_b=wb, g=g)
                pd = derive_phase(p)
                phases.add(pd.phase)
                assert build_a_matrix(pd, p).tobytes() == self.literal_layout(pd, p).tobytes()
        assert phases == set(Phase)


class TestSystemEntries:
    """zeta reads A through the four real entries each system holds, computed
    once by build_system rather than on every zeta call."""

    @pytest.mark.parametrize(
        "g, phase",
        [(0.3, Phase.NORMAL), (0.5, Phase.CRITICAL), (0.8, Phase.SUPERRADIANT)],
    )
    def test_cached_entries_equal_the_matrix(self, g, phase):
        p = make(omega_b=1.0, g=g, ga=0.2, gb=0.3, sa=-0.5, sb=0.5)
        pd = derive_phase(p)
        assert pd.phase is phase
        system = build_system(pd, p)
        a = build_a_matrix(pd, p)
        assert system.a_entries == tuple(a[i, j].real for i, j in ((0, 0), (0, 2), (2, 2), (2, 3)))
        assert all(type(x) is float for x in system.a_entries)
        if phase is Phase.SUPERRADIANT:
            assert system.a_entries[2] != 1.0  # renormalized matter frequency

    def test_entries_are_floats_for_integer_and_numpy_inputs(self):
        for p in (ModelParams(1, 2, 1, BathSpec(0.1), BathSpec(0.2)), make(g=np.float64(0.3))):
            entries = build_system(derive_phase(p), p).a_entries
            assert all(type(x) is float for x in entries)

    def test_fields(self):
        names = [f.name for f in fields(BogoliubovSystem)]
        assert names == ["a_entries", "bath_a", "bath_b"]


class TestGammaMatrix:
    def test_port_a_block_plugin(self):
        p = make(g=0.2, ga=0.1, gb=0.3)
        gam = build_gamma(derive_phase(p), p, 0.7)
        assert np.array_equal(gam[:2, :2], np.array([[0.1, -0.1], [-0.1, 0.1]], dtype=complex))
        assert np.array_equal(gam[2:, 2:], np.array([[0.3, -0.3], [-0.3, 0.3]], dtype=complex))
        assert np.all(gam[:2, 2:] == 0) and np.all(gam[2:, :2] == 0)

    def test_superradiant_port_b_saturation(self):
        # lam = 3 shrinks the matter damping by 4 / (lam + 1)^2 = 1/4.
        p = make(g=np.sqrt(3.0) / 2.0, gb=0.2)
        pd = derive_phase(p)
        assert pd.phase is Phase.SUPERRADIANT
        gam = build_gamma(pd, p, 0.7)
        assert abs(gam[2, 2] - 0.05) < 1e-12
        assert abs(gam[0, 0] - 0.0) == 0.0

    def test_signature_flips_only_port_a(self):
        p = make(g=0.2, ga=0.1, gb=0.3)
        pd = derive_phase(p)
        plus = build_gamma(pd, p, 0.7, INPUT)
        flip = build_gamma(pd, p, 0.7, FLIP_A)
        assert np.array_equal(flip[:2, :2], -plus[:2, :2])
        assert np.array_equal(flip[2:, 2:], plus[2:, 2:])

    def test_blocks_are_rank_one(self):
        p = make(g=0.2, ga=0.17, gb=0.33, sa=0.5, sb=-0.25)
        gam = build_gamma(derive_phase(p), p, 1.3)
        for sl in (slice(0, 2), slice(2, 4)):
            blk = gam[sl, sl]
            assert blk[0, 0] * blk[1, 1] - blk[0, 1] * blk[1, 0] == 0.0


class TestZeta:
    def test_constant_term_plugin(self):
        p = make(g=0.3, ga=0.1, gb=0.2)
        pd = derive_phase(p)
        assert abs(zeta(pd, p, 0.0) - 0.64) < 1e-14

    def test_constant_term_damping_free(self):
        values = []
        for g0 in (0.0, 0.1, 0.5):
            for s in (-0.5, 0.0, 0.5):
                p = make(g=0.3, ga=g0, gb=g0, sa=s, sb=s)
                values.append(zeta(derive_phase(p), p, 0.0))
        assert all(v == values[0] for v in values)
        assert abs(values[0] - 0.64) < 1e-14

    def test_constant_term_vanishes_at_critical(self):
        p = make(g=0.5, ga=0.3, gb=0.2)
        assert abs(zeta(derive_phase(p), p, 0.0)) < 1e-15

    def test_factorized_oracle_decoupled_lossless(self):
        p = make(omega_a=1.0, omega_b=1.0)
        pd = derive_phase(p)
        assert abs(zeta(pd, p, 0.5) - 0.5625) < 1e-15
        rng = np.random.default_rng(3)
        p2 = make(omega_a=1.2, omega_b=0.8)
        pd2 = derive_phase(p2)
        for _ in range(50):
            w = complex(rng.uniform(-2, 2), rng.uniform(-1, 0))
            oracle = (w * w - 1.2**2) * (w * w - 0.8**2)
            assert abs(zeta(pd2, p2, w) - oracle) < 1e-12 * max(1.0, abs(oracle))

    def test_scalar_zero_matches_constant_helper(self):
        for g in (0.2, 0.5, 0.8):
            p = make(g=g, ga=0.3, gb=0.2)
            pd = derive_phase(p)
            assert abs(zeta(pd, p, 0.0) - zeta_constant_term(pd, p)) < 1e-14

    def test_array_evaluation_matches_scalar(self):
        p = make(g=0.4, ga=0.25, gb=0.1, sa=-0.3, sb=0.6)
        pd = derive_phase(p)
        grid = np.array([0.1, 0.5, 1.3, 2.2])
        vec = zeta(pd, p, grid)
        for w, v in zip(grid, vec):
            assert abs(v - zeta(pd, p, float(w))) < 1e-14
        cgrid = grid + 0.2j
        cvec = zeta(pd, p, cgrid, FLIP_A)
        for w, v in zip(cgrid, cvec):
            assert abs(v - zeta(pd, p, complex(w), FLIP_A)) < 1e-14

    def test_matches_numpy_determinant_of_m(self):
        p = make(g=0.35, ga=0.2, gb=0.4)
        pd = derive_phase(p)
        w = 0.6 - 0.2j
        assert abs(zeta(pd, p, w) - np.linalg.det(m_matrix(pd, p, w))) < 1e-12

    def test_conjugation_symmetry(self):
        rng = np.random.default_rng(11)
        flip_both = ZetaSignature(-1, -1)
        for _ in range(100):
            p = make(
                omega_a=rng.uniform(0.5, 1.5),
                omega_b=rng.uniform(0.5, 1.5),
                g=rng.uniform(0.0, 0.9),
                ga=rng.uniform(0.0, 0.5),
                gb=rng.uniform(0.0, 0.5),
                sa=rng.uniform(-0.5, 1.0),
                sb=rng.uniform(-0.5, 1.0),
            )
            pd = derive_phase(p)
            w = rng.uniform(0.05, 2.5)
            lhs = np.conj(zeta(pd, p, w, INPUT))
            rhs = zeta(pd, p, w, flip_both)
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


class TestQuarticCoefficients:
    def test_plugin_example(self):
        p = make(g=0.5, ga=0.3, gb=0.2)
        coeffs = zeta_quartic_coeffs(derive_phase(p), p)
        expected = np.array([1.0, 0.5j, -2.06, -0.5j, 0.0])
        assert np.max(np.abs(coeffs - expected)) < 1e-14

    def test_signature_signs_applied(self):
        p = make(g=0.5, ga=0.3, gb=0.2)
        coeffs = zeta_quartic_coeffs(derive_phase(p), p, FLIP_A)
        expected = np.array([1.0, -0.1j, -(2.0 - 0.06), -1j * (0.2 - 0.3), 0.0])
        assert np.max(np.abs(coeffs - expected)) < 1e-14

    def test_decoupled_product_oracle(self):
        p = make(omega_a=1.1, omega_b=0.8, ga=0.3, gb=0.2)
        coeffs = zeta_quartic_coeffs(derive_phase(p), p)
        oracle = np.polymul([1.0, 0.3j, -(1.1**2)], [1.0, 0.2j, -(0.8**2)])
        assert np.max(np.abs(coeffs - oracle)) < 1e-14

    def test_lossless_biquadratic(self):
        p = make(omega_a=1.2, g=0.4)
        coeffs = zeta_quartic_coeffs(derive_phase(p), p)
        assert coeffs[1] == 0.0 and coeffs[3] == 0.0
        assert abs(coeffs[2] + (1.2**2 + 1.0)) < 1e-14
        assert abs(coeffs[4] - (1.2**2 - 4 * 0.16 * 1.2)) < 1e-14

    def test_rejects_nonohmic(self):
        with pytest.raises(ValueError):
            p = make(g=0.2, ga=0.1, sa=0.5)
            zeta_quartic_coeffs(derive_phase(p), p)
        p = make(g=0.9, gb=0.2, sb=-0.5)
        with pytest.raises(ValueError):
            zeta_quartic_coeffs(derive_phase(p), p)

    def test_determinant_equivalence_random(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            wa = rng.uniform(0.5, 2.0)
            wb = rng.uniform(0.5, 2.0)
            g = rng.uniform(0.0, 0.99) * 0.5 * np.sqrt(wa * wb)
            p = make(omega_a=wa, omega_b=wb, g=g, ga=rng.uniform(0, 0.5), gb=rng.uniform(0, 0.5))
            pd = derive_phase(p)
            w = complex(rng.uniform(-3, 3), rng.uniform(-1, 0.2))
            det_val = zeta(pd, p, w)
            poly_val = np.polyval(zeta_quartic_coeffs(pd, p), w)
            assert abs(det_val - poly_val) < 1e-10 * max(1.0, abs(poly_val))

    def test_superradiant_fit_matches_characteristic_polynomial(self):
        p = make(g=0.8, ga=0.3, gb=0.2)
        pd = derive_phase(p)
        coeffs = zeta_quartic_coeffs(pd, p)
        a = build_a_matrix(pd, p)
        gam = build_gamma(pd, p, 1.0)
        oracle = np.poly(np.linalg.eigvals(a - 0.5j * gam))
        assert np.max(np.abs(coeffs - oracle)) < 1e-10
        assert abs(coeffs[0] - 1.0) < 1e-12

    def test_superradiant_matches_numpy_determinant_every_signature(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            wa, wb = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
            g = rng.uniform(1.01, 2.0) * 0.5 * np.sqrt(wa * wb)
            p = make(omega_a=wa, omega_b=wb, g=g, ga=rng.uniform(0, 0.5), gb=rng.uniform(0, 0.5))
            pd = derive_phase(p)
            assert pd.phase is Phase.SUPERRADIANT
            w = complex(rng.uniform(-3, 3), rng.uniform(-1, 0.2))
            for sig in (INPUT, FLIP_A, OUTPUT):
                det_val = np.linalg.det(m_matrix(pd, p, w, sig))
                poly_val = np.polyval(zeta_quartic_coeffs(pd, p, sig), w)
                assert abs(det_val - poly_val) <= 1e-12 * max(1.0, abs(det_val))

    def test_constant_coefficient_is_the_constant_term(self):
        phases = set()
        for g in (0.2, 0.5, 0.8, 1.2):
            p = make(g=g, ga=0.3, gb=0.2)
            pd = derive_phase(p)
            phases.add(pd.phase)
            for sig in (INPUT, FLIP_A, OUTPUT):
                assert zeta_quartic_coeffs(pd, p, sig)[-1] == zeta_constant_term(pd, p)
        assert phases == set(Phase)

    def test_superradiant_constant_term_positive(self):
        for g in (0.55, 0.8, 1.2):
            p = make(g=g)
            assert zeta_constant_term(derive_phase(p), p) > 0.0


@pytest.mark.parametrize("g", [0.3, 0.7])
@pytest.mark.parametrize("sa, sb", [(0.0, 0.0), (-0.5, 0.6)])
@pytest.mark.parametrize("sig", [INPUT, OUTPUT, FLIP_A], ids=["INPUT", "OUTPUT", "FLIP_A"])
def test_zeta_matches_numpy_determinant(g, sa, sb, sig):
    """The port-block expansion against LAPACK's det of the explicit M, in
    both phases, for scalar and array frequencies off and on the real axis."""
    p = make(omega_a=1.1, omega_b=0.9, g=g, ga=0.3, gb=0.2, sa=sa, sb=sb)
    pd = derive_phase(p)
    system = build_system(pd, p)
    rng = np.random.default_rng(17)
    off_axis = rng.uniform(-2.5, 2.5, 20) - 1j * rng.uniform(0.01, 1.5, 20)
    omegas = np.concatenate([rng.uniform(0.05, 2.5, 20), off_axis])
    vec = zeta_from_system(system, omegas, sig)
    for w, v in zip(omegas.tolist(), vec.tolist()):
        det = np.linalg.det(m_matrix(pd, p, w, sig))
        tol = 1e-12 * max(1.0, abs(det))
        assert abs(zeta_from_system(system, w, sig) - det) < tol
        assert abs(v - det) < tol


def _same_bits(x, y) -> bool:
    if isinstance(x, np.ndarray):
        return isinstance(y, np.ndarray) and x.dtype == y.dtype and x.tobytes() == y.tobytes()
    return type(x) is type(y) and repr(x) == repr(y)


class TestS11Terms:
    """s11_rows divides S11's two zeta terms. It shares the photon half of a
    block of systems, and the rate rows and matter minors of each row's
    numerator and denominator. Every row must carry the bits of the ratio of
    the two separate zeta calls of its system alone."""

    @staticmethod
    def ratio(system, omega):
        return zeta_from_system(system, omega, FLIP_A) / zeta_from_system(system, omega, INPUT)

    def assert_ratios(self, systems, omega):
        rows = s11_rows(systems, omega)
        assert len(rows) == len(systems)
        for system, row in zip(systems, rows):
            assert _same_bits(row, self.ratio(system, omega))

    @staticmethod
    def block(points):
        return [build_system(derive_phase(p), p) for p in points]

    @pytest.mark.parametrize("g", [0.2, 0.45, 0.55, 0.9])
    @pytest.mark.parametrize("sa, sb", [(0.0, 0.0), (-0.4, 0.5), (0.7, -0.3)])
    def test_rows_and_scalars_in_both_phases(self, g, sa, sb):
        p = make(omega_a=1.0, omega_b=1.2, g=g, ga=0.05, gb=0.08, sa=sa, sb=sb)
        systems = self.block([p])
        probe = np.linspace(0.01, 4.0, 2001)
        self.assert_ratios(systems, probe)
        for w in (0.01, 0.7, 1.0, 1.2, 3.9):
            self.assert_ratios(systems, w)

    @pytest.mark.parametrize("sa, sb", [(0.0, 0.0), (-0.4, 0.5), (0.7, -0.3)])
    def test_g_sweep_block_straddles_the_transition(self, sa, sb):
        base = make(omega_a=1.0, omega_b=1.2, ga=0.05, gb=0.08, sa=sa, sb=sb)
        g_c = 0.5 * np.sqrt(1.2)
        points = [resolve_point(base, "g", v, False) for v in np.linspace(0.6, 1.4, 8) * g_c]
        phases = {derive_phase(p).phase for p in points}
        assert phases == {Phase.NORMAL, Phase.SUPERRADIANT}
        systems = self.block(points)
        self.assert_ratios(systems, np.linspace(0.01, 4.0, 2001))
        for w in (0.01, 1.0, 3.9):
            self.assert_ratios(systems, w)

    def test_ratio_sweep_block_with_linear_gamma_b(self):
        base = make(omega_a=1.0, omega_b=1.0, g=0.45, ga=0.05, gb=0.08, sa=-0.3, sb=0.4)
        points = [resolve_point(base, "ratio", v, True) for v in np.linspace(0.2, 2.0, 8)]
        assert len({p.bath_b for p in points}) == 8
        assert {derive_phase(p).phase for p in points} == {Phase.NORMAL, Phase.SUPERRADIANT}
        self.assert_ratios(self.block(points), np.linspace(0.01, 1.8, 2001))

    def test_ulp_shift_fallback(self):
        # Decoupled, undamped matter port, probe on its resonance: the
        # denominator is exactly 0 there and S11 shifts the probe.
        p = make(g=0.0, ga=0.3, gb=0.0)
        systems = self.block([p])
        (system,) = systems
        assert zeta_from_system(system, 1.0, INPUT) == 0
        probe = np.array([0.5, 1.0, 1.5])
        assert zeta_from_system(system, probe, INPUT)[1] == 0
        shifted = np.where(probe == 1.0, probe * (1.0 + 1e-9), probe)
        for omega, at in ((1.0, 1.0 * (1.0 + 1e-9)), (probe, shifted)):
            (row,) = s11_rows(systems, omega)
            assert _same_bits(row, self.ratio(system, at))
            assert _same_bits(s11(p, omega), row)
            self.assert_ratios(systems, at)

    def test_ulp_shift_inside_a_block_leaves_its_neighbours(self):
        # The g = 0 row in the middle of the block is decoupled with an
        # undamped matter port, so it takes the ulp shift on resonance; the
        # coupled rows around it (both phases) have no real denominator zero.
        base = make(ga=0.3, gb=0.0)
        couplings = np.array([0.1, 0.2, 0.3, 0.0, 0.4, 0.6, 0.7, 0.8])
        probe = np.array([0.5, 1.0, 1.5])
        points = [resolve_point(base, "g", v, False) for v in couplings]
        systems = self.block(points)
        dens = [zeta_from_system(system, probe, INPUT) for system in systems]
        assert [bool(np.any(den == 0)) for den in dens] == [False] * 3 + [True] + [False] * 4
        rows = s11_rows(systems, probe)
        shifted = np.where(probe == 1.0, probe * (1.0 + 1e-9), probe)
        for k, (system, row) in enumerate(zip(systems, rows)):
            assert _same_bits(row, self.ratio(system, shifted if k == 3 else probe))
        grid = sweep_spectrum(base, "g", couplings, probe)
        for p, row, grid_row in zip(points, rows, grid.values):
            assert _same_bits(grid_row, row)
            assert _same_bits(s11(p, probe), row)

    def test_block_must_share_omega_a_and_the_photon_bath(self):
        p = make(g=0.2, ga=0.05, gb=0.08, sa=-0.3)
        others = (
            replace(p, omega_a=1.1),
            replace(p, bath_a=BathSpec(0.06, -0.3)),
            replace(p, bath_a=BathSpec(0.05, 0.3)),
        )
        probe = np.linspace(0.01, 4.0, 11)
        for other in others:
            with pytest.raises(ValueError, match="omega_a and the photon bath"):
                s11_rows(self.block([p, p, other]), probe)


def test_m_matrix_shape_and_output_signature():
    p = make(g=0.2, ga=0.1, gb=0.3)
    pd = derive_phase(p)
    m_in = m_matrix(pd, p, 0.9, INPUT)
    m_out = m_matrix(pd, p, 0.9, OUTPUT)
    # M(A, -Gamma) differs from M(A, Gamma) by the sign of the damping part.
    assert np.max(np.abs((m_in + m_out) / 2.0 - (build_a_matrix(pd, p) - 0.9 * np.eye(4)))) < 1e-15
