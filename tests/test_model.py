import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opendicke import cli
from opendicke.eigen import sweep_eigenfrequencies
from opendicke.model import (
    AltCouplingParams,
    BathSpec,
    Phase,
    alt_coupling_renorm,
    bath_condensate_density,
    condensates,
    derive_phase,
    gamma_of,
)
from opendicke.model import _superradiant_fields
from opendicke.scattering import (
    find_minima,
    lamb_shift,
    s11,
    s_matrix,
    spectrum_text,
    sweep_spectrum,
)
from opendicke.squeezing import QuadratureSpec, dispersive_output_coefficient

from conftest import make


class TestValidation:
    def test_gain_bath_rejected(self):
        with pytest.raises(ValueError):
            BathSpec(-0.1)

    def test_pathological_exponent_rejected(self):
        with pytest.raises(ValueError):
            BathSpec(0.1, -1.0)
        with pytest.raises(ValueError):
            BathSpec(0.1, -1.5)

    def test_exponent_above_two_rejected(self):
        assert BathSpec(0.1, 2.0).exponent_s == 2.0
        with pytest.raises(ValueError, match="upper half plane"):
            BathSpec(0.1, 2.2)
        with pytest.raises(ValueError, match="s <= 2"):
            BathSpec(0.1, 2.0000001)

    def test_nonpositive_frequencies_rejected(self):
        with pytest.raises(ValueError):
            make(omega_a=0.0)
        with pytest.raises(ValueError):
            make(omega_b=-1.0)

    def test_negative_coupling_rejected(self):
        with pytest.raises(ValueError):
            make(g=-0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_params_rejected(self, bad):
        for field in ("omega_a", "omega_b", "g"):
            with pytest.raises(ValueError, match="finite"):
                make(**{field: bad})

    @pytest.mark.parametrize("point", [
        (1e-200, 1e-200, 0.0),  # omega_a omega_b underflows to 0
        (1.0, 1.0, 1e160),  # g^2 overflows
        (1e200, 1e200, 0.0),  # omega_a omega_b overflows
        (1.0, 1.0, 1e100),  # lam finite, (lam + 1)^2 overflows
        (1e-200, 1e200, 1e100),  # the same through the product
        (1e-200, 1e250, 1e30),  # lam finite, (g / omega_a)^2 overflows
        (1.0, 1e200, 1e130),  # lam finite, d_term is inf
    ], ids=[
        "product-underflow", "coupling-overflow", "product-overflow",
        "lam-squared", "lam-squared-via-product", "alpha-prefactor", "d-term",
    ])
    def test_points_beyond_float_range_rejected(self, point):
        # Each would reach derive_phase as a ZeroDivisionError or
        # OverflowError, or leave a PhaseData field infinite.
        wa, wb, g = point
        message = (
            "every PhaseData field of the point must be finite,"
            f" got omega_a = {wa}, omega_b = {wb}, g = {g}"
        )
        with pytest.raises(ValueError) as exc:
            make(omega_a=wa, omega_b=wb, g=g)
        assert str(exc.value) == message

    def test_points_inside_float_range_accepted(self):
        assert derive_phase(make(omega_a=1e-150, omega_b=1e-150)).g_c == 0.5e-150
        assert derive_phase(make(g=1e70)).lam == 4e140

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_bath_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            BathSpec(bad)
        with pytest.raises(ValueError, match="finite"):
            BathSpec(0.1, bad)


class TestPhaseClassification:
    def test_resonant_critical_point(self):
        pd = derive_phase(make(g=0.5))
        assert pd.phase is Phase.CRITICAL
        assert pd.lam == 1.0
        assert pd.g_c == 0.5

    def test_decoupled_is_normal(self):
        pd = derive_phase(make(g=0.0))
        assert pd.phase is Phase.NORMAL
        assert pd.lam == 0.0
        assert pd.alpha_per_n == 0.0 and pd.beta_per_n == 0.0

    def test_superradiant_fields_at_lambda_two(self):
        pd = derive_phase(make(g=2**-0.5, gb=0.2))
        assert pd.phase is Phase.SUPERRADIANT
        assert abs(pd.lam - 2.0) < 1e-15
        assert abs(pd.omega_b_tilde - 1.5) < 1e-12
        assert abs(pd.g_tilde - 0.5 * math.sqrt(2.0 / 3.0)) < 1e-12
        assert abs(pd.d_term - 7.0 / 24.0) < 1e-12
        assert abs(pd.gamma_b_tilde_amp - 4.0 * 0.2 / 9.0) < 1e-12

    def test_normal_phase_keeps_bare_fields(self):
        pd = derive_phase(make(g=0.3, gb=0.17))
        assert pd.omega_b_tilde == 1.0
        assert pd.g_tilde == 0.3
        assert pd.d_term == 0.0
        assert pd.gamma_b_tilde_amp == 0.17

    def test_continuity_across_transition(self):
        # The two branch conventions must share the same boundary limit.
        np_fields = derive_phase(make(g=0.5, gb=0.2))
        sp_fields = _superradiant_fields(1.0, 1.0, 0.5, 0.2)
        for got, ref in zip(
            sp_fields,
            (np_fields.omega_b_tilde, np_fields.g_tilde, np_fields.d_term,
             np_fields.gamma_b_tilde_amp),
        ):
            assert abs(got - ref) < 1e-12
        # Approaching the boundary from either side stays within slope * step.
        limit = derive_phase(make(g=0.5, gb=0.2))
        for lam_target in (1.0 - 1e-8, 1.0 + 1e-8):
            pd = derive_phase(make(g=0.5 * math.sqrt(lam_target), gb=0.2))
            assert abs(pd.omega_b_tilde - limit.omega_b_tilde) < 1e-7
            assert abs(pd.g_tilde - limit.g_tilde) < 1e-7
            assert abs(pd.d_term - limit.d_term) < 1e-7
            assert abs(pd.gamma_b_tilde_amp - limit.gamma_b_tilde_amp) < 1e-7
            assert pd.alpha_per_n < 1e-7 and pd.beta_per_n < 1e-7

    @pytest.mark.parametrize("wa,wb", [(1.0, 1.0), (1.2, 1.0), (0.7, 1.3)])
    def test_g_c_zeroes_the_constant_term(self, wa, wb):
        pd = derive_phase(make(omega_a=wa, omega_b=wb, g=0.1))
        assert abs(wa**2 * wb**2 - 4.0 * pd.g_c**2 * wa * wb) <= 1e-14 * wa**2 * wb**2


class TestCondensates:
    def test_lambda_two_plugin(self):
        alpha, beta = condensates(make(g=2**-0.5))
        assert abs(alpha - 0.375) < 1e-15
        assert abs(beta - 0.25) < 1e-15

    def test_zero_at_and_below_critical(self):
        assert condensates(make(g=0.5)) == (0.0, 0.0)
        assert condensates(make(g=0.3)) == (0.0, 0.0)

    def test_saturation_limit(self):
        _, beta = condensates(make(g=1e6))
        assert abs(beta - 0.5) < 1e-11

    def test_strictly_positive_above_critical(self):
        alpha, beta = condensates(make(g=0.51))
        assert alpha > 0 and 0 < beta < 0.5

    def test_bitwise_independent_of_baths(self):
        ref = condensates(make(g=2**-0.5))
        for g0 in (0.0, 0.25, 0.5):
            for s in (-0.5, 0.0, 0.5):
                got = condensates(make(g=2**-0.5, ga=g0, gb=g0, sa=s, sb=s))
                assert got == ref


class TestGammaOf:
    def test_ohmic_is_constant_everywhere(self):
        bath = BathSpec(0.37)
        assert gamma_of(bath, 0.3 - 0.1j) == 0.37
        assert gamma_of(bath, 0.0) == 0.37
        assert np.all(gamma_of(bath, np.array([0.1, 5.0])) == 0.37)

    def test_powerlaw_plugins(self):
        assert gamma_of(BathSpec(0.1, 0.5), 4.0) == 0.2
        assert gamma_of(BathSpec(0.1, -0.5), 0.25) == 0.2

    def test_singular_at_zero_for_negative_exponent(self):
        with pytest.raises(ValueError):
            gamma_of(BathSpec(0.1, -0.5), 0.0)
        with pytest.raises(ValueError):
            gamma_of(BathSpec(0.1, -0.5), np.array([0.3, 0.0]))
        assert gamma_of(BathSpec(0.1, 0.5), 0.0) == 0.0

    @given(
        s=st.floats(min_value=-0.9, max_value=2.0),
        w=st.floats(min_value=1e-6, max_value=1e3),
    )
    @settings(max_examples=200, deadline=None)
    def test_real_axis_even_real_nonnegative(self, s, w):
        bath = BathSpec(0.3, s)
        value = gamma_of(bath, w)
        assert isinstance(value, float)
        assert value >= 0.0
        assert gamma_of(bath, -w) == value

    def test_complex_evenness(self):
        bath = BathSpec(0.3, -0.4)
        for w in (0.3 - 0.2j, -1.1 - 0.05j, 2.0 + 1.0j):
            assert gamma_of(bath, -w) == gamma_of(bath, w)

    def test_matches_real_law_off_axis_limit(self):
        bath = BathSpec(0.3, 0.7)
        assert abs(gamma_of(bath, complex(2.0, 1e-12)) - gamma_of(bath, 2.0)) < 1e-12

    def test_axis_value_is_real_principal_value(self):
        bath = BathSpec(0.4, -0.5)
        got = gamma_of(bath, complex(0.0, -0.3))
        expected = 0.4 * 0.3**-0.5 * math.cos(-0.25 * math.pi)
        assert isinstance(got, float)
        assert abs(got - expected) < 1e-15
        # Array path applies the same rule elementwise.
        arr = gamma_of(bath, np.array([complex(0.0, -0.3), 0.5 - 0.1j]))
        assert abs(arr[0] - expected) < 1e-15
        assert abs(arr[1] - gamma_of(bath, 0.5 - 0.1j)) < 1e-15

    @pytest.mark.parametrize("s", [-0.9, -0.5, 0.0, 1.0, 2.0])
    def test_omega_gamma_vanishes_at_origin(self, s):
        bath = BathSpec(0.5, s)
        assert abs(1e-300 * gamma_of(bath, 1e-300)) < 1e-20
        seq = [abs(w * gamma_of(bath, w)) for w in (1e-10, 1e-20, 1e-30)]
        assert seq[0] > seq[1] > seq[2]


class TestBathCondensateDensity:
    def test_zero_in_the_normal_phase(self):
        assert bath_condensate_density(make(g=0.3, ga=0.2), "a", 0.7) == 0.0

    def test_superradiant_plugin(self):
        # (2 gamma / pi) * (alpha/N) / (omega omega_a) at lambda = 2
        got = bath_condensate_density(make(g=2**-0.5, ga=0.1), "a", 1.0)
        expected = 2.0 * 0.1 / math.pi * 0.375
        assert abs(got - expected) < 1e-15
        assert abs(expected - 0.023873241463784303) < 1e-15

    def test_port_b_uses_beta(self):
        p = make(g=2**-0.5, gb=0.3)
        got = bath_condensate_density(p, "b", 0.5)
        expected = 2.0 * 0.3 / math.pi * 0.25 / 0.5
        assert abs(got - expected) < 1e-14

    def test_subohmic_low_frequency_scaling(self):
        p = make(g=2**-0.5, ga=0.1, sa=-0.5)
        ratio = bath_condensate_density(p, "a", 0.2) / bath_condensate_density(p, "a", 0.1)
        assert abs(ratio - 2.0 ** (-1.5)) < 1e-12

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            bath_condensate_density(make(g=2**-0.5, ga=0.1), "a", 0.0)
        with pytest.raises(ValueError):
            bath_condensate_density(make(g=2**-0.5, ga=0.1), "c", 1.0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_frequency(self, bad):
        # Superohmic port above the transition: inf used to give nan.
        p = make(g=0.8, ga=0.1, sa=0.5, gb=0.2)
        message = f"^bath frequency omega must be finite and positive, got {bad}$"
        with pytest.raises(ValueError, match=message):
            bath_condensate_density(p, "a", bad)


class TestAltCoupling:
    def test_zero_shift_is_identity(self):
        res = alt_coupling_renorm(make(g=0.3), AltCouplingParams(0.0, 0.0))
        assert res.omega_a_prime == 1.0 and res.omega_b_prime == 1.0
        assert res.g_prime == 0.3
        assert res.g_c_prime == 0.5
        assert not res.abnormal_a and not res.abnormal_b

    def test_shifted_critical_coupling_plugin(self):
        res = alt_coupling_renorm(make(g=0.3), AltCouplingParams(0.19, 0.0))
        assert abs(res.omega_a_prime - 0.9) < 1e-15
        assert abs(res.g_c_prime - 0.5 * 0.81**0.25) < 1e-15
        assert abs(res.g_c_prime - 0.474342) < 1e-6
        assert abs(res.g_prime - 0.3 * math.sqrt(1.0 / 0.9)) < 1e-15

    def test_abnormal_phase_flag(self):
        res = alt_coupling_renorm(make(g=0.3), AltCouplingParams(1.5, 0.0))
        assert res.abnormal_a and not res.abnormal_b
        assert res.omega_a_prime is None and res.g_prime is None
        # The boundary f = omega^2 leaves omega' = 0, so it is flagged too.
        res = alt_coupling_renorm(make(g=0.3), AltCouplingParams(1.0, 0.0))
        assert res.abnormal_a

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            AltCouplingParams(-0.1, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_weights_rejected(self, bad):
        # nan and inf would otherwise reach alt_coupling_renorm and come back
        # as an "abnormal" port, a physical verdict on a meaningless input.
        for weights in ((bad, 0.0), (0.0, bad)):
            with pytest.raises(ValueError, match="finite"):
                AltCouplingParams(*weights)


POINT = make(g=0.3, ga=0.1, gb=0.2)
PROBE = np.linspace(0.1, 2.0, 50)


def _spectrum_text(sweep, probe):
    # Not iterated: a rejected input raises at the call, before any text exists.
    spectrum_text("csv", POINT, "ratio", sweep, probe)


# Every library entry that takes a frequency input: (id, call, kind, name its
# errors carry). A "scalar" entry takes one frequency, an "array" entry any
# shape elementwise, a "grid" entry a real, 1-D, nonempty grid. A sweep value
# is checked as the model point it sets, so its value errors name omega_b.
# find_minima locates minima on any real increasing grid, zero and negative
# included, so only its grid cases apply ("minima").
FREQUENCY_ENTRIES = [
    ("s11", partial(s11, POINT), "array", "probe frequencies"),
    ("s_matrix", partial(s_matrix, POINT), "scalar", "probe frequency"),
    ("QuadratureSpec", QuadratureSpec, "scalar", "probe frequency"),
    ("dispersive", partial(dispersive_output_coefficient, POINT), "scalar", "probe frequency"),
    ("density", partial(bath_condensate_density, POINT, "a"), "scalar", "bath frequency omega"),
    ("spectrum-probe", partial(sweep_spectrum, POINT, "ratio", [1.0]), "grid", "probe grid"),
    ("spectrum-sweep", lambda w: sweep_spectrum(POINT, "ratio", w, PROBE), "grid", "sweep grid"),
    ("write-probe", partial(_spectrum_text, [1.0]), "grid", "probe grid"),
    ("write-sweep", lambda w: _spectrum_text(w, PROBE), "grid", "sweep grid"),
    ("lamb_shift", partial(lamb_shift, POINT, "lower"), "grid", "probe frequencies"),
    ("find_minima", lambda w: find_minima(w, np.ones(3)), "minima", "probe frequencies"),
    ("eigen-sweep", partial(sweep_eigenfrequencies, POINT, "omega_b"), "grid", "sweep grid"),
]

# (id, the input an entry of each kind gets); None where that kind accepts it.
GRID_CASES = [
    ("complex", {"scalar": 1 + 1j, "array": np.array([1.0, 1 + 1j]), "grid": np.array([1.0 + 1j])}),
    ("wrong-shape", {"scalar": np.array([1.0]), "array": None, "grid": [[1.0, 2.0]]}),
    ("empty", {"scalar": np.array([]), "array": None, "grid": []}),
]
BAD_VALUES = [
    ("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf), ("zero", 0.0), ("negative", -1.0)
]


def _contract_cases():
    for entry, call, kind, name in FREQUENCY_ENTRIES:
        for case, inputs in GRID_CASES:
            value = inputs["grid" if kind == "minima" else kind]
            if value is not None:
                yield pytest.param(call, value, name, None, id=f"{entry}-{case}")
        if kind == "minima":
            continue
        value_name = "omega_b" if name == "sweep grid" else name
        for case, bad in BAD_VALUES:
            # An array's first offending value is named, not a later one.
            value = {"scalar": bad, "array": np.array([1.0, bad, -7.0]), "grid": [bad]}[kind]
            yield pytest.param(call, value, value_name, bad, id=f"{entry}-{case}")


class TestFrequencyInputContract:
    """Every frequency input is real, finite and positive, and every grid is
    real, 1-D and nonempty; each violation raises a ValueError that names
    the input (and the offending value) instead of a TypeError, a cast or a
    NaN."""

    @pytest.mark.parametrize("call, value, name, bad", list(_contract_cases()))
    def test_violation_raises_a_value_error_naming_the_input(self, call, value, name, bad):
        with pytest.raises(ValueError) as exc:
            call(value)
        message = str(exc.value)
        assert name in message
        if bad is not None:
            assert message.endswith(f", got {bad}")

    # A quadratic photon bath at 1e200: Python's float ** overflows in the
    # scalar rate, where the array path's numpy power gives inf.
    @pytest.mark.parametrize("call", [
        partial(gamma_of, BathSpec(0.1, 2.0)),
        partial(s11, make(g=0.3, ga=0.1, gb=0.2, sa=2.0)),
        partial(s_matrix, make(g=0.3, ga=0.1, gb=0.2, sa=2.0)),
        partial(dispersive_output_coefficient, make(g=0.3, ga=0.1, sa=2.0)),
    ], ids=["gamma_of", "s11", "s_matrix", "dispersive"])
    def test_a_scalar_rate_that_overflows_raises_a_value_error(self, call):
        message = "gamma(omega) overflows at omega = 1e+200 for exponent s = 2.0"
        with pytest.raises(ValueError) as exc:
            call(1e200)
        assert str(exc.value) == message

    def test_the_cli_exits_2_where_a_scalar_rate_overflows(self, capsys):
        assert cli.main(["squeeze", "--omega", "1e200", "--s-a", "2"]) == 2
        assert "gamma(omega) overflows at omega = 1e+200" in capsys.readouterr().err


@pytest.mark.parametrize("sweep", [
    partial(sweep_eigenfrequencies, POINT, "g"),
    partial(sweep_spectrum, POINT, "g", probe_frequencies=PROBE),
    partial(spectrum_text, "json", POINT, "g", probe_frequencies=PROBE),
], ids=["eigen", "spectrum", "spectrum-text"])
def test_every_sweep_names_the_value_that_leaves_the_domain(sweep):
    # One wording from resolve_point, whichever library sweep meets the value.
    message = (
        "sweep leaves the model's domain at g = -0.1: coupling g must be nonnegative, got -0.1"
    )
    with pytest.raises(ValueError) as exc:
        sweep([-0.1, 0.2])
    assert str(exc.value) == message
