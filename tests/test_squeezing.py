import math

import numpy as np
import pytest

from opendicke.scattering import s11
from opendicke.squeezing import (
    QuadratureSpec,
    dispersive_output_coefficient,
    quadrature_variance,
    two_mode_variance,
)

from conftest import make


class TestDispersiveCoefficient:
    def test_unit_modulus(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            p = make(
                omega_a=rng.uniform(0.5, 1.5),
                omega_b=rng.uniform(1.0, 50.0),
                g=rng.uniform(0.0, 1.0),
                ga=rng.uniform(0.0, 0.5),
            )
            c = dispersive_output_coefficient(p, rng.uniform(0.05, 2.0))
            assert abs(abs(c) - 1.0) <= 1e-14

    def test_low_frequency_limit(self):
        c = dispersive_output_coefficient(make(omega_b=50.0, g=0.5, ga=0.1), 1e-9)
        assert abs(c - 1.0) < 1e-6

    def test_matches_full_reflection_in_dispersive_regime(self):
        errs = []
        for wb in (100.0, 1000.0):
            p = make(omega_b=wb, g=0.5, ga=0.1, gb=0.0)
            c = dispersive_output_coefficient(p, 0.9)
            full = s11(p, 0.9)
            errs.append(abs(c - full) / abs(full))
        assert errs[0] < 1e-2
        assert errs[1] < errs[0]

    def test_rejects_nonpositive_probe(self):
        with pytest.raises(ValueError):
            dispersive_output_coefficient(make(ga=0.1), 0.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_non_finite_probe(self, bad):
        with pytest.raises(ValueError, match="finite"):
            dispersive_output_coefficient(make(ga=0.1), bad)


class TestSingleModeVariance:
    def test_vacuum_value_plugins(self):
        p = make(omega_b=10.0, g=0.4, ga=0.1)
        assert abs(quadrature_variance(p, QuadratureSpec(omega=1.0)) - 0.5) < 1e-12
        assert abs(quadrature_variance(p, QuadratureSpec(omega=2.0)) - 0.25) < 1e-12

    def test_angle_independence(self):
        p = make(omega_b=10.0, g=0.4, ga=0.1)
        a = quadrature_variance(p, QuadratureSpec(omega=0.7, phi=0.0))
        b = quadrature_variance(p, QuadratureSpec(omega=0.7, phi=math.pi / 3.0))
        assert abs(a - b) <= 1e-15

    def test_requires_single_mode(self):
        with pytest.raises(ValueError):
            quadrature_variance(make(ga=0.1), QuadratureSpec(omega=1.0, theta=0.1))

    def test_requires_positive_probe(self):
        with pytest.raises(ValueError):
            QuadratureSpec(omega=0.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_requires_finite_probe(self, bad):
        with pytest.raises(ValueError, match="finite"):
            QuadratureSpec(omega=bad)

    @pytest.mark.parametrize("angle", ["phi", "theta", "psi"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_requires_finite_angles(self, angle, bad):
        with pytest.raises(ValueError, match=f"angle {angle} must be finite"):
            QuadratureSpec(omega=1.0, **{angle: bad})


class TestTwoModeVariance:
    def test_reduces_to_single_mode(self):
        p = make(g=0.4, ga=0.1, gb=0.2)
        a = two_mode_variance(p, QuadratureSpec(omega=0.9, theta=0.0))
        b = quadrature_variance(p, QuadratureSpec(omega=0.9))
        assert abs(a - b) <= 1e-14

    def test_phi_scan_constant(self):
        p = make(g=0.4, ga=0.1, gb=0.2)
        vals = [
            two_mode_variance(p, QuadratureSpec(omega=0.9, phi=phi, theta=math.pi / 3.0, psi=0.7))
            for phi in np.linspace(0.0, 2.0 * math.pi, 64)
        ]
        assert max(vals) - min(vals) <= 1e-12

    def test_pure_port_b_is_vacuum(self):
        p = make(g=0.4, ga=0.1, gb=0.2)
        v = two_mode_variance(p, QuadratureSpec(omega=0.9, theta=math.pi / 2.0))
        assert abs(v - 1.0 / 1.8) <= 1e-10

    def test_no_squeezing_anywhere(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            p = make(
                omega_a=rng.uniform(0.5, 1.5),
                omega_b=rng.uniform(0.5, 1.5),
                g=rng.uniform(0.0, 1.0),
                ga=rng.uniform(0.05, 0.5),
                gb=rng.uniform(0.05, 0.5),
            )
            w = rng.uniform(0.1, 2.0)
            vacuum = 0.5 / w
            lo = min(
                two_mode_variance(p, QuadratureSpec(omega=w, phi=phi, theta=th, psi=ps))
                for phi in np.linspace(0.0, math.pi, 4)
                for th in np.linspace(0.0, math.pi, 7)
                for ps in np.linspace(0.0, 2.0 * math.pi, 7)
            )
            assert abs(lo - vacuum) <= 1e-10

    def test_propagates_singular_port(self):
        with pytest.raises(ValueError):
            two_mode_variance(make(g=0.3, ga=0.1, gb=0.0), QuadratureSpec(omega=0.9, theta=0.3))
