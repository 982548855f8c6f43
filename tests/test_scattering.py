import io
import json
import math
import re

import numpy as np
import pytest

from opendicke.model import BathSpec, ModelParams, derive_phase
from opendicke.matrices import INPUT, zeta
from opendicke.eigen import closed_eigenfrequencies, open_eigenfrequencies
from opendicke.scattering import (
    FORMAT_ROWS,
    SpectrumGrid,
    find_minima,
    lamb_shift,
    s11,
    s_matrix,
    sweep_spectrum,
    write_spectrum,
)

from conftest import make


def random_params(rng, nonohmic=False, min_gamma=0.0):
    wa, wb = rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)
    return make(
        omega_a=wa,
        omega_b=wb,
        g=rng.uniform(0.0, 0.9 * math.sqrt(wa * wb)),
        ga=rng.uniform(min_gamma, 0.5),
        gb=rng.uniform(min_gamma, 0.5),
        sa=rng.uniform(-0.5, 1.0) if nonohmic else 0.0,
        sb=rng.uniform(-0.5, 1.0) if nonohmic else 0.0,
    )


class TestS11:
    def test_decoupled_resonance_is_full_reflection(self):
        val = s11(make(g=0.0, ga=0.3, gb=0.25), 1.0)
        assert abs(val + 1.0) < 1e-12
        # With gamma_b = 0 the probe sits exactly on the removable 0/0 of the
        # undamped matter factor; the offset-resolved value is -1 to O(1e-8).
        val = s11(make(g=0.0, ga=0.3, gb=0.0), 1.0)
        assert abs(val + 1.0) < 1e-7

    def test_decoupled_unit_modulus(self):
        probe = np.linspace(0.05, 3.0, 200)
        row = s11(make(g=0.0, ga=0.3, gb=0.4), probe)
        assert np.max(np.abs(np.abs(row) - 1.0)) < 1e-12

    def test_high_frequency_transparency(self):
        # S11 - 1 falls off like 2 gamma_a / omega.
        p = make(g=0.3, ga=0.3, gb=0.2)
        near = abs(s11(p, 1e4) - 1.0)
        far = abs(s11(p, 1e5) - 1.0)
        assert near < 1e-4
        assert far < near / 5.0

    def test_low_frequency_limit(self):
        for g in (0.3, 0.7):
            val = s11(make(g=g, ga=0.3, gb=0.2), 1e-6)
            assert abs(val - 1.0) < 1e-6

    def test_list_and_tuple_probes_equal_the_array_call(self):
        p = make(g=0.3, ga=0.3, gb=0.2)
        probe = [0.5, 1.0, 1.37]
        want = s11(p, np.array(probe))
        assert np.array_equal(s11(p, probe), want)
        assert np.array_equal(s11(p, tuple(probe)), want)

    def test_rejects_nonpositive_probe(self):
        with pytest.raises(ValueError):
            s11(make(ga=0.1), 0.0)
        with pytest.raises(ValueError):
            s11(make(ga=0.1), np.array([0.5, -1.0]))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_non_finite_probe(self, bad):
        with pytest.raises(ValueError, match="finite"):
            s11(make(ga=0.1), np.array([0.5, bad]))
        with pytest.raises(ValueError, match="finite"):
            s_matrix(make(ga=0.1, gb=0.2), bad)

    def test_denominator_vanishes_at_eigenfrequencies(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            p = random_params(rng, nonohmic=True, min_gamma=0.05)
            pd = derive_phase(p)
            for root in open_eigenfrequencies(p).roots:
                assert abs(zeta(pd, p, root, INPUT)) < 1e-9 * (1.0 + abs(root) ** 4)


class TestSMatrix:
    def test_diagonal_matches_closed_form(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            p = random_params(rng, nonohmic=True, min_gamma=0.02)
            w = rng.uniform(0.05, 2.5)
            assert abs(s_matrix(p, w)[0, 0] - s11(p, w)) < 1e-12

    def test_reciprocity(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            p = random_params(rng, nonohmic=True, min_gamma=0.02)
            s = s_matrix(p, rng.uniform(0.05, 2.5))
            assert abs(s[0, 1] - s[1, 0]) < 1e-9

    def test_unitary_on_real_axis(self):
        rng = np.random.default_rng(14)
        for _ in range(60):
            p = random_params(rng, nonohmic=True, min_gamma=0.02)
            s = s_matrix(p, rng.uniform(0.05, 2.5))
            assert np.max(np.abs(s @ s.conj().T - np.eye(2))) < 1e-10

    def test_decoupled_ports_do_not_transmit(self):
        s = s_matrix(make(g=0.0, ga=0.2, gb=0.3), 0.8)
        assert abs(s[0, 1]) < 1e-12 and abs(s[1, 0]) < 1e-12

    def test_requires_both_ports(self):
        with pytest.raises(ValueError):
            s_matrix(make(g=0.2, ga=0.2, gb=0.0), 1.0)


class TestPassivity:
    def test_random_draws(self):
        rng = np.random.default_rng(15)
        probe = np.linspace(0.02, 2.5, 50)
        for _ in range(200):
            p = random_params(rng, nonohmic=True)
            assert np.max(np.abs(s11(p, probe))) <= 1.0 + 1e-9

    def test_unit_modulus_without_internal_loss(self):
        rng = np.random.default_rng(16)
        probe = np.linspace(0.02, 2.5, 50)
        for _ in range(50):
            p = random_params(rng, nonohmic=True)
            p = make(
                omega_a=p.omega_a, omega_b=p.omega_b, g=p.g,
                ga=p.bath_a.gamma0, sa=p.bath_a.exponent_s, gb=0.0,
            )
            assert np.max(np.abs(np.abs(s11(p, probe)) - 1.0)) < 1e-12


class TestSweepSpectrum:
    def test_grid_shape_and_phase_labels(self):
        sweep = np.array([0.2, 0.5, 0.8])
        probe = np.linspace(0.1, 1.5, 30)
        grid = sweep_spectrum(make(ga=0.1, gb=0.1), "g", sweep, probe)
        assert grid.values.shape == (3, 30)
        assert grid.phase_labels == ("normal", "critical", "superradiant")
        row = s11(make(g=0.8, ga=0.1, gb=0.1), probe)
        assert np.max(np.abs(grid.values[2] - row)) == 0.0

    def test_ratio_axis_with_linear_gamma_b(self):
        sweep = np.array([0.5, 2.0])
        probe = np.linspace(0.1, 1.5, 20)
        grid = sweep_spectrum(
            make(g=0.25, ga=0.1, gb=0.1), "ratio", sweep, probe, linear_gamma_b=True
        )
        manual = s11(make(omega_b=2.0, g=0.25, ga=0.1, gb=0.2), probe)
        assert np.max(np.abs(grid.values[1] - manual)) == 0.0

    def test_workers_do_not_change_bytes(self):
        sweep = np.linspace(0.1, 0.6, 8)
        probe = np.linspace(0.1, 1.5, 64)
        a = sweep_spectrum(make(ga=0.1, gb=0.1), "g", sweep, probe)
        b = sweep_spectrum(make(ga=0.1, gb=0.1), "g", sweep, probe, workers=2)
        assert np.array_equal(a.values, b.values)

    def test_validation(self):
        with pytest.raises(ValueError):
            sweep_spectrum(make(), "q", [0.1], [0.5])
        with pytest.raises(ValueError):
            sweep_spectrum(make(), "g", [], [0.5])
        with pytest.raises(ValueError):
            sweep_spectrum(make(), "g", [0.1], [0.0, 0.5])

    def test_linear_gamma_b_needs_a_ratio_sweep(self):
        message = "linear_gamma_b scales gamma_b along a 'ratio' sweep, got axis 'g'"
        with pytest.raises(ValueError, match=message):
            sweep_spectrum(make(), "g", [0.1], [0.5], linear_gamma_b=True)

    def test_phase_column_is_csv_only(self):
        out = io.StringIO()
        with pytest.raises(ValueError, match="include_phase is a CSV column; JSON always has"):
            write_spectrum(out, "json", make(), "g", [0.1], [0.5], include_phase=True)
        assert out.getvalue() == ""

    def test_reflection_dips_track_polaritons_in_g(self):
        probe = np.linspace(0.01, 1.8, 2000)
        for g in (0.1, 0.25, 0.4):
            p = make(g=g, ga=0.1, gb=0.1)
            lo, hi = closed_eigenfrequencies(p)
            mins = find_minima(probe, s11(p, probe))
            assert mins.size == 2
            assert abs(mins[0] - lo) < 0.03 and abs(mins[1] - hi) < 0.03
        # Softening: the lowest dip collapses toward zero at the transition.
        near = find_minima(probe, s11(make(g=0.499, ga=0.1, gb=0.1), probe))
        assert near[0] < 0.06

    def test_reflection_dips_track_polaritons_in_ratio(self):
        probe = np.linspace(0.01, 1.8, 2000)
        for ratio in (0.3, 0.8, 1.5):
            p = make(omega_b=ratio, g=0.25, ga=0.1, gb=0.1 * ratio)
            lo, hi = closed_eigenfrequencies(p)
            mins = find_minima(probe, s11(p, probe))
            assert np.min(np.abs(mins - lo)) < 0.03
            assert np.min(np.abs(mins - hi)) < 0.03

    def test_lossless_port_b_row_is_flat(self):
        probe = np.linspace(0.1, 1.5, 300)
        row = s11(make(g=0.3, ga=0.1, gb=0.0), probe)
        assert find_minima(probe, row).size == 0


class TestFindMinima:
    def test_parabola_vertex_oracle(self):
        x = np.linspace(0.0, 1.0, 11)
        vertex = 0.437
        y = (x - vertex) ** 2 + 0.01
        got = find_minima(x, np.sqrt(y))  # |S11|^2 is exactly the parabola
        assert got.size == 1
        assert abs(got[0] - vertex) < 1e-12

    def test_two_dips(self):
        x = np.linspace(0.0, 2.0, 400)
        y = 1.0 - 0.5 * np.exp(-((x - 0.5) ** 2) / 0.01) - 0.7 * np.exp(-((x - 1.4) ** 2) / 0.02)
        got = find_minima(x, y)
        assert got.size == 2
        assert abs(got[0] - 0.5) < 1e-3 and abs(got[1] - 1.4) < 1e-3

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            find_minima(np.array([0.1, 0.2]), np.array([1.0, 1.0]))

    def test_probe_must_be_strictly_increasing(self):
        # The parabolic refinement clamps to its bracketing triple, which it
        # reads in increasing order: a reversed grid would return a grid point.
        x = np.linspace(0.0, 1.0, 11)
        y = np.sqrt((x - 0.437) ** 2 + 0.01)
        assert find_minima(x, y).size == 1
        repeated = np.concatenate([x[:5], x[4:]])
        swapped = x.copy()
        swapped[[3, 4]] = swapped[[4, 3]]
        for bad, row in ((x[::-1], y[::-1]), (repeated, np.concatenate([y[:5], y[4:]])), (swapped, y)):
            with pytest.raises(ValueError, match="strictly increasing"):
                find_minima(bad, row)

    def test_probe_and_row_lengths_must_match(self):
        # Unchecked, a probe grid of another length reads the row's dip index
        # on the wrong grid (0.874 for the first case) or drops the row's tail.
        x = np.linspace(0.0, 1.0, 101)
        y = np.sqrt((x - 0.437) ** 2 + 0.01)
        for probe, row in ((x[::2][:51], y), (x, y[:60]), (x[:60], y)):
            with pytest.raises(ValueError, match="probe frequencies for a row of"):
                find_minima(probe, row)


class TestLambShift:
    def test_vanishes_with_damping(self):
        # The dip width scales with gamma, so the probe pitch must resolve it.
        probe = np.arange(0.5, 0.8, 2e-5)
        shift = lamb_shift(make(g=0.3, ga=1e-4, gb=1e-4), "lower", probe)
        assert abs(shift) < 2e-5

    def test_shrinks_near_transition(self):
        probe = np.arange(1e-4, 0.6, 1e-4)
        near = lamb_shift(make(g=0.495, ga=0.05, gb=0.075), "lower", probe)
        far = lamb_shift(make(g=0.45, ga=0.05, gb=0.075), "lower", probe)
        assert abs(near) < abs(far)
        near_sp = lamb_shift(make(g=0.505, ga=0.05, gb=0.075), "lower", probe)
        far_sp = lamb_shift(make(g=0.55, ga=0.05, gb=0.075), "lower", probe)
        assert abs(near_sp) < abs(far_sp)

    def test_heavy_matter_damping(self):
        probe = np.arange(1e-3, 2.2, 1e-4)
        # Resolved dips: the upper branch carries the larger displacement.
        p = make(g=0.3, ga=0.1, gb=0.5)
        assert abs(lamb_shift(p, "upper", probe)) > abs(lamb_shift(p, "lower", probe))
        # At weak coupling the dips merge into one, far from both closed
        # energies: a considerable shift on both assignments.
        p_weak = make(g=0.1, ga=0.1, gb=0.5)
        mins = find_minima(probe, s11(p_weak, probe))
        assert mins.size == 1
        assert abs(lamb_shift(p_weak, "lower", probe)) > 0.09
        assert abs(lamb_shift(p_weak, "upper", probe)) > 0.09

    def test_reversed_probe_raises(self):
        p = ModelParams(1, 1, 0.3, BathSpec(0.05), BathSpec(0.075))
        probe = np.linspace(0.5, 1.5, 201)
        assert abs(lamb_shift(p, "lower", probe) - 0.001133) < 1e-6
        with pytest.raises(ValueError, match="strictly increasing"):
            lamb_shift(p, "lower", probe[::-1])

    def test_no_minimum_raises(self):
        probe = np.linspace(0.1, 1.5, 200)
        with pytest.raises(ValueError):
            lamb_shift(make(g=0.3, ga=0.1, gb=0.0), "lower", probe)
        with pytest.raises(ValueError):
            lamb_shift(make(g=0.3, ga=0.1, gb=0.1), "sideways", probe)


P_DIPS = make(g=0.3, ga=0.1, gb=0.2)
PROBE = np.linspace(0.1, 2.0, 50)


class TestRealOneDimensionalInputs:
    """Complex probes are rejected before any cast, and every grid is 1-D;
    s11 alone stays elementwise over any shape."""

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda: s11(P_DIPS, 1 + 1j), "probe frequencies"),
            (lambda: s11(P_DIPS, [1 + 1j]), "probe frequencies"),
            (lambda: s_matrix(P_DIPS, 1 + 1j), "probe frequencies"),
            (lambda: sweep_spectrum(P_DIPS, "g", [0.1, 0.2], PROBE + 0.01j), "probe grid"),
            (lambda: lamb_shift(P_DIPS, "lower", PROBE + 0.01j), "probe frequencies"),
            (lambda: find_minima(PROBE + 0.01j, s11(P_DIPS, PROBE)), "probe frequencies"),
        ],
        ids=["s11", "s11-list", "s_matrix", "sweep_spectrum", "lamb_shift", "find_minima"],
    )
    def test_complex_probe_is_rejected(self, call, name):
        with pytest.raises(ValueError, match=f"{name} must be real.*, got complex128"):
            call()

    def test_s_matrix_takes_one_frequency(self):
        with pytest.raises(ValueError, match=r"one probe frequency omega, got shape \(1,\)"):
            s_matrix(P_DIPS, np.array([1.0]))

    def test_find_minima_needs_a_1d_row(self):
        row = s11(P_DIPS, PROBE)
        assert np.allclose(find_minima(PROBE, row), [0.642, 1.252], atol=1e-3)
        for shape in ((1, 50), (50, 1)):
            assert np.array_equal(s11(P_DIPS, PROBE.reshape(shape)), row.reshape(shape))
            message = "probe frequencies must be real and 1-D, got float64 of shape "
            with pytest.raises(ValueError, match=message + re.escape(str(shape))):
                find_minima(PROBE.reshape(shape), row.reshape(shape))
        with pytest.raises(ValueError, match=r"50 probe frequencies for a row of shape \(1, 50\)"):
            find_minima(PROBE, row.reshape(1, 50))

    @pytest.mark.parametrize(
        "sweep, probe, name",
        [
            ([[0.1, 0.2]], PROBE, "sweep"),
            ([0.1, 0.2], PROBE[None, :], "probe"),
            (0.1, PROBE, "sweep"),
        ],
        ids=["2d-sweep", "2d-probe", "scalar-sweep"],
    )
    def test_spectrum_grids_must_be_1d(self, sweep, probe, name):
        shape = np.shape(sweep if name == "sweep" else probe)
        message = f"{name} grid must be real and 1-D, got float64 of shape " + re.escape(str(shape))
        with pytest.raises(ValueError, match=message):
            sweep_spectrum(P_DIPS, "g", sweep, probe)
        out = io.StringIO()
        with pytest.raises(ValueError, match=message):
            write_spectrum(out, "csv", P_DIPS, "g", sweep, probe)
        assert out.getvalue() == ""


class TestSerialization:
    def _grid(self):
        sweep = np.array([0.2, 0.8])
        probe = np.linspace(0.1, 1.0, 4)
        return sweep_spectrum(make(ga=0.1, gb=0.1), "g", sweep, probe)

    def test_csv_layout(self):
        grid = self._grid()
        out = io.StringIO()
        grid.to_csv(out)
        lines = out.getvalue().splitlines()
        assert lines[0].startswith("# axis=g sweep=")
        assert lines[1] == "# columns: sweep_value,omega,re_s11,im_s11,abs_s11"
        assert len(lines) == 2 + 8
        first = lines[2].split(",")
        assert len(first) == 5
        assert float(first[0]) == 0.2 and float(first[1]) == 0.1

    def test_csv_phase_column(self):
        grid = self._grid()
        out = io.StringIO()
        grid.to_csv(out, include_phase=True)
        lines = out.getvalue().splitlines()
        assert lines[1].endswith(",phase")
        assert lines[2].endswith(",normal")
        assert lines[-1].endswith(",superradiant")

    def test_json_schema_and_round_trip(self):
        grid = self._grid()
        text = grid.to_json()
        doc = json.loads(text)
        assert list(doc) == ["axis", "sweep_values", "probe_frequencies", "abs_s11", "phase_labels"]
        assert doc["axis"] == "g"
        assert len(doc["abs_s11"]) == 8
        assert doc["abs_s11"][:4] == [float(v) for v in np.abs(grid.values[0])]
        assert json.dumps(doc, separators=(",", ":")) == text


class TestBlockFormatters:
    """The block formatters against independent whole-grid references."""

    @staticmethod
    def _grid(rows):
        rng = np.random.default_rng(rows)
        probe = np.linspace(0.1, 1.7, 7)
        values = rng.normal(size=(rows, probe.size)) + 1j * rng.normal(size=(rows, probe.size))
        values[0, 0] = complex(-0.0, -0.0)
        values[0, 1] = complex(math.nan, 0.5)
        values[-1, 2] = complex(-math.inf, 1.0)
        values[-1, 3] = complex(0.25, -0.0)
        labels = ("normal", "critical", "superradiant") * rows
        return SpectrumGrid(
            axis="g",
            sweep_values=np.linspace(0.05, 0.9, rows),
            probe_frequencies=probe,
            values=values,
            phase_labels=labels[:rows],
        )

    @staticmethod
    def _csv_reference(grid, include_phase):
        # The former writer: one np.savetxt per row with the sweep value and
        # label baked into the row format.
        out = io.StringIO()
        sv, pf = grid.sweep_values, grid.probe_frequencies
        out.write(
            f"# axis={grid.axis} sweep={sv[0]:.11e}:{sv[-1]:.11e}:{sv.size}"
            f" probe={pf[0]:.11e}:{pf[-1]:.11e}:{pf.size}\n"
        )
        cols = "sweep_value,omega,re_s11,im_s11,abs_s11"
        out.write(f"# columns: {cols},phase\n" if include_phase else f"# columns: {cols}\n")
        for i, v in enumerate(sv):
            row = grid.values[i]
            block = np.column_stack((pf, row.real, row.imag, np.abs(row)))
            tail = f",{grid.phase_labels[i]}" if include_phase else ""
            np.savetxt(out, block, fmt=f"{v:.11e},%.11e,%.11e,%.11e,%.11e{tail}")
        return out.getvalue()

    @pytest.mark.parametrize("rows", [2 * FORMAT_ROWS + 3, 1])
    def test_csv_matches_savetxt(self, rows):
        grid = self._grid(rows)
        for include_phase in (False, True):
            out = io.StringIO()
            grid.to_csv(out, include_phase=include_phase)
            assert out.getvalue() == self._csv_reference(grid, include_phase)
        assert "-0.00000000000e+00,-0.00000000000e+00,0.00000000000e+00" in out.getvalue()
        assert ",nan,5.00000000000e-01,nan," in out.getvalue()
        assert ",-inf,1.00000000000e+00,inf," in out.getvalue()

    @pytest.mark.parametrize("rows", [2 * FORMAT_ROWS + 3, 1])
    def test_json_matches_whole_document_dumps(self, rows):
        grid = self._grid(rows)
        doc = {
            "axis": grid.axis,
            "sweep_values": [float(v) for v in grid.sweep_values],
            "probe_frequencies": [float(w) for w in grid.probe_frequencies],
            "abs_s11": [float(x) for x in np.abs(grid.values).ravel()],
            "phase_labels": list(grid.phase_labels),
        }
        text = grid.to_json()
        assert text == json.dumps(doc, separators=(",", ":"))
        assert '"abs_s11":[0.0,NaN,' in text
        assert ",Infinity,0.25," in text
