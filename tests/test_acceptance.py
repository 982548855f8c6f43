"""Acceptance gate: every release criterion at its stated tolerance, one
pass/fail line per criterion (run with `pytest -s` to see them on success)."""

import itertools
import math
import time

import numpy as np

import opendicke.cli as cli
from opendicke.model import AltCouplingParams, alt_coupling_renorm, condensates, derive_phase
from opendicke.matrices import build_system, zeta_from_system
from opendicke.eigen import (
    closed_eigenfrequencies,
    locate_critical,
    open_eigenfrequencies,
)
from opendicke.scattering import find_minima, lamb_shift, s11
from opendicke.squeezing import QuadratureSpec, quadrature_variance, two_mode_variance

from conftest import make
from oracles import zeta_quartic_coeffs


def report(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {label}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_critical_point_resilience():
    amplitudes = [(0.05, 0.05), (0.05, 0.2), (0.05, 0.5), (0.2, 0.2), (0.2, 0.5), (0.5, 0.5)]
    t0 = time.perf_counter()
    worst = 0.0
    for (ga, gb), s in itertools.product(amplitudes, (-0.5, 0.0, 0.5)):
        got = locate_critical(make(ga=ga, gb=gb, sa=s, sb=s))
        worst = max(worst, abs(got - 0.5))
    elapsed = time.perf_counter() - t0
    report(
        1,
        "critical point resilient over the 18-point bath grid",
        worst < 1e-9 and elapsed < 1.0,
        f"worst |g*-0.5| = {worst:.2e}, {elapsed * 1e3:.1f} ms",
    )


def test_criterion_02_closed_spectrum():
    lo, hi = closed_eigenfrequencies(make(g=0.18))
    ok = abs(lo - 0.8) <= 1e-10 and abs(hi - 1.166190) <= 1e-6
    report(2, "closed spectrum at g = 0.18", ok, f"lower = {lo:.12f}, upper = {hi:.6f}")


def test_criterion_03_gap_region():
    grid = np.linspace(0.45, 0.55, 500)  # no node at exactly 0.5
    template = make(ga=0.3, gb=0.2)
    flags, res, ims = [], [], []
    for g in grid:
        es = open_eigenfrequencies(make(g=g, ga=0.3, gb=0.2))
        flags.append(es.gap)
        if es.gap:
            pair = es.lower_pair
            res.append(max(abs(pair[0].real), abs(pair[1].real)))
            ims.append((pair[0].imag, pair[1].imag))
    flags = np.array(flags)
    idx = np.flatnonzero(flags)
    contiguous = idx.size > 0 and np.array_equal(idx, np.arange(idx[0], idx[-1] + 1))
    contains = contiguous and grid[idx[0]] < 0.5 < grid[idx[-1]]
    re_ok = max(res) < 1e-9
    im_ok = all(a < 0 and b < 0 and a != b for a, b in ims)
    # The softening branch vanishes at g = 0.5 approached from either phase.
    closing = all(
        abs(open_eigenfrequencies(make(g=g, ga=0.3, gb=0.2)).lower.imag) < 1e-6
        for g in (0.5 - 1e-9, 0.5 + 1e-9)
    )
    ok = contains and re_ok and im_ok and closing
    report(
        3,
        "purely damped split pair across the transition",
        ok,
        f"gap on [{grid[idx[0]]:.4f}, {grid[idx[-1]]:.4f}], max|Re| = {max(res):.1e}",
    )


def test_criterion_04_decoupled_oracle():
    oracle = math.sqrt(1.0 - 0.3**2 / 4.0) - 0.15j
    es = open_eigenfrequencies(make(g=0.0, ga=0.3))
    err = min(abs(z - oracle) for z in es.roots)
    report(4, "decoupled damped root against the quadratic formula", err < 1e-9,
           f"|root - {oracle:.6f}| = {err:.1e}")


def explicit_normal_quartic(p) -> np.ndarray:
    """The normal-phase quartic of zeta for constant rates, written out by
    hand as an oracle independent of the package's factorized form."""
    wa, wb, g = p.omega_a, p.omega_b, p.g
    ga, gb = p.bath_a.gamma0, p.bath_b.gamma0
    return np.array([
        1.0,
        1j * (ga + gb),
        -(wa**2 + wb**2 + ga * gb),
        -1j * (wa**2 * gb + wb**2 * ga),
        wa**2 * wb**2 - 4.0 * g**2 * wa * wb,
    ])


def test_criterion_05_determinant_quartic_equivalence():
    rng = np.random.default_rng(20250501)
    worst = 0.0
    for _ in range(1000):
        wa, wb = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        p = make(
            omega_a=wa,
            omega_b=wb,
            g=rng.uniform(0.0, 0.99) * 0.5 * math.sqrt(wa * wb),
            ga=rng.uniform(0.0, 0.5),
            gb=rng.uniform(0.0, 0.5),
        )
        pd = derive_phase(p)
        w = complex(rng.uniform(-3.0, 3.0), rng.uniform(-1.0, 0.2))
        det_val = zeta_from_system(build_system(pd, p), w)
        oracle_val = np.polyval(explicit_normal_quartic(p), w)
        poly_val = np.polyval(zeta_quartic_coeffs(pd, p), w)
        dev = max(abs(det_val - oracle_val), abs(poly_val - oracle_val))
        worst = max(worst, dev / max(1.0, abs(oracle_val)))
    report(5, "determinant and quartic equal the explicit quartic (1000 draws)", worst < 1e-10,
           f"worst relative deviation = {worst:.1e}")


def test_criterion_06_causality():
    rng = np.random.default_rng(20250502)
    worst = -np.inf
    for _ in range(1000):
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
        worst = max(worst, max(z.imag for z in open_eigenfrequencies(p).roots))
    report(6, "no roots above the real axis (1000 draws)", worst <= 1e-10,
           f"max Im = {worst:.1e}")


def test_criterion_07_passivity_and_unit_modulus():
    rng = np.random.default_rng(20250503)
    probe = np.linspace(0.02, 2.5, 50)
    worst_mag, worst_unit = 0.0, 0.0
    for k in range(1000):
        wa, wb = rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)
        gb = 0.0 if k % 4 == 0 else rng.uniform(0.0, 0.5)
        p = make(
            omega_a=wa,
            omega_b=wb,
            g=rng.uniform(0.0, 0.9 * math.sqrt(wa * wb)),
            ga=rng.uniform(0.0, 0.5),
            gb=gb,
            sa=rng.uniform(-0.5, 1.0),
            sb=rng.uniform(-0.5, 1.0),
        )
        mag = np.abs(s11(p, probe))
        worst_mag = max(worst_mag, float(np.max(mag)))
        if gb == 0.0:
            worst_unit = max(worst_unit, float(np.max(np.abs(mag - 1.0))))
    ok = worst_mag <= 1.0 + 1e-9 and worst_unit < 1e-12
    report(7, "passivity plus unit modulus without internal loss", ok,
           f"max |S11| = {worst_mag:.12f}, max ||S11|-1| (gamma_b = 0) = {worst_unit:.1e}")


def test_criterion_08_minima_alignment():
    probe = np.arange(1e-4, 0.3, 1e-4)
    details = []
    ok = True
    for g in (0.495, 0.505):
        p = make(g=g, ga=0.05, gb=0.075)
        target = closed_eigenfrequencies(p)[0]
        minima = find_minima(probe, s11(p, probe))
        lowest = minima[0]
        err = abs(lowest - target)
        ok = ok and err <= 2e-4
        details.append(f"g = {g}: |dip - lower| = {err:.1e}")
    report(8, "reflection dips align with the closed lower energy", ok, "; ".join(details))


def test_criterion_09_lamb_shift_vanishes():
    probe = np.arange(1e-4, 0.6, 1e-4)
    shifts = {
        g: abs(lamb_shift(make(g=g, ga=0.05, gb=0.075), "lower", probe))
        for g in (0.45, 0.495, 0.505, 0.55)
    }
    ok = shifts[0.495] < shifts[0.45] and shifts[0.505] < shifts[0.55]
    report(9, "dip displacement shrinks toward the transition", ok,
           f"NP {shifts[0.495]:.1e} < {shifts[0.45]:.1e}; SP {shifts[0.505]:.1e} < {shifts[0.55]:.1e}")


def test_criterion_10_condensate_resilience():
    base = make(g=2**-0.5)
    alpha, beta = condensates(base)
    ulp = np.finfo(float).eps
    value_ok = abs(alpha - 0.375) <= 4 * ulp and abs(beta - 0.25) <= 4 * ulp
    bitwise_ok = True
    for g0, s in itertools.product((0.0, 0.1, 0.5), (-0.5, 0.0, 0.5)):
        got = condensates(make(g=2**-0.5, ga=g0, gb=g0, sa=s, sb=s))
        bitwise_ok = bitwise_ok and got == (alpha, beta)
    report(10, "condensates bath independent at lambda = 2", value_ok and bitwise_ok,
           f"alpha/N = {alpha!r}, beta/N = {beta!r}, bitwise stable = {bitwise_ok}")


def test_criterion_11_squeezing_verdict():
    p = make(omega_b=10.0, g=0.4, ga=0.1, gb=0.2)
    omega = 0.9
    vacuum = 0.5 / omega
    values = np.array([
        quadrature_variance(p, QuadratureSpec(omega=omega, phi=phi))
        for phi in np.linspace(0.0, 2.0 * math.pi, 64)
    ])
    flat = float(values.max() - values.min())
    err = float(np.max(np.abs(values - vacuum)))
    p2 = make(g=0.4, ga=0.1, gb=0.2)
    gap = abs(
        two_mode_variance(p2, QuadratureSpec(omega=omega, theta=0.0))
        - quadrature_variance(p2, QuadratureSpec(omega=omega))
    )
    ok = err <= 1e-10 and flat <= 1e-12 and gap <= 1e-14
    report(11, "output variance pinned to the vacuum value", ok,
           f"|var - 1/(2w)| = {err:.1e}, phi spread = {flat:.1e}, two-mode gap = {gap:.1e}")


def test_criterion_12_alternative_coupling():
    res = alt_coupling_renorm(make(g=0.3), AltCouplingParams(0.19, 0.0))
    err = abs(res.g_c_prime - 0.474342)
    flagged = alt_coupling_renorm(make(g=0.3), AltCouplingParams(1.5, 0.0)).abnormal_a
    report(12, "bilinear-coupling shift of the transition", err <= 1e-6 and flagged,
           f"|g_c' - 0.474342| = {err:.1e}, abnormal flag = {flagged}")


def _half_width_ratio(p, probe):
    row = np.abs(s11(p, probe))
    wmin = find_minima(probe, row)[0]
    i = int(np.argmin(np.abs(probe - wmin)))
    level = row[i] + 0.5 * (1.0 - row[i])
    j = i
    while j > 0 and row[j] < level:
        j -= 1
    below = wmin - (probe[j] + (probe[j + 1] - probe[j]) * (level - row[j]) / (row[j + 1] - row[j]))
    k = i
    while k < row.size - 1 and row[k] < level:
        k += 1
    above = (probe[k - 1] + (probe[k] - probe[k - 1]) * (level - row[k - 1]) / (row[k] - row[k - 1])) - wmin
    return below / above


def test_criterion_13_nonohmic_lineshape_asymmetry():
    g = 0.495
    target = closed_eigenfrequencies(make(g=g))[0]
    probe = np.arange(1e-4, 0.35, 2e-5)
    ratios = {}
    for s in (-0.5, 0.0, 0.5):
        scale = target ** (-s)  # match gamma(Omega_-) across exponents
        p = make(g=g, ga=0.05 * scale, gb=0.075 * scale, sa=s, sb=s)
        ratios[s] = _half_width_ratio(p, probe)
    ok = ratios[-0.5] > ratios[0.0] > ratios[0.5]
    report(13, "below/above half-width ratio ordered by bath exponent", ok,
           f"sub = {ratios[-0.5]:.3f} > ohmic = {ratios[0.0]:.3f} > super = {ratios[0.5]:.3f}")


def test_criterion_14_cli_end_to_end(tmp_path, capsys):
    invocations = [
        ["eigen", "--omega-a", "1", "--omega-b", "1", "--gamma-a", "0.3",
         "--gamma-b", "0.2", "--sweep", "g:0:0.7:400"],
        ["spectrum", "--g", "0.25", "--sweep", "ratio:0.2:2:400",
         "--probe", "0.01:1.8:2000", "--linear-gamma-b"],
        ["critical", "--omega-a", "1", "--omega-b", "1", "--gamma-a", "0.5", "--s-a", "-0.5"],
    ]
    ok = True
    details = []
    for n, argv in enumerate(invocations):
        timings = []
        outputs = []
        for attempt in range(2):
            out = tmp_path / f"run{n}-{attempt}.dat"
            full = list(argv) + (["-o", str(out)] if argv[0] != "critical" else [])
            capsys.readouterr()
            t0 = time.perf_counter()
            rc = cli.main(full)
            timings.append(time.perf_counter() - t0)
            ok = ok and rc == 0
            captured = capsys.readouterr().out.encode()
            outputs.append(out.read_bytes() if out.exists() else captured)
        ok = ok and outputs[0] == outputs[1] and max(timings) < 10.0
        details.append(f"{argv[0]}: {max(timings):.2f} s")
        if argv[0] == "critical":
            ok = ok and outputs[0].splitlines()[-1] == b"0.500000000000"
    report(14, "CLI examples deterministic and inside the time budget", ok, "; ".join(details))
