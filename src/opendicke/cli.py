"""Command-line front end: parameter sweeps written to CSV or JSON files.

Every command takes the model dials as flags (frequencies default to 1, so
couplings and rates are read in units of omega_a), writes its dataset
atomically (temp file + rename), and prints a one-line summary. CSV numbers
are fixed at 12 significant digits and JSON floats use the shortest
round-trip repr, so identical invocations produce byte-identical files
regardless of the worker count.

Exit codes: 0 success, 2 invalid usage, 3 numerical non-convergence,
4 output I/O failure.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass, replace

import numpy as np

from .model import (
    AltCouplingParams,
    BathSpec,
    ModelParams,
    alt_coupling_renorm,
    bath_condensate_density,
    derive_phase,
)
from .eigen import (
    BranchTable,
    ConvergenceError,
    locate_critical,
    open_eigenfrequencies,
    sweep_eigenfrequencies,
    sweep_point,
)
from .fanout import fan_out
# bench/tracer.py wraps cli.sweep_spectrum, so the name stays importable here.
from .scattering import resolve_point, sweep_spectrum, write_spectrum  # noqa: F401
from .squeezing import QuadratureSpec, quadrature_variance, two_mode_variance

PARALLEL_ENV = "DICKE_PARALLEL"


class UsageError(ValueError):
    pass


@dataclass(frozen=True)
class SweepSpec:
    axis: str
    values: np.ndarray


def _parse_range(text: str, name: str, fields: list[str], default_points: int) -> np.ndarray:
    """The start:stop[:points] fields of a --name value as an increasing grid."""
    try:
        points = int(fields[2]) if len(fields) == 3 else default_points
    except ValueError as exc:
        raise UsageError(f"bad point count in --{name} {text!r}") from exc
    try:
        lo, hi = float(fields[0]), float(fields[1])
    except ValueError as exc:
        raise UsageError(f"bad bounds in --{name} {text!r}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise UsageError(f"--{name} bounds must be finite, got {text!r}")
    if points < 2:
        raise UsageError(f"--{name} needs at least 2 points, got {points}")
    if not hi > lo:
        raise UsageError(f"--{name} range must be increasing, got {text!r}")
    return np.linspace(lo, hi, points)


def _parse_grid(text: str, name: str, default_points: int) -> tuple[str, np.ndarray]:
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise UsageError(f"--{name} expects axis:start:stop[:points], got {text!r}")
    return parts[0], _parse_range(text, name, parts[1:], default_points)


def _parse_sweep(text: str, allowed: tuple[str, ...], point) -> SweepSpec:
    """The sweep grid, every value checked by building its model point with
    point(axis, value), so a grid that leaves the model's domain is a usage
    error before any work starts."""
    axis, values = _parse_grid(text, "sweep", 400)
    axis = axis.replace("-", "_")
    if axis not in allowed:
        raise UsageError(f"sweep axis must be one of {allowed}, got {axis!r}")
    for value in values:
        try:
            point(axis, float(value))
        except ValueError as exc:
            raise UsageError(
                f"--sweep {text!r} leaves the model's domain at {axis} = {float(value)}: {exc}"
            ) from exc
    return SweepSpec(axis, values)


def _parse_probe(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise UsageError(f"--probe expects start:stop[:points], got {text!r}")
    probe = _parse_range(text, "probe", parts, 2000)
    if not probe[0] > 0:
        raise UsageError(f"probe lower bound must be positive, got {float(probe[0])}")
    return probe


def _params_from(args: argparse.Namespace) -> ModelParams:
    try:
        return ModelParams(
            omega_a=args.omega_a,
            omega_b=args.omega_b,
            g=args.g,
            bath_a=BathSpec(args.gamma_a, args.s_a),
            bath_b=BathSpec(args.gamma_b, args.s_b),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _workers(args: argparse.Namespace) -> int:
    if args.parallel is not None:
        n = args.parallel
    else:
        text = os.environ.get(PARALLEL_ENV, "1")
        try:
            n = int(text)
        except ValueError as exc:
            raise UsageError(f"${PARALLEL_ENV} must be an integer, got {text!r}") from exc
    if n < 1:
        raise UsageError(f"--parallel must be >= 1, got {n}")
    return n


def _atomic_write(path: str, text: str | None = None, writer=None) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".opendicke-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            if writer is not None:
                writer(handle)
            else:
                handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(x: float) -> str:
    return f"{x:.11e}"


def _summary(path: str, rows: int, cols: int, t0: float) -> None:
    print(f"wrote {path}: {rows} rows x {cols} columns in {time.perf_counter() - t0:.2f} s")


def _eigen_point(args) -> object:
    params, axis, value = args
    with sweep_point(axis, value):
        return open_eigenfrequencies(replace(params, **{axis: value}))


def _cmd_eigen(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    params = _params_from(args)
    sweep = _parse_sweep(args.sweep, ("g", "omega_b"), lambda axis, v: replace(params, **{axis: v}))
    workers = _workers(args)
    tasks = [(params, sweep.axis, float(v)) for v in sweep.values]
    eigensets = list(fan_out(_eigen_point, tasks, workers, chunksize=16))
    table = sweep_eigenfrequencies(params, sweep.axis, sweep.values, eigensets=eigensets)
    if args.format == "json":
        text = _eigen_json(table)
    else:
        text = _eigen_csv(table)
    _atomic_write(args.output, text)
    _summary(args.output, sweep.values.size, 6, t0)
    return 0


def _eigen_csv(table: BranchTable) -> str:
    out = io.StringIO()
    v = table.values
    out.write(f"# axis={table.axis} sweep={_fmt(v[0])}:{_fmt(v[-1])}:{v.size}\n")
    out.write(f"# columns: {table.axis},re_lower,im_lower,re_upper,im_upper,gap_flag\n")
    for i in range(v.size):
        lo, up = table.lower[i], table.upper[i]
        out.write(
            f"{_fmt(v[i])},{_fmt(lo.real)},{_fmt(lo.imag)},"
            f"{_fmt(up.real)},{_fmt(up.imag)},{int(table.gap[i])}\n"
        )
    return out.getvalue()


def _eigen_json(table: BranchTable) -> str:
    doc = {
        "axis": table.axis,
        "values": [float(x) for x in table.values],
        "re_lower": [float(z.real) for z in table.lower],
        "im_lower": [float(z.imag) for z in table.lower],
        "re_upper": [float(z.real) for z in table.upper],
        "im_upper": [float(z.imag) for z in table.upper],
        "gap_flag": [bool(b) for b in table.gap],
        "phase_labels": [p.value for p in table.phases],
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


def _cmd_spectrum(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    params = _params_from(args)
    if args.include_phase_labels and args.format == "json":
        raise UsageError("--include-phase-labels needs --format csv; JSON has phase_labels")
    sweep = _parse_sweep(
        args.sweep,
        ("g", "ratio"),
        lambda axis, v: resolve_point(params, axis, v, args.linear_gamma_b),
    )
    if args.linear_gamma_b and sweep.axis != "ratio":
        raise UsageError(f"--linear-gamma-b needs a ratio --sweep, got axis {sweep.axis!r}")
    probe = _parse_probe(args.probe)
    workers = _workers(args)
    _atomic_write(
        args.output,
        writer=lambda handle: write_spectrum(
            handle,
            args.format,
            params,
            sweep.axis,
            sweep.values,
            probe,
            linear_gamma_b=args.linear_gamma_b,
            include_phase=args.include_phase_labels,
            workers=workers,
        ),
    )
    _summary(args.output, sweep.values.size, probe.size, t0)
    return 0


def _cmd_condensates(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    params = _params_from(args)
    pd = derive_phase(params)
    rows = [
        ("lambda", pd.lam),
        ("g_c", pd.g_c),
        ("alpha_per_n", pd.alpha_per_n),
        ("beta_per_n", pd.beta_per_n),
    ]
    if args.omega is not None:
        if not args.omega > 0:
            raise UsageError(f"--omega must be positive, got {args.omega}")
        rows.append(("sigma_a_per_n", bath_condensate_density(params, "a", args.omega)))
        rows.append(("sigma_b_per_n", bath_condensate_density(params, "b", args.omega)))
    print(f"phase: {pd.phase.value}")
    for name, value in rows:
        print(f"{name}: {value:.12g}")
    if args.output is not None:
        if args.format == "json":
            doc = {"phase": pd.phase.value}
            doc.update({name: value for name, value in rows})
            text = json.dumps(doc, separators=(",", ":")) + "\n"
        else:
            out = io.StringIO()
            out.write("# columns: quantity,value\n")
            out.write(f"phase,{pd.phase.value}\n")
            for name, value in rows:
                out.write(f"{name},{_fmt(value)}\n")
            text = out.getvalue()
        _atomic_write(args.output, text)
        _summary(args.output, len(rows) + 1, 2, t0)
    return 0


def _cmd_critical(args: argparse.Namespace) -> int:
    params = _params_from(args)
    try:
        g_star = locate_critical(params, args.g_lo, args.g_hi)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    print(f"{g_star:.12f}")
    if args.output is not None:
        _atomic_write(args.output, f"# columns: g_star\n{_fmt(g_star)}\n")
    return 0


def _cmd_squeeze(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    params = _params_from(args)
    if not args.omega > 0:
        raise UsageError(f"--omega must be positive, got {args.omega}")
    if args.phi_points < 1:
        raise UsageError(f"--phi-points must be >= 1, got {args.phi_points}")
    vacuum = 1.0 / (2.0 * args.omega)
    phis = np.linspace(0.0, 2.0 * np.pi, args.phi_points, endpoint=False)
    lines = []
    if args.theta != 0.0:
        for phi in phis:
            spec = QuadratureSpec(omega=args.omega, phi=phi, theta=args.theta, psi=args.psi)
            lines.append((phi, two_mode_variance(params, spec)))
    else:
        for phi in phis:
            spec = QuadratureSpec(omega=args.omega, phi=phi)
            lines.append((phi, quadrature_variance(params, spec)))
    values = np.array([v for _, v in lines])
    print(f"variance min/max over phi: {values.min():.12g} / {values.max():.12g}")
    print(f"vacuum reference 1/(2 omega): {vacuum:.12g}")
    if args.output is not None:
        if args.format == "json":
            doc = {
                "omega": args.omega,
                "theta": args.theta,
                "psi": args.psi,
                "phi": [float(p) for p, _ in lines],
                "variance": [float(v) for _, v in lines],
                "vacuum": vacuum,
            }
            text = json.dumps(doc, separators=(",", ":")) + "\n"
        else:
            out = io.StringIO()
            out.write(f"# omega={_fmt(args.omega)} theta={_fmt(args.theta)} psi={_fmt(args.psi)}\n")
            out.write("# columns: phi,variance\n")
            for phi, v in lines:
                out.write(f"{_fmt(phi)},{_fmt(v)}\n")
            text = out.getvalue()
        _atomic_write(args.output, text)
        _summary(args.output, len(lines), 2, t0)
    return 0


def _cmd_altcoupling(args: argparse.Namespace) -> int:
    params = _params_from(args)
    try:
        alt = AltCouplingParams(args.f_a0, args.f_b0)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    res = alt_coupling_renorm(params, alt)
    pairs = [
        ("omega_a_prime", res.omega_a_prime),
        ("omega_b_prime", res.omega_b_prime),
        ("g_prime", res.g_prime),
        ("g_c_prime", res.g_c_prime),
        ("abnormal_a", res.abnormal_a),
        ("abnormal_b", res.abnormal_b),
    ]
    for name, value in pairs:
        print(f"{name}: {value}")
    if args.output is not None:
        doc = {name: value for name, value in pairs}
        _atomic_write(args.output, json.dumps(doc, separators=(",", ":")) + "\n")
    return 0


def _finite(text: str) -> float:
    # Flag type for the command-specific numbers; the model dials stay plain
    # floats because ModelParams and BathSpec reject non-finite values.
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--omega-a", type=float, default=1.0, help="bare frequency of subsystem a")
    parser.add_argument("--omega-b", type=float, default=1.0, help="bare frequency of subsystem b")
    parser.add_argument("--g", type=float, default=0.0, help="collective coupling strength")
    parser.add_argument("--gamma-a", type=float, default=0.1, help="port-a damping amplitude")
    parser.add_argument("--gamma-b", type=float, default=0.1, help="port-b damping amplitude")
    parser.add_argument("--s-a", type=float, default=0.0, help="port-a bath exponent")
    parser.add_argument("--s-b", type=float, default=0.0, help="port-b bath exponent")


def _add_output_flags(
    parser: argparse.ArgumentParser,
    default: str | None,
    fixed_format: str | None = None,
    parallel: bool = False,
) -> None:
    """-o on every command; --format unless the command writes one
    fixed_format; --parallel on the commands that fan work out."""
    written_as = "" if fixed_format is None else f", written as {fixed_format}"
    parser.add_argument("-o", "--output", default=default, help="output file path" + written_as)
    if fixed_format is None:
        # A command without a default file takes --format only with -o (see main).
        default_format = None if default is None else "csv"
        parser.add_argument("--format", choices=("csv", "json"), default=default_format)
    if parallel:
        help_text = f"worker process count (default ${PARALLEL_ENV} or 1)"
        parser.add_argument("--parallel", type=int, default=None, help=help_text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opendicke",
        description="Spectra and scattering of the equilibrium open Dicke model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eigen", help="sweep the open-system complex eigenfrequencies")
    _add_param_flags(p)
    p.add_argument("--sweep", required=True, help="axis:start:stop[:points], axis g or omega_b")
    _add_output_flags(p, "eigen.csv", parallel=True)
    p.set_defaults(func=_cmd_eigen)

    p = sub.add_parser("spectrum", help="sweep the port-a reflection spectrum")
    _add_param_flags(p)
    p.add_argument("--sweep", required=True, help="axis:start:stop[:points], axis g or ratio")
    p.add_argument("--probe", required=True, help="start:stop[:points], probe frequencies > 0")
    p.add_argument("--linear-gamma-b", action="store_true", help="scale gamma_b with a ratio sweep")
    p.add_argument("--include-phase-labels", action="store_true", help="add a CSV phase column")
    _add_output_flags(p, "spectrum.csv", parallel=True)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("condensates", help="phase data and macroscopic occupations")
    _add_param_flags(p)
    p.add_argument("--omega", type=_finite, default=None, help="also report bath densities at omega")
    _add_output_flags(p, None)
    p.set_defaults(func=_cmd_condensates)

    p = sub.add_parser("critical", help="locate the critical coupling")
    _add_param_flags(p)
    p.add_argument("--g-lo", type=_finite, default=0.0, help="lower bisection bracket")
    p.add_argument("--g-hi", type=_finite, default=None, help="upper bisection bracket")
    _add_output_flags(p, None, fixed_format="CSV")
    p.set_defaults(func=_cmd_critical)

    p = sub.add_parser("squeeze", help="output-quadrature vacuum variance over a phi grid")
    _add_param_flags(p)
    p.add_argument("--omega", type=_finite, required=True, help="probe frequency")
    p.add_argument("--theta", type=_finite, default=0.0, help="two-port mixing angle")
    p.add_argument("--psi", type=_finite, default=0.0, help="two-port relative phase")
    p.add_argument("--phi-points", type=int, default=64, help="phi grid size")
    _add_output_flags(p, None)
    p.set_defaults(func=_cmd_squeeze)

    p = sub.add_parser("altcoupling", help="renormalization for the bilinear bath coupling")
    _add_param_flags(p)
    p.add_argument("--f-a0", type=_finite, default=0.0, help="port-a static coupling weight")
    p.add_argument("--f-b0", type=_finite, default=0.0, help="port-b static coupling weight")
    _add_output_flags(p, None, fixed_format="JSON")
    p.set_defaults(func=_cmd_altcoupling)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.output is None and getattr(args, "format", None):
            raise UsageError(f"--format needs -o: {args.command} writes no file without it")
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        path = getattr(exc, "filename", None) or getattr(args, "output", "")
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
