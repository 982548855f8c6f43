"""Command-line front end: parameter sweeps written to CSV or JSON files.

Every command takes the model dials as flags (frequencies default to 1, so
couplings and rates are read in units of omega_a), writes its dataset
atomically (temp file + rename), and prints a one-line summary. CSV numbers
are fixed at 12 significant digits and JSON floats use the shortest
round-trip repr, so identical invocations produce byte-identical files
regardless of the worker count. Without -o, eigen and spectrum write
<command>.<format>.

Exit codes: 0 success, 2 invalid usage (main turns every ValueError, from
the CLI's flag grammar or a library check, into one `error:` line), 3
numerical non-convergence, 4 output I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time

import numpy as np

from .model import (
    AltCouplingParams,
    BathSpec,
    ModelParams,
    alt_coupling_renorm,
    bath_condensate_density,
    derive_phase,
    resolve_point,
)
from .eigen import (
    ConvergenceError,
    locate_critical,
    open_eigenfrequencies,
    sweep_eigenfrequencies,
    sweep_point,
)
from .fanout import fan_out
# bench/tracer.py wraps cli.sweep_spectrum, so the name stays importable here.
from .scattering import spectrum_text, sweep_spectrum  # noqa: F401
from .squeezing import QuadratureSpec, quadrature_variance, two_mode_variance

PARALLEL_ENV = "DICKE_PARALLEL"
EIGEN_BLOCK = 16  # sweep points per eigen pool task


def _parse_range(text: str, name: str, fields: list[str], default_points: int) -> np.ndarray:
    """The start:stop[:points] fields of a --name value as an increasing grid."""
    try:
        points = int(fields[2]) if len(fields) == 3 else default_points
    except ValueError as exc:
        raise ValueError(f"bad point count in --{name} {text!r}") from exc
    try:
        lo, hi = float(fields[0]), float(fields[1])
    except ValueError as exc:
        raise ValueError(f"bad bounds in --{name} {text!r}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"--{name} bounds must be finite, got {text!r}")
    if points < 2:
        raise ValueError(f"--{name} needs at least 2 points, got {points}")
    if not hi > lo:
        raise ValueError(f"--{name} range must be increasing, got {text!r}")
    return np.linspace(lo, hi, points)


def _parse_sweep(text: str, allowed: tuple[str, ...]) -> tuple[str, np.ndarray]:
    """The axis and grid of a --sweep value; the library maps each grid value
    to its model point and names a value that leaves the model's domain."""
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise ValueError(f"--sweep expects axis:start:stop[:points], got {text!r}")
    values = _parse_range(text, "sweep", parts[1:], 400)
    axis = parts[0].replace("-", "_")
    if axis not in allowed:
        raise ValueError(f"sweep axis must be one of {allowed}, got {axis!r}")
    return axis, values


def _parse_probe(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(f"--probe expects start:stop[:points], got {text!r}")
    return _parse_range(text, "probe", parts, 2000)


def _params_from(args: argparse.Namespace) -> ModelParams:
    return ModelParams(
        omega_a=args.omega_a,
        omega_b=args.omega_b,
        g=args.g,
        bath_a=BathSpec(args.gamma_a, args.s_a),
        bath_b=BathSpec(args.gamma_b, args.s_b),
    )


def _workers(args: argparse.Namespace) -> int:
    if args.parallel is not None:
        n, source = args.parallel, "--parallel"
    else:
        text, source = os.environ.get(PARALLEL_ENV, "1"), f"${PARALLEL_ENV}"
        try:
            n = int(text)
        except ValueError as exc:
            raise ValueError(f"{source} must be an integer, got {text!r}") from exc
    if n < 1:
        raise ValueError(f"{source} must be >= 1, got {n}")
    return n


def _atomic_write(path: str, chunks) -> None:
    """Write each text chunk to a temp file beside path, then rename it to
    path, with the mode open() gives a new file (mkstemp's is 0600)."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".opendicke-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.writelines(chunks)
        umask = os.umask(0)  # the umask is read by setting it
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(x: float) -> str:
    return f"{x:.11e}"


def _summary(path: str, rows: int, cols: int, t0: float) -> None:
    print(f"wrote {path}: {rows} rows x {cols} columns in {time.perf_counter() - t0:.2f} s")


def _save(args: argparse.Namespace, csv: str | None, doc, shape=None, t0: float = 0.0) -> None:
    """Write a command's dataset to -o, if given: the JSON document with
    --format json or when the command has no CSV, the CSV text otherwise.
    With shape = (rows, columns) the `wrote` line follows."""
    if args.output is None:
        return
    text = csv
    if csv is None or getattr(args, "format", None) == "json":
        text = json.dumps(doc, separators=(",", ":")) + "\n"
    _atomic_write(args.output, [text])
    if shape is not None:
        _summary(args.output, *shape, t0)


def _eigen_block(task) -> list:
    """Solve a pool task's EIGEN_BLOCK sweep points by cli.open_eigenfrequencies."""
    axis, points = task
    eigensets = []
    for point in points:
        with sweep_point(axis, getattr(point, axis)):
            eigensets.append(open_eigenfrequencies(point))
    return eigensets


def _cmd_eigen(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    params = _params_from(args)
    axis, values = _parse_sweep(args.sweep, ("g", "omega_b"))
    points = [resolve_point(params, axis, v) for v in values.tolist()]
    workers = _workers(args)
    tasks = [(axis, points[i : i + EIGEN_BLOCK]) for i in range(0, len(points), EIGEN_BLOCK)]
    eigensets = [es for block in fan_out(_eigen_block, tasks, workers) for es in block]
    table = sweep_eigenfrequencies(params, axis, values, eigensets=eigensets)
    csv = f"# axis={axis} sweep={_fmt(values[0])}:{_fmt(values[-1])}:{values.size}\n"
    csv += f"# columns: {axis},re_lower,im_lower,re_upper,im_upper,gap_flag\n"
    csv += "".join(
        f"{_fmt(v)},{_fmt(lo.real)},{_fmt(lo.imag)},{_fmt(up.real)},{_fmt(up.imag)},{int(gap)}\n"
        for v, lo, up, gap in zip(table.values, table.lower, table.upper, table.gap)
    )
    doc = {
        "axis": axis,
        "values": [float(x) for x in table.values],
        "re_lower": [float(z.real) for z in table.lower],
        "im_lower": [float(z.imag) for z in table.lower],
        "re_upper": [float(z.real) for z in table.upper],
        "im_upper": [float(z.imag) for z in table.upper],
        "gap_flag": [bool(b) for b in table.gap],
        "phase_labels": [p.value for p in table.phases],
    }
    _save(args, csv, doc, (values.size, 6), t0)
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    params = _params_from(args)
    axis, values = _parse_sweep(args.sweep, ("g", "ratio"))
    probe = _parse_probe(args.probe)
    # spectrum_text checks every input at the call, so a usage error exits 2
    # before _atomic_write opens the output; the grid is computed as it is written.
    text = spectrum_text(
        args.format,
        params,
        axis,
        values,
        probe,
        linear_gamma_b=args.linear_gamma_b,
        include_phase=args.include_phase_labels,
        workers=_workers(args),
    )
    _atomic_write(args.output, text)
    _summary(args.output, values.size, probe.size, t0)
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
        rows.append(("sigma_a_per_n", bath_condensate_density(params, "a", args.omega)))
        rows.append(("sigma_b_per_n", bath_condensate_density(params, "b", args.omega)))
    print(f"phase: {pd.phase.value}")
    for name, value in rows:
        print(f"{name}: {value:.12g}")
    csv = f"# columns: quantity,value\nphase,{pd.phase.value}\n"
    csv += "".join(f"{name},{_fmt(value)}\n" for name, value in rows)
    _save(args, csv, {"phase": pd.phase.value, **dict(rows)}, (len(rows) + 1, 2), t0)
    return 0


def _cmd_critical(args: argparse.Namespace) -> int:
    g_star = locate_critical(_params_from(args))
    print(f"{g_star:.12f}")
    _save(args, f"# columns: g_star\n{_fmt(g_star)}\n", None)
    return 0


def _cmd_squeeze(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    params = _params_from(args)
    if args.phi_points < 1:
        raise ValueError(f"--phi-points must be >= 1, got {args.phi_points}")
    phis = np.linspace(0.0, 2.0 * np.pi, args.phi_points, endpoint=False).tolist()
    variance_of = two_mode_variance if args.theta != 0.0 else quadrature_variance
    variances = [
        variance_of(params, QuadratureSpec(args.omega, phi, args.theta, args.psi)) for phi in phis
    ]
    vacuum = 1.0 / (2.0 * args.omega)  # QuadratureSpec has checked omega > 0
    print(f"variance min/max over phi: {min(variances):.12g} / {max(variances):.12g}")
    print(f"vacuum reference 1/(2 omega): {vacuum:.12g}")
    csv = f"# omega={_fmt(args.omega)} theta={_fmt(args.theta)} psi={_fmt(args.psi)}\n"
    csv += "# columns: phi,variance\n"
    csv += "".join(f"{_fmt(phi)},{_fmt(v)}\n" for phi, v in zip(phis, variances))
    doc = {
        "omega": args.omega,
        "theta": args.theta,
        "psi": args.psi,
        "phi": phis,
        "variance": variances,
        "vacuum": vacuum,
    }
    _save(args, csv, doc, (len(phis), 2), t0)
    return 0


def _cmd_altcoupling(args: argparse.Namespace) -> int:
    params = _params_from(args)
    res = alt_coupling_renorm(params, AltCouplingParams(args.f_a0, args.f_b0))
    doc = {
        "omega_a_prime": res.omega_a_prime,
        "omega_b_prime": res.omega_b_prime,
        "g_prime": res.g_prime,
        "g_c_prime": res.g_c_prime,
        "abnormal_a": res.abnormal_a,
        "abnormal_b": res.abnormal_b,
    }
    for name, value in doc.items():
        print(f"{name}: {value}")
    _save(args, None, doc)
    return 0


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
    stem: str | None,
    fixed_format: str | None = None,
    parallel: bool = False,
) -> None:
    """-o on every command; --format unless the command writes one
    fixed_format; --parallel on the commands that fan work out. A command
    with a stem writes stem.csv or stem.json without -o (see main)."""
    written_as = "" if fixed_format is None else f", written as {fixed_format}"
    parser.add_argument("-o", "--output", help="output file path" + written_as)
    parser.set_defaults(stem=stem)
    if fixed_format is None:
        # A command without a default file takes --format only with -o.
        default_format = None if stem is None else "csv"
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
    _add_output_flags(p, "eigen", parallel=True)
    p.set_defaults(func=_cmd_eigen)

    p = sub.add_parser("spectrum", help="sweep the port-a reflection spectrum")
    _add_param_flags(p)
    p.add_argument("--sweep", required=True, help="axis:start:stop[:points], axis g or ratio")
    p.add_argument("--probe", required=True, help="start:stop[:points], probe frequencies > 0")
    p.add_argument("--linear-gamma-b", action="store_true", help="scale gamma_b with a ratio sweep")
    p.add_argument("--include-phase-labels", action="store_true", help="add a CSV phase column")
    _add_output_flags(p, "spectrum", parallel=True)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("condensates", help="phase data and macroscopic occupations")
    _add_param_flags(p)
    p.add_argument("--omega", type=float, default=None, help="also report bath densities at omega")
    _add_output_flags(p, None)
    p.set_defaults(func=_cmd_condensates)

    p = sub.add_parser("critical", help="locate the critical coupling")
    _add_param_flags(p)
    _add_output_flags(p, None, fixed_format="CSV")
    p.set_defaults(func=_cmd_critical)

    p = sub.add_parser("squeeze", help="output-quadrature vacuum variance over a phi grid")
    _add_param_flags(p)
    p.add_argument("--omega", type=float, required=True, help="probe frequency")
    p.add_argument("--theta", type=float, default=0.0, help="two-port mixing angle")
    p.add_argument("--psi", type=float, default=0.0, help="two-port relative phase")
    p.add_argument("--phi-points", type=int, default=64, help="phi grid size")
    _add_output_flags(p, None)
    p.set_defaults(func=_cmd_squeeze)

    p = sub.add_parser("altcoupling", help="renormalization for the bilinear bath coupling")
    _add_param_flags(p)
    p.add_argument("--f-a0", type=float, default=0.0, help="port-a static coupling weight")
    p.add_argument("--f-b0", type=float, default=0.0, help="port-b static coupling weight")
    _add_output_flags(p, None, fixed_format="JSON")
    p.set_defaults(func=_cmd_altcoupling)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.output is None and getattr(args, "format", None):
            if args.stem is None:
                raise ValueError(f"--format needs -o: {args.command} writes no file without it")
            args.output = f"{args.stem}.{args.format}"
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        # Name the requested path: the OSError may carry _atomic_write's
        # random temp file name, which differs on every run.
        path = getattr(args, "output", None) or exc.filename
        print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
