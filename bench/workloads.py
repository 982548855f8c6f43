"""Seeded workload inputs, the dip-scan library pass, and the child entry.

Every workload is a list of jobs; one pass runs each job once. A CLI job is
the argument list of one ``opendicke`` invocation (the program sees only
these generated flags); the dip-scan job is a parameter set for the
in-process library pass defined here. Run as a script, this module executes
one pass in a fresh interpreter, optionally traced:

    python bench/workloads.py JOB.json RESULT.json [SPANS.json]
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
from dataclasses import replace

import numpy as np

WORKLOADS = ("eigen-nonohmic", "spectrum", "dip-scan")

# eigen-nonohmic sweeps cost 0.8-1.3 s depending on the drawn baths, so one
# pass runs EIGEN_DRAWS Latin-hypercube draws to keep a run's cost close to
# the mean over the parameter box.
EIGEN_DRAWS = 4
EIGEN_SWEEP = "g:0:0.7:400"
SPECTRUM_SWEEP = "ratio:0.2:2:400"
SPECTRUM_PROBE = "0.01:1.8:2000"
DIP_COUPLINGS = 200  # spanning [0.1, 1.9] g_c
DIP_PROBE = (0.01, 4.0, 20000)
DIP_LAMB_EVERY = 10


def latin_hypercube(rng: np.random.Generator, ranges: dict[str, tuple[float, float]], n: int):
    """n draws; each parameter's range is cut into n strata and every
    stratum is used exactly once, in an independent random order."""
    cols = {}
    for name, (lo, hi) in ranges.items():
        strata = (rng.permutation(n) + rng.uniform(size=n)) / n
        cols[name] = lo + (hi - lo) * strata
    return [{name: float(cols[name][i]) for name in ranges} for i in range(n)]


def jobs_for(workload: str, seed: int) -> list[dict]:
    """The jobs of one pass, drawn from the seed. Worker count and output
    path are added per invocation."""
    rng = np.random.default_rng(seed)
    if workload == "eigen-nonohmic":
        draws = latin_hypercube(
            rng,
            {"gamma_a": (0.2, 0.4), "gamma_b": (0.1, 0.3), "s_a": (-0.6, -0.4), "s_b": (0.4, 0.6)},
            EIGEN_DRAWS,
        )
        return [
            {
                "kind": "eigen",
                "params": d,
                "sweep": EIGEN_SWEEP,
                "argv": [
                    "eigen",
                    "--omega-a", "1", "--omega-b", "1",
                    "--gamma-a", repr(d["gamma_a"]), "--gamma-b", repr(d["gamma_b"]),
                    "--s-a", repr(d["s_a"]), "--s-b", repr(d["s_b"]),
                    "--sweep", EIGEN_SWEEP,
                ],
            }
            for d in draws
        ]
    if workload == "spectrum":
        g = float(rng.uniform(0.2, 0.3))
        argv = [
            "spectrum", "--g", repr(g),
            "--sweep", SPECTRUM_SWEEP, "--probe", SPECTRUM_PROBE, "--linear-gamma-b",
        ]
        return [
            {
                "kind": "spectrum",
                "format": fmt,
                "params": {"g": g},
                "sweep": SPECTRUM_SWEEP,
                "probe": SPECTRUM_PROBE,
                "argv": argv + (["--format", "json"] if fmt == "json" else []),
            }
            for fmt in ("csv", "json")
        ]
    if workload == "dip-scan":
        params = {
            "gamma_a": float(rng.uniform(0.01, 0.05)),
            "gamma_b": float(rng.uniform(0.01, 0.05)),
            "s_a": float(rng.uniform(-0.4, -0.2)),
            "s_b": float(rng.uniform(0.2, 0.5)),
            "theta": float(rng.uniform(0.0, np.pi)),
            "psi": float(rng.uniform(0.0, 2.0 * np.pi)),
        }
        return [{"kind": "dip", "params": params}]
    raise ValueError(f"unknown workload {workload!r}")


def cli_argv(job: dict, workers: int, output: str) -> list[str]:
    return job["argv"] + ["--parallel", str(workers), "-o", output]


def sweep_grid(spec: str) -> np.ndarray:
    """The grid a sweep or probe flag denotes, built as the CLI builds it."""
    *_, lo, hi, n = spec.split(":")
    return np.linspace(float(lo), float(hi), int(n))


def dip_row_bytes() -> int:
    """Computed (not measured) working set of one dip-scan S11 row: the probe
    row (8 B/point), the two float rate rows gamma_a, gamma_b (16 B/point)
    and the complex rows live at once inside one zeta evaluation, the ten
    distinct matrix entries plus the twelve 2x2 cofactors plus the result
    (23 x 16 B/point)."""
    return DIP_PROBE[2] * (8 + 16 + 23 * 16)


def dip_scan(params: dict, workers: int) -> dict:
    """The dip-scan pass: an S11 grid over couplings, the reflection minima
    of every row, Lamb shifts of both branches at every tenth coupling, and
    the scattering matrix and two-mode variance at every dip. Library calls
    go through the module attributes so a traced pass sees them."""
    from opendicke import BathSpec, ModelParams, scattering, squeezing

    base = ModelParams(
        omega_a=1.0,
        omega_b=1.0,
        g=0.0,
        bath_a=BathSpec(params["gamma_a"], params["s_a"]),
        bath_b=BathSpec(params["gamma_b"], params["s_b"]),
    )
    g_c = 0.5 * np.sqrt(base.omega_a * base.omega_b)
    couplings = np.linspace(0.1, 1.9, DIP_COUPLINGS) * g_c
    probe = np.linspace(*DIP_PROBE)
    grid = scattering.sweep_spectrum(base, "g", couplings, probe, workers=workers)
    minima = [scattering.find_minima(probe, row) for row in grid.values]
    shifts = [
        scattering.lamb_shift(replace(base, g=float(g)), branch, probe)
        for g in couplings[::DIP_LAMB_EVERY]
        for branch in ("lower", "upper")
    ]
    dips, smats, variances = [], [], []
    for g, row_minima in zip(couplings, minima):
        p = replace(base, g=float(g))
        for w in row_minima:
            w = float(w)
            spec = squeezing.QuadratureSpec(omega=w, theta=params["theta"], psi=params["psi"])
            dips.append(w)
            smats.append(scattering.s_matrix(p, w))
            variances.append(squeezing.two_mode_variance(p, spec))
    smats = np.array(smats).reshape(-1, 2, 2)
    return {
        "minima_counts": [int(m.size) for m in minima],
        "dips": dips,
        "shifts": shifts,
        "smats_re": smats.real.tolist(),
        "smats_im": smats.imag.tolist(),
        "variances": variances,
    }


def run_job(job: dict, workers: int, output: str | None) -> dict:
    """Execute one job in this interpreter; returns the library results for
    a dip job, the output size for a CLI job."""
    if job["kind"] == "dip":
        return dip_scan(job["params"], workers)
    from opendicke import cli

    code = cli.main(cli_argv(job, workers, output))
    if code != 0:
        raise RuntimeError(f"opendicke exited with {code}")
    return {"output_bytes": os.path.getsize(output)}


def _child(argv: list[str]) -> int:
    """One pass in this process. JOB.json holds {"jobs", "workers",
    "outputs"}; RESULT.json receives the in-process time and the dip
    results; with SPANS.json the pass is traced, the spans go there and the
    per-layer metrics into RESULT.json."""
    job_path, result_path = argv[0], argv[1]
    spans_path = argv[2] if len(argv) > 2 else None
    with open(job_path) as handle:
        spec = json.load(handle)
    import opendicke  # noqa: F401  (import cost stays outside the timed region)
    from tracer import Tracer

    tracer = Tracer() if spans_path else None
    with tracer.installed() if tracer else contextlib.nullcontext():
        t0 = time.perf_counter()
        results = [
            run_job(job, spec["workers"], out) for job, out in zip(spec["jobs"], spec["outputs"])
        ]
        elapsed = time.perf_counter() - t0
    doc: dict = {"elapsed_s": elapsed}
    if spec["jobs"][0]["kind"] == "dip":
        doc["dip"] = results[0]
    if tracer is not None:
        doc["layers"] = tracer.layer_metrics(sum(r.get("output_bytes", 0) for r in results))
        tracer.dump(spans_path)
    with open(result_path, "w") as handle:
        json.dump(doc, handle)
    return 0


if __name__ == "__main__":
    sys.exit(_child(sys.argv[1:]))
