"""opendicke benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The package is used from ``src`` (it need not
be installed). With ``--trace 0`` the run alternates untraced passes at one
and two workers for about S seconds and reports wall_p1_s, wall_p2_s,
setup_s and peak_rss_mb; with ``--trace 1`` it alternates untraced and
traced one-worker passes and reports the per-layer metrics. Every output is
checked; the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
SETUP_LAUNCHES = 20
MIN_PASSES = 2  # per worker count, in a timed run
MIN_PAIRS = 2  # of untraced and traced passes, in a traced run
PASS_ORDER = (1, 2, 2, 1)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], log: Path) -> tuple[int, float, float]:
    """Run argv to completion through bench/launch.py; (exit code, wall
    seconds from spawn to reap, peak RSS in MB of the process and its reaped
    children, from wait4)."""
    report = log.with_suffix(".report")
    launcher = [sys.executable, "-S", str(BENCH / "launch.py"), str(report)]
    with open(log, "wb") as out:
        code = subprocess.run(
            launcher + argv, stdout=out, stderr=subprocess.STDOUT, env=_env(), cwd=ROOT
        ).returncode
    if code != 0:
        raise RuntimeError(f"launcher failed with {code}: " + log.read_text()[-300:])
    doc = json.loads(report.read_text())
    return doc["code"], doc["wall_s"], doc["maxrss_kb"] / 1024.0


def setup_launch(tmp: Path) -> float:
    """Wall time of one fresh interpreter importing opendicke."""
    code, wall, _ = spawn([sys.executable, "-c", "import opendicke"], tmp / "setup.log")
    if code != 0:
        raise RuntimeError("import opendicke failed: " + (tmp / "setup.log").read_text())
    return wall


def setup_due(done: int, elapsed: float, seconds: float) -> int:
    """Set-up launches still due at this point of a run, so that the
    SETUP_LAUNCHES launches are spread evenly over its measured window."""
    target = min(SETUP_LAUNCHES, 1 + int(SETUP_LAUNCHES * elapsed / seconds))
    return max(0, target - done)


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class Ledger:
    """Operations attempted and failed, with the first problems seen."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[: max(0, 20 - len(self.problems))])


class CliChecker:
    """Collects every output of one CLI job. The first output is kept and
    checked in full after the timed loop; every later one (p1 or p2, any
    pass) must be byte-identical to it."""

    def __init__(self, job: dict, seed: int, keep: Path) -> None:
        self.job = job
        self.seed = seed
        self.keep = keep
        self.reference: str | None = None
        self.seen: list[tuple[int, str | None]] = []

    def add(self, code: int, path: Path) -> None:
        digest = _digest(path) if code == 0 and path.exists() else None
        if digest is not None and self.reference is None:
            self.reference = digest
            os.replace(path, self.keep)
        self.seen.append((code, digest))

    def verdicts(self) -> list[list[str]]:
        """Problems of every output added, in order."""
        reference_problems: list[str] = []
        if self.reference is not None:
            import checks
            import numpy as np

            rng = np.random.default_rng([self.seed, 1])
            reference_problems = checks.check_output(self.keep.read_bytes(), self.job, rng)
        out = []
        for code, digest in self.seen:
            if code != 0:
                out.append([f"exit code {code}"])
            elif digest is None:
                out.append(["no output file"])
            elif digest != self.reference:
                out.append(["output bytes differ from the first output of the same job"])
            else:
                out.append(reference_problems)
        return out


def cli_checkers(jobs, seed: int, tmp: Path) -> list[CliChecker]:
    return [CliChecker(job, seed, tmp / f"reference-{k}") for k, job in enumerate(jobs)]


def record_cli(checkers: list[CliChecker], ledger: Ledger) -> None:
    for check in checkers:
        for problems in check.verdicts():
            ledger.record(problems)


def cli_pass(jobs, checkers, workers: int, tmp: Path) -> tuple[float, float]:
    """One pass: every job once as a new process, from spawn to file on
    disk. Returns (summed wall seconds, largest peak RSS in MB)."""
    import workloads

    wall, rss = 0.0, 0.0
    for k, (job, check) in enumerate(zip(jobs, checkers)):
        out = tmp / f"out-{k}-p{workers}"
        argv = [sys.executable, "-m", "opendicke.cli"] + workloads.cli_argv(job, workers, str(out))
        code, dt, peak = spawn(argv, tmp / "cli.log")
        check.add(code, out)
        wall += dt
        rss = max(rss, peak)
        if out.exists():
            out.unlink()
    return wall, rss


def child_pass(jobs, workers: int, tmp: Path, trace: bool) -> tuple[int, dict, float]:
    """One pass in a fresh interpreter running bench/workloads.py; the wall
    time is measured inside it, after import. Returns (exit code, result
    document, peak RSS in MB)."""
    spec = {
        "jobs": jobs,
        "workers": workers,
        "outputs": [str(tmp / f"child-{k}") for k in range(len(jobs))],
    }
    (tmp / "job.json").write_text(json.dumps(spec))
    result = tmp / "result.json"
    if result.exists():
        result.unlink()
    argv = [sys.executable, str(BENCH / "workloads.py"), str(tmp / "job.json"), str(result)]
    if trace:
        argv.append(str(tmp / "spans.json"))
    code, wall, peak = spawn(argv, tmp / "child.log")
    # A failed pass has no in-process time; its spawn-to-reap time stands in.
    doc = json.loads(result.read_text()) if code == 0 and result.exists() else {"elapsed_s": wall}
    doc["outputs"] = spec["outputs"]
    return code, doc, peak


def dip_problems(code: int, doc: dict, tmp: Path) -> list[str]:
    import checks

    if code != 0:
        return [f"exit code {code}: " + (tmp / "child.log").read_text()[-300:]]
    return checks.check_dip(doc["dip"])


def timed_run(workload: str, seed: int, seconds: float, tmp: Path, ledger: Ledger):
    """Passes at one and two workers in the order 1, 2, 2, 1, repeated, so
    a drift of the machine's speed during the run weighs on both alike;
    returns the end-to-end metrics and every pass's samples."""
    import checks
    import workloads

    setup_launch(tmp)  # unmeasured: the first launch may compile bytecode
    setups: list[float] = []
    jobs = workloads.jobs_for(workload, seed)
    checkers = cli_checkers(jobs, seed, tmp)
    walls = {1: [], 2: []}
    peaks = {1: [], 2: []}
    first_dip = None
    start = time.perf_counter()
    for k in itertools.count():
        workers = PASS_ORDER[k % len(PASS_ORDER)]
        for _ in range(setup_due(len(setups), time.perf_counter() - start, seconds)):
            setups.append(setup_launch(tmp))
        t0 = time.perf_counter()
        if workload == "dip-scan":
            code, doc, peak = child_pass(jobs, workers, tmp, trace=False)
            problems = dip_problems(code, doc, tmp)
            if not problems:
                # Every pass, at either worker count, must find the minima
                # of the first good pass.
                if first_dip is None:
                    first_dip = doc["dip"]
                else:
                    problems = checks.same_minima(first_dip, doc["dip"])
            ledger.record(problems)
            wall = doc["elapsed_s"]
        else:
            wall, peak = cli_pass(jobs, checkers, workers, tmp)
        walls[workers].append(wall)
        peaks[workers].append(peak)
        now = time.perf_counter()
        enough = min(len(walls[1]), len(walls[2])) >= MIN_PASSES
        if enough and (now - start) + (now - t0) > seconds:
            break
    while len(setups) < SETUP_LAUNCHES:
        setups.append(setup_launch(tmp))
    record_cli(checkers, ledger)
    metrics = {
        "wall_p1_s": (statistics.median(walls[1]), "s"),
        "wall_p2_s": (statistics.median(walls[2]), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(peaks[1] + peaks[2]), "MB"),
    }
    samples = {"wall_p1_s": walls[1], "wall_p2_s": walls[2], "setup_s": setups}
    samples.update(peak_rss_mb_p1=peaks[1], peak_rss_mb_p2=peaks[2])
    return metrics, samples


def traced_run(workload: str, seed: int, seconds: float, tmp: Path, ledger: Ledger):
    """Alternate untraced and traced one-worker passes in fresh interpreters;
    per-layer metrics are medians over the traced passes, and
    trace.overhead_frac compares the median in-process times. Returns the
    metrics and the in-process times of every pass."""
    import workloads
    from tracer import LAYER_UNITS

    jobs = workloads.jobs_for(workload, seed)
    checkers = cli_checkers(jobs, seed, tmp)
    times = {False: [], True: []}
    layers: list[dict] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for trace in (False, True) if len(layers) % 2 == 0 else (True, False):
            code, doc, _ = child_pass(jobs, 1, tmp, trace)
            if workload == "dip-scan":
                ledger.record(dip_problems(code, doc, tmp))
            else:
                for check, out in zip(checkers, doc["outputs"]):
                    check.add(code, Path(out))
            times[trace].append(doc["elapsed_s"])
            if trace and "layers" in doc:
                layers.append(doc["layers"])
                traces = BENCH / "traces"
                traces.mkdir(exist_ok=True)
                os.replace(tmp / "spans.json", traces / f"{workload}-seed{seed}.json")
        now = time.perf_counter()
        if len(times[True]) >= MIN_PAIRS and (now - start) + (now - t0) > seconds:
            break
    record_cli(checkers, ledger)
    untraced = statistics.median(times[False])
    overhead = (statistics.median(times[True]) - untraced) / untraced if untraced else 0.0
    out = {}
    for name, unit in LAYER_UNITS.items():
        if name == "trace.overhead_frac":
            out[name] = (overhead, unit)
        else:
            out[name] = (statistics.median(d[name] for d in layers) if layers else 0.0, unit)
    return out, {"untraced_s": times[False], "traced_s": times[True]}


def _git() -> dict:
    if not (ROOT / ".git").exists():  # an exported tree; never ask an enclosing repository
        return {"sha": None, "dirty": None}
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}
    if sha.returncode != 0:
        return {"sha": None, "dirty": None}
    return {"sha": sha.stdout.strip(), "dirty": bool(dirty.stdout.strip())}


def _caches() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            sizes[f"L{level}"] = size
        elif kind == "Data":
            sizes["L1d"] = size
    return sizes


def run_record(args) -> dict:
    import numpy as np
    import workloads

    return {
        "workload": args.workload,
        "seed": args.seed,
        "benchmark_argv": sys.argv,
        # CLI jobs hold the exact opendicke argv, to which each invocation
        # appends --parallel N -o PATH; the dip-scan job holds its parameters.
        "jobs": workloads.jobs_for(args.workload, args.seed),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git": _git(),
        "cpu_cache": _caches(),
        "dip_row_working_set_bytes_computed": workloads.dip_row_bytes(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "opendicke" / "__init__.py").is_file():
        print(f"error: no opendicke package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: workload must be one of {workloads.WORKLOADS}", file=sys.stderr)
        return 2

    ledger = Ledger()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-tmp-") as tmp:
        run = traced_run if args.trace else timed_run
        metrics, samples = run(args.workload, args.seed, args.seconds, Path(tmp), ledger)
    record = run_record(args)
    record["samples"] = samples
    record["problems"] = ledger.problems
    print("record " + json.dumps(record))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    rate = ledger.failed / ledger.attempted if ledger.attempted else 1.0
    print(f"{'error_rate':40s} {rate:.6g} ({ledger.failed}/{ledger.attempted} operations)")
    for problem in ledger.problems:
        print(f"problem: {problem}")
    result = {
        "correct": ledger.failed == 0 and ledger.attempted > 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
