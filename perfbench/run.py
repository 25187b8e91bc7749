"""qel benchmark: run one workload, check its outputs and print its metrics.

    python3 perfbench/run.py --workload cli_light --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

One client runs ops serially in a closed loop for --seconds.  With --trace 0
the last stdout line is a JSON object with the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced run (see README.md).
The lines before it give each metric with its unit and sample count, and the
machine and environment.  The exit code is 1 when any output check failed
and 2 when the checkout holds no qel sources.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402

#: Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_RUNS = 5
#: Interpreters timed per traced run for the import layer.
IMPORT_RUNS = 3
_THREAD_VARS = ("QEL_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def environment() -> dict:
    """Machine, interpreter, library versions, source identity and thread variables."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    try:
        # no look above the checkout, which need not be a git repository
        git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=git_env,
                                capture_output=True, text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "qel")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "thread_vars": {k: os.environ.get(k) for k in _THREAD_VARS},
        "clients": 1,
        "loop": "closed",
    }


def _timed(cmd, env) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=workloads.OP_TIMEOUT_S)
    return time.perf_counter() - t0, proc


def setup_times(env, runs: int) -> list[float]:
    """Calibrated times of fresh interpreters through `import qel.cli`.

    One untimed run fills the bytecode cache; cold probes between the timed
    runs calibrate them like cold ops (see calibrate.py).
    """
    cmd = [sys.executable, "-c", "import qel.cli"]
    calibrator = calibrate.Calibrator.cold(env, ROOT)
    stamps, times = [], []
    for i in range(runs + 1):
        t0 = time.perf_counter()
        elapsed, proc = _timed(cmd, env)
        if proc.returncode != 0:
            raise RuntimeError(f"import qel.cli failed: {proc.stderr.strip()[-300:]}")
        if i:
            stamps.append(t0 + elapsed / 2)
            times.append(elapsed)
        if calibrator.due():
            calibrator.sample()
    calibrator.sample()
    return calibrator.scaled(stamps, times)


def import_layer(env, runs: int) -> dict[str, float]:
    """Medians of interpreter start and of the numpy, scipy and qel imports."""
    python, parts = [], {"numpy": [], "scipy": [], "qel": []}
    for _ in range(runs):
        python.append(_timed([sys.executable, "-c", "pass"], env)[0])
        _, proc = _timed([sys.executable, "-X", "importtime", "-c", "import qel.cli"], env)
        for name, value in layertrace.parse_importtime(proc.stderr).items():
            parts[name].append(value)
    out = {"import.python_s": statistics.median(python)}
    out.update({f"import.{k}_s": statistics.median(v) for k, v in parts.items()})
    return out


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class Loop:
    """Closed loop: run ops one after another until the time is up."""

    def __init__(self, ops, execute, check, calibrator, tracer=None):
        self.ops = ops
        self.execute = execute
        self.check = check
        self.tracer = tracer
        self.calibrator = calibrator
        self.attempted = 0
        self.failures: list[str] = []
        self.stamps: list[float] = []  # clock at the middle of each successful op
        self.times: list[float] = []  # wall time of each successful op
        self.trace: dict = {}
        self.outputs: dict = {}  # first output of each distinct cold op
        self.attributed = 0.0
        self.elapsed = 0.0
        self.peak_rss_kb = 0  # largest child of a cold loop

    def record(self, op, outcome, elapsed: float, stamp: float = 0.0) -> None:
        self.attempted += 1
        self.peak_rss_kb = max(self.peak_rss_kb, outcome.peak_rss_kb)
        problem = outcome.problem or self.check(op, outcome.output)
        if problem is None and isinstance(outcome.output, str):
            key = (op.kind, tuple(sorted(op.params.items())))
            if self.outputs.setdefault(key, outcome.output) != outcome.output:
                problem = "output differs from an earlier run of the same command"
        if problem is None and outcome.trace is not None:
            known = workloads.strategy_b_points(op)
            calls = outcome.trace["stats"].get("attacks.strategy_b_information", [0])[0]
            if known is not None and calls != known:
                problem = f"traced strategy_b_information calls {calls}, expected {known}"
        if problem is None:
            self.stamps.append(stamp)
            self.times.append(elapsed)
        else:
            self.failures.append(f"{op.kind} {op.params}: {problem}")
        if outcome.trace is not None:
            layertrace.merge(self.trace, outcome.trace)
            self.attributed += layertrace.attributed_s(outcome.trace) + outcome.trace.get("import_s", 0.0)

    def run(self, seconds: float) -> "Loop":
        self.calibrator.sample()
        start = time.perf_counter()
        for op in self.ops:
            before = self.tracer.snapshot() if self.tracer else None
            t0 = time.perf_counter()
            outcome = self.execute(op)
            elapsed = time.perf_counter() - t0
            if self.tracer:
                outcome.trace = layertrace.diff(self.tracer.snapshot(), before)
            self.record(op, outcome, elapsed, t0 + elapsed / 2)
            if self.calibrator.due():
                self.calibrator.sample()
            if time.perf_counter() - start >= seconds:
                break
        self.elapsed = time.perf_counter() - start
        self.calibrator.sample()
        return self

    def op_times(self) -> list[float]:
        """Successful op times in calibrated seconds."""
        return self.calibrator.scaled(self.stamps, self.times)


def make_loop(workload: str, ops, traced: bool = False, qel=None, tracer=None) -> Loop:
    """A closed loop over ops; warm workloads need the imported qel package."""
    if workload in workloads.COLD:
        env = workloads.cold_env(ROOT)
        return Loop(ops, lambda op: workloads.run_cold(op, env, ROOT, traced),
                    workloads.check_cli_output, calibrate.Calibrator.cold(env, ROOT))
    return Loop(ops, lambda op: workloads.run_warm(op, qel),
                workloads.check_warm_output, calibrate.Calibrator(), tracer=tracer)


def import_qel():
    """Import qel from this checkout's src directory."""
    if os.path.join(ROOT, "src") not in sys.path:
        sys.path.insert(0, os.path.join(ROOT, "src"))
    import qel.cli  # noqa: F401  (loads every module the workloads use)
    src = os.path.join(ROOT, "src", "qel")
    if os.path.dirname(os.path.abspath(qel.__file__)) != src:
        raise RuntimeError(f"imported qel from {qel.__file__}, not from {src}")
    return qel


def warm_up(workload: str, seed: int, qel) -> Loop:
    """Run and check the reference op, and the calibration kernel, once before timing."""
    calibrate.kernel()
    loop = make_loop(workload, workloads.generate(workload, seed), qel=qel)
    op = next(loop.ops)
    loop.record(op, workloads.run_warm(op, qel), 0.0)
    loop.stamps.clear()
    loop.times.clear()
    return loop


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 setup_runs: int = SETUP_RUNS, import_runs: int = IMPORT_RUNS) -> dict:
    """Measure one workload; returns the result record printed by main()."""
    machine = environment()  # records QEL_THREADS as found, before it is unset
    os.environ.pop("QEL_THREADS", None)
    env = workloads.cold_env(ROOT)
    qel = import_qel() if workload in workloads.WARM else None
    attempted, failures = 0, []

    def tally(loop):
        nonlocal attempted
        attempted += loop.attempted
        failures.extend(loop.failures)

    if qel is not None:
        tally(warm_up(workload, seed, qel))

    if not trace:
        setup = setup_times(env, setup_runs)
        loop = make_loop(workload, workloads.generate(workload, seed), qel=qel).run(seconds)
        tally(loop)
        if workload in workloads.COLD:
            rss_kb = loop.peak_rss_kb
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        times = loop.op_times() or [float("nan")]
        metrics = {
            "setup_s": (statistics.median(setup), "s", len(setup)),
            "op_s.p50": (percentile(times, 50), "s", len(loop.times)),
            "op_s.p90": (percentile(times, 90), "s", len(loop.times)),
            "ops_per_s": (len(loop.times) / sum(times), "1/s", len(loop.times)),
            "peak_rss_mb": (rss_kb / 1024.0, "MB", 1),
        }
        detail = {"ops": len(loop.times), "measured_s": loop.elapsed,
                  "tail_percentile_with_10_beyond": _tail_percentile(len(loop.times))}
        wall = loop.times or [float("nan")]
        detail["wall"] = {"op_s.p50": percentile(wall, 50), "op_s.p90": percentile(wall, 90),
                          "ops_per_s": len(loop.times) / loop.elapsed}
        detail["probe_s"] = statistics.median(loop.calibrator.times)
        detail["probe_reference_s"] = loop.calibrator.reference_s
    else:
        layers = import_layer(env, import_runs)
        plain = make_loop(workload, workloads.generate(workload, seed), qel=qel).run(seconds / 2)
        tally(plain)
        tracer = None
        if qel is not None:
            tracer = layertrace.Tracer().install()
        try:
            traced = make_loop(workload, workloads.generate(workload, seed), True, qel,
                               tracer).run(seconds / 2)
        finally:
            if tracer:
                tracer.uninstall()
        tally(traced)
        units = layertrace.layer_metric_units()
        ops = len(traced.times)
        layers.update(layertrace.layer_metrics(traced.trace, ops))
        # the same op sequence in both phases
        common = min(len(plain.times), ops)
        plain_s = sum(plain.op_times()[:common])
        traced_s = sum(traced.op_times()[:common])
        layers["trace.ops"] = ops
        layers["trace.overhead_share"] = traced_s / plain_s - 1.0 if plain_s else 0.0
        total = sum(traced.times)
        layers["trace.unattributed_share"] = 1.0 - traced.attributed / total if total else 0.0
        metrics = {name: (layers[name], unit, import_runs if name.startswith("import.") else ops)
                   for name, unit in units.items()}
        detail = {"ops": ops, "untraced_ops": len(plain.times), "measured_s": traced.elapsed,
                  "functions": traced.trace.get("stats", {})}
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "attempted": attempted, "failures": failures, "metrics": metrics,
            "detail": detail, "environment": machine}


def _tail_percentile(n: int) -> float | None:
    """Highest percentile with at least ten samples beyond it, if any."""
    return round(100.0 * (n - 10) / n, 1) if n > 10 else None


def report(result: dict) -> dict:
    """Print the human-readable lines; return the final JSON object."""
    w = result["workload"]
    print(f"# environment {json.dumps(result['environment'], sort_keys=True)}")
    for name, (value, unit, n) in result["metrics"].items():
        print(f"{w:15s} {name:58s} {value:14.6g} {unit:9s} n={n}")
    attempted, failed = result["attempted"], len(result["failures"])
    print(f"{w:15s} {'failed_ratio':58s} {failed / attempted if attempted else 0.0:14.6g} "
          f"{'ratio':9s} n={attempted}")
    if not result["trace"]:
        tail = result["detail"]["tail_percentile_with_10_beyond"]
        print(f"# {w}: {result['detail']['ops']} ops in {result['detail']['measured_s']:.2f} s; "
              + (f"highest percentile with ten samples beyond it: p{tail}" if tail is not None
                 else "fewer than 11 ops, so no percentile has ten samples beyond it"))
        detail = result["detail"]
        wall = " ".join(f"{k}={v:.6g}" for k, v in detail["wall"].items())
        print(f"# {w}: uncalibrated wall time: {wall}; calibration probe median "
              f"{detail['probe_s']:.6g} s (reference {detail['probe_reference_s']} s)")
    else:
        for name, (calls, total, self_s, raised, _) in sorted(result["detail"]["functions"].items()):
            if calls:
                print(f"# {w} fn {name:48s} calls={calls:<9d} total_s={total:.6f} "
                      f"self_s={self_s:.6f} raised={raised}")
    for problem in result["failures"]:
        print(f"# FAILED {w}: {problem}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit, _) in result["metrics"].items()}}


def run_all(args) -> int:
    """Run every workload in its own process and summarize."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            sys.stderr.write(proc.stderr)
            print(f"# FAILED {workload}: no result (exit code {proc.returncode})")
            total["correct"] = False
            continue
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qel", "cli.py")):
        print(f"no qel sources under {os.path.join(ROOT, 'src')}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    final = report(result)
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
