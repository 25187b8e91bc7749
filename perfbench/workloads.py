"""Workloads of the qel benchmark: seeded inputs, one op, and its check.

An op is the unit of work a workload times in a closed loop: one client
starts the next op only after the previous one has finished.  Cold
workloads start a fresh ``python -m qel.cli`` process per op with
PYTHONPATH=src; warm workloads call the public API inside the benchmark's
process.  The first op of every workload is the paper's reference scenario
(mu 0.1, eta_det 0.2, e 0.01), compared with the seed commit's CLI output.
"""
from __future__ import annotations

import itertools
import json
import math
import os
import random
import subprocess
import sys
import threading
from dataclasses import dataclass, field

import checks
import layertrace

COLD = ("cli_light", "verify")
WARM = ("curve_grids", "crossover_scan")
WORKLOADS = COLD + WARM

#: Size of the dense disturbance grid in curve_grids (the CLI default).
CURVE_STEPS = 500
#: Error-map grid of curve_grids and cli_light: 13 losses x 11 disturbances.
LOSS_GRID = (1.0, 13.0, 13)
ERROR_D_GRID = (0.0, 0.5, 11)
#: Angles in the strategy-B coefficient grid.
COEFF_STEPS = 50
VERIFY_PULSES = 1_000_000
OP_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Op:
    """One unit of work: a kind, its parameters, and whether it is the reference."""

    kind: str
    params: dict = field(default_factory=dict)
    reference: bool = False


# --------------------------------------------------------------------------
# Seeded inputs
# --------------------------------------------------------------------------

_REF = {"mu": checks.REFERENCE_MU, "eta_det": checks.REFERENCE_ETA_DET,
        "error_rate": checks.REFERENCE_ERROR}

_CLI_KINDS = ("bounds", "crossover", "info-curves", "error-map", "coefficients")


def _scenario(rng: random.Random) -> dict:
    """A (mu, eta_det, e) scenario whose transmission window is not empty."""
    return {"mu": rng.uniform(0.05, 0.3), "eta_det": rng.uniform(0.1, 0.6),
            "error_rate": rng.uniform(0.005, 0.03)}


def _cli_params(kind: str, rng: random.Random) -> dict:
    if kind == "bounds":
        return {"mu": rng.uniform(0.02, 0.8), "eta_det": rng.uniform(0.05, 0.95)}
    if kind == "crossover":
        return _scenario(rng)
    if kind == "info-curves":
        return {"eta_det": rng.uniform(0.05, 0.95)}
    if kind == "error-map":
        return {"mu": rng.uniform(0.05, 0.5), "eta_det": rng.uniform(0.1, 0.9)}
    return {"gamma_max": rng.uniform(0.5, math.pi)}


def _reference_params(kind: str) -> dict:
    if kind == "bounds" or kind == "error-map":
        return {"mu": _REF["mu"], "eta_det": _REF["eta_det"]}
    if kind == "info-curves":
        return {"eta_det": _REF["eta_det"]}
    if kind == "coefficients":
        return {"gamma_max": math.pi}
    return dict(_REF)


def generate(workload: str, seed: int):
    """Endless op sequence for a workload; the same seed gives the same ops."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"qel-bench/{workload}/{seed}")
    if workload == "cli_light":
        for kind in _CLI_KINDS:
            yield Op(kind, _reference_params(kind), reference=True)
        for kind in itertools.cycle(_CLI_KINDS):
            yield Op(kind, _cli_params(kind, rng))
    elif workload == "verify":
        # Every op runs the CLI's default suite seed.  About 4% of other suite
        # seeds fail at the seed commit (README.md, "Findings"), and a run
        # must not depend on which one it draws.
        yield Op("verify", {"seed": checks.REFERENCE_VERIFY_SEED}, reference=True)
        while True:
            yield Op("verify", {"seed": checks.REFERENCE_VERIFY_SEED})
    elif workload == "curve_grids":
        yield Op("grids", {"eta_det": _REF["eta_det"], "mu": _REF["mu"],
                           "gamma_max": math.pi}, reference=True)
        while True:
            yield Op("grids", {"eta_det": rng.uniform(0.05, 0.95), "mu": rng.uniform(0.05, 0.5),
                               "gamma_max": rng.uniform(0.5, math.pi)})
    else:
        yield Op("crossover", dict(_REF), reference=True)
        while True:
            yield Op("crossover", _scenario(rng))


# --------------------------------------------------------------------------
# Cold ops: one qel process each
# --------------------------------------------------------------------------

def cli_args(op: Op) -> list[str]:
    p = {k: repr(v) for k, v in op.params.items()}
    if op.kind == "bounds":
        return ["bounds", "--mu", p["mu"], "--eta-det", p["eta_det"]]
    if op.kind == "crossover":
        return ["crossover", "--mu", p["mu"], "--eta-det", p["eta_det"],
                "--error-rate", p["error_rate"]]
    if op.kind == "info-curves":
        return ["info-curves", "--eta-det", p["eta_det"], "--steps", str(CURVE_STEPS)]
    if op.kind == "error-map":
        return ["error-map", "--mu", p["mu"], "--eta-det", p["eta_det"]]
    if op.kind == "coefficients":
        return ["coefficients", "--gamma-min", "0.0", "--gamma-max", p["gamma_max"],
                "--steps", str(COEFF_STEPS)]
    if op.kind == "verify":
        return ["verify", "--pulses", str(VERIFY_PULSES), "--seed", str(op.params["seed"])]
    raise ValueError(f"no command line for op kind {op.kind!r}")


def check_cli_output(op: Op, text: str) -> str | None:
    """Check one cold op's stdout: reference bytes, then invariants."""
    p = op.params
    if op.kind == "verify":
        return checks.check_verify(text, p["seed"], VERIFY_PULSES)
    if op.reference:
        if op.kind in ("bounds", "crossover"):
            problem = checks.same_json_at_12_digits(text, checks.reference_text(f"{op.kind}.json"))
        else:
            problem = checks.same_bytes(text, checks.reference_text(f"{op.kind}.csv"))
        if problem:
            return f"reference {op.kind}: {problem}"
    try:
        if op.kind == "bounds":
            return checks.check_bounds(json.loads(text), p["mu"], p["eta_det"])
        if op.kind == "crossover":
            rec = json.loads(text)
            result = {"A": rec["crossover_db_a"], "B": rec["crossover_db_b"],
                      "best": rec["crossover_db_best"], "best_strategy": rec["best_strategy"]}
            return checks.check_crossover(result, p["mu"], p["eta_det"])
        _, rows = checks.parse_csv(text)
    except (ValueError, KeyError) as exc:
        return f"unreadable {op.kind} output: {exc!r}"
    if op.kind == "info-curves":
        return checks.check_info_curves(rows, p["eta_det"], checks.grid(0.0, 0.5, CURVE_STEPS))
    if op.kind == "error-map":
        return checks.check_error_map(rows, p["mu"], p["eta_det"],
                                      checks.grid(*LOSS_GRID), checks.grid(*ERROR_D_GRID))
    return checks.check_coefficients(rows, checks.grid(0.0, p["gamma_max"], COEFF_STEPS))


@dataclass
class Outcome:
    """Result of one op: its output or failure, and its trace counters if traced."""

    output: object = None
    problem: str | None = None
    trace: dict | None = None
    peak_rss_kb: int = 0


def run_process(cmd: list[str], env: dict, cwd: str, timeout: float = OP_TIMEOUT_S):
    """Run cmd to its end; returns (exit code, stdout, stderr, peak RSS in KiB).

    The child is reaped with os.wait4, so the peak RSS is its own and not
    that of every process the benchmark has started.  On Linux it also
    includes the RSS this process had when it started the child, so a cold
    run keeps its own process free of numpy and qel.  A child still running
    after timeout seconds is killed and TimeoutExpired raised.
    """
    proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    streams = {}
    readers = [threading.Thread(target=lambda k, f: streams.__setitem__(k, f.read()), args=kf)
               for kf in (("stdout", proc.stdout), ("stderr", proc.stderr))]
    for reader in readers:
        reader.start()
    killed = threading.Event()
    timer = threading.Timer(timeout, lambda: (killed.set(), proc.kill()))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    for reader in readers:
        reader.join()
    proc.stdout.close()
    proc.stderr.close()
    if killed.is_set():
        raise subprocess.TimeoutExpired(cmd, timeout)
    return proc.returncode, streams["stdout"], streams["stderr"], usage.ru_maxrss


def run_cold(op: Op, env: dict, cwd: str, traced: bool) -> Outcome:
    """Start one qel process; a nonzero exit or a timeout is a failure."""
    if traced:
        cmd = [sys.executable, layertrace.__file__] + cli_args(op)
    else:
        cmd = [sys.executable, "-m", "qel.cli"] + cli_args(op)
    try:
        returncode, stdout, stderr, peak_rss_kb = run_process(cmd, env, cwd)
    except subprocess.TimeoutExpired:
        return Outcome(problem=f"timed out after {OP_TIMEOUT_S} s")
    out = Outcome(output=stdout, peak_rss_kb=peak_rss_kb)
    if traced:
        head, _, record = stderr.rpartition(layertrace.TRACE_MARK)
        stderr = head
        if record:
            out.trace = json.loads(record)
    if returncode != 0:
        last = stderr.strip().splitlines()[-1:] or [""]
        out.problem = f"exit code {returncode}: {last[0]}"
    return out


# --------------------------------------------------------------------------
# Warm ops: the public API in this process
# --------------------------------------------------------------------------

def run_warm(op: Op, qel) -> Outcome:
    """Call the API for one op; an exception is a failure."""
    attacks, channel = qel.attacks, qel.channel
    p = op.params
    try:
        if op.kind == "crossover":
            return Outcome(channel.crossover_loss_best(p["mu"], p["eta_det"], p["error_rate"]))
        d_grid = checks.grid(0.0, 0.5, CURVE_STEPS)
        curves = attacks.information_curves(p["eta_det"], d_grid)
        losses, ds = checks.grid(*LOSS_GRID), checks.grid(*ERROR_D_GRID)
        window = channel.eta_t_bounds(p["mu"], p["eta_det"])
        error_map = []
        for loss in losses:
            scen = channel.ChannelScenario.from_loss_db(p["mu"], p["eta_det"], loss)
            inside = (not window.empty) and window.contains_eta_t(scen.eta_t)
            for d in ds:
                try:
                    e = channel.observed_error_from_disturbance(scen, d)
                except channel.InvalidRegimeError:
                    e = None
                error_map.append((loss, d, e, inside))
        gammas = checks.grid(0.0, p["gamma_max"], COEFF_STEPS)
        coefficients = [(g, *attacks.strategy_b_coefficients(g)) for g in gammas]
    except Exception as exc:  # an op that raises is counted as failed
        return Outcome(problem=f"{type(exc).__name__}: {exc}")
    curve_rows = [(c.disturbance, c.i_pns, c.i_a, c.i_b) for c in curves]
    return Outcome((curve_rows, error_map, coefficients))


def check_warm_output(op: Op, output) -> str | None:
    p = op.params
    if op.kind == "crossover":
        if op.reference:
            ref = json.loads(checks.reference_text("crossover.json"))
            want = (ref["crossover_db_a"], ref["crossover_db_b"], ref["crossover_db_best"])
            got = (output["A"], output["B"], output["best"])
            if [checks.fmt(v) for v in got] != [checks.fmt(v) for v in want] \
                    or output["best_strategy"] != ref["best_strategy"]:
                return f"reference crossover {got} differs from {want} at 12 digits"
        return checks.check_crossover(output, p["mu"], p["eta_det"])
    curve_rows, error_map, coefficients = output
    if op.reference:
        for name, columns, rows in (
                ("info-curves.csv", ("D", "i_pns", "i_a", "i_b"), curve_rows),
                ("error-map.csv", ("loss_db", "D", "e", "in_window"), error_map),
                ("coefficients.csv", ("gamma", "a", "b", "c", "d", "e", "f"), coefficients)):
            problem = checks.same_bytes(checks.csv_text(columns, rows), checks.reference_text(name))
            if problem:
                return f"reference {name}: {problem}"
    return (checks.check_info_curves(curve_rows, p["eta_det"], checks.grid(0.0, 0.5, CURVE_STEPS))
            or checks.check_error_map(error_map, p["mu"], p["eta_det"],
                                      checks.grid(*LOSS_GRID), checks.grid(*ERROR_D_GRID))
            or checks.check_coefficients(coefficients, checks.grid(0.0, p["gamma_max"], COEFF_STEPS)))


def strategy_b_points(op: Op) -> int | None:
    """Known strategy_b_information call count of an op, where one is known.

    information_curves evaluates strategy B once per grid point with D at or
    below its largest reachable disturbance, 1/4 on the CLI's 500-point grid.
    """
    if op.kind in ("grids", "info-curves"):
        return sum(1 for d in checks.grid(0.0, 0.5, CURVE_STEPS) if d <= checks.REACHABLE_D)
    if op.kind in ("bounds", "error-map", "coefficients"):
        return 0
    return None


def cold_env(root: str) -> dict:
    """Environment of a cold op: PYTHONPATH=src and QEL_THREADS unset."""
    env = {k: v for k, v in os.environ.items() if k not in ("QEL_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env
