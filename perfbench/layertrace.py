"""Per-layer tracing for the qel benchmark, applied from outside the package.

A Tracer wraps the public functions of each qel module and records, per
function, the number of calls, total time, self time (total minus the time
spent in nested wrapped calls) and the number of calls that raised.  It also
counts calls of a function made while a chosen ancestor is running, which
gives root-finder iterations per inversion and gain evaluations per
crossover without touching the package.

Wrapping replaces the function in every loaded qel module namespace that
holds it, so a name rebound by ``from .x import f`` is counted too.

Run as a script, this file is the traced cold child:

    python perfbench/layertrace.py <qel arguments>

It imports qel.cli, installs the tracer, runs ``qel.cli.main`` and writes the
counters as one line ``TRACE_MARK <json>`` at the end of stderr; stdout
carries the unchanged command output.
"""
from __future__ import annotations

import functools
import json
import re
import sys
import time

TRACE_MARK = "@@qel-trace@@"

#: Wrapped functions, named "<module>.<attribute path>" inside the qel package.
TARGETS = (
    "cli.main",
    "attacks.information_curves",
    "attacks.pns_information_matched",
    "attacks.strategy_a_information",
    "attacks.strategy_b_information",
    "attacks.strategy_b_disturbance",
    "attacks.gamma_for_disturbance",
    "attacks.strategy_b_coefficients",
    "attacks.strategy_a_unitary",
    "attacks.strategy_b_unitary",
    "attacks.clone_a_disturbance",
    "attacks.clone_a_params_for_disturbance",
    "infotheory.phi",
    "infotheory.levitin_information",
    "channel.p_arr_multi",
    "channel.eta_t_bounds",
    "channel.observed_error_from_disturbance",
    "channel.disturbance_for_error",
    "channel.crossover_loss",
    "channel.crossover_loss_best",
    "oracle.simulate_strategy_a",
    "oracle.simulate_strategy_b",
    "oracle.numeric_two_state_info",
    "oracle.monte_carlo_protocol",
    "linalg.partial_trace",
    "linalg.Operator.__post_init__",
    "detection.conditional_error_rate",
    "optics.fock_from_symmetric",
    "verification.run_verification",
)

#: Verification suites, wrapped as verification._suite_<name>.
SUITES = ("isometry", "probe_a", "probe_b_coefficients", "disturbance_maps",
          "levitin", "double_click", "error_map_identity")

#: (ancestor, descendant) pairs whose nested calls are counted.
PAIRS = (
    ("attacks.gamma_for_disturbance", "attacks.strategy_b_disturbance"),
    ("attacks.clone_a_params_for_disturbance", "attacks.strategy_a_unitary"),
    ("channel.crossover_loss", "channel.disturbance_for_error"),
    ("channel.crossover_loss", "attacks.pns_information_matched"),
)

#: Work units read from a wrapped function's result (pulses simulated).
UNITS = {"oracle.monte_carlo_protocol": lambda stats: stats.n_pulses}


class Tracer:
    """Counters for wrapped functions; install() patches, uninstall() restores."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s, raised, units]
        self.pairs = {pair: 0 for pair in PAIRS}
        self._active: dict[str, int] = {}
        self._child_time: list[float] = []
        self._patches: list[tuple] = []

    def _wrap(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0, 0])
        ancestors = [anc for anc, desc in PAIRS if desc == name]
        units = UNITS.get(name)
        active, child_time, pairs = self._active, self._child_time, self.pairs
        active[name] = 0
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat[0] += 1
            for anc in ancestors:
                if active.get(anc):
                    pairs[(anc, name)] += 1
            active[name] += 1
            child_time.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat[3] += 1
                raise
            finally:
                elapsed = clock() - t0
                nested = child_time.pop()
                active[name] -= 1
                stat[1] += elapsed
                stat[2] += elapsed - nested
                if child_time:
                    child_time[-1] += elapsed
            if units is not None:
                stat[4] += units(result)
            return result

        return wrapper

    def install(self, package: str = "qel"):
        """Wrap every target and patch each qel namespace that holds it."""
        modules = {n: m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))}
        names = list(TARGETS) + [f"verification._suite_{s}" for s in SUITES]
        for name in names:
            mod_name, *path = name.split(".")
            owner = modules.get(f"{package}.{mod_name}")
            if owner is None:
                continue
            for part in path[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, path[-1], None)
            if original is None:
                continue
            wrapped = self._wrap(name, original)
            if isinstance(owner, type):
                self._patches.append((owner, path[-1], original))
                setattr(owner, path[-1], wrapped)
                continue
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapped)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def snapshot(self) -> dict:
        return {"stats": {k: list(v) for k, v in self.stats.items()},
                "pairs": [[a, d, n] for (a, d), n in self.pairs.items()]}


def merge(into: dict, snap: dict) -> dict:
    """Add the counters of one snapshot to an accumulated snapshot."""
    stats = into.setdefault("stats", {})
    for name, values in snap["stats"].items():
        acc = stats.setdefault(name, [0, 0.0, 0.0, 0, 0])
        for i, v in enumerate(values):
            acc[i] += v
    pairs = {(a, d): n for a, d, n in into.get("pairs", [])}
    for a, d, n in snap["pairs"]:
        pairs[(a, d)] = pairs.get((a, d), 0) + n
    into["pairs"] = [[a, d, n] for (a, d), n in pairs.items()]
    return into


def diff(after: dict, before: dict) -> dict:
    """Counters accumulated between two snapshots of the same tracer."""
    stats = {}
    for name, values in after["stats"].items():
        base = before["stats"].get(name, [0, 0.0, 0.0, 0, 0])
        stats[name] = [a - b for a, b in zip(values, base)]
    base_pairs = {(a, d): n for a, d, n in before["pairs"]}
    pairs = [[a, d, n - base_pairs.get((a, d), 0)] for a, d, n in after["pairs"]]
    return {"stats": stats, "pairs": pairs}


def attributed_s(snap: dict) -> float:
    """Time inside wrapped functions: the sum of their self times."""
    return sum(v[2] for v in snap["stats"].values())


# --------------------------------------------------------------------------
# Per-layer metrics
# --------------------------------------------------------------------------

_TIMED = (
    "attacks.gamma_for_disturbance",
    "attacks.strategy_a_information",
    "attacks.strategy_b_information",
    "attacks.pns_information_matched",
    "attacks.clone_a_params_for_disturbance",
    "infotheory.phi",
    "channel.crossover_loss",
    "channel.eta_t_bounds",
    "channel.observed_error_from_disturbance",
    "oracle.simulate_strategy_a",
    "oracle.simulate_strategy_b",
    "oracle.numeric_two_state_info",
    "oracle.monte_carlo_protocol",
    "linalg.partial_trace",
    "detection.conditional_error_rate",
    "optics.fock_from_symmetric",
)


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"import.{part}_s": "s" for part in ("python", "numpy", "scipy", "qel")}
    units["cli.self_s"] = "s/op"
    for name in _TIMED:
        units[f"{name}.calls"] = "count/op"
        units[f"{name}.total_s"] = "s/op"
        units[f"{name}.self_s"] = "s/op"
        units[f"{name}.raised"] = "count/op"
    units["attacks.strategy_b_disturbance.calls_per_inversion"] = "count"
    units["attacks.strategy_a_unitary.calls_per_calibration"] = "count"
    units["channel.disturbance_for_error.calls_per_crossover"] = "count"
    units["channel.crossover.finite_gain_ratio"] = "ratio"
    units["oracle.monte_carlo_protocol.pulses_per_s"] = "1/s"
    units["linalg.Operator.constructions"] = "count/op"
    for suite in SUITES:
        units[f"verification.{suite}.total_s"] = "s/op"
    units["trace.ops"] = "count"
    units["trace.overhead_share"] = "ratio"
    units["trace.unattributed_share"] = "ratio"
    return units


def layer_metrics(snap: dict, ops: int) -> dict[str, float]:
    """Per-op layer metrics and derived ratios from accumulated counters.

    Ratios whose base is zero (the layer did not run on this workload) are
    reported as 0.
    """
    stats = snap["stats"]
    pairs = {(a, d): n for a, d, n in snap["pairs"]}
    zero = [0, 0.0, 0.0, 0, 0]
    per_op = 1.0 / ops if ops else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    out = {"cli.self_s": stats.get("cli.main", zero)[2] * per_op}
    for name in _TIMED:
        calls, total, self_s, raised, _ = stats.get(name, zero)
        out[f"{name}.calls"] = calls * per_op
        out[f"{name}.total_s"] = total * per_op
        out[f"{name}.self_s"] = self_s * per_op
        out[f"{name}.raised"] = raised * per_op
    gamma = "attacks.gamma_for_disturbance"
    calib = "attacks.clone_a_params_for_disturbance"
    cross = "channel.crossover_loss"
    out["attacks.strategy_b_disturbance.calls_per_inversion"] = ratio(
        pairs.get((gamma, "attacks.strategy_b_disturbance"), 0), stats.get(gamma, zero)[0])
    out["attacks.strategy_a_unitary.calls_per_calibration"] = ratio(
        pairs.get((calib, "attacks.strategy_a_unitary"), 0), stats.get(calib, zero)[0])
    # Each gain evaluation of the crossover scan calls disturbance_for_error
    # once; only a finite gain goes on to call pns_information_matched.
    gains = pairs.get((cross, "channel.disturbance_for_error"), 0)
    out["channel.disturbance_for_error.calls_per_crossover"] = ratio(gains, stats.get(cross, zero)[0])
    out["channel.crossover.finite_gain_ratio"] = ratio(
        pairs.get((cross, "attacks.pns_information_matched"), 0), gains)
    mc = stats.get("oracle.monte_carlo_protocol", zero)
    out["oracle.monte_carlo_protocol.pulses_per_s"] = ratio(mc[4], mc[1])
    out["linalg.Operator.constructions"] = stats.get("linalg.Operator.__post_init__", zero)[0] * per_op
    for suite in SUITES:
        out[f"verification.{suite}.total_s"] = stats.get(f"verification._suite_{suite}", zero)[1] * per_op
    return out


# --------------------------------------------------------------------------
# Import layer from -X importtime
# --------------------------------------------------------------------------

_IMPORTTIME = re.compile(r"^import time:\s*(\d+)\s*\|\s*(\d+)\s*\|( *)(\S+)\s*$")


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import seconds of numpy, scipy and qel itself.

    importtime prints a module after its children, indented two spaces per
    nesting level.  numpy and scipy are each the sum over their entries not
    nested in a numpy or scipy entry, so numpy modules that scipy pulls in
    count for scipy.  qel's own time is its outermost entries minus those.
    """
    entries = []
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            entries.append((len(m.group(3)) // 2, m.group(4).split(".")[0], int(m.group(2)) * 1e-6))
    totals = {"numpy": 0.0, "scipy": 0.0, "qel": 0.0}
    for i, (level, family, cumulative) in enumerate(entries):
        if family not in totals:
            continue
        # ancestors follow an entry, each at a smaller level than the last
        shadowing = ("qel",) if family == "qel" else ("numpy", "scipy")
        nested = False
        for later_level, later_family, _ in entries[i + 1:]:
            if later_level < level:
                level = later_level
                if later_family in shadowing:
                    nested = True
                    break
        if not nested:
            totals[family] += cumulative
    totals["qel"] -= totals["numpy"] + totals["scipy"]
    return totals


# --------------------------------------------------------------------------
# Traced cold child
# --------------------------------------------------------------------------

def _child(argv) -> int:
    t0 = time.perf_counter()
    import qel.cli
    import_s = time.perf_counter() - t0
    tracer = Tracer().install()
    try:
        code = qel.cli.main(argv)
    finally:
        sys.stdout.flush()
        record = tracer.snapshot()
        record["import_s"] = import_s
        sys.stderr.write(f"\n{TRACE_MARK} {json.dumps(record)}\n")
        sys.stderr.flush()
    return code


if __name__ == "__main__":
    raise SystemExit(_child(sys.argv[1:]))
