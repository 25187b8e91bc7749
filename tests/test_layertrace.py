"""The benchmark's layer tracer still finds, wraps and restores every qel target.

perfbench/layertrace.py names qel functions by attribute path and skips a
name it cannot find, so a rename here would silently zero a traced metric.
"""
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import qel.cli  # noqa: F401
import qel.verification  # noqa: F401  (with qel.cli, loads every qel module the tracer patches)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _qel_namespaces() -> dict:
    return {name: dict(vars(module)) for name, module in list(sys.modules.items())
            if module is not None and (name == "qel" or name.startswith("qel."))}


def test_tracer_wraps_every_target_and_restores_the_originals(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layertrace = importlib.import_module("layertrace")
    before = _qel_namespaces()

    tracer = layertrace.Tracer().install()
    try:
        # qel has no linalg module, no channel.crossover_loss and no detection.conditional_error_rate
        # (oracle sifts through its masks), and the cloning machines are built in oracle, so the
        # tracer skips those seven targets and no others
        machines = ("strategy_a_unitary", "strategy_b_unitary", "clone_a_disturbance")
        gone = {"linalg.partial_trace", "linalg.Operator.__post_init__", "channel.crossover_loss",
                "detection.conditional_error_rate", *(f"attacks.{name}" for name in machines)}
        assert "qel.linalg" not in sys.modules and not hasattr(qel.channel, "crossover_loss")
        assert not hasattr(qel.detection, "conditional_error_rate")
        assert not any(hasattr(qel.attacks, name) for name in machines)
        expected = set(layertrace.TARGETS) - gone
        expected |= {f"verification._suite_{suite}" for suite in layertrace.SUITES}
        assert set(tracer.stats) == expected
        assert not gone & set(tracer.stats)
        qel.attacks.gamma_for_disturbance(0.1)
        assert tracer.stats["attacks.gamma_for_disturbance"][0] == 1
        assert tracer.stats["attacks.strategy_b_disturbance"][0] > 1
    finally:
        tracer.uninstall()

    after = _qel_namespaces()
    for name, namespace in before.items():
        for attr, value in namespace.items():
            assert after[name][attr] is value, f"{name}.{attr} not restored"


# The traced cold child of perfbench (layertrace._child) installs its tracer right
# after `import qel.cli`: a module that a command imports later is never wrapped.
_TRACED_CHILD = """
import contextlib, io, json, sys
import qel.cli
import layertrace
tracer = layertrace.Tracer().install()
counts = []
for argv in json.loads(sys.argv[1]):
    before = tracer.snapshot()
    with contextlib.redirect_stdout(io.StringIO()):
        assert qel.cli.main(argv) == 0
    stats = layertrace.diff(tracer.snapshot(), before)["stats"]
    counts.append(stats.get("attacks.strategy_b_information", [0])[0])
print(json.dumps(counts))
"""


def test_traced_light_commands_count_the_strategy_b_informations_the_benchmark_expects(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    ops = [workloads.Op("info-curves", {"eta_det": 0.2}),
           workloads.Op("bounds", {"mu": 0.1, "eta_det": 0.2}),
           workloads.Op("error-map", {"mu": 0.1, "eta_det": 0.2}),
           workloads.Op("coefficients", {"gamma_max": math.pi})]
    expected = [workloads.strategy_b_points(op) for op in ops]
    assert expected[0] > 0
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(PERFBENCH.parent / "src"), str(PERFBENCH)])}
    result = subprocess.run([sys.executable, "-c", _TRACED_CHILD, json.dumps([workloads.cli_args(op) for op in ops])],
                            capture_output=True, text=True, env=env, check=True, timeout=60)
    assert json.loads(result.stdout.splitlines()[-1]) == expected
