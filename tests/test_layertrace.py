"""The benchmark's layer tracer still finds, wraps and restores every qel target.

perfbench/layertrace.py names qel functions by attribute path and skips a
name it cannot find, so a rename here would silently zero a traced metric.
"""
import importlib
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
        # qel has no linalg module and no channel.crossover_loss, so the tracer skips
        # those three targets and no others
        gone = {"linalg.partial_trace", "linalg.Operator.__post_init__", "channel.crossover_loss"}
        assert "qel.linalg" not in sys.modules and not hasattr(qel.channel, "crossover_loss")
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
