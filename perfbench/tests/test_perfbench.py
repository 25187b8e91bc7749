"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import ast
import itertools
import json
import os
import shutil
import subprocess
import sys
import textwrap

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402


def _declared(kind: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_benchmark_json_names_the_workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert _declared("per_layer") == layertrace.layer_metric_units()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_declared_metrics(workload):
    result = run.run_workload(workload, seed=3, seconds=0.01, trace=False, setup_runs=1)
    assert result["failures"] == []
    final = run.report(result)
    assert final["correct"] and final["attempted"] >= 1 and final["failed"] == 0
    assert {k: v["unit"] for k, v in final["metrics"].items()} == _declared("end_to_end")
    assert all(v["value"] > 0 for v in final["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_traced_run_reports_layer_metrics(workload):
    result = run.run_workload(workload, seed=3, seconds=0.01, trace=True, import_runs=1)
    assert result["failures"] == []
    final = run.report(result)
    assert {k: v["unit"] for k, v in final["metrics"].items()} == _declared("per_layer")
    metrics = {k: v["value"] for k, v in final["metrics"].items()}
    assert metrics["trace.ops"] >= 1
    assert metrics["import.scipy_s"] > 0 and metrics["import.numpy_s"] > 0
    if workload == "verify":
        assert metrics["attacks.strategy_a_unitary.calls_per_calibration"] > 0
        assert metrics["oracle.monte_carlo_protocol.pulses_per_s"] > 0
        assert all(metrics[f"verification.{s}.total_s"] > 0 for s in layertrace.SUITES)
    if workload == "crossover_scan":
        assert 0 < metrics["channel.crossover.finite_gain_ratio"] <= 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    def first(seed):
        return list(itertools.islice(workloads.generate(workload, seed), 40))

    assert first(11) == first(11)
    if workload != "verify":  # verify always runs the default suite seed
        assert first(11) != first(12)
    assert first(11)[0].reference and not first(11)[-1].reference


@pytest.mark.xfail(strict=True, reason="error_map_identity exceeds its 1e-12 tolerance by "
                   "round-off for suite seed 25; once it passes, verify can draw seeds again")
def test_verify_passes_for_a_non_default_suite_seed():
    qel = run.import_qel()
    assert qel.verification.run_verification(seed=25).passed


def _loop(workload, ops):
    qel = run.import_qel() if workload in workloads.WARM else None
    return run.make_loop(workload, iter(ops), qel=qel)


def test_invalid_warm_op_is_counted_as_failed():
    good = Op("crossover", {"mu": 0.1, "eta_det": 0.2, "error_rate": 0.01})
    bad = Op("crossover", {"mu": 0.1, "eta_det": 1.5, "error_rate": 0.01})
    loop = _loop("crossover_scan", [bad, good]).run(seconds=60)
    assert loop.attempted == 2 and len(loop.failures) == 1 and len(loop.times) == 1
    assert run.report({"workload": "crossover_scan", "trace": 1, "attempted": loop.attempted,
                       "failures": loop.failures, "metrics": {},
                       "detail": {"functions": {}}, "environment": {}})["correct"] is False


def test_invalid_cold_op_is_counted_as_failed():
    loop = _loop("cli_light", [Op("info-curves", {"eta_det": 1.5})]).run(seconds=60)
    assert loop.attempted == 1 and len(loop.failures) == 1 and loop.times == []


def test_wrong_output_is_counted_as_failed():
    loop = _loop("cli_light", [])
    tampered = checks.reference_text("bounds.json").replace("0.9620850552842243", "0.9620850552")
    loop.record(Op("bounds", {"mu": 0.1, "eta_det": 0.2}, reference=True),
                workloads.Outcome(output=tampered), 0.5)
    assert loop.attempted == 1 and len(loop.failures) == 1 and loop.times == []


def test_tracer_patches_rebound_names_and_restores_them():
    qel = run.import_qel()
    original = qel.linalg.partial_trace
    assert qel.oracle.partial_trace is original  # rebound by `from .linalg import`
    tracer = layertrace.Tracer().install()
    try:
        assert qel.oracle.partial_trace is not original
        assert qel.attacks.partial_trace is qel.oracle.partial_trace
        qel.attacks.clone_a_disturbance(qel.attacks.CloneAParams(beta=0.1))
    finally:
        tracer.uninstall()
    assert qel.oracle.partial_trace is original
    assert tracer.stats["linalg.partial_trace"][0] == 4  # one per BB84 signal


def test_traced_count_matches_known_value():
    qel = run.import_qel()
    grid = checks.grid(0.0, 0.5, workloads.CURVE_STEPS)
    tracer = layertrace.Tracer().install()
    try:
        qel.attacks.information_curves(0.2, grid)
    finally:
        tracer.uninstall()
    reachable = sum(1 for d in grid if d <= qel.attacks.STRATEGY_B_MAX_DISTURBANCE)
    assert reachable == workloads.strategy_b_points(Op("grids")) == 250
    assert tracer.stats["attacks.strategy_b_information"][0] == reachable


def test_importtime_attribution():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |        300 |   numpy",
        "import time:        50 |         50 |       numpy.testing",
        "import time:       100 |        150 |     scipy",
        "import time:       500 |        650 |   scipy.optimize",
        "import time:        40 |        990 | qel",
        "import time:        10 |         10 | qel.cli",
    ])
    got = layertrace.parse_importtime(stderr)
    assert got == pytest.approx({"numpy": 300e-6, "scipy": 650e-6, "qel": 50e-6})


def test_closed_form_window_matches_reference_bounds():
    ref = json.loads(checks.reference_text("bounds.json"))
    assert checks.check_bounds(ref, 0.1, 0.2) is None
    assert checks.check_bounds(dict(ref, eta_t_upper=0.95), 0.1, 0.2) is not None


def test_checkout_without_sources_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli_light",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_repeated_cold_op_must_repeat_its_output():
    loop = _loop("cli_light", [])
    op = Op("bounds", {"mu": 0.1, "eta_det": 0.2})
    text = checks.reference_text("bounds.json")
    loop.record(op, workloads.Outcome(output=text), 0.5)
    loop.record(op, workloads.Outcome(output=text.replace("\n", "\r\n")), 0.5)
    assert loop.attempted == 2 and len(loop.failures) == 1


def test_run_process_reports_the_childs_own_peak_rss():
    # in a fresh process that has loaded what a cold run loads, as a cold run does
    script = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {BENCH!r})
        import run, workloads
        assert "numpy" not in sys.modules
        env = workloads.cold_env(run.ROOT)
        fill = "b = bytearray(64 * 2**20); b[::4096] = b'x' * len(b[::4096])"
        print(workloads.run_process([sys.executable, "-c", fill], env, run.ROOT))
        print(workloads.run_process([sys.executable, "-c", "print('ok')"], env, run.ROOT))
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    big, small = (ast.literal_eval(line) for line in proc.stdout.splitlines())
    assert big[0] == 0 and small[:2] == (0, "ok\n")
    assert small[3] < big[3] - 48 * 1024  # KiB: not the peak of every child so far


def test_run_process_kills_a_child_past_its_timeout():
    with pytest.raises(subprocess.TimeoutExpired):
        workloads.run_process([sys.executable, "-c", "import time; time.sleep(30)"],
                              workloads.cold_env(ROOT), ROOT, timeout=0.5)
