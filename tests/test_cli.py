import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qel import attacks, cli


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


ROOT = Path(__file__).resolve().parents[1]


def parse_csv(text):
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_info_curves_row_count_and_values(capsys):
    code, out, _ = run_cli(capsys, [
        "info-curves", "--eta-det", "0.2", "--d-min", "0", "--d-max", "0.5",
        "--steps", "500"])
    assert code == 0
    assert out.endswith("\n")
    header, rows = parse_csv(out)
    assert header == ["D", "i_pns", "i_a", "i_b"]
    assert len(rows) == 500
    assert float(rows[0][1]) == pytest.approx(1 / 1.8, rel=1e-11)
    for row in rows:
        d = float(row[0])
        if d > 0.2501:
            assert row[2] == ""
            assert row[3] == ""
        else:
            assert row[2] != ""


def test_info_curves_json_format(capsys):
    code, out, _ = run_cli(capsys, [
        "info-curves", "--eta-det", "0.3", "--steps", "5", "--format", "json"])
    assert code == 0
    record = json.loads(out)
    assert record["schema"] == "qel/1"
    assert record["columns"] == ["D", "i_pns", "i_a", "i_b"]
    assert len(record["rows"]) == 5
    assert record["rows"][-1][2] is None


def test_info_curves_byte_identical(capsys):
    argv = ["info-curves", "--eta-det", "0.2", "--steps", "40"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


def test_info_curves_csv_digits(capsys):
    _, out, _ = run_cli(capsys, ["info-curves", "--eta-det", "0.37", "--steps", "3"])
    _, rows = parse_csv(out)
    value = rows[0][1]
    assert "," not in value
    mantissa = value.replace(".", "").lstrip("0")
    assert len(mantissa) <= 12


def test_info_curves_missing_option_is_usage_error(capsys):
    code, _, err = run_cli(capsys, ["info-curves"])
    assert code == 1
    assert "eta-det" in err


def test_info_curves_bad_grid_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, ["info-curves", "--eta-det", "0.2", "--steps", "1"])
    assert code == 1
    code, _, _ = run_cli(capsys, [
        "info-curves", "--eta-det", "0.2", "--d-min", "0.4", "--d-max", "0.1"])
    assert code == 1


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, ["info-curves", "--nonsense", "1"])
    assert code == 1


def test_error_map_window_and_flags(capsys):
    code, out, _ = run_cli(capsys, [
        "error-map", "--mu", "0.1", "--eta-det", "0.2",
        "--loss-min", "1", "--loss-max", "13", "--loss-steps", "13",
        "--d-min", "0.05", "--d-max", "0.25", "--d-steps", "5"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["loss_db", "D", "e", "in_window"]
    assert len(rows) == 13 * 5
    for row in rows:
        assert row[3] == "1"
        assert float(row[2]) <= float(row[1]) + 1e-15


def test_error_map_out_of_window_rows_flagged(capsys):
    code, out, _ = run_cli(capsys, [
        "error-map", "--mu", "0.1", "--eta-det", "0.2", "--loss-db", "14",
        "--d-min", "0.1", "--d-max", "0.3", "--d-steps", "2"])
    assert code == 0
    _, rows = parse_csv(out)
    for row in rows:
        assert row[3] == "0"
        assert row[2] == ""  # no silently invented error rate


def test_error_map_eta_t_and_loss_db_exclusive(capsys):
    code, _, err = run_cli(capsys, [
        "error-map", "--mu", "0.1", "--eta-det", "0.2",
        "--eta-t", "0.5", "--loss-db", "3"])
    assert code == 1
    assert "mutually exclusive" in err


def test_bounds_record(capsys):
    code, out, _ = run_cli(capsys, ["bounds", "--mu", "0.1", "--eta-det", "0.2"])
    assert code == 0
    record = json.loads(out)
    assert record["schema"] == "qel/1"
    assert set(record) == {"schema", "kind", "mu", "eta_det", "window_empty",
                           "eta_t_lower", "eta_t_upper", "loss_db_lower", "loss_db_upper"}
    assert record["loss_db_lower"] == pytest.approx(0.17, abs=0.05)
    assert record["loss_db_upper"] == pytest.approx(13.2, abs=0.05)
    assert record["window_empty"] is False


def test_bounds_unit_efficiency(capsys):
    code, out, _ = run_cli(capsys, ["bounds", "--mu", "0.1", "--eta-det", "1.0"])
    assert code == 0
    record = json.loads(out)
    assert record["eta_t_upper"] == pytest.approx(1.0, abs=1e-9)
    assert record["window_empty"] is False


def test_crossover_record(capsys):
    code, out, _ = run_cli(capsys, [
        "crossover", "--mu", "0.1", "--eta-det", "0.2", "--error-rate", "0.01"])
    assert code == 0
    record = json.loads(out)
    assert record["crossover_db_best"] == pytest.approx(12.5, abs=0.3)
    assert record["best_strategy"] == "B"
    assert "crossover_db_a" in record and "crossover_db_b" in record


def test_crossover_zero_error_gives_nulls(capsys):
    code, out, _ = run_cli(capsys, [
        "crossover", "--mu", "0.1", "--eta-det", "0.2", "--error-rate", "0"])
    assert code == 0
    record = json.loads(out)
    assert record["crossover_db_a"] is None
    assert record["crossover_db_b"] is None
    assert record["crossover_db_best"] is None
    assert record["best_strategy"] is None


def test_crossover_invalid_regime_exit_code(capsys):
    code, _, err = run_cli(capsys, [
        "crossover", "--mu", "0.1", "--eta-det", "0.2", "--error-rate", "0.49"])
    assert code == 3
    assert "invalid regime" in err


def test_coefficients_grid(capsys):
    code, out, _ = run_cli(capsys, [
        "coefficients", "--gamma-min", "0", "--gamma-max", str(math.pi), "--steps", "50"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["gamma", "a", "b", "c", "d", "e", "f"]
    assert len(rows) == 50
    first = [float(v) for v in rows[0]]
    assert first[1:] == pytest.approx([8, 8, 8, 0, 0, 0], abs=1e-9)


def test_config_file_with_flag_override(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"eta_det": 0.2, "steps": 7, "d_max": 0.5}))
    code, out, _ = run_cli(capsys, ["info-curves", "--config", str(config)])
    assert code == 0
    assert len(parse_csv(out)[1]) == 7
    code, out, _ = run_cli(capsys, [
        "info-curves", "--config", str(config), "--steps", "11"])
    assert code == 0
    assert len(parse_csv(out)[1]) == 11


def test_config_file_missing_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, ["bounds", "--config", "/nonexistent.json"])
    assert code == 1


def test_config_file_unknown_key_is_usage_error(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"eta_det": 0.2, "stepz": 3}))
    code, out, err = run_cli(capsys, ["info-curves", "--config", str(config)])
    assert code == 1
    assert out == ""
    assert "stepz" in err


@pytest.mark.parametrize("argv, config", [
    (["info-curves", "--eta-det", "1.5"], None),
    (["info-curves", "--eta-det", "nan"], None),
    (["bounds", "--mu", "nan", "--eta-det", "0.2"], None),
    (["bounds", "--mu", "0.1", "--eta-det", "0"], None),
    (["verify", "--pulses", "0"], None),
    (["crossover", "--mu", "0.1", "--eta-det", "0.2", "--error-rate", "nan"], None),
    (["coefficients", "--gamma-max", "4"], None),
    (["info-curves"], {"eta_det": 0.2, "steps": "abc"}),
    (["info-curves"], {"eta_det": 0.2, "steps": 2.5}),
    (["info-curves"], {"eta_det": 0.2, "format": "xml"}),
    (["bounds"], {"mu": [0.1], "eta_det": 0.2}),
    (["bounds"], {"mu": 0.1, "eta_det": 0.2, "command": "verify"}),
    (["info-curves", "--eta-det", "0"], None),
])
def test_invalid_input_is_one_line_usage_error(tmp_path, capsys, argv, config):
    if config is not None:
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1


_ANY_FLOAT = st.floats() | st.floats(0.0, 1.0) | st.floats(0.0, 20.0)
_STEPS = st.integers(-3, 50)
_FORMAT = st.sampled_from(["csv", "json", "xml"])
_FLAGS = {
    "info-curves": {"--eta-det": _ANY_FLOAT, "--d-min": _ANY_FLOAT, "--d-max": _ANY_FLOAT,
                    "--steps": _STEPS, "--format": _FORMAT},
    "error-map": {"--mu": _ANY_FLOAT, "--eta-det": _ANY_FLOAT, "--eta-t": _ANY_FLOAT,
                  "--loss-db": _ANY_FLOAT, "--loss-min": _ANY_FLOAT, "--loss-max": _ANY_FLOAT,
                  "--loss-steps": _STEPS, "--d-min": _ANY_FLOAT, "--d-max": _ANY_FLOAT,
                  "--d-steps": _STEPS, "--format": _FORMAT},
    "bounds": {"--mu": _ANY_FLOAT, "--eta-det": _ANY_FLOAT},
    "crossover": {"--mu": _ANY_FLOAT, "--eta-det": _ANY_FLOAT, "--error-rate": _ANY_FLOAT},
    "coefficients": {"--gamma-min": _ANY_FLOAT, "--gamma-max": _ANY_FLOAT,
                     "--steps": _STEPS, "--format": _FORMAT},
}


@pytest.mark.parametrize("command", sorted(_FLAGS))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_arbitrary_option_values_never_raise(command, data):
    argv = [command]
    for flag, values in _FLAGS[command].items():
        value = data.draw(st.none() | values, label=flag)
        if value is not None:
            argv.append(f"{flag}={value}")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert code in (1, 3)
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1


def test_output_file_writing(tmp_path, capsys):
    path = tmp_path / "bounds.json"
    code, out, _ = run_cli(capsys, [
        "bounds", "--mu", "0.1", "--eta-det", "0.2", "-o", str(path)])
    assert code == 0
    assert out == ""
    record = json.loads(path.read_text())
    assert record["schema"] == "qel/1"


def test_verify_passes_and_reports_suites(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--pulses", "100000", "--seed", "7"])
    assert code == 0
    record = json.loads(out)
    assert record["schema"] == "qel/1"
    assert record["passed"] is True
    names = {suite["name"] for suite in record["suites"]}
    assert len(names) >= 6
    assert {"isometry", "probe_a", "probe_b_coefficients", "disturbance_maps",
            "levitin", "double_click", "error_map_identity"} <= names
    for suite in record["suites"]:
        for check in suite["checks"]:
            assert {"name", "tolerance", "delta", "passed"} <= set(check)


def test_verify_detects_tampered_coefficient(capsys, monkeypatch):
    original = attacks.strategy_b_coefficients

    def tampered(gamma):
        a, b, c, d, e, f = original(gamma)
        return a + 1e-6, b, c, d, e, f

    monkeypatch.setattr(attacks, "strategy_b_coefficients", tampered)
    code, out, err = run_cli(capsys, ["verify", "--pulses", "20000"])
    assert code == 2
    record = json.loads(out)
    assert record["passed"] is False
    assert "verification failed" in err


@pytest.mark.parametrize("module, name, argv", [
    (cli.verification, "run_verification", ["verify", "--pulses", "1000000000000"]),
    (attacks, "information_curves", ["info-curves", "--eta-det", "0.2", "--steps", "5"]),
])
def test_out_of_memory_is_one_line_usage_error(capsys, monkeypatch, module, name, argv):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(module, name, exhausted)
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("usage error:") and "--pulses" in err and "--steps" in err


@pytest.mark.parametrize("reference, argv", [
    ("info-curves.csv", ["info-curves", "--eta-det", "0.2"]),
    ("error-map.csv", ["error-map", "--mu", "0.1", "--eta-det", "0.2"]),
    ("bounds.json", ["bounds", "--mu", "0.1", "--eta-det", "0.2"]),
    ("crossover.json", ["crossover", "--mu", "0.1", "--eta-det", "0.2", "--error-rate", "0.01"]),
    ("coefficients.csv", ["coefficients"]),
])
def test_reference_outputs_are_byte_identical(capsys, reference, argv):
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert out.encode() == (ROOT / "perfbench" / "reference" / reference).read_bytes()


def test_cli_import_does_not_load_scipy():
    probe = "import sys, qel.cli; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=env, check=True, timeout=60)
    assert result.stdout.strip() == "False"


def test_reproduce_figures_matches_reference_outputs(tmp_path):
    reference = ROOT / "perfbench" / "reference"
    before = {p.name: p.read_bytes() for p in reference.iterdir()}
    subprocess.run([sys.executable, str(ROOT / "scripts" / "reproduce_figures.py"),
                    "--outdir", str(tmp_path), "--skip-verification"],
                   capture_output=True, check=True, timeout=120)
    assert (tmp_path / "information_curves_eta_0.2.csv").read_bytes() == before["info-curves.csv"]
    assert (tmp_path / "probe_coefficients.csv").read_bytes() == before["coefficients.csv"]
    headline = json.loads((tmp_path / "headline.json").read_text())
    crossover = json.loads(before["crossover.json"])
    for key in ("mu", "eta_det", "observed_error", "crossover_db_a", "crossover_db_b",
                "crossover_db_best", "best_strategy"):
        assert headline[key] == crossover[key]
    assert {p.name: p.read_bytes() for p in reference.iterdir()} == before
