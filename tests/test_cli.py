import ast
import functools
import importlib
import io
import json
import math
import os
import random
import runpy
import site
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qel import (VERIFY_PULSES, VERIFY_SEED, attacks, channel, cli, detection, infotheory, optics, oracle,
                 verification)


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))
import light_gates  # noqa: E402


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


def test_info_curves_json_ends_at_the_upper_end_of_its_grid(capsys):
    # full floats: the last point is d_max itself, where the matched PNS information is exactly 1
    code, out, _ = run_cli(capsys, ["info-curves", "--eta-det", "0.2", "--format", "json"])
    assert code == 0
    assert json.loads(out)["rows"][-1] == [0.5, 1.0, None, None]


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


_REQUIRED = {
    "info-curves": {"eta_det": 0.2},
    "error-map": {"mu": 0.1, "eta_det": 0.2},
    "bounds": {"mu": 0.1, "eta_det": 0.2},
    "crossover": {"mu": 0.1, "eta_det": 0.2, "error_rate": 0.01},
}


@pytest.mark.parametrize("via_config", [False, True], ids=["flags", "config"])
@pytest.mark.parametrize("command, missing", [
    (command, name) for command, values in _REQUIRED.items() for name in values])
def test_missing_required_option_is_usage_error(tmp_path, capsys, command, missing, via_config):
    given = {name: value for name, value in _REQUIRED[command].items() if name != missing}
    if via_config:
        path = tmp_path / "run.json"
        path.write_text(json.dumps(given))
        argv = [command, "--config", str(path)]
    else:
        argv = [command] + [f"--{name.replace('_', '-')}={value}" for name, value in given.items()]
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert out == ""
    assert err == f"usage error: missing required option --{missing.replace('_', '-')}\n"


@pytest.mark.parametrize("via_config", [False, True], ids=["flags", "config"])
def test_text_that_is_not_a_number_is_named_in_the_usage_error(tmp_path, capsys, via_config):
    # a JSON true reaches the parser as the text True
    if via_config:
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"mu": True, "eta_det": 0.2}))
        argv, text = ["bounds", "--config", str(path)], "True"
    else:
        argv, text = ["bounds", "--mu", "abc", "--eta-det", "0.2"], "abc"
    assert run_cli(capsys, argv) == (1, "", f"usage error: argument --mu: expected a finite number, got {text!r}\n")


#: (option strings, type, default, choices) of each subcommand's options, as they were declared
#: one by one before the options table; every subcommand opens with --config and -o/--output.
_FINITE = cli._finite_float
_COMMON_OPTIONS = [(["--config"], None, None, None), (["-o", "--output"], None, None, None)]
_FORMAT_OPTION = (["--format"], None, "csv", ("csv", "json"))
_DECLARED = {
    "info-curves": [(["--eta-det"], _FINITE, None, None), (["--d-min"], _FINITE, 0.0, None),
                    (["--d-max"], _FINITE, 0.5, None),
                    (["--steps"], int, attacks.DEFAULT_CURVE_GRID_POINTS, None), _FORMAT_OPTION],
    "error-map": [(["--mu"], _FINITE, None, None), (["--eta-det"], _FINITE, None, None),
                  (["--eta-t"], _FINITE, None, None), (["--loss-db"], _FINITE, None, None),
                  (["--loss-min"], _FINITE, 1.0, None), (["--loss-max"], _FINITE, 13.0, None),
                  (["--loss-steps"], int, 13, None), (["--d-min"], _FINITE, 0.0, None),
                  (["--d-max"], _FINITE, 0.5, None), (["--d-steps"], int, 11, None), _FORMAT_OPTION],
    "bounds": [(["--mu"], _FINITE, None, None), (["--eta-det"], _FINITE, None, None)],
    "crossover": [(["--mu"], _FINITE, None, None), (["--eta-det"], _FINITE, None, None),
                  (["--error-rate"], _FINITE, None, None)],
    "coefficients": [(["--gamma-min"], _FINITE, 0.0, None), (["--gamma-max"], _FINITE, math.pi, None),
                     (["--steps"], int, 50, None), _FORMAT_OPTION],
    "verify": [(["--seed"], int, VERIFY_SEED, None), (["--pulses"], int, VERIFY_PULSES, None)],
}


def test_each_option_takes_the_type_default_and_choices_it_was_declared_with():
    # the type of each default too, so that a table default of 0 for 0.0 shows as an int option
    subparsers = next(a for a in cli.build_parser()._actions if a.dest == "command").choices
    assert list(subparsers) == list(_DECLARED)
    for name, parser in subparsers.items():
        got = [(a.option_strings, a.type, a.default, a.choices, type(a.default))
               for a in parser._actions if a.dest != "help"]
        want = [(*option, type(option[2])) for option in _COMMON_OPTIONS + _DECLARED[name]]
        assert got == want, name


def test_info_curves_bad_grid_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, ["info-curves", "--eta-det", "0.2", "--steps", "1"])
    assert code == 1
    code, _, _ = run_cli(capsys, [
        "info-curves", "--eta-det", "0.2", "--d-min", "0.4", "--d-max", "0.1"])
    assert code == 1


@pytest.mark.parametrize("last_d, argv", light_gates.CLAMPED_GRID_COMMANDS,
                         ids=[argv[0] for _, argv in light_gates.CLAMPED_GRID_COMMANDS])
def test_grid_whose_last_step_rounds_past_its_upper_end_ends_at_it(capsys, last_d, argv):
    assert 0.1 + 11 * ((0.5 - 0.1) / 11) > 0.5
    assert light_gates.ends_at(last_d, *run_cli(capsys, argv))


#: (lo, hi, steps) of 1,490 grids on the CLI's default ranges and on two narrower ones
_CLI_GRIDS = [(lo, hi, steps) for lo, hi in [(0.0, 0.5), (0.1, 0.5), (0.05, 0.45), (1.0, 13.0), (0.0, math.pi)]
              for steps in range(2, 300)]


def test_grid_points_never_pass_the_upper_end():
    overshoots = 0
    for lo, hi, steps in _CLI_GRIDS:
        overshoots += lo + (steps - 1) * ((hi - lo) / (steps - 1)) > hi
        grid = attacks.linear_grid(lo, hi, steps, "test")
        assert max(grid) <= hi == grid[-1]
    assert overshoots == 43  # of the 1490 grids, where lo + i * step would pass hi


def test_linear_grid_is_bit_equal_to_numpy_linspace():
    # the CLI grids, then seeded ones of every sign, width and length; the last point is hi itself,
    # which lo + (steps - 1) * step falls an ulp short of on 34 and 503 of them
    rng = random.Random(1)
    grids = list(_CLI_GRIDS)
    for _ in range(20_000):
        lo = rng.uniform(-10.0, 10.0)
        grids.append((lo, lo + rng.uniform(1e-6, 20.0), rng.randint(2, 600)))
    short = 0
    for lo, hi, steps in grids:
        short += lo + (steps - 1) * ((hi - lo) / (steps - 1)) < hi
        got = np.array(attacks.linear_grid(lo, hi, steps, "test"))
        assert got.tobytes() == np.linspace(lo, hi, steps).tobytes(), (lo, hi, steps)
    assert short == 34 + 503


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


def test_bounds_bright_source_sums_the_whole_photon_series(capsys):
    code, out, _ = run_cli(capsys, ["bounds", "--mu", "30", "--eta-det", "0.2"])
    assert code == 0
    # the lower edge solves 1 - exp(-mu eta eta_t) = P_multi, and in closed form
    # 1 - P_multi = e^-mu + (e^(-mu eta) - e^-mu)/(1 - eta)
    mu, eta = 30.0, 0.2
    no_multi = math.exp(-mu) + (math.exp(-mu * eta) - math.exp(-mu)) / (1 - eta)
    expected = -math.log(no_multi) / (mu * eta)
    assert expected == pytest.approx(0.962809408116, abs=1e-12)
    assert json.loads(out)["eta_t_lower"] == pytest.approx(expected, rel=1e-12)


def test_bounds_unit_efficiency(capsys):
    code, out, _ = run_cli(capsys, ["bounds", "--mu", "0.1", "--eta-det", "1.0"])
    assert code == 0
    record = json.loads(out)
    assert record["eta_t_upper"] == pytest.approx(1.0, abs=1e-9)
    assert record["window_empty"] is False


def test_unit_transmission_is_plus_zero_db(capsys):
    code, out, _ = run_cli(capsys, ["bounds", "--mu", "0.1", "--eta-det", "1"])
    assert code == 0
    assert '"loss_db_lower": 0.0,' in out
    code, out, _ = run_cli(capsys, [
        "error-map", "--mu", "0.1", "--eta-det", "0.2", "--eta-t", "1"])
    assert code == 0
    _, rows = parse_csv(out)
    assert {row[0] for row in rows} == {"0"}
    loss = channel.loss_db_from_eta_t(channel.ChannelScenario(mu=0.1, eta_det=0.2, eta_t=1.0).eta_t)
    assert loss == 0.0 and math.copysign(1.0, loss) == 1.0


@pytest.mark.parametrize("mu", ["1e-300", "1e-160"])
@pytest.mark.parametrize("command", [["bounds"], ["crossover", "--error-rate", "0.01"],
                                     ["error-map"]], ids=["bounds", "crossover", "error-map"])
def test_source_whose_multi_photon_rate_underflows_is_usage_error(capsys, command, mu):
    code, out, err = run_cli(capsys, [*command, "--mu", mu, "--eta-det", "0.2"])
    assert code == 1
    assert out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert f"mu={mu}" in err


@pytest.mark.parametrize("option, got", [(["--loss-db", "1e5"], "100000.0"), (["--loss-max", "4000"], "3333.5")],
                         ids=["loss-db", "loss-max"])
def test_loss_whose_transmission_underflows_is_named_in_the_usage_error(capsys, option, got):
    code, out, err = run_cli(capsys, ["error-map", "--mu", "0.1", "--eta-det", "0.2", *option])
    assert (code, out) == (1, "")
    assert err == ("usage error: loss must be below about 3236 dB, where the transmission underflows to 0, "
                   f"got {got} dB\n")


def test_faint_source_keeps_its_lower_window_edge(capsys):
    code, out, _ = run_cli(capsys, ["bounds", "--mu", "1e-150", "--eta-det", "0.2"])
    assert code == 0
    assert json.loads(out)["eta_t_lower"] == pytest.approx(0.5e-150, rel=1e-12)


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


@pytest.mark.parametrize("content, message", [
    (b"", "is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
    (b"\xff{}", "is not valid JSON: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    (b"[1]", "must hold a JSON object"),
    (b"[" * 100_000, "is not valid JSON: maximum recursion depth exceeded while decoding a JSON array "
                     "from a unicode string"),
], ids=["malformed", "undecodable", "not-an-object", "too-deep"])
def test_config_file_without_a_json_object_is_named_in_the_usage_error(tmp_path, capsys, content, message):
    path = tmp_path / "run.json"
    path.write_bytes(content)
    assert run_cli(capsys, ["bounds", "--config", str(path)]) == (1, "", f"usage error: config file {path} {message}\n")


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
    (["bounds", "--mu", "1e300", "--eta-det", "0.2"], None),
    (["bounds", "--m", "0.1", "--eta-det", "0.2"], None),
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


def _fuzzed_values(default):
    """The values an option is fuzzed with, by the type that its table default gives it."""
    if default == "csv":
        return _FORMAT
    return _STEPS if isinstance(default, int) else _ANY_FLOAT


#: every flag of each light subcommand, read from the options table
_FLAGS = {name: {f"--{dest.replace('_', '-')}": _fuzzed_values(default) for dest, default in options.items()}
          for name, (_, _, options) in cli._COMMANDS.items() if name != "verify"}


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


# an odd --pulses opens oracle._tallies' basis stream on the high half of a u64
@pytest.mark.parametrize("argv", ["--pulses 100000 --seed 7", "--pulses 1000001 --seed 5"],
                         ids=["even-pulses", "odd-pulses"])
def test_verify_passes_and_reports_suites(capsys, argv):
    code, out, _ = run_cli(capsys, ["verify", *argv.split()])
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


@pytest.mark.parametrize("check, expected, argv", [
    (light_gates.same_bytes, "bounds.json", "bounds --mu 0.1 --eta-det 0.2"),
    (light_gates.one_line_error, 1, "bounds --mu nan --eta-det 0.2"),
    (light_gates.one_line_error, 3, "crossover --mu 60 --eta-det 0.2 --error-rate 0.01"),
], ids=["success", "usage-error", "invalid-regime"])
@pytest.mark.filterwarnings("ignore:'qel.cli' found in sys.modules:RuntimeWarning")
def test_module_run_as_a_script_exits_with_the_command_code(capsys, monkeypatch, check, expected, argv):
    # `python -m qel.cli`: the module's last line hands main's code to SystemExit
    monkeypatch.setattr(sys, "argv", ["qel", *argv.split()])
    with pytest.raises(SystemExit) as stop:
        runpy.run_module("qel.cli", run_name="__main__")
    captured = capsys.readouterr()
    assert check(expected, stop.value.code, captured.out, captured.err)


def test_verify_report_layout_matches_the_benchmark_reference(capsys):
    # The benchmark rejects a verify report whose suites, checks or
    # tolerances differ from its reference; hold the same layout here.
    code, out, _ = run_cli(capsys, ["verify", "--pulses", "100000"])
    assert code == 0

    def layout(report):
        return [(suite["name"], check["name"], check["tolerance"])
                for suite in report["suites"] for check in suite["checks"]]

    reference = json.loads((ROOT / "perfbench" / "reference" / "verify.json").read_text())
    assert layout(json.loads(out)) == layout(reference)


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


def test_verify_detects_a_tampered_strategy_a_calibration(capsys, monkeypatch):
    # The roundtrip inverts the disturbances measured on the beta grid back to beta.
    original = attacks.clone_a_params_for_disturbance
    monkeypatch.setattr(attacks, "clone_a_params_for_disturbance", lambda d: original(d) * (1 + 1e-8))
    code, out, err = run_cli(capsys, ["verify", "--pulses", "20000"])
    assert code == 2
    assert json.loads(out)["passed"] is False
    assert err == "verification failed: disturbance_maps/strategy_a_calibration_roundtrip\n"


def test_verify_detects_a_sifting_mask_that_counts_double_clicks_as_no_error(capsys, monkeypatch):
    # The Monte Carlo and the cloner drive read one set of sifting masks, so a double click
    # that never errs moves every measured error rate off its closed form.
    errors = oracle._SIFTING_MASKS["sifted_errors"].copy()
    errors[:, :, detection.DetectionOutcome.DOUBLE] = False
    monkeypatch.setitem(oracle._SIFTING_MASKS, "sifted_errors", errors)
    code, out, err = run_cli(capsys, ["verify", "--pulses", "20000"])
    assert code == 2
    assert json.loads(out)["passed"] is False
    assert err == ("verification failed: probe_a/probe_overlap_vs_closed_form, probe_a/product_block_weight_vs_2d, "
                   "probe_a/information_vs_measurement_search, disturbance_maps/strategy_b_disturbance_vs_simulation, "
                   "disturbance_maps/strategy_a_calibration_roundtrip\n")


def test_validated_records_take_make_and_replace_from_one_checked_base():
    for record in (channel.ChannelScenario, infotheory.TwoStateEnsemble, optics.Bb84Signal,
                   detection.DetectorModel, verification.CheckResult):
        assert "_make" not in vars(record), record
        assert record._make.__func__.__qualname__ == "_checked_record.<locals>.<lambda>", record


def test_check_result_converts_tolerance_and_delta_to_float_through_every_constructor():
    check = verification.CheckResult("c", 0, 1)
    for made in (check, verification.CheckResult._make(("c", 0, 1)), check._replace(delta=1)):
        assert made == ("c", 0.0, 1.0)
        assert type(made.tolerance) is float and type(made.delta) is float
        assert json.dumps(made._asdict()) == '{"name": "c", "tolerance": 0.0, "delta": 1.0}'
    with pytest.raises(AttributeError):
        check.delta = 0.0


@pytest.mark.parametrize("module, name, argv", [
    (verification, "run_verification", ["verify", "--pulses", "1000000000000"]),
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
    # the verify sampler's memory is flat in --pulses, so only the grid options are named
    assert err.startswith("usage error:") and "--steps" in err and "--pulses" not in err


@pytest.mark.parametrize("reference, argv", light_gates.REFERENCE_COMMANDS)
def test_reference_outputs_are_byte_identical(capsys, reference, argv):
    # in process, where numpy is loaded, so the array paths answer
    assert light_gates.same_bytes(reference, *run_cli(capsys, argv))


def test_light_gates_pass_on_every_installed_interpreter():
    # a fresh -S child on this interpreter and on each CPython 3.10+ installed next to it (a pyenv layout)
    pythons = {p.resolve() for p in [Path(sys.executable), *Path(sys.base_prefix).parent.glob("3.1[0-9]*/bin/python")]}
    for python in sorted(pythons):
        result = subprocess.run([str(python), "-S", str(ROOT / "scripts" / "light_gates.py")],
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, (python, result.stdout, result.stderr)


# The child moves libm results one ulp on a hash-chosen 1 % of calls, exact ones (0, +-1, integral log2 and log10)
# left alone, at four salts; a reference output on a rounding knife-edge, where libms differ, fails.
_NUDGED_LIBM = """
import math, sys
salt = nudges = 0
def nudged(k, f):
    def call(*args):
        global nudges
        r, h = f(*args), hash((salt, k, *args)) % 200
        if h > 1 or not math.isfinite(r) or r in (0.0, 1.0, -1.0) or k > 5 and r.is_integer():
            return r
        nudges += 1
        return math.nextafter(r, (-math.inf, math.inf)[h])
    return call
for k, name in enumerate(["cos", "sin", "exp", "expm1", "log", "log1p", "log2", "log10"]):
    setattr(math, name, nudged(k, getattr(math, name)))
sys.path.insert(0, sys.argv[1])
from light_gates import REFERENCE_COMMANDS, faults, same_bytes
for salt in range(4):
    sys.stdout.writelines(f"{line}\\n" for line in faults(same_bytes, REFERENCE_COMMANDS))
assert nudges, "no libm result was moved"
"""


def test_reference_outputs_hold_when_libm_is_one_ulp_off_on_one_percent_of_calls():
    result = subprocess.run([sys.executable, "-S", "-c", _NUDGED_LIBM, str(ROOT / "scripts")],
                            capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout) == (0, ""), result.stderr


LIGHT_COMMANDS = pytest.mark.parametrize("argv", [None, *(argv for _, argv in light_gates.REFERENCE_COMMANDS)],
                                         ids=["import", *(argv[0] for _, argv in light_gates.REFERENCE_COMMANDS)])


_LIGHT_PROBED = frozenset({"numpy", "scipy", "dataclasses", "inspect", "typing"})


@functools.cache
def _probed_modules_loaded_by(argv: tuple | None) -> frozenset:
    """Those of _LIGHT_PROBED that `import qel.cli` and then argv load.

    One fresh interpreter per command, since this one has loaded numpy for
    other tests; the tests of a command read its one answer.  The child runs
    with -S, so no site start-up hook preloads modules; site-packages follows
    src on its path for the commands that import numpy.
    """
    run = "" if argv is None else f"assert qel.cli.main({list(argv)!r}) == 0; "
    probe = f"import sys, qel.cli; {run}print(sorted({set(_LIGHT_PROBED)!r} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), *site.getsitepackages()])}
    result = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                            env=env, check=True, timeout=60)
    return frozenset(ast.literal_eval(result.stdout.splitlines()[-1]))


def loaded_by_light_command(argv, modules) -> str:
    """Those of modules that `import qel.cli` and then argv load, as a sorted list's repr."""
    assert set(modules) <= _LIGHT_PROBED
    return repr(sorted(_probed_modules_loaded_by(None if argv is None else tuple(argv)) & set(modules)))


@LIGHT_COMMANDS
def test_light_commands_load_neither_numpy_nor_scipy(argv):
    assert loaded_by_light_command(argv, {"numpy", "scipy"}) == "[]"


@LIGHT_COMMANDS
def test_light_commands_load_neither_dataclasses_nor_inspect(argv):
    assert loaded_by_light_command(argv, {"dataclasses", "inspect"}) == "[]"


@LIGHT_COMMANDS
def test_light_commands_load_no_typing(argv):
    # qel's annotations stay unevaluated strings, so nothing on the light path needs typing
    assert loaded_by_light_command(argv, {"typing"}) == "[]"


def test_verify_loads_no_dataclasses():
    # every qel record is a named tuple, and numpy 2.4 loads no dataclasses either
    assert loaded_by_light_command(["verify", "--pulses", "100000", "--seed", "7"], {"dataclasses"}) == "[]"


def test_package_names_resolve_from_their_modules():
    import qel

    for name in qel.__all__:
        if name != "__version__":
            module = importlib.import_module(f"qel.{qel._EXPORTS[name]}")
            assert getattr(qel, name) is getattr(module, name)
    with pytest.raises(AttributeError):
        qel.no_such_name


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
    # the bands of disturbances where each strategy beats PNS; each crossover sits at an entry
    bands = [headline[f"band_d_{edge}_{s}"] for s in "ab" for edge in ("entry", "exit")]
    assert bands == pytest.approx([0.0927, 0.2131, 0.0544, 0.1604], abs=1e-4)
    assert {p.name: p.read_bytes() for p in reference.iterdir()} == before
