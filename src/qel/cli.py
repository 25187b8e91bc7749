"""Command-line front end emitting figure data and verification reports.

Subcommands produce plot-ready CSV or JSON only; there is no plotting here.
All numeric output uses 12 significant digits with a period decimal separator
regardless of locale, JSON records carry a "schema": "qel/1" field with a
fixed key order, and identical configurations (including seeds) produce
byte-identical files.

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 scenario
outside the valid analysis regime.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

from . import VERIFY_PULSES, VERIFY_SEED, attacks, channel

SCHEMA = "qel/1"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan  # not a number: reported like nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    return f"{value:.12g}"


def _write_text(text: str, output: str | None):
    if output in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(output, "w", newline="") as fh:
            fh.write(text)


def emit_table(columns, rows, fmt, output, meta):
    """Write rows as 12-digit CSV, or as a qel/1 JSON record carrying meta."""
    if fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        _write_text("\n".join(lines) + "\n", output)
    else:
        record = {"schema": SCHEMA, **meta, "columns": list(columns),
                  "rows": [[v if not isinstance(v, float) or math.isfinite(v) else None
                            for v in row] for row in rows]}
        _write_text(json.dumps(record, indent=2) + "\n", output)


def emit_record(record: dict, output):
    """Write a qel/1 JSON record."""
    _write_text(json.dumps({"schema": SCHEMA, **record}, indent=2) + "\n", output)


def _config_flags(args: argparse.Namespace) -> list[str]:
    """The values of the config file as flags of the chosen subcommand."""
    try:
        with open(args.config, encoding="utf-8") as fh:
            data = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise UsageError(f"config file {args.config} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise UsageError(f"config file {args.config} must hold a JSON object")
    # The namespace holds every destination of the chosen subcommand.
    unknown = sorted(set(data) - (set(vars(args)) - {"command", "config"}))
    if unknown:
        raise UsageError(f"unknown option in config file {args.config}: {', '.join(unknown)}")
    return [f"--{name.replace('_', '-')}={value}" for name, value in data.items()
            if value is not None]


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

def cmd_info_curves(args: argparse.Namespace) -> int:
    grid = attacks.linear_grid(args.d_min, args.d_max, args.steps, "disturbance")
    points = attacks.information_curves(args.eta_det, grid)  # each point is the row (D, i_pns, i_a, i_b)
    emit_table(("D", "i_pns", "i_a", "i_b"), points, args.format, args.output,
               {"kind": "info_curves", "eta_det": args.eta_det})
    return 0


def cmd_error_map(args: argparse.Namespace) -> int:
    mu, eta_det = args.mu, args.eta_det
    if args.eta_t is not None and args.loss_db is not None:
        raise UsageError("--eta-t and --loss-db are mutually exclusive")
    if args.eta_t is not None:
        losses = [channel.loss_db_from_eta_t(args.eta_t)]
    elif args.loss_db is not None:
        losses = [args.loss_db]
    else:
        losses = attacks.linear_grid(args.loss_min, args.loss_max, args.loss_steps, "loss")
    d_grid = attacks.linear_grid(args.d_min, args.d_max, args.d_steps, "disturbance")
    window = channel.eta_t_bounds(mu, eta_det)
    rows = []
    for loss in losses:
        scen = channel.ChannelScenario.from_loss_db(mu, eta_det, loss)
        in_window = window.contains_eta_t(scen.eta_t)
        for d in d_grid:
            try:
                e = channel.observed_error_from_disturbance(scen, d)
            except channel.InvalidRegimeError:
                e = None
            rows.append((loss, d, e, in_window))
    emit_table(("loss_db", "D", "e", "in_window"), rows, args.format, args.output,
               {"kind": "error_map", "mu": mu, "eta_det": eta_det})
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    window = channel.eta_t_bounds(args.mu, args.eta_det)
    record = {
        "kind": "bounds",
        "mu": args.mu,
        "eta_det": args.eta_det,
        "window_empty": window.empty,
        "eta_t_lower": window.eta_t_lower,
        "eta_t_upper": window.eta_t_upper,
        "loss_db_lower": None if window.empty else window.loss_db_lower,
        "loss_db_upper": None if window.empty else window.loss_db_upper,
    }
    emit_record(record, args.output)
    return 0


def cmd_crossover(args: argparse.Namespace) -> int:
    result = channel.crossover_loss_best(args.mu, args.eta_det, args.error_rate)
    record = {
        "kind": "crossover",
        "mu": args.mu,
        "eta_det": args.eta_det,
        "observed_error": args.error_rate,
        "crossover_db_a": result["A"],
        "crossover_db_b": result["B"],
        "crossover_db_best": result["best"],
        "best_strategy": result["best_strategy"],
    }
    emit_record(record, args.output)
    return 0


def cmd_coefficients(args: argparse.Namespace) -> int:
    rows = []
    for gamma in attacks.linear_grid(args.gamma_min, args.gamma_max, args.steps, "gamma"):
        a, b, c, d, e, f = attacks.strategy_b_coefficients(gamma)
        rows.append((gamma, a, b, c, d, e, f))
    emit_table(("gamma", "a", "b", "c", "d", "e", "f"), rows, args.format, args.output,
               {"kind": "coefficients"})
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    seed, pulses = args.seed, args.pulses
    if seed < 0 or pulses < 1:
        raise UsageError(f"verify needs --seed >= 0 and --pulses >= 1, got {seed} and {pulses}")
    # Imported here so that no other subcommand loads the oracle and numpy.
    from . import verification

    report = verification.run_verification(seed=seed, n_pulses=pulses)
    emit_record(report.to_dict(), args.output)
    if not report.passed:
        failing = ", ".join(report.failing_checks())
        print(f"verification failed: {failing}", file=sys.stderr)
        return 2
    return 0


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

#: Marks an option that its subcommand cannot run without.
REQUIRED = object()

#: Each subcommand's handler, summary and options as dest -> default.  An option's
#: type follows its default: an int parses as an int, "csv" offers csv and json, and
#: any other default is a finite float, REQUIRED standing for a default of None.
_COMMANDS = {
    "info-curves": (cmd_info_curves, "information versus disturbance for all processes", {
        "eta_det": REQUIRED, "d_min": 0.0, "d_max": 0.5,
        "steps": attacks.DEFAULT_CURVE_GRID_POINTS, "format": "csv"}),
    "error-map": (cmd_error_map, "observed error rate versus disturbance and loss", {
        "mu": REQUIRED, "eta_det": REQUIRED, "eta_t": None, "loss_db": None,
        "loss_min": 1.0, "loss_max": 13.0, "loss_steps": 13,
        "d_min": 0.0, "d_max": 0.5, "d_steps": 11, "format": "csv"}),
    "bounds": (cmd_bounds, "valid transmission window for the comparison", {
        "mu": REQUIRED, "eta_det": REQUIRED}),
    "crossover": (cmd_crossover, "loss at which cloning overtakes the PNS process", {
        "mu": REQUIRED, "eta_det": REQUIRED, "error_rate": REQUIRED}),
    "coefficients": (cmd_coefficients, "closed-form probe coefficients on a gamma grid", {
        "gamma_min": 0.0, "gamma_max": math.pi, "steps": 50, "format": "csv"}),
    "verify": (cmd_verify, "run all oracle suites and report deltas", {
        "seed": VERIFY_SEED, "pulses": VERIFY_PULSES}),
}


def build_parser() -> _Parser:
    parser = _Parser(
        prog="qel", allow_abbrev=False,
        description="BB84 eavesdropping analysis: PNS process versus two-photon cloning attacks.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, summary, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.add_argument("--config", help="JSON file with option values; flags override")
        p.add_argument("-o", "--output", help="output path (default stdout)")
        for dest, default in options.items():
            flag = f"--{dest.replace('_', '-')}"
            if default == "csv":
                p.add_argument(flag, choices=("csv", "json"), default=default)
            elif isinstance(default, int):
                p.add_argument(flag, type=int, default=default)
            else:
                p.add_argument(flag, type=_finite_float,
                               default=None if default is REQUIRED else default)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            # Config values are parsed as flags; the command line's come last and win.
            args = parser.parse_args([argv[0], *_config_flags(args), *argv[1:]])
        handler, _, options = _COMMANDS[args.command]
        for dest, default in options.items():
            if default is REQUIRED and getattr(args, dest) is None:
                raise UsageError(f"missing required option --{dest.replace('_', '-')}")
        return handler(args)
    except channel.InvalidRegimeError as exc:
        print(f"invalid regime: {exc}", file=sys.stderr)
        return 3
    except (UsageError, OSError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        # memory is sized by the grid step counts; the verify sampler's is flat in --pulses
        print("usage error: out of memory; lower the grid --steps, --loss-steps or --d-steps",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
