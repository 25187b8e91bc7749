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
from dataclasses import dataclass, field

from . import attacks, channel, verification

SCHEMA = "qel/1"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


@dataclass(frozen=True)
class RunConfig:
    """Resolved options for one invocation: config-file values overridden by flags."""

    subcommand: str
    output: str | None = None
    options: dict = field(default_factory=dict)

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        options = {name: value for name, value in vars(args).items()
                   if name not in ("command", "config", "output", "func") and value is not None}
        return cls(subcommand=args.command, output=args.output, options=options)

    def get(self, name, default=None, required=False):
        value = self.options.get(name, default)
        if value is None and required:
            raise UsageError(f"missing required option --{name.replace('_', '-')}")
        return value


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
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
    with open(args.config) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise UsageError(f"config file {args.config} must hold a JSON object")
    # The namespace holds every destination of the chosen subcommand.
    unknown = sorted(set(data) - (set(vars(args)) - {"command", "config", "func"}))
    if unknown:
        raise UsageError(f"unknown option in config file {args.config}: {', '.join(unknown)}")
    return [f"--{name.replace('_', '-')}={value}" for name, value in data.items()
            if value is not None]


def _grid(lo, hi, steps, what):
    if steps < 2:
        raise UsageError(f"{what} grid needs at least 2 steps, got {steps}")
    if not lo < hi:
        raise UsageError(f"{what} grid needs min < max, got [{lo}, {hi}]")
    step = (hi - lo) / (steps - 1)
    return [lo + i * step for i in range(steps)]


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

def cmd_info_curves(cfg: RunConfig) -> int:
    eta_det = float(cfg.get("eta_det", required=True))
    d_min = float(cfg.get("d_min", 0.0))
    d_max = float(cfg.get("d_max", 0.5))
    steps = int(cfg.get("steps", attacks.DEFAULT_CURVE_GRID_POINTS))
    grid = _grid(d_min, d_max, steps, "disturbance")
    points = attacks.information_curves(eta_det, grid)
    rows = [(p.disturbance, p.i_pns, p.i_a, p.i_b) for p in points]
    emit_table(("D", "i_pns", "i_a", "i_b"), rows, cfg.get("format", "csv"), cfg.output,
               {"kind": "info_curves", "eta_det": eta_det})
    return 0


def cmd_error_map(cfg: RunConfig) -> int:
    mu = float(cfg.get("mu", required=True))
    eta_det = float(cfg.get("eta_det", required=True))
    eta_t = cfg.get("eta_t")
    loss_db = cfg.get("loss_db")
    if eta_t is not None and loss_db is not None:
        raise UsageError("--eta-t and --loss-db are mutually exclusive")
    if eta_t is not None:
        losses = [channel.loss_db_from_eta_t(float(eta_t))]
    elif loss_db is not None:
        losses = [float(loss_db)]
    else:
        losses = _grid(float(cfg.get("loss_min", 1.0)),
                       float(cfg.get("loss_max", 13.0)),
                       int(cfg.get("loss_steps", 13)), "loss")
    d_grid = _grid(float(cfg.get("d_min", 0.0)),
                   float(cfg.get("d_max", 0.5)),
                   int(cfg.get("d_steps", 11)), "disturbance")
    window = channel.eta_t_bounds(mu, eta_det)
    rows = []
    for loss in losses:
        scen = channel.ChannelScenario.from_loss_db(mu, eta_det, loss)
        in_window = (not window.empty) and window.contains_eta_t(scen.eta_t)
        for d in d_grid:
            try:
                e = channel.observed_error_from_disturbance(scen, d)
            except channel.InvalidRegimeError:
                e = None
            rows.append((loss, d, e, in_window))
    emit_table(("loss_db", "D", "e", "in_window"), rows, cfg.get("format", "csv"),
               cfg.output, {"kind": "error_map", "mu": mu, "eta_det": eta_det})
    return 0


def cmd_bounds(cfg: RunConfig) -> int:
    mu = float(cfg.get("mu", required=True))
    eta_det = float(cfg.get("eta_det", required=True))
    window = channel.eta_t_bounds(mu, eta_det)
    record = {
        "kind": "bounds",
        "mu": mu,
        "eta_det": eta_det,
        "window_empty": window.empty,
        "eta_t_lower": window.eta_t_lower,
        "eta_t_upper": window.eta_t_upper,
        "loss_db_lower": None if window.empty else window.loss_db_lower,
        "loss_db_upper": None if window.empty else window.loss_db_upper,
    }
    emit_record(record, cfg.output)
    return 0


def cmd_crossover(cfg: RunConfig) -> int:
    mu = float(cfg.get("mu", required=True))
    eta_det = float(cfg.get("eta_det", required=True))
    e = float(cfg.get("error_rate", required=True))
    result = channel.crossover_loss_best(mu, eta_det, e)
    record = {
        "kind": "crossover",
        "mu": mu,
        "eta_det": eta_det,
        "observed_error": e,
        "crossover_db_a": result["A"],
        "crossover_db_b": result["B"],
        "crossover_db_best": result["best"],
        "best_strategy": result["best_strategy"],
    }
    emit_record(record, cfg.output)
    return 0


def cmd_coefficients(cfg: RunConfig) -> int:
    g_min = float(cfg.get("gamma_min", 0.0))
    g_max = float(cfg.get("gamma_max", math.pi))
    steps = int(cfg.get("steps", 50))
    rows = []
    for gamma in _grid(g_min, g_max, steps, "gamma"):
        a, b, c, d, e, f = attacks.strategy_b_coefficients(gamma)
        rows.append((gamma, a, b, c, d, e, f))
    emit_table(("gamma", "a", "b", "c", "d", "e", "f"), rows, cfg.get("format", "csv"),
               cfg.output, {"kind": "coefficients"})
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    seed = int(cfg.get("seed", verification.DEFAULT_SEED))
    pulses = int(cfg.get("pulses", verification.DEFAULT_PULSES))
    if seed < 0 or pulses < 1:
        raise UsageError(f"verify needs --seed >= 0 and --pulses >= 1, got {seed} and {pulses}")
    report = verification.run_verification(seed=seed, n_pulses=pulses)
    emit_record(report.to_dict(), cfg.output)
    if not report.passed:
        failing = ", ".join(report.failing_checks())
        print(f"verification failed: {failing}", file=sys.stderr)
        return 2
    return 0


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(
        prog="qel",
        description="BB84 eavesdropping analysis: PNS process versus two-photon cloning attacks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON file with option values; flags override")
        p.add_argument("-o", "--output", default=None, help="output path (default stdout)")

    p = sub.add_parser("info-curves", help="information versus disturbance for all processes")
    common(p)
    p.add_argument("--eta-det", dest="eta_det", type=_finite_float)
    p.add_argument("--d-min", dest="d_min", type=_finite_float)
    p.add_argument("--d-max", dest="d_max", type=_finite_float)
    p.add_argument("--steps", type=int)
    p.add_argument("--format", choices=("csv", "json"))
    p.set_defaults(func=cmd_info_curves)

    p = sub.add_parser("error-map", help="observed error rate versus disturbance and loss")
    common(p)
    p.add_argument("--mu", type=_finite_float)
    p.add_argument("--eta-det", dest="eta_det", type=_finite_float)
    p.add_argument("--eta-t", dest="eta_t", type=_finite_float)
    p.add_argument("--loss-db", dest="loss_db", type=_finite_float)
    p.add_argument("--loss-min", dest="loss_min", type=_finite_float)
    p.add_argument("--loss-max", dest="loss_max", type=_finite_float)
    p.add_argument("--loss-steps", dest="loss_steps", type=int)
    p.add_argument("--d-min", dest="d_min", type=_finite_float)
    p.add_argument("--d-max", dest="d_max", type=_finite_float)
    p.add_argument("--d-steps", dest="d_steps", type=int)
    p.add_argument("--format", choices=("csv", "json"))
    p.set_defaults(func=cmd_error_map)

    p = sub.add_parser("bounds", help="valid transmission window for the comparison")
    common(p)
    p.add_argument("--mu", type=_finite_float)
    p.add_argument("--eta-det", dest="eta_det", type=_finite_float)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("crossover", help="loss at which cloning overtakes the PNS process")
    common(p)
    p.add_argument("--mu", type=_finite_float)
    p.add_argument("--eta-det", dest="eta_det", type=_finite_float)
    p.add_argument("--error-rate", dest="error_rate", type=_finite_float)
    p.set_defaults(func=cmd_crossover)

    p = sub.add_parser("coefficients", help="closed-form probe coefficients on a gamma grid")
    common(p)
    p.add_argument("--gamma-min", dest="gamma_min", type=_finite_float)
    p.add_argument("--gamma-max", dest="gamma_max", type=_finite_float)
    p.add_argument("--steps", type=int)
    p.add_argument("--format", choices=("csv", "json"))
    p.set_defaults(func=cmd_coefficients)

    p = sub.add_parser("verify", help="run all oracle suites and report deltas")
    common(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--pulses", type=int)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            # Config values are parsed as flags; the command line's come last and win.
            args = parser.parse_args([argv[0], *_config_flags(args), *argv[1:]])
        return args.func(RunConfig.from_args(args))
    except channel.InvalidRegimeError as exc:
        print(f"invalid regime: {exc}", file=sys.stderr)
        return 3
    except (UsageError, OSError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        # work is sized by --pulses (verify) and the grid step counts
        print("usage error: out of memory; lower --pulses or the grid --steps, "
              "--loss-steps or --d-steps", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
