#!/usr/bin/env python3
"""Regenerate every figure data file and headline number in one run.

Writes plot-ready CSV plus a JSON summary into the output directory:

    information_curves_eta_*.csv   attacker information vs disturbance, one
                                   file per detector efficiency (solid /
                                   dotted / dashdot curve families)
    observed_error_map.csv         observed error rate vs disturbance for a
                                   grid of channel losses
    disturbance_vs_loss.csv        disturbance needed to keep the observed
                                   error at a fixed value, vs loss
    probe_coefficients.csv         closed-form probe coefficients on a
                                   gamma grid
    headline.json                  transmission window and crossover losses
    verification.json              full oracle verification report

Run:  python scripts/reproduce_figures.py --outdir out
"""
import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from qel import attacks, channel, cli, verification  # noqa: E402

MU = 0.1
ETA_DET = 0.2
OBSERVED_ERROR = 0.01


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", default="out")
    parser.add_argument("--steps", type=int, default=500)
    parser.add_argument("--seed", type=int, default=verification.DEFAULT_SEED)
    parser.add_argument("--skip-verification", action="store_true")
    args = parser.parse_args()
    os.makedirs(args.outdir, exist_ok=True)
    tables = {}  # file name -> (columns, rows)

    # information vs disturbance for a family of detector efficiencies
    grid = np.linspace(0.0, 0.5, args.steps)
    for eta in np.arange(0.1, 0.95, 0.1):
        points = attacks.information_curves(float(eta), grid)
        rows = [(p.disturbance, p.i_pns, p.i_a, p.i_b) for p in points]
        tables[f"information_curves_eta_{eta:.1f}.csv"] = (("D", "i_pns", "i_a", "i_b"), rows)

    # observed error rate vs disturbance as a function of loss
    window = channel.eta_t_bounds(MU, ETA_DET)
    rows = []
    for loss in np.arange(1.0, 13.5, 1.0):
        scen = channel.ChannelScenario.from_loss_db(MU, ETA_DET, float(loss))
        in_window = window.contains_eta_t(scen.eta_t)
        for d in np.linspace(0.0, 0.5, 51):
            try:
                e = channel.observed_error_from_disturbance(scen, float(d))
            except channel.InvalidRegimeError:
                e = None
            rows.append((float(loss), float(d), e, in_window))
    tables["observed_error_map.csv"] = (("loss_db", "D", "e", "in_window"), rows)

    # disturbance required to hold the observed error fixed, vs loss
    rows = []
    for loss in np.linspace(window.loss_db_lower + 0.01, window.loss_db_upper - 0.01, 200):
        scen = channel.ChannelScenario.from_loss_db(MU, ETA_DET, float(loss))
        try:
            d = channel.disturbance_for_error(scen, OBSERVED_ERROR)
        except channel.InvalidRegimeError:
            d = None
        rows.append((float(loss), d))
    tables["disturbance_vs_loss.csv"] = (("loss_db", "D"), rows)

    # probe coefficients
    rows = []
    for gamma in np.linspace(0.0, np.pi, 50):
        a, b, c, d, e, f = attacks.strategy_b_coefficients(float(gamma))
        rows.append((float(gamma), a, b, c, d, e, f))
    tables["probe_coefficients.csv"] = (("gamma", "a", "b", "c", "d", "e", "f"), rows)
    for name, (columns, rows) in tables.items():
        path = os.path.join(args.outdir, name)
        cli.emit_table(columns, rows, "csv", path, {})
        print(f"wrote {path}")

    # headline numbers
    crossing = channel.crossover_loss_best(MU, ETA_DET, OBSERVED_ERROR)
    headline = {
        "kind": "headline",
        "mu": MU,
        "eta_det": ETA_DET,
        "observed_error": OBSERVED_ERROR,
        "loss_db_lower": window.loss_db_lower,
        "loss_db_upper": window.loss_db_upper,
        "crossover_db_a": crossing["A"],
        "crossover_db_b": crossing["B"],
        "crossover_db_best": crossing["best"],
        "best_strategy": crossing["best_strategy"],
    }
    path = os.path.join(args.outdir, "headline.json")
    cli.emit_record(headline, path)
    print(f"wrote {path}")
    print(f"  window: ({window.loss_db_lower:.3f} dB, {window.loss_db_upper:.3f} dB)")
    print(f"  crossover: {crossing['best']:.3f} dB via strategy {crossing['best_strategy']}")

    if not args.skip_verification:
        report = verification.run_verification(seed=args.seed)
        path = os.path.join(args.outdir, "verification.json")
        cli.emit_record(report.to_dict(), path)
        print(f"wrote {path}")
        print(f"  verification {'passed' if report.passed else 'FAILED'}")
        return 0 if report.passed else 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
