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
    headline.json                  transmission window, crossover losses and
                                   each strategy's band of winning disturbances
    verification.json              full oracle verification report

Run:  python scripts/reproduce_figures.py --outdir out
"""
import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from qel import VERIFY_SEED, attacks, channel, cli, verification  # noqa: E402

MU = 0.1
ETA_DET = 0.2
OBSERVED_ERROR = 0.01


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", default="out")
    parser.add_argument("--steps", type=int, default=attacks.DEFAULT_CURVE_GRID_POINTS)
    parser.add_argument("--seed", type=int, default=VERIFY_SEED)
    parser.add_argument("--skip-verification", action="store_true")
    args = parser.parse_args()
    os.makedirs(args.outdir, exist_ok=True)

    def write(name, *argv):
        """Write one figure file through the qel command line."""
        path = os.path.join(args.outdir, name)
        if cli.main([*argv, "-o", path]) != 0:
            raise SystemExit(f"qel {' '.join(argv)} failed")
        print(f"wrote {path}")

    # information vs disturbance for a family of detector efficiencies
    for eta in np.arange(0.1, 0.95, 0.1):
        write(f"information_curves_eta_{eta:.1f}.csv",
              "info-curves", "--eta-det", str(float(eta)), "--steps", str(args.steps))

    # observed error rate vs disturbance as a function of loss (1 to 13 dB)
    write("observed_error_map.csv", "error-map", "--mu", str(MU), "--eta-det", str(ETA_DET),
          "--d-steps", "51")

    # disturbance required to hold the observed error fixed, vs loss
    window = channel.eta_t_bounds(MU, ETA_DET)
    rows = []
    for loss in np.linspace(window.loss_db_lower + 0.01, window.loss_db_upper - 0.01, 200):
        scen = channel.ChannelScenario.from_loss_db(MU, ETA_DET, float(loss))
        try:
            d = channel.disturbance_for_error(scen, OBSERVED_ERROR)
        except channel.InvalidRegimeError:
            d = None
        rows.append((float(loss), d))
    path = os.path.join(args.outdir, "disturbance_vs_loss.csv")
    cli.emit_table(("loss_db", "D"), rows, "csv", path, {})
    print(f"wrote {path}")

    # probe coefficients
    write("probe_coefficients.csv", "coefficients")

    # headline numbers
    crossing = channel.crossover_loss_best(MU, ETA_DET, OBSERVED_ERROR)
    # the disturbances where each cloning strategy beats PNS; the crossovers sit at the entries
    bands = {s: channel.gain_band(s, ETA_DET) or (None, None) for s in ("A", "B")}
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
        "band_d_entry_a": bands["A"][0],
        "band_d_exit_a": bands["A"][1],
        "band_d_entry_b": bands["B"][0],
        "band_d_exit_b": bands["B"][1],
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
