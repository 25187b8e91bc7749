"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line."""
import math
import time

import numpy as np

from qel import attacks, channel, oracle, verification
from qel.detection import DetectorModel, povm_elements
from qel.infotheory import fuchs_information, levitin_information, phi


def report(number: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {status}: {detail}")
    assert ok, detail


def test_criterion_1_validity_window():
    start = time.perf_counter()
    window = channel.eta_t_bounds(0.1, 0.2)
    elapsed = time.perf_counter() - start
    lo, hi = window.loss_db_lower, window.loss_db_upper
    ok = abs(lo - 0.17) <= 0.05 and abs(hi - 13.2) <= 0.05 and elapsed < 1.0
    report(1, ok, f"loss window ({lo:.4f} dB, {hi:.4f} dB) vs (0.17, 13.2) +-0.05, "
                  f"runtime {elapsed:.3f} s")


def test_criterion_2_crossover():
    start = time.perf_counter()
    result = channel.crossover_loss_best(0.1, 0.2, 0.01)
    elapsed = time.perf_counter() - start
    best = result["best"]
    ok = best is not None and abs(best - 12.5) <= 0.3 and elapsed < 5.0
    report(2, ok, f"best-strategy crossover {best:.4f} dB (strategy {result['best_strategy']}) "
                  f"vs 12.5 +-0.3 dB, runtime {elapsed:.3f} s")


def test_criterion_3_dominance_regions():
    start = time.perf_counter()
    ok = True
    details = []
    for eta in np.arange(0.1, 0.95, 0.1):
        points = attacks.information_curves(float(eta))
        a_wins = [p.disturbance for p in points if p.i_a is not None and p.i_a > p.i_pns]
        low_d = [p for p in points if p.i_b is not None and p.i_a is not None
                 and 0.0 < p.disturbance <= 0.05]
        b_beats_a = all(p.i_b > p.i_a for p in low_d)
        ok = ok and bool(a_wins) and low_d and b_beats_a
        details.append(f"eta={eta:.1f}: A>PNS on {len(a_wins)} pts, B>A at low D: {b_beats_a}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    report(3, ok, "; ".join(details) + f"; runtime {elapsed:.2f} s")


def test_criterion_4_probe_coefficient_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for i, gamma in enumerate(np.linspace(0.0, math.pi, 50)):
        rep = oracle.simulate_strategy_b(float(gamma), eta_det=0.4, rng_seed=100 + i)
        worst = max(worst, rep.deltas["coefficients_vs_closed_form"])
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    report(4, ok, f"max |16 x probe - coefficients| = {worst:.3e} <= 1e-9 over 50 gamma "
                  f"points, runtime {elapsed:.2f} s")


def test_criterion_5_strategy_a_equivalence():
    betas = np.linspace(0.02, 0.35, 12)
    worst_probe = worst_overlap = worst_info = 0.0
    for i, beta in enumerate(betas):
        rep = oracle.simulate_strategy_a(float(beta), eta_det=0.3, rng_seed=200 + i)
        worst_probe = max(worst_probe, rep.deltas["probe_vs_closed_form"])
        worst_overlap = max(worst_overlap, rep.deltas["overlap_vs_closed_form"])
        worst_info = max(worst_info, rep.deltas["information_vs_measurement_search"])
    ok = worst_probe <= 1e-9 and worst_overlap <= 1e-9 and worst_info <= 1e-6
    report(5, ok, f"{len(betas)} calibrated points: probe delta {worst_probe:.3e} <= 1e-9, "
                  f"overlap delta {worst_overlap:.3e} <= 1e-9, "
                  f"information delta {worst_info:.3e} <= 1e-6")


def test_criterion_6_levitin_consistency():
    start = time.perf_counter()
    rng = np.random.default_rng(321)
    worst = 0.0
    for _ in range(200):
        ens = verification.random_equal_determinant_ensemble(rng)
        closed = levitin_information(ens)
        numeric = oracle.numeric_two_state_info(ens.rho0, ens.rho1)
        worst = max(worst, abs(closed - numeric))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 30.0
    report(6, ok, f"max |closed - search| = {worst:.3e} <= 1e-6 over 200 random ensembles, "
                  f"runtime {elapsed:.2f} s")


def test_criterion_7_error_map_identity():
    rng = np.random.default_rng(654)
    worst = 0.0
    count = 0
    while count < 1000:
        mu = rng.uniform(0.02, 0.8)
        eta = rng.uniform(0.05, 0.95)
        window = channel.eta_t_bounds(mu, eta)
        if window.empty:
            continue
        lo, hi = window.loss_db_lower, window.loss_db_upper
        margin = 0.01 * (hi - lo)
        scen = channel.ChannelScenario.from_loss_db(mu, eta, rng.uniform(lo + margin, hi - margin))
        d = rng.uniform(0.001, 0.5)
        composed = channel.observed_error_from_disturbance(scen, d)
        closed = channel.observed_error_closed_form(scen, d)
        worst = max(worst, abs(closed - composed) / composed)
        count += 1
    ok = worst <= 1e-12
    report(7, ok, f"max relative |closed - composed| = {worst:.3e} <= 1e-12 "
                  f"over 1000 in-window scenarios")


def test_criterion_8_double_click_signature():
    start = time.perf_counter()
    scen = channel.ChannelScenario.from_loss_db(0.1, 0.2, 5.0)
    n = 10**6
    stats_pns = oracle.monte_carlo_protocol(scen, "PNS", 0.1, n_pulses=n, seed=2024)
    pns_ok = stats_pns.double_clicks_matched == 0
    details = [f"PNS matched-basis doubles = {stats_pns.double_clicks_matched}"]
    clone_ok = True
    for attack in ("CloneA", "CloneB"):
        stats = oracle.monte_carlo_protocol(scen, attack, 0.1, n_pulses=n, seed=2025)
        sig = stats.double_matched_rate / stats.double_matched_rate_se
        clone_ok = clone_ok and sig > 5.0
        details.append(f"{attack} doubles = {stats.double_clicks_matched} ({sig:.0f} sigma)")
    elapsed = time.perf_counter() - start
    ok = pns_ok and clone_ok and elapsed < 60.0
    report(8, ok, "; ".join(details) + f"; runtime {elapsed:.2f} s")


def test_criterion_9_povm_and_endpoint_identities():
    rng = np.random.default_rng(987)
    worst = 0.0
    for _ in range(100):
        eta = float(rng.uniform(0.0, 1.0))
        # the basis draw: the elements are the same in every basis, but the
        # draw keeps the seeded eta sequence
        rng.integers(2)
        elements = povm_elements(DetectorModel(eta_det=eta, cutoff=4))
        total = sum(e.entries for e in elements.values())
        worst = max(worst, float(np.max(np.abs(total - np.eye(total.shape[0])))))
    identities = (phi(0.0) == 0.0 and phi(1.0) == 2.0
                  and fuchs_information(0.0) == 0.0 and fuchs_information(0.5) == 1.0)
    ok = worst <= 1e-12 and identities
    report(9, ok, f"POVM completeness max deviation {worst:.3e} <= 1e-12 over 100 draws; "
                  f"phi(0)=0, phi(1)=2, fuchs(0)=0, fuchs(1/2)=1 exact: {identities}")
