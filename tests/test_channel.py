import bisect
import inspect
import math
import os
import random
import statistics
import subprocess
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qel import attacks, channel, verification
from qel.channel import (ChannelScenario, InvalidRegimeError, TransmissionWindow, crossover_loss_best,
                         disturbance_for_error, error_disturbance_ratio, eta_t_bounds, eta_t_from_loss_db,
                         loss_db_from_eta_t, observed_error_closed_form,
                         observed_error_from_disturbance, p_arr_multi, p_exp)


def test_scenario_validation():
    with pytest.raises(ValueError):
        ChannelScenario(mu=0.0, eta_det=0.2, eta_t=0.5)
    with pytest.raises(ValueError):
        ChannelScenario(mu=0.1, eta_det=0.0, eta_t=0.5)
    with pytest.raises(ValueError):
        ChannelScenario(mu=0.1, eta_det=0.2, eta_t=1.5)
    scen = ChannelScenario.from_loss_db(0.1, 0.2, 3.0)
    assert loss_db_from_eta_t(scen.eta_t) == pytest.approx(3.0, abs=1e-12)


def test_nan_mean_photon_number_is_rejected_at_every_entry_point():
    # NaN fails every comparison, so a check written as mu <= 0 let it through
    for build in (lambda: ChannelScenario(math.nan, 0.2, 0.5),
                  lambda: ChannelScenario.from_loss_db(math.nan, 0.2, 3.0),
                  lambda: eta_t_bounds(math.nan, 0.2)):
        with pytest.raises(ValueError, match="mean photon number must be positive, got nan"):
            build()


def test_scenario_is_an_immutable_named_record():
    scen = ChannelScenario(0.1, 0.2, 0.5)
    assert scen == ChannelScenario(mu=0.1, eta_det=0.2, eta_t=0.5)
    assert (scen.mu, scen.eta_det, scen.eta_t) == (0.1, 0.2, 0.5)
    assert repr(scen) == "ChannelScenario(mu=0.1, eta_det=0.2, eta_t=0.5)"
    # a named tuple: it unpacks and equals the plain tuple of its fields
    mu, eta_det, eta_t = scen
    assert scen == (mu, eta_det, eta_t) == (0.1, 0.2, 0.5)
    from_db = ChannelScenario.from_loss_db(0.1, 0.2, 10.0)
    assert type(from_db) is ChannelScenario and from_db.eta_t == eta_t_from_loss_db(10.0)
    assert loss_db_from_eta_t(scen.eta_t) == loss_db_from_eta_t(0.5)
    with pytest.raises(AttributeError):
        scen.mu = 0.2
    with pytest.raises(AttributeError):
        scen.loss = 1.0
    for fields, message in (
            ((0.0, 0.2, 0.5), "mean photon number must be positive, got 0.0"),
            ((0.1, 0.0, 0.5), "eta_det must lie in (0, 1], got 0.0"),
            ((0.1, 1.5, 0.5), "eta_det must lie in (0, 1], got 1.5"),
            ((0.1, 0.2, 0.0), "eta_t must lie in (0, 1], got 0.0"),
            ((0.1, 0.2, 1.5), "eta_t must lie in (0, 1], got 1.5")):
        with pytest.raises(ValueError) as excinfo:
            ChannelScenario(*fields)
        assert str(excinfo.value) == message
    with pytest.raises(ValueError, match="must be nonnegative"):
        ChannelScenario.from_loss_db(0.1, 0.2, -1.0)
    assert scen._replace(eta_t=0.25) == ChannelScenario(0.1, 0.2, 0.25)
    with pytest.raises(ValueError, match="mean photon number"):
        scen._replace(mu=0.0)
    with pytest.raises(ValueError, match="eta_t"):
        ChannelScenario._make((0.1, 0.2, 2.0))


def test_window_is_an_immutable_named_record():
    window = TransmissionWindow(0.1, 0.5)
    assert window == TransmissionWindow(eta_t_lower=0.1, eta_t_upper=0.5) == (0.1, 0.5)
    assert repr(window) == "TransmissionWindow(eta_t_lower=0.1, eta_t_upper=0.5)"
    assert not window.empty
    assert window.loss_db_lower == loss_db_from_eta_t(0.5)
    assert window.loss_db_upper == loss_db_from_eta_t(0.1)
    assert window.contains_eta_t(0.5) and window.contains_eta_t(0.2)
    assert not window.contains_eta_t(0.1) and not window.contains_eta_t(0.6)
    assert TransmissionWindow(1.0, 1.0).empty and TransmissionWindow(0.6, 0.5).empty
    with pytest.raises(AttributeError):
        window.eta_t_lower = 0.2
    with pytest.raises(AttributeError):
        window.empty = True
    assert type(eta_t_bounds(0.1, 0.2)) is TransmissionWindow


def test_db_conversions_roundtrip():
    for loss in (0.0, 0.17, 5.0, 13.2):
        assert loss_db_from_eta_t(eta_t_from_loss_db(loss)) == pytest.approx(loss, abs=1e-12)
    with pytest.raises(ValueError):
        loss_db_from_eta_t(0.0)
    with pytest.raises(ValueError):
        eta_t_from_loss_db(-1.0)


def test_p_arr_multi_ideal_detector():
    mu = 0.3
    expected = 1 - math.exp(-mu) * (1 + mu)
    assert p_arr_multi(mu, 1.0) == pytest.approx(expected, abs=1e-15)


def test_p_arr_multi_zero_efficiency():
    assert p_arr_multi(0.2, 0.0) == 0.0


@pytest.mark.parametrize("mu", [10.0, 30.0, 60.0, 300.0])
def test_p_arr_multi_sums_the_whole_series_for_bright_sources(mu):
    # sum_{n>=2} P(n, mu)(1 - eta_bar^(n-1)) in closed form
    eta = 0.2
    expected = 1 - math.exp(-mu) - (math.exp(-mu * eta) - math.exp(-mu)) / (1 - eta)
    assert p_arr_multi(mu, eta) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("mu", [710.0, 1e300, math.inf, math.nan])
def test_p_arr_multi_rejects_mu_whose_vacuum_probability_is_not_normal(mu):
    with pytest.raises(ValueError):
        p_arr_multi(mu, 0.2)


def test_p_exp_values():
    assert p_exp(0.0, 0.2, 0.5) == 0.0
    assert p_exp(0.1, 1.0, 1.0) == pytest.approx(1 - math.exp(-0.1), abs=1e-15)


def test_p_exp_monotone_in_each_argument():
    base = p_exp(0.1, 0.2, 0.5)
    assert p_exp(0.2, 0.2, 0.5) > base
    assert p_exp(0.1, 0.3, 0.5) > base
    assert p_exp(0.1, 0.2, 0.6) > base


def test_error_disturbance_ratio_sum_identity():
    mu, eta, eta_t = 0.1, 0.2, 0.3
    single = error_disturbance_ratio(ChannelScenario(mu, eta, eta_t)) * p_exp(mu, eta, eta_t)
    total = single + p_arr_multi(mu, eta)
    assert total == pytest.approx(p_exp(mu, eta, eta_t), abs=1e-15)


def test_error_disturbance_ratio_inside_and_outside_window():
    assert error_disturbance_ratio(ChannelScenario.from_loss_db(0.1, 0.2, 5.0)) > 0.0
    with pytest.raises(InvalidRegimeError):
        error_disturbance_ratio(ChannelScenario.from_loss_db(0.1, 0.2, 14.0))


def test_observed_error_zero_disturbance():
    scen = ChannelScenario.from_loss_db(0.1, 0.2, 5.0)
    assert observed_error_from_disturbance(scen, 0.0) == 0.0


def test_observed_error_single_photon_limit():
    scen = ChannelScenario(mu=1e-9, eta_det=0.2, eta_t=0.9)
    e = observed_error_from_disturbance(scen, 0.3)
    assert e == pytest.approx(0.3, rel=1e-6)


def test_error_ratio_decreases_with_loss():
    ratios = [error_disturbance_ratio(ChannelScenario.from_loss_db(0.1, 0.2, loss))
              for loss in np.linspace(1.0, 12.0, 12)]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))


def test_observed_error_never_exceeds_disturbance():
    scen = ChannelScenario.from_loss_db(0.1, 0.2, 8.0)
    for d in np.linspace(0.0, 0.5, 11):
        assert observed_error_from_disturbance(scen, float(d)) <= d


def test_error_ratio_independent_of_disturbance():
    scen = ChannelScenario.from_loss_db(0.1, 0.2, 6.0)
    r = error_disturbance_ratio(scen)
    for d in (0.1, 0.2, 0.4):
        assert observed_error_from_disturbance(scen, d) == pytest.approx(r * d, abs=1e-15)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_closed_form_matches_composition(seed):
    rng = np.random.default_rng(seed)
    mu = rng.uniform(0.02, 0.8)
    eta = rng.uniform(0.05, 0.95)
    window = eta_t_bounds(mu, eta)
    if window.empty:
        return
    lo, hi = window.loss_db_lower, window.loss_db_upper
    margin = 0.01 * (hi - lo)
    scen = ChannelScenario.from_loss_db(mu, eta, rng.uniform(lo + margin, hi - margin))
    d = rng.uniform(0.001, 0.5)
    composed = observed_error_from_disturbance(scen, d)
    closed = observed_error_closed_form(scen, d)
    assert abs(closed - composed) <= 1e-12 * composed


def _decimal_error_ratio(mu: float, eta: float, eta_t: float) -> float:
    """P_single / P_expected from the photon-number series at 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        m, e, t = Decimal(mu), Decimal(eta), Decimal(eta_t)
        p_exp = 1 - (-(m * e * t)).exp()
        p_n = (-m).exp()
        p_multi = Decimal(0)
        for n in range(1, 61):
            p_n = p_n * m / n
            if n >= 2:
                p_multi += p_n * (1 - (1 - e) ** (n - 1))
        return float((p_exp - p_multi) / p_exp)


def test_closed_form_matches_a_decimal_series_reference():
    # near the lower window edge (eta_t 0.0676), where P_single is a small
    # difference of the click rates
    scen = ChannelScenario(mu=0.142, eta_det=0.0518, eta_t=0.0701)
    reference = _decimal_error_ratio(scen.mu, scen.eta_det, scen.eta_t)
    closed = observed_error_closed_form(scen, 0.5) / 0.5
    assert abs(closed - reference) <= 2e-13 * reference


@pytest.mark.parametrize("seed", [25, 45])
def test_error_map_identity_suite_passes_where_round_off_used_to_fail(seed):
    suite = verification._suite_error_map_identity(seed)
    assert suite.passed, suite.checks


def test_closed_form_at_unit_efficiency():
    scen = ChannelScenario(mu=0.1, eta_det=1.0, eta_t=0.99)
    assert observed_error_closed_form(scen, 0.2) == pytest.approx(
        observed_error_from_disturbance(scen, 0.2), rel=1e-12)


def test_closed_form_takes_its_own_limit_at_unit_efficiency(monkeypatch):
    # the closed form must not fall back on the series form it is checked against
    def refuse(*args):
        raise AssertionError("series form called")

    monkeypatch.setattr(channel, "observed_error_from_disturbance", refuse)
    monkeypatch.setattr(channel, "error_disturbance_ratio", refuse)
    for mu in (0.1, 0.142, 0.5, 2.0):
        eta_t = 1.05 * eta_t_bounds(mu, 1.0).eta_t_lower
        reference = _decimal_error_ratio(mu, 1.0, eta_t)
        closed = observed_error_closed_form(ChannelScenario(mu=mu, eta_det=1.0, eta_t=eta_t), 0.5) / 0.5
        assert abs(closed - reference) <= 1e-13 * reference, mu


def test_disturbance_for_error_roundtrip():
    scen = ChannelScenario.from_loss_db(0.1, 0.2, 9.0)
    for d in (0.0, 0.05, 0.3, 0.5):
        e = observed_error_from_disturbance(scen, d)
        assert disturbance_for_error(scen, e) == pytest.approx(d, abs=1e-12)


_SCEN = ChannelScenario(0.1, 0.2, 0.5)


@pytest.mark.parametrize("call, message", [
    (lambda: p_arr_multi(0.1, 1.5), "eta_det must lie in [0, 1], got 1.5"),
    (lambda: p_exp(0.1, 0.2, 1.5), "efficiencies must lie in [0, 1]"),
    (lambda: observed_error_from_disturbance(_SCEN, 0.6), "disturbance must lie in [0, 1/2], got 0.6"),
    (lambda: observed_error_closed_form(_SCEN, -0.1), "disturbance must lie in [0, 1/2], got -0.1"),
    (lambda: channel.gain_band("C", 0.2), "strategy must be 'A' or 'B', got 'C'"),
], ids=["p_arr_multi", "p_exp", "observed_error", "closed_form", "gain_band"])
def test_input_checks_raise_their_exact_messages(call, message):
    with pytest.raises(ValueError) as raised:
        call()
    assert (type(raised.value), str(raised.value)) == (ValueError, message)


@pytest.mark.parametrize("eta", [0.1, 0.2, 0.5])
@pytest.mark.parametrize("mu", [0.1, 0.2, 0.5, 1.0])
def test_no_single_photon_signal_reaches_the_receiver_at_the_lower_window_edge(mu, eta):
    # there the expected click rate is the split pulses' alone, so e/D is exactly 0
    scen = ChannelScenario(mu, eta, eta_t_bounds(mu, eta).eta_t_lower)
    assert error_disturbance_ratio(scen) == 0.0
    with pytest.raises(InvalidRegimeError) as raised:
        disturbance_for_error(scen, 0.01)
    assert (type(raised.value), str(raised.value)) == (
        InvalidRegimeError, "no single-photon signals reach the receiver in this scenario")


def test_disturbance_for_error_edge_cases():
    scen = ChannelScenario.from_loss_db(0.1, 0.2, 9.0)
    assert disturbance_for_error(scen, 0.0) == 0.0
    with pytest.raises(ValueError):
        disturbance_for_error(scen, -0.01)
    with pytest.raises(InvalidRegimeError):
        disturbance_for_error(scen, 0.9)
    # the expected click rate underflows to zero: e/D is undefined
    with pytest.raises(InvalidRegimeError):
        disturbance_for_error(ChannelScenario(mu=1e-200, eta_det=1.0, eta_t=1e-200), 0.01)


def test_disturbance_grows_with_loss_at_fixed_error():
    ds = [disturbance_for_error(ChannelScenario.from_loss_db(0.1, 0.2, loss), 0.01)
          for loss in np.linspace(1.0, 13.0, 25)]
    assert all(b > a for a, b in zip(ds, ds[1:]))


def test_window_matches_published_numbers():
    window = eta_t_bounds(0.1, 0.2)
    assert not window.empty
    assert window.loss_db_lower == pytest.approx(0.17, abs=0.05)
    assert window.loss_db_upper == pytest.approx(13.2, abs=0.05)


def test_window_endpoints_satisfy_defining_equalities():
    mu, eta = 0.1, 0.2
    window = eta_t_bounds(mu, eta)
    p_multi = p_arr_multi(mu, eta)
    p1 = eta * mu * math.exp(-mu)
    assert p_exp(mu, eta, window.eta_t_upper) == pytest.approx(p1 + p_multi, abs=1e-10)
    assert p_exp(mu, eta, window.eta_t_lower) == pytest.approx(p_multi, abs=1e-10)


def test_window_at_unit_efficiency():
    window = eta_t_bounds(0.1, 1.0)
    assert window.eta_t_upper == pytest.approx(1.0, abs=1e-12)
    assert 0.0 < window.eta_t_lower < 1.0
    assert not window.empty


def test_window_rejects_an_underflowing_click_rate():
    with pytest.raises(ValueError):
        eta_t_bounds(1e-200, 1e-200)


def test_window_narrows_for_bright_source():
    # forwarding a split pulse always costs some click probability, so the
    # window never fully closes, but it collapses to a sliver at high mu
    window = eta_t_bounds(20.0, 0.2)
    assert not window.empty
    assert window.eta_t_upper - window.eta_t_lower < 1e-6


@pytest.mark.parametrize("mu", [100.0, 150.0, 500.0, 700.0])
def test_window_lower_edge_of_a_bright_source_matches_a_decimal_closed_form(mu):
    # 1 - P_multi = e^-mu + (e^(-mu eta) - e^-mu) / (1 - eta), at 50 digits;
    # the float P_multi is next to 1 here and has lost those digits
    eta = 0.2
    with localcontext() as ctx:
        ctx.prec = 50
        m, e = Decimal(mu), Decimal(eta)
        undetected = (-m).exp() + ((-m * e).exp() - (-m).exp()) / (1 - e)
        reference = float(-undetected.ln() / (m * e))
    lower = eta_t_bounds(mu, eta).eta_t_lower
    assert abs(lower - reference) <= 1e-12 * reference


def test_window_lower_edge_stays_below_one_and_an_empty_window_has_equal_edges():
    # P_multi is below the click rate at eta_t = 1 term by term, by about P(1) eta_det,
    # so the lower edge needs no clamp to 1; it comes closest near 1 - 1/mu at mu 708
    lowers = [eta_t_bounds(mu, eta).eta_t_lower for mu in np.geomspace(1e-6, 708.0, 61).tolist()
              for eta in np.geomspace(1e-9, 1.0, 61).tolist()]
    assert max(lowers) < 0.999
    window = eta_t_bounds(700.0, 1e-9)
    assert window.empty
    assert window.eta_t_lower == window.eta_t_upper < 1.0


def test_verify_suites_sample_from_windows_at_least_3_db_wide(monkeypatch):
    # _suite_disturbance_maps draws (mu, eta) from the first box, 50 times, and
    # _suite_error_map_identity from the second, 1000 times; neither skips an empty window,
    # as none is near empty there (the narrowest measured are 5.97 and 3.95 dB wide)
    boxes = [((0.05, 0.5), (0.1, 0.9)), ((0.02, 0.8), (0.05, 0.95))]
    asked = []
    monkeypatch.setattr(channel, "eta_t_bounds",
                        lambda mu, eta: asked.append((mu, eta)) or eta_t_bounds(mu, eta))
    verification.run_verification(n_pulses=1000)
    assert len(asked) == 1050
    assert all(0.02 <= mu <= 0.8 and 0.05 <= eta <= 0.95 for mu, eta in asked)
    for (mu_lo, mu_hi), (eta_lo, eta_hi) in boxes:
        for mu in np.linspace(mu_lo, mu_hi, 41).tolist():
            for eta in np.linspace(eta_lo, eta_hi, 41).tolist():
                window = eta_t_bounds(mu, eta)
                assert not window.empty and window.loss_db_upper - window.loss_db_lower >= 3.0, (mu, eta)


def test_scan_grid_is_bit_equal_to_numpy_arange():
    rng = np.random.default_rng(20240901)
    for lo, width in zip(rng.uniform(0.0, 20.0, 20_000), rng.uniform(1e-6, 15.0, 20_000)):
        lo, hi = float(lo), float(lo + width)
        expected = np.append(np.arange(lo, hi, channel._SCAN_DB_STEP), hi).tolist()
        assert channel._scan_grid(lo, hi) == expected, (lo, hi)


def test_crossover_published_number():
    result = crossover_loss_best(0.1, 0.2, 0.01)
    assert result["best_strategy"] == "B"
    assert result["best"] == pytest.approx(12.5, abs=0.3)
    assert result["A"] == pytest.approx(12.7, abs=0.3)


def test_crossover_zero_error_strategy_a():
    assert crossover_loss_best(0.1, 0.2, 0.0)["A"] is None


def test_crossover_large_error_wins_from_lower_edge():
    window = eta_t_bounds(0.1, 0.2)
    loss = crossover_loss_best(0.1, 0.2, 0.1)["B"]
    assert loss == pytest.approx(window.loss_db_lower, abs=1e-9)


def test_crossover_unattainable_error_raises():
    # e so large that the required disturbance exceeds 1/2 at every loss
    with pytest.raises(InvalidRegimeError):
        crossover_loss_best(0.1, 0.2, 0.49)


@pytest.mark.parametrize("call, message", [
    (lambda: eta_t_from_loss_db(math.nan), "loss must be nonnegative, got nan dB"),
    (lambda: p_arr_multi(math.nan, 0.2), "mean photon number must be nonnegative, got nan"),
    (lambda: p_exp(math.nan, 0.2, 0.5), "mean photon number must be nonnegative, got nan"),
    (lambda: disturbance_for_error(ChannelScenario(0.1, 0.2, 0.5), math.nan),
     "observed error rate must be nonnegative, got nan"),
    (lambda: crossover_loss_best(0.1, 0.2, math.nan),
     "observed error rate must be nonnegative, got nan"),
], ids=["eta_t_from_loss_db", "p_arr_multi", "p_exp", "disturbance_for_error", "crossover_loss_best"])
def test_nan_is_rejected_by_the_channel_domain_checks(call, message):
    # NaN fails every comparison, so a check written as x < 0 let it through
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == message


def _seeded_crossover_scenarios():
    """(mu, eta_det, e): fixed edge cases, then 400 seeded scenarios.

    The fixed ones are the reference, e = 0, a win at the lower edge, an
    unattainable e, an empty window, a window narrower than the 2e-9 dB that
    the scan trims off (hi <= lo), a window of two grid points, the
    small-eta_det scenario and eta_det near 0.01 and near 1.  The seeded ones
    include empty windows and unattainable errors; the second half draws
    eta_det near 0.01 or near 1.
    """
    cases = [(0.1, 0.2, 0.01), (0.1, 0.2, 0.0), (0.1, 0.2, 0.1), (0.1, 0.2, 0.49),
             (60.0, 0.2, 0.01), (40.0, 0.2, 0.01), (5.0, 0.2, 0.001), (0.142, 0.052, 0.01),
             (0.1, 0.01, 0.01), (0.1, 0.0100001, 0.02), (0.1, 0.99, 0.1), (0.1, 0.999, 0.12),
             (0.1, 0.9999999, 0.12), (0.1, 1.0, 0.01)]
    rng = random.Random(20240901)
    for _ in range(200):
        cases.append((rng.uniform(0.01, 3.0), rng.uniform(0.01, 1.0), rng.uniform(0.0, 0.2)))
    for _ in range(200):
        eta = rng.choice((rng.uniform(0.01, 0.011), rng.uniform(0.99, 1.0)))
        cases.append((rng.uniform(0.01, 3.0), eta, rng.uniform(0.0, 0.2)))
    return cases


def _reference_scan(mu, eta_det, observed_error):
    """The full 0.05 dB loss scan that crossover_loss_best answers without running.

    Returns the window, the grid (empty when hi <= lo), each grid point's
    (disturbance, PNS information) or None, the gain function of a strategy
    over a list of points and the point at a loss.  Raises as
    crossover_loss_best does.
    """
    if not observed_error >= 0.0:
        raise ValueError(f"observed error rate must be nonnegative, got {observed_error}")
    window = channel.eta_t_bounds(mu, eta_det)
    if window.empty:
        raise channel.InvalidRegimeError(
            f"transmission window is empty for mu={mu}, eta_det={eta_det}")

    def point_at(loss_db):
        scen = channel.ChannelScenario.from_loss_db(mu, eta_det, loss_db)
        try:
            d = channel.disturbance_for_error(scen, observed_error)
        except channel.InvalidRegimeError:
            return None
        return d, attacks.pns_information_matched(eta_det, d)

    def gains(strategy, points):
        infos = iter(attacks.cloning_information(strategy, [p[0] for p in points if p]))
        return [info - p[1] if p and (info := next(infos)) is not None else -math.inf
                for p in points]

    lo, hi = window.loss_db_lower + 1e-9, window.loss_db_upper - 1e-9
    grid = channel._scan_grid(lo, hi) if hi > lo else []
    points = [point_at(loss) for loss in grid]
    if grid and not any(points):
        raise channel.InvalidRegimeError(
            f"observed error {observed_error} requires a disturbance above 1/2 "
            f"everywhere inside the transmission window")
    return window, grid, points, gains, point_at


def _reference_crossover_loss_best(mu, eta_det, observed_error):
    """crossover_loss_best as the full scan computes it: the first grid point that gains,
    refined by bisection against the point before it."""
    window, grid, points, gains, point_at = _reference_scan(mu, eta_det, observed_error)

    def crossover(strategy):
        scan = gains(strategy, points)
        first = next((i for i, g in enumerate(scan) if g > 0.0), None)
        if first is None:
            return None
        if first == 0:
            return float(window.loss_db_lower)
        if not math.isfinite(scan[first - 1]):
            return float(grid[first])
        ends = {grid[first - 1]: scan[first - 1], grid[first]: scan[first]}
        return float(attacks.bisect(
            lambda x: ends[x] if x in ends else gains(strategy, [point_at(x)])[0],
            grid[first - 1], grid[first], xtol=channel.CROSSOVER_DB_TOL / 5.0))

    out = {"A": crossover("A"), "B": crossover("B")}
    out["best"], out["best_strategy"] = min(
        ((loss, s) for s, loss in out.items() if loss is not None), default=(None, None))
    return out


def _crossover_outcome(case, crossover=crossover_loss_best):
    try:
        return crossover(*case)
    except ValueError as exc:
        return exc


def _described(outcome) -> str:
    """repr of a result, or the type and message of what was raised."""
    return f"{type(outcome).__name__}: {outcome}" if isinstance(outcome, ValueError) else repr(outcome)


def test_crossover_without_numpy_is_bit_equal_to_the_array_path():
    # crossover_loss_best gives the results of the reference scan, exceptions included,
    # in this process and in a fresh interpreter that never loads numpy.
    # The reference scan runs here, where it inverts its angles in one array call.
    cases = _seeded_crossover_scenarios()
    assert len(cases) >= 400
    probe = ("import sys\nfrom qel.channel import crossover_loss_best\n"
             f"{inspect.getsource(_described)}\nfor case in {cases!r}:\n"
             "    try:\n"
             "        best = crossover_loss_best(*case)\n"
             "    except ValueError as exc:\n"
             "        best = exc\n"
             "    print(_described(best))\n"
             "print('numpy' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    child = subprocess.Popen([sys.executable, "-c", probe], stdout=subprocess.PIPE, text=True,
                             env=env)
    outcomes = [_crossover_outcome(case) for case in cases]
    described = [_described(o) for o in outcomes]
    expected = [_described(_crossover_outcome(case, _reference_crossover_loss_best)) for case in cases]
    out, _ = child.communicate(timeout=120)
    assert child.returncode == 0
    *float_path, numpy_loaded = out.splitlines()
    assert numpy_loaded == "False" and "numpy" in sys.modules
    assert next(((c, d, e) for c, d, e in zip(cases, described, expected) if d != e), None) is None
    assert len(float_path) == len(expected)
    assert next(((c, f, e) for c, f, e in zip(cases, float_path, expected) if f != e), None) is None
    reference, zero, lower_edge, unattainable = outcomes[:4]
    assert reference["best_strategy"] == "B" and reference["A"] == pytest.approx(12.69, abs=0.01)
    assert zero == {"A": None, "B": None, "best": None, "best_strategy": None}
    assert lower_edge["B"] == eta_t_bounds(0.1, 0.2).loss_db_lower
    assert isinstance(unattainable, InvalidRegimeError)
    assert sum(isinstance(o, InvalidRegimeError) for o in outcomes) >= 10
    assert sum(isinstance(o, dict) and o["best_strategy"] == "B" for o in outcomes) >= 30
    assert sum(isinstance(o, dict) and o["best_strategy"] == "A" for o in outcomes) >= 10


_BAND_ETAS = sorted({0.01, 0.052, 0.9, 0.95, 0.99, 0.999, 0.9999999, 1.0,
                     *(round(0.025 * k, 3) for k in range(1, 41))})


def _gain_samples(strategy, eta_det, n=400):
    """(disturbance, gain) at n + 1 evenly spaced points of D in [0, 1/4] for A, of gamma in
    [0, pi/2] for B."""
    if strategy == "A":
        return [(d, attacks.strategy_a_information(d) - attacks.pns_information_matched(eta_det, d))
                for d in (0.25 * i / n for i in range(n + 1))]
    samples = []
    for gamma in (math.pi / 2 * i / n for i in range(n + 1)):
        d = attacks.strategy_b_disturbance(gamma)
        samples.append((d, attacks.strategy_b_information(gamma)
                        - attacks.pns_information_matched(eta_det, d)))
    return samples


@pytest.mark.parametrize("strategy", ["A", "B"])
def test_each_cloning_gain_is_positive_on_at_most_one_band(strategy):
    # G_s(D) = I_s(D) - I_PNS(eta_det, D) rises to one maximum and falls, so it changes sign
    # at most twice; gain_band holds every sample that gains and nothing far from its edges
    for eta in _BAND_ETAS:
        samples = _gain_samples(strategy, eta)
        gains = [g for _, g in samples]
        rises = [after > before for before, after in zip(gains, gains[1:])]
        assert rises == sorted(rises, reverse=True), eta
        assert sum((a > 0.0) != (b > 0.0) for a, b in zip(gains, gains[1:])) <= 2, eta
        band = channel.gain_band(strategy, eta)
        if band is None:
            assert max(gains) <= 0.0, eta
            continue
        entry, exit_ = band
        for d, g in samples:
            if g > 0.0:
                assert entry <= d <= exit_, (eta, d)
            if entry + 1e-5 < d < exit_ - 1e-5:
                assert g > 0.0, (eta, d)
    # at the reference detector both bands are open; ideal detectors close them
    assert channel.gain_band("A", 0.2) == pytest.approx((0.0927, 0.2131), abs=1e-4)
    assert channel.gain_band("B", 0.2) == pytest.approx((0.0544, 0.1604), abs=1e-4)
    assert channel.gain_band("B", 0.9) is None and channel.gain_band("B", 1.0) is None
    # with ideal detectors A's gain touches 0 at D = 1/6 and is negative elsewhere; the band
    # keeps that sliver, where round-off might tip the gain above 0
    entry, exit_ = channel.gain_band("A", 1.0)
    assert entry < 1.0 / 6.0 < exit_ and exit_ - entry < 1e-4


def test_band_edges_lie_within_xtol_of_the_sign_change_after_a_few_gain_evaluations(monkeypatch):
    # Each band edge is an ITP root of the slack gain, within _BAND_XTOL of a 1e-13 bisection
    # of the same function and never slower than bisection by more than one step.
    real_root, edges = attacks._itp_root, []

    def root(f, a, b, xtol):
        xs = []

        def counted(x):
            xs.append(x)
            return f(x)
        edge = real_root(counted, a, b, xtol)
        n_max = math.ceil(math.log2((b - a) / (2.0 * xtol))) + 1
        edges.append((strategy, eta, edge, attacks.bisect(f, a, b, xtol=1e-13), len(xs), n_max))
        return edge

    monkeypatch.setattr(attacks, "_itp_root", root)
    for strategy in ("A", "B"):
        for eta in _BAND_ETAS:
            before = len(edges)
            band = channel.gain_band(strategy, eta)
            assert len(edges) - before == (0 if band is None else 2), (strategy, eta)
    searched = {(s, eta) for s, eta, *_ in edges}
    assert ("A", 1.0) in searched  # A's sliver around D = 1/6
    assert ("B", 0.9) not in searched and ("B", 1.0) not in searched
    for strategy, eta, edge, fine, evaluations, n_max in edges:
        assert abs(edge - fine) <= channel._BAND_XTOL, (strategy, eta)
        assert evaluations <= n_max + 2, (strategy, eta)
    assert statistics.mean(e[4] for e in edges) <= 10.0


def test_the_scan_first_gains_at_the_first_grid_point_past_the_band_entry():
    # The scan limit stated exactly: D(loss) never falls across the window, the scan's gains
    # are positive on one run of grid points, and that run starts at the first grid point at
    # or past the band entry (one later where that point sits within 1e-5 of the entry).
    # A band that falls between two grid points is missed.
    for case in _seeded_crossover_scenarios()[:200]:
        try:
            _, grid, points, gains, _ = _reference_scan(*case)
        except ValueError:
            continue
        ds = [math.inf if p is None else p[0] for p in points]
        assert ds == sorted(ds), case
        for strategy in ("A", "B"):
            gaining = [i for i, g in enumerate(gains(strategy, points)) if g > 0.0]
            assert not gaining or gaining == list(range(gaining[0], gaining[-1] + 1)), case
            band = channel.gain_band(strategy, case[1])
            if band is None:
                assert not gaining, case
                continue
            entry, exit_ = band
            past_entry = bisect.bisect_left(ds, entry)
            if not gaining:
                assert not any(entry + 1e-5 < d < exit_ - 1e-5 for d in ds), case
            elif gaining[0] != past_entry:
                assert gaining[0] == past_entry + 1 and ds[past_entry] < entry + 1e-5, case


@pytest.mark.parametrize("misplace", ["entry_mid_band", "entry_far_below"])
def test_crossover_steps_from_a_misplaced_band_entry_to_the_scan_result(monkeypatch, misplace):
    # The band edges only decide where to look: from an entry inside the band the search
    # steps down while the point before also gains, and from one far below it steps up,
    # locating the band exit on demand.  The misplaced entry replaces the one the search uses.
    real_search = channel._band_search
    searched, exits = [], []

    def band_search(strategy, eta_det):
        band = real_search(strategy, eta_det)
        if band is None:
            return None
        searched.append(strategy)
        entry, band_exit = band
        if misplace == "entry_mid_band":
            return (entry + band_exit()) / 2.0, band_exit

        def counted_exit():
            exits.append(strategy)
            return band_exit()
        return entry / 2.0, counted_exit

    monkeypatch.setattr(channel, "_band_search", band_search)
    cases = [c for c in _seeded_crossover_scenarios()[:60] if c[2] > 0.0]
    for case in cases:
        assert repr(_crossover_outcome(case)) == repr(
            _crossover_outcome(case, _reference_crossover_loss_best)), case
    assert {"A", "B"} <= set(searched)
    if misplace == "entry_far_below":
        assert {"A", "B"} <= set(exits)


def test_crossover_best_evaluates_a_few_grid_points_and_inverts_no_angle_array(monkeypatch):
    # The band search needs no angle inversion; only the gains at the few grid points near
    # each band entry, and at the refining midpoints, invert one float angle each.
    inversions, counts, bisections = [], {"disturbance": 0, "scan": 0, "refine": 0}, {}
    real_gamma, real_disturbance = attacks.gamma_for_disturbance, channel.disturbance_for_error
    real_grid, real_bisect, real_root = channel._scan_grid, attacks.bisect, attacks._itp_root
    band_edges = []

    def gamma(d):
        inversions.append("array" if isinstance(d, np.ndarray) else "float")
        return real_gamma(d)

    def disturbance(scenario, error):
        counts["disturbance"] += 1
        return real_disturbance(scenario, error)

    def scan_grid(lo, hi):
        grid = real_grid(lo, hi)
        counts["scan"] += len(grid)
        return grid

    def bisect_(f, lo, hi, xtol):
        bisections[xtol] = bisections.get(xtol, 0) + 1

        def midpoint(x):
            counts["refine"] += x not in (lo, hi)
            return f(x)
        return real_bisect(midpoint, lo, hi, xtol)

    def band_edge(f, a, b, xtol):
        band_edges.append(xtol)
        return real_root(f, a, b, xtol)

    monkeypatch.setattr(attacks, "gamma_for_disturbance", gamma)
    monkeypatch.setattr(channel, "disturbance_for_error", disturbance)
    monkeypatch.setattr(channel, "_scan_grid", scan_grid)
    monkeypatch.setattr(attacks, "bisect", bisect_)
    monkeypatch.setattr(attacks, "_itp_root", band_edge)
    result = crossover_loss_best(0.1, 0.2, 0.01)
    assert result["A"] == pytest.approx(12.69, abs=0.01)
    assert result["B"] == pytest.approx(12.30, abs=0.01)
    assert "array" not in inversions
    assert len(inversions) >= 3  # B's gains on both sides of its entry, then its refinement
    assert counts["scan"] > 200 and counts["refine"] >= 2
    assert counts["disturbance"] * 5 < counts["scan"]
    assert len(inversions) * 10 < counts["scan"]
    # one band-edge root find per strategy, its entry: both first points past the entries
    # gain, so neither band exit is located.  The only bisections are the two refinements;
    # the seven float angle inversions replay their bisection without calling bisect.
    assert band_edges == [channel._BAND_XTOL] * 2
    assert bisections == {channel.CROSSOVER_DB_TOL / 5.0: 2}
    assert inversions == ["float"] * 7


def test_crossover_misses_a_win_narrower_than_one_scan_step(monkeypatch):
    # The scan samples every 0.05 dB from just above the window's lower edge.
    # A strategy that wins only between two scan points is never seen.  The
    # fake strategy-A information reaches both the band search and the gains
    # at the grid points, and the reference scan agrees with both results.
    mu, eta, error = 0.1, 0.2, 0.01
    window = eta_t_bounds(mu, eta)
    scan_point = window.loss_db_lower + 1e-9 + 100 * channel._SCAN_DB_STEP

    def d_at(loss_db):
        return disturbance_for_error(ChannelScenario.from_loss_db(mu, eta, loss_db), error)

    def win_between(lo_db, hi_db):
        d_lo, d_hi = d_at(lo_db), d_at(hi_db)
        middle, half = (d_lo + d_hi) / 2.0, (d_hi - d_lo) / 2.0

        def info(d):
            # one band with its largest gain, 0.1, in the middle: positive on (d_lo, d_hi)
            return attacks.pns_information_matched(eta, d) + 0.1 * (1.0 - abs(d - middle) / half)
        return info

    monkeypatch.setattr(attacks, "strategy_a_information",
                        win_between(scan_point + 0.02, scan_point + 0.03))
    assert crossover_loss_best(mu, eta, error)["A"] is None
    assert _reference_crossover_loss_best(mu, eta, error)["A"] is None
    # the same band widened over the next scan point is found
    monkeypatch.setattr(attacks, "strategy_a_information",
                        win_between(scan_point + 0.02, scan_point + 0.06))
    loss = crossover_loss_best(mu, eta, error)["A"]
    assert scan_point + 0.02 - 0.01 <= loss <= scan_point + 0.02 + 0.01
    assert loss == _reference_crossover_loss_best(mu, eta, error)["A"]


@pytest.mark.parametrize("seed", [20240901, 25, 45, 0, 7])
def test_error_map_identity_suite_draws_the_scalar_uniforms(monkeypatch, seed):
    # The suite reads its uniforms from bulk draws; the scenarios, disturbances and the
    # reported delta are those of the loop of scalar rng.uniform draws.
    seen = []
    real_closed = channel.observed_error_closed_form

    def closed(scen, d):
        seen.append((scen, d))
        return real_closed(scen, d)

    monkeypatch.setattr(channel, "observed_error_closed_form", closed)
    suite = verification._suite_error_map_identity(seed)
    monkeypatch.undo()
    rng = np.random.default_rng(seed)
    expected, worst_rel = [], 0.0
    while len(expected) < 1000:
        mu, eta = rng.uniform(0.02, 0.8), rng.uniform(0.05, 0.95)
        window = eta_t_bounds(mu, eta)
        if window.empty:
            continue
        lo, hi = window.loss_db_lower, window.loss_db_upper
        margin = 0.01 * (hi - lo)
        scen = ChannelScenario.from_loss_db(mu, eta, rng.uniform(lo + margin, hi - margin))
        d = rng.uniform(0.001, 0.5)
        composed = observed_error_from_disturbance(scen, d)
        worst_rel = max(worst_rel, abs(observed_error_closed_form(scen, d) - composed) / composed)
        expected.append((scen, d))
    assert all(type(x) is float for scen, d in seen for x in (*scen, d))
    assert seen == expected
    assert suite.checks[0].delta == worst_rel


def test_crossover_best_reads_each_gain_once_and_the_pns_information_only_where_it_gains(monkeypatch):
    # The crossover's memo keys gains by loss: the PNS information is computed only where a
    # cloning information exists to compare with, and no (strategy, disturbance) is evaluated
    # twice, the refinement's grid ends included.  Calls made by the band search are not counted.
    real_search, real_pns, real_cloning = (channel._band_search, attacks.pns_information_matched,
                                           attacks.cloning_information)
    band_depth, pns_calls, cloned = [0], [0], []

    def in_band_search(fn, *args):
        band_depth[0] += 1
        try:
            return fn(*args)
        finally:
            band_depth[0] -= 1

    def band_search(strategy, eta_det):
        band = in_band_search(real_search, strategy, eta_det)
        if band is None:
            return None
        entry, band_exit = band
        return entry, lambda: in_band_search(band_exit)

    def pns(eta_det, d):
        pns_calls[0] += band_depth[0] == 0
        return real_pns(eta_det, d)

    def cloning(strategy, d):
        # each gain reads one float disturbance through the float form
        assert type(d) is float
        info = real_cloning(strategy, d)
        if band_depth[0] == 0 and info is not None:
            cloned.append((strategy, d))
        return info

    monkeypatch.setattr(channel, "_band_search", band_search)
    monkeypatch.setattr(attacks, "pns_information_matched", pns)
    monkeypatch.setattr(attacks, "cloning_information", cloning)
    result = crossover_loss_best(0.1, 0.2, 0.01)
    assert result["A"] == pytest.approx(12.69, abs=0.01)
    assert result["B"] == pytest.approx(12.30, abs=0.01)
    assert {s for s, _ in cloned} == {"A", "B"}
    assert pns_calls[0] == len(cloned)
    assert len(set(cloned)) == len(cloned)
