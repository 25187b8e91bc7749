import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qel.channel import (ChannelScenario, InvalidRegimeError, crossover_loss,
                         crossover_loss_best, disturbance_for_error,
                         error_disturbance_ratio, eta_t_bounds, eta_t_from_loss_db,
                         loss_db_from_eta_t, observed_error_closed_form,
                         observed_error_from_disturbance, p_arr_multi, p_arr_single,
                         p_exp)


def test_scenario_validation():
    with pytest.raises(ValueError):
        ChannelScenario(mu=0.0, eta_det=0.2, eta_t=0.5)
    with pytest.raises(ValueError):
        ChannelScenario(mu=0.1, eta_det=0.0, eta_t=0.5)
    with pytest.raises(ValueError):
        ChannelScenario(mu=0.1, eta_det=0.2, eta_t=1.5)
    scen = ChannelScenario.from_loss_db(0.1, 0.2, 3.0)
    assert scen.loss_db == pytest.approx(3.0, abs=1e-12)


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


def test_p_arr_multi_truncation_stability():
    a = p_arr_multi(0.1, 0.2, cutoff=20)
    b = p_arr_multi(0.1, 0.2, cutoff=40)
    assert abs(a - b) <= 1e-15


def test_p_exp_values():
    assert p_exp(0.0, 0.2, 0.5) == 0.0
    assert p_exp(0.1, 1.0, 1.0) == pytest.approx(1 - math.exp(-0.1), abs=1e-15)


def test_p_exp_monotone_in_each_argument():
    base = p_exp(0.1, 0.2, 0.5)
    assert p_exp(0.2, 0.2, 0.5) > base
    assert p_exp(0.1, 0.3, 0.5) > base
    assert p_exp(0.1, 0.2, 0.6) > base


def test_p_arr_single_sum_identity():
    mu, eta, eta_t = 0.1, 0.2, 0.3
    total = p_arr_single(mu, eta, eta_t) + p_arr_multi(mu, eta)
    assert total == pytest.approx(p_exp(mu, eta, eta_t), abs=1e-15)


def test_p_arr_single_inside_and_outside_window():
    assert p_arr_single(0.1, 0.2, eta_t_from_loss_db(5.0)) > 0.0
    with pytest.raises(InvalidRegimeError):
        p_arr_single(0.1, 0.2, eta_t_from_loss_db(14.0))


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


def test_closed_form_at_unit_efficiency():
    scen = ChannelScenario(mu=0.1, eta_det=1.0, eta_t=0.99)
    assert observed_error_closed_form(scen, 0.2) == pytest.approx(
        observed_error_from_disturbance(scen, 0.2), rel=1e-12)


def test_disturbance_for_error_roundtrip():
    scen = ChannelScenario.from_loss_db(0.1, 0.2, 9.0)
    for d in (0.0, 0.05, 0.3, 0.5):
        e = observed_error_from_disturbance(scen, d)
        assert disturbance_for_error(scen, e) == pytest.approx(d, abs=1e-12)


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


def test_crossover_published_number():
    result = crossover_loss_best(0.1, 0.2, 0.01)
    assert result["best_strategy"] == "B"
    assert result["best"] == pytest.approx(12.5, abs=0.3)
    assert result["A"] == pytest.approx(12.7, abs=0.3)


def test_crossover_zero_error_strategy_a():
    assert crossover_loss(0.1, 0.2, 0.0, "A") is None


def test_crossover_large_error_wins_from_lower_edge():
    window = eta_t_bounds(0.1, 0.2)
    loss = crossover_loss(0.1, 0.2, 0.1, "B")
    assert loss == pytest.approx(window.loss_db_lower, abs=1e-9)


def test_crossover_unattainable_error_raises():
    # e so large that the required disturbance exceeds 1/2 at every loss
    with pytest.raises(InvalidRegimeError):
        crossover_loss(0.1, 0.2, 0.49, "B")


def test_crossover_rejects_unknown_strategy():
    with pytest.raises(ValueError):
        crossover_loss(0.1, 0.2, 0.01, "C")
