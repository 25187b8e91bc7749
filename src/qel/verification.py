"""Named verification suites comparing every closed form against the oracle.

Each check records its tolerance and the measured delta; a delta may be a
signed margin (negative when passing) for threshold-style checks.  The
report serializes to the qel/1 JSON schema emitted by the command line.
"""
from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from . import VERIFY_PULSES, VERIFY_SEED, _checked_record, attacks, channel, oracle
from .infotheory import TwoStateEnsemble, levitin_information


class CheckResult(_checked_record("CheckResult", "name tolerance delta")):
    """One named check; tolerance and delta are converted to float."""

    __slots__ = ()

    def __new__(cls, name: str, tolerance: float, delta: float):
        return super().__new__(cls, name, float(tolerance), float(delta))

    @property
    def passed(self) -> bool:
        return math.isfinite(self.delta) and self.delta <= self.tolerance


class SuiteResult(namedtuple("SuiteResult", "name checks")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


class VerificationReport(namedtuple("VerificationReport", "seed n_pulses suites")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.suites)

    def failing_checks(self) -> list[str]:
        return [f"{s.name}/{c.name}" for s in self.suites for c in s.checks if not c.passed]

    def to_dict(self) -> dict:
        return {
            "kind": "verification_report",
            "seed": self.seed,
            "n_pulses": self.n_pulses,
            "passed": self.passed,
            "suites": [
                {
                    "name": s.name,
                    "passed": s.passed,
                    "checks": [{**c._asdict(), "passed": c.passed} for c in s.checks],
                }
                for s in self.suites
            ],
        }


_BETA_GRID = np.linspace(0.02, 0.35, 12)
_GAMMA_GRID = np.linspace(0.0, math.pi, 50)


def _worst(reports, key: str) -> float:
    """Largest value of one named delta over a list of simulation reports."""
    return max(rep.deltas[key] for rep in reports)


def _suite_isometry(reports_a, reports_b) -> SuiteResult:
    return SuiteResult("isometry", (
        CheckResult("universal_cloner_norm_preservation", 1e-12, _worst(reports_a, "isometry_defect")),
        CheckResult("universal_cloner_symmetric_output", 1e-12, _worst(reports_a, "bob_singlet_weight")),
        CheckResult("phase_covariant_norm_preservation", 1e-12, _worst(reports_b, "isometry_defect")),
        CheckResult("phase_covariant_symmetric_output", 1e-12, _worst(reports_b, "bob_singlet_weight")),
    ))


def _suite_probe_a(reports_a) -> SuiteResult:
    return SuiteResult("probe_a", (
        CheckResult("probe_states_vs_closed_form", 1e-9, _worst(reports_a, "probe_vs_closed_form")),
        CheckResult("probe_overlap_vs_closed_form", 1e-9, _worst(reports_a, "overlap_vs_closed_form")),
        CheckResult("product_block_weight_vs_2d", 1e-9, _worst(reports_a, "product_block_weight_vs_2d")),
        CheckResult("information_vs_measurement_search", 1e-6,
                    _worst(reports_a, "information_vs_measurement_search")),
        CheckResult("signal_independence_of_error_rate", 1e-10, _worst(reports_a, "error_rate_spread")),
    ))


def _suite_probe_b_coefficients(reports_b) -> SuiteResult:
    trace_dev = max(abs(a + c + d + f - 16.0) for a, _, c, d, _, f
                    in map(attacks.strategy_b_coefficients, _GAMMA_GRID.tolist()))
    return SuiteResult("probe_b_coefficients", (
        CheckResult("probe_entries_vs_coefficients", 1e-9, _worst(reports_b, "coefficients_vs_closed_form")),
        CheckResult("plus_minus_exchange_symmetry", 1e-12, _worst(reports_b, "probe_exchange_symmetry")),
        CheckResult("coefficient_trace_identity", 1e-9, trace_dev),
    ))


def _suite_disturbance_maps(seed: int, reports_a, reports_b) -> SuiteResult:
    d_b = _worst(reports_b, "disturbance_vs_closed_form")
    # strategy A calibration roundtrip: beta -> disturbance measured from the machine -> beta
    d_a = max(abs(attacks.clone_a_params_for_disturbance(rep.disturbance) - beta)
              for beta, rep in zip(_BETA_GRID.tolist(), reports_a))
    # strategy B curve inversion roundtrip
    d_inv = 0.0
    for d_target in np.linspace(0.0, attacks.STRATEGY_B_MAX_DISTURBANCE, 21):
        gamma = attacks.gamma_for_disturbance(float(d_target))
        d_inv = max(d_inv, abs(attacks.strategy_b_disturbance(gamma) - d_target))
    # observed error roundtrip on a mid-window scenario; each row of doubles is one scenario,
    # scaled by Generator.uniform's own formula a + (b - a) u, so the scalar draws' scenarios
    d_chan = 0.0
    for u_mu, u_eta, u_loss, u_d in np.random.default_rng(seed).random((50, 4)).tolist():
        mu = 0.05 + (0.5 - 0.05) * u_mu
        eta = 0.1 + (0.9 - 0.1) * u_eta
        window = channel.eta_t_bounds(mu, eta)
        lo, hi = window.loss_db_lower + 0.05, window.loss_db_upper - 0.05
        scen = channel.ChannelScenario.from_loss_db(mu, eta, lo + (hi - lo) * u_loss)
        d0 = 0.5 * u_d
        e = channel.observed_error_from_disturbance(scen, d0)
        d_chan = max(d_chan, abs(channel.disturbance_for_error(scen, e) - d0))
    return SuiteResult("disturbance_maps", (
        CheckResult("strategy_b_disturbance_vs_simulation", 1e-9, d_b),
        CheckResult("strategy_a_calibration_roundtrip", 1e-9, d_a),
        CheckResult("strategy_b_inversion_roundtrip", 1e-10, d_inv),
        CheckResult("observed_error_roundtrip", 1e-12, d_chan),
    ))


def _gaussian_matrix(rng: np.random.Generator) -> np.ndarray:
    """Complex Gaussian 2x2 matrix, the random input of one Haar draw."""
    return rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))


def _haar_unitaries(z: np.ndarray) -> np.ndarray:
    """Haar-random 2x2 unitaries from a stack of complex Gaussian matrices: QR, phases fixed by R."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _equal_determinant_states(lam, z) -> tuple[np.ndarray, np.ndarray]:
    """Stacks of the pairs (U0 D U0^H, U1 D U1^H) with D = diag(lam, 1 - lam).

    lam lists n values and z the Gaussian inputs of the two Haar draws of
    each pair, shape (n, 2, 2, 2).
    """
    diag = np.zeros((len(lam), 2, 2), dtype=complex)
    diag[:, 0, 0], diag[:, 1, 1] = lam, 1.0 - np.asarray(lam)
    u = _haar_unitaries(np.asarray(z))
    return tuple(u[:, i] @ diag @ u[:, i].conj().swapaxes(-1, -2) for i in (0, 1))


def random_equal_determinant_ensemble(rng: np.random.Generator) -> TwoStateEnsemble:
    """Random pair of qubit states with equal spectra, hence equal determinants."""
    lam = rng.uniform(0.5, 1.0)
    z = [_gaussian_matrix(rng), _gaussian_matrix(rng)]
    return TwoStateEnsemble(*(rho[0] for rho in _equal_determinant_states([lam], [z])))


def _levitin_ensembles(seed: int) -> tuple[TwoStateEnsemble, TwoStateEnsemble]:
    """The levitin suite's 200 random pairs, and every 20th pair rotated by one more Haar draw.

    Both are stacked ensembles.  The draws keep the order of looping
    random_equal_determinant_ensemble, each rotation drawn right after its
    pair; the QR decompositions and the products run on stacks.
    """
    rng = np.random.default_rng(seed)
    lam, z, z_rot = [], [], []
    for i in range(200):
        lam.append(rng.uniform(0.5, 1.0))
        z.append([_gaussian_matrix(rng), _gaussian_matrix(rng)])
        if i % 20 == 0:
            z_rot.append(_gaussian_matrix(rng))
    ens = TwoStateEnsemble(*_equal_determinant_states(lam, z))
    u = _haar_unitaries(np.array(z_rot))
    return ens, TwoStateEnsemble(*(u @ rho[::20] @ u.conj().swapaxes(-1, -2) for rho in ens))


def _suite_levitin(seed: int) -> SuiteResult:
    ens, rotated = _levitin_ensembles(seed)
    closed = levitin_information(ens)
    worst = np.max(np.abs(closed - oracle.numeric_two_state_info_stack(ens.rho0, ens.rho1)))
    invariance = np.max(np.abs(levitin_information(rotated) - closed[::20]))
    return SuiteResult("levitin", (
        CheckResult("closed_form_vs_measurement_search", 1e-6, worst),
        CheckResult("unitary_invariance", 1e-12, invariance),
    ))


def _suite_double_click(seed: int, n_pulses: int) -> SuiteResult:
    scen = channel.ChannelScenario.from_loss_db(0.1, 0.2, 5.0)
    d = 0.1
    checks = []
    stats_pns = oracle.monte_carlo_protocol(scen, "PNS", d, n_pulses=n_pulses, seed=seed)
    checks.append(CheckResult("pns_matched_basis_double_clicks", 0.0,
                              float(stats_pns.double_clicks_matched)))
    checks.append(CheckResult("pns_any_double_clicks", 0.0,
                              float(stats_pns.double_clicks_matched
                                    + stats_pns.double_clicks_mismatched)))
    # one draw at seed + 1 serves both cloners
    for stats in oracle.monte_carlo_protocols(scen, ("CloneA", "CloneB"), d, n_pulses=n_pulses, seed=seed + 1):
        # signed margins: pass when the rate clears five standard errors
        margin_m = 5.0 * stats.double_matched_rate_se - stats.double_matched_rate
        margin_x = 5.0 * stats.double_mismatched_rate_se - stats.double_mismatched_rate
        checks.append(CheckResult(f"{stats.attack.lower()}_matched_double_rate_above_5_sigma", 0.0, margin_m))
        checks.append(CheckResult(f"{stats.attack.lower()}_mismatched_double_rate_above_5_sigma", 0.0, margin_x))
    dev = abs(stats_pns.raw_click_rate - stats_pns.expected_raw_click_rate)
    checks.append(CheckResult("pns_raw_click_rate_within_3_sigma", 0.0,
                              dev - 3.0 * stats_pns.raw_click_rate_se))
    return SuiteResult("double_click", tuple(checks))


def _suite_error_map_identity(seed: int) -> SuiteResult:
    # one row of doubles per scenario, scaled as in _suite_disturbance_maps
    worst_rel = 0.0
    for u_mu, u_eta, u_loss, u_d in np.random.default_rng(seed).random((1000, 4)).tolist():
        mu = 0.02 + (0.8 - 0.02) * u_mu
        eta = 0.05 + (0.95 - 0.05) * u_eta
        window = channel.eta_t_bounds(mu, eta)
        lo, hi = window.loss_db_lower, window.loss_db_upper
        margin = 0.01 * (hi - lo)
        lo, hi = lo + margin, hi - margin
        scen = channel.ChannelScenario.from_loss_db(mu, eta, lo + (hi - lo) * u_loss)
        d = 0.001 + (0.5 - 0.001) * u_d
        composed = channel.observed_error_from_disturbance(scen, d)
        closed = channel.observed_error_closed_form(scen, d)
        worst_rel = max(worst_rel, abs(closed - composed) / composed)
    return SuiteResult("error_map_identity", (
        CheckResult("closed_form_vs_composition_relative", 1e-12, worst_rel),
    ))


def run_verification(seed: int = VERIFY_SEED, n_pulses: int = VERIFY_PULSES) -> VerificationReport:
    """Run every verification suite and collect the deltas.

    Each cloner grid is simulated once, in one stacked pass, and every suite
    that reads its deltas shares the reports: strategy A's beta grid at
    eta_det 0.3 (the calibration roundtrip inverts each measured disturbance
    back to its beta) and strategy B's angle grid at eta_det 0.6.  The norm
    defect, the singlet weight and the probes do not depend on eta_det.
    """
    reports_a = oracle.simulate_strategy_a_grid(_BETA_GRID, eta_det=0.3, rng_seed=seed)
    reports_b = oracle.simulate_strategy_b_grid(_GAMMA_GRID, eta_det=0.6, rng_seed=seed)
    suites = (
        _suite_isometry(reports_a, reports_b),
        _suite_probe_a(reports_a),
        _suite_probe_b_coefficients(reports_b),
        _suite_disturbance_maps(seed, reports_a, reports_b),
        _suite_levitin(seed),
        _suite_double_click(seed, n_pulses),
        _suite_error_map_identity(seed),
    )
    return VerificationReport(seed=seed, n_pulses=n_pulses, suites=suites)
