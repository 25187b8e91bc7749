"""Independent verification of the closed forms by explicit simulation.

Nothing in this module reuses a closed-form result it is checking: probe
states and disturbances are derived by building the cloning unitaries and
partial-tracing, accessible informations are lower-bounded by an explicit
search over projective measurements, and protocol statistics come from a
seeded per-pulse Monte Carlo.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import attacks, channel
from .detection import DetectionOutcome, conditional_error_rate, outcome_distribution
from .linalg import Operator, _freeze, partial_trace
from .optics import (KET_MINUS, KET_PLUS, PHI_PLUS, PSI_PLUS, SIGMA_X, SIGMA_Y, SIGMA_Z, SIGNALS,
                     STRATEGY_B_SIGNALS, Basis, Bb84Signal, basis_kets, signal_ket,
                     singlet_weight, symmetric_encode, fock_from_symmetric)


def _two_photon_block(pairs) -> list[np.ndarray]:
    return [_freeze(np.kron(x, y)) for x, y in pairs]


# Subspace blocks of the blockwise measurement search; they depend only on
# the diagonal basis.  Strategy A: the perfectly distinguishing product block
# and the {phi+, psi+} block.  Strategy B: the outer and inner diagonal blocks.
_PROD_BLOCK_A = _two_photon_block([(KET_MINUS, KET_PLUS), (KET_PLUS, KET_MINUS)])
_PURE_BLOCK_A = [PHI_PLUS, PSI_PLUS]
_OUTER_BLOCK_B = _two_photon_block([(KET_PLUS, KET_PLUS), (KET_MINUS, KET_MINUS)])
_INNER_BLOCK_B = _two_photon_block([(KET_PLUS, KET_MINUS), (KET_MINUS, KET_PLUS)])

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: Measurement angles of the grid scan in numeric_two_state_info.
_SCAN_ANGLES = 96


# --------------------------------------------------------------------------
# Measurement search
# --------------------------------------------------------------------------

def _bloch_vector(rho: np.ndarray) -> np.ndarray:
    return np.array([np.real(np.trace(rho @ s))
                     for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)])


def _h2(q: float) -> float:
    out = 0.0
    for t in (q, 1.0 - q):
        if t > 0.0:
            out -= t * math.log2(t)
    return out


def _h2_array(q: np.ndarray) -> np.ndarray:
    """Binary entropy of each element of q, with 0 log 0 = 0 at q in {0, 1}."""
    t = np.stack((q, 1.0 - q))
    return -np.sum(t * np.log2(np.where(t > 0.0, t, 1.0)), axis=0)


def _plane_frame(r0: np.ndarray, r1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis of a plane containing both Bloch vectors.

    Collinear or vanishing vectors fall back to the z and then the x axis.
    """
    frame = []
    for cand in (r0 - r1, r0 + r1, np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])):
        v = cand.astype(float)
        for u in frame:
            v = v - np.dot(u, v) * u
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            frame.append(v / norm)
        if len(frame) == 2:
            break
    return frame[0], frame[1]


def numeric_two_state_info(rho0: Operator, rho1: Operator) -> float:
    """Maximal mutual information over projective qubit measurements.

    The optimal projective measurement for two equiprobable qubit states lies
    in the plane spanned by their Bloch vectors.  Both vectors are projected
    onto a frame (e1, e2) of that plane once, so the measurement direction
    cos(theta) e1 + sin(theta) e2 sees them through four floats.  The scan of
    _SCAN_ANGLES angles over [0, pi) is one array expression; a golden-section
    refinement on Python floats then brackets the best grid point.  Returns a
    lower bound on the accessible information that is tight for
    equal-determinant pairs.
    """
    if rho0.dim != 2 or rho1.dim != 2:
        raise ValueError("measurement search expects qubit states")
    r0 = _bloch_vector(rho0.entries)
    r1 = _bloch_vector(rho1.entries)
    e1, e2 = _plane_frame(r0, r1)
    x0, y0 = float(np.dot(e1, r0)), float(np.dot(e2, r0))
    x1, y1 = float(np.dot(e1, r1)), float(np.dot(e2, r1))

    thetas = np.linspace(0.0, math.pi, _SCAN_ANGLES, endpoint=False)
    cos, sin = np.cos(thetas), np.sin(thetas)
    q0 = np.clip(0.5 * (1.0 + (cos * x0 + sin * y0)), 0.0, 1.0)
    q1 = np.clip(0.5 * (1.0 + (cos * x1 + sin * y1)), 0.0, 1.0)
    values = _h2_array(0.5 * (q0 + q1)) - 0.5 * (_h2_array(q0) + _h2_array(q1))
    best_idx = int(np.argmax(values))
    best = float(values[best_idx])

    def mutual_information(theta: float) -> float:
        c, s = math.cos(theta), math.sin(theta)
        p0 = min(1.0, max(0.0, 0.5 * (1.0 + (c * x0 + s * y0))))
        p1 = min(1.0, max(0.0, 0.5 * (1.0 + (c * x1 + s * y1))))
        return _h2(0.5 * (p0 + p1)) - 0.5 * (_h2(p0) + _h2(p1))

    step = math.pi / _SCAN_ANGLES
    lo, hi = float(thetas[best_idx]) - step, float(thetas[best_idx]) + step
    a, b = hi - _INV_GOLDEN * (hi - lo), lo + _INV_GOLDEN * (hi - lo)
    fa, fb = mutual_information(a), mutual_information(b)
    while hi - lo > 1e-11:
        if fa >= fb:
            hi, b, fb = b, a, fa
            a = hi - _INV_GOLDEN * (hi - lo)
            fa = mutual_information(a)
        else:
            lo, a, fa = a, b, fb
            b = lo + _INV_GOLDEN * (hi - lo)
            fb = mutual_information(b)
    return max(best, fa, fb)


def _block_matrix(rho: Operator, kets: list[np.ndarray]) -> np.ndarray:
    """Restriction <k_i| rho |k_j> of an operator to a subspace basis."""
    return np.array([[np.vdot(ki, rho.entries @ kj) for kj in kets] for ki in kets])


def _blockwise_numeric_info(rho_plus: Operator, rho_minus: Operator,
                            blocks: list[list[np.ndarray]]) -> float:
    """Projection onto blocks followed by a per-block measurement search.

    Returns the sum over blocks of the block weight times the two-state
    information of the normalized block pair.  Both probes must give each
    block the same weight; a difference above 1e-12 raises RuntimeError.
    """
    total = 0.0
    for kets in blocks:
        m_p = _block_matrix(rho_plus, kets)
        m_m = _block_matrix(rho_minus, kets)
        w = float(np.real(np.trace(m_p)))
        w_minus = float(np.real(np.trace(m_m)))
        if abs(w - w_minus) > 1e-12:
            raise RuntimeError(f"probe block weights differ: {w} for rho_plus, {w_minus} for rho_minus")
        if w < 1e-14:
            continue
        total += w * numeric_two_state_info(Operator(m_p / w), Operator(m_m / w_minus))
    return total


# --------------------------------------------------------------------------
# Cloner simulations
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SimulationReport:
    """Simulation-versus-closed-form comparison for one cloning machine setting.

    deltas holds named absolute deviations; every value is finite and the
    report is reproducible from the machine parameter and the seed.
    """

    disturbance: float
    probe_plus: Operator
    probe_minus: Operator
    info_closed_form: float
    info_measurement_search: float
    deltas: dict = field(default_factory=dict)


def _apply_isometry(u: np.ndarray, signal_vec: np.ndarray) -> tuple[np.ndarray, float]:
    """Output u @ kron(signal_vec, e0) of an attack unitary and its norm defect.

    The probe starts in its first basis state e0, so only every fourth
    column of u is read.
    """
    out = u[:, ::4] @ signal_vec
    return out, abs(np.linalg.norm(out) - 1.0)


def _eve_probe(u: np.ndarray, signal_vec: np.ndarray) -> tuple[Operator, Operator, float]:
    """Apply an attack isometry; return (receiver state, probe state, norm defect)."""
    out, defect = _apply_isometry(u, signal_vec)
    rho = Operator(np.outer(out, out.conj()))
    rho_bob = partial_trace(rho, keep="a", dims=(4, 4))
    rho_eve = partial_trace(rho, keep="b", dims=(4, 4))
    return rho_bob, rho_eve, defect


def _symmetric_isometry_defect(u: np.ndarray, rng_seed: int) -> float:
    """Largest norm defect of an attack isometry on eight random symmetric states.

    Random superpositions inside the symmetric subspace must be preserved,
    not only the four BB84 signals.
    """
    rng = np.random.default_rng(rng_seed)
    defect = 0.0
    for _ in range(8):
        amp = rng.normal(size=3) + 1j * rng.normal(size=3)
        vec = amp[0] * np.array([1, 0, 0, 0]) + amp[2] * np.array([0, 0, 0, 1]) \
            + amp[1] * np.array([0, 1, 1, 0]) / math.sqrt(2)
        vec = vec.astype(complex) / np.linalg.norm(vec)
        defect = max(defect, _apply_isometry(u, vec)[1])
    return defect


def _drive(u: np.ndarray, signals, eta_det: float, rng_seed: int):
    """Send each signal's two-photon encoding through an attack unitary.

    Returns the sifted error rate of the receiver pair for each signal, the
    attacker probes keyed by signal, the largest norm defect (over the signals
    and eight random symmetric states) and the largest singlet weight of a
    receiver state.
    """
    isometry_defect = _symmetric_isometry_defect(u, rng_seed)
    singlet = 0.0
    errors = []
    probes = {}
    for signal in signals:
        rho_bob, rho_eve, defect = _eve_probe(u, symmetric_encode(signal))
        isometry_defect = max(isometry_defect, defect)
        singlet = max(singlet, singlet_weight(rho_bob))
        errors.append(conditional_error_rate(rho_bob, signal.basis, eta_det,
                                             correct_bit=signal.bit))
        probes[signal] = rho_eve
    return errors, probes, isometry_defect, singlet


def simulate_strategy_a(beta: float, *, eta_det: float, rng_seed: int) -> SimulationReport:
    """Drive the universal cloner end to end and compare with the closed forms.

    For each BB84 signal the unitary is applied, the receiver pair is
    forwarded through the detector model to measure the sifted error rate,
    and the attacker probe is compared entry by entry against the
    disturbance-parameterized probe states.  The probe overlap and the
    product-block weight are measured rather than assumed, and the
    information formula is cross-checked against a blockwise measurement
    search.
    """
    u = attacks.strategy_a_unitary(beta)
    errors, probes, isometry_defect, singlet = _drive(u, SIGNALS, eta_det, rng_seed)

    disturbance = float(np.mean(errors))
    error_spread = max(errors) - min(errors)

    rho_p_sim = probes[Bb84Signal(Basis.DIAGONAL, 0)]
    rho_m_sim = probes[Bb84Signal(Basis.DIAGONAL, 1)]
    rho_p_cf, rho_m_cf = attacks.strategy_a_probe_states(disturbance)
    probe_delta = max(np.max(np.abs(rho_p_sim.entries - rho_p_cf.entries)),
                      np.max(np.abs(rho_m_sim.entries - rho_m_cf.entries)))

    # Overlap of the nonorthogonal probe components, extracted from the
    # simulated probes by diagonalizing their {phi+, psi+} block.
    def principal_vector(rho: Operator) -> np.ndarray:
        m = _block_matrix(rho, _PURE_BLOCK_A)
        w = np.real(np.trace(m))
        vals, vecs = np.linalg.eigh(m / w)
        v = vecs[:, -1]
        # fix the free phase via the phi+ component, positive for D < 1/4
        phase = v[0] / abs(v[0]) if abs(v[0]) > 1e-8 else 1.0
        return v / phase

    v_plus = principal_vector(rho_p_sim)
    v_minus = principal_vector(rho_m_sim)
    overlap_sim = float(np.real(np.vdot(v_plus, v_minus)))
    overlap_delta = abs(overlap_sim - attacks.strategy_a_probe_overlap(disturbance))

    # the perfectly distinguishing block must carry weight 2D
    prod_weight = float(np.real(np.trace(_block_matrix(rho_p_sim, _PROD_BLOCK_A))))
    block_weight_delta = abs(prod_weight - 2.0 * disturbance)

    info_closed = attacks.strategy_a_information(disturbance)
    info_numeric = _blockwise_numeric_info(rho_p_sim, rho_m_sim, [_PROD_BLOCK_A, _PURE_BLOCK_A])

    return SimulationReport(
        disturbance=disturbance,
        probe_plus=rho_p_sim,
        probe_minus=rho_m_sim,
        info_closed_form=info_closed,
        info_measurement_search=info_numeric,
        deltas={
            "isometry_defect": isometry_defect,
            "bob_singlet_weight": singlet,
            "error_rate_spread": error_spread,
            "probe_vs_closed_form": float(probe_delta),
            "overlap_vs_closed_form": overlap_delta,
            "product_block_weight_vs_2d": block_weight_delta,
            "information_vs_measurement_search": abs(info_closed - info_numeric),
        },
    )


def simulate_strategy_b(gamma: float, *, eta_det: float, rng_seed: int) -> SimulationReport:
    """Drive the phase-covariant cloner and compare with the closed forms.

    Verifies the disturbance formula against the sifted error rate of all
    four equatorial signals, the probe matrices (times 16) against the
    closed-form coefficients, the a<->c / d<->f exchange between the two
    probes, and the information formula against a blockwise measurement
    search.
    """
    u = attacks.strategy_b_unitary(gamma)
    errors, probes, isometry_defect, singlet = _drive(u, STRATEGY_B_SIGNALS, eta_det, rng_seed)

    disturbance = float(np.mean(errors))
    disturbance_delta = abs(disturbance - attacks.strategy_b_disturbance(gamma))
    error_spread = max(errors) - min(errors)

    rho_p_sim = probes[Bb84Signal(Basis.DIAGONAL, 0)]
    rho_m_sim = probes[Bb84Signal(Basis.DIAGONAL, 1)]

    ref_plus, ref_minus = attacks.strategy_b_probe_matrices(gamma)
    m_plus = attacks.probe_matrix_in_diagonal_basis(rho_p_sim) * 16.0
    m_minus = attacks.probe_matrix_in_diagonal_basis(rho_m_sim) * 16.0
    coeff_delta = max(np.max(np.abs(m_plus - ref_plus)), np.max(np.abs(m_minus - ref_minus)))
    swap_delta = np.max(np.abs(m_minus - m_plus[::-1, ::-1]))

    info_closed = attacks.strategy_b_information(gamma)
    info_numeric = _blockwise_numeric_info(rho_p_sim, rho_m_sim, [_OUTER_BLOCK_B, _INNER_BLOCK_B])

    return SimulationReport(
        disturbance=disturbance,
        probe_plus=rho_p_sim,
        probe_minus=rho_m_sim,
        info_closed_form=info_closed,
        info_measurement_search=info_numeric,
        deltas={
            "isometry_defect": isometry_defect,
            "bob_singlet_weight": singlet,
            "error_rate_spread": error_spread,
            "disturbance_vs_closed_form": disturbance_delta,
            "coefficients_vs_closed_form": float(coeff_delta),
            "probe_exchange_symmetry": float(swap_delta),
            "information_vs_measurement_search": abs(info_closed - info_numeric),
        },
    )


# --------------------------------------------------------------------------
# Per-pulse Monte Carlo
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MonteCarloStats:
    """Empirical per-pulse protocol statistics with binomial standard errors."""

    attack: str
    disturbance: float
    eta_det: float
    n_pulses: int
    seed: int
    raw_clicks: int
    sifted_bits: int
    sifted_errors: int
    double_clicks_matched: int
    double_clicks_mismatched: int
    expected_raw_click_rate: float
    expected_sifted_error_rate: float

    @property
    def raw_click_rate(self) -> float:
        return self.raw_clicks / self.n_pulses

    @property
    def raw_click_rate_se(self) -> float:
        return _binomial_se(self.raw_click_rate, self.n_pulses)

    @property
    def sifted_error_rate(self) -> float:
        return self.sifted_errors / self.sifted_bits if self.sifted_bits else 0.0

    @property
    def sifted_error_rate_se(self) -> float:
        if not self.sifted_bits:
            return 0.0
        return _binomial_se(self.sifted_error_rate, self.sifted_bits)

    @property
    def double_matched_rate(self) -> float:
        return self.double_clicks_matched / self.n_pulses

    @property
    def double_matched_rate_se(self) -> float:
        return _binomial_se(self.double_matched_rate, self.n_pulses)

    @property
    def double_mismatched_rate(self) -> float:
        return self.double_clicks_mismatched / self.n_pulses

    @property
    def double_mismatched_rate_se(self) -> float:
        return _binomial_se(self.double_mismatched_rate, self.n_pulses)


def _binomial_se(p: float, n: int) -> float:
    """Standard error sqrt(p(1-p)/n) of a rate p estimated from n trials."""
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


_OUTCOME_ORDER = (DetectionOutcome.VACUUM, DetectionOutcome.CLICK0,
                  DetectionOutcome.CLICK1, DetectionOutcome.DOUBLE)


def _outcome_row(occupations: dict, eta_det: float) -> np.ndarray:
    """Detector outcome probabilities of an arriving state, in _OUTCOME_ORDER."""
    dist = outcome_distribution(occupations, eta_det)
    return np.array([dist[outcome] for outcome in _OUTCOME_ORDER])


def _single_photon_row(weight_mode0: float, eta_det: float) -> np.ndarray:
    """Outcome distribution for one photon with the given bit-0 mode weight."""
    return _outcome_row({(1, 0): weight_mode0, (0, 1): 1.0 - weight_mode0}, eta_det)


def _attack_tables(attack: str, disturbance: float, eta: float):
    """Per-(pulse type, signal, measured basis) outcome tables and bit labels.

    Returns (two_photon_rows, single_rows, signal_bits, signal_basis_index)
    where rows are indexed [signal][basis] -> 4 outcome probabilities.  The
    PNS process and strategy A use the rectilinear and diagonal signals,
    strategy B the diagonal and circular ones.
    """
    if attack not in ("PNS", "CloneA", "CloneB"):
        raise ValueError(f"attack must be 'PNS', 'CloneA' or 'CloneB', got {attack!r}")
    signals = STRATEGY_B_SIGNALS if attack == "CloneB" else SIGNALS
    bases = list(dict.fromkeys(s.basis for s in signals))
    bits = [s.bit for s in signals]
    basis_of_signal = [bases.index(s.basis) for s in signals]

    two_rows = np.zeros((4, 2, 4))
    single_rows = np.zeros((4, 2, 4))
    if attack == "PNS":
        for i, signal in enumerate(signals):
            for j, basis in enumerate(bases):
                w0 = abs(np.vdot(basis_kets(basis)[0], signal_ket(signal))) ** 2
                # split pulse: one untouched photon forwarded
                two_rows[i, j] = _single_photon_row(w0, eta)
                if j == basis_of_signal[i]:
                    # matching basis: the optimal single-photon attack flips
                    # the bit with probability D
                    w0_attacked = (1.0 - disturbance) if signal.bit == 0 else disturbance
                else:
                    w0_attacked = 0.5
                single_rows[i, j] = _single_photon_row(w0_attacked, eta)
        return two_rows, single_rows, bits, basis_of_signal

    if attack == "CloneA":
        u = attacks.strategy_a_unitary(attacks.clone_a_params_for_disturbance(disturbance))
    else:
        u = attacks.strategy_b_unitary(attacks.gamma_for_disturbance(disturbance))
    single_rows[:, :, 0] = 1.0  # single photons are blocked: vacuum
    for i, signal in enumerate(signals):
        rho_bob, _, _ = _eve_probe(u, symmetric_encode(signal))
        for j, basis in enumerate(bases):
            two_rows[i, j] = _outcome_row(fock_from_symmetric(rho_bob, basis), eta)
    return two_rows, single_rows, bits, basis_of_signal


def monte_carlo_protocol(scenario: channel.ChannelScenario, attack: str,
                         disturbance: float, *, n_pulses: int, seed: int) -> MonteCarloStats:
    """Sample the per-pulse protocol for one attack at matched raw rates.

    Pulses carry two photons with the rate-matching probability
    1/(2 - eta_det) and one photon otherwise.  The attack transforms them
    (splitting, cloning, or blocking), the receiver picks a random basis and
    the four-outcome detector model fires; double clicks are assigned a
    random bit during sifting.

    Five seeded draws of n_pulses each (pulse type, signal, basis, outcome
    uniform, double-click bit) fix the stream.  Each pulse falls in one of 16
    (pulse type, signal, measured basis) cells; its outcome is the number of
    entries of the cell's outcome CDF below the uniform, capped at 3.  A single
    bincount over (cell, outcome, double-click bit) gives 128 tallies, and
    every count is a sum of tallies; no (n_pulses, 4) array is built.

    Identical inputs and seed reproduce identical statistics.
    """
    if n_pulses < 1:
        raise ValueError(f"n_pulses must be at least 1, got {n_pulses}")
    if not 0.0 <= disturbance <= 0.5:
        raise ValueError(f"disturbance must lie in [0, 1/2], got {disturbance}")

    eta = scenario.eta_det
    p_two = attacks.matched_two_photon_fraction(eta)
    two_rows, single_rows, bits, basis_of_signal = _attack_tables(attack, disturbance, eta)

    rng = np.random.default_rng(seed)
    is_two = rng.random(n_pulses) < p_two
    alice = rng.integers(0, 4, size=n_pulses)
    bob = rng.integers(0, 2, size=n_pulses)
    u_outcome = rng.random(n_pulses)
    u_double_bit = rng.integers(0, 2, size=n_pulses)

    # inverse-CDF outcome per pulse from its (pulse type, signal, basis) cell
    table = np.stack([single_rows, two_rows])
    cdf = np.cumsum(table, axis=-1).reshape(16, 4)
    cell = (is_two * 4 + alice) * 2 + bob
    outcome = np.zeros(n_pulses, dtype=np.int64)
    for k in range(4):
        outcome += u_outcome > cdf[:, k][cell]
    np.minimum(outcome, 3, out=outcome)
    counts = np.bincount((cell * 4 + outcome) * 2 + u_double_bit, minlength=128)
    counts = counts.reshape(2, 4, 2, 4, 2)

    # the sifting rules run on the 128 tally entries, not on the pulses
    _, signal, basis, outcome, double_bit = np.indices(counts.shape)
    matched = np.array(basis_of_signal)[signal] == basis
    clicked = outcome != 0
    is_double = outcome == 3

    sifted = matched & clicked
    measured_bit = np.where(is_double, double_bit, np.where(outcome == 2, 1, 0))
    errors = sifted & (measured_bit != np.array(bits)[signal])

    # analytic expectations from the same outcome tables
    weights = np.full((2, 4, 2), 0.125)  # uniform signal and basis choice
    weights[0] *= 1.0 - p_two
    weights[1] *= p_two
    exp_click = float(np.sum(weights[..., None] * table[..., 1:]))
    wrong_click_col = np.where(np.array(bits) == 0, 2, 1)
    exp_sift = 0.0
    exp_err = 0.0
    for t in (0, 1):
        for i in range(4):
            j = basis_of_signal[i]
            row = table[t, i, j]
            exp_sift += weights[t, i, j] * (row[1] + row[2] + row[3])
            exp_err += weights[t, i, j] * (row[wrong_click_col[i]] + 0.5 * row[3])
    exp_error_rate = exp_err / exp_sift if exp_sift > 0 else 0.0

    return MonteCarloStats(
        attack=attack,
        disturbance=float(disturbance),
        eta_det=eta,
        n_pulses=n_pulses,
        seed=seed,
        raw_clicks=int(counts[clicked].sum()),
        sifted_bits=int(counts[sifted].sum()),
        sifted_errors=int(counts[errors].sum()),
        double_clicks_matched=int(counts[is_double & matched].sum()),
        double_clicks_mismatched=int(counts[is_double & ~matched].sum()),
        expected_raw_click_rate=exp_click,
        expected_sifted_error_rate=float(exp_error_rate),
    )
