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
from .detection import DetectionOutcome, DetectorModel, conditional_error_rate, outcome_distribution
from .linalg import Operator, partial_trace
from .optics import (SIGNALS, Basis, basis_kets, signal_ket, singlet_weight,
                     symmetric_encode, fock_from_symmetric)

#: Equatorial signal set used by the phase-covariant machine: (ket, basis pair,
#: bit) for each of the four BB84 signals of the diagonal and circular bases.
EQUATORIAL_SIGNALS = tuple(
    (pair[bit], pair, bit) for pair in attacks.STRATEGY_B_BASES for bit in (0, 1)
)

_DIAGONAL_PAIR_INDEX = 0

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


# --------------------------------------------------------------------------
# Measurement search
# --------------------------------------------------------------------------

def _bloch_vector(rho: np.ndarray) -> np.ndarray:
    return np.array([np.real(np.trace(rho @ s))
                     for s in (attacks.SIGMA_X, attacks.SIGMA_Y, attacks.SIGMA_Z)])


def _h2(q: float) -> float:
    out = 0.0
    for t in (q, 1.0 - q):
        if t > 0.0:
            out -= t * math.log2(t)
    return out


def numeric_two_state_info(rho0: Operator, rho1: Operator, grid_size: int = 96) -> float:
    """Maximal mutual information over projective qubit measurements.

    The optimal projective measurement for two equiprobable qubit states lies
    in the plane spanned by their Bloch vectors, so the search is a scan over
    a single angle followed by a golden-section refinement around the best
    grid point.  Returns a lower bound on the accessible information that is
    tight for equal-determinant pairs.
    """
    if rho0.dim != 2 or rho1.dim != 2:
        raise ValueError("measurement search expects qubit states")
    r0 = _bloch_vector(rho0.entries)
    r1 = _bloch_vector(rho1.entries)

    # Orthonormal basis of a plane containing both Bloch vectors.
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
    e1, e2 = frame

    def mutual_information(theta: float) -> float:
        n = math.cos(theta) * e1 + math.sin(theta) * e2
        q0 = min(1.0, max(0.0, 0.5 * (1.0 + float(np.dot(n, r0)))))
        q1 = min(1.0, max(0.0, 0.5 * (1.0 + float(np.dot(n, r1)))))
        return _h2(0.5 * (q0 + q1)) - 0.5 * (_h2(q0) + _h2(q1))

    thetas = np.linspace(0.0, math.pi, grid_size, endpoint=False)
    values = [mutual_information(t) for t in thetas]
    best_idx = int(np.argmax(values))
    best = values[best_idx]
    step = math.pi / grid_size
    lo, hi = thetas[best_idx] - step, thetas[best_idx] + step
    x1, x2 = hi - _INV_GOLDEN * (hi - lo), lo + _INV_GOLDEN * (hi - lo)
    f1, f2 = mutual_information(x1), mutual_information(x2)
    while hi - lo > 1e-11:
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_GOLDEN * (hi - lo)
            f1 = mutual_information(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_GOLDEN * (hi - lo)
            f2 = mutual_information(x2)
    return max(best, f1, f2)


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


def _eve_probe(u: np.ndarray, signal_vec: np.ndarray) -> tuple[Operator, Operator, float]:
    """Apply an attack isometry; return (receiver state, probe state, norm defect)."""
    vec_in = np.kron(signal_vec, np.array([1.0, 0.0, 0.0, 0.0]))
    out = u @ vec_in
    defect = abs(np.linalg.norm(out) - 1.0)
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
        defect = max(defect, _eve_probe(u, vec)[2])
    return defect


def simulate_strategy_a(beta: float, eta_det: float = 0.5, rng_seed: int = 0) -> SimulationReport:
    """Drive the universal cloner end to end and compare with the closed forms.

    For each BB84 signal the unitary is applied, the receiver pair is
    forwarded through the detector model to measure the sifted error rate,
    and the attacker probe is compared entry by entry against the
    disturbance-parameterized probe states.  The probe overlap and the
    product-block weight are measured rather than assumed, and the
    information formula is cross-checked against a blockwise measurement
    search.
    """
    params = attacks.CloneAParams(beta=beta)
    u = attacks.strategy_a_unitary(params).entries

    isometry_defect = _symmetric_isometry_defect(u, rng_seed)
    singlet = 0.0
    errors = []
    probes = {}
    for signal in SIGNALS:
        rho_bob, rho_eve, defect = _eve_probe(u, symmetric_encode(signal))
        isometry_defect = max(isometry_defect, defect)
        singlet = max(singlet, singlet_weight(rho_bob))
        errors.append(conditional_error_rate(rho_bob, basis_kets(signal.basis),
                                             eta_det, correct_bit=signal.bit))
        probes[(signal.basis, signal.bit)] = rho_eve

    disturbance = float(np.mean(errors))
    error_spread = max(errors) - min(errors)

    rho_p_sim = probes[(Basis.DIAGONAL, 0)]
    rho_m_sim = probes[(Basis.DIAGONAL, 1)]
    rho_p_cf, rho_m_cf = attacks.strategy_a_probe_states(disturbance)
    probe_delta = max(np.max(np.abs(rho_p_sim.entries - rho_p_cf.entries)),
                      np.max(np.abs(rho_m_sim.entries - rho_m_cf.entries)))

    # Overlap of the nonorthogonal probe components, extracted from the
    # simulated probes by diagonalizing their {phi+, psi+} block.
    pure_block = [attacks.PHI_PLUS, attacks.PSI_PLUS]
    prod_block = [np.kron(attacks.KET_MINUS, attacks.KET_PLUS),
                  np.kron(attacks.KET_PLUS, attacks.KET_MINUS)]

    def principal_vector(rho: Operator) -> np.ndarray:
        m = _block_matrix(rho, pure_block)
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
    prod_weight = float(np.real(np.trace(_block_matrix(rho_p_sim, prod_block))))
    block_weight_delta = abs(prod_weight - 2.0 * disturbance)

    info_closed = attacks.strategy_a_information(disturbance)
    info_numeric = _blockwise_numeric_info(rho_p_sim, rho_m_sim, [prod_block, pure_block])

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


def simulate_strategy_b(gamma: float, eta_det: float = 0.5, rng_seed: int = 0) -> SimulationReport:
    """Drive the phase-covariant cloner and compare with the closed forms.

    Verifies the disturbance formula against the sifted error rate of all
    four equatorial signals, the probe matrices (times 16) against the
    closed-form coefficients, the a<->c / d<->f exchange between the two
    probes, and the information formula against a blockwise measurement
    search.
    """
    params = attacks.CloneBParams(gamma=gamma)
    u = attacks.strategy_b_unitary(params).entries

    isometry_defect = _symmetric_isometry_defect(u, rng_seed)
    singlet = 0.0
    errors = []
    probes = {}
    for sig_index, (ket, pair, bit) in enumerate(EQUATORIAL_SIGNALS):
        rho_bob, rho_eve, defect = _eve_probe(u, np.kron(ket, ket))
        isometry_defect = max(isometry_defect, defect)
        singlet = max(singlet, singlet_weight(rho_bob))
        errors.append(conditional_error_rate(rho_bob, pair, eta_det, correct_bit=bit))
        probes[(sig_index // 2, bit)] = rho_eve

    disturbance = float(np.mean(errors))
    disturbance_delta = abs(disturbance - attacks.strategy_b_disturbance(gamma))
    error_spread = max(errors) - min(errors)

    diag_pair = attacks.STRATEGY_B_BASES[_DIAGONAL_PAIR_INDEX]
    rho_p_sim = probes[(_DIAGONAL_PAIR_INDEX, 0)]
    rho_m_sim = probes[(_DIAGONAL_PAIR_INDEX, 1)]

    ref_plus, ref_minus = attacks.strategy_b_probe_matrices(gamma)
    m_plus = attacks.probe_matrix_in_diagonal_basis(rho_p_sim) * 16.0
    m_minus = attacks.probe_matrix_in_diagonal_basis(rho_m_sim) * 16.0
    coeff_delta = max(np.max(np.abs(m_plus - ref_plus)), np.max(np.abs(m_minus - ref_minus)))
    swap_delta = np.max(np.abs(m_minus - m_plus[::-1, ::-1]))

    kp, km = diag_pair
    outer_block = [np.kron(kp, kp), np.kron(km, km)]
    inner_block = [np.kron(kp, km), np.kron(km, kp)]
    info_closed = attacks.strategy_b_information(gamma)
    info_numeric = _blockwise_numeric_info(rho_p_sim, rho_m_sim, [outer_block, inner_block])

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


def _single_photon_row(weight_mode0: float, eta: float) -> np.ndarray:
    """Outcome distribution for one photon with the given bit-0 mode weight."""
    return np.array([
        1.0 - eta,
        eta * weight_mode0,
        eta * (1.0 - weight_mode0),
        0.0,
    ])


def _attack_tables(attack: str, disturbance: float, eta: float):
    """Per-(pulse type, signal, measured basis) outcome tables and bit labels.

    Returns (two_photon_rows, single_rows, signal_bits, signal_basis_index)
    where rows are indexed [signal][basis] -> 4 outcome probabilities.
    """
    if attack == "PNS":
        signal_sets = [(signal_ket(s), s.basis, s.bit) for s in SIGNALS]
        bases = [basis_kets(Basis.RECTILINEAR), basis_kets(Basis.DIAGONAL)]
        basis_index = {Basis.RECTILINEAR: 0, Basis.DIAGONAL: 1}
        two_rows = np.zeros((4, 2, 4))
        single_rows = np.zeros((4, 2, 4))
        for i, (ket, sig_basis, bit) in enumerate(signal_sets):
            for j, (b0, b1) in enumerate(bases):
                w0 = abs(np.vdot(b0, ket)) ** 2
                # split pulse: one untouched photon forwarded
                two_rows[i, j] = _single_photon_row(w0, eta)
                if j == basis_index[sig_basis]:
                    # matching basis: the optimal single-photon attack flips
                    # the bit with probability D
                    w0_attacked = (1.0 - disturbance) if bit == 0 else disturbance
                else:
                    w0_attacked = 0.5
                single_rows[i, j] = _single_photon_row(w0_attacked, eta)
        bits = [bit for _, _, bit in signal_sets]
        basis_of_signal = [basis_index[b] for _, b, _ in signal_sets]
        return two_rows, single_rows, bits, basis_of_signal

    if attack == "CloneA":
        params = attacks.clone_a_params_for_disturbance(disturbance)
        u = attacks.strategy_a_unitary(params).entries
        signal_sets = [(signal_ket(s), s.basis, s.bit) for s in SIGNALS]
        bases = [basis_kets(Basis.RECTILINEAR), basis_kets(Basis.DIAGONAL)]
        basis_index = {Basis.RECTILINEAR: 0, Basis.DIAGONAL: 1}
        bits = [bit for _, _, bit in signal_sets]
        basis_of_signal = [basis_index[b] for _, b, _ in signal_sets]
    elif attack == "CloneB":
        gamma = attacks.gamma_for_disturbance(disturbance)
        u = attacks.strategy_b_unitary(attacks.CloneBParams(gamma=gamma)).entries
        signal_sets = list(EQUATORIAL_SIGNALS)
        bases = list(attacks.STRATEGY_B_BASES)
        bits = [bit for _, _, bit in signal_sets]
        basis_of_signal = [0, 0, 1, 1]
    else:
        raise ValueError(f"attack must be 'PNS', 'CloneA' or 'CloneB', got {attack!r}")

    model = DetectorModel(eta_det=eta)
    two_rows = np.zeros((4, 2, 4))
    single_rows = np.zeros((4, 2, 4))
    single_rows[:, :, 0] = 1.0  # single photons are blocked: vacuum
    for i, (ket, _, _) in enumerate(signal_sets):
        rho_bob, _, _ = _eve_probe(u, np.kron(ket, ket))
        for j, pair in enumerate(bases):
            dist = outcome_distribution(fock_from_symmetric(rho_bob, pair), model)
            two_rows[i, j] = [dist[outcome] for outcome in _OUTCOME_ORDER]
    return two_rows, single_rows, bits, basis_of_signal


def monte_carlo_protocol(scenario: channel.ChannelScenario, attack: str,
                         disturbance: float | None = None, *, param: float | None = None,
                         n_pulses: int = 10**6, seed: int = 20240901) -> MonteCarloStats:
    """Sample the per-pulse protocol for one attack at matched raw rates.

    Pulses carry two photons with the rate-matching probability
    1/(2 - eta_det) and one photon otherwise.  The attack transforms them
    (splitting, cloning, or blocking), the receiver picks a random basis and
    the four-outcome detector model fires; double clicks are assigned a
    random bit during sifting.

    Exactly one of `disturbance` or `param` (beta for CloneA, gamma for
    CloneB) must be given.  Identical inputs and seed reproduce identical
    statistics.
    """
    if n_pulses < 1:
        raise ValueError(f"n_pulses must be at least 1, got {n_pulses}")
    if (disturbance is None) == (param is None):
        raise ValueError("specify exactly one of disturbance or param")
    if param is not None:
        if attack == "CloneA":
            disturbance = attacks.clone_a_disturbance(attacks.CloneAParams(beta=param))
        elif attack == "CloneB":
            disturbance = attacks.strategy_b_disturbance(param)
        else:
            raise ValueError("the PNS process takes a disturbance, not a machine parameter")
    assert disturbance is not None
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

    # stack rows into a (2, 4, 2, 4) lookup and sample outcomes by inverse CDF
    table = np.stack([single_rows, two_rows])
    cdf = np.cumsum(table, axis=-1)
    pulse_cdf = cdf[is_two.astype(int), alice, bob]
    outcome = (u_outcome[:, None] > pulse_cdf).sum(axis=1)
    outcome = np.minimum(outcome, 3)

    signal_basis = np.array(basis_of_signal)[alice]
    signal_bit = np.array(bits)[alice]
    matched = signal_basis == bob
    clicked = outcome != 0
    is_double = outcome == 3

    sifted = matched & clicked
    measured_bit = np.where(is_double, u_double_bit, np.where(outcome == 2, 1, 0))
    errors = sifted & (measured_bit != signal_bit)

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
        raw_clicks=int(np.count_nonzero(clicked)),
        sifted_bits=int(np.count_nonzero(sifted)),
        sifted_errors=int(np.count_nonzero(errors)),
        double_clicks_matched=int(np.count_nonzero(is_double & matched)),
        double_clicks_mismatched=int(np.count_nonzero(is_double & ~matched)),
        expected_raw_click_rate=exp_click,
        expected_sifted_error_rate=exp_error_rate,
    )
