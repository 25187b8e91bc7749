"""Independent verification of the closed forms by explicit simulation.

Nothing in this module reuses a closed-form result it is checking: probe
states and disturbances are derived by building the cloning isometries (this
module builds them) and partial-tracing, accessible informations are
lower-bounded by an explicit search over projective measurements, and
protocol statistics come from a seeded per-pulse Monte Carlo.

The oracle works on stacks: one measurement search, an angle scan and a
fixed number of zoomed rescans, runs on every qubit pair of a suite at once,
and one pass drives a whole grid of cloner settings.
"""
from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from . import attacks, channel
from .detection import DetectionOutcome, outcome_distribution
from .infotheory import DOMAIN_SLACK, _math_for
from .optics import (_I2, KET_MINUS, KET_PLUS, PHI_MINUS, PHI_PLUS, PSI_MINUS, PSI_PLUS, SIGMA_X, SIGMA_Y,
                     SIGMA_Z, SIGNALS, STRATEGY_B_SIGNALS, Basis, Bb84Signal, _freeze, basis_kets,
                     partial_trace, signal_ket, singlet_weight, symmetric_encode, fock_from_symmetric)

# The ordered diagonal product basis |++>, |+->, |-+>, |-->, in which the
# strategy-B probe matrices are laid out.  Qubit blocks of the blockwise
# measurement search, as pairs of two-photon kets; they depend only on the
# diagonal basis.  Strategy A: the perfectly distinguishing product block
# and the {phi+, psi+} block.  Strategy B: the outer and inner diagonal blocks.
_DIAG_KETS = _PP, _PM, _MP, _MM = tuple(_freeze(np.kron(x, y)) for x in (KET_PLUS, KET_MINUS)
                                         for y in (KET_PLUS, KET_MINUS))
_BLOCKS_A = ((_MP, _PM), (PHI_PLUS, PSI_PLUS))
_BLOCKS_B = ((_PP, _MM), (_PM, _MP))

_PAULIS = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])

#: Measurement angles of the grid scan in numeric_two_state_info_stack, the
#: number of zoom scans after it, and how many times finer each zoom grid is.
_SCAN_ANGLES, _ZOOMS, _ZOOM = 96, 8, 8
#: Offsets of a zoom grid from the best angle, in units of its spacing.
_ZOOM_OFFSETS = np.arange(-_ZOOM, _ZOOM + 1)


# --------------------------------------------------------------------------
# Measurement search
# --------------------------------------------------------------------------

def _bloch_vector(rho: np.ndarray) -> np.ndarray:
    """Bloch vector tr(rho sigma_k) of a qubit state, or of each in a (..., 2, 2) stack."""
    return np.einsum("...ij,kji->...k", rho, _PAULIS).real


def _h2_array(q: np.ndarray) -> np.ndarray:
    """Binary entropy of each element of q, with 0 log 0 = 0 at q in {0, 1}."""
    p = 1.0 - q
    return -(q * np.log2(np.where(q > 0.0, q, 1.0)) + p * np.log2(np.where(p > 0.0, p, 1.0)))


def _plane_coordinates(r0: np.ndarray, r1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates (x, y) of two Bloch vectors in a plane that contains both, per stack entry.

    r0 lies on the first axis: x0 = |r0|, y0 = 0, x1 = r0.r1/|r0| and
    y1 = |r0 x r1|/|r0|.  The cross product keeps y1 accurate where
    sqrt(|r1|^2 - x1^2) would cancel.  Where r0 = 0, r1 lies on the first
    axis.  Returns x and y with the two states along their first axis.
    """
    n0 = np.linalg.norm(r0, axis=-1)
    safe = np.where(n0 > 0.0, n0, 1.0)
    x1 = np.where(n0 > 0.0, np.sum(r0 * r1, -1) / safe, np.linalg.norm(r1, axis=-1))
    y1 = np.linalg.norm(np.cross(r0, r1), axis=-1) / safe
    return np.stack([n0, x1]), np.stack([np.zeros_like(n0), y1])


def _mutual_information(theta, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mutual information of the projective measurement along the plane direction (cos theta, sin theta).

    x and y hold the plane coordinates of the two states along their first axis.
    """
    q = np.minimum(np.maximum(0.5 * (1.0 + (np.cos(theta) * x + np.sin(theta) * y)), 0.0), 1.0)
    h = _h2_array(np.concatenate([0.5 * (q[:1] + q[1:]), q]))
    return h[0] - 0.5 * (h[1] + h[2])


def numeric_two_state_info_stack(rho0, rho1) -> np.ndarray:
    """Maximal mutual information over projective measurements, pair by pair.

    rho0 and rho1 are (..., 2, 2) stacks of qubit states; entry i of the
    result belongs to the equiprobable pair (rho0[i], rho1[i]).  The optimal
    projective measurement for such a pair lies in the plane spanned by the
    two Bloch vectors (Levitin 1995), so the measurement direction
    (cos theta, sin theta) sees them through their four plane coordinates.
    A scan of _SCAN_ANGLES angles over [0, pi) finds the best grid point.
    Each of _ZOOMS zoom scans then rescans one grid spacing either side of
    the best angle on a grid _ZOOM times finer, which contains that angle,
    so the value never decreases; the spacing ends below 2e-9.  Every pair
    takes the same steps, with no per-pair convergence test.  Returns lower
    bounds on the accessible information, tight for equal-determinant pairs.
    """
    rho0, rho1 = np.asarray(rho0), np.asarray(rho1)
    if rho0.shape[-2:] != (2, 2) or rho1.shape[-2:] != (2, 2):
        raise ValueError("measurement search expects qubit states")
    x, y = (c[..., None] for c in _plane_coordinates(_bloch_vector(rho0), _bloch_vector(rho1)))
    theta = np.linspace(0.0, math.pi, _SCAN_ANGLES, endpoint=False)
    step = math.pi / _SCAN_ANGLES
    values = _mutual_information(theta, x, y)
    for _ in range(_ZOOMS):
        best = np.argmax(values, axis=-1)[..., None]
        step /= _ZOOM
        theta = np.take_along_axis(np.broadcast_to(theta, values.shape), best, -1) + step * _ZOOM_OFFSETS
        values = _mutual_information(theta, x, y)
    return np.max(values, axis=-1)


def numeric_two_state_info(rho0, rho1) -> float:
    """numeric_two_state_info_stack for one pair of qubit states."""
    return float(numeric_two_state_info_stack(np.asarray(rho0)[None], np.asarray(rho1)[None])[0])


def _in_basis(rho, kets) -> np.ndarray:
    """rho, or each operator of a stack, in the basis of the orthonormal kets: T^H rho T with the kets as columns."""
    t = np.stack(kets, axis=-1)
    return t.conj().T @ np.asarray(rho) @ t


def _blockwise_numeric_info(rho_plus, rho_minus, blocks) -> np.ndarray:
    """Projection onto qubit blocks followed by one measurement search over all of them.

    blocks are pairs of orthonormal kets; with T the matrix of all their kets
    as columns, T^H rho T holds every block of a probe at once.  rho_plus and
    rho_minus are operators or (..., d, d) stacks of them.  Returns, per stack
    entry, the sum over blocks of the block weight times the two-state
    information of the normalized block pair.  Both probes must give each
    block the same weight and carry no coherence between blocks: a weight
    difference or an off-block entry above 1e-12 raises RuntimeError.
    """
    m = _in_basis(np.stack(np.broadcast_arrays(np.asarray(rho_plus), np.asarray(rho_minus))),
                  [ket for pair in blocks for ket in pair])
    n = len(blocks)
    m = m.reshape(m.shape[:-2] + (n, 2, n, 2))
    off_block = np.max(np.abs(m) * ~np.eye(n, dtype=bool)[:, None, :, None], initial=0.0)
    if off_block > 1e-12:
        raise RuntimeError(f"probe carries coherence between blocks: off-block entry {off_block}")
    pairs = np.einsum("...iaib->...iab", m)
    w = np.einsum("...aa->...", pairs).real
    gap = np.max(np.abs(w[0] - w[1]), initial=0.0)
    if gap > 1e-12:
        raise RuntimeError(f"probe block weights differ by {gap} between rho_plus and rho_minus")
    kept = w[0] >= 1e-14
    info = np.zeros(w[0].shape)
    info[kept] = numeric_two_state_info_stack(pairs[0][kept] / w[0][kept][:, None, None],
                                              pairs[1][kept] / w[1][kept][:, None, None])
    return np.sum(w[0] * info, axis=-1)


# --------------------------------------------------------------------------
# Cloning machines
# --------------------------------------------------------------------------

#: The columns kron(s, phi+), kron(sz~ s, phi-), kron(sx~ s, psi+) and
#: kron(sy~ s, psi-) of the universal cloner, with sk~ = sigma_k (x) 1 +
#: 1 (x) sigma_k, read-only.
_STRATEGY_A_TERMS = tuple(_freeze(np.kron(t, ket[:, None])) for t, ket in zip(
    [np.eye(4, dtype=complex)] + [np.kron(sigma, _I2) + np.kron(_I2, sigma) for sigma in (SIGMA_Z, SIGMA_X, SIGMA_Y)],
    (PHI_PLUS, PHI_MINUS, PSI_PLUS, PSI_MINUS)))


def strategy_a_isometry(beta):
    """Universal asymmetric cloner as an isometry from the signal to four qubits.

    beta sets the cloning asymmetry, alpha^2 + 8 beta^2 = 1.  Acting on a
    two-qubit signal s with the probe prepared in |00>,

        U |s>|00> = alpha |s>|phi+> + beta (sz~ |s>|phi-> + sx~ |s>|psi+>
                                            + i sy~ |s>|psi->),

    with sk~ = sigma_k (x) 1 + 1 (x) sigma_k.  Output qubits are ordered
    (receiver 1, receiver 2, probe 1, probe 2) and column j of the (16, 4)
    result is the output for signal basis state j; the map is isometric on
    the symmetric subspace.  An array of settings gives their (..., 16, 4) stack.
    """
    beta = np.asarray(beta, dtype=float)
    outside = ~((0.0 <= 8.0 * beta**2) & (8.0 * beta**2 <= 1.0 + DOMAIN_SLACK))
    if outside.any():
        raise ValueError(f"beta must satisfy 0 <= 8 beta^2 <= 1, got beta={beta[outside][0]}")
    terms = _STRATEGY_A_TERMS
    alpha = np.sqrt(np.maximum(0.0, 1.0 - 8.0 * beta**2))[..., None, None]
    beta = beta[..., None, None]
    return alpha * terms[0] + beta * terms[1] + beta * terms[2] + 1.0j * beta * terms[3]


def strategy_b_isometry(gamma):
    """Phase-covariant cloner as an isometry from the signal to four qubits.

    The interaction angle gamma lies in [0, pi].  With c = cos gamma and
    s = sin gamma, U|s>|00> = [(V|s>|0>)|0> + (V~|s>|0>)|1>]/sqrt(2), where V
    maps |00>|0> to |000>, |psi+>|0> to (s|001> + c|010> + c|100>)/sqrt(1+c^2)
    and |11>|0> to (s|011> + s|101> + c|110>)/sqrt(1+s^2), and V~ is V
    conjugated by bit flips on every qubit (flip the signal, apply V, flip
    all three outputs).  The last output qubit records which branch acted.
    Qubits and columns are laid out as in strategy_a_isometry; the singlet
    component of the input is annihilated, since the machine is defined on
    the symmetric subspace only.  A numpy array of angles gives the
    (..., 16, 4) stack of their isometries.
    """
    gamma = np.asarray(gamma, dtype=float)
    _math_for(gamma, 0.0, math.pi + DOMAIN_SLACK, "gamma must lie in [0, pi]")
    c, s = np.cos(gamma), np.sin(gamma)
    one, o = np.ones_like(c), np.zeros_like(c)
    # V's images of |00>, |psi+> and |11> on |000>..|111>, made complex before
    # the division by their norms, which numpy rounds differently from a real one
    v = np.stack([np.stack(amplitudes, -1).astype(complex) / norm[..., None] for amplitudes, norm in (
        ((one, o, o, o, o, o, o, o), one),
        ((o, s, c, o, c, o, o, o), np.sqrt(1.0 + c * c)),
        ((o, o, o, s, o, s, c, o), np.sqrt(1.0 + s * s)))], -2)
    # Flipping all three bits maps basis index i to 7 - i, and the signal
    # flip exchanges |00> and |11>; the branch qubit interleaves V and V~.
    outputs = np.stack([v, v[..., ::-1, ::-1]], -1).reshape(gamma.shape + (3, 16)) / math.sqrt(2)
    # |01> and |10> contribute only through their |psi+> component.
    return np.swapaxes(outputs[..., [0, 1, 1, 2], :], -1, -2) \
        * np.array([1.0, 1.0 / math.sqrt(2), 1.0 / math.sqrt(2), 1.0])


# --------------------------------------------------------------------------
# Cloner simulations
# --------------------------------------------------------------------------

def _sifting_masks() -> dict[str, np.ndarray]:
    """The BB84 sifting rule as masks over (signal, basis, outcome, double-click bit), by the count each sums.

    Signal i carries bit i % 2 in basis i // 2; a double click reads as its
    double-click bit, so a sifted one is an error half the time.
    """
    signal, basis, outcome, double_bit = np.indices((4, 2, len(DetectionOutcome), 2))
    clicked = outcome != DetectionOutcome.VACUUM
    is_double = outcome == DetectionOutcome.DOUBLE
    measured_bit = np.where(is_double, double_bit, outcome == DetectionOutcome.CLICK1)
    matched = signal // 2 == basis
    sifted = matched & clicked
    return {"raw_clicks": clicked, "sifted_bits": sifted, "sifted_errors": sifted & (measured_bit != signal % 2),
            "double_clicks_matched": is_double & matched, "double_clicks_mismatched": is_double & ~matched}


_SIFTING_MASKS = _sifting_masks()


def _receiver_table(rho_bob, signals, eta_det: float) -> np.ndarray:
    """(..., signal, basis, 4) outcome table of a (..., signal, 4, 4) receiver stack, in each basis of signals."""
    bases = dict.fromkeys(signal.basis for signal in signals)
    return np.stack([outcome_distribution(fock_from_symmetric(rho_bob, basis), eta_det) for basis in bases], -2)


class SimulationReport(namedtuple("SimulationReport", "disturbance probe_plus probe_minus info_closed_form "
                                                       "info_measurement_search deltas")):
    """Simulation-versus-closed-form comparison for one cloning machine setting, as a named tuple.

    deltas holds named absolute deviations; every value is finite and the
    report is reproducible from the machine parameter and the seed.  The
    probes are the attacker's states for the diagonal signals, as arrays.
    """

    __slots__ = ()


def _signal_states(us: np.ndarray, kets: np.ndarray):
    """Receiver states, probe states and norm defects of inputs sent through attack isometries.

    us is a (..., 16, 4) stack of attack isometries (see strategy_a_isometry)
    and kets a (..., n, 4) stack of two-photon inputs.  Returns the
    (..., n, 4, 4) receiver and probe states and the (..., n) norm defects.
    """
    out = kets @ np.swapaxes(us, -1, -2)
    rho = out[..., :, None] * out[..., None, :].conj()
    return (partial_trace(rho, keep="a", dims=(4, 4)), partial_trace(rho, keep="b", dims=(4, 4)),
            np.abs(np.linalg.norm(out, axis=-1) - 1.0))


def _drive(us: np.ndarray, signals, eta_det: float, rng_seed: int):
    """Send each signal's two-photon encoding through a (k, 16, 4) stack of attack isometries.

    Setting i also sends eight random states of the symmetric subspace,
    drawn from rng_seed + i: random superpositions must be preserved, not
    only the four BB84 signals.  Returns, per setting, each signal's sifted
    error rate, the weight of the error mask over that of the sifted mask in
    its receiver table split evenly over the double-click bit (signals laid
    out as in _sifting_masks), the attacker probes of the diagonal bit-0 and
    bit-1 signals, the largest norm defect (over the signals and the random
    states) and the largest singlet weight of a receiver state.
    """
    if eta_det <= 0.0:
        raise ValueError("sifted error rate undefined at zero efficiency")
    k, n = len(us), len(signals)
    draws = np.stack([np.random.default_rng(rng_seed + i).normal(size=(8, 2, 3)) for i in range(k)])
    amp = draws[..., 0, :] + 1j * draws[..., 1, :]
    sym = np.stack([amp[..., 0], amp[..., 1] / math.sqrt(2), amp[..., 1] / math.sqrt(2), amp[..., 2]], -1)
    sym = sym / np.linalg.norm(sym, axis=-1, keepdims=True)
    encoded = np.broadcast_to([symmetric_encode(signal) for signal in signals], (k, n, 4))
    rho_bob, rho_eve, defect = _signal_states(us, np.concatenate([encoded, sym], -2))
    rho_bob = rho_bob[:, :n]
    p = 0.5 * _receiver_table(rho_bob, signals, eta_det)[..., None]
    errors, sifted = (np.sum(p * _SIFTING_MASKS[mask], axis=(-3, -2, -1)) for mask in ("sifted_errors", "sifted_bits"))
    plus, minus = (signals.index(Bb84Signal(Basis.DIAGONAL, bit)) for bit in (0, 1))
    return (errors / sifted, rho_eve[:, plus], rho_eve[:, minus], np.max(defect, -1),
            np.max(singlet_weight(rho_bob), -1))


def _reports(disturbance, rho_p, rho_m, info_closed, info_numeric, deltas) -> list[SimulationReport]:
    """One SimulationReport per grid setting from the stacked results."""
    return [SimulationReport(disturbance=float(disturbance[i]), probe_plus=rho_p[i], probe_minus=rho_m[i],
                             info_closed_form=float(info_closed[i]),
                             info_measurement_search=float(info_numeric[i]),
                             deltas={key: float(value[i]) for key, value in deltas.items()})
            for i in range(len(disturbance))]


def simulate_strategy_a_grid(betas, *, eta_det: float, rng_seed: int) -> list[SimulationReport]:
    """Drive the universal cloner end to end at each beta and compare with the closed forms.

    The isometries of the grid are built and driven as one stack; setting i
    draws its random states from rng_seed + i.  For each BB84 signal the
    receiver pair is forwarded through the detector model to measure the
    sifted error rate.  The attacker probes are compared entry by entry with
    the closed-form probe states at the machine's own D = 2 beta^2, where
    sqrt(1 - 4D) amplifies no round-off of the measured D; the probe overlap
    is compared phase-free, as Tr(P+ P-) of the normalized {phi+, psi+}
    blocks, and the information formula against a blockwise measurement search.
    """
    betas = np.asarray(betas, dtype=float)
    errors, rho_p, rho_m, defects, singlets = _drive(strategy_a_isometry(betas), SIGNALS,
                                                     eta_det, rng_seed)
    disturbance = np.mean(errors, -1)
    closed = np.array([attacks.strategy_a_probe_states(d) for d in (2.0 * betas**2).tolist()])

    # Both probes in the basis of their blocks: the product block must carry
    # weight 2D, and each normalized {phi+, psi+} block is the projector onto
    # a pure probe component, known only up to phase.
    m = _in_basis(np.stack([rho_p, rho_m]), [ket for pair in _BLOCKS_A for ket in pair])
    prod_weight = np.trace(m[0, :, :2, :2], axis1=-2, axis2=-1).real
    pure = m[..., 2:, 2:] / np.trace(m[..., 2:, 2:], axis1=-2, axis2=-1).real[..., None, None]
    overlap_sq = np.einsum("kij,kji->k", pure[0], pure[1]).real

    info_closed = attacks.strategy_a_information(disturbance)
    info_numeric = _blockwise_numeric_info(rho_p, rho_m, _BLOCKS_A)
    return _reports(disturbance, rho_p, rho_m, info_closed, info_numeric, {
        "isometry_defect": defects,
        "bob_singlet_weight": singlets,
        "error_rate_spread": np.ptp(errors, -1),
        "probe_vs_closed_form": np.max(np.abs(np.stack([rho_p, rho_m], 1) - closed), axis=(1, 2, 3)),
        "overlap_vs_closed_form": np.abs(overlap_sq - attacks.strategy_a_probe_overlap(disturbance) ** 2),
        "product_block_weight_vs_2d": np.abs(prod_weight - 2.0 * disturbance),
        "information_vs_measurement_search": np.abs(info_closed - info_numeric),
    })


def simulate_strategy_a(beta: float, *, eta_det: float, rng_seed: int) -> SimulationReport:
    """simulate_strategy_a_grid at the single setting beta."""
    return simulate_strategy_a_grid([beta], eta_det=eta_det, rng_seed=rng_seed)[0]


def simulate_strategy_b_grid(gammas, *, eta_det: float, rng_seed: int) -> list[SimulationReport]:
    """Drive the phase-covariant cloner at each gamma and compare with the closed forms.

    The isometries of the grid are built and driven as one stack; setting i
    draws its random states from rng_seed + i.  Verifies the disturbance
    formula against the sifted error rate of all four equatorial signals,
    the probe matrices (times 16) against the closed-form coefficients, the
    a<->c / d<->f exchange between the two probes, and the information
    formula against a blockwise measurement search.
    """
    gammas = np.asarray(gammas, dtype=float)
    errors, rho_p, rho_m, defects, singlets = _drive(strategy_b_isometry(gammas),
                                                     STRATEGY_B_SIGNALS, eta_det, rng_seed)
    disturbance = np.mean(errors, -1)
    g = gammas.tolist()
    ref = np.array([attacks.strategy_b_probe_matrices(x) for x in g])
    m = _in_basis(np.stack([rho_p, rho_m], 1), _DIAG_KETS) * 16.0
    info_closed = np.array([attacks.strategy_b_information(x) for x in g])
    info_numeric = _blockwise_numeric_info(rho_p, rho_m, _BLOCKS_B)
    return _reports(disturbance, rho_p, rho_m, info_closed, info_numeric, {
        "isometry_defect": defects,
        "bob_singlet_weight": singlets,
        "error_rate_spread": np.ptp(errors, -1),
        "disturbance_vs_closed_form": np.abs(disturbance - [attacks.strategy_b_disturbance(x) for x in g]),
        "coefficients_vs_closed_form": np.max(np.abs(m - ref), axis=(1, 2, 3)),
        "probe_exchange_symmetry": np.max(np.abs(m[:, 1] - m[:, 0, ::-1, ::-1]), axis=(1, 2)),
        "information_vs_measurement_search": np.abs(info_closed - info_numeric),
    })


def simulate_strategy_b(gamma: float, *, eta_det: float, rng_seed: int) -> SimulationReport:
    """simulate_strategy_b_grid at the single setting gamma."""
    return simulate_strategy_b_grid([gamma], eta_det=eta_det, rng_seed=rng_seed)[0]


# --------------------------------------------------------------------------
# Per-pulse Monte Carlo
# --------------------------------------------------------------------------

class MonteCarloStats(namedtuple("MonteCarloStats", "attack n_pulses raw_clicks sifted_bits sifted_errors "
                                                     "double_clicks_matched double_clicks_mismatched "
                                                     "expected_raw_click_rate")):
    """Empirical per-pulse protocol statistics with binomial standard errors, as a named tuple."""

    __slots__ = ()

    @property
    def raw_click_rate(self) -> float:
        return self.raw_clicks / self.n_pulses

    @property
    def raw_click_rate_se(self) -> float:
        return _binomial_se(self.raw_click_rate, self.n_pulses)

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


def _attack_tables(attack: str, disturbance: float, eta: float) -> np.ndarray:
    """The (2, 4, 2, 4) outcome table of one attack.

    table[pulse type, signal, basis] is the outcome distribution of a single
    (pulse type 0) or two-photon (pulse type 1) pulse.  The PNS process and
    strategy A use the rectilinear and diagonal signals, strategy B the
    diagonal and circular ones, both laid out as in _sifting_masks.
    """
    if attack not in ("PNS", "CloneA", "CloneB"):
        raise ValueError(f"attack must be 'PNS', 'CloneA' or 'CloneB', got {attack!r}")
    signals = STRATEGY_B_SIGNALS if attack == "CloneB" else SIGNALS

    if attack == "PNS":
        # split pulse: one untouched photon forwarded.  Single photons meet
        # the optimal single-photon attack, which flips the bit with
        # probability D in the matching basis and randomizes it otherwise.
        w0 = np.array([[abs(np.vdot(basis_kets(basis)[0], signal_ket(signal))) ** 2
                        for basis in dict.fromkeys(s.basis for s in signals)] for signal in signals])
        signal = np.arange(4)
        w0_matched = np.where(signal % 2 == 0, 1.0 - disturbance, disturbance)
        w0_attacked = np.where(np.equal.outer(signal // 2, range(2)), w0_matched[:, None], 0.5)
        two_rows, single_rows = (outcome_distribution({(1, 0): w, (0, 1): 1.0 - w}, eta)
                                 for w in (w0, w0_attacked))
    else:
        if attack == "CloneA":
            u = strategy_a_isometry(attacks.clone_a_params_for_disturbance(disturbance))
        else:
            u = strategy_b_isometry(attacks.gamma_for_disturbance(disturbance))
        single_rows = np.zeros((4, 2, len(DetectionOutcome)))
        single_rows[..., DetectionOutcome.VACUUM] = 1.0  # single photons are blocked
        rho_bob = _signal_states(u, np.array([symmetric_encode(signal) for signal in signals]))[0]
        two_rows = _receiver_table(rho_bob, signals, eta)
    # Round-off leaves entries near -1e-17 where an outcome cannot occur
    # (strategy A at eta_det 1); _tallies needs every entry nonnegative.
    return np.maximum(np.stack([single_rows, two_rows]), 0.0)


#: Pulses per block of _tallies: five blocks of random numbers and the
#: per-table work on them stay in a 2 MB L2 cache.
_BLOCK = 1 << 16


def _tallies(n_pulses: int, p_two: float, seed: int, tables) -> np.ndarray:
    """The 128 (cell, outcome, double-click bit) counts of every outcome table, from one seed.

    The seed drives five streams of n_pulses each, in this order: pulse type
    (a uniform below p_two means two photons), signal, basis, outcome uniform
    and double-click bit.  They are the successive draws of
    np.random.default_rng(seed), read from five PCG64 copies advanced to the
    start of each stream and consumed in blocks of _BLOCK pulses.  A double
    takes one u64, and an integer below 2 or 4 the top bits of one 32-bit
    half (never rejected), low half first.  So the signal stream spans n/2
    u64s, and for odd n the basis stream opens on the high half of the u64
    at n + n//2: one discarded draw below 2 spends its low half, and the
    bit generator keeps the high half for the next 32-bit draw.

    A pulse's cell = (pulse type * 4 + signal) * 2 + basis indexes the 16
    rows of a flattened table, and its outcome is the number of the row's
    CDF entries below its uniform.  With every entry nonnegative each CDF
    row never decreases, so the first three entries decide the outcome and a
    uniform past the last one still gives DOUBLE.  Returns a
    (len(tables), 128) count array indexed by (cell * 4 + outcome) * 2 +
    double-click bit.
    """
    if any(np.any(table < 0.0) for table in tables):
        raise ValueError("outcome table has a negative entry")
    cdfs = [np.cumsum(table, axis=-1).reshape(16, 4).T[:3].copy() for table in tables]
    gens = [np.random.Generator(np.random.PCG64(seed)) for _ in range(5)]
    for gen, offset in zip(gens, (0, n_pulses, n_pulses + n_pulses // 2, 2 * n_pulses, 3 * n_pulses)):
        gen.bit_generator.advance(offset)
    if n_pulses % 2:
        gens[2].integers(0, 2)  # spends the low half of the u64 at n + n//2
    pulse_type, signal, basis, uniform, double_bit = gens

    counts = np.zeros((len(tables), 128), dtype=np.int64)
    for start in range(0, n_pulses, _BLOCK):
        size = min(_BLOCK, n_pulses - start)
        is_two = pulse_type.random(size) < p_two
        cell = signal.integers(0, 4, size=size)
        cell += is_two * 4
        cell *= 2
        cell += basis.integers(0, 2, size=size)
        u = uniform.random(size)
        base = cell * 8
        base += double_bit.integers(0, 2, size=size)
        for tally, cdf in zip(counts, cdfs):
            outcome = np.zeros(size, dtype=np.int8)
            for k in range(DetectionOutcome.DOUBLE):
                outcome += (u > np.take(cdf[k], cell)).view(np.int8)
            outcome <<= 1
            tally += np.bincount(base + outcome, minlength=128)
    return counts


def monte_carlo_protocols(scenario: channel.ChannelScenario, names: tuple[str, ...],
                          disturbance: float, *, n_pulses: int, seed: int) -> tuple[MonteCarloStats, ...]:
    """Sample the per-pulse protocol for several attacks at matched raw rates.

    Pulses carry two photons with the rate-matching probability
    1/(2 - eta_det) and one photon otherwise.  The attack transforms them
    (splitting, cloning, or blocking), the receiver picks a random basis and
    the four-outcome detector model fires; double clicks are assigned a
    random bit during sifting.

    One seed drives five random sub-streams (_tallies), read together in
    blocks of _BLOCK pulses, and every attack in names is tallied on each
    block; so each attack's statistics equal those of its own
    monte_carlo_protocol call at the same seed.  Each pulse falls in one of
    16 (pulse type, signal, measured basis) cells; its uniform is compared
    with three entries of the cell's outcome CDF, and one bincount per block
    and attack counts (cell, outcome, double-click bit).  The masks of
    _sifting_masks, with a pulse-type axis, sum the 128 tallies to the
    counts, and the click mask sums the entries' exact probabilities to the
    expected raw click rate.  The sampler's memory does not grow with
    n_pulses, and its time grows linearly.

    Identical inputs and seed reproduce identical statistics.  Returns one
    MonteCarloStats per attack, in the order of names.
    """
    if n_pulses < 1:
        raise ValueError(f"n_pulses must be at least 1, got {n_pulses}")
    if not 0.0 <= disturbance <= 0.5:
        raise ValueError(f"disturbance must lie in [0, 1/2], got {disturbance}")

    eta = scenario.eta_det
    p_two = attacks.matched_two_photon_fraction(eta)
    tables = [_attack_tables(name, disturbance, eta) for name in names]
    all_counts = _tallies(n_pulses, p_two, seed, tables)

    # an entry's exact probability: its pulse type's weight, 1/4 per signal, 1/2 per basis and per bit
    cell_weight = np.array([1.0 - p_two, p_two])[:, None, None, None, None] / 16
    masks = {field: np.broadcast_to(mask, (2, *mask.shape)) for field, mask in _SIFTING_MASKS.items()}

    results = []
    for name, table, counts in zip(names, tables, all_counts):
        counts = counts.reshape(masks["raw_clicks"].shape)
        probability = np.broadcast_to(cell_weight * table[..., None], counts.shape)
        results.append(MonteCarloStats(
            attack=name, n_pulses=n_pulses,
            **{field: int(counts[mask].sum()) for field, mask in masks.items()},
            expected_raw_click_rate=float(probability[masks["raw_clicks"]].sum()),
        ))
    return tuple(results)


def monte_carlo_protocol(scenario: channel.ChannelScenario, attack: str,
                         disturbance: float, *, n_pulses: int, seed: int) -> MonteCarloStats:
    """Sample the per-pulse protocol for one attack: monte_carlo_protocols with names (attack,)."""
    return monte_carlo_protocols(scenario, (attack,), disturbance, n_pulses=n_pulses, seed=seed)[0]
