"""Eavesdropping processes on the matched-rate two-photon/one-photon ensemble.

Three processes act on a pulse ensemble containing a fraction p of two-photon
signals and 1-p of single-photon signals:

* PNS process: split one photon off every two-photon pulse (full information
  after basis announcement, no disturbance) and run the optimal individual
  attack on the single-photon pulses at disturbance D.

* Strategy A: block the single-photon pulses and send every two-photon pulse
  through a universal asymmetric 2->3 cloning machine.  Two clones go to the
  receiver, the third plus the machine qubit form the attacker's probe.

* Strategy B: same structure with a phase-covariant 2->3 cloning machine,
  which clones equatorial qubits (Bloch vectors with zero z component) better
  than the universal machine at the price of basis dependence.

Requiring all three to produce the same raw click rate at detectors of
efficiency eta_det fixes p = 1/(2 - eta_det), after which the cloning
informations depend only on the disturbance while the PNS information keeps
an explicit eta_det dependence.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .detection import conditional_error_rate
from .infotheory import DOMAIN_SLACK, fuchs_information, phi
from .linalg import Operator, _freeze, partial_trace
from .optics import KET_MINUS, KET_PLUS, SIGNALS, basis_kets, symmetric_encode

D_INVERSION_TOL = 1e-10

# Bell states, computational ordering |00>, |01>, |10>, |11>.
PHI_PLUS = _freeze(np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2))
PHI_MINUS = _freeze(np.array([1.0, 0.0, 0.0, -1.0]) / math.sqrt(2))
PSI_PLUS = _freeze(np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2))
PSI_MINUS = _freeze(np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2))

#: Pauli matrices.
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_I2 = np.eye(2, dtype=complex)

#: Circular-polarization kets; together with |+->, these span the two
#: equatorial bases that the phase-covariant machine treats symmetrically.
KET_R = _freeze(np.array([1.0, 1.0j]) / math.sqrt(2))
KET_L = _freeze(np.array([1.0, -1.0j]) / math.sqrt(2))

#: BB84 basis pair for strategy B.  The phase-covariant machine is covariant
#: under rotations about the z axis only, so the protocol's two mutually
#: unbiased bases must both lie on the equator of the Bloch sphere: the
#: diagonal and circular bases.  (A universal machine, strategy A, is frame
#: independent and works with any pair.)
STRATEGY_B_BASES = ((KET_PLUS, KET_MINUS), (KET_R, KET_L))

_BISECT_RTOL = 4.0 * sys.float_info.epsilon
_BISECT_MAX_STEPS = 100


# --------------------------------------------------------------------------
# Root finding
# --------------------------------------------------------------------------

def bisect(f, lo, hi, xtol: float):
    """Root of f bracketed by [lo, hi], located by interval halving.

    Each step halves the step width and moves lo to the midpoint whenever f
    there has the sign of f at the original lo.  Stops when f vanishes at the
    midpoint or the step falls below xtol + 4 eps |midpoint|, and returns the
    midpoint; an endpoint where f vanishes is returned as it is.  Raises
    ValueError when f(lo) and f(hi) share a sign and RuntimeError after 100
    steps.  Values of f are multiplied by the sign of f(lo), not by f(lo),
    since the product of two tiny values underflows to 0.

    lo and hi are floats, or numpy arrays of brackets (broadcast together) for
    an f that maps arrays elementwise.  An array bracket is bisected in one
    masked loop in which every element takes the steps of the float loop, so
    the roots are bit-equal to those of one float call per element; the
    errors are raised when any element fails.  The float loop avoids numpy's
    per-call cost, which dominates a single bracket.
    """
    if isinstance(lo, np.ndarray) or isinstance(hi, np.ndarray):
        return _bisect_elementwise(f, lo, hi, xtol)
    lo, hi = float(lo), float(hi)
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    sign_lo = math.copysign(1.0, f_lo)
    if f_hi * sign_lo > 0.0:
        raise ValueError(f"f({lo}) and f({hi}) must have different signs")
    step = hi - lo
    for _ in range(_BISECT_MAX_STEPS):
        step *= 0.5
        mid = lo + step
        f_mid = f(mid)
        if f_mid * sign_lo >= 0.0:
            lo = mid
        if f_mid == 0.0 or abs(step) < xtol + _BISECT_RTOL * abs(mid):
            return mid
    raise RuntimeError(f"bisection did not converge in {_BISECT_MAX_STEPS} steps")


def _bisect_elementwise(f, lo, hi, xtol: float) -> np.ndarray:
    """The steps of bisect applied to every element of an array bracket.

    f is evaluated on whole arrays; an element that has stopped keeps its
    root while its midpoint, still inside its bracket, is carried along.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    f_lo, f_hi = f(lo), f(hi)
    sign_lo = np.copysign(1.0, f_lo)
    active = (f_lo != 0.0) & (f_hi != 0.0)
    same_sign = active & (f_hi * sign_lo > 0.0)
    if same_sign.any():
        i = np.flatnonzero(same_sign)[0]
        raise ValueError(f"f({lo.flat[i]}) and f({hi.flat[i]}) must have different signs")
    root = np.where(f_lo == 0.0, lo, hi)
    step = hi - lo
    for _ in range(_BISECT_MAX_STEPS):
        if not active.any():
            return root
        step = step * 0.5
        mid = lo + step
        f_mid = f(mid)
        lo = np.where(f_mid * sign_lo >= 0.0, mid, lo)
        done = active & ((f_mid == 0.0) | (np.abs(step) < xtol + _BISECT_RTOL * np.abs(mid)))
        root[done] = mid[done]
        active &= ~done
    if active.any():
        raise RuntimeError(f"bisection did not converge in {_BISECT_MAX_STEPS} steps")
    return root


# --------------------------------------------------------------------------
# PNS process
# --------------------------------------------------------------------------

def pns_information(p: float, disturbance: float) -> float:
    """Attacker information of the PNS process.

    Splitting gives full information on the fraction p; the remaining pulses
    carry the optimal single-photon attack at disturbance D:
    p + (1-p) fuchs_information(D).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"two-photon fraction must lie in [0, 1], got {p}")
    return p + (1.0 - p) * fuchs_information(disturbance)


def matched_two_photon_fraction(eta_det: float) -> float:
    """Two-photon fraction equalizing the raw click rates of all processes.

    The PNS process clicks at rate p*eta + (1-p)*eta while the cloning
    processes click at p*eta*(2-eta); equality gives p = 1/(2 - eta_det).
    """
    if not 0.0 < eta_det <= 1.0:
        raise ValueError(f"eta_det must lie in (0, 1], got {eta_det}")
    return 1.0 / (2.0 - eta_det)


def pns_information_matched(eta_det: float, disturbance: float) -> float:
    """PNS information at the rate-matched two-photon fraction 1/(2 - eta_det)."""
    return pns_information(matched_two_photon_fraction(eta_det), disturbance)


# --------------------------------------------------------------------------
# Strategy A: universal asymmetric 2->3 cloner
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CloneAParams:
    """Cloning asymmetry for the universal machine, alpha^2 + 8 beta^2 = 1."""

    beta: float

    def __post_init__(self):
        if not 0.0 <= 8.0 * self.beta**2 <= 1.0 + DOMAIN_SLACK:
            raise ValueError(f"beta must satisfy 0 <= 8 beta^2 <= 1, got beta={self.beta}")

    @property
    def alpha(self) -> float:
        return math.sqrt(max(0.0, 1.0 - 8.0 * self.beta**2))


def _sigma_tilde(sigma: np.ndarray) -> np.ndarray:
    """Symmetrized one-qubit operator sigma (x) 1 + 1 (x) sigma."""
    return np.kron(sigma, _I2) + np.kron(_I2, sigma)


def strategy_a_unitary(params: CloneAParams) -> Operator:
    """Isometric extension of the universal asymmetric cloner on four qubits.

    Acting on a two-qubit signal s and the probe prepared in |00>,

        U |s>|00> = alpha |s>|phi+> + beta (sz~ |s>|phi-> + sx~ |s>|psi+>
                                            + i sy~ |s>|psi->),

    with sk~ = sigma_k (x) 1 + 1 (x) sigma_k.  Qubits are ordered (receiver 1,
    receiver 2, probe 1, probe 2).  Columns whose probe part is not |00> are
    left zero; the map is isometric on (symmetric subspace) (x) |00>.
    """
    alpha, beta = params.alpha, params.beta
    tz, tx, ty = _sigma_tilde(SIGMA_Z), _sigma_tilde(SIGMA_X), _sigma_tilde(SIGMA_Y)
    u = np.zeros((16, 16), dtype=complex)
    for col_signal in range(4):
        s = np.zeros(4, dtype=complex)
        s[col_signal] = 1.0
        out = alpha * np.kron(s, PHI_PLUS)
        out += beta * np.kron(tz @ s, PHI_MINUS)
        out += beta * np.kron(tx @ s, PSI_PLUS)
        out += 1.0j * beta * np.kron(ty @ s, PSI_MINUS)
        u[:, col_signal * 4] = out  # probe input fixed to |00>
    return Operator(u)


def _strategy_a_domain(disturbance: float) -> float:
    """The disturbance clamped to 1/4, after checking it lies in [0, 1/4]."""
    if not 0.0 <= disturbance <= 0.25 + DOMAIN_SLACK:
        raise ValueError(f"strategy A disturbance must lie in [0, 1/4], got {disturbance}")
    return min(disturbance, 0.25)


def strategy_a_probe_states(disturbance: float) -> tuple[Operator, Operator]:
    """Attacker probe states for the diagonal signals under strategy A.

    For the two-photon signals |+>|+> and |->|-> the probes are

        rho_+- = 2D |-+/+-><...| + (1-2D) |phi_+-><phi_+-|,
        |phi_+-> = (sqrt(1-4D) |phi+> +- sqrt(2D) |psi+>) / sqrt(1-2D),

    so a weight 2D lands in a perfectly distinguishing product block and the
    rest in a pure pair of overlap (1-6D)/(1-2D).  Requires D <= 1/4.
    """
    d = _strategy_a_domain(disturbance)
    if d >= 0.25:
        varphi_p, varphi_m = PSI_PLUS, -PSI_PLUS
    else:
        scale = 1.0 / math.sqrt(1.0 - 2.0 * d)
        varphi_p = scale * (math.sqrt(1.0 - 4.0 * d) * PHI_PLUS
                            + math.sqrt(2.0 * d) * PSI_PLUS)
        varphi_m = scale * (math.sqrt(1.0 - 4.0 * d) * PHI_PLUS
                            - math.sqrt(2.0 * d) * PSI_PLUS)
    minus_plus = np.kron(KET_MINUS, KET_PLUS)
    plus_minus = np.kron(KET_PLUS, KET_MINUS)
    rho_p = 2.0 * d * np.outer(minus_plus, minus_plus.conj()) \
        + (1.0 - 2.0 * d) * np.outer(varphi_p, varphi_p.conj())
    rho_m = 2.0 * d * np.outer(plus_minus, plus_minus.conj()) \
        + (1.0 - 2.0 * d) * np.outer(varphi_m, varphi_m.conj())
    return Operator(rho_p), Operator(rho_m)


def strategy_a_probe_overlap(disturbance: float) -> float:
    """Overlap <phi_+|phi_-> = (1-6D)/(1-2D) of the nonorthogonal probe pair."""
    d = _strategy_a_domain(disturbance)
    return (1.0 - 6.0 * d) / (1.0 - 2.0 * d)


def strategy_a_information(disturbance: float) -> float:
    """Attacker information of strategy A as a function of the disturbance.

    2D + (1-2D) Phi(sqrt(8D(1-4D))/(1-2D))/2: the product block is read out
    perfectly, the pure pair contributes its two-state accessible information.
    By universality of the machine this is also the average over all four
    signals.
    """
    d = _strategy_a_domain(disturbance)
    arg = math.sqrt(max(0.0, 8.0 * d * (1.0 - 4.0 * d))) / (1.0 - 2.0 * d)
    return 2.0 * d + (1.0 - 2.0 * d) * 0.5 * phi(min(1.0, arg))


def clone_a_disturbance(params: CloneAParams, eta_det: float = 0.5) -> float:
    """Disturbance induced by the universal cloner, measured from the machine.

    Builds the unitary, forwards the receiver qubits for each of the four
    BB84 signals and evaluates the sifted error probability (wrong clicks
    plus half the double clicks, conditioned on a click).  The value is
    independent of eta_det and of the signal; no closed form is assumed.
    """
    u = strategy_a_unitary(params).entries
    errors = []
    for signal in SIGNALS:
        vec_in = np.kron(symmetric_encode(signal), [1.0, 0.0, 0.0, 0.0])
        out = u @ vec_in
        rho = np.outer(out, out.conj())
        rho_bob = partial_trace(Operator(rho), keep="a", dims=(4, 4))
        errors.append(conditional_error_rate(rho_bob, basis_kets(signal.basis),
                                             eta_det, correct_bit=signal.bit))
    spread = max(errors) - min(errors)
    if spread > 1e-10:
        raise RuntimeError(f"universal cloner produced signal-dependent disturbance, spread {spread}")
    return float(np.mean(errors))


def clone_a_params_for_disturbance(disturbance: float) -> CloneAParams:
    """Machine setting of the universal cloner for a target disturbance.

    The machine-level map is D(beta) = 2 beta^2, so beta = sqrt(D/2).
    clone_a_disturbance measures the map from the unitary; verification
    checks this inverse against it.
    """
    return CloneAParams(beta=math.sqrt(_strategy_a_domain(disturbance) / 2.0))


# --------------------------------------------------------------------------
# Strategy B: phase-covariant 2->3 cloner
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CloneBParams:
    """Interaction angle of the phase-covariant machine, 0 <= gamma <= pi."""

    gamma: float

    def __post_init__(self):
        if not 0.0 <= self.gamma <= math.pi + DOMAIN_SLACK:
            raise ValueError(f"gamma must lie in [0, pi], got {self.gamma}")


def _v_images(gamma: float) -> dict[str, np.ndarray]:
    """Images of the symmetric basis under the three-qubit isometry V."""
    c, s = math.cos(gamma), math.sin(gamma)
    n1 = math.sqrt(1.0 + c * c)
    n2 = math.sqrt(1.0 + s * s)
    e = np.eye(8)

    def k(bits: str) -> np.ndarray:
        return e[int(bits, 2)].astype(complex)

    return {
        "00": k("000"),
        "psi+": (c * (k("010") + k("100")) + s * k("001")) / n1,
        "11": (c * k("110") + s * (k("011") + k("101"))) / n2,
    }


def strategy_b_unitary(params: CloneBParams) -> Operator:
    """Isometric extension of the phase-covariant cloner on four qubits.

    The machine acts as U|s>|00> = [(V|s>|0>)|0> + (V~|s>|0>)|1>]/sqrt(2)
    where V maps |00>|0> to |000>, |psi+>|0> and |11>|0> to the gamma-weighted
    superpositions fixed by the machine, and V~ is V conjugated by bit flips
    on every qubit (flip the signal, apply V, flip all three outputs).  The
    1/sqrt(2) makes the extension isometric; the last output qubit records
    which branch acted.  Qubits are ordered (receiver 1, receiver 2, probe 1,
    probe 2); the singlet component of the input is annihilated since the
    machine is only defined on the symmetric subspace.
    """
    v = _v_images(params.gamma)
    x3 = np.kron(np.kron(SIGMA_X, SIGMA_X), SIGMA_X).real
    vt = {"00": x3 @ v["11"], "psi+": x3 @ v["psi+"], "11": x3 @ v["00"]}

    outputs = {}
    for key in ("00", "psi+", "11"):
        outputs[key] = (np.kron(v[key], [1.0, 0.0]) + np.kron(vt[key], [0.0, 1.0])) / math.sqrt(2)

    # Express the action on the computational two-qubit basis; |01> and |10>
    # contribute only through their |psi+> component.
    sym_components = {
        0: [("00", 1.0)],
        1: [("psi+", 1.0 / math.sqrt(2))],
        2: [("psi+", 1.0 / math.sqrt(2))],
        3: [("11", 1.0)],
    }
    u = np.zeros((16, 16), dtype=complex)
    for col_signal, parts in sym_components.items():
        col = np.zeros(16, dtype=complex)
        for key, amp in parts:
            col += amp * outputs[key]
        u[:, col_signal * 4] = col  # probe input fixed to |00>
    return Operator(u)


def strategy_b_coefficients(gamma: float) -> tuple[float, float, float, float, float, float]:
    """Closed-form entries (a, b, c, d, e, f) of the strategy-B probe matrices.

    Sixteen times the probe-state entries in the ordered product basis
    (|++>, |+->, |-+>, |-->); a, b, c fill the {|++>, |-->} block and d, e, f
    the {|+->, |-+>} block.  The trace identity a + c + d + f = 16 holds for
    every gamma.
    """
    if not 0.0 <= gamma <= math.pi + DOMAIN_SLACK:
        raise ValueError(f"gamma must lie in [0, pi], got {gamma}")
    c, s = math.cos(gamma), math.sin(gamma)
    c2g, s2g, c4g = math.cos(2 * gamma), math.sin(2 * gamma), math.cos(4 * gamma)
    r3 = math.sqrt(3.0 + c2g)
    rs = math.sqrt(1.0 + s * s)
    shared_ac = 2.0 * c / rs + c * c * (8.0 / (1.0 + c * c) + 1.0 / (1.0 + s * s)) \
        + 4.0 * s * s * (1.0 / (3.0 + c2g) + 1.0 / (1.0 + s * s))
    odd_ac = 4.0 * s / r3 + 10.0 * s2g / (r3 * rs)
    a = 1.0 + odd_ac + shared_ac
    c_coef = 1.0 - odd_ac + shared_ac
    b = 1.0 + 2.0 * c / rs + 8.0 * s * s * (9.0 + c2g) / (-17.0 + c4g) \
        + c * c * (8.0 / (1.0 + c * c) + 1.0 / (1.0 + s * s))
    shared_df = 4.0 * s * s / (3.0 + c2g) + c * c / (1.0 + s * s) - 2.0 * c / rs
    d = 1.0 + shared_df + 4.0 * s * (-c + rs) / (r3 * rs)
    e = 1.0 + shared_df - 8.0 * s * s / (3.0 + c2g)
    f = 1.0 + shared_df - 4.0 * s / r3 + 2.0 * s2g / (r3 * rs)
    return a, b, c_coef, d, e, f


def strategy_b_probe_matrices(gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Sixteen times the two strategy-B probes in the (|++>,|+->,|-+>,|-->) basis.

    Laid out from the closed-form coefficients; the |->|-> probe is the
    |+>|+> probe with a <-> c and d <-> f exchanged.
    """
    a, b, c, d, e, f = strategy_b_coefficients(gamma)
    m_plus = np.array([
        [a, 0.0, 0.0, b],
        [0.0, d, e, 0.0],
        [0.0, e, f, 0.0],
        [b, 0.0, 0.0, c],
    ])
    m_minus = np.array([
        [c, 0.0, 0.0, b],
        [0.0, f, e, 0.0],
        [0.0, e, d, 0.0],
        [b, 0.0, 0.0, a],
    ])
    return m_plus, m_minus


#: Columns are |++>, |+->, |-+>, |--> in the computational basis.
_DIAG_BASIS_MATRIX = _freeze(np.column_stack(
    [np.kron(x, y) for x in (KET_PLUS, KET_MINUS) for y in (KET_PLUS, KET_MINUS)]))


def probe_matrix_in_diagonal_basis(rho: Operator) -> np.ndarray:
    """Rewrite a two-qubit operator in the ordered (|++>,|+->,|-+>,|-->) basis."""
    t = _DIAG_BASIS_MATRIX
    return t.conj().T @ rho.entries @ t


def strategy_b_disturbance(gamma):
    """Disturbance of strategy B on the equatorial signals.

    D(gamma) = {1 - (cos(gamma) + 1/sqrt(1+sin^2 gamma)) / sqrt(2(1+cos^2 gamma))}/2,
    zero at gamma=0, 1/4 at gamma=pi/2 and 1/2 at gamma=pi, monotone on [0, pi].
    Takes a float, evaluated with math, or a numpy array, evaluated
    elementwise with numpy; every gamma must lie in [0, pi].
    """
    if isinstance(gamma, np.ndarray):
        xp = np
        in_range = np.all((0.0 <= gamma) & (gamma <= math.pi + DOMAIN_SLACK))
    else:
        xp = math
        in_range = 0.0 <= gamma <= math.pi + DOMAIN_SLACK
    if not in_range:
        raise ValueError(f"gamma must lie in [0, pi], got {gamma}")
    c, s = xp.cos(gamma), xp.sin(gamma)
    return 0.5 * (1.0 - (c + 1.0 / xp.sqrt(1.0 + s * s)) / xp.sqrt(2.0 * (1.0 + c * c)))


def strategy_b_information(gamma: float) -> float:
    """Attacker information of strategy B.

    {(a+c) Phi((a-c)/(a+c)) + (d+f) Phi((d-f)/(d+f))}/32, the blockwise
    two-state accessible information of the probe pair.  A vanishing block
    weight (d+f at gamma=0) contributes nothing.  The value stays strictly
    below 1 for every gamma: neither probe qubit ever reaches unit fidelity
    with the input.
    """
    a, _, c, d, _, f = strategy_b_coefficients(gamma)
    out = 0.0
    if a + c > 0.0:
        out += (a + c) * phi((a - c) / (a + c)) / 32.0
    if d + f > 1e-300:
        out += (d + f) * phi((d - f) / (d + f)) / 32.0
    return out


#: Largest disturbance reachable on the gamma branch used for curve inversion.
STRATEGY_B_MAX_DISTURBANCE = strategy_b_disturbance(math.pi / 2)


def gamma_for_disturbance(disturbance):
    """Invert D(gamma) on the monotone branch gamma in [0, pi/2].

    Takes a float and returns a float, or takes a numpy array and returns an
    array of the same shape from one elementwise bisection; each gamma is
    bit-equal to the float result for its disturbance.  Every disturbance
    must lie in [0, D(pi/2)]; the ends map to 0 and pi/2, the rest are located
    by bisection to |D(gamma) - D| <= 1e-10.  Angles beyond pi/2 reach larger
    disturbances but lower information; they are exposed only through direct
    evaluation at gamma.
    """
    top = STRATEGY_B_MAX_DISTURBANCE
    if isinstance(disturbance, np.ndarray):
        outside = ~((0.0 <= disturbance) & (disturbance <= top + DOMAIN_SLACK))
        if outside.any():
            raise ValueError(f"no gamma in [0, pi/2] reaches disturbance {disturbance[outside][0]}")
        # D(0) = 0 and D(pi/2) = top hold exactly, so bisect returns the ends
        # as endpoint roots.
        d = np.minimum(disturbance, top)
        edge = np.zeros(d.shape)
        gamma = bisect(lambda g: strategy_b_disturbance(g) - d, edge, edge + math.pi / 2,
                       xtol=1e-13)
        assert np.all(np.abs(strategy_b_disturbance(gamma) - d) <= D_INVERSION_TOL)
        return gamma
    d = disturbance
    if not 0.0 <= d <= top + DOMAIN_SLACK:
        raise ValueError(f"no gamma in [0, pi/2] reaches disturbance {d}")
    if d <= 0.0:
        return 0.0
    if d >= top:
        return math.pi / 2
    gamma = bisect(lambda g: strategy_b_disturbance(g) - d, 0.0, math.pi / 2, xtol=1e-13)
    assert abs(strategy_b_disturbance(gamma) - d) <= D_INVERSION_TOL
    return float(gamma)


# --------------------------------------------------------------------------
# Information-versus-disturbance curves
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class AttackCurvePoint:
    """Information of the three processes at one disturbance value.

    i_a and i_b are None where the disturbance is outside the strategy's
    reachable range (D > 1/4); values are never extrapolated.
    """

    disturbance: float
    i_pns: float
    i_a: float | None
    i_b: float | None


DEFAULT_CURVE_GRID_POINTS = 500


def default_disturbance_grid() -> np.ndarray:
    return np.linspace(0.0, 0.5, DEFAULT_CURVE_GRID_POINTS)


def information_curves(eta_det: float, d_grid=None) -> list[AttackCurvePoint]:
    """Sample the three information curves on a disturbance grid.

    d_grid is any iterable of disturbances in [0, 1/2], by default the
    500-point grid; output order follows it.  The strategy-B angles of all
    reachable points come from one array call of gamma_for_disturbance; the
    informations are then evaluated point by point.
    """
    if d_grid is None:
        d_grid = default_disturbance_grid()
    d_grid = [float(d) for d in d_grid]
    for d in d_grid:
        if not 0.0 <= d <= 0.5:
            raise ValueError(f"grid disturbances must lie in [0, 1/2], got {d}")
    d_arr = np.array(d_grid)
    reach_b = d_arr <= STRATEGY_B_MAX_DISTURBANCE + DOMAIN_SLACK
    gammas = iter(gamma_for_disturbance(d_arr[reach_b]).tolist())
    points = []
    for d, reachable in zip(d_grid, reach_b.tolist()):
        i_pns = pns_information_matched(eta_det, d)
        i_a = strategy_a_information(d) if d <= 0.25 + DOMAIN_SLACK else None
        i_b = strategy_b_information(next(gammas)) if reachable else None
        points.append(AttackCurvePoint(disturbance=d, i_pns=i_pns, i_a=i_a, i_b=i_b))
    return points
