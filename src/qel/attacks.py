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

The PNS and strategy-A informations and D(gamma) take a float, evaluated
with math, or a numpy array, evaluated element by element and bit-equal to
the float results (see infotheory).  Importing this module loads no numpy,
and information_curves stays on floats unless numpy is already loaded.  The
probe states and matrices import it when they are called; the machines
themselves, whose partial traces check these closed forms, are built in
oracle.  The inversion of D(gamma) takes a float or, once numpy is loaded,
an array; both forms replay bisect's steps on a bracket that Newton steps
find and D's values certify, so their angles are bit-equal.
"""
from __future__ import annotations

import functools
import math
import sys
from collections import namedtuple

from .infotheory import DOMAIN_SLACK, _math_for, _numpy_if_array, fuchs_information, phi

D_INVERSION_TOL = 1e-10

_BISECT_RTOL = 4.0 * sys.float_info.epsilon
_BISECT_MAX_STEPS = 100
_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


# --------------------------------------------------------------------------
# Root finding
# --------------------------------------------------------------------------

def _bracket(f, a: float, b: float):
    """(root, sign, f(a) * sign, f(b) * sign): the bracket contract of bisect and _itp_root.

    a and b are floats.  An end where f vanishes is root, even if the other end
    shares its sign.  Otherwise root is None, sign is the sign of f(b), and
    ValueError is raised for ends of one sign.  The finders multiply by sign,
    not by f(b): a product of two tiny values underflows to 0.
    """
    f_a, f_b = f(a), f(b)
    if f_a == 0.0 or f_b == 0.0:
        return (a if f_a == 0.0 else b), 0.0, 0.0, 0.0
    sign = math.copysign(1.0, f_b)
    if f_a * sign > 0.0:
        raise ValueError(f"f({a}) and f({b}) must have different signs")
    return None, sign, f_a * sign, f_b * sign


def bisect(f, lo: float, hi: float, xtol: float):
    """Root of f bracketed by [lo, hi] (see _bracket), located by interval halving.

    lo and hi are floats.  Each step halves the step and moves lo to the
    midpoint where f lacks the sign of f(hi).  Returns the midpoint where f
    vanishes or the step falls below xtol + 4 eps |midpoint|; RuntimeError
    after 100 steps.
    """
    root, sign, _, _ = _bracket(f, lo, hi)
    if root is not None:
        return root
    step = hi - lo
    for _ in range(_BISECT_MAX_STEPS):
        step *= 0.5
        mid = lo + step
        f_mid = f(mid)
        if f_mid * sign <= 0.0:
            lo = mid
        if f_mid == 0.0 or abs(step) < xtol + _BISECT_RTOL * abs(mid):
            return mid
    raise RuntimeError(f"bisection did not converge in {_BISECT_MAX_STEPS} steps")


def _itp_root(f, a: float, b: float, xtol: float) -> float:
    """Root of f bracketed by [a, b], a < b (see _bracket), located by the ITP method.

    Oliveira and Takahashi, ACM TOMS 47(1), 2020, with kappa1 = 0.2/(b - a),
    kappa2 = 2 and n0 = 1: each step evaluates f at the regula-falsi point,
    moved towards the midpoint by kappa1 (b - a)^2 and then into the range
    around the midpoint that keeps the worst case within one step of
    bisection.  Stops when b - a <= 2 xtol and returns the midpoint, within
    xtol of the sign change; raises RuntimeError after
    n_max = ceil(log2((b - a)/(2 xtol))) + 1 steps.
    """
    root, sign, y_a, y_b = _bracket(f, a, b)  # y_b > 0
    if root is not None:
        return root
    kappa1 = 0.2 / (b - a)
    n_max = math.ceil(math.log2((b - a) / (2.0 * xtol))) + 1
    # the projection holds each interval to the bound of a tolerance 2^-20 below xtol, so that
    # rounding cannot leave the last one an ulp wider than 2 xtol when every step is projected
    target = xtol * (1.0 - 2.0 ** -20)
    for step in range(n_max + 1):
        if b - a <= 2.0 * xtol:
            return (a + b) / 2.0
        if step == n_max:
            raise RuntimeError(f"ITP did not converge in {n_max} steps")
        mid = (a + b) / 2.0
        radius = math.ldexp(target, n_max - step) - (b - a) / 2.0
        delta = kappa1 * (b - a) ** 2
        x_f = (y_b * a - y_a * b) / (y_b - y_a)
        toward_mid = math.copysign(1.0, mid - x_f)
        x_t = x_f + toward_mid * delta if delta <= abs(mid - x_f) else mid
        x = x_t if abs(x_t - mid) <= radius else mid - toward_mid * radius
        y = f(x) * sign
        if y == 0.0:
            return x
        if y < 0.0:
            a, y_a = x, y
        else:
            b, y_b = x, y


def _golden_section_search(f, lo: float, hi: float, xtol: float):
    """(x, f(x)) at a point of [lo, hi] where f is positive, or at the maximum of f.

    A golden-section search for the maximum of an f with one maximum on
    [lo, hi], stopped at the first point where f > 0.  When f never is, x
    is the better of the last two points, within xtol of the maximum.
    """
    c, d = hi - _INV_GOLDEN * (hi - lo), lo + _INV_GOLDEN * (hi - lo)
    f_c, f_d = f(c), f(d)
    while hi - lo > xtol and max(f_c, f_d) <= 0.0:
        if f_c >= f_d:
            hi, d, f_d = d, c, f_c
            c = hi - _INV_GOLDEN * (hi - lo)
            f_c = f(c)
        else:
            lo, c, f_c = c, d, f_d
            d = lo + _INV_GOLDEN * (hi - lo)
            f_d = f(d)
    return (c, f_c) if f_c >= f_d else (d, f_d)


# --------------------------------------------------------------------------
# PNS process
# --------------------------------------------------------------------------

def pns_information(p: float, disturbance):
    """Attacker information of the PNS process.

    Splitting gives full information on the fraction p; the remaining pulses
    carry the optimal single-photon attack at disturbance D:
    p + (1-p) fuchs_information(D).  A numpy array of disturbances gives the
    array of informations, each bit-equal to the float result.
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


def pns_information_matched(eta_det: float, disturbance):
    """PNS information at the rate-matched two-photon fraction 1/(2 - eta_det); D may be a numpy array."""
    return pns_information(matched_two_photon_fraction(eta_det), disturbance)


# --------------------------------------------------------------------------
# Strategy A: universal asymmetric 2->3 cloner
# --------------------------------------------------------------------------

def _strategy_a_domain(disturbance):
    """(xp, the disturbance clamped to 1/4) after checking it lies in [0, 1/4].

    xp is the math that evaluates it (see infotheory._math_for); an array is
    checked and clamped element by element.
    """
    xp = _math_for(disturbance, 0.0, 0.25 + DOMAIN_SLACK, "strategy A disturbance must lie in [0, 1/4]")
    return xp, xp.minimum(disturbance, 0.25)


def strategy_a_probe_states(disturbance: float) -> tuple[np.ndarray, np.ndarray]:
    """Attacker probe states for the diagonal signals under strategy A.

    For the two-photon signals |+>|+> and |->|-> the probes are

        rho_+- = 2D |-+/+-><...| + (1-2D) |phi_+-><phi_+-|,
        |phi_+-> = (sqrt(1-4D) |phi+> +- sqrt(2D) |psi+>) / sqrt(1-2D),

    so a weight 2D lands in a perfectly distinguishing product block and the
    rest in a pure pair of overlap (1-6D)/(1-2D); at D = 1/4 the pair is
    exactly psi+ and -psi+.  Takes a float D <= 1/4.
    """
    import numpy as np

    from .optics import KET_MINUS, KET_PLUS, PHI_PLUS, PSI_PLUS

    _, d = _strategy_a_domain(disturbance)
    scale = 1.0 / math.sqrt(1.0 - 2.0 * d)
    varphi_p = scale * (math.sqrt(1.0 - 4.0 * d) * PHI_PLUS + math.sqrt(2.0 * d) * PSI_PLUS)
    varphi_m = scale * (math.sqrt(1.0 - 4.0 * d) * PHI_PLUS - math.sqrt(2.0 * d) * PSI_PLUS)
    minus_plus = np.kron(KET_MINUS, KET_PLUS)
    plus_minus = np.kron(KET_PLUS, KET_MINUS)
    rho_p = 2.0 * d * np.outer(minus_plus, minus_plus.conj()) \
        + (1.0 - 2.0 * d) * np.outer(varphi_p, varphi_p.conj())
    rho_m = 2.0 * d * np.outer(plus_minus, plus_minus.conj()) \
        + (1.0 - 2.0 * d) * np.outer(varphi_m, varphi_m.conj())
    return rho_p, rho_m


def strategy_a_probe_overlap(disturbance):
    """Overlap <phi_+|phi_-> = (1-6D)/(1-2D) of the kets of strategy_a_probe_states; D may be a numpy array.

    The probe states fix each ket only up to phase, so only the square is physical.
    """
    _, d = _strategy_a_domain(disturbance)
    return (1.0 - 6.0 * d) / (1.0 - 2.0 * d)


def strategy_a_information(disturbance):
    """Attacker information of strategy A as a function of the disturbance.

    2D + (1-2D) Phi(sqrt(8D(1-4D))/(1-2D))/2: the product block is read out
    perfectly, the pure pair contributes its two-state accessible information.
    By universality of the machine this is also the average over all four
    signals.  A numpy array of disturbances gives the array of informations,
    each bit-equal to the float result.
    """
    xp, d = _strategy_a_domain(disturbance)
    # 1 - 4D >= 0 holds exactly once D is clamped to 1/4, and Phi reads an
    # argument that rounds past 1 (near D = 1/6) as 1
    return 2.0 * d + (1.0 - 2.0 * d) * 0.5 * phi(xp.sqrt(8.0 * d * (1.0 - 4.0 * d)) / (1.0 - 2.0 * d))


def clone_a_params_for_disturbance(disturbance: float) -> float:
    """Machine setting beta of the universal cloner for a target disturbance.

    The machine-level map is D(beta) = 2 beta^2, so beta = sqrt(D/2).
    verification checks this inverse against the disturbances that
    oracle.simulate_strategy_a_grid measures from the isometry.
    """
    return math.sqrt(_strategy_a_domain(disturbance)[1] / 2.0)


# --------------------------------------------------------------------------
# Strategy B: phase-covariant 2->3 cloner
# --------------------------------------------------------------------------

def strategy_b_coefficients(gamma: float) -> tuple[float, float, float, float, float, float]:
    """Closed-form entries (a, b, c, d, e, f) of the strategy-B probe matrices.

    Sixteen times the probe-state entries in the ordered product basis
    (|++>, |+->, |-+>, |-->); a, b, c fill the {|++>, |-->} block and d, e, f
    the {|+->, |-+>} block.  The trace identity a + c + d + f = 16 holds for
    every gamma.
    """
    return _strategy_b_coefficients(gamma, off_diagonal=True)


def _strategy_b_coefficients(gamma: float, off_diagonal: bool):
    """strategy_b_coefficients, with b and e left None unless off_diagonal."""
    if not 0.0 <= gamma <= math.pi + DOMAIN_SLACK:
        raise ValueError(f"gamma must lie in [0, pi], got {gamma}")
    c, s = math.cos(gamma), math.sin(gamma)
    c2g, s2g = math.cos(2 * gamma), math.sin(2 * gamma)
    r3 = math.sqrt(3.0 + c2g)
    rs = math.sqrt(1.0 + s * s)
    shared_ac = 2.0 * c / rs + c * c * (8.0 / (1.0 + c * c) + 1.0 / (1.0 + s * s)) \
        + 4.0 * s * s * (1.0 / (3.0 + c2g) + 1.0 / (1.0 + s * s))
    odd_ac = 4.0 * s / r3 + 10.0 * s2g / (r3 * rs)
    a = 1.0 + odd_ac + shared_ac
    c_coef = 1.0 - odd_ac + shared_ac
    shared_df = 4.0 * s * s / (3.0 + c2g) + c * c / (1.0 + s * s) - 2.0 * c / rs
    d = 1.0 + shared_df + 4.0 * s * (-c + rs) / (r3 * rs)
    f = 1.0 + shared_df - 4.0 * s / r3 + 2.0 * s2g / (r3 * rs)
    if not off_diagonal:
        return a, None, c_coef, d, None, f
    b = 1.0 + 2.0 * c / rs + 8.0 * s * s * (9.0 + c2g) / (-17.0 + math.cos(4 * gamma)) \
        + c * c * (8.0 / (1.0 + c * c) + 1.0 / (1.0 + s * s))
    e = 1.0 + shared_df - 8.0 * s * s / (3.0 + c2g)
    return a, b, c_coef, d, e, f


def strategy_b_probe_matrices(gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Sixteen times the two strategy-B probes in the (|++>,|+->,|-+>,|-->) basis.

    Laid out from the closed-form coefficients; the |->|-> probe is the
    |+>|+> probe with a <-> c and d <-> f exchanged, i.e. both axes reversed.
    """
    import numpy as np

    a, b, c, d, e, f = strategy_b_coefficients(gamma)
    m_plus = np.array([
        [a, 0.0, 0.0, b],
        [0.0, d, e, 0.0],
        [0.0, e, f, 0.0],
        [b, 0.0, 0.0, c],
    ])
    return m_plus, m_plus[::-1, ::-1].copy()


def strategy_b_disturbance(gamma):
    """Disturbance of strategy B on the equatorial signals.

    D(gamma) = {1 - (cos(gamma) + 1/sqrt(1+sin^2 gamma)) / sqrt(2(1+cos^2 gamma))}/2,
    zero at gamma=0, 1/4 at gamma=pi/2 and 1/2 at gamma=pi, monotone on [0, pi].
    Takes a float, evaluated with math, or a numpy array, evaluated
    elementwise with numpy; every gamma must lie in [0, pi].  The domain is
    checked here; the formula itself is _strategy_b_d, which the array
    inversion calls directly because its midpoints never leave [0, pi/2].
    """
    # A float, as every step of a scalar inversion passes, goes to math
    # before any array test: this function is the inner loop of
    # gamma_for_disturbance.
    xp = math if isinstance(gamma, float) else _numpy_if_array(gamma) or math
    if not (xp is math and 0.0 <= gamma <= math.pi + DOMAIN_SLACK):
        _math_for(gamma, 0.0, math.pi + DOMAIN_SLACK, "gamma must lie in [0, pi]")
    return _strategy_b_d(xp, gamma)


def _strategy_b_d(xp, gamma):
    """D(gamma) evaluated with the module xp (math or numpy), unchecked."""
    c, s = xp.cos(gamma), xp.sin(gamma)
    return 0.5 * (1.0 - (c + 1.0 / xp.sqrt(1.0 + s * s)) / xp.sqrt(2.0 * (1.0 + c * c)))


def _strategy_b_slope(xp, gamma):
    """dD/dgamma evaluated with the module xp (math or numpy), positive on (0, pi/2]; only Newton steps use it."""
    c, s = xp.cos(gamma), xp.sin(gamma)
    r = 1.0 / xp.sqrt(1.0 + s * s)
    return s * (1.0 + c * r**3 - c * (c + r) / (1.0 + c * c)) / (2.0 * xp.sqrt(2.0 * (1.0 + c * c)))


def strategy_b_information(gamma: float) -> float:
    """Attacker information of strategy B.

    {(a+c) Phi((a-c)/(a+c)) + (d+f) Phi((d-f)/(d+f))}/32, the blockwise
    two-state accessible information of the probe pair.  A vanishing block
    weight (d+f at gamma=0) contributes nothing.  The value stays strictly
    below 1 for every gamma: neither probe qubit ever reaches unit fidelity
    with the input.  The off-diagonal coefficients b and e do not enter.
    """
    a, _, c, d, _, f = _strategy_b_coefficients(gamma, off_diagonal=False)
    out = (a + c) * phi((a - c) / (a + c)) / 32.0  # a + c >= 8 on [0, pi]
    if d + f > 1e-300:
        out += (d + f) * phi((d - f) / (d + f)) / 32.0
    return out


#: Largest disturbance reachable on the gamma branch used for curve inversion.
STRATEGY_B_MAX_DISTURBANCE = strategy_b_disturbance(math.pi / 2)

#: Clearance of d that certifies a replay bracket; more than twice the float error of D.
_REPLAY_MARGIN = 4e-15


def _replay_inversion(d: float) -> float:
    """bisect's root of strategy_b_disturbance(g) - d on [0, pi/2], bit for bit, for 0 < d < D(pi/2).

    Newton steps find a root g; a bracket a < g < b widens until D(a) <= d -
    margin <= d + margin <= D(b).  D is monotone with float error below
    margin/2, so D < d at every midpoint below a and D > d above b: bisect's
    steps are replayed, evaluating D only at the midpoints in [a, b].
    """
    top = math.pi / 2
    g = math.pi * math.sqrt(d)  # (pi/2) sqrt(d/D(pi/2)), since D(pi/2) = 1/4
    for _ in range(8):
        slope = _strategy_b_slope(math, g)
        dg = (_strategy_b_d(math, g) - d) / slope
        g = min(max(g - dg, 0.5 * g), top)  # g stays positive, where the slope is
        if abs(dg) < 1e-9:
            break
    # An end past 0 or pi/2 is as good as the clamped one: no midpoint lies beyond it.
    a, b = g - 2.0 * _REPLAY_MARGIN / slope, g + 2.0 * _REPLAY_MARGIN / slope
    while a > 0.0 and strategy_b_disturbance(a) > d - _REPLAY_MARGIN:
        a = g - 4.0 * (g - a)
    while b < top and strategy_b_disturbance(b) < d + _REPLAY_MARGIN:
        b = g + 4.0 * (b - g)
    lo, step = 0.0, top
    while True:  # the step falls below 1e-13 after 44 halvings of pi/2
        step *= 0.5
        mid = lo + step
        if mid < a:
            lo = mid
        elif mid <= b:
            f_mid = strategy_b_disturbance(mid) - d
            if f_mid <= 0.0:
                lo = mid
            if f_mid == 0.0:
                return mid
        if step < 1e-13 + _BISECT_RTOL * mid:
            return mid


def _replay_inversion_array(np, d):
    """_replay_inversion of every element of an array d, each in (0, D(pi/2)), bit for bit.

    All elements take the same Newton steps, until the largest correction is
    below 1e-9, and each bracket widens until D certifies it; the replayed
    root depends only on that certificate.  The midpoints below their
    brackets then move lo without any evaluation of D, as long as no
    midpoint lies inside its bracket and the step is too wide to stop any
    element.  From there D is evaluated on the whole array at every step:
    outside a certified bracket its sign is the replay's, so each element
    takes bisect's steps and stops by bisect's rule.
    """
    top = math.pi / 2
    g = math.pi * np.sqrt(d)
    for _ in range(8):
        slope = _strategy_b_slope(np, g)
        dg = (_strategy_b_d(np, g) - d) / slope
        g = np.minimum(np.maximum(g - dg, 0.5 * g), top)
        if np.abs(dg).max(initial=0.0) < 1e-9:
            break
    a, b = g - 2.0 * _REPLAY_MARGIN / slope, g + 2.0 * _REPLAY_MARGIN / slope
    while (wide := (a > 0.0) & (_strategy_b_d(np, a) > d - _REPLAY_MARGIN)).any():
        a = np.where(wide, g - 4.0 * (g - a), a)
    while (wide := (b < top) & (_strategy_b_d(np, b) < d + _REPLAY_MARGIN)).any():
        b = np.where(wide, g + 4.0 * (b - g), b)
    # every midpoint lies below pi, so no element stops while the step is above this
    min_stop_step = 1e-13 + _BISECT_RTOL * math.pi
    lo, step = np.zeros_like(d), top
    while True:
        step *= 0.5
        mid = lo + step
        below = mid < a
        # more midpoints at or below b than below a: one lies inside its bracket
        if step < min_stop_step or np.count_nonzero(mid <= b) > np.count_nonzero(below):
            break
        np.copyto(lo, mid, where=below)
    root, active = np.empty_like(d), np.ones(d.shape, dtype=bool)
    while True:  # every element stops by the 44th halving, as in _replay_inversion
        f_mid = _strategy_b_d(np, mid) - d
        np.copyto(lo, mid, where=f_mid <= 0.0)
        done = active & ((f_mid == 0.0) | (step < 1e-13 + _BISECT_RTOL * mid))
        np.copyto(root, mid, where=done)
        active &= ~done
        if not active.any():
            return root
        step *= 0.5
        mid = lo + step


def gamma_for_disturbance(disturbance):
    """Invert D(gamma) on the monotone branch gamma in [0, pi/2].

    Takes a float and returns a float, or takes a numpy array and returns an
    array of the same shape.  Both replay the steps of bisect on [0, pi/2],
    evaluating D only near the root (_replay_inversion); an array replays
    all its elements at once, about 20 evaluations of the formula on the
    whole array for 250 points, and each of its angles is bit-equal to the
    float result for its disturbance.  Every disturbance must lie in
    [0, D(pi/2)]; the ends map to 0 and pi/2, the rest are located to
    |D(gamma) - D| <= 1e-10.
    Angles beyond pi/2 reach larger disturbances but lower information; they
    are exposed only through direct evaluation at gamma.
    """
    top = STRATEGY_B_MAX_DISTURBANCE
    _math_for(disturbance, 0.0, top + DOMAIN_SLACK, "no gamma in [0, pi/2] reaches the disturbance")
    np = _numpy_if_array(disturbance)
    if np is not None:
        d = np.minimum(disturbance, top)
        gamma = np.where(d < top, 0.0, math.pi / 2)
        inner = (0.0 < d) & (d < top)
        gamma[inner] = _replay_inversion_array(np, d[inner])
        assert np.all(np.abs(strategy_b_disturbance(gamma) - d) <= D_INVERSION_TOL)
        return gamma
    d = disturbance
    if d <= 0.0:
        return 0.0
    if d >= top:
        return math.pi / 2
    gamma = _replay_inversion(d)
    assert abs(strategy_b_disturbance(gamma) - d) <= D_INVERSION_TOL
    return gamma


def cloning_information(strategy: str, disturbances: list[float]) -> list[float | None]:
    """Information of cloning strategy "A" or "B" at each disturbance, in order.

    An entry is None where the strategy cannot reach the disturbance: A
    reaches D <= 1/4 and B reaches D <= D(pi/2), each with DOMAIN_SLACK of
    rounding; values are never extrapolated.  When numpy is already loaded
    (looked up, not imported, by the rule of _numpy_if_array) and two or
    more points are reachable, A's informations come from one array
    strategy_a_information call and B's angles from one array
    gamma_for_disturbance call; else each comes from one float call per
    point.  Both forms give bit-equal values.  B's information is one
    strategy_b_information call per reachable point either way.
    A negative or NaN disturbance, or another strategy, raises ValueError.
    """
    if strategy not in ("A", "B"):
        raise ValueError(f"strategy must be 'A' or 'B', got {strategy!r}")
    for d in disturbances:
        if not d >= 0.0:
            raise ValueError(f"disturbance must be nonnegative, got {d}")
    evaluate = strategy_a_information if strategy == "A" else gamma_for_disturbance
    top = (0.25 if strategy == "A" else STRATEGY_B_MAX_DISTURBANCE) + DOMAIN_SLACK
    reachable = [d for d in disturbances if d <= top]
    values = _on_array_or_floats(evaluate, reachable)
    if strategy == "B":
        values = map(strategy_b_information, values)
    return [next(values) if d <= top else None for d in disturbances]


def _on_array_or_floats(fn, xs: list[float]):
    """An iterator over fn at each float of xs: one array call when numpy is loaded and xs holds two or more."""
    np = sys.modules.get("numpy")
    if np is not None and len(xs) >= 2:
        return iter(fn(np.array(xs, dtype=float)).tolist())
    return map(fn, xs)


# --------------------------------------------------------------------------
# Information-versus-disturbance curves
# --------------------------------------------------------------------------

class AttackCurvePoint(namedtuple("AttackCurvePoint", "disturbance i_pns i_a i_b")):
    """Information of the three processes at one disturbance value.

    i_a and i_b are None where the disturbance is outside the strategy's
    reachable range (see cloning_information); values are never
    extrapolated.  An immutable named tuple: it unpacks, and compares equal
    to a plain tuple of its fields.
    """

    __slots__ = ()


DEFAULT_CURVE_GRID_POINTS = 500


def default_disturbance_grid() -> list[float]:
    """The floats of np.linspace(0, 1/2, DEFAULT_CURVE_GRID_POINTS), built without numpy."""
    n = DEFAULT_CURVE_GRID_POINTS - 1
    return [i * (0.5 / n) for i in range(n)] + [0.5]


def information_curves(eta_det: float, d_grid=None) -> list[AttackCurvePoint]:
    """Sample the three information curves on a disturbance grid.

    d_grid is any iterable of disturbances in [0, 1/2], by default the
    500-point grid; output order follows it.  The PNS curve is one array
    pns_information_matched call when numpy is already loaded and the grid
    holds two or more points, else one float call per point; each cloning
    curve comes from one cloning_information call.  Every value is
    bit-equal whichever form computes it.
    """
    d_grid = [float(d) for d in (default_disturbance_grid() if d_grid is None else d_grid)]
    for d in d_grid:
        if not 0.0 <= d <= 0.5:
            raise ValueError(f"grid disturbances must lie in [0, 1/2], got {d}")
    i_pns = _on_array_or_floats(functools.partial(pns_information_matched, eta_det), d_grid)
    curves = zip(d_grid, i_pns, cloning_information("A", d_grid), cloning_information("B", d_grid))
    return [AttackCurvePoint(*point) for point in curves]
