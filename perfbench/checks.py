"""Output checks for the qel benchmark.

Each check returns None when the output is correct and a one-line reason
otherwise.  Reference-scenario outputs are compared with the CLI bytes
captured at the seed commit (files under reference/), numbers at 12
significant digits.  Seeded outputs are checked against invariants that do
not reuse qel code: the transmission window is recomputed here from the
closed-form photon-number sum, and the i_a / i_b columns must be empty
exactly where the disturbance exceeds the strategies' reachable range.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: Reference scenario of the paper: mu, eta_det and observed error rate.
REFERENCE_MU = 0.1
REFERENCE_ETA_DET = 0.2
REFERENCE_ERROR = 0.01
REFERENCE_VERIFY_SEED = 20240901

#: Largest disturbance either cloning strategy reaches: 1/4 for strategy A,
#: D(pi/2) = 1/4 for strategy B.
REACHABLE_D = 0.25
_BAND = 1e-9
_REL = 1e-9


def reference_text(name: str) -> str:
    return (REFERENCE_DIR / name).read_text()


def fmt(value) -> str:
    """CLI number format: 12 significant digits, empty for a missing value."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return f"{value:.12g}"


def csv_text(columns, rows) -> str:
    lines = [",".join(columns)] + [",".join(fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def parse_csv(text: str):
    """Header and rows of a CLI table; empty cells become None."""
    lines = text.strip("\n").split("\n")
    rows = [[float(c) if c else None for c in line.split(",")] for line in lines[1:]]
    return lines[0].split(","), rows


def grid(lo: float, hi: float, steps: int) -> list[float]:
    """The CLI's evenly spaced grid, lo + i * step."""
    step = (hi - lo) / (steps - 1)
    return [lo + i * step for i in range(steps)]


def _close(a, b, rel=_REL, abs_tol=1e-12) -> bool:
    return a is not None and b is not None and math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


def _finite(*values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


def _round12(value):
    """Numbers at 12 significant digits; other JSON values unchanged."""
    if isinstance(value, float):
        return fmt(value)
    if isinstance(value, dict):
        return {k: _round12(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_round12(v) for v in value]
    return value


def same_json_at_12_digits(text: str, reference: str) -> str | None:
    try:
        got = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    want = json.loads(reference)
    if list(got) != list(want):
        return f"keys {list(got)} differ from reference {list(want)}"
    if _round12(got) != _round12(want):
        return "differs from the reference output at 12 significant digits"
    return None


def same_bytes(text: str, reference: str) -> str | None:
    if text == reference:
        return None
    got, want = text.splitlines(), reference.splitlines()
    for i, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return f"line {i + 1} is {a!r}, reference has {b!r}"
    return f"{len(got)} lines, reference has {len(want)}"


# --------------------------------------------------------------------------
# Independent channel bookkeeping
# --------------------------------------------------------------------------

def window(mu: float, eta_det: float) -> tuple[float, float]:
    """(eta_t_lower, eta_t_upper) from the photon-number sum in closed form.

    P_multi = sum_{n>=2} P(n) [1 - (1-eta)^(n-1)]
            = 1 - e^-mu - e^-mu (e^(mu(1-eta)) - 1) / (1-eta),
    and eta_t = -ln(1 - P) / (mu eta) at the window's click rates.
    """
    bar = 1.0 - eta_det
    if bar > 0.0:
        p_multi = -math.expm1(-mu) - math.exp(-mu) * math.expm1(mu * bar) / bar
    else:
        p_multi = -math.expm1(-mu) - mu * math.exp(-mu)
    p1_detected = eta_det * mu * math.exp(-mu)

    def eta_t_at(click_rate):
        return math.inf if click_rate >= 1.0 else -math.log1p(-click_rate) / (mu * eta_det)

    return min(1.0, eta_t_at(p_multi)), min(1.0, eta_t_at(p1_detected + p_multi))


def _loss_db(eta_t: float) -> float:
    return -10.0 * math.log10(eta_t)


# --------------------------------------------------------------------------
# Invariants of seeded outputs
# --------------------------------------------------------------------------

def check_bounds(record: dict, mu: float, eta_det: float) -> str | None:
    lower, upper = window(mu, eta_det)
    empty = lower >= upper
    if record.get("window_empty") != empty:
        return f"window_empty={record.get('window_empty')}, expected {empty}"
    if not (_close(record.get("eta_t_lower"), lower) and _close(record.get("eta_t_upper"), upper)):
        return (f"eta_t window ({record.get('eta_t_lower')}, {record.get('eta_t_upper')}) "
                f"differs from closed form ({lower}, {upper})")
    if empty:
        if record.get("loss_db_lower") is not None or record.get("loss_db_upper") is not None:
            return "empty window reports loss edges"
        return None
    if not (_close(record.get("loss_db_lower"), _loss_db(upper))
            and _close(record.get("loss_db_upper"), _loss_db(lower))):
        return "loss_db edges disagree with the eta_t edges"
    return None


def check_crossover(result: dict, mu: float, eta_det: float) -> str | None:
    """result holds A, B, best (dB or None) and best_strategy."""
    lower, upper = window(mu, eta_det)
    lo_db, hi_db = _loss_db(upper), _loss_db(lower)
    found = {s: result.get(s) for s in ("A", "B")}
    for strategy, loss in found.items():
        if loss is None:
            continue
        if not _finite(loss) or not lo_db - 1e-6 <= loss <= hi_db + 1e-6:
            return f"crossover {strategy}={loss} dB outside the window [{lo_db}, {hi_db}]"
    present = [(loss, s) for s, loss in found.items() if loss is not None]
    best, best_strategy = min(present) if present else (None, None)
    if result.get("best") != best or result.get("best_strategy") != best_strategy:
        return (f"best={result.get('best')} ({result.get('best_strategy')}) is not the "
                f"earlier crossover {best} ({best_strategy})")
    return None


def check_info_curves(rows, eta_det: float, d_grid) -> str | None:
    """rows: (D, i_pns, i_a, i_b) per grid point."""
    if len(rows) != len(d_grid):
        return f"{len(rows)} rows for a {len(d_grid)}-point grid"
    previous = -math.inf
    for (d, i_pns, i_a, i_b), want_d in zip(rows, d_grid):
        if not _close(d, want_d):
            return f"grid point {d} differs from {want_d}"
        if not _finite(i_pns) or not 0.0 <= i_pns <= 1.0 + _BAND:
            return f"i_pns={i_pns} at D={d}"
        if i_pns < previous - 1e-12:
            return f"i_pns decreases at D={d}"
        previous = i_pns
        for name, value in (("i_a", i_a), ("i_b", i_b)):
            if d < REACHABLE_D - _BAND and value is None:
                return f"{name} empty at reachable D={d}"
            if d > REACHABLE_D + _BAND and value is not None:
                return f"{name}={value} at unreachable D={d}"
            if value is not None and (not _finite(value) or not 0.0 <= value <= 1.0 + _BAND):
                return f"{name}={value} at D={d}"
    # at D = 0 the PNS process reads exactly the two-photon fraction 1/(2 - eta)
    if d_grid[0] == 0.0 and not _close(rows[0][1], 1.0 / (2.0 - eta_det)):
        return f"i_pns(0)={rows[0][1]}, expected {1.0 / (2.0 - eta_det)}"
    return None


def check_error_map(rows, mu: float, eta_det: float, losses, d_grid) -> str | None:
    """rows: (loss_db, D, e, in_window), losses outer, disturbances inner."""
    if len(rows) != len(losses) * len(d_grid):
        return f"{len(rows)} rows for a {len(losses)}x{len(d_grid)} grid"
    lower, upper = window(mu, eta_det)
    for k, loss in enumerate(losses):
        eta_t = 10.0 ** (-loss / 10.0)
        block = rows[k * len(d_grid):(k + 1) * len(d_grid)]
        in_window = lower < eta_t <= upper
        ratios = []
        for (row_loss, d, e, flag), want_d in zip(block, d_grid):
            if not (_close(row_loss, loss) and _close(d, want_d)):
                return f"row ({row_loss}, {d}) differs from grid point ({loss}, {want_d})"
            near_edge = min(abs(eta_t - lower), abs(eta_t - upper)) < 1e-9 * eta_t
            if not near_edge and bool(flag) != in_window:
                return f"in_window={flag} at {loss} dB, expected {in_window}"
            # e is undefined exactly where multi-photon clicks alone exceed
            # the expected click rate, below the window's lower edge
            if not near_edge and (e is None) != (eta_t < lower):
                return f"e={e} at {loss} dB, D={d}, window eta_t > {lower}"
            if e is None:
                continue
            if not _finite(e) or not -1e-15 <= e <= d * (1.0 + _BAND) + 1e-15:
                return f"e={e} outside [0, D={d}] at {loss} dB"
            if d > 0.0:
                ratios.append(e / d)
        if ratios and max(ratios) - min(ratios) > 1e-9:
            return f"e/D varies with D at {loss} dB"
    return None


def check_coefficients(rows, gammas) -> str | None:
    """rows: (gamma, a, b, c, d, e, f); a + c + d + f = 16 for every gamma."""
    if len(rows) != len(gammas):
        return f"{len(rows)} rows for {len(gammas)} angles"
    for row, want in zip(rows, gammas):
        if not _finite(*row):
            return f"non-finite coefficient at gamma={row[0]}"
        if not _close(row[0], want):
            return f"gamma {row[0]} differs from grid point {want}"
        gamma, a, _, c, d, _, f = row
        if abs(a + c + d + f - 16.0) > 1e-9:
            return f"trace identity a+c+d+f={a + c + d + f} at gamma={gamma}"
    return None


def check_verify(text: str, seed: int, pulses: int) -> str | None:
    """A passing report for the requested seed with the reference suites and checks."""
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"verify output is not JSON: {exc}"
    if report.get("seed") != seed or report.get("n_pulses") != pulses:
        return f"report for seed {report.get('seed')}, {report.get('n_pulses')} pulses"
    if report.get("passed") is not True:
        failing = [f"{s['name']}/{c['name']}" for s in report.get("suites", [])
                   for c in s.get("checks", []) if not c.get("passed")]
        return f"verification failed: {', '.join(failing)}"

    def layout(rep):
        return [(s["name"], [(c["name"], c["tolerance"]) for c in s["checks"]])
                for s in rep["suites"]]

    if layout(report) != layout(json.loads(reference_text("verify.json"))):
        return "suites, checks or tolerances differ from the reference report"
    return None
