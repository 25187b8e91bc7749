#!/usr/bin/env python3
"""Run the light qel commands in this process and check each answer; exit 1 on a failing one.

They compute on Python floats with the standard library alone, so every interpreter that
requires-python admits must pass, and a loaded numpy fails the run (its array paths would answer).
Each list holds (expected, argv) pairs; its check of (expected, exit code, stdout, stderr) follows the lists.

Run:  python scripts/light_gates.py
"""
import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

REFERENCE_COMMANDS = [
    ("info-curves.csv", "info-curves --eta-det 0.2".split()),
    ("error-map.csv", "error-map --mu 0.1 --eta-det 0.2".split()),
    ("bounds.json", "bounds --mu 0.1 --eta-det 0.2".split()),
    ("crossover.json", "crossover --mu 0.1 --eta-det 0.2 --error-rate 0.01".split()),
    ("coefficients.csv", ["coefficients"]),
]
# Lower window edges next to eta_t = 1 come from libm's log, log1p and expm1 (empty, with equal edges,
# at mu 700).  At eta_det 0.9 B's gain band is missing; at 1.0 A's is a sliver that no scan point gains on.
JSON_KEY_COMMANDS = [
    ({"window_empty": False, "eta_t_lower": 0.9907290176178924}, "bounds --mu 708 --eta-det 1".split()),
    ({"window_empty": True, "eta_t_lower": 0.998571428570711, "eta_t_upper": 0.998571428570711},
     "bounds --mu 700 --eta-det 1e-9".split()),
    ({"crossover_db_b": None, "best_strategy": "A"}, "crossover --mu 0.1 --eta-det 0.9 --error-rate 0.01".split()),
    ({"crossover_db_a": None, "crossover_db_b": None}, "crossover --mu 0.1 --eta-det 1.0 --error-rate 0.01".split()),
]
# 0.1 + 11 * (0.4 / 11) rounds to 0.5000000000000001; the CLI clamps each grid point to its upper end.
CLAMPED_GRID_COMMANDS = [
    ("0.5", "info-curves --eta-det 0.2 --d-min 0.1 --d-max 0.5 --steps 12".split()),
    ("0.5", "error-map --mu 0.1 --eta-det 0.2 --d-min 0.1 --d-max 0.5 --d-steps 12".split()),
]
# Usage errors exit 1; an empty window (mu 60) is an invalid regime and exits 3.
INVALID_COMMANDS = [
    (1, "bounds --mu nan --eta-det 0.2".split()),
    (1, "bounds --mu abc --eta-det 0.2".split()),
    (1, ["info-curves"]),
    (1, "crossover --mu 0.1 --eta-det 0.2".split()),
    (3, "crossover --mu 60 --eta-det 0.2 --error-rate 0.01".split()),
    (1, "error-map --mu 0.1 --eta-det 0.2 --loss-db 1e5".split()),
]


def same_bytes(reference, code, out, err):
    return (code, err) == (0, "") and out.encode() == (ROOT / "perfbench" / "reference" / reference).read_bytes()


def holds_keys(keys, code, out, err):
    return (code, err) == (0, "") and keys.items() <= json.loads(out).items()


def ends_at(d, code, out, err):
    lines = out.splitlines()
    return (code, err) == (0, "") and dict(zip(lines[0].split(","), lines[-1].split(",")))["D"] == d


def one_line_error(want, code, out, err):
    return (code, out, len(err.splitlines())) == (want, "", 1)


def faults(check, commands):
    """A line for each (expected, argv) of commands whose answer fails check."""
    from qel import cli
    for expected, argv in commands:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            passed = check(expected, code, out.getvalue(), err.getvalue())
        except Exception as exc:  # a traceback, or an answer that its check cannot parse
            code, passed = repr(exc), False
        if not passed:
            yield f"qel {' '.join(argv)}: expected {expected!r}, got exit {code}, stderr {err.getvalue()!r}"


if __name__ == "__main__":
    lines = [line for check, commands in [(same_bytes, REFERENCE_COMMANDS), (holds_keys, JSON_KEY_COMMANDS),
                                          (ends_at, CLAMPED_GRID_COMMANDS), (one_line_error, INVALID_COMMANDS)]
             for line in faults(check, commands)]
    if "numpy" in sys.modules:
        lines.append("light gates: numpy is loaded, so the array paths answered in place of the float ones")
    print("\n".join(lines) or f"light gates: every command passes on Python {sys.version.split()[0]}")
    sys.exit(bool(lines))
