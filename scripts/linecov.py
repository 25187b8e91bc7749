#!/usr/bin/env python3
"""List the lines of src/qel that Tier-1 never runs; fail on any such line.

Runs the Tier-1 suite in this process under sys.settrace, with
--hypothesis-seed=0 so that the property tests draw the same inputs on every
run.  The executable lines of a module are the lines of its code objects'
co_lines(), taken recursively from the compiled source.  Every unrun line is
printed with its module, number and text.  Exits 1 when Tier-1 fails or
leaves a line unrun.  Standard library and pytest only; takes about three
times as long as Tier-1 untraced.

Run:  python scripts/linecov.py
"""
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qel"


def executable_lines(path: Path) -> set[int]:
    """Line numbers of every code object compiled from path, nested ones included."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def run_tier1() -> tuple[int, set[tuple[str, int]]]:
    """Tier-1's exit code and the (file, line) pairs of src/qel that it ran."""
    ran, prefix = set(), str(SRC) + os.sep

    def line(frame, event, arg):
        ran.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        return line(frame, event, arg) if frame.f_code.co_filename.startswith(prefix) else None

    os.chdir(ROOT)  # pyproject.toml's pytest settings put src on the path
    import pytest

    sys.settrace(call)
    try:
        code = pytest.main(["-q", "--hypothesis-seed=0", "tests"])
    finally:
        sys.settrace(None)
    return int(code), ran


def main() -> int:
    code, ran = run_tier1()
    if code != 0:
        print(f"linecov: Tier-1 failed with exit code {code}")
        return 1
    unrun, total = [], 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text().splitlines()
        lines = executable_lines(path)
        total += len(lines)
        unrun += [(path.stem, n, source[n - 1].strip()) for n in sorted(lines) if (str(path), n) not in ran]
    print(f"linecov: {len(unrun)} of {total} executable lines of src/qel unrun")
    for module, number, text in unrun:
        print(f"  {module}.py:{number}: {text}")
    return int(bool(unrun))


if __name__ == "__main__":
    sys.exit(main())
