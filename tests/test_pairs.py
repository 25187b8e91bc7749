"""scripts/pairs.py drives two fake trees whose perfbench/run.py prints a fixed line, so no benchmark runs."""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "pairs.py"

# A harness that records its arguments and the tree it ran in, then prints an
# environment line and a last line with the given metrics and failed-op count.
_FAKE_RUN = """import json, os, sys
with open(os.environ["FAKE_RUN_LOG"], "a") as log:
    log.write(json.dumps([os.path.basename(os.getcwd()), sys.argv[1:]]) + "\\n")
print("# environment " + json.dumps({"nproc": 2, "cpu_model": "Fake CPU", "python": "3.x", "numpy": "2.x"}))
print(json.dumps({"correct": True, "attempted": 7, "failed": FAILED,
                  "metrics": {"op_s.p50": {"value": P50, "unit": "s"},
                              "ops_per_s": {"value": OPS, "unit": "1/s"}}}))
"""


def _fake_run(p50: float, ops: float, failed: int = 0) -> str:
    return _FAKE_RUN.replace("P50", repr(p50)).replace("OPS", repr(ops)).replace("FAILED", str(failed))


def _git(repo: Path, *args: str) -> str:
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=repo,
                          capture_output=True, text=True, check=True).stdout.strip()


@pytest.fixture
def fake_repo(tmp_path):
    """A repository whose committed harness is the parent (p50 2.0) and whose working tree is the change."""
    repo = tmp_path / "change"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "scripts").mkdir()
    shutil.copy(SCRIPT, repo / "scripts" / "pairs.py")
    (repo / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "op_s.p50", "better": "lower"}, {"name": "ops_per_s", "better": "higher"}]}))
    (repo / "perfbench" / "run.py").write_text(_fake_run(2.0, 10.0))
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "parent")
    (repo / "perfbench" / "run.py").write_text(_fake_run(1.0, 12.0))
    return repo


def _pairs(repo: Path, *args: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if not k.startswith("GIT_")}
    env["FAKE_RUN_LOG"] = str(repo.parent / "calls.log")
    return subprocess.run([sys.executable, "scripts/pairs.py", "--against", "HEAD", *args], cwd=repo,
                          capture_output=True, text=True, env=env, timeout=120)


def _calls(repo: Path) -> list:
    return [json.loads(line) for line in (repo.parent / "calls.log").read_text().splitlines()]


def test_pairs_alternate_the_trees_and_summarize_the_paired_ratios(fake_repo):
    result = _pairs(fake_repo, "--workload", "crossover_scan", "--pairs", "3", "--seconds", "0.5",
                    "--out", "BENCH_x.json")
    assert result.returncode == 0, result.stderr
    parent_commit = _git(fake_repo, "rev-parse", "HEAD")
    # each tree ran its own harness, alternately first, with the untraced arguments
    argv = ["--workload", "crossover_scan", "--seconds", "0.5", "--trace", "0"]
    assert _calls(fake_repo) == [["parent", argv], ["change", argv], ["change", argv], ["parent", argv],
                                 ["parent", argv], ["change", argv]]
    # the worktree is gone, and git no longer lists it
    assert _git(fake_repo, "worktree", "list").count("\n") == 0
    bench = json.loads((fake_repo / "BENCH_x.json").read_text())
    assert set(bench) == {"command", "parent_commit", "change", "machine", "bytecode", "design", "summary", "runs"}
    assert bench["parent_commit"] == parent_commit
    assert bench["change"].endswith("parent (with uncommitted edits)")
    assert bench["machine"] == "2 CPUs, Fake CPU, Python 3.x, numpy 2.x"
    assert bench["bytecode"].startswith(f"PYTHONDONTWRITEBYTECODE={os.environ.get('PYTHONDONTWRITEBYTECODE', '')!r}")
    assert [(r["pair"], r["side"], r["order_in_pair"]) for r in bench["runs"]] == [
        (0, "parent", 0), (0, "change", 1), (1, "change", 0), (1, "parent", 1), (2, "parent", 0), (2, "change", 1)]
    summary = bench["summary"]["crossover_scan"]
    assert summary["pairs"] == 3
    assert summary["op_s.p50"] == {"unit": "s", "parent": [2.0] * 3, "change": [1.0] * 3, "ratio": [0.5] * 3,
                                   "better": "lower", "change_wins": 3, "pair_rule_holds": True}
    assert summary["ops_per_s"]["ratio"] == [1.2] * 3 and summary["ops_per_s"]["change_wins"] == 3

    # a second workload joins the same file with its own pair count; the first keeps its runs
    result = _pairs(fake_repo, "--workload", "verify", "--pairs", "1", "--seconds", "0.5", "--out", "BENCH_x.json")
    assert result.returncode == 0, result.stderr
    bench = json.loads((fake_repo / "BENCH_x.json").read_text())
    assert [bench["summary"][w]["pairs"] for w in ("crossover_scan", "verify")] == [3, 1]
    assert len(bench["runs"]) == 8 and "crossover_scan 3, verify 1" in bench["design"]


def test_pairs_fail_on_a_failed_op_and_on_one_sided_bytecode(fake_repo):
    (fake_repo / "perfbench" / "run.py").write_text(_fake_run(1.0, 12.0, failed=1))
    result = _pairs(fake_repo, "--workload", "verify", "--pairs", "2", "--out", "BENCH_x.json")
    assert result.returncode == 1 and "verify in" in result.stderr
    assert len(_calls(fake_repo)) == 2  # the parent's run passed, the change's failed
    assert not (fake_repo / "BENCH_x.json").exists()
    assert _git(fake_repo, "worktree", "list").count("\n") == 0

    (fake_repo / "perfbench" / "run.py").write_text(_fake_run(1.0, 12.0))
    (fake_repo / "src" / "qel" / "__pycache__").mkdir(parents=True)
    result = _pairs(fake_repo, "--workload", "verify", "--pairs", "2", "--out", "BENCH_x.json")
    assert result.returncode == 1 and "present in one tree only" in result.stderr
    assert len(_calls(fake_repo)) == 2
