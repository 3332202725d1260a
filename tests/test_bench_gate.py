"""The throughput gate in ``scripts/bench_gate.py`` and the entry it reads.

The gate's logic runs against a stubbed perfbench call, so no simulation
runs here; the baseline worktree is exercised in a throwaway git
repository. ``TestCommittedEntry`` pins the newest committed
``BENCH_PR*.json``, the file ``--check`` holds the live ratio against.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import pathlib
import re
import shutil
import subprocess
import tempfile

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_gate():
    spec = importlib.util.spec_from_file_location(
        "bench_gate", REPO_ROOT / "scripts" / "bench_gate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = _load_gate()
needs_git = pytest.mark.skipif(shutil.which("git") is None, reason="no git")


def _result(throughput: float, correct: bool = True, failed: int = 0) -> dict:
    return {"correct": correct, "attempted": 1000, "failed": failed,
            "metrics": {"throughput_per_s": {"value": throughput,
                                             "unit": "1/s"}}}


class TestVerdict:
    def test_passes_exactly_at_the_floor(self):
        assert 1.25 * (1.0 - gate.TOLERANCE) == 1.0
        assert gate.verdict(1.25, [_result(1000.0)], [_result(1000.0)]) == 0

    def test_fails_just_below_the_floor(self):
        assert gate.verdict(1.25, [_result(999.9)], [_result(1000.0)]) == 1

    def test_ratio_is_median_over_median(self):
        head = [_result(v) for v in (300.0, 100.0, 200.0)]
        base = [_result(v) for v in (50.0, 400.0, 100.0)]
        assert gate.ratio(head, base) == 2.0

    @pytest.mark.parametrize("side", ["head", "baseline"])
    @pytest.mark.parametrize("bad", [{"correct": False}, {"failed": 1}])
    def test_one_bad_run_on_either_side_fails(self, side, bad):
        good = [_result(2000.0) for _ in range(3)]
        spoiled = [_result(2000.0), _result(2000.0, **bad), _result(2000.0)]
        head, base = (spoiled, good) if side == "head" else (good, spoiled)
        assert gate.verdict(1.0, head, base) == 1
        assert gate.verdict(1.0, good, good) == 0


def test_pairs_alternate_which_side_runs_first(monkeypatch):
    calls = []

    def fake_run(root, trace=0):
        calls.append(root)
        return _result(200.0 if root == gate.REPO_ROOT else 100.0)

    monkeypatch.setattr(gate, "run_perfbench", fake_run)
    base_root = pathlib.Path("baseline-tree")
    head, base = gate.measure_pairs(base_root, 4)
    h, b = gate.REPO_ROOT, base_root
    assert calls == [h, b, b, h, h, b, b, h]
    assert gate.ratio(head, base) == 2.0


@pytest.fixture
def repo(tmp_path, monkeypatch):
    """A git repository whose working tree differs from its one commit in
    both ``src/`` and ``perfbench/``; worktrees go under *tmp_path*."""
    root = tmp_path / "repo"
    for sub in ("src", "perfbench"):
        (root / sub).mkdir(parents=True)
        (root / sub / "file.py").write_text("committed\n")

    def git(*args):
        return subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@example.com",
             "-c", "commit.gpgsign=false", *args],
            cwd=root, check=True, capture_output=True, text=True,
        ).stdout

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "baseline")
    commit = git("rev-parse", "HEAD").strip()
    for sub in ("src", "perfbench"):
        (root / sub / "file.py").write_text("head\n")
    monkeypatch.setattr(gate, "REPO_ROOT", root)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))

    def leftovers():
        worktrees = git("worktree", "list", "--porcelain").count("worktree ")
        return worktrees - 1, sorted(tmp_path.glob("bench-baseline-*"))

    return commit, leftovers


@needs_git
def test_baseline_tree_gets_heads_perfbench(repo):
    commit, leftovers = repo
    with gate.baseline_tree(commit) as tree:
        assert (tree / "src" / "file.py").read_text() == "committed\n"
        assert (tree / "perfbench" / "file.py").read_text() == "head\n"
    assert leftovers() == (0, [])


@needs_git
def test_worktree_is_removed_when_a_run_raises(repo, monkeypatch):
    commit, leftovers = repo
    (gate.REPO_ROOT / "BENCH_PR2.json").write_text(json.dumps(
        {"ratio": 1.0, "baseline_pr": 1, "baseline_commit": commit,
         "python": "3.11.7"}))

    def failing_run(root, trace=0):
        assert leftovers()[0] == 1
        raise subprocess.CalledProcessError(1, "perfbench/run.py")

    monkeypatch.setattr(gate, "run_perfbench", failing_run)
    with pytest.raises(subprocess.CalledProcessError):
        gate.cmd_check(pairs=2)
    assert leftovers() == (0, [])


@needs_git
def test_write_then_check_round_trip(repo, monkeypatch):
    commit, leftovers = repo

    def fake_run(root, trace=0):
        return _result(300.0 if root == gate.REPO_ROOT else 200.0)

    monkeypatch.setattr(gate, "run_perfbench", fake_run)
    args = argparse.Namespace(pr=3, baseline_commit=commit, baseline_pr=1,
                              pairs=2, notes="")
    assert gate.cmd_write(args) == 0
    pr, path, entry = gate.newest_entry()
    assert (pr, entry["schema"], entry["ratio"]) == (3, 2, 1.5)
    assert len(entry["head"]) == len(entry["baseline"]) == 2
    assert gate.cmd_check(pairs=2) == 0
    assert leftovers() == (0, [])


class TestCommittedEntry:
    """The newest ``BENCH_PR*.json`` is a complete, derived record."""

    pr, path, entry = gate.newest_entry()

    def test_schema_and_workload(self):
        entry = self.entry
        assert self.path.name == f"BENCH_PR{entry['pr']}.json"
        assert entry["schema"] == gate.SCHEMA == 2
        assert (entry["workload"], entry["seed"]) == (gate.WORKLOAD, gate.SEED)
        assert len(entry["head"]) >= 10
        assert len(entry["baseline"]) >= 10

    def test_every_recorded_run_is_correct(self):
        runs = self.entry["head"] + self.entry["baseline"] + [
            self.entry["layers"]]
        assert gate.bad_runs(runs) == []
        assert all(run["correct"] is True for run in runs)

    def test_ratio_is_derived_from_the_recorded_runs(self):
        entry = self.entry
        assert entry["ratio"] == gate.ratio(entry["head"], entry["baseline"])

    def test_layers_cover_every_per_layer_name(self):
        benchmark = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
        names = {layer["name"] for layer in benchmark["per_layer"]}
        assert names <= set(self.entry["layers"]["metrics"])

    def test_ci_gate_runs_the_entrys_interpreter(self):
        ci = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
        job = ci[ci.index("\n  bench-gate:"):]
        pinned = re.search(r'python-version: "([\d.]+)"', job).group(1)
        assert pinned == gate._minor(self.entry["python"])

    @needs_git
    def test_baseline_commit_resolves(self):
        if not (REPO_ROOT / ".git").exists():
            pytest.skip("not a git checkout")
        shallow = subprocess.run(
            ["git", "rev-parse", "--is-shallow-repository"], cwd=REPO_ROOT,
            stdout=subprocess.PIPE, check=True).stdout.decode().strip()
        if shallow == "true":
            # A depth-1 clone lacks older commits; the bench-gate job
            # checks out full history and resolves the commit itself.
            pytest.skip("shallow clone: history not fetched")
        commit = self.entry["baseline_commit"]
        subprocess.run(["git", "cat-file", "-e", f"{commit}^{{commit}}"],
                       cwd=REPO_ROOT, check=True)
