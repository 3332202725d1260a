"""The frozen schema-1 performance history: schema and derivation checks.

Before the perfbench-hosted gate, each performance-relevant change
committed a ``BENCH_PR<n>.json`` (schema 1: the best-of-N ``small``/11
wall). Those entries are frozen in
``bench_history/``; the live gate reads only the schema-2 entries at the
repo root (``tests/test_bench_gate.py``). These tests keep the history
honest: every frozen entry stays complete and internally derived, and the
history table in DESIGN.md section 11 quotes what the files record.
"""

from __future__ import annotations

import json
import pathlib
import re

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
HISTORY = REPO_ROOT / "bench_history"

#: Every schema-1 entry carries these keys.
REQUIRED_KEYS = {
    "schema",
    "pr",
    "preset",
    "seed",
    "repeats",
    "messages",
    "events",
    "wall_seconds_best",
    "wall_seconds_median",
    "msgs_per_sec",
    "baseline_pr",
    "baseline_commit",
    "python",
    "notes",
}


def _entries() -> list:
    entries = []
    for path in sorted(HISTORY.glob("BENCH_PR*.json")):
        match = re.fullmatch(r"BENCH_PR(\d+)\.json", path.name)
        if match:
            entries.append((int(match.group(1)), path, json.loads(path.read_text())))
    return sorted(entries)


def test_trajectory_is_committed():
    """Removing the frozen history fails the build."""
    prs = [pr for pr, _, _ in _entries()]
    assert prs == [5, 6, 7, 9, 10, 13], f"schema-1 history changed: {prs}"
    assert not list(REPO_ROOT.glob("BENCH_PR*.json")) or all(
        json.loads(p.read_text())["schema"] == 2
        for p in REPO_ROOT.glob("BENCH_PR*.json")
    ), "a schema-1 entry at the repo root would be read by the live gate"


@pytest.mark.parametrize("pr,path,data", _entries() or [(0, None, None)])
def test_entry_schema(pr, path, data):
    if path is None:
        pytest.fail("no frozen bench_history/BENCH_PR*.json found")
    missing = REQUIRED_KEYS - data.keys()
    assert not missing, f"{path.name} missing keys: {sorted(missing)}"
    assert data["schema"] == 1
    assert data["pr"] == pr
    assert data["preset"] == "small", "the trajectory preset is pinned"
    assert data["seed"] == 11, "the trajectory seed is pinned"
    assert data["repeats"] >= 3
    assert data["messages"] > 0 and data["events"] >= data["messages"]
    assert 0 < data["wall_seconds_best"] <= data["wall_seconds_median"]
    # msgs_per_sec must be derived from the recorded numbers, not typed in.
    derived = data["messages"] / data["wall_seconds_best"]
    assert data["msgs_per_sec"] == pytest.approx(derived, rel=0.01)


def test_design_history_table_quotes_the_files():
    """DESIGN.md section 11's schema-1 rows are the frozen figures."""
    by_pr = {pr: data for pr, _, data in _entries()}
    design = (REPO_ROOT / "DESIGN.md").read_text()

    def kmsgs(msgs_per_sec: float) -> str:
        return f"{msgs_per_sec / 1000:.1f}k"

    pr10_same_session = by_pr[13]["messages"] / by_pr[13]["baseline_wall_seconds_best"]
    rows = {
        5: f"| PR 5 (seed tree) | — | {kmsgs(by_pr[5]['msgs_per_sec'])} | — |",
        6: (f"| PR 6 (batched data plane) | PR 5 | {kmsgs(by_pr[6]['msgs_per_sec'])}"
            f" | {by_pr[6]['speedup_vs_baseline']:.2f}× |"),
        13: (f"| PR 13 (collector pause) | PR 10 | {kmsgs(by_pr[13]['msgs_per_sec'])}"
             f" (PR 10: {kmsgs(pr10_same_session)}) |"
             f" {by_pr[13]['speedup_vs_baseline']:.2f}× |"),
    }
    for pr, row in rows.items():
        assert row in design, f"DESIGN.md history row for PR {pr} should read {row!r}"
