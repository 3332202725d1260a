"""The declarative scenario subsystem: YAML pack loading, ``_base``
layering, spec hashing, cache-key folding, verdict evaluation, and the
CLI surface.

The pack itself is load-bearing fixture data: these tests run against
the repository's ``scenarios/`` directory as shipped, plus synthetic
packs in tmp directories (via ``REPRO_SCENARIO_DIR``) for the layering
and validation edge cases.
"""

from __future__ import annotations

import pickle
import subprocess
import sys

import pytest

from repro.analysis.verdicts import METRICS, evaluate
from repro.experiments.checks import check_dir
from repro.experiments.parallel import (
    ParallelRunner,
    RunCache,
    RunSpec,
    store_digest,
)
from repro.experiments.runner import run_simulation
from repro.scenarios import (
    ScenarioError,
    ScenarioSpec,
    load_scenario,
    resolve_scenario,
    scenario_names,
)
from repro.scenarios.loader import _mini_parse, scenario_dir

@pytest.fixture()
def pack_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SCENARIO_DIR", str(tmp_path))
    return tmp_path


# -- the shipped pack --------------------------------------------------------


class TestShippedPack:
    def test_pack_has_at_least_five_scenarios(self):
        assert len(scenario_names()) >= 5

    def test_underscore_files_hidden(self):
        assert not any(n.startswith("_") for n in scenario_names())

    @pytest.mark.parametrize("name", scenario_names())
    def test_scenario_loads_hashes_and_pickles(self, name):
        spec = load_scenario(name)
        assert spec.name == name
        assert spec.attacks, "every pack scenario declares an attack"
        assert spec.verdicts, "every pack scenario declares verdicts"
        hash(spec)  # cache-key ingredient: must be hashable
        clone = pickle.loads(pickle.dumps(spec))  # ships to shard workers
        assert clone == spec

    @pytest.mark.parametrize("name", scenario_names())
    def test_build_attacks_returns_fresh_instances(self, name):
        spec = load_scenario(name)
        first, second = spec.build_attacks(), spec.build_attacks()
        assert [type(a) for a in first] == [type(a) for a in second]
        assert all(a is not b for a, b in zip(first, second))

    def test_mini_parser_matches_pyyaml_on_every_pack_file(self):
        """The scenario pack and the check files both load without PyYAML
        in CI, so the fallback parser must read each one identically."""
        yaml = pytest.importorskip("yaml")
        checks = list(check_dir().glob("*.yaml"))
        assert checks, "no check files found"
        for path in sorted([*scenario_dir().glob("*.yaml"), *checks]):
            text = path.read_text()
            assert _mini_parse(text, str(path)) == yaml.safe_load(text), path

    def test_pack_verdict_metrics_exist(self):
        for name in scenario_names():
            for check in load_scenario(name).verdicts:
                assert check.metric in METRICS


# -- layering and validation -------------------------------------------------


def _write(pack_dir, name, text):
    (pack_dir / name).write_text(text)


class TestLayering:
    def test_base_layering_deep_merges(self, pack_dir):
        _write(
            pack_dir,
            "_shared.yaml",
            "description: base\nfaults: mild\n"
            "attacks:\n"
            "  - kind: trap-bombing\n"
            "    company_id: c01\n",
        )
        _write(
            pack_dir,
            "child.yaml",
            "_base: _shared\ndescription: child wins\n",
        )
        spec = load_scenario("child")
        assert spec.description == "child wins"  # child overrides scalar
        assert spec.faults == "mild"  # base survives where child silent
        assert spec.attacks[0].kind == "trap-bombing"

    def test_base_cycle_detected(self, pack_dir):
        _write(pack_dir, "a.yaml", "_base: b\n")
        _write(pack_dir, "b.yaml", "_base: a\n")
        with pytest.raises(ScenarioError, match="cycle"):
            load_scenario("a")

    def test_unknown_key_rejected(self, pack_dir):
        _write(pack_dir, "bad.yaml", "description: x\nattcks: []\n")
        with pytest.raises(ScenarioError, match="attcks"):
            load_scenario("bad")

    def test_unknown_attack_kind_rejected(self, pack_dir):
        _write(
            pack_dir,
            "bad.yaml",
            "attacks:\n  - kind: nope\n    company_id: c01\n",
        )
        with pytest.raises(ScenarioError, match="nope"):
            load_scenario("bad")

    def test_unknown_metric_rejected(self, pack_dir):
        _write(
            pack_dir,
            "bad.yaml",
            "verdicts:\n"
            "  - name: x\n    metric: bogus_metric\n    value: 1\n",
        )
        with pytest.raises(ScenarioError, match="bogus_metric"):
            load_scenario("bad")

    @pytest.mark.parametrize("metric, value, typo", [
        ("fautls.expired", 1, "fautls"),
        ("ledger.accepted", "ledgr.terminal_total", "ledgr"),
    ])
    def test_dotted_name_needs_a_known_group(
        self, pack_dir, metric, value, typo
    ):
        verdict = f"{{name: x, metric: {metric}, value: {value}}}"
        _write(pack_dir, "bad.yaml", f"verdicts:\n  - {verdict}\n")
        with pytest.raises(ScenarioError, match=typo):
            load_scenario("bad")

    def test_unknown_filter_field_rejected(self, pack_dir):
        # The filters: key is gone entirely; the error points at chain:.
        _write(pack_dir, "bad.yaml", "filters:\n  not_a_field: true\n")
        with pytest.raises(ScenarioError, match="not_a_field") as excinfo:
            load_scenario("bad")
        assert "chain:" in str(excinfo.value)

    def test_missing_scenario_names_known_ones(self, pack_dir):
        _write(pack_dir, "only.yaml", "description: x\n")
        with pytest.raises(ScenarioError, match="only"):
            load_scenario("ghost")

    def test_resolve_scenario_type_error(self):
        with pytest.raises(TypeError):
            resolve_scenario(42)
        assert resolve_scenario(None) is None
        spec = ScenarioSpec(name="inline")
        assert resolve_scenario(spec) is spec


# -- run integration ---------------------------------------------------------


class TestRunIntegration:
    def test_scenario_run_is_deterministic(self):
        spec = load_scenario("whitelist-spoofing")
        a = run_simulation("tiny", seed=11, scenario=spec)
        b = run_simulation("tiny", seed=11, scenario="whitelist-spoofing")
        assert store_digest(a.store) == store_digest(b.store)
        va, vb = evaluate(a, spec), evaluate(b, spec)
        assert va == vb
        assert all(c.error is None for c in va.checks)

    def test_scenario_declared_faults_apply(self):
        # flash-crowd carries faults: mild in YAML.
        result = run_simulation("tiny", seed=11, scenario="flash-crowd")
        base = run_simulation("tiny", seed=11, faults="mild")
        spec = result.scenario
        assert spec is not None and spec.faults == "mild"
        # Same weather preset: non-victim companies see fault effects too,
        # so the run differs from the no-fault baseline in bounce traffic.
        assert store_digest(result.store) != store_digest(base.store)

    def test_explicit_faults_override_scenario(self):
        stormy = run_simulation(
            "tiny", seed=11, scenario="flash-crowd", faults="stormy"
        )
        declared = run_simulation("tiny", seed=11, scenario="flash-crowd")
        assert store_digest(stormy.store) != store_digest(declared.store)

    def test_scenario_free_result_carries_no_scenario(self):
        assert run_simulation("tiny", seed=11).scenario is None


# -- caching -----------------------------------------------------------------


class TestScenarioCaching:
    def test_scenario_folds_into_cache_key(self, tmp_path):
        plain = RunSpec("tiny", seed=3)
        scenario = RunSpec("tiny", seed=3, scenario="captcha-farm")
        assert plain.cache_key() != scenario.cache_key()
        cache = RunCache(tmp_path / "runs")
        assert cache.path_for(plain.cache_key()) != cache.path_for(
            scenario.cache_key()
        )

    def test_scenario_key_tracks_spec_content(self):
        by_name = RunSpec("tiny", seed=3, scenario="captcha-farm")
        by_spec = RunSpec(
            "tiny", seed=3, scenario=load_scenario("captcha-farm")
        )
        assert by_name.cache_key() == by_spec.cache_key()

    def test_cached_scenario_run_matches_uncached(self, tmp_path):
        cache = RunCache(tmp_path / "runs")
        spec = RunSpec("tiny", seed=3, scenario="trap-bombing")
        first = ParallelRunner(jobs=1, cache=cache)
        (cold,) = first.run([spec])
        assert (first.cache_hits, first.runs_executed) == (0, 1)

        second = ParallelRunner(jobs=1, cache=cache)
        (warm,) = second.run([spec])
        assert (second.cache_hits, second.runs_executed) == (1, 0)
        assert warm.digest == cold.digest

        uncached = run_simulation("tiny", seed=3, scenario="trap-bombing")
        assert cold.digest == store_digest(uncached.store)


# -- CLI ---------------------------------------------------------------------


def _cli(*argv):
    import os

    root = scenario_dir().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("REPRO_SCENARIO_DIR", None)
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        cwd=str(root),
        env=env,
    )


class TestCli:
    def test_scenarios_command_lists_pack(self):
        proc = _cli("scenarios")
        assert proc.returncode == 0
        for name in scenario_names():
            assert name in proc.stdout

    def test_run_with_scenario_prints_verdict(self):
        proc = _cli(
            "run", "--scenario", "whitelist-spoofing", "--seed", "7"
        )
        assert proc.returncode == 0
        assert "Scenario verdict — whitelist-spoofing" in proc.stdout
        assert "VERDICT:" in proc.stdout

    def test_unknown_scenario_fails_cleanly(self):
        proc = _cli("run", "--scenario", "no-such-scenario")
        assert proc.returncode == 2
        assert "scenario error" in proc.stderr
