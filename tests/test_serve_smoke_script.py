"""``scripts/serve_smoke.py`` cleans up the work directory it made."""

from __future__ import annotations

import importlib.util
import pathlib
import tempfile

import pytest

from repro.serve.chaos import ChaosError

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = REPO_ROOT / "scripts" / "serve_smoke.py"

#: The fields of a chaos report the script prints on a pass.
REPORT = {
    "kills": 1,
    "cumulative_acked": 3,
    "final_reconciliation": {"accepted": 3},
    "torn_tails_seen": 0,
    "final_boot": {"recovered_records": 3, "boot_to_ready_s": 0.1},
    "clean_burst": {
        "sustained_msgs_per_sec": 10.0,
        "accept_latency_ms": {"p99": 1.0},
    },
}


def _load_script():
    spec = importlib.util.spec_from_file_location("serve_smoke", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("passes", [True, False], ids=["pass", "fail"])
def test_temp_workdir_is_removed(tmp_path, monkeypatch, passes):
    script = _load_script()
    made = []
    real_mkdtemp = tempfile.mkdtemp

    def mkdtemp(**kwargs):
        made.append(real_mkdtemp(dir=tmp_path, **kwargs))
        return made[-1]

    async def run_chaos(workdir, kills):
        (pathlib.Path(workdir) / "serve.wal").write_bytes(b"wal")
        if not passes:
            raise ChaosError("acked message lost")
        return REPORT

    monkeypatch.setattr(script.tempfile, "mkdtemp", mkdtemp)
    monkeypatch.setattr(script, "run_chaos", run_chaos)
    artifact = tmp_path / "report.json"
    code = script.main(["--kills", "1", "--artifact", str(artifact)])
    assert code == (0 if passes else 1)
    assert len(made) == 1
    assert not pathlib.Path(made[0]).exists()
    assert artifact.exists() == passes


def test_given_workdir_is_kept(tmp_path, monkeypatch):
    script = _load_script()

    async def run_chaos(workdir, kills):
        (pathlib.Path(workdir) / "serve.wal").write_bytes(b"wal")
        return REPORT

    monkeypatch.setattr(script, "run_chaos", run_chaos)
    workdir = tmp_path / "work"
    workdir.mkdir()
    assert script.main(["--workdir", str(workdir), "--artifact",
                        str(tmp_path / "report.json")]) == 0
    assert (workdir / "serve.wal").exists()
