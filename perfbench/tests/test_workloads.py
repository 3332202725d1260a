"""The workloads' own code: WAL synthesis and the correctness gate."""

import hashlib

import live
import sim


def _sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_wal_synthesis_is_deterministic(tmp_path):
    first, again, other = (str(tmp_path / name) for name in "abc")
    live.synthesize_wal(first, 5, 300)
    live.synthesize_wal(again, 5, 300)
    live.synthesize_wal(other, 6, 300)
    assert _sha(first) == _sha(again)
    assert _sha(first) != _sha(other)


def test_synthesized_wal_replays_whole(tmp_path):
    from repro.serve.service import LiveCrService

    path = str(tmp_path / "w.wal")
    live.synthesize_wal(path, 5, 300)
    service = LiveCrService(live.PRESET, 5, path)
    report = service.recover()
    service.wal.close()
    assert report["reconciled"]
    assert report["applied"] == report["wal_records"] == 300
    assert report["applied_web"] == 0


class _Stats:
    conserved = True


class _Result:
    """Just enough of a SimulationResult for the gate."""

    def __init__(self):
        from repro.analysis.store import LogStore

        self.store = LogStore()
        self.ledger_stats = _Stats()
        self.fault_stats = _Stats()


def test_digest_mismatch_counts_as_a_failure():
    assert sim.pinned_digest(0) is not None
    checks = sim.gate(_Result(), "report", seed=0)  # an empty store
    assert ("store_digest", False) in checks
    assert sim.tally(checks) == (4, 1)


def test_unpinned_seed_skips_only_the_digest(capsys):
    checks = sim.gate(_Result(), "report", seed=10 ** 9)
    assert [name for name, _ok in checks] == [
        "ledger_conserved", "delivery_conserved", "report_rendered"]
    assert sim.tally(checks) == (3, 0)
    assert "no pinned digest" in capsys.readouterr().out
