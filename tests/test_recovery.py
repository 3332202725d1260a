"""Checkpoint/restore contract: resume ≡ uninterrupted, byte for byte.

The pinned property (ISSUE 5's tentpole): a run checkpointed at time *T*
and resumed from that snapshot produces a byte-identical measurement
store — same :func:`store_digest` — as the same run left alone, across
seeds and checkpoint times, and enabling checkpointing changes nothing
about an uninterrupted run either.
"""

import pickle

import pytest

from repro.core.recovery import (
    CHECKPOINT_FORMAT,
    CheckpointError,
    checkpoint_paths,
    latest_checkpoint,
    load_checkpoint,
)
from repro.experiments.parallel import store_digest
from repro.experiments.runner import run_simulation
from repro.util.simtime import DAY

#: Two seeds x (first, last) checkpoint times = the >=2x>=2 resume grid.
SEEDS = (3, 7)


@pytest.fixture(scope="module")
def baseline_digests():
    """Uninterrupted flaky+audit runs, one per seed."""
    return {
        seed: store_digest(
            run_simulation("tiny", seed=seed, crashes="flaky", audit=True).store
        )
        for seed in SEEDS
    }


@pytest.fixture(scope="module")
def checkpointed(tmp_path_factory, baseline_digests):
    """Same runs with snapshots every 3 sim-days; returns seed -> paths."""
    snapshots = {}
    for seed in SEEDS:
        directory = str(tmp_path_factory.mktemp(f"ckpt-seed{seed}"))
        result = run_simulation(
            "tiny",
            seed=seed,
            crashes="flaky",
            audit=True,
            checkpoint_every=3 * DAY,
            checkpoint_dir=directory,
        )
        # Checkpointing is observation-free: the checkpointed run itself
        # is byte-identical to the run without snapshots.
        assert store_digest(result.store) == baseline_digests[seed]
        snapshots[seed] = checkpoint_paths(directory)
        assert len(snapshots[seed]) >= 2
    return snapshots


class TestResumeDeterminism:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("which", [0, -1])
    def test_resume_equals_uninterrupted(
        self, seed, which, checkpointed, baseline_digests
    ):
        snapshot = checkpointed[seed][which]
        resumed = run_simulation(resume_from=snapshot)
        assert store_digest(resumed.store) == baseline_digests[seed]
        assert resumed.restored_from == snapshot
        assert resumed.metrics["checkpoint.restore_seconds"] > 0

    def test_resumed_run_reports_crashes(self, checkpointed):
        resumed = run_simulation(resume_from=checkpointed[SEEDS[0]][0])
        assert resumed.metrics["crashes.crashes"] > 0
        assert resumed.metrics["crashes.lost"] == 0

    def test_latest_checkpoint_is_the_newest(self, checkpointed):
        paths = checkpointed[SEEDS[0]]
        directory = paths[0].rsplit("/", 1)[0]
        assert latest_checkpoint(directory) == paths[-1]


class TestCheckpointValidation:
    def test_checkpoint_every_requires_a_directory(self):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            run_simulation("tiny", seed=3, checkpoint_every=3 * DAY)

    def test_missing_snapshot_refused(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            load_checkpoint(str(tmp_path / "checkpoint-000000000000.pkl"))

    @pytest.mark.parametrize(
        "junk", [b"", b"garbage", pickle.dumps(["not", "a", "snapshot"])]
    )
    def test_garbage_snapshot_refused(self, tmp_path, junk):
        path = tmp_path / "checkpoint-000000000000.pkl"
        path.write_bytes(junk)
        with pytest.raises(CheckpointError, match="corrupt"):
            load_checkpoint(str(path))

    def test_version_mismatch_refused(self, tmp_path):
        path = tmp_path / "checkpoint-000000000000.pkl"
        path.write_bytes(
            pickle.dumps(
                {
                    "format": CHECKPOINT_FORMAT,
                    "version": "0.0.0-other",
                    "sim_time": 0.0,
                    "state": None,
                }
            )
        )
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(str(path))

    def test_format_mismatch_refused(self, tmp_path):
        path = tmp_path / "checkpoint-000000000000.pkl"
        path.write_bytes(
            pickle.dumps(
                {
                    "format": CHECKPOINT_FORMAT + 1,
                    "version": "whatever",
                    "sim_time": 0.0,
                    "state": None,
                }
            )
        )
        with pytest.raises(CheckpointError, match="format"):
            load_checkpoint(str(path))

    def test_resume_from_missing_snapshot_refused(self, tmp_path):
        with pytest.raises(CheckpointError):
            run_simulation(resume_from=str(tmp_path / "nope.pkl"))


# -- the batched data plane through the pickle boundary (PR 6) ---------------


class _Recorder:
    """Picklable callback target: travels inside the snapshot graph."""

    def __init__(self):
        self.fired = []

    def __call__(self, tag):
        self.fired.append(tag)


def _finalize(batch):
    from repro.core.message import allocate_msg_id_block

    batch.seal()
    return batch.materialize(allocate_msg_id_block(len(batch)))


class TestBatchedRepresentationPickles:
    """ISSUE 6: slotted/columnar structures must checkpoint and resume
    byte-identically — covered end-to-end by TestResumeDeterminism (whole
    runs), pinned here at the structure level."""

    def test_slotted_message_round_trip(self):
        from repro.core.message import EmailMessage, MessageKind, SenderClass

        message = EmailMessage(
            7, 1.5, "a@b.example", "c@d.example", "subj", 1200, "1.2.3.4",
            MessageKind.SPAM, SenderClass.SPAM_TRAP, "sc-1", True,
            mta_hint=(None, "b.example", None),
        )
        clone = pickle.loads(pickle.dumps(message))
        assert clone == message
        assert clone.mta_hint == (None, "b.example", None)

    def test_message_batch_round_trip_finalizes_identically(self):
        from repro.core.message import (
            MessageBatch,
            MessageKind,
            SenderClass,
            restore_msg_ids,
            snapshot_msg_ids,
        )

        recorder = _Recorder()
        batch = MessageBatch()
        for i, t in enumerate([5.0, 1.0, 5.0, 3.0]):
            batch.rows.append((
                t, f"s{i}@x.example", f"r{i}@y.example", "s", 100 + i,
                "9.9.9.9", MessageKind.SPAM, SenderClass.REAL, None, False,
            ))
            batch.handlers.append(recorder)
        clone = pickle.loads(pickle.dumps(batch))

        mark = snapshot_msg_ids()
        times_a, handlers_a, messages_a = _finalize(batch)
        restore_msg_ids(mark)
        times_b, handlers_b, messages_b = _finalize(clone)
        assert times_a == times_b == [1.0, 3.0, 5.0, 5.0]
        assert messages_a == messages_b  # same ids, same stable tie order
        assert len(handlers_b) == 4

    def test_simulator_resumes_mid_batch_after_pickle(self):
        """A snapshot taken with a batch partially consumed must resume
        exactly where it stopped: remaining items fire once, in order."""
        from repro.sim.engine import Simulator

        recorder = _Recorder()
        sim = Simulator()
        times = [float(t) for t in range(10)]
        sim.schedule_batch(times, [recorder] * 10, list(range(10)))
        sim.run(until=4.5)
        assert recorder.fired == [0, 1, 2, 3, 4]
        assert sim.pending == 5

        blob = pickle.dumps((sim, recorder))
        sim.run()
        assert recorder.fired == list(range(10))

        restored_sim, restored_recorder = pickle.loads(blob)
        assert restored_recorder.fired == [0, 1, 2, 3, 4]
        assert restored_sim.pending == 5
        restored_sim.run()
        assert restored_recorder.fired == list(range(10))
        assert restored_sim.pending == 0
