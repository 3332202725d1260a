"""Unit tests for the LogStore and the Fig. 1 / Fig. 2 analyses."""

import pytest

from repro.analysis import flow, mta_breakdown
from repro.analysis.store import LogStore
from repro.core.challenge import WebAction
from repro.core.mta_in import DropReason
from repro.core.spools import Category, ReleaseMechanism
from repro.net.smtp import FinalStatus

from tests import recordfactory as rf


class TestLogStore:
    def test_summary_counts_empty(self):
        assert all(v == 0 for v in LogStore().summary_counts().values())

    def test_outcome_index(self):
        store = LogStore()
        rf.outcome(store, 1, company="c0")
        rf.outcome(store, 2, company="c1", status=FinalStatus.EXPIRED)
        assert store.outcome_of("c0", 1).status is FinalStatus.DELIVERED
        assert store.outcome_of("c1", 2).status is FinalStatus.EXPIRED
        assert store.outcome_of("c0", 2) is None

    def test_outcome_index_invalidated_on_append(self):
        store = LogStore()
        rf.outcome(store, 1)
        # Materialize the lazy index, then append: the new record must be
        # visible on re-query (the append bumps the table version, so the
        # cached aggregate is rebuilt).
        assert store.outcome_of("c0", 1) is not None
        rf.outcome(store, 2)
        assert store.outcome_of("c0", 2) is not None

    def test_web_index_invalidated_on_append(self):
        store = LogStore()
        rf.web(store, 1, WebAction.OPEN, t=10.0)
        assert len(store.web_events_of("c0", 1)) == 1
        rf.web(store, 1, WebAction.SOLVE, t=20.0)
        assert [e.action for e in store.web_events_of("c0", 1)] == [
            WebAction.OPEN,
            WebAction.SOLVE,
        ]

    def test_drop_indices_discards_caches_without_losing_records(self):
        store = LogStore()
        rf.outcome(store, 1)
        rf.web(store, 1, WebAction.OPEN, t=10.0)
        store.outcome_of("c0", 1)
        store.web_events_of("c0", 1)
        store.drop_indices()
        assert store._index is None
        # Queries rebuild transparently.
        assert store.outcome_of("c0", 1) is not None
        assert len(store.web_events_of("c0", 1)) == 1

    def test_web_index_groups_events(self):
        store = LogStore()
        rf.web(store, 1, WebAction.OPEN, t=10.0)
        rf.web(store, 1, WebAction.SOLVE, t=20.0)
        rf.web(store, 2, WebAction.OPEN, t=30.0)
        events = store.web_events_of("c0", 1)
        assert [e.action for e in events] == [WebAction.OPEN, WebAction.SOLVE]
        assert store.web_events_of("c0", 99) == []

    def test_company_ids_first_seen_order(self):
        store = LogStore()
        rf.mta(store, company="c2")
        rf.mta(store, company="c0")
        rf.mta(store, company="c2")
        assert store.company_ids() == ["c2", "c0"]


class TestRunRecordPickling:
    def _record(self):
        from repro.analysis.context import DeploymentInfo
        from repro.experiments.runner import RunRecord

        store = LogStore()
        rf.mta(store)
        msg = rf.dispatch(store, challenge_id=1, challenge_created=True)
        rf.outcome(store, 1)
        rf.web(store, 1, WebAction.SOLVE, t=5.0)
        rf.release(store, msg_id=msg, mechanism=ReleaseMechanism.CAPTCHA)
        info = DeploymentInfo(
            n_companies=1,
            n_open_relays=0,
            users_per_company={"c0": 5},
            horizon_days=10.0,
            min_cluster_size=2,
        )
        return RunRecord(store=store, info=info, seed=7, wall_seconds=0.1)

    def test_round_trips_through_pickle_unchanged(self):
        import pickle

        from repro.experiments.parallel import store_digest

        record = self._record()
        clone = pickle.loads(pickle.dumps(record))
        assert clone.digest == record.digest
        assert store_digest(clone.store) == record.digest
        assert clone.store.summary_counts() == record.store.summary_counts()
        assert clone.info == record.info
        assert clone.seed == record.seed
        # Correlation indices still work on the clone.
        assert clone.store.outcome_of("c0", 1) is not None


class TestMtaBreakdown:
    def _store(self):
        store = LogStore()
        # Closed relay: 6 dropped (4 unknown, 1 unresolvable, 1 malformed),
        # 4 accepted.
        for _ in range(4):
            rf.mta(store, drop=DropReason.UNKNOWN_RECIPIENT)
        rf.mta(store, drop=DropReason.UNRESOLVABLE_DOMAIN)
        rf.mta(store, drop=DropReason.MALFORMED)
        for _ in range(4):
            rf.mta(store)
        # Open relay: 1 dropped, 3 accepted.
        rf.mta(store, company="c9", open_relay=True, drop=DropReason.NO_RELAY)
        for _ in range(3):
            rf.mta(store, company="c9", open_relay=True)
        return store

    def test_drop_shares(self):
        result = mta_breakdown.compute(self._store())
        assert result.closed_total == 10
        assert result.open_total == 4
        assert result.drop_shares[DropReason.UNKNOWN_RECIPIENT] == 0.4
        assert result.drop_shares[DropReason.MALFORMED] == 0.1
        assert result.drop_shares[DropReason.SENDER_REJECTED] == 0.0

    def test_pass_rates(self):
        result = mta_breakdown.compute(self._store())
        assert result.closed_pass_rate == 0.4
        assert result.open_pass_rate == 0.75

    def test_render_contains_paper_values(self):
        out = mta_breakdown.render(self._store())
        assert "62.36%" in out
        assert "Unknown recipient" in out


class TestFlow:
    def _store(self):
        store = LogStore()
        # 10 messages at a closed-relay MTA: 5 dropped, 5 accepted.
        for _ in range(5):
            rf.mta(store, drop=DropReason.UNKNOWN_RECIPIENT)
        for _ in range(5):
            rf.mta(store)
        # Dispatch: 1 white, 1 black, 3 gray (1 filtered, 2 quarantined,
        # 1 challenge created + 1 suppressed).
        rf.dispatch(store, category=Category.WHITE)
        rf.dispatch(store, category=Category.BLACK)
        rf.dispatch(store, filter_drop="rbl")
        msg_a = rf.dispatch(store, challenge_id=1, challenge_created=True)
        rf.dispatch(store, challenge_id=1, challenge_created=False)
        rf.release(store, msg_id=msg_a, mechanism=ReleaseMechanism.CAPTCHA)
        return store

    def test_per_1000_scaling(self):
        result = flow.compute(self._store())
        assert result.dropped_at_mta == 500.0
        assert result.to_dispatcher == 500.0
        assert result.white == 100.0
        assert result.black == 100.0
        assert result.gray == 300.0
        assert result.filter_dropped == 100.0
        assert result.quarantined == 200.0
        assert result.challenges_sent == 100.0
        assert result.released_captcha == 100.0

    def test_conservation_check(self):
        result = flow.compute(self._store())
        assert result.conserved

    def test_open_relay_traffic_excluded(self):
        store = self._store()
        rf.mta(store, company="c9", open_relay=True)
        rf.dispatch(
            store, company="c9", open_relay=True, category=Category.WHITE
        )
        result = flow.compute(store)
        assert result.white == 100.0  # unchanged

    def test_empty_store_raises(self):
        with pytest.raises(ValueError):
            flow.compute(LogStore())


class TestFlowOnSimulation:
    def test_conservation_on_real_run(self, tiny_store):
        result = flow.compute(tiny_store)
        assert result.conserved

    def test_render_smoke(self, tiny_store):
        out = flow.render(tiny_store)
        assert "Fig. 1" in out
        assert "challenges sent" in out
