"""The message-lifecycle ledger: every accepted message ends in exactly one
terminal disposition.

The paper's headline numbers are all *conservation statements* — 90.4M
inbound emails partitioned into delivered / quarantined / dropped /
challenged outcomes (Table 1, Fig. 1, the §3 ratios) — so a message our
pipeline silently strands skews every reproduced figure. This module makes
the partition explicit as a per-company state machine::

    accepted ─→ delivered        (sender whitelisted → straight to inbox)
             ─→ black_dropped    (sender blacklisted)
             ─→ filter_dropped   (auxiliary filter chain)
             ─→ quarantined ─→ released            (CAPTCHA or digest)
                            ─→ deleted             (user, from the digest)
                            ─→ expired             (30-day quarantine)
                            ─→ pending_at_horizon  (run ended first)

Each pipeline layer records its own stage: the engine records ``accept``,
the dispatcher records the classification, and the gray spool records the
quarantine terminals — so the ledger cross-checks the layers against each
other instead of trusting any single one.

Two operating modes:

* **Counters (always on).** O(1) per message; the end-of-run partition
  invariant (``accepted == sum of terminal buckets``, nothing left in
  quarantine) is checked after every run by
  :class:`~repro.experiments.runner.LedgerStats`.
* **Audit (opt-in).** ``run_simulation(audit=True)`` or ``--audit`` on
  the CLI additionally tracks every message's current
  state and validates each transition *as it happens* — an illegal edge
  (release after expiry, double finalize, a spool entry the ledger never
  saw) raises :class:`LedgerError` at the offending call, not at the end
  of the run. Audit mode changes no observable output: the measurement
  store is byte-identical with audit on or off.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class LedgerError(RuntimeError):
    """A lifecycle invariant was violated (illegal transition or a broken
    end-of-run partition)."""


class LifecycleState(enum.Enum):
    """Where one accepted message currently is in the CR pipeline."""

    # Identity hash (C speed) — these are dict/Counter keys on the per-
    # message hot path; enum equality is identity, so this is safe.
    __hash__ = object.__hash__

    ACCEPTED = "accepted"
    #: Terminal: sender whitelisted, message went straight to the inbox.
    DELIVERED = "delivered"
    #: Terminal: sender blacklisted, message silently dropped.
    BLACK_DROPPED = "black_dropped"
    #: Terminal: an auxiliary filter (AV/rDNS/RBL/SPF) dropped it.
    FILTER_DROPPED = "filter_dropped"
    #: Non-terminal: waiting in the gray spool.
    QUARANTINED = "quarantined"
    #: Terminal: released to the inbox (solved challenge or digest).
    RELEASED = "released"
    #: Terminal: the user deleted it from the digest.
    DELETED = "deleted"
    #: Terminal: the 30-day quarantine elapsed.
    EXPIRED = "expired"
    #: Terminal: still quarantined when the simulation horizon ended.
    PENDING_AT_HORIZON = "pending_at_horizon"


#: States a message can rest in forever. Everything else must drain.
TERMINAL_STATES = frozenset(
    {
        LifecycleState.DELIVERED,
        LifecycleState.BLACK_DROPPED,
        LifecycleState.FILTER_DROPPED,
        LifecycleState.RELEASED,
        LifecycleState.DELETED,
        LifecycleState.EXPIRED,
        LifecycleState.PENDING_AT_HORIZON,
    }
)

#: The legal edges of the state machine.
LEGAL_TRANSITIONS = {
    LifecycleState.ACCEPTED: frozenset(
        {
            LifecycleState.DELIVERED,
            LifecycleState.BLACK_DROPPED,
            LifecycleState.FILTER_DROPPED,
            LifecycleState.QUARANTINED,
        }
    ),
    LifecycleState.QUARANTINED: frozenset(
        {
            LifecycleState.RELEASED,
            LifecycleState.DELETED,
            LifecycleState.EXPIRED,
            LifecycleState.PENDING_AT_HORIZON,
        }
    ),
}


@dataclass(frozen=True)
class LedgerSnapshot:
    """Frozen end-of-run view of one company's ledger."""

    company_id: str
    audit: bool
    accepted: int
    delivered: int
    black_dropped: int
    filter_dropped: int
    quarantined_total: int
    released: int
    deleted: int
    expired: int
    pending_at_horizon: int
    #: Messages still in quarantine (should be 0 after the drain).
    in_quarantine: int
    #: Audit mode only: (msg_id, state) of every message *not* in a
    #: terminal state at snapshot time. Empty when conservation holds.
    stranded: tuple = ()

    @property
    def terminal_total(self) -> int:
        return (
            self.delivered
            + self.black_dropped
            + self.filter_dropped
            + self.released
            + self.deleted
            + self.expired
            + self.pending_at_horizon
        )

    @property
    def conserved(self) -> bool:
        """Every accepted message sits in exactly one terminal bucket."""
        return (
            self.accepted == self.terminal_total
            and self.in_quarantine == 0
            and not self.stranded
        )

    @property
    def live_conserved(self) -> bool:
        """Mid-run conservation: every accepted message is either in a
        terminal bucket or currently waiting in quarantine.

        This is the invariant a *running* service satisfies (quarantine is
        legitimately non-empty between digests); :attr:`conserved` is the
        end-of-run form after the drain. Used by the live frontend's
        WAL-replay reconciliation and its ``/stats`` endpoint.
        """
        return (
            self.in_quarantine >= 0
            and self.accepted == self.terminal_total + self.in_quarantine
        )


class MessageLedger:
    """Lifecycle accounting for one company's accepted messages.

    Counters are maintained unconditionally (a handful of dict increments
    per message). With ``audit=True`` the ledger also keeps every
    message's current state and raises :class:`LedgerError` the moment a
    transition is illegal or the running partition stops summing.
    """

    def __init__(self, company_id: str, audit: bool = False) -> None:
        self.company_id = company_id
        self.audit = audit
        self.accepted = 0
        self._counts: dict[LifecycleState, int] = {
            state: 0 for state in LifecycleState
        }
        #: msg_id -> current state; audit mode only.
        self._states: Optional[dict[int, LifecycleState]] = (
            {} if audit else None
        )

    # -- transitions ------------------------------------------------------

    def accept(self, msg_id: int) -> None:
        """MTA-IN accepted *msg_id*: it enters the lifecycle."""
        self.accepted += 1
        self._counts[LifecycleState.ACCEPTED] += 1
        if self._states is not None:
            if msg_id in self._states:
                raise LedgerError(
                    f"{self.company_id}: message {msg_id} accepted twice"
                )
            self._states[msg_id] = LifecycleState.ACCEPTED

    def transition(self, msg_id: int, state: LifecycleState) -> None:
        """Move *msg_id* into *state* (classification or a gray terminal)."""
        self._counts[state] += 1
        if self._states is None:
            return
        prev = self._states.get(msg_id)
        if prev is None:
            raise LedgerError(
                f"{self.company_id}: message {msg_id} moved to {state.value} "
                f"but was never accepted"
            )
        if state not in LEGAL_TRANSITIONS.get(prev, frozenset()):
            raise LedgerError(
                f"{self.company_id}: illegal lifecycle transition for "
                f"message {msg_id}: {prev.value} -> {state.value}"
            )
        self._states[msg_id] = state
        self._check_partition()

    # -- invariants -------------------------------------------------------

    @property
    def in_quarantine(self) -> int:
        """Messages currently waiting in the gray spool."""
        c = self._counts
        return c[LifecycleState.QUARANTINED] - (
            c[LifecycleState.RELEASED]
            + c[LifecycleState.DELETED]
            + c[LifecycleState.EXPIRED]
            + c[LifecycleState.PENDING_AT_HORIZON]
        )

    @property
    def unclassified(self) -> int:
        """Accepted messages the dispatcher has not yet placed (transiently
        nonzero only inside ``handle_inbound``)."""
        c = self._counts
        return self.accepted - (
            c[LifecycleState.DELIVERED]
            + c[LifecycleState.BLACK_DROPPED]
            + c[LifecycleState.FILTER_DROPPED]
            + c[LifecycleState.QUARANTINED]
        )

    def _check_partition(self) -> None:
        """Continuous audit-mode check: the stage counters still partition
        the accepted population (catches a layer bypassing the ledger)."""
        if self.unclassified != 0 or self.in_quarantine < 0:
            c = self._counts
            raise LedgerError(
                f"{self.company_id}: lifecycle partition broken: "
                f"{self.accepted} accepted != "
                f"{c[LifecycleState.DELIVERED]} delivered + "
                f"{c[LifecycleState.BLACK_DROPPED]} black + "
                f"{c[LifecycleState.FILTER_DROPPED]} filter-dropped + "
                f"{c[LifecycleState.QUARANTINED]} quarantined "
                f"(in quarantine now: {self.in_quarantine})"
            )

    def count(self, state: LifecycleState) -> int:
        return self._counts[state]

    def snapshot(self) -> LedgerSnapshot:
        """Freeze the ledger for end-of-run verdicts and reports."""
        c = self._counts
        stranded: tuple = ()
        if self._states is not None:
            stranded = tuple(
                (msg_id, state.value)
                for msg_id, state in self._states.items()
                if state not in TERMINAL_STATES
            )
        return LedgerSnapshot(
            company_id=self.company_id,
            audit=self.audit,
            accepted=self.accepted,
            delivered=c[LifecycleState.DELIVERED],
            black_dropped=c[LifecycleState.BLACK_DROPPED],
            filter_dropped=c[LifecycleState.FILTER_DROPPED],
            quarantined_total=c[LifecycleState.QUARANTINED],
            released=c[LifecycleState.RELEASED],
            deleted=c[LifecycleState.DELETED],
            expired=c[LifecycleState.EXPIRED],
            pending_at_horizon=c[LifecycleState.PENDING_AT_HORIZON],
            in_quarantine=self.in_quarantine,
            stranded=stranded,
        )


__all__ = [
    "LEGAL_TRANSITIONS",
    "LedgerError",
    "LedgerSnapshot",
    "LifecycleState",
    "MessageLedger",
    "TERMINAL_STATES",
]
