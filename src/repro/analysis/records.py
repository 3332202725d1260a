"""Typed log records — the schema of our simulated measurement database.

Each record type corresponds to one log source the paper collected:

* :class:`MtaRecord` — MTA-IN logs (accept/drop + reason);
* :class:`DispatchRecord` — CR-engine logs (spool category, filter drops,
  challenge linkage, plus header-derived metadata: subject, size, SPF);
* :class:`ChallengeRecord` / :class:`ChallengeOutcomeRecord` — challenge
  MTA logs (sent challenges and their delivery status);
* :class:`WebAccessRecord` — the challenge web server's access logs;
* :class:`ReleaseRecord` — gray→inbox releases (delay measurements);
* :class:`WhitelistChangeRecord` — whitelist modifications (churn);
* :class:`DigestRecord` — daily digest sizes;
* :class:`ExpiryRecord` — quarantine expirations;
* :class:`OutboundMailRecord` — outgoing user mail;
* :class:`~repro.blacklistd.monitor.ProbeObservation` — blacklist probes.

Ground-truth fields (``kind``, ``sender_class``, ``campaign_id``) appear on
``DispatchRecord`` for *evaluation* analyses only — the system itself never
reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.challenge import WebAction
from repro.core.message import MessageKind, SenderClass
from repro.core.mta_in import DropReason
from repro.core.filters.spf import SpfResult
from repro.core.spools import Category, ReleaseMechanism
from repro.core.whitelist import WhitelistSource
from repro.net.smtp import BounceReason, FinalStatus
from repro.util.slots import slotted


@slotted
@dataclass
class MtaRecord:
    """One message's treatment at MTA-IN."""

    company_id: str
    t: float
    msg_id: int
    #: ``None`` when the message was accepted.
    drop_reason: Optional[DropReason]
    open_relay: bool
    size: int

    @property
    def accepted(self) -> bool:
        return self.drop_reason is None


@slotted
@dataclass
class DispatchRecord:
    """One accepted message's treatment at the CR dispatcher."""

    company_id: str
    t: float
    msg_id: int
    user: str
    category: Category
    #: Name of the filter that dropped a gray message, or ``None``.
    filter_drop: Optional[str]
    #: Challenge this message is attached to (gray, unfiltered only).
    challenge_id: Optional[int]
    #: True when this message triggered a new challenge email; False when it
    #: attached to a pending one (suppressed duplicate).
    challenge_created: bool
    env_from: str
    subject: str
    size: int
    #: Offline SPF evaluation of gray messages (Fig. 12); NONE for others.
    spf: SpfResult
    kind: MessageKind
    sender_class: SenderClass
    campaign_id: Optional[str]
    open_relay: bool
    protected_user: bool


@slotted
@dataclass
class ChallengeRecord:
    """One challenge email handed to the challenge MTA."""

    company_id: str
    challenge_id: int
    t: float
    user: str
    sender: str
    server_ip: str
    size: int


@slotted
@dataclass
class ChallengeOutcomeRecord:
    """Final delivery status of one challenge email."""

    company_id: str
    challenge_id: int
    status: FinalStatus
    bounce_reason: Optional[BounceReason]
    attempts: int
    t_final: float


@slotted
@dataclass
class WebAccessRecord:
    """One hit in the challenge web server's access log."""

    company_id: str
    challenge_id: int
    t: float
    action: WebAction
    #: For ATTEMPT records: whether the CAPTCHA answer was correct.
    success: bool


@slotted
@dataclass
class ReleaseRecord:
    """A gray message released to the user's inbox."""

    company_id: str
    user: str
    msg_id: int
    t_arrival: float
    t_release: float
    mechanism: ReleaseMechanism
    kind: MessageKind

    @property
    def delay(self) -> float:
        return self.t_release - self.t_arrival


@slotted
@dataclass
class WhitelistChangeRecord:
    """One whitelist addition (the churn analyses of §4.3 / Fig. 9)."""

    company_id: str
    user: str
    address: str
    t: float
    source: WhitelistSource


@slotted
@dataclass
class DigestRecord:
    """Daily digest size of one user (Fig. 10)."""

    company_id: str
    user: str
    day: int
    pending_count: int


@slotted
@dataclass
class ExpiryRecord:
    """A gray message dropped after the 30-day quarantine."""

    company_id: str
    user: str
    msg_id: int
    t: float


@slotted
@dataclass
class OutboundMailRecord:
    """Outgoing mail sent by a protected user."""

    company_id: str
    t: float
    user: str
    rcpt: str
    size: int


@slotted
@dataclass
class CrashRecord:
    """One injected component crash and what its recovery did."""

    company_id: str
    t: float
    #: Which component went down (see :data:`repro.net.crashes.COMPONENTS`).
    component: str
    #: Seconds until the supervisor restarted it.
    downtime: float
    #: Outbound messages re-driven from the write-ahead journal.
    redriven: int
    #: Messages lost (nonzero only under the ``lossy`` durability model).
    lost: int
    #: Whether the rebuilt volatile indexes matched the pre-crash state.
    journal_ok: bool
