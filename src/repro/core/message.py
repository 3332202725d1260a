"""The email message model.

Messages carry two kinds of information:

* what the CR system can see (envelope addresses, subject, size, client IP);
* ground-truth labels the *simulation* knows but the system must never read
  (``kind``, ``sender_class``, ``campaign_id``) — these exist so the
  analysis pipeline can evaluate the system's decisions, exactly like the
  paper's authors could label traffic post-hoc from campaign structure.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.util.slots import slotted


class MessageKind(enum.Enum):
    """Ground-truth nature of a message."""

    # Identity hash (C speed) — these are Counter keys in the analysis
    # index's hot passes; enum equality is identity, so this is safe.
    __hash__ = object.__hash__

    LEGIT = "legit"  # human-to-human mail
    NEWSLETTER = "newsletter"  # automated but solicited-ish bulk mail
    SPAM = "spam"  # unsolicited bulk mail


class SenderClass(enum.Enum):
    """Ground truth about the *envelope sender* address.

    For spam, the envelope sender is almost always forged; the forgery
    target determines what happens to a challenge sent back to it
    (§3.2 of the paper).
    """

    # Identity hash, as MessageKind: members key each campaign's sender
    # pools and the analysis index's Counters.
    __hash__ = object.__hash__

    REAL = "real"  # the address belongs to the actual sender
    NONEXISTENT_MAILBOX = "nonexistent"  # valid domain, no such user
    DEAD_DOMAIN = "dead_domain"  # resolvable domain, unreachable server
    INNOCENT_THIRD_PARTY = "innocent"  # a real, uninvolved user's address
    SPAM_TRAP = "trap"  # a DNSBL operator's honeypot address


_next_msg_id = 0


def _allocate_msg_id() -> int:
    global _next_msg_id
    _next_msg_id += 1
    return _next_msg_id


def allocate_msg_id_block(n: int) -> int:
    """Reserve *n* consecutive message ids; return the first.

    Equivalent to *n* sequential :func:`_allocate_msg_id` calls — row ``i``
    of a batch gets ``first + i`` — so bulk construction allocates exactly
    the ids per-message construction would have.
    """
    global _next_msg_id
    first = _next_msg_id + 1
    _next_msg_id += n
    return first


def reset_msg_ids() -> None:
    """Reset the global message-id counter (between independent runs)."""
    global _next_msg_id
    _next_msg_id = 0


def snapshot_msg_ids() -> int:
    """Current value of the global id counter, for checkpointing."""
    return _next_msg_id


def restore_msg_ids(value: int) -> None:
    """Restore the counter saved by :func:`snapshot_msg_ids` so a resumed
    run allocates the same ids an uninterrupted run would have."""
    global _next_msg_id
    _next_msg_id = value


@slotted
@dataclass
class EmailMessage:
    """One inbound email as seen at a company's MTA-IN.

    Slotted by :func:`~repro.util.slots.slotted` (rather than a
    hand-written ``__slots__``) so the trailing default field works: a
    manually slotted dataclass cannot carry defaults because the class
    attribute collides with the slot.
    """

    msg_id: int
    t: float
    env_from: str
    env_to: str
    subject: str
    size: int
    client_ip: str
    kind: MessageKind
    sender_class: SenderClass
    campaign_id: Optional[str]
    has_virus: bool
    #: Precomputed ``(pre_dns_reason, sender_domain, post_dns_reason)``
    #: from :meth:`repro.core.mta_in.MtaIn.precheck_batch`, or ``None``
    #: when the message was built outside the batch path. Carries only the
    #: DNS-independent part of the MTA verdict — resolution stays a
    #: delivery-time check because fault plans make it time-dependent.
    mta_hint: Optional[tuple] = None


class DoorRow:
    """What MTA-IN reads of a generated message its precheck hint refuses
    whatever DNS says: built by :meth:`MessageBatch.materialize` at the
    door (DESIGN.md §19) instead of the :class:`EmailMessage`, and
    refused by :meth:`repro.core.engine.CompanyInstallation.refuse_at_door`.
    """

    __slots__ = ("msg_id", "size", "mta_hint")

    def __init__(self, msg_id: int, size: int, mta_hint: tuple) -> None:
        self.msg_id = msg_id
        self.size = size
        self.mta_hint = mta_hint


def normalize_ingress(message: EmailMessage) -> EmailMessage:
    """Lowercase the envelope addresses, in place, once.

    SMTP mailbox local-parts are case-sensitive in theory and universally
    case-insensitive in practice; the paper's logs key senders by
    lowercased address. This is called exactly once, at the top of
    ``CompanyInstallation.handle_inbound`` — everything downstream
    (dispatcher, spools, whitelists, challenge dedup, digest actions) may
    assume ``env_from``/``env_to`` are already canonical instead of
    re-lowercasing defensively. Before this existed, scattered ``.lower()``
    calls disagreed: a mixed-case recipient was wrongly dropped as
    UNKNOWN_RECIPIENT because MTA-IN compared the raw local-part.
    """
    # islower() is an allocation-free C scan; generator-built traffic is
    # already canonical, so the common case skips both str copies. (An
    # uncased string — digits-only local, say — fails islower() and takes
    # the lower() path, which is then the identity.)
    env_from = message.env_from
    if env_from and not env_from.islower():
        message.env_from = env_from.lower()
    env_to = message.env_to
    if not env_to.islower():
        message.env_to = env_to.lower()
    return message


def make_message(
    t: float,
    env_from: str,
    env_to: str,
    *,
    subject: str = "",
    size: int = 8_000,
    client_ip: str = "0.0.0.0",
    kind: MessageKind = MessageKind.LEGIT,
    sender_class: SenderClass = SenderClass.REAL,
    campaign_id: Optional[str] = None,
    has_virus: bool = False,
) -> EmailMessage:
    """Construct a message with a fresh id. Keyword-heavy on purpose: call
    sites read as trace descriptions."""
    return EmailMessage(
        msg_id=_allocate_msg_id(),
        t=t,
        env_from=env_from,
        env_to=env_to,
        subject=subject,
        size=size,
        client_ip=client_ip,
        kind=kind,
        sender_class=sender_class,
        campaign_id=campaign_id,
        has_virus=has_virus,
    )


class MessageBatch:
    """Struct-of-arrays staging area for bulk-generated mail.

    The trace generator appends one row per message in **generation
    order** — the order that fixes message-id allocation and FIFO
    tie-breaks, so a batch-built day is indistinguishable from the old
    one-``make_message``-per-arrival day. Rows are staged as plain tuples
    (the cheapest per-message operation Python offers); :meth:`seal`
    sorts them once, and :meth:`materialize` builds the messages once,
    with the sort and the permutations running through C-level
    primitives.

    A row is ``(t, env_from, env_to, subject, size, client_ip, kind,
    sender_class, campaign_id, has_virus)`` — exactly
    :class:`EmailMessage`'s field order after ``msg_id``, so
    materialization is a single splat per message. ``handlers`` is the
    parallel per-row delivery token (the generator stages company
    indices), ``hints`` the optional per-row ``mta_hint`` set after the
    seal.
    """

    __slots__ = ("rows", "handlers", "order", "hints")

    def __init__(
        self, rows=None, handlers=None, order=None, hints=None
    ) -> None:
        self.rows: list = [] if rows is None else rows
        self.handlers: list = [] if handlers is None else handlers
        #: ``order[k]`` is the generation position of sorted row ``k``;
        #: ``None`` until :meth:`seal` (rows still in generation order).
        self.order = order
        self.hints = hints

    def __len__(self) -> int:
        return len(self.rows)

    def seal(self) -> None:
        """Stable-sort the staged rows (and handlers) by arrival time.

        Same-time rows keep generation order; ``order`` remembers each
        row's generation position, which fixes its message id.
        """
        rows = self.rows
        ts = [row[0] for row in rows]
        order = sorted(range(len(rows)), key=ts.__getitem__)
        handlers = self.handlers
        self.rows = [rows[i] for i in order]
        self.handlers = [handlers[i] for i in order]
        self.order = order

    def materialize(self, first: int, doors=None) -> tuple:
        """Build the sealed rows' messages, row ``k`` with id ``first +
        order[k]`` — the ids per-message allocation in generation order
        would have given, for an id block starting at *first*.

        Returns ``(times, handlers, messages)``, parallel columns in
        arrival order ready for
        :meth:`repro.sim.engine.Simulator.schedule_batch`.

        *doors*, indexed by handler token, lets refused rows skip the
        build: where ``doors[handler]`` is not ``None`` and the row's hint
        refuses it whatever DNS says (a pre-DNS or a post-DNS reason),
        the row's handler is ``doors[handler]`` and its message slot
        holds a :class:`DoorRow`. ``None`` (no company has a door) builds
        every message.
        """
        rows, order, handlers = self.rows, self.order, self.handlers
        hints = self.hints
        if hints is None:
            hints = [None] * len(rows)
        times = [row[0] for row in rows]
        if doors is None:
            messages = [
                EmailMessage(first + i, *row, hint)
                for i, row, hint in zip(order, rows, hints)
            ]
            return times, list(handlers), messages
        handlers = list(handlers)
        messages = []
        append = messages.append
        for k, (i, row, hint) in enumerate(zip(order, rows, hints)):
            door = doors[handlers[k]]
            if door is not None and (
                hint[0] is not None or hint[2] is not None
            ):
                handlers[k] = door
                append(DoorRow(first + i, row[4], hint))
            else:
                append(EmailMessage(first + i, *row, hint))
        return times, handlers, messages
