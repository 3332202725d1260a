"""The shared analysis index: one pass per table, every figure served.

The paper's workflow queried Postgres once per figure; our stand-in
(:class:`~repro.analysis.store.LogStore`) originally mirrored that
faithfully — every analysis module re-scanned the same record lists, so a
full report paid a dozen independent O(N) passes over ``store.mta`` alone.
This module replaces those scans with a single lazily-materialised
:class:`AnalysisIndex`: the first analysis that needs a table triggers
**one** pass over it, producing the columnar aggregates *all* figures
share (per-company counters, per-day buckets, per-disposition and
drop-reason counts, challenge→outcome and challenge→web joins, first-seen
company order). Every later analysis reads the same aggregates for free.

Aggregation is by table, not by figure: each per-table aggregate is cached
against ``(table version, table length)``, where the version is bumped by
the store's append helpers and the length guards direct table appends (the
persistence loader bypasses the helpers). Appending to one table therefore
invalidates exactly that table's aggregates and nothing else — a re-read
after an append rebuilds only the pass that went stale.

Adding a new figure should not add a new full scan: extend the relevant
``_build_*`` pass with the extra counter it needs (keeping the pass
single-traversal) and read it from the module. Only genuinely per-figure
work — set intersections, ratios, rendering — belongs in the modules.

Everything here is order-preserving by construction: per-company dicts are
keyed in first-seen record order, counters are updated in record order,
and row subsets (cluster groups, SPF rows) keep record order, so analyses
rewired onto the index render byte-identical reports.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from itertools import compress, islice, repeat
from operator import and_, floordiv, is_, le
from typing import TYPE_CHECKING, Callable, Optional

from repro.core.challenge import WebAction
from repro.core.message import MessageKind
from repro.core.spools import Category, ReleaseMechanism
from repro.core.whitelist import WhitelistSource
from repro.net.smtp import BounceReason, FinalStatus
from repro.util.simtime import DAY

if TYPE_CHECKING:  # pragma: no cover - import cycle (store imports us)
    from repro.analysis.records import (
        ChallengeOutcomeRecord,
        DispatchRecord,
        WebAccessRecord,
    )
    from repro.analysis.store import LogStore


# ---------------------------------------------------------------------------
# Per-table aggregate bundles
# ---------------------------------------------------------------------------


@dataclass
class CompanyMta:
    """One company's MTA-IN counters (first-seen order in the parent dict)."""

    total: int = 0
    #: The company's relay flag as of its latest record.
    open_relay: bool = False
    #: Records carrying ``open_relay=False`` — membership test for the
    #: paper's "non-open-relay servers" restrictions.
    closed_records: int = 0
    drops: Counter = field(default_factory=Counter)

    @property
    def accepted(self) -> int:
        return self.total - sum(self.drops.values())


@dataclass
class MtaAggregates:
    total: int
    total_bytes: int
    dropped: int
    #: day index -> inbound messages, keyed in first-occurrence order.
    by_day: dict
    #: company_id -> :class:`CompanyMta`, keyed in first-seen order.
    per_company: dict
    closed_total: int
    closed_dropped: int
    closed_accepted: int
    closed_drops: Counter
    open_total: int
    open_accepted: int

    @property
    def closed_companies(self) -> set:
        """Companies with at least one non-open-relay MTA record."""
        return {
            company_id
            for company_id, agg in self.per_company.items()
            if agg.closed_records
        }

    def company_volumes(self) -> Counter:
        """Inbound volume per company as a :class:`Counter` whose insertion
        order is first-seen order — ``most_common`` tie-breaks identically
        to counting the raw records."""
        volumes: Counter = Counter()
        for company_id, agg in self.per_company.items():
            volumes[company_id] = agg.total
        return volumes


@dataclass
class CompanyDispatch:
    total: int = 0
    white: int = 0
    black: int = 0
    gray: int = 0
    challenges_created: int = 0
    filter_drops: Counter = field(default_factory=Counter)


@dataclass
class ClosedDispatch:
    """Dispatcher counters restricted to non-open-relay companies (Fig. 1)."""

    white: int = 0
    black: int = 0
    gray: int = 0
    filter_dropped: int = 0
    quarantined: int = 0
    challenges: int = 0


@dataclass
class DispatchAggregates:
    total: int
    total_bytes: int
    white: int
    black: int
    gray: int
    #: Gray-spool drops by filter name, in first-drop order.
    filter_drops: Counter
    quarantined: int
    challenged_gray: int
    suppressed: int
    closed: ClosedDispatch
    #: open_relay -> [messages, challenges created] (Fig. 3's split).
    by_relay: dict
    per_company: dict
    #: weekend? -> legit / spam message counts and the day indices seen.
    weekend_legit: dict
    weekend_spam: dict
    weekend_days: dict
    #: Distinct (company, user, env_from) triples in the gray spool.
    gray_senders: set
    #: subject -> quarantined gray records, record order (Fig. 6 clusters).
    quarantined_by_subject: dict
    #: Quarantined gray records with a challenge id, record order (Fig. 12).
    quarantined_with_challenge: list


@dataclass
class ChallengeAggregates:
    total_bytes: int
    per_company: dict
    per_ip: dict
    server_ips_by_company: dict
    #: (company_id, challenge_id) -> send time; joined against
    #: ``OutcomeAggregates.by_challenge`` for delivery-delay breakdowns.
    send_times: dict


@dataclass
class CompanyOutcomes:
    delivered: int = 0
    expired: int = 0
    bounced_nonexistent: int = 0
    bounced_blacklisted: int = 0


@dataclass
class OutcomeAggregates:
    #: (company_id, challenge_id) -> outcome record (the outcome join).
    by_challenge: dict
    resolved: int
    delivered: int
    expired: int
    bounced_nonexistent: int
    bounced_blacklisted: int
    bounced_other: int
    delivered_ids: set
    per_company: dict


@dataclass
class WebAggregates:
    #: (company_id, challenge_id) -> web events (the web-access join).
    by_challenge: dict
    solve_total: int
    solves_per_company: dict
    opened_ids: set
    solved_ids: set
    attempts_by_challenge: Counter


@dataclass
class ReleaseAggregates:
    #: mechanism -> releases, fleet-wide.
    mechanism_counts: Counter
    #: company_id -> Counter of mechanisms.
    per_company: dict
    #: Gray→inbox delays in record order (Fig. 7 CDFs).
    captcha_delays: list
    other_delays: list
    #: CAPTCHA releases of ground-truth spam (spurious deliveries, §4.1).
    captcha_spam: int


@dataclass
class WhitelistAggregates:
    #: (company_id, user) -> number of changes (Fig. 9 churn).
    per_user_counts: dict
    #: (company_id, user, address) triples whitelisted from the digest.
    digest_senders: set


@dataclass
class DigestAggregates:
    #: (company_id, user) -> {day -> pending count}, insertion order
    #: matching record order (Fig. 10 example picking relies on it).
    per_user_series: dict
    #: company_id -> [sum of digest sizes, number of digests].
    per_company: dict


@dataclass
class ExpiryAggregates:
    total: int
    per_company: dict


@dataclass
class ProbeAggregates:
    probed_ips: set
    probe_days: set
    #: ip -> set of day indices on which a probe found it listed.
    listed_days_by_ip: dict


# ---------------------------------------------------------------------------
# Single-pass builders
# ---------------------------------------------------------------------------


def _day_buckets(ts) -> dict:
    """Histogram of int day indices for one table's time column.

    Log tables append in simulation order, so the column is almost always
    non-decreasing — one C-level sweep verifies that, and day boundaries
    then come from bisection (O(days x log N)) instead of per-record
    arithmetic. An unsorted column falls back to the per-record Counter.
    Either way keys appear in first-occurrence order, which for sorted
    input is chronological order.
    """
    if not ts:
        return {}
    if all(map(le, ts, islice(ts, 1, None))):
        by_day: dict = {}
        lo, n = 0, len(ts)
        while lo < n:
            day = int(ts[lo] // DAY)
            hi = bisect_left(ts, (day + 1) * DAY, lo)
            by_day[day] = hi - lo
            lo = hi
        return by_day
    counts = Counter(map(floordiv, ts, repeat(DAY)))
    return {int(day): count for day, count in counts.items()}


def _build_mta(records) -> MtaAggregates:
    # This is the hottest pass of the whole analysis layer (the MTA table
    # is the largest by an order of magnitude), so it reads the table's
    # columns: a few C-speed sweeps (``Counter``/``sum``/``dict`` over
    # zipped columns) compress the table into a handful of distinct
    # keys, and the branchy per-company accounting then folds over those
    # few keys instead of every record. Record order survives because
    # ``Counter`` and ``dict`` keep first-seen insertion order, so every
    # derived dict is keyed exactly as a naive per-record loop would key
    # it.
    #
    # The sweeps fold chunk-by-chunk: a spilled table aggregates with one
    # chunk resident at a time, and an in-memory table is just the
    # one-chunk case of the same fold.
    total = 0
    total_bytes = 0
    by_day: dict = {}
    shapes: Counter = Counter()
    # company_id -> relay flag of its latest record so far: dict() keeps
    # the *last* pair per key within a chunk, later chunks override.
    last_flags: dict = {}
    for chunk in records.chunks():
        column = chunk.column
        total += len(chunk)
        total_bytes += sum(column("size"))
        for day, count in _day_buckets(column("t")).items():
            by_day[day] = by_day.get(day, 0) + count
        shapes.update(
            zip(
                column("company_id"),
                column("open_relay"),
                column("drop_reason"),
            )
        )
        last_flags.update(zip(column("company_id"), column("open_relay")))

    dropped = 0
    closed_total = closed_dropped = closed_accepted = 0
    open_total = open_accepted = 0
    closed_drops: Counter = Counter()
    # company_id -> [total, closed_records, drops, seen_open, seen_closed]
    rows: dict = {}
    for (company_id, open_relay, drop), count in shapes.items():
        row = rows.get(company_id)
        if row is None:
            row = rows[company_id] = [0, 0, Counter(), False, False]
        row[0] += count
        if open_relay:
            row[3] = True
            open_total += count
            if drop is None:
                open_accepted += count
            else:
                dropped += count
                row[2][drop] += count
        else:
            row[4] = True
            row[1] += count
            closed_total += count
            if drop is None:
                closed_accepted += count
            else:
                closed_dropped += count
                closed_drops[drop] += count
                dropped += count
                row[2][drop] += count
    # ``CompanyMta.open_relay`` is the flag of the company's *latest*
    # record. A company whose records all carry one flag (the norm — the
    # flag is per-company configuration) resolves from the fold; only a
    # company seen with both flags reads the last-flag sweep.
    flags = {company_id: row[3] for company_id, row in rows.items()}
    for company_id in (
        cid for cid, row in rows.items() if row[3] and row[4]
    ):
        flags[company_id] = last_flags[company_id]
    per_company = {
        company_id: CompanyMta(
            total=row[0],
            open_relay=flags[company_id],
            closed_records=row[1],
            drops=row[2],
        )
        for company_id, row in rows.items()
    }
    return MtaAggregates(
        total=total,
        total_bytes=total_bytes,
        dropped=dropped,
        by_day=by_day,
        per_company=per_company,
        closed_total=closed_total,
        closed_dropped=closed_dropped,
        closed_accepted=closed_accepted,
        closed_drops=closed_drops,
        open_total=open_total,
        open_accepted=open_accepted,
    )


#: The dispatch fields whose value tuple is a row's "shape".
_DISPATCH_SHAPE = (
    "company_id", "open_relay", "challenge_created", "category", "filter_drop",
)


def _build_dispatch(records) -> DispatchAggregates:
    # Second-hottest pass after :func:`_build_mta`; same column scheme.
    # One C-speed sweep compresses each row to its "shape" — the
    # (company, relay flag, challenge?, category, filter verdict) tuple —
    # and every count the figures need folds over the few distinct shapes.
    # Only the quarantined-gray subset (Figs. 6/7/12 need the record
    # objects themselves) is built as records and walked in Python, and
    # that subset is a small fraction of the table.
    # Like :func:`_build_mta`, the sweeps fold chunk-by-chunk so spilled
    # tables aggregate under bounded memory; the quarantined-gray record
    # subsets append per chunk in record order, unchanged.
    total = 0
    total_bytes = 0
    shapes: Counter = Counter()
    kind_days: Counter = Counter()
    gray_senders: set = set()
    by_subject: dict = {}
    with_challenge: list = []
    for chunk in records.chunks():
        column = chunk.column
        total += len(chunk)
        total_bytes += sum(column("size"))
        shapes.update(zip(*map(column, _DISPATCH_SHAPE)))
        kind_days.update(
            zip(
                column("kind"),
                map(floordiv, column("t"), repeat(DAY)),
            )
        )
        quarantined = map(
            and_,
            map(is_, column("category"), repeat(Category.GRAY)),
            map(is_, column("filter_drop"), repeat(None)),
        )
        for record in chunk.take(compress(range(len(chunk)), quarantined)):
            gray_senders.add(
                (record.company_id, record.user, record.env_from)
            )
            subject_rows = by_subject.get(record.subject)
            if subject_rows is None:
                by_subject[record.subject] = [record]
            else:
                subject_rows.append(record)
            if record.challenge_id is not None:
                with_challenge.append(record)

    white = black = gray = 0
    filter_drops: Counter = Counter()
    quarantined = challenged_gray = suppressed = 0
    closed = ClosedDispatch()
    by_relay = {True: [0, 0], False: [0, 0]}
    #: company_id -> [total, white, black, gray, challenges, drops Counter]
    rows: dict = {}
    for shape, count in shapes.items():
        company_id, open_relay, challenge_created, category, filter_drop = (
            shape
        )
        row = rows.get(company_id)
        if row is None:
            row = rows[company_id] = [0, 0, 0, 0, 0, Counter()]
        row[0] += count

        relay = by_relay[open_relay]
        relay[0] += count
        if challenge_created:
            relay[1] += count
            row[4] += count

        if category is Category.WHITE:
            white += count
            row[1] += count
            if not open_relay:
                closed.white += count
        elif category is Category.BLACK:
            black += count
            row[2] += count
            if not open_relay:
                closed.black += count
        else:
            gray += count
            row[3] += count
            if not open_relay:
                closed.gray += count
            if filter_drop is not None:
                filter_drops[filter_drop] += count
                row[5][filter_drop] += count
                if not open_relay:
                    closed.filter_dropped += count
            else:
                quarantined += count
                if not open_relay:
                    closed.quarantined += count
                    if challenge_created:
                        closed.challenges += count
                if challenge_created:
                    challenged_gray += count
                else:
                    suppressed += count

    weekend_legit = {True: 0, False: 0}
    weekend_spam = {True: 0, False: 0}
    weekend_days = {True: set(), False: set()}
    for (kind, fractional_day), count in kind_days.items():
        day = int(fractional_day)
        weekend = (3 + day) % 7 >= 5  # sim epoch 2010-07-01 was a Thursday
        weekend_days[weekend].add(day)
        if kind is MessageKind.LEGIT:
            weekend_legit[weekend] += count
        elif kind is MessageKind.SPAM:
            weekend_spam[weekend] += count

    per_company = {
        company_id: CompanyDispatch(
            total=row[0],
            white=row[1],
            black=row[2],
            gray=row[3],
            challenges_created=row[4],
            filter_drops=row[5],
        )
        for company_id, row in rows.items()
    }
    return DispatchAggregates(
        total=total,
        total_bytes=total_bytes,
        white=white,
        black=black,
        gray=gray,
        filter_drops=filter_drops,
        quarantined=quarantined,
        challenged_gray=challenged_gray,
        suppressed=suppressed,
        closed=closed,
        by_relay=by_relay,
        per_company=per_company,
        weekend_legit=weekend_legit,
        weekend_spam=weekend_spam,
        weekend_days=weekend_days,
        gray_senders=gray_senders,
        quarantined_by_subject=by_subject,
        quarantined_with_challenge=with_challenge,
    )


def _build_challenges(records) -> ChallengeAggregates:
    total_bytes = 0
    per_company: dict = {}
    per_ip: dict = {}
    server_ips_by_company: dict = {}
    send_times: dict = {}
    for record in records:
        total_bytes += record.size
        company_id = record.company_id
        per_company[company_id] = per_company.get(company_id, 0) + 1
        per_ip[record.server_ip] = per_ip.get(record.server_ip, 0) + 1
        ips = server_ips_by_company.get(company_id)
        if ips is None:
            ips = server_ips_by_company[company_id] = set()
        ips.add(record.server_ip)
        send_times[(company_id, record.challenge_id)] = record.t
    return ChallengeAggregates(
        total_bytes=total_bytes,
        per_company=per_company,
        per_ip=per_ip,
        server_ips_by_company=server_ips_by_company,
        send_times=send_times,
    )


def _build_outcomes(records) -> OutcomeAggregates:
    by_challenge: dict = {}
    delivered = expired = 0
    bounced_nonexistent = bounced_blacklisted = bounced_other = 0
    delivered_ids: set = set()
    per_company: dict = {}
    for record in records:
        key = (record.company_id, record.challenge_id)
        by_challenge[key] = record
        company = per_company.get(record.company_id)
        if company is None:
            company = per_company[record.company_id] = CompanyOutcomes()
        if record.status is FinalStatus.DELIVERED:
            delivered += 1
            company.delivered += 1
            delivered_ids.add(key)
        elif record.status is FinalStatus.EXPIRED:
            expired += 1
            company.expired += 1
        elif record.bounce_reason is BounceReason.NONEXISTENT_RECIPIENT:
            bounced_nonexistent += 1
            company.bounced_nonexistent += 1
        elif record.bounce_reason is BounceReason.BLACKLISTED:
            bounced_blacklisted += 1
            company.bounced_blacklisted += 1
        else:
            bounced_other += 1
    return OutcomeAggregates(
        by_challenge=by_challenge,
        resolved=len(records),
        delivered=delivered,
        expired=expired,
        bounced_nonexistent=bounced_nonexistent,
        bounced_blacklisted=bounced_blacklisted,
        bounced_other=bounced_other,
        delivered_ids=delivered_ids,
        per_company=per_company,
    )


def _build_web(records) -> WebAggregates:
    by_challenge: dict = {}
    solve_total = 0
    solves_per_company: dict = {}
    opened_ids: set = set()
    solved_ids: set = set()
    attempts: Counter = Counter()
    for record in records:
        key = (record.company_id, record.challenge_id)
        events = by_challenge.get(key)
        if events is None:
            by_challenge[key] = [record]
        else:
            events.append(record)
        if record.action is WebAction.OPEN:
            opened_ids.add(key)
        elif record.action is WebAction.ATTEMPT:
            opened_ids.add(key)
            attempts[key] += 1
        elif record.action is WebAction.SOLVE:
            opened_ids.add(key)
            attempts[key] += 1
            solved_ids.add(key)
            solve_total += 1
            solves_per_company[record.company_id] = (
                solves_per_company.get(record.company_id, 0) + 1
            )
    return WebAggregates(
        by_challenge=by_challenge,
        solve_total=solve_total,
        solves_per_company=solves_per_company,
        opened_ids=opened_ids,
        solved_ids=solved_ids,
        attempts_by_challenge=attempts,
    )


def _build_releases(records) -> ReleaseAggregates:
    mechanism_counts: Counter = Counter()
    per_company: dict = {}
    captcha_delays: list = []
    other_delays: list = []
    captcha_spam = 0
    for record in records:
        mechanism_counts[record.mechanism] += 1
        company = per_company.get(record.company_id)
        if company is None:
            company = per_company[record.company_id] = Counter()
        company[record.mechanism] += 1
        if record.mechanism is ReleaseMechanism.CAPTCHA:
            captcha_delays.append(record.delay)
            if record.kind is MessageKind.SPAM:
                captcha_spam += 1
        else:
            other_delays.append(record.delay)
    return ReleaseAggregates(
        mechanism_counts=mechanism_counts,
        per_company=per_company,
        captcha_delays=captcha_delays,
        other_delays=other_delays,
        captcha_spam=captcha_spam,
    )


def _build_whitelist(records) -> WhitelistAggregates:
    per_user_counts: dict = {}
    digest_senders: set = set()
    for record in records:
        key = (record.company_id, record.user)
        per_user_counts[key] = per_user_counts.get(key, 0) + 1
        if record.source is WhitelistSource.DIGEST:
            digest_senders.add(
                (record.company_id, record.user, record.address)
            )
    return WhitelistAggregates(
        per_user_counts=per_user_counts, digest_senders=digest_senders
    )


def _build_digests(records) -> DigestAggregates:
    per_user_series: dict = {}
    per_company: dict = {}
    for record in records:
        key = (record.company_id, record.user)
        series = per_user_series.get(key)
        if series is None:
            series = per_user_series[key] = {}
        series[record.day] = record.pending_count
        sizes = per_company.get(record.company_id)
        if sizes is None:
            per_company[record.company_id] = [record.pending_count, 1]
        else:
            sizes[0] += record.pending_count
            sizes[1] += 1
    return DigestAggregates(
        per_user_series=per_user_series, per_company=per_company
    )


def _build_expiries(records) -> ExpiryAggregates:
    per_company: dict = {}
    for record in records:
        per_company[record.company_id] = (
            per_company.get(record.company_id, 0) + 1
        )
    return ExpiryAggregates(total=len(records), per_company=per_company)


def _build_probes(records) -> ProbeAggregates:
    probed_ips: set = set()
    probe_days: set = set()
    listed_days_by_ip: dict = {}
    for record in records:
        probed_ips.add(record.ip)
        day = int(record.t // DAY)
        probe_days.add(day)
        if record.listed:
            days = listed_days_by_ip.get(record.ip)
            if days is None:
                days = listed_days_by_ip[record.ip] = set()
            days.add(day)
    return ProbeAggregates(
        probed_ips=probed_ips,
        probe_days=probe_days,
        listed_days_by_ip=listed_days_by_ip,
    )


# ---------------------------------------------------------------------------
# The index itself
# ---------------------------------------------------------------------------


class AnalysisIndex:
    """Lazily-built per-table aggregates over one :class:`LogStore`.

    Aggregates materialise on first access and are cached against the
    owning table's ``(version, length)``; any append — through the store's
    helpers (version bump) or directly to the list (length change) —
    forces a rebuild of exactly that table's aggregate on next access.
    """

    def __init__(self, store: "LogStore") -> None:
        self._store = store
        #: table name -> (version, length, aggregate)
        self._cache: dict = {}
        #: Lifetime pass counts, for tests and perf forensics.
        self.builds = 0
        self.hits = 0

    def _get(self, table: str, builder: Callable):
        records = getattr(self._store, table)
        version = self._store.table_version(table)
        cached = self._cache.get(table)
        if (
            cached is not None
            and cached[0] == version
            and cached[1] == len(records)
        ):
            self.hits += 1
            return cached[2]
        aggregate = builder(records)
        self._cache[table] = (version, len(records), aggregate)
        self.builds += 1
        return aggregate

    @property
    def mta(self) -> MtaAggregates:
        return self._get("mta", _build_mta)

    @property
    def dispatch(self) -> DispatchAggregates:
        return self._get("dispatch", _build_dispatch)

    @property
    def challenges(self) -> ChallengeAggregates:
        return self._get("challenges", _build_challenges)

    @property
    def outcomes(self) -> OutcomeAggregates:
        return self._get("challenge_outcomes", _build_outcomes)

    @property
    def web(self) -> WebAggregates:
        return self._get("web_access", _build_web)

    @property
    def releases(self) -> ReleaseAggregates:
        return self._get("releases", _build_releases)

    @property
    def whitelist(self) -> WhitelistAggregates:
        return self._get("whitelist_changes", _build_whitelist)

    @property
    def digests(self) -> DigestAggregates:
        return self._get("digests", _build_digests)

    @property
    def expiries(self) -> ExpiryAggregates:
        return self._get("expiries", _build_expiries)

    @property
    def probes(self) -> ProbeAggregates:
        return self._get("probes", _build_probes)

    # -- convenience joins (the store delegates here) --------------------

    def outcome_of(
        self, company_id: str, challenge_id: int
    ) -> Optional["ChallengeOutcomeRecord"]:
        return self.outcomes.by_challenge.get((company_id, challenge_id))

    def web_events_of(
        self, company_id: str, challenge_id: int
    ) -> "list[WebAccessRecord]":
        return self.web.by_challenge.get((company_id, challenge_id), [])

    def company_ids(self) -> list:
        return list(self.mta.per_company)
