"""Day-by-day trace generation.

``TraceGenerator.start`` arms one planning event per simulated day; each
planning event draws that day's traffic for every company — whitelisted
contact mail, blacklisted nuisance mail, first-contact legitimate mail,
newsletter issues, spam campaign volume (valid users, dictionary attacks,
relay probes, foreign-recipient probes), outbound user mail, and manual
whitelist imports — and schedules the individual messages at diurnally
distributed times.

Messages are built **columnar** (§"Batched data plane" in DESIGN.md): a
planning event stages one row tuple per message into a
:class:`~repro.workload.planner.DayPlan`, sorts the whole day at once
and precomputes each row's DNS-independent MTA verdict; applying the
plan allocates the day's id block, materializes the messages in bulk and
hands the day to the engine as one :class:`~repro.sim.events.EventBatch`
instead of one heap entry per message. Every RNG draw happens in exactly
the order the per-message path used, stream by stream, so the batched
build is bit-identical to the old one (the goldens pin this). Size draws
are the one reordering: they move from "inside each message" to "one
vectorized run per homogeneous loop", which is invisible because sizes
come from their own isolated stream and the within-stream order is
unchanged.

Drawing (the plan) and applying are separate steps so that a forked
planner can draw each day up to three days ahead of the engine
(:mod:`repro.workload.planner`, DESIGN.md §19).
"""

from __future__ import annotations

from bisect import bisect
from contextlib import contextmanager
from dataclasses import asdict
from functools import partial
from itertools import accumulate
from typing import Mapping, Optional

from repro.core.engine import CompanyInstallation
from repro.core.message import (
    MessageKind,
    SenderClass,
    allocate_msg_id_block,
)
from repro.sim.engine import Simulator
from repro.util.rng import RngStreams, poisson
from repro.util.simtime import DAY, HOUR, is_weekend
from repro.workload import naming, planner as planning
from repro.workload.entities import Company, World
from repro.workload.planner import DayPlan, Planner, PlannerStats, replay
from repro.workload.sizes import SizeModel
from repro.workload.spamcampaign import Campaign, CampaignFactory

_LEGIT = MessageKind.LEGIT
_NEWSLETTER = MessageKind.NEWSLETTER
_SPAM = MessageKind.SPAM
_REAL = SenderClass.REAL


class TraceGenerator:
    """Generates the whole deployment's inbound/outbound traffic."""

    def __init__(
        self,
        world: World,
        simulator: Simulator,
        installations: Mapping[str, CompanyInstallation],
        streams: RngStreams,
        batch_delivery: bool = True,
    ) -> None:
        self.world = world
        self.calibration = world.calibration
        self.simulator = simulator
        self.installations = dict(installations)
        #: Plans stage each row's company *index*: a plan is pure data, so
        #: a forked planner's plans name companies the main process can
        #: look up in its own run.
        self._company_index = {
            company.company_id: index
            for index, company in enumerate(world.companies)
        }
        self._installation_at = [
            self.installations[company.company_id]
            for company in world.companies
        ]
        #: Delivery actions by handler token: token ``c`` is company
        #: ``c``'s ``handle_inbound``, token ``n + c`` its
        #: ``refuse_at_door`` (see :meth:`_doors`). Bound once.
        self._actions = [
            installation.handle_inbound
            for installation in self._installation_at
        ] + [
            installation.refuse_at_door
            for installation in self._installation_at
        ]
        #: False = stage and sort days exactly the same way, but schedule
        #: each message as its own heap entry. Exists so tests can pin
        #: batched ≡ unbatched behaviour; not a production mode.
        self.batch_delivery = batch_delivery
        self.rng = streams.stream("trace")
        self.size_model = SizeModel(self.calibration, streams.stream("sizes"))
        self.campaign_factory = CampaignFactory(
            self.calibration, streams.stream("campaigns")
        )
        self.active_campaigns: list[Campaign] = []
        self._campaign_weights: list[float] = []
        self._campaign_cum: list[float] = []
        self._campaign_total = 0.0
        self._legit_hour_cum = _cumulative(self.calibration.legit_hour_weights)
        self._spam_hour_cum = _cumulative(self.calibration.spam_hour_weights)
        # random.choices(cum_weights=...) draws random() * (cum[-1] + 0.0);
        # the inlined bisect below must consume the identical value.
        self._legit_hour_total = self._legit_hour_cum[-1] + 0.0
        self._spam_hour_total = self._spam_hour_cum[-1] + 0.0
        self._rejected_by_company = {
            company.company_id: sorted(company.config.rejected_senders)
            for company in world.companies
        }
        self.messages_generated = 0
        self._n_days = 0
        # Per-day staging columns, rebound by _draw_day.
        self._rows: list = []
        self._companies: list = []

    #: The forked planner feeding this run (``None``: plan in-process).
    _planner: Optional[Planner] = None
    #: Fork a planner at the next planning event (see planning_ahead).
    _plan_ahead = False

    # -- public API -------------------------------------------------------

    def start(self, n_days: int) -> None:
        """Arm one planning event per day, plus a warm campaign pool.

        The warm start spawns roughly one mean-duration's worth of
        campaigns at t=0 so day 0 already sees steady-state spam diversity.
        """
        mean_duration = sum(self.calibration.campaign_duration_days) / 2.0
        warm = round(self._campaign_rate() * mean_duration)
        for _ in range(max(1, warm)):
            self.active_campaigns.append(
                self.campaign_factory.spawn(self.world, self.simulator.now)
            )
        self._n_days = n_days
        for day in range(n_days):
            self.simulator.schedule(
                day * DAY, partial(self._plan_day, day), label=f"plan-day-{day}"
            )

    # -- per-day planning -------------------------------------------------

    def _campaign_rate(self) -> float:
        return (
            self.calibration.campaign_arrivals_per_day
            * self.world.scale.campaign_rate_scale
        )

    @contextmanager
    def planning_ahead(self, enabled: bool):
        """Within the block, plan the days after the next planning event
        in a forked :class:`~repro.workload.planner.Planner` — if
        *enabled* and :func:`~repro.workload.planner.can_fork_planner`
        allows. The planner is killed and reaped when the block exits,
        however it exits."""
        self._plan_ahead = enabled
        try:
            yield
        finally:
            self._plan_ahead = False
            if self._planner is not None:
                self._planner.close()

    def planner_metrics(self) -> dict:
        """The run's ``planner.*`` counters (all zero when it planned
        in-process)."""
        planner = self._planner
        return asdict(planner.stats if planner is not None else PlannerStats())

    def installation_at(self, index: int) -> CompanyInstallation:
        """The installation of the company with index *index*."""
        return self._installation_at[index]

    def _plan_day(self, day: int) -> None:
        """One day's planning event: draw the day (or receive the forked
        planner's draw of it) and apply it."""
        planner = self._planner
        if planner is None:
            self._dispatch_day(self._draw_day(day), day)
            if (
                self._plan_ahead
                and day + 1 < self._n_days
                and planning.can_fork_planner()
            ):
                self._planner = Planner(self, day + 1, self._n_days)
            return
        self._dispatch_day(planner.receive(day), day)
        if day + 1 == self._n_days:
            planner.close()

    def _draw_day(self, day: int) -> DayPlan:
        """Draw one day's traffic: the plan half of a planning event.

        Stages every company's rows in generation order, sorts them by
        arrival time and precomputes their MTA hints. Drawing mutates the
        generator's own state, leases IPs and bumps the newsletter
        counters; every other effect on the run (PTR records, DNSBL
        listings, mailboxes, scheduled user actions) goes through the
        methods a forked planner records as its op log.
        """
        now = self.simulator.now
        self.active_campaigns = [
            c for c in self.active_campaigns if c.end > now
        ]
        for _ in range(poisson(self.rng, self._campaign_rate())):
            self.active_campaigns.append(
                self.campaign_factory.spawn(self.world, now)
            )
        self._campaign_weights = [c.intensity for c in self.active_campaigns]
        # random.choices(weights=...) rebuilt this prefix sum per message;
        # the campaign mix is fixed for the day, so build it once.
        self._campaign_cum = list(accumulate(self._campaign_weights))
        self._campaign_total = (
            self._campaign_cum[-1] + 0.0 if self._campaign_cum else 0.0
        )

        weekend = is_weekend(now)
        legit_factor = (
            self.calibration.legit_weekend_factor if weekend else 1.0
        )
        spam_factor = self.calibration.spam_weekend_factor if weekend else 1.0

        plan = DayPlan(day)
        self._rows = plan.rows
        self._companies = plan.handlers
        for company, installation in zip(
            self.world.companies, self._installation_at
        ):
            self._plan_user_mail(company, installation, day, legit_factor)
            self._plan_spam(company, day, spam_factor)
        self._plan_newsletters(day)
        self._plan_marketing(day)
        self._rows = []
        self._companies = []
        plan.seal()
        self._precheck(plan)
        return plan

    def _precheck(self, plan: DayPlan) -> None:
        """One DNS-independent MTA sweep per company's rows."""
        groups: dict = {}
        groups_get = groups.get
        for position, company in enumerate(plan.handlers):
            group = groups_get(company)
            if group is None:
                group = groups[company] = []
            group.append(position)
        rows = plan.rows
        hints = [None] * len(rows)
        for company, positions in groups.items():
            swept = self._installation_at[company].mta_in.precheck_batch(
                [rows[position] for position in positions]
            )
            for position, hint in zip(positions, swept):
                hints[position] = hint
        plan.hints = hints

    def _dispatch_day(self, plan: DayPlan, day: int) -> None:
        """Apply one day's plan: replay its op log, allocate the day's id
        block, materialize the messages and hand them to the engine.

        A row MTA-IN refuses whatever DNS says goes through the door: it
        keeps its own event, but its action is ``refuse_at_door`` with a
        ``DoorRow`` instead of ``handle_inbound`` with a message
        (DESIGN.md §19)."""
        replay(self, plan.ops)
        first = allocate_msg_id_block(len(plan.rows))
        times, tokens, messages = plan.materialize(first, self._doors())
        if not messages:
            return
        self.messages_generated += len(messages)
        handlers = list(map(self._actions.__getitem__, tokens))
        if self.batch_delivery:
            self.simulator.schedule_batch(
                times, handlers, messages, label=f"day-{day}-mail"
            )
        else:
            schedule = self.simulator.schedule
            for t, handler, message in zip(times, handlers, messages):
                schedule(t, partial(handler, message))

    def _doors(self) -> Optional[list]:
        """Each company index's door token, or ``None`` where every row
        must reach ``handle_inbound``: an installation with a crash plan,
        whose dispatcher-down deferral needs the message. ``None`` when
        no company has a door (a crash run: the plan arms every
        installation)."""
        n = len(self._installation_at)
        doors = [
            n + index if installation.crash_plan is None else None
            for index, installation in enumerate(self._installation_at)
        ]
        return doors if any(door is not None for door in doors) else None

    # -- legitimate / user-driven traffic ----------------------------------

    def _plan_user_mail(
        self,
        company: Company,
        installation: CompanyInstallation,
        day: int,
        legit_factor: float,
    ) -> None:
        cal = self.calibration
        rng = self.rng
        size_model = self.size_model
        volume = self.world.scale.volume_scale
        company_index = self._company_index[company.company_id]
        white_rate = (
            cal.white_rate * company.legit_multiplier * volume * legit_factor
        )
        black_rate = cal.black_rate * volume
        dsn_rate = cal.dsn_rate * volume * legit_factor
        for user in company.users:
            white = poisson(rng, white_rate)
            if white:
                sizes = size_model.legit_batch(white)
                contacts = user.contacts
                for size in sizes:
                    self._stage_legit(
                        company_index, user, rng.choice(contacts), day, size
                    )

            black = poisson(rng, black_rate)
            if black:
                sizes = size_model.spam_batch(black)
                nuisance = user.nuisance_senders
                for size in sizes:
                    self._stage_nuisance(
                        company_index, user, rng.choice(nuisance), day, size
                    )

            dsns = poisson(rng, dsn_rate)
            if dsns:
                for size in size_model.legit_batch(dsns):
                    self._stage_dsn(company_index, user, day, size)

            # First-contact inbound mail scales with volume like all other
            # inbound traffic...
            new_contacts = poisson(
                rng,
                cal.sociality_new_contact_factor
                * user.sociality
                * volume
                * legit_factor,
            )
            if new_contacts:
                for size in size_model.legit_batch(new_contacts):
                    sender, _ip = self.world.create_new_contact(rng)
                    self._stage_legit(company_index, user, sender, day, size)

            # ...but the purely user-driven churn streams (outbound mail to
            # new addresses, manual imports) run at paper rates so Fig. 9's
            # absolute per-60-day histogram stays comparable at any scale.
            outbound_new = poisson(
                rng, cal.sociality_outbound_share * user.sociality * legit_factor
            )
            for _ in range(outbound_new):
                address, _ip = self.world.create_new_contact(rng)
                self._schedule_outbound(installation, user, address, day)

            outbound_known = poisson(
                rng, cal.outbound_known_rate * volume * legit_factor
            )
            for _ in range(outbound_known):
                self._schedule_outbound(
                    installation, user, rng.choice(user.contacts), day
                )

            manual = poisson(
                rng, cal.sociality_manual_share * user.sociality * legit_factor
            )
            for _ in range(manual):
                address, _ip = self.world.create_new_contact(rng)
                t = self._day_time(day, legit=True)
                self.simulator.schedule(
                    t,
                    partial(
                        installation.manual_whitelist, user.address, address
                    ),
                )

    def _stage_legit(
        self, company_index, user, sender: str, day: int, size: int
    ) -> None:
        rng = self.rng
        t = self._day_time(day, legit=True)
        client_ip = self.world.client_ip_for_address(sender)
        if (
            client_ip is None
            or rng.random() < self.calibration.legit_spf_misroute_prob
        ):
            client_ip = rng.choice(self.world.forwarder_ips)
        self._rows.append((
            t,
            sender,
            user.address,
            naming.make_short_subject(rng),
            size,
            client_ip,
            _LEGIT,
            _REAL,
            None,
            False,
        ))
        self._companies.append(company_index)

    def _stage_dsn(self, company_index, user, day: int, size: int) -> None:
        """A bounce of the user's own misaddressed outbound mail: null
        reverse-path, sent by some remote MTA."""
        ext = self.rng.choice(self.world.external_domains)
        t = self._day_time(day, legit=True)
        self._rows.append((
            t,
            "",
            user.address,
            "undelivered mail returned to sender",
            size // 4 + 500,
            ext.ip,
            _LEGIT,
            _REAL,
            "dsn",
            False,
        ))
        self._companies.append(company_index)

    def _stage_nuisance(
        self, company_index, user, sender: str, day: int, size: int
    ) -> None:
        t = self._day_time(day, legit=False)
        client_ip = self.world.client_ip_for_address(sender) or "192.0.2.1"
        self._rows.append((
            t,
            sender,
            user.address,
            naming.make_short_subject(self.rng),
            size,
            client_ip,
            _SPAM,
            _REAL,
            None,
            False,
        ))
        self._companies.append(company_index)

    def _schedule_outbound(
        self, installation, user, rcpt: str, day: int
    ) -> None:
        # Draw order matches the historical inline call: arrival time from
        # the trace stream first, then the size stream.
        t = self._day_time(day, legit=True)
        size = self.size_model.legit()
        self.simulator.schedule(
            t, partial(installation.send_user_mail, user.local, rcpt, size)
        )

    # -- newsletters ---------------------------------------------------------

    def _plan_newsletters(self, day: int) -> None:
        for source in self.world.newsletter_sources:
            day_in_cycle = (day - source.phase_days) % source.period_days
            if not 0 <= day_in_cycle < 1:
                continue
            source.issues_sent += 1
            subject = naming.make_newsletter_subject(
                self.rng, source.issues_sent
            )
            sender = self.rng.choice(source.senders)
            size = self.size_model.newsletter()
            volume = self.world.scale.volume_scale
            for company_id, subscriber in source.subscribers:
                # Newsletter volume scales with the preset like every other
                # inbound stream.
                if self.rng.random() >= volume:
                    continue
                company_index = self._company_index[company_id]
                t = self._day_time(day, legit=True)
                self._rows.append((
                    t,
                    sender,
                    subscriber,
                    subject,
                    size,
                    source.ip,
                    _NEWSLETTER,
                    _REAL,
                    source.source_id,
                    False,
                ))
                self._companies.append(company_index)

    def _plan_marketing(self, day: int) -> None:
        """Unsolicited marketing blasts: one fixed long subject per blast,
        near-identical senders, real well-configured servers (so the
        messages survive the filters and pile up in gray spools)."""
        volume = self.world.scale.volume_scale
        for source in self.world.marketing_sources:
            day_in_cycle = (day - source.phase_days) % source.period_days
            if not 0 <= day_in_cycle < 1:
                continue
            source.blasts_sent += 1
            subject = naming.make_campaign_subject(self.rng, 11)
            sender = self.rng.choice(source.senders)
            size = self.size_model.newsletter()
            for company in self.world.companies:
                company_index = self._company_index[company.company_id]
                expected = source.coverage * company.n_users * volume
                count = poisson(self.rng, expected)
                targets = self.rng.sample(
                    company.users, min(count, company.n_users)
                )
                for user in targets:
                    t = self._day_time(day, legit=True)
                    self._rows.append((
                        t,
                        sender,
                        user.address,
                        subject,
                        size,
                        source.ip,
                        _NEWSLETTER,
                        _REAL,
                        source.source_id,
                        False,
                    ))
                    self._companies.append(company_index)

    # -- spam ---------------------------------------------------------------

    def _plan_spam(
        self,
        company: Company,
        day: int,
        spam_factor: float,
    ) -> None:
        """Stage the day's spam aimed at *company*.

        This is the generator's single hottest loop (tens of thousands of
        iterations per simulated day on the larger presets), so the whole
        per-message pipeline — campaign pick, sender forgery, recipient
        draw, bot IP, arrival time, virus roll — is inlined here with
        every constant hoisted. Each branch reproduces the retired
        ``_stage_spam``/``_spam_sender``/``_spam_recipient`` helpers
        draw-for-draw; in particular the forgery-class roll keeps the
        original *sequential subtraction* (``roll -= frac``) because
        re-associating it into precomputed cut-points would change float
        rounding and therefore the trace.
        """
        if not self.active_campaigns:
            return
        cal = self.calibration
        rng = self.rng
        base = (
            cal.spam_valid_rate
            * company.n_users
            * company.spam_multiplier
            * self.world.scale.volume_scale
            * spam_factor
        )
        groups = [
            ("valid", poisson(rng, base)),
            ("unknown", poisson(rng, base * cal.spam_unknown_recipient_factor)),
            ("foreign", poisson(rng, base * cal.spam_foreign_factor)),
        ]
        if company.config.open_relay:
            groups.append(
                ("relay", poisson(rng, base * cal.relay_spam_factor))
            )
        company_index = self._company_index[company.company_id]

        random_ = rng.random
        choice = rng.choice
        getrandbits = rng.getrandbits
        world = self.world
        campaigns = self.active_campaigns
        camp_cum = self._campaign_cum
        camp_total = self._campaign_total
        camp_hi = len(campaigns) - 1
        spam_cum = self._spam_hour_cum
        spam_total = self._spam_hour_total
        day_base = day * DAY
        rows_append = self._rows.append
        companies_append = self._companies.append
        malformed_frac = cal.spam_malformed_sender_frac
        unresolvable_frac = cal.spam_unresolvable_sender_frac
        rejected_frac = cal.spam_rejected_sender_frac
        rejected = self._rejected_by_company[company.company_id]
        snowshoe_frac = cal.relay_snowshoe_frac
        snowshoe_ips = world.snowshoe_ips
        nonexistent = SenderClass.NONEXISTENT_MAILBOX
        make_malformed = naming.make_malformed_address
        make_person_local = naming.make_person_local
        sample_unresolvable = world.sample_unresolvable_sender
        unknown_suffix = "@" + company.config.domain
        relay_domains = company.config.relay_domains
        external_domains = world.external_domains

        for group, count in groups:
            if not count:
                continue
            sizes = self.size_model.spam_batch(count)
            mode = ("valid", "unknown", "foreign", "relay").index(group)
            for size in sizes:
                campaign = campaigns[
                    bisect(camp_cum, random_() * camp_total, 0, camp_hi)
                ]

                # -- forged envelope sender (was _spam_sender) ------------
                roll = random_()
                if roll < malformed_frac:
                    env_from = make_malformed(rng)
                    sender_class = nonexistent
                else:
                    roll -= malformed_frac
                    if roll < unresolvable_frac:
                        env_from = sample_unresolvable(rng)
                        sender_class = nonexistent
                    else:
                        roll -= unresolvable_frac
                        if rejected and roll < rejected_frac:
                            env_from = choice(rejected)
                            sender_class = nonexistent
                        else:
                            env_from, sender_class = campaign.sample_sender(
                                world, company, rng
                            )

                # -- recipient (was _spam_recipient) ----------------------
                if mode == 0:  # harvested protected user
                    env_to = campaign.sample_target(company, rng).address
                elif mode == 1:  # dictionary attack on unknown mailboxes
                    env_to = (
                        "zz" + format(getrandbits(40), "010x") + unknown_suffix
                    )
                elif mode == 2:  # relay probe for a foreign domain
                    ext = choice(external_domains)
                    env_to = make_person_local(rng) + "@" + ext.domain
                else:  # mode == 3: relayed through our open relay
                    env_to = make_person_local(rng) + "@" + choice(relay_domains)

                # Relayed spam partly arrives via snowshoe bulk hosts whose
                # clean PTR/blacklist profile slips past the filters (the
                # open relays' extra challenges, Fig. 3).
                if mode == 3 and random_() < snowshoe_frac:
                    client_ip = choice(snowshoe_ips)
                else:
                    client_ip = choice(campaign.bot_ips)

                hour = bisect(spam_cum, random_() * spam_total, 0, 23)
                rows_append((
                    day_base + hour * HOUR + random_() * HOUR,
                    env_from,
                    env_to,
                    campaign.subject,
                    size,
                    client_ip,
                    _SPAM,
                    sender_class,
                    campaign.campaign_id,
                    random_() < campaign.virus_prob,
                ))
                companies_append(company_index)

    # -- shared helpers --------------------------------------------------------

    def _day_time(self, day: int, legit: bool) -> float:
        # Inlined random.choices(hours, cum_weights=cum): one random()
        # draw scaled by the identical total, bisected over the same
        # prefix sums — bit-equal results without rebuilding the call
        # machinery per message.
        rng = self.rng
        if legit:
            cum = self._legit_hour_cum
            total = self._legit_hour_total
        else:
            cum = self._spam_hour_cum
            total = self._spam_hour_total
        hour = bisect(cum, rng.random() * total, 0, 23)
        return day * DAY + hour * HOUR + rng.random() * HOUR


def _cumulative(weights) -> list[float]:
    total = 0.0
    cum = []
    for w in weights:
        total += w
        cum.append(total)
    return cum
