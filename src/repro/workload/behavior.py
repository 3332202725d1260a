"""Sender and recipient behaviour models.

Everything *human* about the measurement lives here: whether and when a
challenged sender opens the CAPTCHA page and solves it, whether a
backscatter victim confusedly solves a challenge for mail they never sent
(§4.1's spurious deliveries), and how diligently users weed their daily
digests. These behaviours plug into the CR engine through
:class:`repro.core.engine.BehaviorHooks`.
"""

from __future__ import annotations

import math
import random
from functools import partial
from typing import TYPE_CHECKING

from repro.core.challenge import Challenge
from repro.core.digest import DigestAction, DigestDecision
from repro.core.engine import BehaviorHooks, CompanyInstallation
from repro.core.message import MessageKind, SenderClass
from repro.core.spools import GrayEntry
from repro.util.rng import RngStreams
from repro.util.simtime import DAY, HOUR, MINUTE
from repro.workload.calibration import Calibration

if TYPE_CHECKING:  # pragma: no cover
    from repro.workload.entities import World


class BehaviorModel:
    """Implements both hooks of :class:`BehaviorHooks`.

    Draws come from one stream **per company** (``behavior/<company_id>``),
    not a single shared stream consumed in global event order: a company's
    human behaviour depends only on that company's own events. (The split
    dates from intra-run sharding, since retired; merging the streams
    back would change every run's output.)
    """

    def __init__(
        self, world: "World", calibration: Calibration, streams: RngStreams
    ) -> None:
        self.calibration = calibration
        self._streams = streams
        self._rngs: dict[str, random.Random] = {}
        #: Digest entries the user has already decided on: users skim each
        #: quarantined message once — they do not re-evaluate yesterday's
        #: junk every morning.
        self._digest_decided: set = set()
        self._newsletter_solve_prob = {
            source.source_id: source.solve_prob
            for source in world.newsletter_sources
        }
        # Marketing operators answer (or ignore) challenges the same way.
        self._newsletter_solve_prob.update(
            {
                source.source_id: source.solve_prob
                for source in world.marketing_sources
            }
        )
        #: Attack campaigns whose operator answers challenges (a CAPTCHA
        #: farm, a whitelist poisoner): campaign_id -> (solve_prob,
        #: delay_min, delay_max). Registered by
        #: :meth:`repro.workload.attacks.AttackScenario.install`; empty —
        #: and consulted without consuming any RNG — in scenario-free
        #: runs, so their goldens stay byte-identical.
        self._campaign_solvers: dict = {}

    def register_campaign_solver(
        self,
        campaign_id: str,
        solve_prob: float,
        delay_min: float,
        delay_max: float,
    ) -> None:
        """Arm an attacker-operated challenge solver for *campaign_id*."""
        self._campaign_solvers[campaign_id] = (
            solve_prob, delay_min, delay_max
        )

    def hooks(self) -> BehaviorHooks:
        return BehaviorHooks(
            on_challenge_delivered=self.on_challenge_delivered,
            digest_review=self.digest_review,
        )

    def _rng_for(self, installation: CompanyInstallation) -> random.Random:
        """The company-local behaviour stream for *installation*."""
        company_id = (
            installation.config.company_id if installation is not None else ""
        )
        rng = self._rngs.get(company_id)
        if rng is None:
            rng = self._rngs[company_id] = self._streams.stream(
                f"behavior/{company_id}"
            )
        return rng

    # -- challenge recipient behaviour -----------------------------------

    def on_challenge_delivered(
        self, installation: CompanyInstallation, challenge: Challenge
    ) -> None:
        """Decide how the mailbox that received this challenge reacts."""
        origin = challenge.origin
        if origin is None:
            return
        solver = (
            self._campaign_solvers.get(origin.campaign_id)
            if origin.campaign_id
            else None
        )
        if solver is not None:
            self._attacker_reacts(installation, challenge, solver)
            return
        if origin.kind is MessageKind.LEGIT:
            self._legit_sender_reacts(installation, challenge)
        elif origin.kind is MessageKind.NEWSLETTER:
            self._newsletter_operator_reacts(installation, challenge, origin)
        elif origin.sender_class is SenderClass.INNOCENT_THIRD_PARTY:
            self._innocent_victim_reacts(installation, challenge)
        # Other spam spoof classes (spammer-owned mailboxes, traps) simply
        # ignore the challenge: the URL is never opened.

    def _legit_sender_reacts(
        self, installation: CompanyInstallation, challenge: Challenge
    ) -> None:
        cal = self.calibration
        rng = self._rng_for(installation)
        roll = rng.random()
        if roll < cal.legit_solve_prob:
            self._schedule_solve(
                installation, challenge, self._solve_delay(rng)
            )
        elif roll < cal.legit_solve_prob + cal.legit_abandon_prob:
            # Visited but never solved (0.25 % of delivered, §3.2).
            delay = self._solve_delay(rng)
            self._schedule_open_only(installation, challenge, delay)

    def _newsletter_operator_reacts(
        self,
        installation: CompanyInstallation,
        challenge: Challenge,
        origin,
    ) -> None:
        solve_prob = self._newsletter_solve_prob.get(origin.campaign_id, 0.0)
        rng = self._rng_for(installation)
        if rng.random() < solve_prob:
            # Operators answer during office hours, within the working day.
            delay = rng.uniform(10 * MINUTE, 8 * HOUR)
            self._schedule_solve(installation, challenge, delay)

    def _attacker_reacts(
        self,
        installation: CompanyInstallation,
        challenge: Challenge,
        solver: tuple,
    ) -> None:
        """An attack operator (CAPTCHA farm, poisoner) answering its own
        challenges. Draws come from the victim company's behaviour
        stream."""
        solve_prob, delay_min, delay_max = solver
        rng = self._rng_for(installation)
        if rng.random() < solve_prob:
            delay = rng.uniform(delay_min, delay_max)
            self._schedule_solve(installation, challenge, delay)

    def _innocent_victim_reacts(
        self, installation: CompanyInstallation, challenge: Challenge
    ) -> None:
        cal = self.calibration
        rng = self._rng_for(installation)
        if rng.random() >= cal.innocent_open_prob:
            return
        delay = rng.uniform(10 * MINUTE, 2 * DAY)
        if rng.random() < cal.innocent_solve_given_open:
            # The §4.1 mechanism: a victim solves a challenge for mail they
            # never sent, whitelisting the forged sender and releasing spam.
            self._schedule_solve(installation, challenge, delay)
        else:
            self._schedule_open_only(installation, challenge, delay)

    # -- web-flow scheduling ------------------------------------------------

    def _schedule_solve(
        self,
        installation: CompanyInstallation,
        challenge: Challenge,
        delay: float,
    ) -> None:
        attempts = self._sample_attempts(self._rng_for(installation))
        simulator = installation.simulator
        challenge_id = challenge.challenge_id
        open_at = simulator.now + delay
        simulator.schedule(
            open_at, partial(installation.record_web_open, challenge_id)
        )
        # Failed tries ~30 s apart, then the successful submission.
        for i in range(attempts - 1):
            simulator.schedule(
                open_at + 30.0 * (i + 1),
                partial(installation.record_web_attempt, challenge_id, False),
            )
        simulator.schedule(
            open_at + 30.0 * attempts,
            partial(installation.solve_challenge, challenge_id),
        )

    def _schedule_open_only(
        self,
        installation: CompanyInstallation,
        challenge: Challenge,
        delay: float,
    ) -> None:
        simulator = installation.simulator
        challenge_id = challenge.challenge_id
        simulator.schedule(
            simulator.now + delay,
            partial(installation.record_web_open, challenge_id),
        )

    def _sample_attempts(self, rng: random.Random) -> int:
        """How many CAPTCHA tries the solver needs (Fig. 4(b): at most 5)."""
        probs = self.calibration.captcha_attempts_probs
        roll = rng.random()
        cumulative = 0.0
        for i, p in enumerate(probs, start=1):
            cumulative += p
            if roll < cumulative:
                return i
        return len(probs)

    def _solve_delay(self, rng: random.Random) -> float:
        """Fig. 7/8 mixture: mostly minutes, a tail of hours-to-days."""
        cal = self.calibration
        roll = rng.random()
        if roll < cal.solve_fast_prob:
            return cal.solve_fast_median * math.exp(
                rng.gauss(0.0, cal.solve_fast_sigma)
            )
        if roll < cal.solve_fast_prob + cal.solve_medium_prob:
            return rng.uniform(30 * MINUTE, 4 * HOUR)
        return rng.uniform(4 * HOUR, 3 * DAY)

    # -- digest behaviour -------------------------------------------------------

    def digest_review(
        self,
        installation: CompanyInstallation,
        user: str,
        entries: list[GrayEntry],
        now: float,
    ) -> list[DigestDecision]:
        """One user's pass over their daily digest."""
        cal = self.calibration
        rng = self._rng_for(installation)
        if rng.random() >= cal.digest_review_prob:
            return []
        decisions = []
        for entry in entries:
            msg_id = entry.message.msg_id
            if msg_id in self._digest_decided:
                continue
            self._digest_decided.add(msg_id)
            kind = entry.message.kind
            campaign = entry.message.campaign_id or ""
            roll = rng.random()
            if not entry.message.env_from:
                # Bounce notifications: skimmed and deleted half the time,
                # never whitelisted (there is no sender to whitelist).
                if roll < 0.5:
                    decisions.append(
                        DigestDecision(
                            msg_id=msg_id,
                            action=DigestAction.DELETE,
                            act_delay=self._act_delay(rng),
                        )
                    )
            elif kind is MessageKind.LEGIT:
                if roll < cal.digest_whitelist_prob_legit:
                    decisions.append(self._whitelist_decision(entry, rng))
            elif kind is MessageKind.NEWSLETTER:
                # Solicited newsletters get rescued; unsolicited marketing
                # blasts (mk-*) almost never do.
                prob = (
                    cal.digest_whitelist_prob_marketing
                    if campaign.startswith("mk-")
                    else cal.digest_whitelist_prob_newsletter
                )
                if roll < prob:
                    decisions.append(self._whitelist_decision(entry, rng))
            else:
                if roll < cal.digest_delete_prob_spam:
                    decisions.append(
                        DigestDecision(
                            msg_id=entry.message.msg_id,
                            action=DigestAction.DELETE,
                            act_delay=self._act_delay(rng),
                        )
                    )
        return decisions

    def _whitelist_decision(
        self, entry: GrayEntry, rng: random.Random
    ) -> DigestDecision:
        return DigestDecision(
            msg_id=entry.message.msg_id,
            action=DigestAction.WHITELIST,
            act_delay=self._act_delay(rng),
        )

    def _act_delay(self, rng: random.Random) -> float:
        return rng.uniform(*self.calibration.digest_act_delay_range)
