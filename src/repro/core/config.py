"""Per-company configuration of a CR installation.

Also re-exports the fault-injection presets
(:data:`~repro.net.faults.FAULT_PRESETS`) so deployment configuration —
scale preset, filter settings, network weather — reads from one place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Optional, Tuple

from repro.net.faults import (  # noqa: F401  (re-export)
    FAULT_PRESETS,
    FaultSettings,
    fault_preset_names,
    get_fault_preset,
)


@dataclass(frozen=True)
class FilterSettings:
    """Per-company tuning of the auxiliary filters.

    Which filters run, and in which order, is the run's
    :class:`FilterChainSpec`; these settings only tune the members that
    need per-installation data: the antivirus detection rate and the IP
    blacklist the RBL filter queries.
    """

    antivirus_detection_rate: float = 0.98
    rbl_provider: str = "spamhaus-zen"


#: Every filter the chain builder knows how to instantiate, in the
#: order the default product ran them (content/reputation are the PR 9
#: baselines from the related work; spf stayed offline in the paper).
FILTER_MEMBERS = (
    "antivirus", "reverse_dns", "rbl", "spf", "content", "reputation",
)

#: The product chain the paper's deployment ran (SPF stayed offline).
DEFAULT_CHAIN_MEMBERS = ("antivirus", "reverse_dns", "rbl")

#: Named chain compositions the CLI / frontier experiment accept.
CHAIN_PRESETS = {
    "default": DEFAULT_CHAIN_MEMBERS,
    # No auxiliary filters at all: every gray message is challenged. The
    # frontier's pure-CR reference point — its FPs are exactly the
    # unsolved-challenge losses, with no filter false drops mixed in.
    "cr-only": (),
    # The related-work baselines run *alone* so their FP/FN frontier is
    # attributable to the baseline itself, not the product chain.
    "naive-bayes": ("content",),
    "reputation": ("reputation",),
    # The product chain plus both baselines behind it.
    "hybrid": ("antivirus", "reverse_dns", "rbl", "content", "reputation"),
}


@dataclass(frozen=True)
class FilterChainSpec:
    """Declarative composition of the auxiliary filter chain.

    Frozen and hashable (tuples + scalars only) so a spec folds into the
    sweep cache key, ships to sweep workers, and round-trips through
    scenario YAML with a deterministic repr. ``members`` are instantiated
    in order — the chain short-circuits on the first drop, so order is
    part of the configuration. Per-member knobs (thresholds, windows)
    live here rather than on the filters so one spec fully determines
    the chain. The default instance is the ``default`` preset, the
    product chain every scenario-free run uses.
    """

    members: Tuple[str, ...] = DEFAULT_CHAIN_MEMBERS
    #: Online naive-Bayes log-odds decision threshold (0.0 = maximum
    #: likelihood; raise it to trade false positives for false negatives).
    content_threshold: float = 0.0
    #: Days of in-run training before the content filter may drop at all.
    content_warmup_days: float = 3.0
    #: Sliding history window of the sender-reputation filter.
    reputation_window_days: float = 14.0
    #: Spam share of a key's window at which reputation drops.
    reputation_threshold: float = 0.9
    #: Minimum combined (domain + /24) observations before judging.
    reputation_min_observations: int = 12

    def __post_init__(self) -> None:
        if not isinstance(self.members, tuple):
            object.__setattr__(self, "members", tuple(self.members))
        unknown = [m for m in self.members if m not in FILTER_MEMBERS]
        if unknown:
            raise ValueError(
                f"unknown filter member(s) {', '.join(unknown)}; "
                f"known: {', '.join(FILTER_MEMBERS)}"
            )
        if not 0.0 < self.reputation_threshold <= 1.0:
            raise ValueError(
                f"reputation_threshold must be in (0, 1]: "
                f"{self.reputation_threshold}"
            )

    @classmethod
    def parse(cls, value) -> "Optional[FilterChainSpec]":
        """Coerce the accepted chain notations into a spec.

        ``None`` passes through (the run resolves it to the scenario's
        chain, else the ``default`` preset); specs pass through; a
        string is either a preset name (``"hybrid"``) or a comma list of
        members (``"antivirus,content"``).
        """
        if value is None or isinstance(value, cls):
            return value
        if isinstance(value, str):
            name = value.strip()
            if name in CHAIN_PRESETS:
                return cls(members=CHAIN_PRESETS[name])
            members = tuple(m.strip() for m in name.split(",") if m.strip())
            if not members:
                raise ValueError(f"empty filter chain spec: {value!r}")
            return cls(members=members)
        raise TypeError(
            f"chain must be a FilterChainSpec, a preset/comma string, or "
            f"None; got {type(value).__name__}"
        )


def chain_preset_names() -> list:
    """Registry listing for the CLI's ``--filters`` help text."""
    return sorted(CHAIN_PRESETS)


@dataclass(frozen=True)
class CompanyConfig:
    """Static description of one protected company."""

    company_id: str
    name: str
    #: Primary domain whose users the CR system protects.
    domain: str
    #: Local parts of the protected accounts.
    users: Tuple[str, ...]
    #: IP of the inbound MTA.
    mta_in_ip: str
    #: IP used for outgoing *user* mail.
    mta_out_ip: str
    #: IP used for outgoing *challenges*. One third of the paper's
    #: installations used a second MTA-OUT with a distinct IP precisely to
    #: contain blacklisting damage; for the rest this equals ``mta_out_ip``.
    challenge_ip: str
    #: Open relays additionally accept mail for these foreign domains,
    #: without being able to validate their recipients.
    relay_domains: Tuple[str, ...] = ()
    #: Envelope senders the MTA rejects outright (site-level blocks).
    rejected_senders: FrozenSet[str] = frozenset()
    filters: FilterSettings = field(default_factory=FilterSettings)
    #: Days a message waits in the gray spool before being dropped.
    quarantine_days: int = 30
    #: Suppress duplicate challenges while one is pending for the same
    #: (recipient, sender) pair. Always on in the commercial product;
    #: exposed for the dedup ablation bench.
    challenge_dedup: bool = True
    #: Hour of (simulated) day at which the daily digest is generated.
    digest_hour: int = 7

    def __post_init__(self) -> None:
        # Frozen dataclass: precompute the hot-path lookup sets once.
        object.__setattr__(self, "_user_set", frozenset(self.users))
        object.__setattr__(self, "_relay_set", frozenset(self.relay_domains))

    @property
    def open_relay(self) -> bool:
        return bool(self.relay_domains)

    @property
    def dual_outbound(self) -> bool:
        return self.challenge_ip != self.mta_out_ip

    def is_protected_recipient(self, local: str, domain: str) -> bool:
        """True when ``local@domain`` is a CR-protected account."""
        return domain == self.domain and local in self._user_set  # type: ignore[attr-defined]

    def accepts_domain(self, domain: str) -> bool:
        """True when the MTA accepts mail addressed to *domain* at all."""
        return domain == self.domain or domain in self._relay_set  # type: ignore[attr-defined]
