"""Ablation benches for the design choices DESIGN.md calls out.

These are not paper artifacts; they quantify how much each mechanism
contributes to the published behaviour:

* **auxiliary filters** — §3.1's argument that without them a CR system is
  a spam multiplier;
* **challenge de-duplication** — the pending-challenge suppression that
  keeps repeat senders from receiving one challenge per message;
* **dual outbound MTAs** — the §5.1 mitigation keeping user mail off the
  blacklisted challenge IP.

The ablation fleet (the baseline `small` deployment plus each modified
configuration) is independent run-by-run, so it executes once per module
through the parallel runner — fanned out over worker processes when the
machine has them — and every bench then times its analysis over the
shared summaries.
"""

import os
from collections import defaultdict

import pytest

from repro.analysis import reflection
from repro.experiments.parallel import ParallelRunner, RunSpec
from repro.util.render import TextTable
from repro.util.simtime import DAY

SEED = 11

#: The whole ablation fleet, executed in one fan-out.
SPECS = {
    "baseline": RunSpec("small", seed=SEED, label="baseline"),
    "no_filters": RunSpec(
        "small", seed=SEED, chain="cr-only", label="no-auxiliary-filters"
    ),
    "no_dedup": RunSpec(
        "small",
        seed=SEED,
        config_overrides={"challenge_dedup": False},
        label="no-challenge-dedup",
    ),
}


@pytest.fixture(scope="module")
def ablation_summaries():
    """Run the ablation fleet once, in parallel, uncached (benches measure)."""
    jobs = min(len(SPECS), os.cpu_count() or 1)
    runner = ParallelRunner(jobs=jobs, cache=None)
    summaries = runner.run(list(SPECS.values()))
    return dict(zip(SPECS, summaries))


def test_ablation_auxiliary_filters(benchmark, emit_report, ablation_summaries):
    """Without the filter chain, R explodes toward the spam share."""
    baseline = ablation_summaries["baseline"]
    unfiltered = ablation_summaries["no_filters"]

    r_unfiltered = benchmark.pedantic(
        reflection.compute, args=(unfiltered.store,), rounds=3, iterations=1
    )
    r_base = reflection.compute(baseline.store)
    table = TextTable(
        headers=["configuration", "R (CR filter)", "beta", "challenges"],
        title="Ablation — auxiliary filters (Sec. 3.1's spam-multiplier bound)",
    )
    table.add_row(
        "deployed product",
        f"{100 * r_base.reflection_cr:.1f}%",
        f"{100 * r_base.beta_cr:.1f}%",
        r_base.challenges,
    )
    table.add_row(
        "no auxiliary filters",
        f"{100 * r_unfiltered.reflection_cr:.1f}%",
        f"{100 * r_unfiltered.beta_cr:.1f}%",
        r_unfiltered.challenges,
    )
    emit_report("ablation_filters", table.render())

    # The filters cut reflected challenges several-fold; without them the
    # system reflects most of its gray load (>60 %).
    assert r_unfiltered.reflection_cr > 0.6
    assert r_unfiltered.reflection_cr > 3 * r_base.reflection_cr
    assert r_unfiltered.beta_cr > 2.5 * r_base.beta_cr


def test_ablation_challenge_dedup(benchmark, emit_report, ablation_summaries):
    """Without pending-challenge suppression, repeat senders get one
    challenge per message."""
    baseline = ablation_summaries["baseline"]
    nodedup = ablation_summaries["no_dedup"]

    def count_suppressed():
        return sum(
            1
            for r in baseline.store.dispatch
            if r.challenge_id is not None and not r.challenge_created
        )

    suppressed = benchmark.pedantic(count_suppressed, rounds=3, iterations=1)
    base_challenges = len(baseline.store.challenges)
    nodedup_challenges = len(nodedup.store.challenges)
    table = TextTable(
        headers=["configuration", "challenges sent", "suppressed duplicates"],
        title="Ablation — challenge de-duplication",
    )
    table.add_row("dedup on (product)", base_challenges, suppressed)
    table.add_row("dedup off", nodedup_challenges, 0)
    emit_report("ablation_dedup", table.render())

    # Every suppressed duplicate becomes an extra challenge email. (The two
    # runs share a seed but diverge slightly once whitelists differ, so
    # compare with a tolerance.)
    assert nodedup_challenges >= base_challenges
    assert nodedup_challenges >= base_challenges + 0.5 * suppressed


def test_ablation_dual_outbound_mta(benchmark, emit_report, ablation_summaries):
    """Dual-MTA installations keep user mail off the blacklisted IP."""
    result = ablation_summaries["baseline"]

    def listed_days_by_ip():
        listed = defaultdict(set)
        for probe in result.store.probes:
            if probe.listed:
                listed[probe.ip].add(int(probe.t // DAY))
        return listed

    listed_days = benchmark.pedantic(listed_days_by_ip, rounds=3, iterations=1)

    table = TextTable(
        headers=["config", "challenge-IP listed-days", "user-IP listed-days"],
        title="Ablation — dual outbound MTAs (Sec. 5.1 mitigation)",
    )
    dual_user_days = 0
    dual_challenge_days = 0
    for config in result.company_configs.values():
        challenge_days = len(listed_days.get(config.challenge_ip, ()))
        user_days = len(listed_days.get(config.mta_out_ip, ()))
        if config.dual_outbound:
            dual_challenge_days += challenge_days
            dual_user_days += user_days
            if challenge_days or user_days:
                table.add_row(config.company_id, challenge_days, user_days)
    emit_report("ablation_dual_mta", table.render())

    # Whatever blacklisting happens to dual installations lands on the
    # dedicated challenge IP; the user-mail IP stays clean (user mail never
    # hits spam traps).
    assert dual_user_days == 0
