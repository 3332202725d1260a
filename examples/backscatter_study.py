#!/usr/bin/env python3
"""Backscatter what-if study: how the auxiliary filters shape the
reflection ratio R (§3.1's "Understanding the Reflection Ratio").

The paper argues that R is bounded by two useless extremes: with no
auxiliary filters a CR system "would just act as a spam multiplier"
(R approaching the spam share of traffic), while a perfect internal spam
filter would leave nothing for the CR mechanism to do. This study runs the
same deployment under five filter configurations and reports, for each:

* the reflection ratio R at the CR filter;
* the worst-case backscatter ratio beta;
* how many challenges were sent, and how many were misdirected
  (delivered to people who never mailed us, or bounced into the void).

Each run also overlays the pack's **backscatter-storm** scenario (forged
nonexistent senders at one spoofed victim domain), so the table shows
how the same adversarial reflection load fares under each filter stack;
an explicit ``chain`` always overrides whatever the scenario declares.
The deployed configuration's machine verdict prints last.

Usage::

    python examples/backscatter_study.py [--preset tiny|small] [--seed N]
"""

import argparse

from repro.analysis import challenges, reflection, verdicts
from repro.experiments import run_simulation
from repro.scenarios import load_scenario
from repro.util.render import TextTable

#: (label, ``RunSpec.chain``): each configuration changes only the chain.
CONFIGS = [
    ("no filters (naive CR)", "cr-only"),
    ("antivirus only", "antivirus"),
    ("antivirus + reverse DNS", "antivirus,reverse_dns"),
    ("full product (AV+rDNS+RBL)", "default"),
    ("full product + inline SPF", "antivirus,reverse_dns,rbl,spf"),
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", default="tiny")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    storm = load_scenario("backscatter-storm")

    table = TextTable(
        headers=[
            "filter configuration",
            "R (CR filter)",
            "beta (worst case)",
            "challenges sent",
            "delivered, never solved",
            "bounced/expired",
        ],
        title="Sec. 3.1 what-if — reflection vs auxiliary filtering "
        f"(scenario: {storm.name})",
    )
    deployed_result = None
    for label, chain in CONFIGS:
        print(f"running: {label} ...")
        result = run_simulation(
            args.preset, seed=args.seed, chain=chain, scenario=storm
        )
        if label.startswith("full product ("):
            deployed_result = result
        refl = reflection.compute(result.store)
        stats = challenges.compute(result.store)
        table.add_row(
            label,
            f"{100.0 * refl.reflection_cr:.1f}%",
            f"{100.0 * refl.beta_cr:.1f}%",
            refl.challenges,
            stats.delivered - stats.solved,
            stats.resolved - stats.delivered,
        )
    print()
    print(table.render())
    if deployed_result is not None:
        print()
        print(
            verdicts.render(
                verdicts.evaluate(deployed_result, storm), storm.description
            )
        )
    print(
        "\nReading: without filters the CR system reflects a large share of"
        "\nits spam load back at (mostly innocent or non-existent) senders;"
        "\neach added filter trades challenges for silent drops. The paper's"
        "\ndeployed configuration sits at R ~ 19% — enough reflected"
        "\nchallenges to be useful, few enough to bound the backscatter."
    )


if __name__ == "__main__":
    main()
