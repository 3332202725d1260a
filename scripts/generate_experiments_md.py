#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md from a fresh benchmark-scale run.

Runs the `bench` preset (the paper's 47-company deployment over six
simulated weeks), renders every experiment's paper-vs-measured report,
judges the paper bands of every check under checks/ that declares the
same run, and assembles EXPERIMENTS.md. Also refreshes the reports/
directory. Exits 1 if any band fails (EXPERIMENTS.md is still written).
"""

import json
import pathlib
import sys

from repro.analysis import verdicts
from repro.experiments import run_simulation
from repro.experiments.checks import check_dir, load_check
from repro.experiments.registry import EXPERIMENTS
from repro.scenarios import scenario_names

ROOT = pathlib.Path(__file__).resolve().parent.parent

HEADER = """\
# EXPERIMENTS — paper vs. measured

Every table and figure of the paper's evaluation, regenerated from one
simulated deployment at the `bench` scale preset (the paper's 47 companies
/ 13 open relays, six simulated weeks, seed 7). Regenerate with::

    python scripts/generate_experiments_md.py

Every compared quantity also has a declared band, judged at the end of
this file and gated at seeds 3, 7 and 11 by::

    python -m repro check paper-3 paper-7 paper-11 paper-7-only

## How to read the numbers

* We reproduce **shapes, ratios and orderings**, not absolute counts: the
  substrate is a calibrated simulator, not the authors' six-month
  commercial traces (see DESIGN.md for the substitution argument).
* Quantities used to *calibrate* the workload (the §2 drop table, the
  Fig. 1 flow, filter-drop shares, CAPTCHA behaviour rates) are expected
  to match closely; everything *derived* (reflection/backscatter ratios,
  correlations, cluster statistics, blacklisting dynamics, SPF what-ifs)
  is emergent from the mechanisms and is the actual reproduction result.
* Known deviations are listed per experiment below; the paper itself is
  internally inconsistent on a few internal percentages (see DESIGN.md §10),
  in which case we quote all of its variants.

"""

SECTIONS = [
    (
        "tab_drop",
        "Sec. 2 drop table + Fig. 2 — MTA-IN treatment",
        "Calibrated: the drop-reason mix and the ~25 % pass rate anchor the "
        "workload. The unknown-recipient share runs a few points above the "
        "paper because our closed-relay total also absorbs the paper's "
        "unattributed drop mass (the published reasons only sum to 68.9 %, "
        "while its Fig. 1 implies 75.1 % dropped).",
    ),
    (
        "fig1",
        "Fig. 1 — lifecycle of incoming email (per 1000 at MTA-IN)",
        "Mostly calibrated; the challenge count and the released-to-inbox "
        "counts are emergent (dedup, filter interaction, solve behaviour).",
    ),
    (
        "fig3",
        "Fig. 3 — categories at the internal processing engine",
        "The paper quotes three inconsistent values for the filters' share "
        "of gray mail (54 % in Fig. 3, 62.9 % derivable from Table 1, "
        "77.5 % in §5.2); we land inside that corridor. The open-relay "
        "extra challenge rate is emergent from relayed traffic having no "
        "whitelists and a slice of snowshoe senders.",
    ),
    (
        "tab1",
        "Table 1 — general statistics",
        "Absolute counts scale with simulated volume; compare the per-mille "
        "share columns. The aggregate gray share exceeds the paper's "
        "because our 13 open relays carry proportionally more relayed spam "
        "than the paper's (unpublished) relay volumes.",
    ),
    (
        "tab1_daily",
        "Table 1 (daily statistics) — temporal structure",
        "The per-day rates behind Table 1's bottom block, plus the weekday "
        "structure the paper does not report: legitimate traffic dips on "
        "weekends far harder than spam does.",
    ),
    (
        "fig4a",
        "Fig. 4 — challenge delivery status and CAPTCHA statistics",
        "Emergent from the spoofed-sender mix and behaviour models: "
        "delivered ~50 %, non-existent recipients dominating the bounces, "
        "~94 % of delivered challenges never opened, nobody needing more "
        "than five CAPTCHA attempts. The paper reports the solved share "
        "both as 4 % of delivered (§3.2) and 3.5 % of sent (Table 1); we "
        "sit between the two.",
    ),
    (
        "sec31",
        "Sec. 3.1–3.3 — reflection ratio, backscatter, traffic pollution",
        "The headline reproduction: R ≈ 19.3 % at the CR filter, "
        "worst-case backscatter β ≈ 9 %, reflected-traffic ratio RT ≈ "
        "2.3 %. Two documented deviations: R at MTA-IN (and hence "
        "emails-per-challenge) runs above the paper's 4.8 % because our 13 "
        "open relays accept — and reflect — proportionally more relayed "
        "mail than the paper's unpublished relay volumes; and the share of "
        "gray senders rescued from the digest sits below the paper's ~2 % "
        "because our users decide on each digest entry exactly once "
        "(re-rolling daily would overshoot the digest-release volume "
        "instead).",
    ),
    (
        "fig5",
        "Fig. 5 — per-company variability and correlations",
        "Fully emergent: reflection confined to a narrow band and "
        "uncorrelated with company size/volume; solved share strongly "
        "positively correlated with the white share; white share mildly "
        "anti-correlated with reflection.",
    ),
    (
        "fig6",
        "Fig. 6 / Sec. 4.1 — spam clustering and spurious deliveries",
        "Emergent: hundreds of exact-subject clusters, a small minority "
        "containing any solved challenge; high sender-similarity "
        "(marketing) clusters reach near-total solve rates while botnet "
        "clusters bounce ~30-40 % and solve one or two at most; spurious "
        "spam deliveries in the 1-per-10,000-challenges regime. Cluster "
        "counts scale with simulated volume (threshold scaled per preset).",
    ),
    (
        "fig7",
        "Fig. 7/8 + Sec. 4.2 — delivery delay",
        "Captcha-release delays reproduce the fast knee (tens of minutes) "
        "with the 4-hour saturation; digest releases span ~11 h to 3 days. "
        "The >1-day inbox share lands near the paper's 0.6 %.",
    ),
    (
        "fig9",
        "Fig. 9/10 + Sec. 4.3 — whitelist churn and digest burden",
        "The per-60-day histogram reproduces the paper's heavy low-end "
        "(most whitelists gain 1-10 entries) with a thinning tail, and the "
        "shares of high-churn users stay in the single digits. Fig. 10's "
        "three contrasted digest profiles are picked from the run.",
    ),
    (
        "fig11",
        "Fig. 11 / Sec. 5.1 — challenge-server blacklisting",
        "Emergent from trap-hit dynamics: most servers never listed, a "
        "handful listed for long stretches (the trap-affinity outliers), "
        "no correlation between challenge volume and listing, and the top "
        "challenge senders staying clean.",
    ),
    (
        "fig12",
        "Fig. 12 / Sec. 5.2 — offline SPF validation",
        "Emergent from the DNS/SPF ecosystem: dropping SPF hard-fails "
        "would prune expired challenges hardest, bounced ones next, at a "
        "sub-percent cost in solved challenges. See "
        "examples/spf_ablation.py for the deployed (inline) version.",
    ),
    (
        "sec6",
        "Sec. 6 — discussion summary figures",
        "The cross-cutting numbers the paper leads its discussion with.",
    ),
]


def main() -> int:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 7
    print(f"Running bench deployment (seed {seed}) ...")
    result = run_simulation("bench", seed=seed)
    print(f"done in {result.wall_seconds:.0f}s; rendering reports ...")

    reports_dir = ROOT / "reports"
    reports_dir.mkdir(exist_ok=True)

    parts = [HEADER]
    parts.append(
        f"Run: preset `bench`, seed {seed}, "
        f"{len(result.store.mta):,} messages, "
        f"{result.info.n_companies} companies, "
        f"{result.info.horizon_days:.0f} days "
        f"({result.wall_seconds:.0f}s wall time).\n"
    )
    for exp_id, title, commentary in SECTIONS:
        report = EXPERIMENTS[exp_id](result)
        (reports_dir / f"{exp_id}.txt").write_text(report + "\n")
        parts.append(f"## {title}\n")
        parts.append(commentary + "\n")
        parts.append("```\n" + report + "\n```\n")

    # The verdicts experiment needs an attacked run: overlay one pack
    # scenario (tiny scale keeps the regeneration cheap) and render its
    # machine-checked verdict table.
    print("Running trap-bombing scenario (tiny, seed 7) ...")
    attacked = run_simulation("tiny", seed=7, scenario="trap-bombing")
    report = EXPERIMENTS["verdicts"](attacked)
    (reports_dir / "verdicts.txt").write_text(report + "\n")
    parts.append("## Scenario verdicts — the Sec. 6 attacks as data\n")
    parts.append(
        "The declarative pack under `scenarios/` turns the attacks the "
        "paper could only discuss (trap bombing, whitelist spoofing and "
        "poisoning, backscatter storms, CAPTCHA farms) plus two benign "
        "stress cases into named, hashable specs with machine-checked "
        "pass/fail verdicts. Shown here: the trap-bombing scenario at "
        "the `tiny` preset; run any of them with "
        "`repro run --scenario <name>` (see `repro scenarios`).\n"
    )
    parts.append("```\n" + report + "\n```\n")

    # The frontier experiment is a cross-run sweep (chain compositions x
    # scenarios x seeds, tiny scale, through the shared result cache);
    # it ignores the run it's handed.
    print("Running FP/FN frontier sweep (tiny, seeds 3/5/7) ...")
    report = EXPERIMENTS["frontier"](attacked)
    (reports_dir / "frontier.txt").write_text(report + "\n")
    parts.append("## FP/FN frontier — CR vs. the competing-filter baselines\n")
    parts.append(
        "The comparison the paper could only cite (Sec. 1, Erickson et "
        "al.): the same simulated deployment re-run under each filter-chain "
        "composition — pure CR (no auxiliary filters), the `default` "
        "product chain, an online naive-Bayes content filter alone, a sender-"
        "reputation filter alone, and the full hybrid — across the whole "
        "scenario pack, with end-to-end inbox-truth false-positive and "
        "false-negative rates per cell (averaged over seeds 3/5/7). "
        "Machine-checked: every cell must evaluate, and pure CR must beat "
        "the naive-Bayes chain on clean-row false positives. Regenerate "
        "with `repro experiment frontier`; CI gates it with "
        "`repro check frontier`.\n"
    )
    parts.append("```\n" + report + "\n```\n")
    smoke = ROOT / "serve_smoke_report.json"
    if smoke.exists():
        chaos = json.loads(smoke.read_text())
        burst = chaos["clean_burst"]
        latency = burst["accept_latency_ms"]
        parts.append("## Live service mode — durability and throughput\n")
        parts.append(
            "The asyncio SMTP/HTTP frontend (DESIGN.md §15) under the "
            "chaos gate: randomized `kill -9` injections against the "
            "real server subprocess under open-loop load, zero "
            "accepted-message loss asserted via WAL replay + ledger "
            "reconciliation on every restart. Regenerate with "
            "`make serve-smoke` (the numbers below are the committed "
            "`serve_smoke_report.json`; CI re-runs the gate and uploads "
            "a fresh artifact).\n"
        )
        parts.append(
            "```\n"
            f"kill -9 injections          {chaos['kills']}\n"
            f"acked by clients (killed)   {chaos['cumulative_acked']}\n"
            f"accepted after replay       "
            f"{chaos['final_reconciliation']['accepted']}\n"
            f"zero accepted-message loss  {chaos['zero_loss']}\n"
            f"torn WAL tails repaired     {chaos['torn_tails_seen']}\n"
            f"graceful SIGTERM exit       {chaos['graceful_exit_code']}\n"
            "\n"
            "clean burst (open-loop, measured from scheduled arrival)\n"
            f"offered rate                {burst['offered_rate']:.0f} msgs/s\n"
            f"sustained                   "
            f"{burst['sustained_msgs_per_sec']} msgs/s\n"
            f"accept latency p50/p99/max  {latency['p50']} / "
            f"{latency['p99']} / {latency['max']} ms\n"
            "```\n"
        )
    # The paper bands of every check that declares this very run.
    bands = [
        check.spec
        for check in map(load_check, scenario_names(check_dir()))
        if check.run == {"preset": "bench", "seed": seed}
    ]
    judged = [verdicts.evaluate(result, spec) for spec in bands]
    parts.append("## Paper bands\n")
    parts.append(
        f"Each compared quantity's declared band (`checks/_paper.yaml` "
        f"and the seed-{seed} checks; DESIGN.md §18), judged on the run "
        "above. Values are the statistics' own units, mostly fractions.\n"
    )
    for spec, verdict in zip(bands, judged):
        parts.append(
            "```\n" + verdicts.render(verdict, spec.description) + "\n```\n"
        )
    stability = reports_dir / "scale_stability.txt"
    if stability.exists():
        parts.append("## Appendix — scale stability\n")
        parts.append(
            "The same headline quantities at two simulation scales (~0.5M "
            "and ~2M messages; regenerate with "
            "`python scripts/scale_stability.py`):\n"
        )
        parts.append("```\n" + stability.read_text().rstrip() + "\n```\n")
    (ROOT / "EXPERIMENTS.md").write_text("\n".join(parts))
    print(f"wrote {ROOT / 'EXPERIMENTS.md'}")
    failed = [v.scenario for v in judged if not v.passed]
    if failed:
        print(f"paper bands failed: {', '.join(failed)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
