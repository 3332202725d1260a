"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run`` — simulate a deployment and print summary statistics;
* ``experiment`` — regenerate one (or all) of the paper's tables/figures;
* ``sweep`` — re-simulate across several seeds in parallel (``--jobs``)
  and report cross-seed stability of the Fig. 5 correlations and each
  seed's end-to-end false-positive/false-negative rates;
* ``serve`` — run the live asyncio SMTP/HTTP frontend over a simulated
  deployment (WAL-durable, backpressured; see DESIGN.md §15);
* ``sstress`` — open-loop load generator against a running ``serve``;
* ``scenarios`` — list the declarative attack-scenario pack;
* ``check`` — run the declarative checks under ``checks/`` (the CI
  gate; see :mod:`repro.experiments.checks`);
* ``list`` — list available experiments, scale presets and scenarios.

``run``, ``experiment``, ``company`` and ``sweep`` all accept
``--scenario <name>`` to overlay a declarative scenario (attacks, fault
weather, filter chain, verdict checks) from the ``scenarios/`` pack.
Their simulation flags map onto :class:`~repro.experiments.runner.RunSpec`
fields of the same name.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from typing import Optional, Sequence

from repro._version import __version__
from repro.experiments.runner import RunSpec, simulate
from repro.experiments.registry import (
    CANONICAL_ORDER,
    EXPERIMENTS,
    run_experiment,
)
from repro.core.config import chain_preset_names
from repro.net.crashes import crash_preset_names
from repro.net.faults import fault_preset_names
from repro.util.metrics import format_metrics
from repro.util.simtime import DAY
from repro.workload.scale import preset_names

#: Where ``--checkpoint-every`` writes snapshots when no --checkpoint-dir
#: is given.
DEFAULT_CLI_CHECKPOINT_DIR = ".cache/checkpoints/cli"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of the IMC 2011 challenge-response spam filter "
            "measurement study."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command")

    run_parser = subparsers.add_parser(
        "run", help="simulate a deployment and print summary statistics"
    )
    _add_run_args(run_parser)
    run_parser.add_argument(
        "--save",
        metavar="PATH",
        help="persist the measurement logs to a JSONL file",
    )

    exp_parser = subparsers.add_parser(
        "experiment", help="regenerate paper tables/figures"
    )
    _add_run_args(exp_parser)
    exp_parser.add_argument(
        "ids",
        nargs="*",
        metavar="EXP",
        help="experiment ids (e.g. fig1 sec31); default: all",
    )

    company_parser = subparsers.add_parser(
        "company", help="per-installation drill-down report"
    )
    _add_run_args(company_parser)
    company_parser.add_argument(
        "company_ids",
        nargs="*",
        metavar="COMPANY",
        help="company ids (e.g. c00 c07); default: top 3 by traffic",
    )

    sweep_parser = subparsers.add_parser(
        "sweep",
        help="multi-seed re-simulation with parallel fan-out",
    )
    sweep_parser.add_argument(
        "--preset",
        default="tiny",
        choices=preset_names(),
        help="scale preset (default: tiny)",
    )
    sweep_parser.add_argument(
        "--seed", type=int, default=3, help="first seed of the sweep"
    )
    sweep_parser.add_argument(
        "--runs",
        type=int,
        default=3,
        metavar="N",
        help="number of consecutive seeds to simulate (default: 3)",
    )
    sweep_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes; 1 (default) runs serially in-process",
    )
    sweep_parser.add_argument(
        "--faults",
        default=None,
        choices=fault_preset_names(),
        help="fault-injection preset applied to every run in the sweep",
    )
    sweep_parser.add_argument(
        "--audit",
        action="store_true",
        help="run every sweep member with the lifecycle auditor on",
    )
    sweep_parser.add_argument(
        "--crashes",
        default=None,
        choices=crash_preset_names(),
        help="crash-fault preset applied to every run in the sweep",
    )
    sweep_parser.add_argument(
        "--filters",
        dest="chain",
        default=None,
        metavar="CHAIN",
        help=(
            "filter-chain composition applied to every run in the sweep "
            f"(preset: {', '.join(chain_preset_names())}; or comma list)"
        ),
    )
    sweep_parser.add_argument(
        "--scenario",
        default=None,
        metavar="NAME",
        help=(
            "overlay a declarative attack scenario on every run in the "
            "sweep (see `repro scenarios`)"
        ),
    )
    sweep_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the on-disk result cache under .cache/runs/",
    )

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the live SMTP/HTTP frontend over a simulated deployment",
    )
    serve_parser.add_argument(
        "--preset",
        default="tiny",
        choices=preset_names(),
        help="scale preset for the backing deployment (default: tiny)",
    )
    serve_parser.add_argument("--seed", type=int, default=7)
    serve_parser.add_argument(
        "--wal",
        default="serve.wal",
        metavar="PATH",
        help="write-ahead log path (replayed on start; default: serve.wal)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--smtp-port", type=int, default=0, help="0 = OS-assigned (default)"
    )
    serve_parser.add_argument(
        "--web-port", type=int, default=0, help="0 = OS-assigned (default)"
    )
    serve_parser.add_argument(
        "--endpoints-file",
        default=None,
        metavar="PATH",
        help="announce bound ports and pid as JSON at PATH",
    )
    serve_parser.add_argument(
        "--time-scale",
        type=float,
        default=1.0,
        metavar="X",
        help="simulated seconds per wall second (default: 1.0)",
    )

    stress_parser = subparsers.add_parser(
        "sstress", help="open-loop load generator against a live server"
    )
    stress_parser.add_argument(
        "--smtp-port", type=int, required=True, help="server SMTP port"
    )
    stress_parser.add_argument(
        "--web-port",
        type=int,
        default=None,
        help="server web port (used to discover targets via /directory)",
    )
    stress_parser.add_argument("--host", default="127.0.0.1")
    stress_parser.add_argument(
        "--rate",
        type=float,
        default=200.0,
        metavar="MSGS_PER_SEC",
        help="offered load (open-loop schedule; default: 200)",
    )
    stress_parser.add_argument("--messages", type=int, default=500)
    stress_parser.add_argument("--connections", type=int, default=8)
    stress_parser.add_argument("--seed", type=int, default=1)
    stress_parser.add_argument(
        "--scenario",
        default=None,
        metavar="NAME",
        help="replay a pack scenario's attack volume through the server",
    )
    stress_parser.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="also write the JSON report to PATH",
    )

    subparsers.add_parser(
        "scenarios", help="list the declarative attack-scenario pack"
    )
    check_parser = subparsers.add_parser(
        "check", help="run the declarative checks under checks/"
    )
    check_parser.add_argument(
        "names", nargs="*", metavar="NAME",
        help="check names or .yaml paths; default: every check",
    )
    subparsers.add_parser("list", help="list experiments and presets")
    return parser


def _add_run_args(parser: argparse.ArgumentParser) -> None:
    add_sim_args(parser)
    parser.add_argument(
        "--load",
        metavar="PATH",
        help="analyse a previously saved run instead of simulating",
    )


def add_sim_args(parser: argparse.ArgumentParser) -> None:
    """The simulation flags; :func:`spec_from_args` maps them onto a
    :class:`RunSpec`."""
    parser.add_argument(
        "--preset",
        default="tiny",
        choices=preset_names(),
        help="scale preset (default: tiny)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--faults",
        default=None,
        choices=fault_preset_names(),
        help="fault-injection preset (default: off — reliable substrate)",
    )
    parser.add_argument(
        "--audit",
        action="store_true",
        help=(
            "continuously audit the message-lifecycle ledger (every "
            "transition validated)"
        ),
    )
    parser.add_argument(
        "--crashes",
        default=None,
        choices=crash_preset_names(),
        help="crash-fault preset (default: off — no component crashes)",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=float,
        default=None,
        metavar="DAYS",
        help="write a restorable snapshot every N simulated days",
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help=(
            "snapshot directory for --checkpoint-every "
            f"(default: {DEFAULT_CLI_CHECKPOINT_DIR})"
        ),
    )
    parser.add_argument(
        "--resume-from",
        metavar="PATH",
        help=(
            "resume a simulation from a snapshot file; produces output "
            "byte-identical to the uninterrupted run"
        ),
    )
    parser.add_argument(
        "--spill-dir",
        default=None,
        metavar="DIR",
        help=(
            "stream full log chunks to columnar files under DIR, keeping "
            "the store's resident memory bounded"
        ),
    )
    parser.add_argument(
        "--filters",
        dest="chain",
        default=None,
        metavar="CHAIN",
        help=(
            "auxiliary filter-chain composition: a preset "
            f"({', '.join(chain_preset_names())}) or a comma list of "
            "members, e.g. antivirus,content (default: the scenario's chain, "
            "else the default product chain)"
        ),
    )
    parser.add_argument(
        "--scenario",
        default=None,
        metavar="NAME",
        help=(
            "overlay a declarative attack scenario from the scenarios/ "
            "pack (see `repro scenarios`); also accepts a path to a "
            ".yaml file"
        ),
    )


def spec_from_args(args: argparse.Namespace) -> RunSpec:
    """The :class:`RunSpec` the parsed flags declare: every flag whose
    destination names a spec field maps onto it (``--filters`` is
    ``chain``)."""
    given = {
        f.name: getattr(args, f.name)
        for f in fields(RunSpec)
        if hasattr(args, f.name)
    }
    if given.get("checkpoint_every") is not None:
        # The CLI speaks days; the engine sim-seconds.
        given["checkpoint_every"] *= DAY
        given["checkpoint_dir"] = (
            given.get("checkpoint_dir") or DEFAULT_CLI_CHECKPOINT_DIR
        )
    return RunSpec(**given)


def _load_or_run(args: argparse.Namespace):
    if getattr(args, "load", None):
        from repro.analysis.persistence import load_run

        return load_run(args.load)
    return simulate(spec_from_args(args))


def format_run_metrics(result) -> str:
    """A finished run's metrics map, one ``name  value`` line each
    (``repro run``, ``repro sweep``, ``repro check`` and
    ``scripts/profile_run.py`` print this)."""
    return format_metrics(result.metrics)


def _command_run(args: argparse.Namespace) -> int:
    result = _load_or_run(args)
    counts = result.store.summary_counts()
    wall = result.wall_seconds
    suffix = f" ({wall:.1f}s wall time)" if wall is not None else " (loaded)"
    print(
        f"{counts['mta']:,} messages, {result.info.n_companies} companies, "
        f"{result.info.horizon_days:.0f} days" + suffix
    )
    for name, value in counts.items():
        print(f"  {name:20s} {value:,}")
    if result.metrics:
        print(format_run_metrics(result))
    scenario = result.scenario
    if scenario is not None and scenario.verdicts:
        from repro.analysis import verdicts

        print()
        print(verdicts.render(verdicts.evaluate(result, scenario), scenario.description))
    if getattr(args, "save", None):
        from repro.analysis.persistence import save_run

        written = save_run(result.store, result.info, args.save)
        print(f"saved {written:,} records to {args.save}")
    return 0


def _command_experiment(args: argparse.Namespace) -> int:
    ids = args.ids or list(CANONICAL_ORDER)
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        print(
            f"unknown experiment(s): {', '.join(unknown)}; "
            f"known: {', '.join(sorted(EXPERIMENTS))}",
            file=sys.stderr,
        )
        return 2
    result = _load_or_run(args)
    for exp_id in ids:
        print(f"=== {exp_id} ===")
        print(run_experiment(exp_id, result))
        print()
    return 0


def _command_company(args: argparse.Namespace) -> int:
    from repro.analysis import company_report

    result = _load_or_run(args)
    if args.company_ids:
        for company_id in args.company_ids:
            try:
                print(company_report.render(result.store, result.info, company_id))
            except KeyError as exc:
                print(exc, file=sys.stderr)
                return 2
            print()
    else:
        print(company_report.render_all(result.store, result.info, limit=3))
    return 0


def _command_sweep(args: argparse.Namespace) -> int:
    from repro.analysis import frontier, variability
    from repro.experiments.parallel import ParallelRunner, RunCache, RunFailure

    if args.runs < 1:
        print("--runs must be >= 1", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return 2
    seeds = [args.seed + offset for offset in range(args.runs)]
    cache = None if args.no_cache else RunCache()
    runner = ParallelRunner(jobs=args.jobs, cache=cache)

    print(
        f"sweeping preset={args.preset!r} over seeds {seeds} "
        f"with jobs={args.jobs} ..."
    )
    spec = spec_from_args(args)
    runs = runner.run([replace(spec, seed=seed) for seed in seeds])
    failed = [run for run in runs if isinstance(run, RunFailure)]
    for failure in failed:
        print(
            f"seed {failure.seed} failed after retry:\n{failure.error}",
            file=sys.stderr,
        )
    records = [run for run in runs if not isinstance(run, RunFailure)]
    if not records:
        print("every run in the sweep failed", file=sys.stderr)
        return 1
    for record in records:
        print(f"\nseed {record.seed} metrics:")
        print(format_run_metrics(record))
    print()
    print(variability.render_sweep(variability.sweep_from_summaries(records)))
    print()
    print(frontier.render_sweep(records))
    print(
        f"\n{runner.runs_executed} simulated, {runner.cache_hits} from cache, "
        f"{len(failed)} failed"
        + ("" if cache is None else f" ({cache.root}/)")
    )
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.daemon import serve_forever

    return asyncio.run(
        serve_forever(
            args.preset,
            args.seed,
            args.wal,
            host=args.host,
            smtp_port=args.smtp_port,
            web_port=args.web_port,
            endpoints_file=args.endpoints_file,
            time_scale=args.time_scale,
        )
    )


def _command_sstress(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro.serve.sstress import StressConfig, run_stress

    report = asyncio.run(
        run_stress(
            StressConfig(
                smtp_port=args.smtp_port,
                host=args.host,
                web_port=args.web_port,
                rate=args.rate,
                messages=args.messages,
                connections=args.connections,
                seed=args.seed,
                scenario=args.scenario,
            )
        )
    )
    rendered = json.dumps(report, indent=2)
    print(rendered)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(rendered + "\n")
    return 0


def _command_scenarios(_args: argparse.Namespace) -> int:
    from repro.scenarios import load_scenario, scenario_dir, scenario_names

    names = scenario_names()
    if not names:
        print(f"no scenarios found under {scenario_dir()}/", file=sys.stderr)
        return 1
    print(f"scenario pack ({scenario_dir()}/):")
    for name in names:
        spec = load_scenario(name)
        print(f"  {name}")
        if spec.description:
            print(f"      {spec.description}")
        attacks = ", ".join(
            f"{a.kind}@{a.company_id} d{a.start_day}+{a.duration_days}"
            for a in spec.attacks
        )
        extras = []
        if spec.faults is not None:
            extras.append(f"faults={spec.faults}")
        if spec.crashes is not None:
            extras.append(f"crashes={spec.crashes}")
        if spec.chain:
            extras.append(f"chain={spec.chain_spec().members}")
        detail = f"      attacks: {attacks or '(none)'}"
        if extras:
            detail += f"; {'; '.join(extras)}"
        print(detail)
        print(f"      verdict checks: {len(spec.verdicts)}")
    return 0


def _command_list(_args: argparse.Namespace) -> int:
    from repro.scenarios import scenario_names

    print("experiments:")
    for exp_id in sorted(EXPERIMENTS):
        print(f"  {exp_id}")
    print("presets:")
    for preset in preset_names():
        print(f"  {preset}")
    print("scenarios:")
    for name in scenario_names():
        print(f"  {name}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    from repro.analysis.persistence import PersistenceError
    from repro.scenarios import ScenarioError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _command_run(args)
        if args.command == "experiment":
            return _command_experiment(args)
        if args.command == "company":
            return _command_company(args)
        if args.command == "sweep":
            return _command_sweep(args)
        if args.command == "serve":
            return _command_serve(args)
        if args.command == "sstress":
            return _command_sstress(args)
        if args.command == "scenarios":
            return _command_scenarios(args)
        if args.command == "check":
            from repro.experiments.checks import run_checks

            return run_checks(args.names)
        if args.command == "list":
            return _command_list(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except PersistenceError as exc:
        print(f"load error: {exc}", file=sys.stderr)
        return 2
    parser.print_help()
    return 1
