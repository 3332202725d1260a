"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sim-bench --seed 3 --seconds 15 --trace 0

Run from the repository root (the program is imported from ``src/``).
Workloads, metrics and their meanings are in ``spec.py``; the workloads
themselves in ``sim.py`` and ``live.py``. ``--seconds`` sizes the live
workloads' phases and WAL; a ``sim-*`` run is always one full ``bench``
deployment.

With ``--trace 0`` the run is untraced: it prints each end-to-end metric
by name and unit, the workload's own names for them included, then one
JSON line with every ``spec.END_TO_END`` metric. With ``--trace 1`` it
first runs the same workload untraced in a fresh process, then traced in
this one (or in the live children), and the JSON line carries every
``spec.PER_LAYER`` metric: tracing overhead is the difference between the
two, and ``trace.unattributed_s`` is the traced window no span's self time
covers. Spans are written under ``.bench_out/``.

Every run checks the program's outputs after its timed region; the JSON's
``correct`` is false when any check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

from spec import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

MB = 1024 * 1024


def _measure(workload: str, seed: int, seconds: int, out_dir: str,
             tracer=None) -> dict:
    if workload.startswith("sim-"):
        import sim

        facts = sim.measure(workload, seed, out_dir, tracer)
        facts["named"] = {
            "msgs_per_s": (facts["throughput"], "1/s"),
            "msgs_per_s_raw": (facts["throughput_raw"], "1/s"),
            "msgs": (facts["msgs"], "count"),
            "events": (facts["events"], "count"),
            "run_wall_s": (facts["run_wall"], "s"),
        }
        for i, wall in enumerate(facts["shard_walls"]):
            facts["named"][f"shard.{i}.wall_s"] = (wall, "s")
        return facts
    import live

    trace_out = os.path.join(out_dir, f"spans-{workload}.json") if tracer else None
    if workload == "live-ingest":
        return live.ingest(seed, seconds, out_dir, trace_out)
    return live.recover(seed, seconds, out_dir, trace_out)


def _result(facts: dict, metrics: dict, correct: bool) -> dict:
    return {
        "correct": correct,
        "attempted": int(facts["attempted"]),
        "failed": int(facts["failed"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def untraced(args, out_dir: str) -> dict:
    facts = _measure(args.workload, args.seed, args.seconds, out_dir)
    end_to_end = {
        "setup_s": facts["setup_s"],
        "throughput_per_s": facts["throughput"],
        "peak_rss_kb_per_unit": facts["peak_rss_bytes"] / 1024 / facts["units"],
    }
    units = {name: unit for name, unit, _better, _bound in END_TO_END}
    metrics = {name: (end_to_end[name], units[name]) for name in units}
    named = dict(facts["named"])
    named["failed_frac"] = (facts["failed"] / facts["attempted"], "ratio")
    named["peak_rss_mb"] = (facts["peak_rss_bytes"] / MB, "MB")
    named["wall_s"] = (facts["wall"], "s")
    named["units"] = (facts["units"], "count")
    for name, (value, unit) in list(metrics.items()) + sorted(named.items()):
        print(f"{args.workload} {name} = {value} {unit}")
    for check, ok in facts["checks"]:
        print(f"{args.workload} check {check}: {'ok' if ok else 'FAILED'}")
    correct = all(ok for _check, ok in facts["checks"])
    keep = {k: v for k, v in facts.items()
            if k not in ("trace_state", "cache", "checks")}
    keep["named"] = named
    with open(os.path.join(out_dir, f"untraced-{args.workload}.json"), "w") as fh:
        json.dump(keep, fh)
    return _result(facts, metrics, correct)


def traced(args, out_dir: str) -> dict:
    from spans import Tracer
    import layers

    # The untraced comparison runs first, in a fresh process of its own.
    argv = [sys.executable, os.path.abspath(__file__),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "0"]
    done = subprocess.run(argv, stdout=subprocess.PIPE, check=True,
                          timeout=170, cwd=ROOT)
    base = json.loads(done.stdout.decode().strip().splitlines()[-1])
    with open(os.path.join(out_dir, f"untraced-{args.workload}.json")) as fh:
        base_facts = json.load(fh)

    tracer = Tracer()
    facts = _measure(args.workload, args.seed, args.seconds, out_dir, tracer)
    if "trace_state" in facts:  # recorded in a live child
        tracer.merge_state(facts["trace_state"])
    else:
        tracer.write(os.path.join(out_dir, f"spans-{args.workload}.json"))
    untraced_region = facts["units"] / base["metrics"]["throughput_per_s"]["value"]
    traced_region = facts["units"] / facts["throughput"]
    facts["overhead_s"] = traced_region - untraced_region
    facts["overhead_frac"] = facts["overhead_s"] / untraced_region
    for name in ("accept_p50_ms", "accept_p99_ms", "accept_samples"):
        facts[name] = base_facts.get(name, 0)
    values = layers.per_layer(tracer, facts)
    units = {name: unit for name, unit, _better in PER_LAYER}
    metrics = {name: (values[name], units[name]) for name in units}
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value} {unit}")
    correct = base["correct"] and all(ok for _check, ok in facts["checks"])
    return _result(facts, metrics, correct)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[name for name, _why in WORKLOADS])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program to benchmark under {ROOT}/src",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    result = traced(args, out_dir) if args.trace else untraced(args, out_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
