"""Run a workload on several seeds and report each end-to-end metric's
median and quartile spread (``(q3 - q1) / median``), the steadiness test
the bounds in ``BENCHMARK.json`` are held to.

    python3 perfbench/spread.py --workload live-ingest --seeds 0-9

With ``sim-bench`` and ``sim-sharded`` both given, also prints the
measured shards=2 speedup. Each run's result and the figures it printed
are appended as JSON lines to ``.bench_out/spread.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from pin_digests import seed_range
from spec import END_TO_END, RUN_SECONDS, WORKLOADS
from stats import quartile_spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
            workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0"]
    done = subprocess.run(argv, stdout=subprocess.PIPE, check=True, cwd=ROOT,
                          timeout=180)
    return json.loads(done.stdout.decode().strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True,
                        choices=[name for name, _why in WORKLOADS])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    args = parser.parse_args(argv)
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    log = os.path.join(ROOT, ".bench_out", "spread.jsonl")
    medians, walls = {}, {}
    for workload in args.workload:
        values = {name: [] for name, _u, _b, _bound in END_TO_END}
        for seed in args.seeds:
            result = run_once(workload, seed, args.seconds)
            with open(os.path.join(ROOT, ".bench_out",
                                   f"untraced-{workload}.json")) as fh:
                named = {name: value for name, (value, _unit)
                         in json.load(fh)["named"].items()}
            with open(log, "a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed,
                                     "named": named, **result}) + "\n")
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: FAILED {result}")
                return 1
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            walls.setdefault(workload, []).append(named.get("wall_s"))
        for name, unit, _better, bound in END_TO_END:
            series = values[name]
            spread = quartile_spread(series)
            flag = "ok" if spread < bound / 3 else (
                "within bound" if spread <= bound else "TOO WIDE")
            print(f"{workload} {name}: median {statistics.median(series):.6g} "
                  f"{unit}, spread {spread:.4f} (bound {bound}) {flag}")
        medians[workload] = {n: statistics.median(v) for n, v in values.items()}
    if "sim-bench" in medians and "sim-sharded" in medians:
        clock = (medians["sim-sharded"]["throughput_per_s"]
                 / medians["sim-bench"]["throughput_per_s"])
        wall = (statistics.median(walls["sim-bench"])
                / statistics.median(walls["sim-sharded"]))
        print(f"measured shards=2 speedup: {clock:.3f}x on the clock "
              f"(median throughput_per_s), {wall:.3f}x on the wall "
              f"(median raw wall_s, set-up, merge and run_all included)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
