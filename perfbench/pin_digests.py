"""Pin the reference ``store_digest`` of the ``bench`` deployment per seed.

The ``sim-bench`` and ``sim-sharded`` workloads compare the store they
produce against ``perfbench/digests.json``. A change that legitimately
alters the simulated traffic (a new workload epoch) re-pins with::

    python3 perfbench/pin_digests.py --seeds 0-31

Each seed is one full unsharded ``bench`` run (about 20 s and 0.5 GB).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")


def seed_range(text: str) -> list:
    """``"0-31"`` -> ``[0, ..., 31]``; ``"7"`` -> ``[7]``."""
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-31"))
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from repro.experiments.parallel import store_digest
    from repro.experiments.runner import run_simulation

    pinned = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS) as fh:
            pinned = json.load(fh)
    for seed in args.seeds:
        result = run_simulation("bench", seed)
        pinned[str(seed)] = store_digest(result.store)
        del result
        print(f"seed {seed}: {pinned[str(seed)]}", flush=True)
        with open(DIGESTS, "w") as fh:
            json.dump(dict(sorted(pinned.items(), key=lambda kv: int(kv[0]))),
                      fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
