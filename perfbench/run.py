"""The repository's end-to-end benchmark (see ``BENCHMARK.json``).

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload offline-skewed --seed 1 --seconds 45 --trace 0

Workloads: ``offline-skewed`` (library build + queries in-process) and
``online-routed`` (``repro serve`` with two shard worker processes under
open-loop HTTP traffic) are in ``BENCHMARK.json``; ``online-mmap`` (the
same server without shard workers) runs by hand for comparison.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  Earlier stdout lines carry a
``perfbench-report`` JSON record (environment, sample counts, work
counters); the last line is the result object.

The program is run from ``src/`` of the checkout.  Without it the
benchmark exits with status 2 and prints no result.  A failed correctness
check prints ``"correct": false`` without metrics and exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("offline-skewed", "online-mmap", "online-routed")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import common, offline, online

    try:
        if args.workload == "offline-skewed":
            report, result = offline.run(args.seed, args.seconds, bool(args.trace))
        else:
            report, result = online.run(args.workload, args.seed, args.seconds, bool(args.trace))
    except common.CheckFailed as error:
        print(f"perfbench: correctness check failed: {error}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    section = "per_layer" if args.trace else "end_to_end"
    expected = set(common.contract_units(section))
    missing = expected - set(result["metrics"])
    extra = set(result["metrics"]) - expected
    if missing or extra:
        print(f"perfbench: metrics do not match BENCHMARK.json: missing {sorted(missing)}, "
              f"unexpected {sorted(extra)}", file=sys.stderr)
        return 1
    common.emit(report, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
