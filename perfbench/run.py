"""Walk-forward backtest benchmark: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a fundcast checkout. Prints the environment, each
metric with its unit, the report SHA-256 and the output checks, then, as
the last line, one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer ones with
--trace 1. Exits 0 only when every check passed. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(harness.ROOT, "src", "fundcast", "cli.py")):
        print(f"perfbench: no fundcast sources under {harness.ROOT}/src",
              file=sys.stderr)
        return 2

    env = harness.child_env()
    print("env " + json.dumps(harness.environment(env), sort_keys=True))
    outcome = harness.measure(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    for line in outcome.lines:
        print(line)
    for name, metric in outcome.metrics.items():
        print(f"{name:<44} {metric['value']:>16.6f} {metric['unit']}")
    print(json.dumps({"correct": outcome.correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": outcome.metrics}))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
