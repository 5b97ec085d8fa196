#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each metric's quartiles.

Usage, from the root of the repository:

    python3 perfbench/quartiles.py <workload> <first-seed> <count> [trace]

Each run is the command of BENCHMARK.json with `--seconds run_seconds`.
Prints one JSON object: per metric, the median, the first and third
quartiles (Python's `statistics.quantiles(values, n=4)`), and the spread
(q3 - q1) / median; plus the count of runs whose result was not correct.
"""

import json
import statistics
import subprocess
import sys


def main() -> int:
    if len(sys.argv) not in (4, 5):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    workload, first, count = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    trace = sys.argv[4] if len(sys.argv) == 5 else "0"
    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    incorrect = 0
    for seed in range(first, first + count):
        cmd = bench["command"] + [
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]),
            "--trace", trace,
        ]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        incorrect += not result["correct"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: {json.dumps(result['metrics'])}", file=sys.stderr)
    summary = {}
    for name, xs in values.items():
        q1, _, q3 = statistics.quantiles(xs, n=4)
        summary[name] = {
            "unit": units[name],
            "median": statistics.median(xs),
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / statistics.median(xs) if statistics.median(xs) else None,
        }
    print(json.dumps({"workload": workload, "runs": count, "incorrect": incorrect,
                      "metrics": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
