"""Quick self-test of the benchmark: every workload at toy size.

    python3 bench/selftest.py

Runs ``bench/run.py --size toy`` untraced and traced on each workload in
BENCHMARK.json and checks that the last output line is the result object
with every metric BENCHMARK.json names, in its unit, that all checks
passed and that no operation failed.  Takes about a minute.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            argv = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
                    workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
                    "--size", "toy"]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} attempted="
                                f"{result['attempted']} failed={result['failed']}")
            for metric in spec[key]:
                got = result["metrics"].get(metric["name"])
                if got is None or got.get("unit") != metric["unit"] or not isinstance(
                        got.get("value"), (int, float)):
                    problems.append(f"{label}: {metric['name']} printed as {got}")
            print(f"{label}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} operations", flush=True)
    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
