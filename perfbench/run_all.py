"""Run every workload, each in a fresh process, and print one table.

    python3 perfbench/run_all.py --seed 1 [--trace 1]

Each run lasts ``run_seconds`` from ``BENCHMARK.json``.  Untraced, the table has the six end-to-end metrics of each workload: the
five that ``BENCHMARK.json`` bounds plus ``failed_share`` (failed ÷
requested parameters), which the runner reports through its ``failed`` and
``attempted`` fields because it is 0 when all is well.  Exit code 1 when any
workload fails.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    status = 0
    for workload in corpus.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
               str(args.seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            status = 1
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            if not lines:
                continue
        result = json.loads(lines[-1])
        report = json.loads((HERE.parent / ".bench_out" /
                             f"report-{workload}-seed{args.seed}-trace{args.trace}.json").read_text())
        print(f"{workload}: passes={report['passes']} requests/pass={report['requests_per_pass']}"
              f" correct={result['correct']}")
        if not args.trace:
            lat = report["latency"]
            print(f"  {'failed_share':32s} {result['failed'] / result['attempted']:14.6g} share"
                  f"  ({result['failed']}/{result['attempted']} parameters)")
            print(f"  (tail = p{lat['tail_percentile']} of {lat['samples']} requests,"
                  f" {lat['tail_requests_beyond']} beyond it)")
        for name, m in result["metrics"].items():
            print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
