#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--seconds 12] [--trace 0] [--label A]

Runs one process per seed, one after another, from the checkout root, and
prints per metric the median, the quartiles and the interquartile spread as
a share of the median, plus the failed share of operations per run. Each
run's result line, with the run's detail line from standard error and the
label, is appended to ``perfbench/out/runs.jsonl`` for ``report.py``.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from bench_stats import quartiles, relative_spread

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default="")
    args = parser.parse_args()

    log = ROOT / "perfbench" / "out" / "runs.jsonl"
    log.parent.mkdir(parents=True, exist_ok=True)
    values: dict[str, list[float]] = {}
    failed_shares = []
    for seed in args.seeds:
        cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        detail = json.loads(proc.stderr.strip().splitlines()[-1])
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({**result, "label": args.label, "detail": detail}) + "\n")
        if not result["correct"]:
            print(f"seed {seed}: checks failed\n{proc.stderr}", file=sys.stderr)
        failed_shares.append(result["failed"] / result["attempted"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"{args.workload}: {len(args.seeds)} runs, failed shares {sorted(set(failed_shares))}")
    for name, vals in values.items():
        if len(vals) < 2:
            print(f"  {name:36s} {vals[0]:12.6g}")
            continue
        q1, q2, q3 = quartiles(vals)
        spread = relative_spread(vals) if q2 else 0.0
        print(f"  {name:36s} median {q2:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:7.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
