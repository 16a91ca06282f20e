#!/usr/bin/env python3
"""Markdown tables for the README from the runs ``spread.py`` logged.

    python3 perfbench/report.py [perfbench/out/runs.jsonl]

Prints, per workload, each end-to-end metric's median and quartiles for
every label (a set of untraced runs) and the change of each later set's
median against the first, the per-layer metrics of the traced runs, the
tracing overhead, and the worst value each output check saw. Runs labelled
``T`` are traced runs and the untraced runs interleaved with them, which
give the overhead and no end-to-end row.
"""

import json
import sys
from collections import defaultdict
from pathlib import Path

from bench_stats import median, quartiles, relative_spread

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    path = Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT / "perfbench" / "out" / "runs.jsonl"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]
    sets: dict[str, dict[str, list[dict]]] = defaultdict(lambda: defaultdict(list))
    traced: dict[str, list[dict]] = defaultdict(list)
    paired: dict[str, list[dict]] = defaultdict(list)
    for r in runs:
        workload = r["detail"]["workload"]
        if r["detail"]["trace"]:
            traced[workload].append(r)
        elif r["label"] == "T":
            paired[workload].append(r)
        else:
            sets[workload][r["label"]].append(r)
    workloads = [w["name"] for w in spec["workloads"]]

    print("### End to end\n")
    for workload in workloads:
        labels = list(sets[workload])
        if not labels:
            continue
        print(f"**{workload}**\n")
        head = " | ".join(f"set {lb}: median [q1, q3] (spread)" for lb in labels)
        print(f"| metric | {head} | " + " | ".join(f"{lb} vs {labels[0]}" for lb in labels[1:]) + " | bound |")
        print("|---" * (2 + 2 * len(labels) - 1) + "|")
        for m in spec["end_to_end"]:
            cells, medians = [], []
            for lb in labels:
                vals = [r["metrics"][m["name"]]["value"] for r in sets[workload][lb]]
                q1, q2, q3 = quartiles(vals)
                medians.append(q2)
                cells.append(f"{q2:.4g} [{q1:.4g}, {q3:.4g}] ({relative_spread(vals):.1%}, n={len(vals)})")
            changes = [f"{(x - medians[0]) / medians[0]:+.1%}" for x in medians[1:]]
            print(f"| {m['name']} ({m['unit']}, {m['better']}) | " + " | ".join(cells + changes) + f" | {m['bound']} |")
        shares = {r["failed"] / r["attempted"] for lb in labels for r in sets[workload][lb]}
        print(f"\nfailed share of operations in every run: {sorted(shares)}\n")

    print("### Per layer (traced runs)\n")
    print("| metric | unit | " + " | ".join(workloads) + " |")
    print("|---" * (2 + len(workloads)) + "|")
    for m in spec["per_layer"]:
        cells = []
        for workload in workloads:
            vals = [r["metrics"][m["name"]]["value"] for r in traced[workload]]
            value = median(vals) if vals else None
            cells.append("-" if value is None else f"{int(value)}" if value == int(value) else f"{value:.4g}")
        print(f"| {m['name']} | {m['unit']} | " + " | ".join(cells) + " |")

    print("\n### Tracing overhead\n")
    print("| workload | untraced samples/s | traced samples/s | overhead | runs each |")
    print("|---|---|---|---|---|")
    for workload in workloads:
        if not traced[workload] or not paired[workload]:
            continue
        plain = median([r["detail"]["samples_per_s"] for r in paired[workload]])
        with_trace = median([r["detail"]["samples_per_s"] for r in traced[workload]])
        print(f"| {workload} | {plain:.4g} | {with_trace:.4g} | {plain / with_trace - 1:+.1%} | {len(traced[workload])} |")

    print("\n### Check margins (all untraced runs)\n")
    details = [r["detail"] for w in workloads for rs in sets[w].values() for r in rs]
    for workload in ("pretrain", "finetune_lora"):
        ratios = [d["loss_ratio"] for d in details if d["workload"] == workload]
        if ratios:
            print(f"- {workload}: last/first epoch loss ratio worst {max(ratios):.3f}, best {min(ratios):.3f}")
    errs = [d["grad_rel_err"] for d in details if "grad_rel_err" in d]
    if errs:
        print(f"- pretrain: gradient check relative error worst {max(errs):.2e}")
    gains = [d["hits"][0] - d["hits"][1] for d in details if "hits" in d]
    if gains:
        print(f"- eval_greedy: hit-rate gain over the untrained model worst {min(gains):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
