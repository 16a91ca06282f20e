#!/usr/bin/env python3
"""One benchmark run of hazardvlm.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/``. Set-up builds the workload's inputs at least three times and reports
the median as ``setup_s``. The measured phase repeats whole rounds until
``--seconds`` have passed, then the program's outputs are checked. The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1`` (spans go to
``perfbench/out/``). Details go to standard error.
"""

import os

# Pin the BLAS pool before numpy loads: one thread, at most nproc, and the
# matrices here are 32-wide, so more threads would only add contention.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
# Set-up runs at least SETUP_REPEATS times and for SETUP_MIN_S seconds, so a
# set-up of a few milliseconds still gives a steady median.
SETUP_REPEATS, SETUP_MIN_S = 3, 1.0

TAIL = 90  # the reported tail percentile; runs go on until ten samples lie beyond it


def import_program():
    src = ROOT / "src"
    if not (src / "hazardvlm" / "__init__.py").is_file():
        sys.exit(f"no hazardvlm sources under {src}; run from the root of a source checkout")
    sys.path.insert(0, str(src))
    import hazardvlm

    if Path(hazardvlm.__file__).resolve().parent != (src / "hazardvlm").resolve():
        sys.exit(f"imported {hazardvlm.__file__}, not the checkout's sources")


def measure(workload, seconds: float, tracer):
    """Whole rounds until ``seconds`` of wall time have passed and enough
    samples are timed for the tail percentile."""
    from bench_workloads import Stopwatch
    from bench_stats import tail_percentile

    rounds, failed_rounds = [], 0
    deadline = time.perf_counter() + seconds
    while True:
        clock = Stopwatch(tracer)
        try:
            r = workload.run_round(clock)
            r.laps = clock.laps
            rounds.append(r)
        except Exception:  # a failing round is counted, and the run goes on
            traceback.print_exc()
            failed_rounds += 1
        timed = sum(len(r.sample_s) for r in rounds)
        # with no round through, waiting for samples would never end
        if time.perf_counter() >= deadline and (not rounds or (tail_percentile(timed) or 0) >= TAIL):
            return rounds, failed_rounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    # metric names and units come from the benchmark's definition
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    import bench_stats as bs
    from bench_workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work = OUT / run_id

    try:
        setup_times = []
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            t0 = time.perf_counter()
            workload.setup(work, args.seed)
            setup_times.append(time.perf_counter() - t0)

        tracer = None
        if args.trace:
            from bench_trace import Tracer

            tracer = Tracer(run_id)
            tracer.install()
        rounds, failed_rounds = measure(workload, args.seconds, tracer)
        if tracer is not None:
            tracer.uninstall()
        if not rounds:
            sys.exit("every round failed")
        fails = [f for r in rounds for f in r.fails] + workload.check(rounds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    per_round = rounds[0].samples
    attempted = sum(r.samples for r in rounds) + failed_rounds * per_round
    failed = sum(r.failed for r in rounds) + failed_rounds * per_round
    sample_ms = [1000.0 * t for r in rounds for t in r.sample_s]
    rates = [r.samples / sum(r.laps) for r in rounds]
    # The shared processor has spells that run the same code up to a third
    # faster, for seconds at a time. Rates and the median come from the
    # slower quarter of rounds, so such spells move them only when they
    # cover more than three quarters of a run.
    e2e = {
        "setup_s": bs.median(setup_times),
        "samples_per_s": bs.inclusive_quartiles(rates)[0],
        "tokens_per_s": bs.inclusive_quartiles([r.tokens / sum(r.laps) for r in rounds])[0],
        "sample_ms_p50": bs.inclusive_quartiles([1000.0 * bs.median(r.sample_s) for r in rounds])[1],
        f"sample_ms_p{TAIL}": bs.percentile(sample_ms, TAIL),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(rounds),
        "timed_samples": len(sample_ms),
        "setup_s_each": setup_times,
        "round_samples_per_s": rates,
        "sample_ms_median_all": bs.median(sample_ms),
        **e2e,
        **{k: v for k, v in vars(workload).items() if k in ("grad_rel_err", "hits", "tokens", "loss_ratio")},
        "check_failures": fails,
    }
    print(json.dumps(detail), file=sys.stderr)

    if tracer is not None:
        from bench_trace import per_layer_values

        tape = workload.tape_nodes() if hasattr(workload, "tape_nodes") else (Counter(), 0)
        values = per_layer_values(tracer, *tape)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        wanted = spec["per_layer"]
    else:
        values, wanted = e2e, spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    result = {"correct": not fails, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
