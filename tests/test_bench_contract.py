"""The benchmark's use of the program's API. The tracer patches functions
at the names each caller looks them up by; installing and removing it must
leave every name as it was. The workloads' set-up saves, loads and applies
checkpoints through the library; one round of each must pass its checks,
and a traced round must give every per-layer metric the benchmark names."""

import json
import math
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_install_then_uninstall_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import bench_trace

    from hazardvlm import data, model, tensor

    names = [(owner, attr) for owner, attr, _ in bench_trace.SPANNED]
    names += [(tensor, "take_rows"), (model, "effective_weight"), (data.Vocabulary, "load")]
    before = [owner.__dict__[attr] for owner, attr in names]

    tracer = bench_trace.Tracer("t")
    tracer.install()
    try:
        patched = [owner.__dict__[attr] for owner, attr in names]
    finally:
        tracer.uninstall()

    assert all(p is not b for p, b in zip(patched, before))
    after = [owner.__dict__[attr] for owner, attr in names]
    assert all(a is b for a, b in zip(after, before))
    sys.modules.pop("bench_trace", None)


@pytest.mark.parametrize("name", ["pretrain", "finetune_lora", "eval_greedy", "predict_cli"])
def test_one_benchmark_round_passes_its_checks(tmp_path, monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import bench_workloads as bw

    workload = bw.WORKLOADS[name]()
    workload.setup(tmp_path, 1)
    r = workload.run_round(bw.Stopwatch())
    assert r.fails + workload.check([r]) == []
    assert r.failed == 0


def test_a_traced_round_gives_every_per_layer_metric(tmp_path, monkeypatch):
    # the tracer's hooks take the arguments of the functions they wrap, so a
    # changed signature fails here, not only in a --trace 1 run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import bench_trace
    import bench_workloads as bw

    workload = bw.WORKLOADS["pretrain"]()
    workload.setup(tmp_path, 1)
    tracer = bench_trace.Tracer("t")
    tracer.install()
    try:
        r = workload.run_round(bw.Stopwatch(tracer))
    finally:
        tracer.uninstall()
    assert r.fails == [] and r.failed == 0
    values = bench_trace.per_layer_values(tracer, *workload.tape_nodes())
    spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    for metric in spec["per_layer"]:
        assert math.isfinite(values[metric["name"]]), metric["name"]
    sys.modules.pop("bench_trace", None)
