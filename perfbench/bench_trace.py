"""Span tracing from outside the program.

``Tracer.install`` replaces public functions of hazardvlm with wrappers at
the name each caller looks up (``hazardvlm.training.adamw_step``, not only
``hazardvlm.optim.adamw_step``), because a caller that did ``from .optim
import adamw_step`` holds its own reference. Spans (name, start, end,
parent span, run id) are kept in memory while ``active`` is set and are
written out by ``write`` when the run ends, each with its self time.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter
from pathlib import Path

from bench_stats import self_times

import hazardvlm.cli as cli
import hazardvlm.data as data
import hazardvlm.model as model
import hazardvlm.tensor as tensor
import hazardvlm.training as training

# (owner, attribute, span name). The owner is where the caller finds it.
SPANNED = [
    (tensor, "backward", "tensor.backward"),
    (model.HazardModel, "__init__", "model.init"),
    (model.HazardModel, "encode_image", "model.encode_image"),
    (model.HazardModel, "encode_text", "model.encode_text"),
    (model.HazardModel, "project", "model.project"),
    (model.HazardModel, "fuse", "model.fuse"),
    (model.HazardModel, "decode_caption_teacher_forced", "model.decode_teacher_forced"),
    (model.HazardModel, "generate", "model.generate"),
    (training, "train", "training.train"),
    (training, "evaluate", "training.evaluate"),
    (training, "sample_losses", "training.sample_losses"),
    (training, "accumulate_gradients", "training.accumulate_gradients"),
    (training, "soft_argmax", "localization.soft_argmax"),
    (training, "hard_argmax", "localization.hard_argmax"),
    (training, "grid_to_pixel", "localization.grid_to_pixel"),
    (training, "pixel_to_grid", "localization.pixel_to_grid"),
    (training, "coord_loss", "objective.coord_loss"),
    (training, "total_loss", "objective.total_loss"),
    (training, "adamw_step", "optim.adamw_step"),
    (training, "clip_grad_norm", "optim.clip_grad_norm"),
    (training, "corpus_report", "metrics.corpus_report"),
    (cli, "main", "cli.main"),
    (cli, "hard_argmax", "localization.hard_argmax"),
    (cli, "grid_to_pixel", "localization.grid_to_pixel"),
    (cli, "load_checkpoint", "training.load_checkpoint"),
    (cli, "apply_checkpoint", "training.apply_checkpoint"),
]


class Tracer:
    """In-memory span recorder; single-threaded like the program it wraps."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.active = False
        # [name, start, end, parent index]; index in this list is the span id
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, name: str, fn, on_call=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(*args, **kwargs)
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append([name, time.perf_counter(), None, parent])
            self._stack.append(sid)
            self._open[name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans[sid][2] = time.perf_counter()
                self._stack.pop()
                self._open[name] -= 1

        return wrapper

    def _counter(self, fn, on_call):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                on_call(*args, **kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    # -- count hooks -----------------------------------------------------------

    def _on_take_rows(self, table, indices):
        # each decoder pass inside generate gathers one embedding row per
        # position it recomputes
        if self._open["model.generate"]:
            self.counts["decode_steps"] += 1
            self.counts["decode_positions"] += len(indices)

    def _on_effective_weight(self, w, adapter):
        self.counts["adapter_products"] += 1

    def _on_adamw_step(self, params, grads, state, lr):
        self.counts["trainable_params"] = sum(p.size for p in params.values())

    def _on_load_checkpoint(self, path):
        self.counts["checkpoint_bytes"] = os.path.getsize(path)

    # -- install / remove ------------------------------------------------------

    def install(self) -> None:
        hooks = {
            (training, "adamw_step"): self._on_adamw_step,
            (cli, "load_checkpoint"): self._on_load_checkpoint,
        }
        for owner, attr, name in SPANNED:
            fn = owner.__dict__[attr]
            self._patch(owner, attr, self._wrap(name, fn, hooks.get((owner, attr))))
        self._patch(tensor, "take_rows", self._counter(tensor.take_rows, self._on_take_rows))
        self._patch(
            model, "effective_weight", self._counter(model.effective_weight, self._on_effective_weight)
        )
        load = data.Vocabulary.__dict__["load"].__func__
        self._patch(data.Vocabulary, "load", classmethod(self._wrap("data.vocab_load", load)))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def finished(self) -> list[tuple[int, str, float, float, int | None]]:
        return [(i, s[0], s[1], s[2], s[3]) for i, s in enumerate(self.spans) if s[2] is not None]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total inclusive ms and total self ms."""
        spans = self.finished()
        selfs = self_times((sid, start, end, parent) for sid, _, start, end, parent in spans)
        out: dict[str, dict[str, float]] = {}
        for sid, name, start, end, _parent in spans:
            entry = out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            entry["calls"] += 1
            entry["ms"] += 1000.0 * (end - start)
            entry["self_ms"] += 1000.0 * selfs[sid]
        return out

    def write(self, path: Path) -> None:
        spans = self.finished()
        selfs = self_times((sid, start, end, parent) for sid, _, start, end, parent in spans)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent in spans:
                record = {
                    "id": sid,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "run": self.run_id,
                    "self_s": selfs[sid],
                }
                fh.write(json.dumps(record) + "\n")


TAPE_OPS = ("matmul", "slice_axis", "add", "scale", "reshape", "softmax", "permute", "concat")


def _ratio(num: float, den: float) -> float:
    # a layer the workload never reaches reads 0
    return num / den if den else 0.0


def per_layer_values(tracer: Tracer, tape_nodes: Counter, tape_samples: int) -> dict[str, float]:
    """Every per-layer metric from a traced run's spans and counts, plus the
    op counts of the probe tape recorded around ``training.sample_losses``
    on ``tape_samples`` samples (0 when the workload builds no tape)."""
    s = tracer.summary()
    c = tracer.counts

    def calls(name):
        return s.get(name, {}).get("calls", 0)

    def ms(name):
        return s.get(name, {}).get("ms", 0.0)

    def mean_ms(name):
        return _ratio(ms(name), calls(name))

    scenes = calls("model.encode_image")
    trained = calls("training.sample_losses")
    values = {
        "tensor.tape_nodes_per_sample": _ratio(sum(tape_nodes.values()), tape_samples),
        **{f"tensor.tape_nodes.{op}": _ratio(tape_nodes[op], tape_samples) for op in TAPE_OPS},
        "tensor.backward_ms_per_sample": _ratio(ms("tensor.backward"), trained),
        "model.encode_image_ms": mean_ms("model.encode_image"),
        "model.decode_teacher_forced_ms": mean_ms("model.decode_teacher_forced"),
        "model.encode_text_ms": mean_ms("model.encode_text"),
        "model.prompt_encodes_per_sample": _ratio(calls("model.encode_text"), scenes),
        "model.generate_ms_per_token": _ratio(ms("model.generate"), c["decode_steps"]),
        "model.decode_positions_per_step": _ratio(c["decode_positions"], c["decode_steps"]),
        "model.generate_tokens_per_sample": _ratio(c["decode_steps"], calls("model.generate")),
        "model.adapter_products_per_sample": _ratio(c["adapter_products"], scenes),
        "model.init_ms": mean_ms("model.init"),
        "localization.ms_per_sample": _ratio(
            sum(ms(n) for n in s if n.startswith("localization.")), scenes
        ),
        "objective.loss_ms_per_sample": _ratio(
            ms("objective.coord_loss") + ms("objective.total_loss"), trained
        ),
        "optim.adamw_step_ms": mean_ms("optim.adamw_step"),
        "optim.clip_grad_norm_ms": mean_ms("optim.clip_grad_norm"),
        "optim.trainable_params": c["trainable_params"],
        "training.sample_losses_self_ms": _ratio(
            s.get("training.sample_losses", {}).get("self_ms", 0.0), trained
        ),
        "training.accumulate_gradients_ms": mean_ms("training.accumulate_gradients"),
        "training.load_checkpoint_ms": mean_ms("training.load_checkpoint"),
        "training.apply_checkpoint_ms": mean_ms("training.apply_checkpoint"),
        "training.checkpoint_bytes": c["checkpoint_bytes"],
        "metrics.corpus_report_ms": mean_ms("metrics.corpus_report"),
        "data.vocab_load_ms": mean_ms("data.vocab_load"),
        "cli.self_ms_per_call": _ratio(s.get("cli.main", {}).get("self_ms", 0.0), calls("cli.main")),
    }
    return values
