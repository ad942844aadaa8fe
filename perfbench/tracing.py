"""Span tracing installed from outside the program, and the per-layer report.

``Tracer.install()`` replaces public functions and methods of ``wordlm`` with
wrappers that record a span (name, start, end, parent, trace id) around each
call and add counters at the same boundary. Nothing under ``src/`` changes;
``restore()`` puts the originals back. Spans stay in memory until the run ends.
A span's layer is its name's prefix; its self time is its duration minus the
durations of its direct children (calls nest, so children never overlap).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np

from wordlm import checkpoint, evaluation, kernels, optim, sampling, tensor, training, vocab
from wordlm.model import WordBertModel

LAYERS = (
    "vocab", "training", "sampling", "model", "tensor", "kernels", "optim", "evaluation",
    "checkpoint",
)
KERNELS = (
    "gelu_erf_fwd", "gelu_erf_bwd", "layer_norm_fwd", "layer_norm_bwd", "softmax_rows",
    "softmax_rows_bwd", "cross_entropy_rows_fwd", "cross_entropy_rows_bwd", "adam_update",
    "scatter_add_rows", "scatter_add_vec",
)
PHASES = ("setup", "step", "eval")


def _kernel_bytes(name, args, result):
    """Bytes a kernel call reads and writes, from its array arguments."""
    if name == "adam_update":  # reads param, grad, m, v; writes param, m, v
        return 7 * args[0].nbytes
    if name.startswith("scatter_add"):  # reads ids and values; reads and writes touched rows
        return args[1].nbytes + 3 * args[2].nbytes
    outs = result if isinstance(result, tuple) else (result,)
    return sum(a.nbytes for a in (*args, *outs) if isinstance(a, np.ndarray))


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, trace id]
        self.counters = defaultdict(float)  # (trace id, name) -> total
        self.trace_id = "setup"
        self.grad_params = None  # model parameters whose grads tensor.grad_bytes sums
        self._stack = []
        self._root = None
        self._seen_queries = set()
        self._originals = []

    # -- spans ---------------------------------------------------------------

    def open(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1,
                           self.trace_id])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name, value):
        self.counters[(self.trace_id, name)] += value

    # -- training-step roots: one "training.step" span per step -----------------

    def begin_training(self):
        self.trace_id = 0
        self._root = self.open("training.step")

    def step_done(self):
        """Called as the optimizer step returns: close this step, open the next."""
        self.close(self._root)
        self.trace_id += 1
        self._root = self.open("training.step")

    def end_training(self):
        """Close the root opened after the last step; it belongs to no step."""
        self.close(self._root)
        self.spans[self._root][4] = "after-training"
        self._root = None
        self.grad_params = None

    # -- installation ----------------------------------------------------------

    def _wrap(self, owner, attr, name, after=None):
        fn = getattr(owner, attr)
        self._originals.append((owner, attr, owner.__dict__[attr]))
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, traced)

    def install(self):
        w = self._wrap
        w(vocab, "count_frequencies", "vocab.count_frequencies")
        w(vocab, "build_vocabulary", "vocab.build_vocabulary")
        w(training, "prepare_corpus", "training.prepare_corpus")
        w(training, "apply_masking", "training.apply_masking",
          lambda a, r: self.count("targets", r.num_targets))
        w(training, "mlm_loss", "training.mlm_loss")
        w(training, "sample_batch_vocab", "sampling.sample_batch_vocab",
          lambda a, r: self.count("bv_rows", len(r)))
        w(sampling.NeighborIndex, "__init__", "sampling.neighbor_index_build")
        w(sampling.NeighborIndex, "neighbors_of_many", "sampling.neighbors", self._count_queries)
        w(WordBertModel, "__init__", "model.init")
        w(WordBertModel, "encode_batch", "model.encode_batch")
        w(WordBertModel, "mlm_logits", "model.mlm_logits")
        w(WordBertModel, "full_vocab_logits", "model.full_vocab_logits")
        w(tensor.Tensor, "backward", "tensor.backward", self._count_grads)
        w(tensor, "matmul", "tensor.matmul", lambda a, r: self.count("matmul_calls", 1))
        w(tensor, "transpose", "tensor.transpose",
          lambda a, r: self.count("transpose_bytes", r.data.nbytes))
        for k in KERNELS:
            w(kernels, k, "kernels." + k, self._kernel_counter(k))
        w(optim.Adam, "__init__", "optim.init")
        w(optim.Adam, "step", "optim.step", self._count_adam)
        w(evaluation, "probe_topk", "evaluation.probe_topk")
        w(evaluation, "cloze_accuracy", "evaluation.cloze_accuracy")
        w(evaluation, "score_cloze", "evaluation.score_cloze")
        w(checkpoint, "save_checkpoint", "checkpoint.save")
        w(checkpoint, "load_checkpoint", "checkpoint.load")

    def restore(self):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    # -- counters ------------------------------------------------------------------

    def _kernel_counter(self, name):
        def after(args, result):
            self.count(f"{name}_calls", 1)
            self.count(f"{name}_bytes", _kernel_bytes(name, args, result))

        return after

    def _count_queries(self, args, result):
        queried = np.unique(np.asarray(args[1], dtype=np.int64)).tolist()
        repeats = sum(1 for q in queried if q in self._seen_queries)
        self._seen_queries.update(queried)
        self.count("neighbor_queries", len(queried))
        self.count("neighbor_repeats", repeats)

    def _count_grads(self, args, result):
        if self.grad_params is not None:
            self.count("grad_bytes", sum(p.grad.nbytes for p in self.grad_params.values()
                                         if p.grad is not None))

    def _count_adam(self, args, result):
        opt = args[0]
        self.count("floats_updated", sum(p.data.size for p in opt.params.values()
                                         if p.grad is not None))
        table = opt.params.get("embedding.word")
        if table is not None and table.grad is not None:
            self.count("rows_with_grad", int(np.count_nonzero(table.grad.any(axis=1))))
            self.count("rows_updated", table.grad.shape[0])


def phase_of(trace_id):
    if trace_id in ("setup", 0):
        return "setup"
    if isinstance(trace_id, int):
        return "step"
    return trace_id.split("-")[0]  # "eval-probe" -> "eval", "checkpoint" -> "checkpoint"


def per_layer_metrics(tracer, timed_steps, probe_examples, cloze_items, checkpoint_bytes,
                      traced_p50_ms, untraced_p50_ms):
    """Every per-layer metric of BENCHMARK.json from one traced pipeline run.

    Step metrics are means over the timed steps (step 0 is set-up), eval
    metrics are per evaluated item, set-up and checkpoint metrics are totals.
    """
    spans = tracer.spans
    child_ms = defaultdict(float)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_ms[parent] += (end - start) * 1e3
    total = defaultdict(float)  # (phase, name) -> ms
    self_ms = defaultdict(float)  # (phase, layer) -> ms
    for i, (name, start, end, _, tid) in enumerate(spans):
        phase = phase_of(tid)
        dur = (end - start) * 1e3
        total[(phase, name)] += dur
        self_ms[(phase, name.split(".")[0])] += dur - child_ms[i]
        if name == "sampling.sample_batch_vocab":
            total[(phase, "sampling.sample_batch_vocab.self")] += dur - child_ms[i]
        if name == "evaluation.probe_topk":
            total[(phase, "evaluation.probe_topk.self")] += dur - child_ms[i]

    n_steps = max(timed_steps, 1)

    def per_step_count(name):
        return sum(tracer.counters[(s, name)] for s in range(1, timed_steps + 1)) / n_steps

    def per_step_ms(name):
        return total[("step", name)] / n_steps

    items = max(probe_examples + cloze_items, 1)
    queries = per_step_count("neighbor_queries")
    rows_updated = per_step_count("rows_updated")
    m = {
        "vocab.build_ms": total[("setup", "vocab.count_frequencies")]
        + total[("setup", "vocab.build_vocabulary")],
        "training.prepare_corpus_ms": total[("setup", "training.prepare_corpus")],
        "training.first_step_ms": total[("setup", "training.step")]
        - total[("setup", "training.prepare_corpus")],
        "model.init_ms": total[("setup", "model.init")],
        "optim.init_ms": total[("setup", "optim.init")],
        "sampling.neighbor_index_build_ms": total[("setup", "sampling.neighbor_index_build")],
        "training.apply_masking_ms": per_step_ms("training.apply_masking"),
        "training.targets_per_step": per_step_count("targets"),
        "training.mlm_loss_ms": per_step_ms("training.mlm_loss"),
        "sampling.sample_batch_vocab_ms": per_step_ms("sampling.sample_batch_vocab.self"),
        "sampling.batch_vocab_rows": per_step_count("bv_rows"),
        "sampling.neighbors_ms": per_step_ms("sampling.neighbors"),
        "sampling.neighbor_queries": queries,
        "sampling.neighbor_repeat_ratio": per_step_count("neighbor_repeats") / queries if queries else 0.0,
        "model.encode_batch_ms": per_step_ms("model.encode_batch"),
        "model.mlm_logits_ms": per_step_ms("model.mlm_logits"),
        "model.full_vocab_logits_ms": total[("eval", "model.full_vocab_logits")] / items,
        "evaluation.rank_self_ms": total[("eval", "evaluation.probe_topk.self")] / max(probe_examples, 1),
        "tensor.backward_ms": per_step_ms("tensor.backward"),
        "tensor.matmul_ms": per_step_ms("tensor.matmul"),
        "tensor.matmul_calls": per_step_count("matmul_calls"),
        "tensor.transpose_bytes": per_step_count("transpose_bytes"),
        "tensor.grad_bytes": per_step_count("grad_bytes"),
        "optim.adam_step_ms": per_step_ms("optim.step"),
        "optim.floats_updated": per_step_count("floats_updated"),
        "optim.rows_with_grad_ratio": per_step_count("rows_with_grad") / rows_updated if rows_updated else 0.0,
        "checkpoint.save_ms": total[("checkpoint", "checkpoint.save")],
        "checkpoint.load_ms": total[("checkpoint", "checkpoint.load")],
        "checkpoint.bytes": float(checkpoint_bytes),
    }
    for k in KERNELS:
        m[f"kernels.{k}_ms"] = per_step_ms("kernels." + k)
        m[f"kernels.{k}_calls"] = per_step_count(f"{k}_calls")
        m[f"kernels.{k}_bytes"] = per_step_count(f"{k}_bytes")
    norm = {"setup": 1.0, "step": n_steps, "eval": items}
    for phase in PHASES:
        for layer in LAYERS:
            m[f"{phase}.{layer}_self_ms"] = self_ms[(phase, layer)] / norm[phase]
    m["trace.step_ms_p50"] = traced_p50_ms
    m["trace.untraced_step_ms_p50"] = untraced_p50_ms
    m["trace.overhead_ms"] = traced_p50_ms - untraced_p50_ms
    return m


def dump(tracer, path, summary):
    """Write spans, counters and the summary as one JSON document."""
    doc = {
        "spans": [
            {"name": n, "start": s, "end": e, "parent": p, "trace_id": t}
            for n, s, e, p, t in tracer.spans
        ],
        "counters": [{"trace_id": t, "name": n, "value": v} for (t, n), v in tracer.counters.items()],
        "summary": summary,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
