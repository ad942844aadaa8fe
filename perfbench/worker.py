"""One benchmark run of one workload; started by ``run.py`` in a fresh process.

The run drives wordlm only through its public entry points, in the order the
CLI uses them (build-vocab, pretrain, probe, eval-cloze):

1. set-up: ``count_frequencies`` + ``build_vocabulary``, ``WordBertModel``,
   ``NeighborIndex`` (neighbor workloads), ``Adam``, then ``train`` up to the
   end of its first step. Step boundaries come from wrapping ``step`` on the
   ``Adam`` instance handed to ``train``.
2. timed training: the remaining steps of the same ``train`` call.
3. ``save_checkpoint`` / ``load_checkpoint`` round trip, checked by checksum.
4. one ``probe_topk`` call over the probe set built with ``build_probe_set``,
   and one ``cloze_accuracy`` call over the cloze items, both on the loaded
   model and checked against a float64 oracle.

Untraced runs (``--trace 0``) set up three times and report the end-to-end
metrics. Traced runs (``--trace 1``) first train a few steps untraced as the
reference for losses and step time, then repeat the pipeline with spans on
and report the per-layer metrics. The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import numpy as np

import wordlm
from wordlm import checkpoint, evaluation, kernels, training
from wordlm import vocab as vocab_mod
from wordlm.model import ModelConfig, WordBertModel
from wordlm.optim import Adam
from wordlm.sampling import NeighborIndex
from wordlm.seeding import substream

import oracle
import tracing
from workloads import WORKLOADS, bucket_thresholds, make_inputs, tiny

SETUP_REPEATS = 3  # untraced runs report the median set-up time of this many
REFERENCE_STEPS = 6  # untraced steps a traced run compares its losses against
PROBE_KS = (1, 5, 10)
# Identical evaluation rounds; the *_per_s metrics use the fastest. Shared CPUs
# run in fast and slow phases lasting seconds, and a round of a few seconds
# lands in one or the other; the fastest round varies least between runs.
EVAL_REPEATS = 5
TAIL_ABOVE = 10  # step_ms_tail is the highest step time with this many samples above it


def train_config(w, seed, steps):
    return training.TrainConfig(
        peak_lr=1e-3, warmup_steps=10, total_steps=max(steps + 1, 1_000), batch_size=w.batch,
        seed=seed, sample_size=w.sample_size, max_length=w.length,
    )


class Pipeline:
    """State of one pass through set-up and training."""

    def __init__(self, w, inputs, seed, tracer=None):
        self.w, self.inputs, self.seed, self.tracer = w, inputs, seed, tracer
        self.step_ends = []
        self.tokens = []  # non-pad input tokens per step
        self.records = []
        self.error = None

    def run(self, steps):
        """Set up and train ``steps`` steps; the first one ends the set-up."""
        w, tr = self.w, self.tracer
        t0 = time.perf_counter()
        self.counts = vocab_mod.count_frequencies(self.inputs.corpus)
        self.vocab = vocab_mod.build_vocabulary(self.counts, k=w.words)
        cfg = ModelConfig(
            vocab_size=self.vocab.size, num_layers=w.layers, num_heads=w.heads, hidden=w.hidden,
            embed_dim=w.vector_dim if w.variant == "projected" else w.hidden,
            max_positions=w.length, variant=w.variant,
            freeze_embeddings=w.variant == "projected", dropout=0.1,
        )
        vectors = {"word_vectors": self.inputs.vectors} if w.variant == "projected" else {}
        self.model = WordBertModel(cfg, seed=self.seed, **vectors)
        index = NeighborIndex(self.model.params["embedding.word"].data) if w.neighbors else None
        self.optimizer = Adam(self.model.trainable_parameters())
        self._hook()
        if tr is not None:
            tr.grad_params = self.model.params
            tr.begin_training()
        try:
            self.records, _ = training.train(
                self.inputs.corpus, self.vocab, self.model, train_config(w, self.seed, steps),
                neighbor_index=index, optimizer=self.optimizer, num_steps=steps,
            )
        except Exception as err:  # a raising step is a failed operation, reported below
            self.error = f"{type(err).__name__}: {err}"
        finally:
            if tr is not None:
                tr.end_training()
        self.setup_s = self.step_ends[0] - t0 if self.step_ends else math.nan

    def _hook(self):
        """Step clock on the Adam instance; token count on the model instance."""
        step, encode_batch, tr = self.optimizer.step, self.model.encode_batch, self.tracer
        ends, tokens = self.step_ends, self.tokens

        def clocked_step(lr):
            step(lr)
            ends.append(time.perf_counter())
            if tr is not None:
                tr.step_done()

        def counted_encode(input_ids, attention_masks, *args, **kwargs):
            while len(tokens) <= len(ends):
                tokens.append(0)
            tokens[len(ends)] += int(np.count_nonzero(attention_masks))
            return encode_batch(input_ids, attention_masks, *args, **kwargs)

        self.optimizer.step = clocked_step
        self.model.encode_batch = counted_encode

    def release(self):
        """Free the model and optimizer; the hooks tie them into reference cycles."""
        del self.model, self.optimizer
        gc.collect()

    def step_ms(self):
        """Wall time of every step after the first, in ms."""
        return [(b - a) * 1e3 for a, b in zip(self.step_ends, self.step_ends[1:])]

    def losses(self):
        return [r.loss for r in self.records]


def tail(samples):
    """Highest order statistic with TAIL_ABOVE samples above it, and its percentile."""
    ordered = sorted(samples)
    i = len(ordered) - TAIL_ABOVE - 1
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def run_eval(w, vocab, counts, model, inputs, seed, tracer):
    """``EVAL_REPEATS`` rounds of one probe_topk call over the whole probe set and
    one cloze_accuracy call over all cloze items, as ``wordlm probe`` and
    ``wordlm eval-cloze`` make them. Returns the outputs and each call's times."""
    high, medium, low = bucket_thresholds(counts)
    buckets = evaluation.FrequencyBuckets(dict(counts), high=high, medium=medium, low=low)
    probes = []
    for bucket in evaluation.BUCKET_NAMES:
        probes.extend(evaluation.build_probe_set(
            inputs.probe_corpus, buckets, bucket, p=0.15, rng=substream(seed, f"probe-{bucket}"),
        ))
    items = [evaluation.ClozeItem(words, options, answer) for words, options, answer in inputs.cloze]
    outputs, probe_s, cloze_s = [], [], []
    for _ in range(EVAL_REPEATS):
        if tracer is not None:
            tracer.trace_id = "eval-probe"
        t0 = time.perf_counter()
        report = evaluation.probe_topk(model, vocab, probes, ks=PROBE_KS, max_length=w.length)
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.trace_id = "eval-cloze"
        accuracy = evaluation.cloze_accuracy(model, vocab, items, max_length=w.length)
        t2 = time.perf_counter()
        outputs.append((report, accuracy))
        probe_s.append(t1 - t0)
        cloze_s.append(t2 - t1)
    return probes, outputs, probe_s, cloze_s


def environment(threads):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "backend": kernels.BACKEND,
        "wordlm": wordlm.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--out", required=True, help="directory for working files and the trace")
    args = parser.parse_args(argv)

    env = environment(os.environ.get("OPENBLAS_NUM_THREADS", "?"))
    if env["backend"] != "numpy":
        print(f"perfbench: kernels backend is {env['backend']!r}, expected 'numpy'", file=sys.stderr)
        return 1
    w = WORKLOADS[args.workload]
    w = tiny(w) if args.tiny else w
    seed = args.seed
    inputs = make_inputs(w, seed)
    timed = w.timed_steps(args.seconds)
    work = os.path.join(args.out, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        return bench(args, w, seed, inputs, timed, work, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)


class Tally:
    """Operations attempted and failed, with a note for each kind of failure."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.notes = []

    def add(self, attempted, failed, note):
        self.attempted += attempted
        if failed:
            self.failed += failed
            self.notes.append(note)

    def steps(self, pipeline, planned):
        """Steps that did not complete with a finite loss failed."""
        good = sum(math.isfinite(x) for x in pipeline.losses())
        self.add(planned, planned - good, f"{planned - good} steps failed: {pipeline.error}")


def bench(args, w, seed, inputs, timed, work, env):
    tally = Tally()
    tracer = reference = None
    earlier = []  # untraced runs: the extra set-ups, each ending after its first step
    if args.trace:
        reference = Pipeline(w, inputs, seed)
        reference.run(REFERENCE_STEPS)
        tally.steps(reference, REFERENCE_STEPS)
        reference.release()
        tracer = tracing.Tracer()
        tracer.install()
    else:
        for _ in range(SETUP_REPEATS - 1):
            p = Pipeline(w, inputs, seed)
            p.run(1)
            tally.steps(p, 1)
            p.release()
            earlier.append(p)

    run = Pipeline(w, inputs, seed, tracer)
    run.run(timed + 1)
    tally.steps(run, timed + 1)
    losses = run.losses()
    # determinism oracles: every set-up's first loss, and the untraced losses
    for p in earlier:
        tally.add(0, p.losses()[:1] != losses[:1], "step-0 loss differs between set-ups")
    if reference is not None:
        ref = reference.losses()
        differ = sum(a != b for a, b in zip(ref, losses)) + max(0, len(ref) - len(losses))
        tally.add(0, differ, f"{differ} traced losses differ from the untraced run")
    step_ms = run.step_ms()

    # checkpoint round trip, as pretrain writes it and probe reads it; the
    # trained model is dropped first, as it is when pretrain exits
    path = os.path.join(work, "checkpoint.ckpt")
    digest = run.model.checksum()
    if tracer is not None:
        tracer.trace_id = "checkpoint"
    checkpoint.save_checkpoint(run.model, run.optimizer, step=len(losses), path=path)
    ckpt_bytes = os.path.getsize(path)
    run.release()
    model = checkpoint.load_checkpoint(path).model
    os.remove(path)
    tally.add(1, model.checksum() != digest, "model checksum changed across save/load")

    probes, outputs, probe_s, cloze_s = run_eval(w, run.vocab, run.counts, model, inputs, seed,
                                                 tracer)
    report, cloze_acc = outputs[0]
    differ = sum(out != outputs[0] for out in outputs)
    tally.add(0, differ, f"{differ} repeated evaluations differ from the first")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.restore()

    # float64 oracle for the evaluation outputs, after the memory high-water mark
    ref64 = oracle.Reference(model)
    expected, amb_probe = oracle.probe_oracle(ref64, run.vocab, probes, PROBE_KS, w.length)
    bad = oracle.probe_disagreements(report, expected, PROBE_KS)
    tally.add(len(probes), bad, f"{bad} probe outcomes disagree with the float64 oracle")
    lo, hi, amb_cloze = oracle.cloze_oracle(ref64, run.vocab, inputs.cloze, w.length)
    correct = round(cloze_acc * len(inputs.cloze))
    bad = max(lo - correct, correct - hi, 0)
    tally.add(len(inputs.cloze), bad, f"{bad} cloze answers disagree with the float64 oracle")

    enough = len(step_ms) > TAIL_ABOVE
    tally.add(0, not enough, "too few completed steps for the step statistics")
    p50 = statistics.median(step_ms) if step_ms else math.nan
    tail_ms, tail_pct = tail(step_ms) if enough else (math.nan, math.nan)
    if args.trace:
        ref_ms = reference.step_ms()
        values = tracing.per_layer_metrics(
            tracer, len(step_ms), len(probes) * EVAL_REPEATS, len(inputs.cloze) * EVAL_REPEATS,
            ckpt_bytes, p50,
            statistics.median(ref_ms) if ref_ms else math.nan)
        kind = "per_layer"
    else:
        values = {
            "setup_s": statistics.median([p.setup_s for p in earlier] + [run.setup_s]),
            "step_ms_p50": p50,
            "step_ms_tail": tail_ms,
            "tokens_per_s": sum(run.tokens[1:len(step_ms) + 1]) / (sum(step_ms) / 1e3)
            if step_ms else math.nan,
            "loss_end": statistics.fmean(losses[-10:]) if losses else math.nan,
            "probe_examples_per_s": len(probes) / min(probe_s),
            "cloze_items_per_s": len(inputs.cloze) / min(cloze_s),
            "peak_rss_mb": peak_rss_mb,
        }
        kind = "end_to_end"
    metrics = {}
    for name, unit in _units(kind).items():
        value = values[name]
        tally.add(0, not math.isfinite(value), f"{name} is not finite")
        metrics[name] = {"value": value if math.isfinite(value) else 0.0, "unit": unit}

    summary = {
        "workload": w.name, "seed": seed, "trace": args.trace, "env": env,
        "timed_steps": len(step_ms), "tail_percentile": tail_pct, "loss_first": losses[:1],
        "setup_s": [p.setup_s for p in earlier] + [run.setup_s],
        "probe_examples": len(probes), "cloze_items": len(inputs.cloze),
        "probe_report": report, "cloze_accuracy": cloze_acc,
        "oracle_ambiguous": {"probe": amb_probe, "cloze": amb_cloze},
        "attempted": tally.attempted, "failed": tally.failed, "notes": tally.notes,
    }
    if tracer is not None:
        name = f"trace-{w.name}-seed{seed}{'-tiny' if args.tiny else ''}.json"
        tracing.dump(tracer, os.path.join(args.out, name), summary)
    print(f"# env {json.dumps(env)}")
    print(f"# {w.name} seed {seed} trace {args.trace}: {len(step_ms)} timed steps, "
          f"step_ms_tail = p{tail_pct:.1f} (the order statistic with {TAIL_ABOVE} samples above), "
          f"{len(probes)} probe examples, {len(inputs.cloze)} cloze items, "
          f"failed_ratio {tally.failed}/{tally.attempted}")
    for note in tally.notes:
        print(f"# {note}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def _units(kind):
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


if __name__ == "__main__":
    sys.exit(main())
