"""Benchmark workloads: shapes, run lengths and the seeded input generator.

Every workload is the pipeline a user runs with the CLI: build a vocabulary
from a corpus, pretrain, save a checkpoint, load it again, then probe and
score cloze items. The workloads differ in which layer dominates a training
step (see BENCHMARK.json). Inputs come only from ``make_inputs(workload, seed)``, so
the same seed gives the same corpus, probe sentences, cloze items and vectors.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace

# Timed steps never drop below this: the tail statistic is the order statistic
# with ten samples above it, which with 25 or more samples is at or above p60.
MIN_TIMED_STEPS = 25


@dataclass(frozen=True)
class Workload:
    name: str
    words: int  # distinct corpus words; every one of them enters the vocabulary
    zipf_tokens: int  # Zipf(1) tokens drawn on top of one occurrence per word
    batch: int
    length: int  # T: max_length and max_positions
    sample_size: int
    nominal_step_s: float  # untraced step time, numpy kernels, one BLAS thread, 2-core x86
    probe_lines: int
    cloze_items: int
    variant: str = "direct"
    neighbors: bool = False
    vector_dim: int = 300
    hidden: int = 256
    layers: int = 2
    heads: int = 4

    def timed_steps(self, seconds: float) -> int:
        """Fixed step count for a run of about ``seconds`` on the reference host.

        The count depends only on the workload and ``seconds``, so every commit
        does the same work, the tail percentile is the same, and ``loss_end`` is
        deterministic for a seed.
        """
        return max(MIN_TIMED_STEPS, round(seconds / self.nominal_step_s))


# Why each workload is here is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train-large-vocab", words=50_000, zipf_tokens=100_000, batch=16, length=64,
            sample_size=5_000, nominal_step_s=1.0, probe_lines=3, cloze_items=8,
        ),
        Workload(
            name="train-neighbors", words=50_000, zipf_tokens=100_000, batch=8, length=32,
            sample_size=5_000, nominal_step_s=0.47, probe_lines=2, cloze_items=5,
            variant="projected", neighbors=True,
        ),
    )
}


def tiny(w: Workload) -> Workload:
    """Same pipeline at toy shapes, for the harness smoke test."""
    return replace(
        w, words=300, zipf_tokens=3_000, batch=4, length=16, sample_size=100,
        probe_lines=2, cloze_items=3, vector_dim=24, hidden=32,
    )


@dataclass
class Inputs:
    corpus: list  # training lines
    probe_corpus: list  # held-out lines the probe set is built from
    cloze: list  # (passage_words with one [BLANK], options, answer_index)
    vectors: object  # [words + 5, vector_dim] float32 for the projected variant, else None


def make_inputs(w: Workload, seed: int) -> Inputs:
    import numpy as np

    rng = np.random.default_rng([seed, zlib.crc32(w.name.encode())])
    names = [f"w{i}" for i in rng.permutation(w.words)]  # names[rank]
    zipf = 1.0 / np.arange(1, w.words + 1)
    zipf /= zipf.sum()
    lo, hi = w.length // 3, w.length - 2  # words per line; hi leaves room for [CLS] [SEP]

    def lines_of(ranks):
        out, i = [], 0
        while i < len(ranks):
            n = int(rng.integers(lo, hi + 1))
            out.append(" ".join(names[r] for r in ranks[i:i + n]))
            i += n
        return out

    def eval_line():  # full length, so evaluation cost varies little between seeds
        return [names[r] for r in rng.choice(w.words, size=hi, p=zipf)]

    # one occurrence of every word keeps the vocabulary at `words` entries
    ranks = np.concatenate([rng.choice(w.words, size=w.zipf_tokens, p=zipf), np.arange(w.words)])
    corpus = lines_of(rng.permutation(ranks))
    probe_corpus = [" ".join(eval_line()) for _ in range(w.probe_lines)]

    cloze = []
    for _ in range(w.cloze_items):
        words = eval_line()
        blank = int(rng.integers(0, len(words)))
        gold = words[blank]
        distractors = []
        while len(distractors) < 3:
            cand = names[int(rng.integers(0, w.words))]
            if cand != gold and cand not in distractors:
                distractors.append(cand)
        options = [gold] + distractors
        order = rng.permutation(4)
        words[blank] = "[BLANK]"
        cloze.append((words, [options[i] for i in order], int(np.argmax(order == 0))))

    vectors = None
    if w.variant == "projected":
        # unit expected row norm: projected output rows then have the same scale
        # as the direct variant's 0.02-std embeddings, so the first-step loss
        # starts near ln|batch vocab| instead of tens of nats
        vectors = (rng.standard_normal((w.words + 5, w.vector_dim)) / np.sqrt(w.vector_dim)).astype(
            np.float32
        )
    return Inputs(corpus, probe_corpus, cloze, vectors)


def bucket_thresholds(counts) -> tuple[int, int, int]:
    """(high, medium, low): the 10th and 100th most frequent words' counts, and 3."""
    ranked = sorted(counts.values(), reverse=True)
    low = 3
    medium = max(ranked[min(99, len(ranked) - 1)], low + 1)
    high = max(ranked[min(9, len(ranked) - 1)], medium + 1)
    return high, medium, low
