"""Frequency-stratified zero-shot probing and cloze scoring.

All scoring runs over immutable model snapshots (no parameter is touched).
Probe sets are built from a corpus; cloze items are JSON lines whose field
names are ``ClozeItem``'s, with one worked example in ``eval-cloze --help``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .errors import ContractError
from .model import WordBertModel
from .vocab import MASK_ID, UNK_ID, WordVocab, encode, read_text_lines, segment_words

BUCKET_NAMES = ("High", "Medium", "Low", "Rare")
BLANK_SENTINEL = "[BLANK]"


# ---------------------------------------------------------------------------
# frequency buckets and probe sets
# ---------------------------------------------------------------------------


@dataclass
class FrequencyBuckets:
    """Word strata by reference-corpus count at high/medium/low thresholds."""

    reference_frequencies: dict[str, int]
    high: int = 3000
    medium: int = 300
    low: int = 3

    def __post_init__(self):
        if not self.high > self.medium > self.low > 0:
            raise ContractError(
                f"thresholds must satisfy high > medium > low > 0, "
                f"got {self.high}/{self.medium}/{self.low}"
            )


def bucket_of(word: str, buckets: FrequencyBuckets) -> str:
    """High for freq >= high, Medium/Low for the bands below, Rare otherwise.

    Boundaries are inclusive lower bounds; unseen words (frequency 0) are Rare.
    """
    freq = buckets.reference_frequencies.get(word, 0)
    if freq >= buckets.high:
        return "High"
    if freq >= buckets.medium:
        return "Medium"
    if freq >= buckets.low:
        return "Low"
    return "Rare"


@dataclass
class ProbeExample:
    words: list[str]
    masked_positions: list[int]
    gold_words: list[str]
    bucket: str

    def __post_init__(self):
        if self.bucket not in BUCKET_NAMES:
            raise ContractError(f"unknown bucket {self.bucket!r}")
        if len(self.masked_positions) != len(self.gold_words):
            raise ContractError("masked_positions and gold_words must align")
        if any(b <= a for a, b in zip(self.masked_positions, self.masked_positions[1:])):
            raise ContractError("masked_positions must be strictly increasing")
        for pos, gold in zip(self.masked_positions, self.gold_words):
            if not 0 <= pos < len(self.words) or self.words[pos] != gold:
                raise ContractError(f"gold word {gold!r} does not sit at position {pos}")


def build_probe_set(
    corpus_lines,
    buckets: FrequencyBuckets,
    bucket_label: str,
    rng: np.random.Generator,
    p: float = 0.15,
) -> list[ProbeExample]:
    """Mask each word of the chosen bucket with probability p, per sentence.

    Sentences with no masked word are dropped. One uniform draw is consumed
    per bucket-member word, in corpus order.
    """
    if bucket_label not in BUCKET_NAMES:
        raise ContractError(f"unknown bucket {bucket_label!r}")
    examples = []
    for line in corpus_lines:
        words = segment_words(line)
        positions, golds = [], []
        for i, w in enumerate(words):
            if bucket_of(w, buckets) == bucket_label and rng.random() < p:
                positions.append(i)
                golds.append(w)
        if positions:
            examples.append(ProbeExample(words, positions, golds, bucket_label))
    return examples


def _masked_hidden(model: WordBertModel, vocab: WordVocab, words, positions, max_length):
    """Hidden rows [n, H], all masked at once, at the first n word ``positions``
    (strictly increasing): those inside the window of [CLS] and
    ``max_length - 2`` words (default the model's). With n = 0 nothing runs."""
    max_length = max_length or model.config.max_positions
    enc_positions = [pos + 1 for pos in positions if pos < max_length - 2]  # right of [CLS]
    if not enc_positions:
        return np.empty((0, model.config.hidden), np.float32)
    seq = encode(words, vocab, max_length)
    seq.ids[enc_positions] = MASK_ID
    flat, _ = model.encode_batch(seq.ids[None, :], seq.attention_mask[None, :])
    return flat[enc_positions]


def probe_topk(
    model: WordBertModel,
    vocab: WordVocab,
    probes: list[ProbeExample],
    ks=(1,),
    max_length: int | None = None,
) -> dict:
    """Zero-shot per-bucket top-k accuracy by full-vocabulary MLM ranking.

    Gold words outside the vocabulary count as misses and are tallied as OOV,
    gold words past the encoded window not at all.
    Returns {"accuracy": {bucket: {k: acc}}, "total": .., "oov": ..} per bucket.
    """
    ks = tuple(sorted(set(int(k) for k in ks)))
    hits = {b: {k: 0 for k in ks} for b in BUCKET_NAMES}
    totals = {b: 0 for b in BUCKET_NAMES}
    oov = {b: 0 for b in BUCKET_NAMES}
    for ex in probes:
        hidden = _masked_hidden(model, vocab, ex.words, ex.masked_positions, max_length)
        if not len(hidden):
            continue
        logits = model.full_vocab_logits(hidden, model.output_table())
        for row, gold in zip(logits, ex.gold_words):
            totals[ex.bucket] += 1
            gold_id = vocab.lookup(gold)
            if gold_id == UNK_ID:
                oov[ex.bucket] += 1
                continue
            # ids scoring above gold, plus lower ids tying with it
            g = row[gold_id]
            rank = np.count_nonzero(row > g) + np.count_nonzero(row[:gold_id] == g)
            for k in ks:
                if rank < k:
                    hits[ex.bucket][k] += 1
    accuracy = {
        b: {k: (hits[b][k] / totals[b] if totals[b] else 0.0) for k in ks}
        for b in BUCKET_NAMES
    }
    return {"accuracy": accuracy, "total": totals, "oov": oov}


# ---------------------------------------------------------------------------
# cloze
# ---------------------------------------------------------------------------


@dataclass
class ClozeItem:
    passage_words: list[str]
    options: list[str]
    answer_index: int

    def __post_init__(self):
        if self.passage_words.count(BLANK_SENTINEL) != 1:
            raise ContractError(f"passage must contain exactly one {BLANK_SENTINEL}")
        if len(self.options) != 4 or len(set(self.options)) != 4:
            raise ContractError("cloze items need exactly 4 distinct options")
        if not 0 <= self.answer_index < 4:
            raise ContractError(f"answer_index {self.answer_index!r} is not an integer in 0-3")


def score_cloze(
    model: WordBertModel,
    vocab: WordVocab,
    item: ClozeItem,
    max_length: int | None = None,
) -> int:
    """Index of the option with the highest MLM log-probability at the blank.

    Every option shares the blank's normalizer, so the highest logit wins, and
    only the known options' logits are computed: the head's restricted path
    ``model.mlm_logits`` over at most four rows, never the [H, V] table. Its
    narrow product may differ from a full-vocabulary column in the last bits.
    Out-of-vocabulary options score -inf; ties break toward the lower index,
    so two options that look up one vocabulary word are refused.
    """
    blank = item.passage_words.index(BLANK_SENTINEL)
    hidden = _masked_hidden(model, vocab, item.passage_words, [blank], max_length)
    if hidden.shape[0] == 0:
        raise ContractError("blank position falls outside the encoded window")
    option_ids = [vocab.lookup(o) for o in item.options]
    if all(i == UNK_ID for i in option_ids):
        raise ContractError("every cloze option is out of vocabulary")
    spelled = {}  # id -> the first option that looks it up
    for option, i in zip(item.options, option_ids):
        if i in spelled and i != UNK_ID:
            raise ContractError(f"options {spelled[i]!r} and {option!r} are one vocabulary word")
        spelled[i] = option
    known = [k for k, i in enumerate(option_ids) if i != UNK_ID]
    logits, _ = model.mlm_logits(hidden, [option_ids[k] for k in known])
    scores = np.full(len(option_ids), -np.inf)
    scores[known] = logits[0]
    return int(np.argmax(scores))


def cloze_accuracy(model, vocab, items, max_length=None) -> float:
    """Fraction of items answered right; an item that cannot be scored is a
    ``ContractError`` naming its 1-based number."""
    correct = 0
    for number, item in enumerate(items, start=1):
        try:
            correct += score_cloze(model, vocab, item, max_length) == item.answer_index
        except ContractError as err:
            raise ContractError(f"item {number}: {err}") from err
    return correct / len(items) if items else 0.0


# ---------------------------------------------------------------------------
# JSON-lines IO
# ---------------------------------------------------------------------------

# The JSON value each field annotation of a record admits, as error messages name it.
_JSON_SHAPES = {
    int: "an integer",
    list[str]: "a list of strings",
}


def _has_shape(value, hint) -> bool:
    """Exact types, so neither a JSON boolean nor a float passes as an integer."""
    if get_origin(hint) is list:
        return type(value) is list and all(type(v) is get_args(hint)[0] for v in value)
    return type(value) is hint


def _unique_fields(pairs) -> dict:
    """A JSON object's dict, refusing a field given twice (``json`` keeps the last)."""
    obj = {}
    for name, value in pairs:
        if name in obj:
            raise ContractError(f"field {name!r} given twice")
        obj[name] = value
    return obj


def load_records(path, cls) -> list:
    """One validated ``cls`` record per nonblank JSON-lines line; the JSON keys
    are its field names, every one required and of its annotated JSON type."""
    hints = get_type_hints(cls)
    records = []
    for lineno, line in enumerate(read_text_lines(path), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line, object_pairs_hook=_unique_fields)
        except json.JSONDecodeError as err:
            raise ContractError(f"{path}:{lineno}: invalid JSON: {err}") from err
        except ContractError as err:
            raise ContractError(f"{path}:{lineno}: {err}") from err
        if not isinstance(obj, dict):
            raise ContractError(f"{path}:{lineno}: not a JSON object: {line!r}")
        unknown = set(obj) - set(hints)
        if unknown:
            raise ContractError(f"{path}:{lineno}: unknown fields {sorted(unknown)}")
        missing = [name for name in hints if name not in obj]
        if missing:
            raise ContractError(f"{path}:{lineno}: missing fields {missing}")
        for name, hint in hints.items():
            if not _has_shape(obj[name], hint):
                raise ContractError(
                    f"{path}:{lineno}: {name} must be {_JSON_SHAPES[hint]}, got {obj[name]!r}"
                )
        try:
            records.append(cls(**obj))
        except ContractError as err:
            raise ContractError(f"{path}:{lineno}: {err}") from err
    return records

