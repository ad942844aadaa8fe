"""Frequency-stratified probing, cloze scoring, tagging and span metrics.

All scoring runs over immutable model snapshots (no parameter is touched).
Dataset records are JSON-lines with field names matching the dataclasses
here; see the CLI help for one worked example of each format.
"""

from __future__ import annotations

import json
import logging
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from . import tensor as T
from .errors import ContractError
from .model import WordBertModel
from .vocab import MASK_ID, WordVocab, encode, segment_words

log = logging.getLogger(__name__)

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

    def validate(self):
        if not self.high > self.medium > self.low > 0:
            raise ContractError(
                f"thresholds must satisfy high > medium > low > 0, "
                f"got {self.high}/{self.medium}/{self.low}"
            )

    __post_init__ = validate


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

    def validate(self):
        if self.bucket not in BUCKET_NAMES:
            raise ContractError(f"unknown bucket {self.bucket!r}")
        if len(self.masked_positions) != len(self.gold_words):
            raise ContractError("masked_positions and gold_words must align")
        if any(type(pos) is not int for pos in self.masked_positions):
            raise ContractError(f"masked_positions {self.masked_positions} are not all integers")
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
    lowercase: bool = True,
) -> list[ProbeExample]:
    """Mask each word of the chosen bucket with probability p, per sentence.

    Sentences with no masked word are dropped. One uniform draw is consumed
    per bucket-member word, in corpus order.
    """
    if bucket_label not in BUCKET_NAMES:
        raise ContractError(f"unknown bucket {bucket_label!r}")
    examples = []
    for line in corpus_lines:
        words = segment_words(line, lowercase=lowercase)
        positions, golds = [], []
        for i, w in enumerate(words):
            if bucket_of(w, buckets) == bucket_label and rng.random() < p:
                positions.append(i)
                golds.append(w)
        if positions:
            examples.append(ProbeExample(words, positions, golds, bucket_label))
    return examples


def _masked_logits(model: WordBertModel, vocab: WordVocab, words, positions, max_length):
    """Full-vocabulary logits [len(positions), V] with every word position masked at once."""
    enc_positions = [pos + 1 for pos in positions]  # words shift one right of [CLS]
    seq = encode(words, vocab, max_length)
    ids = seq.ids.copy()
    ids[enc_positions] = MASK_ID
    with T.no_grad():
        flat = model.encode_batch(ids[None, :], seq.attention_mask[None, :])
        return model.full_vocab_logits(T.gather_rows(flat, enc_positions)).data


def probe_topk(
    model: WordBertModel,
    vocab: WordVocab,
    probes: list[ProbeExample],
    ks=(1,),
    max_length: int | None = None,
) -> dict:
    """Zero-shot per-bucket top-k accuracy by full-vocabulary MLM ranking.

    Gold words outside the vocabulary count as misses and are tallied as OOV.
    Returns {"accuracy": {bucket: {k: acc}}, "total": .., "oov": ..} per bucket.
    """
    ks = tuple(sorted(set(int(k) for k in ks)))
    max_length = max_length or model.config.max_positions
    hits = {b: {k: 0 for k in ks} for b in BUCKET_NAMES}
    totals = {b: 0 for b in BUCKET_NAMES}
    oov = {b: 0 for b in BUCKET_NAMES}
    for ex in probes:
        ex.validate()
        # words past the encoded window ([CLS] + max_length - 2 words) are truncated away
        scored = [(pos, gold) for pos, gold in zip(ex.masked_positions, ex.gold_words)
                  if pos + 1 < max_length - 1]
        if not scored:
            continue
        logits = _masked_logits(model, vocab, ex.words, [pos for pos, _ in scored], max_length)
        for row, (_, gold) in zip(logits, scored):
            totals[ex.bucket] += 1
            gold_id = vocab.id_of.get(gold)
            if gold_id is None:
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

    def validate(self):
        if self.passage_words.count(BLANK_SENTINEL) != 1:
            raise ContractError(f"passage must contain exactly one {BLANK_SENTINEL}")
        if len(self.options) != 4 or len(set(self.options)) != 4:
            raise ContractError("cloze items need exactly 4 distinct options")
        if type(self.answer_index) is not int or not 0 <= self.answer_index < 4:
            raise ContractError(f"answer_index {self.answer_index!r} is not an integer in 0-3")


def score_cloze(
    model: WordBertModel,
    vocab: WordVocab,
    item: ClozeItem,
    max_length: int | None = None,
) -> int:
    """Index of the option with the highest MLM log-probability at the blank.

    Every option shares the blank's normalizer, so the highest logit wins.
    Out-of-vocabulary options score -inf; ties break toward the lower index.
    """
    item.validate()
    max_length = max_length or model.config.max_positions
    blank = item.passage_words.index(BLANK_SENTINEL)
    if blank + 1 >= max_length - 1:
        raise ContractError("blank position falls outside the encoded window")
    option_ids = [vocab.id_of.get(o) for o in item.options]
    if all(i is None for i in option_ids):
        raise ContractError("every cloze option is out of vocabulary")
    logits = _masked_logits(model, vocab, item.passage_words, [blank], max_length)[0]
    scores = np.array([-np.inf if i is None else logits[i] for i in option_ids])
    return int(np.argmax(scores))


def cloze_accuracy(model, vocab, items, max_length=None) -> float:
    correct = sum(
        1 for item in items if score_cloze(model, vocab, item, max_length) == item.answer_index
    )
    return correct / len(items) if items else 0.0


# ---------------------------------------------------------------------------
# sequence labeling
# ---------------------------------------------------------------------------


@dataclass
class TaggedSequence:
    words: list[str]
    gold_labels: list[str]

    def validate(self):
        if len(self.words) != len(self.gold_labels):
            raise ContractError("label count must equal word count")


def _bio_spans(labels, repair: bool):
    """(start, end, type) spans; stray I- either repaired to B- or rejected."""
    spans = []
    start = None
    typ = None
    repairs = 0
    for i, lab in enumerate(labels):
        if lab == "O":
            if start is not None:
                spans.append((start, i - 1, typ))
                start = None
        elif lab.startswith("B-"):
            if start is not None:
                spans.append((start, i - 1, typ))
            start, typ = i, lab[2:]
        elif lab.startswith("I-"):
            t = lab[2:]
            if start is None or t != typ:
                if not repair:
                    raise ContractError(f"malformed BIO transition at position {i}: {lab}")
                repairs += 1
                if start is not None:
                    spans.append((start, i - 1, typ))
                start, typ = i, t
        else:
            raise ContractError(f"label {lab!r} is not BIO")
    if start is not None:
        spans.append((start, len(labels) - 1, typ))
    return spans, repairs


def tag_f1(pred_labels, gold_labels, mode: str = "span") -> tuple[float, float, float]:
    """Micro precision/recall/F1 over sequences of labels.

    span mode matches BIO spans exactly (type + boundaries); token mode scores
    per-token equality. Malformed BIO in predictions is repaired (stray I- as
    B-, logged); malformed gold raises.
    """
    if mode not in ("span", "token"):
        raise ContractError(f"mode must be span or token, got {mode!r}")
    if len(pred_labels) != len(gold_labels):
        raise ContractError("prediction and gold sets differ in sequence count")

    if mode == "token":
        correct = total = 0
        for pred, gold in zip(pred_labels, gold_labels):
            if len(pred) != len(gold):
                raise ContractError("prediction and gold lengths differ")
            correct += sum(p == g for p, g in zip(pred, gold))
            total += len(gold)
        acc = correct / total if total else 1.0
        return acc, acc, acc

    n_pred = n_gold = n_correct = n_repairs = 0
    for pred, gold in zip(pred_labels, gold_labels):
        if len(pred) != len(gold):
            raise ContractError("prediction and gold lengths differ")
        gold_spans, _ = _bio_spans(gold, repair=False)
        pred_spans, repairs = _bio_spans(pred, repair=True)
        n_repairs += repairs
        n_pred += len(pred_spans)
        n_gold += len(gold_spans)
        n_correct += len(set(pred_spans) & set(gold_spans))
    if n_repairs:
        log.warning("repaired %d stray I- labels in predictions", n_repairs)
    if n_pred == 0 and n_gold == 0:
        return 1.0, 1.0, 1.0
    precision = n_correct / n_pred if n_pred else 0.0
    recall = n_correct / n_gold if n_gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


# ---------------------------------------------------------------------------
# span extraction
# ---------------------------------------------------------------------------

NO_ANSWER = (0, 0)


def is_int_pair(values) -> bool:
    """Two JSON integers (bools excluded), as a list or tuple."""
    return isinstance(values, (list, tuple)) and len(values) == 2 and all(
        type(v) is int for v in values
    )


@dataclass
class SpanItem:
    context_words: list[str]
    question_words: list[str]
    gold_spans: list[tuple[int, int]] = field(default_factory=list)

    def validate(self):
        for span in self.gold_spans:
            if not is_int_pair(span):
                raise ContractError(f"gold span {span!r} is not a pair of integers")
            start, end = span
            if not 0 <= start <= end < len(self.context_words):
                raise ContractError(f"gold span ({start}, {end}) outside the context")


@dataclass
class SpanPrediction:
    """A predicted span in encoded positions: word i at i + 1, (0, 0) for no-answer."""

    start: int
    end: int

    def validate(self):
        if not is_int_pair((self.start, self.end)):
            raise ContractError(f"start and end must be JSON integers: {self.start!r}, {self.end!r}")
        if not 0 <= self.start <= self.end:
            raise ContractError(f"invalid predicted span {(self.start, self.end)}")


def _token_overlap_f1(a, b) -> float:
    overlap = min(a[1], b[1]) - max(a[0], b[0]) + 1
    if overlap <= 0:
        return 0.0
    p = overlap / (a[1] - a[0] + 1)
    r = overlap / (b[1] - b[0] + 1)
    return 2 * p * r / (p + r)


def span_em_f1(pred, gold_spans) -> tuple[float, float]:
    """Exact match and best token-overlap F1 against the gold spans.

    Spans live in encoded-position space: (0, 0) is the [CLS] no-answer
    convention, real words sit at positions >= 1. Empty gold_spans means
    no-answer.
    """
    pred = (int(pred[0]), int(pred[1]))
    SpanPrediction(*pred).validate()
    golds = [(int(s), int(e)) for s, e in gold_spans]
    if not golds:
        hit = 1.0 if pred == NO_ANSWER else 0.0
        return hit, hit
    if pred == NO_ANSWER:
        return 0.0, 0.0
    em = 1.0 if pred in golds else 0.0
    f1 = max(_token_overlap_f1(pred, g) for g in golds)
    return em, f1


# ---------------------------------------------------------------------------
# JSON-lines IO
# ---------------------------------------------------------------------------

def load_records(path, cls) -> list:
    """One validated ``cls`` record per nonblank JSON-lines line; the JSON keys
    are its field names, and the fields without a default are required."""
    names = {f.name for f in fields(cls)}
    required = [f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING]
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as err:
                raise ContractError(f"{path}:{lineno}: invalid JSON: {err}") from err
            if not isinstance(obj, dict):
                raise ContractError(f"{path}:{lineno}: not a JSON object: {line!r}")
            unknown = set(obj) - names
            if unknown:
                raise ContractError(f"{path}:{lineno}: unknown fields {sorted(unknown)}")
            missing = [name for name in required if name not in obj]
            if missing:
                raise ContractError(f"{path}:{lineno}: missing fields {missing}")
            record = cls(**obj)
            try:
                record.validate()
            except (ContractError, TypeError) as err:  # TypeError: a field of the wrong JSON type
                raise ContractError(f"{path}:{lineno}: {err}") from err
            if cls is SpanItem:
                record.gold_spans = [tuple(s) for s in record.gold_spans]
            records.append(record)
    return records


def save_probe_examples(examples, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for ex in examples:
            fh.write(json.dumps(asdict(ex), ensure_ascii=False) + "\n")
