"""Whole-word vocabulary: segmentation, counting, top-K construction, encoding.

Segmentation rules (version v1, recorded in the vocab file header): split on
whitespace, peel leading/trailing non-alphanumeric characters off each chunk
as single-character tokens, optionally lowercase the remaining core. Word ids
are dense, with the five special tokens pinned to ids 0-4 and corpus words
ranked by frequency (ties broken lexicographically).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ContractError

SPECIAL_TOKENS = ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]")
PAD_ID, UNK_ID, CLS_ID, SEP_ID, MASK_ID = range(5)
NUM_SPECIALS = len(SPECIAL_TOKENS)
SEGMENTATION_VERSION = "v1"

_HEADER_PREFIX = f"#wordvocab {SEGMENTATION_VERSION} lowercase="


def segment_words(text: str, lowercase: bool = True) -> list[str]:
    """Deterministic whitespace + punctuation-peeling segmentation."""
    tokens = []
    for chunk in text.split():
        i, j = 0, len(chunk)
        lead = []
        while i < j and not chunk[i].isalnum():
            lead.append(chunk[i])
            i += 1
        trail = []
        while j > i and not chunk[j - 1].isalnum():
            trail.append(chunk[j - 1])
            j -= 1
        trail.reverse()
        tokens.extend(lead)
        core = chunk[i:j]
        if core:
            tokens.append(core.lower() if lowercase else core)
        tokens.extend(trail)
    return tokens


def count_frequencies(documents, lowercase: bool = True) -> Counter:
    """Exact word counts over the segmentation of every document."""
    counts: Counter = Counter()
    for i, doc in enumerate(documents):
        if not isinstance(doc, str):
            raise ContractError(f"document {i} is not readable text ({type(doc).__name__})")
        counts.update(segment_words(doc, lowercase=lowercase))
    return counts


def read_corpus_lines(path) -> list[str]:
    """The UTF-8 lines of a one-document-per-line corpus file, split at LF,
    CRLF or CR; a failure names the file (and line)."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as err:
        raise ContractError(f"unreadable document {path}: {err}") from err
    lines = []
    for lineno, line in enumerate(raw.splitlines(), start=1):
        try:
            lines.append(line.decode("utf-8"))
        except UnicodeDecodeError as err:
            raise ContractError(f"unreadable document {path}:{lineno}: {err}") from err
    return lines


def count_corpus_file(path, lowercase: bool = True) -> Counter:
    """Count a one-document-per-line corpus file, naming the file on failure."""
    return count_frequencies(read_corpus_lines(path), lowercase=lowercase)


class WordVocab:
    """Rank-ordered word list with dense ids: specials first, then top-K."""

    def __init__(self, words: list[str], frequency, lowercase: bool = True):
        self.words = list(words)
        self.frequency = np.asarray(frequency, dtype=np.int64)
        self.lowercase = bool(lowercase)
        if tuple(self.words[:NUM_SPECIALS]) != SPECIAL_TOKENS:
            raise ContractError("vocabulary must start with the five special tokens")
        if len(self.words) != len(set(self.words)):
            raise ContractError("vocabulary contains duplicate words")
        if self.frequency.shape != (len(self.words),):
            raise ContractError("frequency array length does not match word list")
        self.id_of = {w: i for i, w in enumerate(self.words)}

    @property
    def size(self) -> int:
        return len(self.words)

    def save(self, path):
        lines = [f"{_HEADER_PREFIX}{'true' if self.lowercase else 'false'}"]
        for word, freq in zip(self.words, self.frequency):
            lines.append(f"{word}\t{int(freq)}")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path) -> "WordVocab":
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
            if not header.startswith(_HEADER_PREFIX):
                raise ContractError(f"{path}: not a wordvocab {SEGMENTATION_VERSION} file")
            lowercase = header[len(_HEADER_PREFIX):] == "true"
            words, freqs = [], []
            for lineno, line in enumerate(fh, start=2):
                word, _, freq = line.rstrip("\n").partition("\t")
                try:
                    freqs.append(int(freq))
                except ValueError as err:
                    raise ContractError(
                        f"{path}:{lineno}: frequency {freq!r} is not an integer"
                    ) from err
                words.append(word)
        return cls(words, freqs, lowercase=lowercase)


def build_vocabulary(freqs, k: int, lowercase: bool = True) -> WordVocab:
    """Specials plus the top-k words by (count desc, word asc)."""
    if k < 1:
        raise ContractError(f"vocabulary size k must be >= 1, got {k}")
    specials = set(SPECIAL_TOKENS)
    for word in freqs:
        if word in specials:
            raise ContractError(f"corpus word {word!r} collides with a special token")
    ranked = sorted(freqs.items(), key=lambda item: (-item[1], item[0]))[:k]
    words = list(SPECIAL_TOKENS) + [w for w, _ in ranked]
    frequency = [0] * NUM_SPECIALS + [c for _, c in ranked]
    return WordVocab(words, frequency, lowercase=lowercase)


@dataclass
class EncodedSequence:
    """[CLS] w1 .. wn [SEP] [PAD]* with its attention mask."""

    ids: np.ndarray
    attention_mask: np.ndarray

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)
        self.attention_mask = np.asarray(self.attention_mask, dtype=np.int64)


def encode(words, vocab: WordVocab, max_length: int = 512) -> EncodedSequence:
    """CLS-fronted, SEP-terminated, PAD-filled id sequence of fixed length."""
    if max_length < 3:
        raise ContractError(f"max_length must be >= 3, got {max_length}")
    retained = list(words)[: max_length - 2]
    body = [vocab.id_of.get(w, UNK_ID) for w in retained]
    ids = [CLS_ID] + body + [SEP_ID]
    n_real = len(ids)
    ids.extend([PAD_ID] * (max_length - n_real))
    mask = [1] * n_real + [0] * (max_length - n_real)
    return EncodedSequence(np.array(ids), np.array(mask))

