"""Whole-word vocabulary: segmentation, counting, top-K construction, encoding.

Segmentation rules (version v1, recorded in the vocab file header): split on
whitespace, peel leading/trailing non-alphanumeric characters off each chunk
as single-character tokens, lowercase the remaining core. Word ids
are dense, with the five special tokens pinned to ids 0-4 and corpus words
ranked by frequency (ties broken lexicographically); no special token is a word.
"""

from __future__ import annotations

import codecs
import os
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ContractError

SPECIAL_TOKENS = ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]")
PAD_ID, UNK_ID, CLS_ID, SEP_ID, MASK_ID = range(5)
NUM_SPECIALS = len(SPECIAL_TOKENS)
_HEADER = "#wordvocab v1 lowercase=true"


def segment_words(text: str) -> list[str]:
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
            tokens.append(core.lower())
        tokens.extend(trail)
    return tokens


def count_frequencies(documents) -> Counter:
    """Exact word counts over the segmentation of every document."""
    counts: Counter = Counter()
    for i, doc in enumerate(documents):
        if not isinstance(doc, str):
            raise ContractError(f"document {i} is not readable text ({type(doc).__name__})")
        counts.update(segment_words(doc))
    return counts


def read_text_lines(path) -> list[str]:
    """The UTF-8 lines of a text file, split at LF, CRLF or CR, with a leading
    byte-order mark dropped; a line that is not UTF-8 is a ``ContractError``
    naming ``path:line``. Every text input is read here."""
    with open(path, "rb") as fh:
        raw = fh.read().removeprefix(codecs.BOM_UTF8)
    lines = []
    for lineno, line in enumerate(raw.splitlines(), start=1):
        try:
            lines.append(line.decode("utf-8"))
        except UnicodeDecodeError as err:
            raise ContractError(f"{path}:{lineno}: {err}") from err
    return lines


def write_atomically(path, chunks):
    """Write the bytes of each of ``chunks`` into ``<path>.tmp``, fsync it and
    rename it onto ``path``, so a failed or killed write leaves the previous
    file intact; on any exception the tmp file is removed. The vocabulary
    and the checkpoint are written here."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


class WordVocab:
    """Rank-ordered word list with dense ids: specials first, then top-K."""

    def __init__(self, words: list[str], frequency):
        self.words = list(words)
        self.frequency = np.asarray(frequency, dtype=np.int64)
        if tuple(self.words[:NUM_SPECIALS]) != SPECIAL_TOKENS:
            raise ContractError("vocabulary must start with the five special tokens")
        corpus_words = self.words[NUM_SPECIALS:]  # a special token's spelling encodes as [UNK]
        self.id_of = {w: i for i, w in enumerate(corpus_words, NUM_SPECIALS)}
        for w in SPECIAL_TOKENS:
            if w in self.id_of:
                raise ContractError(f"special token {w!r} repeated as a word at id {self.id_of[w]}")
        if len(self.id_of) != len(corpus_words):  # id_of keeps each word's last id
            first = next(w for i, w in enumerate(corpus_words, NUM_SPECIALS) if self.id_of[w] != i)
            raise ContractError(f"vocabulary contains duplicate word {first!r}")
        if self.frequency.shape != (len(self.words),):
            raise ContractError("frequency array length does not match word list")

    @property
    def size(self) -> int:
        return len(self.words)

    def lookup(self, word: str) -> int:
        """The id of ``word``, or ``UNK_ID``. A word is looked up as written, then
        lowercased if it starts with a letter or digit: segmentation lowercases
        such words and keeps symbols as written."""
        i = self.id_of.get(word)
        if i is None and word[:1].isalnum():
            i = self.id_of.get(word.lower())
        return UNK_ID if i is None else i

    def save(self, path):
        lines = [_HEADER]
        for word, freq in zip(self.words, self.frequency):
            lines.append(f"{word}\t{int(freq)}")
        write_atomically(path, ["\n".join(lines).encode("utf-8") + b"\n"])

    @classmethod
    def load(cls, path) -> "WordVocab":
        lines = read_text_lines(path)
        if not lines or lines[0] != _HEADER:
            raise ContractError(f"{path}: not a wordvocab file: first line must be {_HEADER!r}")
        words, freqs = [], []
        for lineno, line in enumerate(lines[1:], start=2):
            word, _, freq = line.partition("\t")
            try:
                freqs.append(int(freq))
            except ValueError as err:
                raise ContractError(
                    f"{path}:{lineno}: frequency {freq!r} is not an integer"
                ) from err
            if freqs[-1] < 0:  # probe buckets words by this count
                raise ContractError(f"{path}:{lineno}: frequency {freq!r} is negative")
            words.append(word)
        try:
            return cls(words, freqs)
        except ContractError as err:
            raise ContractError(f"{path}: {err}") from err


def build_vocabulary(freqs, k: int) -> WordVocab:
    """Specials plus the top-k words by (count desc, word asc)."""
    if k < 1:
        raise ContractError(f"vocabulary size k must be >= 1, got {k}")
    ranked = sorted(freqs.items(), key=lambda item: (-item[1], item[0]))[:k]
    words = list(SPECIAL_TOKENS) + [w for w, _ in ranked]
    frequency = [0] * NUM_SPECIALS + [c for _, c in ranked]
    return WordVocab(words, frequency)


@dataclass
class EncodedSequence:
    """[CLS] w1 .. wn [SEP] [PAD]* with its attention mask."""

    ids: np.ndarray
    attention_mask: np.ndarray


def attention_mask(ids) -> np.ndarray:
    """1 at the real positions of encoded ids, 0 at [PAD], which no word encodes as."""
    return (ids != PAD_ID).astype(np.int64)


def encode(words, vocab: WordVocab, max_length: int = 512) -> EncodedSequence:
    """CLS-fronted, SEP-terminated, PAD-filled id sequence of fixed length."""
    if max_length < 3:
        raise ContractError(f"max_length must be >= 3, got {max_length}")
    body = [vocab.lookup(w) for w in list(words)[: max_length - 2]]
    ids = np.full(max_length, PAD_ID, dtype=np.int64)
    ids[: len(body) + 2] = [CLS_ID, *body, SEP_ID]
    return EncodedSequence(ids, attention_mask(ids))
