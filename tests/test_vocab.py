"""Vocabulary construction and codec tests."""

from collections import Counter

import numpy as np
import pytest

from wordlm.errors import ContractError
from wordlm.vocab import (
    CLS_ID,
    MASK_ID,
    NUM_SPECIALS,
    PAD_ID,
    SEP_ID,
    SPECIAL_TOKENS,
    UNK_ID,
    WordVocab,
    build_vocabulary,
    count_corpus_file,
    count_frequencies,
    encode,
    read_corpus_lines,
    segment_words,
)


def oracle_segment(text, lowercase=True):
    """Independent interpreter of the v1 rules: locate the alnum core span."""
    out = []
    for chunk in text.split():
        alnum_pos = [k for k, ch in enumerate(chunk) if ch.isalnum()]
        if not alnum_pos:
            out.extend(chunk)
            continue
        a, b = alnum_pos[0], alnum_pos[-1]
        out.extend(chunk[:a])
        core = chunk[a : b + 1]
        out.append(core.lower() if lowercase else core)
        out.extend(chunk[b + 1 :])
    return out


FIXTURE_SENTENCES = [
    "Hello, world!",
    "The quick brown fox jumps over the lazy dog.",
    "Don't stop believing -- hold on to that feeling.",
    'She said, "Never again."',
    "Prices rose 5% in 2021; analysts expected 3.2%.",
    "   Leading and trailing   whitespace   everywhere   ",
    "(Parenthetical remarks) [and brackets] {and braces}!",
    "e-mail addresses like a.b@c.example confuse segmenters.",
    "Ellipses... are tricky...",
    "Hyphenated-words stay hyphenated-words.",
    "C'est la vie, n'est-ce pas?",
    "!!!",
    "A",
    "word",
    "多语言 text mixes scripts, naturally.",
    "Tabs\tand\tnewlines count as whitespace.",
    "quoted 'single' and \"double\" words",
    "trailing#!?$ symbols#!?$",
    "__dunder__ and _private names",
    "numbers 123 mixed42with letters",
]


class TestSegmentation:
    def test_basic_example(self):
        assert segment_words("Hello, world!") == ["hello", ",", "world", "!"]

    def test_empty(self):
        assert segment_words("") == []

    def test_fixture_matches_rule_interpreter(self):
        for sentence in FIXTURE_SENTENCES:
            assert segment_words(sentence) == oracle_segment(sentence), sentence
            assert segment_words(sentence, lowercase=False) == oracle_segment(
                sentence, lowercase=False
            ), sentence

    def test_lowercase_flag(self):
        assert segment_words("Hello", lowercase=False) == ["Hello"]
        assert segment_words("Hello") == ["hello"]

    def test_internal_punctuation_kept(self):
        assert segment_words("don't") == ["don't"]
        assert segment_words("(don't)") == ["(", "don't", ")"]


class TestCounting:
    def test_direct_count(self):
        assert count_frequencies(["a a b"]) == Counter({"a": 2, "b": 1})

    def test_empty_corpus(self):
        assert count_frequencies([]) == Counter()

    def test_thousand_line_fixture_matches_serial_oracle(self):
        rng = np.random.default_rng(42)
        words = [f"tok{i}" for i in range(50)]
        lines = [
            " ".join(rng.choice(words, size=rng.integers(1, 12)))
            + rng.choice(["", ".", "!", " ?"])
            for _ in range(1000)
        ]
        expected = {}
        for line in lines:
            for w in oracle_segment(line):
                expected[w] = expected.get(w, 0) + 1
        assert dict(count_frequencies(lines)) == expected

    def test_order_independent(self):
        lines = ["a b c", "c d", "a a", "e! f?"]
        shuffled = [lines[2], lines[0], lines[3], lines[1]]
        assert count_frequencies(lines) == count_frequencies(shuffled)

    def test_non_text_document_aborts_with_name(self):
        with pytest.raises(ContractError, match="document 1"):
            count_frequencies(["fine", b"bytes not str"])

    def test_unreadable_file_named(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"ok line\n\xff\xfe broken\n")
        with pytest.raises(ContractError, match="bad.txt:2"):
            count_corpus_file(bad)

    def test_file_counting_matches_in_memory(self, tmp_path):
        lines = ["the cat sat.", "the dog ran!"]
        p = tmp_path / "corpus.txt"
        p.write_text("\n".join(lines), encoding="utf-8")
        assert count_corpus_file(p) == count_frequencies(lines)

    def test_lines_split_as_text_mode_reading_splits_them(self, tmp_path):
        # the corpus was read in text mode (universal newlines) before one reader served all
        p = tmp_path / "corpus.txt"
        p.write_bytes("a b\nc\r\nd é\re\n\n\tf \x0cg\n\r\nh".encode("utf-8"))
        with open(p, encoding="utf-8") as fh:
            text_mode = [line.rstrip("\n") for line in fh]
        assert read_corpus_lines(p) == text_mode == ["a b", "c", "d é", "e", "", "\tf \x0cg", "", "h"]


class TestBuildVocabulary:
    def test_tie_broken_lexicographically(self):
        vocab = build_vocabulary({"a": 3, "b": 3, "c": 1}, k=2)
        assert vocab.words == list(SPECIAL_TOKENS) + ["a", "b"]

    def test_k_larger_than_corpus(self):
        vocab = build_vocabulary({"x": 1, "y": 2}, k=10)
        assert vocab.words == list(SPECIAL_TOKENS) + ["y", "x"]
        assert vocab.size == 2 + NUM_SPECIALS

    def test_k_zero_rejected(self):
        with pytest.raises(ContractError):
            build_vocabulary({"a": 1}, k=0)

    def test_special_collision_rejected(self):
        with pytest.raises(ContractError, match=r"\[MASK\]"):
            build_vocabulary({"[MASK]": 5}, k=1)

    def test_ids_dense_and_ordered_by_frequency(self):
        freqs = {f"w{i}": 100 - i for i in range(20)}
        vocab = build_vocabulary(freqs, k=20)
        assert [vocab.id_of[w] for w in vocab.words] == list(range(vocab.size))
        body = vocab.frequency[NUM_SPECIALS:]
        assert list(body) == sorted(body, reverse=True)

    def test_paper_scale_sizes_accepted(self):
        names = [f"w{i:07d}" for i in range(1_900_000)]
        for k in (278_000, 500_000, 1_000_000, 1_900_000):
            freqs = dict.fromkeys(names[:k], 2)
            vocab = build_vocabulary(freqs, k=k)
            assert vocab.size == k + NUM_SPECIALS
            assert vocab.id_of[vocab.words[-1]] == vocab.size - 1
            del freqs, vocab

    def test_deterministic_file_bytes(self, tmp_path):
        freqs = {"b": 2, "a": 2, "zz": 9}
        p1, p2 = tmp_path / "v1.tsv", tmp_path / "v2.tsv"
        build_vocabulary(freqs, k=3).save(p1)
        build_vocabulary(dict(reversed(list(freqs.items()))), k=3).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_file_round_trip(self, tmp_path):
        vocab = build_vocabulary({"hello": 7, "world": 3}, k=5, lowercase=False)
        path = tmp_path / "vocab.tsv"
        vocab.save(path)
        loaded = WordVocab.load(path)
        assert loaded.words == vocab.words
        assert loaded.lowercase is False
        np.testing.assert_array_equal(loaded.frequency, vocab.frequency)
        vocab.save(tmp_path / "again.tsv")
        loaded.save(tmp_path / "loaded.tsv")
        assert (tmp_path / "again.tsv").read_bytes() == (tmp_path / "loaded.tsv").read_bytes()


@pytest.fixture
def small_vocab():
    return build_vocabulary({"hello": 5, "world": 4, "foo": 3, "bar": 2}, k=4)


class TestEncode:
    def test_layout(self, small_vocab):
        seq = encode(["hello"], small_vocab, max_length=5)
        assert list(seq.ids) == [CLS_ID, small_vocab.id_of["hello"], SEP_ID, PAD_ID, PAD_ID]
        assert list(seq.attention_mask) == [1, 1, 1, 0, 0]

    def test_oov_becomes_unk(self, small_vocab):
        seq = encode(["hello", "zzz"], small_vocab, max_length=6)
        assert seq.ids[2] == UNK_ID

    def test_truncation_keeps_510_of_600(self, small_vocab):
        seq = encode(["hello"] * 600, small_vocab, max_length=512)
        n_words = int((seq.ids != PAD_ID).sum()) - 2  # minus CLS and SEP
        assert n_words == 510
        assert seq.ids[511] == SEP_ID
        assert len(seq.ids) == 512

    def test_max_length_too_small(self, small_vocab):
        with pytest.raises(ContractError):
            encode(["hello"], small_vocab, max_length=2)

    def test_all_ids_in_range_and_unk_iff_absent(self, small_vocab):
        words = ["hello", "nope", "bar", "???"]
        seq = encode(words, small_vocab, max_length=10)
        assert seq.ids.max() < small_vocab.size
        body = seq.ids[1 : 1 + len(words)]
        for w, i in zip(words, body):
            assert (i == UNK_ID) == (w not in small_vocab.id_of)


def words_of(ids, vocab):
    """The words of the non-special ids, in order: what encode must preserve."""
    return [vocab.words[i] for i in ids if i >= NUM_SPECIALS]


class TestDecode:
    """encode keeps every in-vocabulary word, in order, read back through vocab.words."""

    def test_round_trip(self, small_vocab):
        words = ["world", "foo", "hello"]
        assert words_of(encode(words, small_vocab, max_length=10).ids, small_vocab) == words

    def test_randomized_round_trip_property(self, small_vocab):
        rng = np.random.default_rng(7)
        in_vocab = small_vocab.words[NUM_SPECIALS:]
        for _ in range(1000):
            n = int(rng.integers(0, 8))
            words = [in_vocab[i] for i in rng.integers(0, len(in_vocab), size=n)]
            got = words_of(encode(words, small_vocab, max_length=10).ids, small_vocab)
            assert got == words

    def test_mask_id_constant(self):
        assert MASK_ID == 4 and SPECIAL_TOKENS[MASK_ID] == "[MASK]"
