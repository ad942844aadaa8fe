"""Vocabulary construction and codec tests."""

import errno
from collections import Counter

import numpy as np
import pytest

from wordlm import vocab as vocab_module
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
    count_frequencies,
    encode,
    read_text_lines,
    segment_words,
)


def oracle_segment(text):
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
        out.append(core.lower())
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
            read_text_lines(bad)

    def test_file_counting_matches_in_memory(self, tmp_path):
        lines = ["the cat sat.", "the dog ran!"]
        p = tmp_path / "corpus.txt"
        p.write_text("\n".join(lines), encoding="utf-8")
        assert count_frequencies(read_text_lines(p)) == count_frequencies(lines)

    def test_lines_split_as_text_mode_reading_splits_them(self, tmp_path):
        # the corpus was read in text mode (universal newlines) before one reader served all
        p = tmp_path / "corpus.txt"
        p.write_bytes("a b\nc\r\nd é\re\n\n\tf \x0cg\n\r\nh".encode("utf-8"))
        with open(p, encoding="utf-8") as fh:
            text_mode = [line.rstrip("\n") for line in fh]
        assert read_text_lines(p) == text_mode == ["a b", "c", "d é", "e", "", "\tf \x0cg", "", "h"]

    def test_leading_byte_order_mark_dropped(self, tmp_path):
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_bytes("the cat\nsat. \ufeffé\n".encode("utf-8"))
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert read_text_lines(marked) == read_text_lines(plain) == ["the cat", "sat. \ufeffé"]
        marked.write_bytes(b"\xef\xbb\xbfok\n\xff broken\n")  # lines are still counted from 1
        with pytest.raises(ContractError, match="marked.txt:2"):
            read_text_lines(marked)

    def test_byte_order_mark_past_the_first_bytes_kept(self, tmp_path):
        # only a file's first three bytes can be its mark; a later one is text
        p = tmp_path / "corpus.txt"
        p.write_bytes(b" \xef\xbb\xbfa\n\xef\xbb\xbfb\n")
        assert read_text_lines(p) == [" \ufeffa", "\ufeffb"]
        p.write_bytes(b"\xef\xbb\xbf\xef\xbb\xbfa\n")  # a second mark is text
        assert read_text_lines(p) == ["\ufeffa"]


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
        # the specials hold ids 0-4 but are not words: id_of maps the corpus words
        assert list(vocab.id_of) == vocab.words[NUM_SPECIALS:]
        assert list(vocab.id_of.values()) == list(range(NUM_SPECIALS, vocab.size))
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
        vocab = build_vocabulary({"hello": 7, "world": 3}, k=5)
        path = tmp_path / "vocab.tsv"
        vocab.save(path)
        loaded = WordVocab.load(path)
        assert loaded.words == vocab.words
        np.testing.assert_array_equal(loaded.frequency, vocab.frequency)
        vocab.save(tmp_path / "again.tsv")
        loaded.save(tmp_path / "loaded.tsv")
        assert (tmp_path / "again.tsv").read_bytes() == (tmp_path / "loaded.tsv").read_bytes()

    def test_failed_save_keeps_previous_vocabulary(self, tmp_path, monkeypatch):
        """A save that the disk cuts off halfway through its bytes leaves the
        previous file byte-identical: a cut at a line boundary would load as a
        smaller vocabulary without error."""
        path = tmp_path / "vocab.tsv"
        build_vocabulary({"alpha": 3, "beta": 2}, k=2).save(path)
        before = path.read_bytes()

        class HalfWritten:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                self.fh.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(vocab_module, "open",
                            lambda file, mode, **kw: HalfWritten(open(file, mode, **kw)),
                            raising=False)
        with pytest.raises(OSError, match="No space left on device"):
            build_vocabulary({"alpha": 3, "beta": 2, "gamma": 1}, k=3).save(path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["vocab.tsv"]

    # lowercasing is the one case rule: a header naming another is refused,
    # whatever words follow it
    @pytest.mark.parametrize("text", [
        "", "hello\t7\n", "#wordvocab v0 lowercase=true\n",
        *[f"#wordvocab v1 lowercase={flag}\n" + "".join(f"{w}\t0\n" for w in SPECIAL_TOKENS)
          for flag in ("false", "TRUE", "maybe", "")],
    ], ids=["empty", "no-header", "other-version", "lowercase=false", "lowercase=TRUE",
            "lowercase=maybe", "lowercase="])
    def test_file_without_the_header_rejected(self, tmp_path, text):
        path = tmp_path / "vocab.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ContractError) as err:
            WordVocab.load(path)
        assert str(err.value) == (f"{path}: not a wordvocab file: first line must be "
                                  "'#wordvocab v1 lowercase=true'")

    def test_frequency_of_another_length_than_the_words_rejected(self):
        with pytest.raises(ContractError, match="frequency array length does not match word list"):
            WordVocab([*SPECIAL_TOKENS, "hello"], [0] * NUM_SPECIALS)

    @pytest.mark.parametrize("freq,problem", [("many", "is not an integer"), ("-7", "is negative")],
                             ids=["not-an-integer", "negative"])
    def test_frequency_other_than_a_count_rejected(self, tmp_path, freq, problem):
        path = tmp_path / "vocab.tsv"
        build_vocabulary({"w2": 9, "w3": 125}, k=2).save(path)
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace("w3\t125", f"w3\t{freq}"), encoding="utf-8")
        with pytest.raises(ContractError) as err:
            WordVocab.load(path)
        assert str(err.value) == f"{path}:7: frequency {freq!r} {problem}"


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

    def test_case_rule_follows_the_vocabulary(self):
        lower = build_vocabulary({"w2": 3, "(": 1}, k=2)
        seq = encode(["W2", "w2", "(", "Zz"], lower, max_length=6)
        assert list(seq.ids[1:5]) == [lower.id_of["w2"], lower.id_of["w2"], lower.id_of["("], UNK_ID]
        assert lower.lookup("W2") == lower.id_of["w2"] and lower.lookup("W3") == UNK_ID

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
        # a lowercase vocabulary looks a capitalized word up lowercased
        cased = {"Hello": "hello", "BAR": "bar"}
        # the specials' spellings, the cloze blank and unknown words are not words
        others = [*SPECIAL_TOKENS, "[BLANK]", "zzz", "Zzz"]
        drawn = in_vocab + list(cased) + others
        for _ in range(1000):
            n = int(rng.integers(0, 9))
            words = [drawn[i] for i in rng.integers(0, len(drawn), size=n)]
            seq = encode(words, small_vocab, max_length=10)
            assert words_of(seq.ids, small_vocab) == [cased.get(w, w) for w in words
                                                      if w not in others]
            assert [i == UNK_ID for i in seq.ids[1 : n + 1]] == [w in others for w in words]
            assert seq.attention_mask.dtype == np.int64
            np.testing.assert_array_equal(seq.attention_mask, seq.ids != PAD_ID)
            assert seq.attention_mask.sum() == n + 2  # [CLS], the words, [SEP]

    def test_mask_id_constant(self):
        assert MASK_ID == 4 and SPECIAL_TOKENS[MASK_ID] == "[MASK]"
