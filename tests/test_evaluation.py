"""Probing, cloze scoring and JSON-lines loading tests."""

import json

import numpy as np
import pytest

from wordlm.errors import ContractError
from wordlm.evaluation import (
    BUCKET_NAMES,
    BLANK_SENTINEL,
    ClozeItem,
    FrequencyBuckets,
    ProbeExample,
    bucket_of,
    build_probe_set,
    load_records,
    probe_topk,
    save_probe_examples,
    score_cloze,
)
from wordlm.model import ModelConfig, WordBertModel
from wordlm.vocab import build_vocabulary, segment_words


@pytest.fixture
def buckets():
    freqs = {}
    for i in range(4):
        freqs[f"hi{i}"] = 5000
        freqs[f"md{i}"] = 500
        freqs[f"lo{i}"] = 50
        freqs[f"rr{i}"] = 1
    return FrequencyBuckets(freqs)


class TestBucketOf:
    def test_boundaries_inclusive_upward(self, buckets):
        b = FrequencyBuckets({"a": 3000, "b": 2999, "c": 300, "d": 299, "e": 3, "f": 2})
        assert bucket_of("a", b) == "High"
        assert bucket_of("b", b) == "Medium"
        assert bucket_of("c", b) == "Medium"
        assert bucket_of("d", b) == "Low"
        assert bucket_of("e", b) == "Low"
        assert bucket_of("f", b) == "Rare"

    def test_unseen_word_is_rare(self, buckets):
        assert bucket_of("never-seen", buckets) == "Rare"

    def test_partition_property(self):
        b = FrequencyBuckets({f"w{f}": f for f in range(0, 5000, 7)})
        for f in range(0, 5000, 7):
            assert sum(bucket_of(f"w{f}", b) == name for name in BUCKET_NAMES) == 1

    def test_threshold_order_enforced(self):
        with pytest.raises(ContractError):
            FrequencyBuckets({}, high=10, medium=10, low=3)


def probe_corpus(n=500, seed=60):
    rng = np.random.default_rng(seed)
    pool = [f"hi{i}" for i in range(4)] + [f"md{i}" for i in range(4)] + [
        f"lo{i}" for i in range(4)
    ] + [f"rr{i}" for i in range(4)]
    return [" ".join(rng.choice(pool, size=rng.integers(4, 10))) for _ in range(n)]


class TestBuildProbeSet:
    def test_sentence_without_bucket_words_dropped(self, buckets):
        examples = build_probe_set(
            ["lo0 lo1 lo2"], buckets, "High", p=1.0, rng=np.random.default_rng(0)
        )
        assert examples == []

    def test_p_one_masks_every_member(self, buckets):
        examples = build_probe_set(
            ["hi0 lo1 hi2 md3 hi1"], buckets, "High", p=1.0, rng=np.random.default_rng(1)
        )
        assert len(examples) == 1
        assert examples[0].masked_positions == [0, 2, 4]
        assert examples[0].gold_words == ["hi0", "hi2", "hi1"]
        assert examples[0].bucket == "High"

    def test_counts_match_single_pass_oracle(self, buckets):
        lines = probe_corpus()
        got_counts = {}
        for b_idx, bucket in enumerate(BUCKET_NAMES):
            examples = build_probe_set(
                lines, buckets, bucket, p=0.15, rng=np.random.default_rng(100 + b_idx)
            )
            got_counts[bucket] = sum(len(ex.masked_positions) for ex in examples)

        # independent single pass: one rng stream per bucket, replayed in corpus order
        streams = {b: np.random.default_rng(100 + i) for i, b in enumerate(BUCKET_NAMES)}
        oracle_counts = dict.fromkeys(BUCKET_NAMES, 0)
        for line in lines:
            for w in segment_words(line):
                b = bucket_of(w, buckets)
                if streams[b].random() < 0.15:
                    oracle_counts[b] += 1
        assert got_counts == oracle_counts
        assert sum(got_counts.values()) == sum(oracle_counts.values())


@pytest.fixture
def probe_model_and_vocab(buckets):
    counts = {w: int(f) for w, f in buckets.reference_frequencies.items()}
    vocab = build_vocabulary(counts, k=len(counts))
    model = WordBertModel(
        ModelConfig(vocab_size=vocab.size, num_layers=1, num_heads=2, hidden=8,
                    embed_dim=8, max_positions=16, dropout=0.0),
        seed=61,
    )
    return model, vocab


class TestProbeTopk:
    def test_k_equal_vocab_size_is_perfect_on_in_vocab(self, buckets, probe_model_and_vocab):
        model, vocab = probe_model_and_vocab
        probes = build_probe_set(
            probe_corpus(50), buckets, "Low", p=0.5, rng=np.random.default_rng(2)
        )
        report = probe_topk(model, vocab, probes, ks=(vocab.size,))
        assert report["accuracy"]["Low"][vocab.size] == 1.0

    def test_rigged_bias_gives_top1(self, buckets, probe_model_and_vocab):
        model, vocab = probe_model_and_vocab
        gold_id = vocab.id_of["lo1"]
        model.params["mlm.bias"].data[gold_id] = 100.0
        probes = [ProbeExample(["lo1", "hi0"], [0], ["lo1"], "Low")]
        report = probe_topk(model, vocab, probes, ks=(1,))
        assert report["accuracy"]["Low"][1] == 1.0

    def test_accuracy_non_decreasing_in_k(self, buckets, probe_model_and_vocab):
        model, vocab = probe_model_and_vocab
        report_all = {}
        for bucket in BUCKET_NAMES:
            probes = build_probe_set(
                probe_corpus(150), buckets, bucket, p=0.3, rng=np.random.default_rng(3)
            )
            report = probe_topk(model, vocab, probes, ks=(1, 5, 10))
            accs = report["accuracy"][bucket]
            assert accs[1] <= accs[5] <= accs[10]
            report_all[bucket] = report["total"][bucket]
        assert all(n > 0 for n in report_all.values())

    def test_ties_rank_lower_ids_first(self, buckets, probe_model_and_vocab):
        model, vocab = probe_model_and_vocab
        model.params["embedding.word"].data[:] = 0.0
        model.params["mlm.bias"].data[:] = 0.0  # every logit is 0
        for gold_id in (5, vocab.size // 2, vocab.size - 1):
            gold = vocab.words[gold_id]
            probes = [ProbeExample([gold, "hi0"], [0], [gold], "Low")]
            ks = (gold_id, gold_id + 1)
            report = probe_topk(model, vocab, probes, ks=ks)
            assert report["accuracy"]["Low"] == {gold_id: 0.0, gold_id + 1: 1.0}

    def test_oov_gold_counts_as_miss_and_tallied(self, buckets, probe_model_and_vocab):
        model, vocab = probe_model_and_vocab
        probes = [ProbeExample(["mystery", "hi0"], [0], ["mystery"], "Rare")]
        report = probe_topk(model, vocab, probes, ks=(vocab.size,))
        assert report["oov"]["Rare"] == 1
        assert report["accuracy"]["Rare"][vocab.size] == 0.0

    def test_zero_shot_leaves_parameters_untouched(self, buckets, probe_model_and_vocab):
        model, vocab = probe_model_and_vocab
        before = model.checksum()
        probes = build_probe_set(
            probe_corpus(30), buckets, "Medium", p=0.5, rng=np.random.default_rng(4)
        )
        probe_topk(model, vocab, probes, ks=(1, 5))
        assert model.checksum() == before


class TestScoreCloze:
    def make_model_vocab(self):
        words = {f"opt{i}": 10 for i in range(8)}
        vocab = build_vocabulary(words, k=8)
        model = WordBertModel(
            ModelConfig(vocab_size=vocab.size, num_layers=1, num_heads=2, hidden=8,
                        embed_dim=8, max_positions=12, dropout=0.0),
            seed=62,
        )
        return model, vocab

    def test_rigged_option_wins(self):
        model, vocab = self.make_model_vocab()
        model.params["mlm.bias"].data[vocab.id_of["opt3"]] = 50.0
        item = ClozeItem(["opt0", BLANK_SENTINEL, "opt1"], ["opt5", "opt3", "opt6", "opt7"], 1)
        assert score_cloze(model, vocab, item) == 1

    def test_exact_tie_picks_lowest_index(self):
        model, vocab = self.make_model_vocab()
        emb = model.params["embedding.word"].data
        ids = [vocab.id_of[f"opt{i}"] for i in range(4)]
        emb[ids] = emb[ids[0]]  # identical rows => identical logits
        model.params["mlm.bias"].data[ids] = 0.0
        item = ClozeItem(["opt5", BLANK_SENTINEL], ["opt0", "opt1", "opt2", "opt3"], 2)
        assert score_cloze(model, vocab, item) == 0

    def test_oov_option_scores_minus_inf(self):
        model, vocab = self.make_model_vocab()
        model.params["mlm.bias"].data[:] = -5.0  # every real word below zero... still finite
        item = ClozeItem(["opt0", BLANK_SENTINEL], ["nope", "opt1", "opt2", "opt3"], 1)
        chosen = score_cloze(model, vocab, item)
        assert chosen != 0

    def test_all_options_oov_is_error(self):
        model, vocab = self.make_model_vocab()
        item = ClozeItem(["opt0", BLANK_SENTINEL], ["a", "b", "c", "d"], 0)
        with pytest.raises(ContractError, match="out of vocabulary"):
            score_cloze(model, vocab, item)

    def test_invariant_to_constant_logit_shift(self):
        model, vocab = self.make_model_vocab()
        rng = np.random.default_rng(63)
        items = [
            ClozeItem(
                [rng.choice([f"opt{i}" for i in range(8)]), BLANK_SENTINEL, "opt1"],
                list(rng.permutation([f"opt{i}" for i in range(4)])),
                int(rng.integers(0, 4)),
            )
            for _ in range(20)
        ]
        before = [score_cloze(model, vocab, it) for it in items]
        model.params["mlm.bias"].data[:] += 7.5  # shifts every vocabulary logit
        after = [score_cloze(model, vocab, it) for it in items]
        assert before == after

    def test_item_validation(self):
        with pytest.raises(ContractError):
            ClozeItem(["a", "b"], ["w", "x", "y", "z"], 0)  # no blank
        with pytest.raises(ContractError):
            ClozeItem([BLANK_SENTINEL], ["w", "w", "y", "z"], 0)  # dup options
        with pytest.raises(ContractError):
            ClozeItem([BLANK_SENTINEL], ["w", "x", "y", "z"], 4)


class TestJsonl:
    def test_probe_round_trip(self, tmp_path, buckets):
        examples = build_probe_set(
            probe_corpus(20), buckets, "Low", p=0.5, rng=np.random.default_rng(5)
        )
        path = tmp_path / "probes.jsonl"
        save_probe_examples(examples, path)
        loaded = load_records(path, ProbeExample)
        assert loaded == examples

    def test_cloze_loading(self, tmp_path):
        path = tmp_path / "cloze.jsonl"
        path.write_text(
            '{"passage_words": ["a", "[BLANK]", "c"], "options": ["w", "x", "y", "z"], "answer_index": 2}\n'
        )
        items = load_records(path, ClozeItem)
        assert items[0].answer_index == 2

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"passage_words": ["[BLANK]"], "options": ["w", "x", "y", "z"], '
                        '"answer_index": 0, "extra": 1}\n')
        with pytest.raises(ContractError, match="unknown fields"):
            load_records(path, ClozeItem)

    def test_invalid_json_named_with_line(self, tmp_path):
        path = tmp_path / "bad2.jsonl"
        path.write_text('{"passage_words": ["[BLANK]"], "options": ["w", "x", "y", "z"], '
                        '"answer_index": 0}\nnot json\n')
        with pytest.raises(ContractError, match="bad2.jsonl:2"):
            load_records(path, ClozeItem)

    @pytest.mark.parametrize(
        "cls,record",
        [
            (ClozeItem, {"passage_words": ["a", "[BLANK]"], "options": ["w", "x", "y", "z"],
                         "answer_index": True}),
            (ClozeItem, {"passage_words": ["a", "[BLANK]"], "options": ["w", "x", "y", "z"],
                         "answer_index": 1.0}),
            (ClozeItem, {"passage_words": ["a", "[BLANK]"], "options": ["w", "x", "y", "z"],
                         "answer_index": 1.5}),
            (ProbeExample, {"words": ["a", "b"], "masked_positions": [False, True],
                            "gold_words": ["a", "b"], "bucket": "Low"}),
        ],
        ids=["cloze-bool", "cloze-whole-float", "cloze-float", "probe-bools"],
    )
    def test_integer_fields_reject_bools_and_floats(self, tmp_path, cls, record):
        path = tmp_path / "ints.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ContractError, match="ints.jsonl:1: .*integer"):
            load_records(path, cls)

    @pytest.mark.parametrize(
        "record,message",
        [
            ({"words": "cat", "masked_positions": [0], "gold_words": ["c"], "bucket": "Low"},
             "words must be a list of strings, got 'cat'"),
            ({"words": ["cat"], "masked_positions": 0, "gold_words": ["cat"], "bucket": "Low"},
             "masked_positions must be a list of integers, got 0"),
            ({"words": ["cat"], "masked_positions": [0], "gold_words": [None], "bucket": "Low"},
             "gold_words must be a list of strings, got [None]"),
            ({"words": ["cat"], "masked_positions": [0], "gold_words": ["cat"], "bucket": ["Low"]},
             "bucket must be a string, got ['Low']"),
        ],
        ids=["words-string", "positions-int", "gold-null-item", "bucket-list"],
    )
    def test_probe_fields_of_the_wrong_json_type_rejected(self, tmp_path, record, message):
        # the cloze cases run through the CLI in test_cli
        path = tmp_path / "typed.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ContractError) as err:
            load_records(path, ProbeExample)
        assert str(err.value) == f"{path}:1: {message}"
