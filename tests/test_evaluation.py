"""Probing, cloze scoring and JSON-lines loading tests."""

import json
import re
import tracemalloc

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
    cloze_accuracy,
    load_records,
    probe_topk,
    score_cloze,
)
from wordlm.model import ModelConfig, WordBertModel
from wordlm.vocab import PAD_ID, UNK_ID, build_vocabulary, segment_words


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

    def test_unknown_bucket_rejected(self, buckets):
        with pytest.raises(ContractError, match="unknown bucket 'Common'"):
            build_probe_set(["hi0 lo1"], buckets, "Common", p=1.0, rng=np.random.default_rng(0))

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
        # a gold word spelled like a special token is no vocabulary word either
        probes = [ProbeExample(["hi0", "[MASK]"], [1], ["[MASK]"], "Rare")]
        report = probe_topk(model, vocab, probes, ks=(vocab.size,))
        assert report["total"]["Rare"] == report["oov"]["Rare"] == 1
        assert report["accuracy"]["Rare"][vocab.size] == 0.0

    def test_gold_word_follows_the_vocabulary_case_rule(self, probe_model_and_vocab):
        model, vocab = probe_model_and_vocab
        model.params["mlm.bias"].data[vocab.id_of["lo1"]] = 100.0
        probes = [ProbeExample(["HI0", "LO1"], [1], ["LO1"], "Low")]
        report = probe_topk(model, vocab, probes, ks=(1,))
        assert report["total"]["Low"] == 1 and report["oov"]["Low"] == 0
        assert report["accuracy"]["Low"][1] == 1.0

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

    def test_option_follows_the_vocabulary_case_rule(self):
        model, vocab = self.make_model_vocab()
        model.params["mlm.bias"].data[vocab.id_of["opt3"]] = 50.0
        item = ClozeItem(["Opt0", BLANK_SENTINEL, "opt1"], ["opt5", "OPT3", "opt6", "opt7"], 1)
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
        # an option spelled like a special token is out of vocabulary, whatever
        # that token's own logit
        model.params["mlm.bias"].data[PAD_ID] = 100.0
        item = ClozeItem(["opt0", BLANK_SENTINEL], ["opt1", "[PAD]", "opt2", "opt3"], 0)
        assert score_cloze(model, vocab, item) != 1

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

    @staticmethod
    def peak(layers=1, words=8):
        """``tracemalloc`` peak of one ``score_cloze`` call, with a vocabulary
        of ``words`` words and ``layers`` encoder layers."""
        names = [f"opt{i}" for i in range(words)]
        vocab = build_vocabulary(dict.fromkeys(names, 10), k=words)
        passage = [str(w) for w in np.random.default_rng(64).choice(names[:8], size=40)]
        passage[20] = BLANK_SENTINEL
        item = ClozeItem(passage, names[:4], 0)
        model = WordBertModel(
            ModelConfig(vocab_size=vocab.size, num_layers=layers, num_heads=2, hidden=32,
                        embed_dim=32, max_positions=48),
            seed=65,
        )
        tracemalloc.start()
        score_cloze(model, vocab, item)
        _, top = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return top

    def test_peak_memory_does_not_grow_with_depth(self):
        """Scoring keeps no backward: each layer's activations go as soon as
        the layer returns, so an 8-layer model peaks like a 1-layer one."""
        assert self.peak(layers=8) < 1.2 * self.peak(layers=1)

    def test_peak_memory_does_not_grow_with_vocabulary(self):
        """The options are scored through the restricted head: no [H, V] table
        and no V logits, so a 50k-word vocabulary peaks like a 5k-word one."""
        assert self.peak(words=50_000) < 1.2 * self.peak(words=5_000)

    @pytest.mark.parametrize("variant", ["direct", "projected"])
    def test_option_logits_match_full_vocabulary_columns(self, monkeypatch, variant):
        """The known options' logits equal their full-table columns up to the
        last bits of a narrower product; an out-of-vocabulary option scores
        -inf whatever the [UNK] column holds, so the pick is the argmax of the
        known options' full-table columns."""
        words = [f"opt{i}" for i in range(40)]
        vocab = build_vocabulary(dict.fromkeys(words, 10), k=len(words))
        projected = variant == "projected"
        embed = 6 if projected else 16
        vectors = np.random.default_rng(66).standard_normal((vocab.size, embed)).astype(np.float32)
        model = WordBertModel(
            ModelConfig(vocab_size=vocab.size, num_layers=1, num_heads=2, hidden=16,
                        embed_dim=embed, max_positions=12, variant=variant,
                        freeze_embeddings=projected, dropout=0.0),
            seed=66, word_vectors=vectors if projected else None,
        )
        model.params["mlm.bias"].data[UNK_ID] = 100.0
        scored = []
        restricted = WordBertModel.mlm_logits

        def spy(self, hidden, ids):
            logits, backward = restricted(self, hidden, ids)
            scored.append((hidden, list(ids), logits))
            return logits, backward

        monkeypatch.setattr(WordBertModel, "mlm_logits", spy)
        rng = np.random.default_rng(67)
        for trial in range(20):
            options = [str(w) for w in rng.choice(words, size=4, replace=False)]
            oov = trial % 4 if trial % 2 else None
            if oov is not None:
                options[oov] = "nowhere"
            passage = [str(w) for w in rng.choice(words, size=6)]
            passage[int(rng.integers(0, 6))] = BLANK_SENTINEL
            pick = score_cloze(model, vocab, ClozeItem(passage, options, 0))
            hidden, ids, logits = scored.pop()
            known = [k for k in range(4) if k != oov]
            assert ids == [vocab.id_of[options[k]] for k in known]
            full = model.full_vocab_logits(hidden, model.output_table())[:, ids]
            np.testing.assert_allclose(logits, full, rtol=0, atol=1e-5)
            assert pick == known[int(np.argmax(full[0]))]

    def test_item_validation(self):
        with pytest.raises(ContractError):
            ClozeItem(["a", "b"], ["w", "x", "y", "z"], 0)  # no blank
        with pytest.raises(ContractError):
            ClozeItem([BLANK_SENTINEL], ["w", "w", "y", "z"], 0)  # dup options
        with pytest.raises(ContractError):
            ClozeItem([BLANK_SENTINEL], ["w", "x", "y", "z"], 4)


@pytest.mark.parametrize("n", [1, 6])
def test_output_table_built_once_per_scored_query(n, monkeypatch, probe_model_and_vocab):
    """``probe_topk`` builds the [H, V] output table once per example, however
    many positions it masks; ``cloze_accuracy`` builds none and scores no
    full-vocabulary row."""
    model, vocab = probe_model_and_vocab
    builds, products = [], []
    build = WordBertModel.output_table
    full = WordBertModel.full_vocab_logits

    def counted(self):
        builds.append(self)
        return build(self)

    def counted_product(self, hidden, table):
        products.append(self)
        return full(self, hidden, table)

    monkeypatch.setattr(WordBertModel, "output_table", counted)
    monkeypatch.setattr(WordBertModel, "full_vocab_logits", counted_product)
    probes = [ProbeExample(["lo1", "hi0", "lo1"], [0, 2], ["lo1", "lo1"], "Low")] * n
    report = probe_topk(model, vocab, probes, ks=(1,))
    assert report["total"]["Low"] == 2 * n and builds == [model] * n
    builds.clear()
    products.clear()
    item = ClozeItem(["hi0", BLANK_SENTINEL], ["lo1", "hi0", "hi1", "hi2"], 0)
    cloze_accuracy(model, vocab, [item] * n)
    assert builds == [] and products == []


class TestJsonl:
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

    @pytest.mark.parametrize(
        "line,name",
        [
            # json.loads alone keeps the last value: this item would be scored against answer 3
            ('{"passage_words": ["[BLANK]"], "options": ["w", "x", "y", "z"], '
             '"answer_index": 0, "answer_index": 3}', "answer_index"),
        ],
        ids=["cloze"],
    )
    def test_field_given_twice_rejected(self, tmp_path, line, name):
        path = tmp_path / "twice.jsonl"
        path.write_text("\n" + line + "\n")  # the blank first line is skipped but counted
        where = re.escape(f"{path}:2:")
        with pytest.raises(ContractError, match=f"^{where} field '{name}' given twice$"):
            load_records(path, ClozeItem)

    def test_invalid_json_named_with_line(self, tmp_path):
        path = tmp_path / "bad2.jsonl"
        path.write_text('{"passage_words": ["[BLANK]"], "options": ["w", "x", "y", "z"], '
                        '"answer_index": 0}\nnot json\n')
        with pytest.raises(ContractError, match="bad2.jsonl:2"):
            load_records(path, ClozeItem)

    @pytest.mark.parametrize("answer", [True, 1.0, 1.5],
                             ids=["cloze-bool", "cloze-whole-float", "cloze-float"])
    def test_integer_fields_reject_bools_and_floats(self, tmp_path, answer):
        path = tmp_path / "ints.jsonl"
        path.write_text(json.dumps({"passage_words": ["a", "[BLANK]"],
                                    "options": ["w", "x", "y", "z"], "answer_index": answer}) + "\n")
        with pytest.raises(ContractError, match="ints.jsonl:1: .*integer"):
            load_records(path, ClozeItem)
