"""The command-line cases: one table of ``wordlm`` command lines and what each
prints and returns.

A row is ``Case(id, setup, argv, code, stdout, stderr, files)``. ``setup``
names a directory of ``SETUPS``, built once per test module; each row runs in
a copy of it, with ``files`` written in, as its working directory, so ``argv``
names files relative to it. ``stdout`` and ``stderr`` are the lines printed,
without the last newline: a string is matched exactly, a compiled pattern in
full, and ``""`` means nothing was printed. For exit 2, ``stderr`` is
argparse's last line, after its usage text. The runner in ``test_cli.py``
checks every row the same way: the exit code, both streams, that the command
wrote nothing into the working directory and raised no warning.

``CASES`` groups the rows by the pytest name they run under, ``Class::test``;
a row's id is its parameter id there, and a group of rows without ids is one
test. The names and ids are those of the hand-written tests the table
replaced, the ``-keysN`` suffixes of their generated ids included, so that a
case keeps its history.
"""

import io
import json
import re
import zipfile
from typing import NamedTuple

import numpy as np

from wordlm.cli import main

TOY_CFG = """\
model.layers = 1
model.heads = 2
model.hidden = 8
model.max_positions = 8
model.dropout = 0.0
train.peak_lr = 1e-3
train.warmup_steps = 2
train.total_steps = 12
train.batch_size = 4
train.seed = 3
train.sample_size = 50
eval.threshold_high = 20
eval.threshold_medium = 10
eval.threshold_low = 3
"""

WIDTH = 6  # of the projected setup's word vectors; model.hidden is 8
SPECIALS = ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"]


def _npy(array) -> bytes:
    buffer = io.BytesIO()
    np.lib.format.write_array(buffer, array)
    return buffer.getvalue()


def npz(**members) -> bytes:
    """An npz archive holding an ``<name>.npy`` member per keyword: an array,
    or bytes written as they are."""
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        for name, member in members.items():
            archive.writestr(f"{name}.npy", member if isinstance(member, bytes) else _npy(member))
    return buffer.getvalue()


def with_rows(array, values):
    """``array`` with each row ``i`` of ``values`` set to ``values[i]``."""
    for row, value in values.items():
        array[row] = value
    return array


def vocab_text(words, lowercase="true") -> str:
    return f"#wordvocab v1 lowercase={lowercase}\n" + "".join(f"{w}\t1\n" for w in words)


def item(passage, options=("moon", "rain", "wind", "fog"), answer=0) -> str:
    """A cloze JSONL line."""
    return json.dumps({"passage_words": passage, "options": list(options),
                       "answer_index": answer}) + "\n"


def negative_opt_steps(work) -> bytes:
    """The trained checkpoint with every ``opt_step`` line set to -3, so that
    they still agree with one another."""
    manifest, payload = (work / "run" / "checkpoint.ckpt").read_bytes().split(b"---\n", 1)
    manifest, edited = re.subn(rb"(?m)^(opt_step \S+) \d+$", rb"\1 -3", manifest)
    assert edited > 1, edited
    return manifest + b"---\n" + payload


# ---------------------------------------------------------------------------
# setups
# ---------------------------------------------------------------------------


def build_toy(work):
    """A 42-line corpus of 8 words, rarer ones last for the probe's buckets,
    and a 1-layer config that trains it in 12 steps."""
    words = ["sun", "moon", "star", "cloud", "rain", "wind", "snow", "fog"]
    rng = np.random.default_rng(70)
    lines = [" ".join(rng.choice(words[:6], size=rng.integers(3, 6))) for _ in range(40)]
    lines += ["snow fog snow", "fog snow wind"]
    (work / "corpus.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (work / "toy.cfg").write_text(TOY_CFG, encoding="utf-8")


def build_vocab(work):
    """The toy setup and ``vocab.tsv``: its 8 words and the 5 specials."""
    build_toy(work)
    _run(["build-vocab", "--corpus", work / "corpus.txt", "--k", "50", "--out", work / "vocab.tsv"])


def build_trained(work):
    """The vocabulary setup and ``run/``: the toy config trained on the corpus."""
    build_vocab(work)
    _run(["pretrain", "--config", work / "toy.cfg", "--corpus", work / "corpus.txt",
          "--vocab", work / "vocab.tsv", "--out", work / "run"])


def build_projected(work):
    """The vocabulary setup, ``vectors.npz`` (a row per word, ``WIDTH`` wide)
    and ``pairs.npz`` (20 pairs of ``WIDTH``- and ``model.hidden``-wide rows)."""
    build_vocab(work)
    rng = np.random.default_rng(72)
    np.savez(work / "vectors.npz", vectors=rng.standard_normal((13, WIDTH)))
    np.savez(work / "pairs.npz", v_in=rng.standard_normal((20, WIDTH)),
             v_out=rng.standard_normal((20, 8)))


def _run(argv):
    assert main([str(word) for word in argv]) == 0, argv


SETUPS = {"toy": build_toy, "vocab": build_vocab, "trained": build_trained,
          "projected": build_projected}


# ---------------------------------------------------------------------------
# command lines
# ---------------------------------------------------------------------------


def cmd(base, *extra, **flags):
    """``base`` with the value of each ``--flag`` of ``flags`` (``word_vectors``
    for ``--word-vectors``) replaced, or appended where ``base`` has no such
    flag, then ``extra``."""
    words = list(base)
    for name, value in flags.items():
        flag = "--" + name.replace("_", "-")
        if flag in words:
            words[words.index(flag) + 1] = value
        else:
            words += [flag, value]
    return words + list(extra)


def sets(*settings):
    return [word for setting in settings for word in ("--set", setting)]


PRETRAIN = ["pretrain", "--config", "toy.cfg", "--corpus", "corpus.txt", "--vocab", "vocab.tsv",
            "--out", "out"]
# a corpus that does not exist shows that a refusal comes before the corpus is read
BUILD_VOCAB = ["build-vocab", "--corpus", "none.txt", "--k", "5", "--out", "v.tsv"]
PRETRAIN_NO_CORPUS = cmd(PRETRAIN, corpus="none.txt")
PRETRAIN_VECTORS = cmd(PRETRAIN_NO_CORPUS, word_vectors="vectors.npz")
PRETRAIN_PAIRS = cmd(PRETRAIN_VECTORS, pairs="bad.npz")
# none of the inputs exists: a refusal comes before any is read
PROBE_NOTHING = ["probe", "--config", "toy.cfg", "--checkpoint", "none.ckpt", "--vocab", "none.tsv",
                 "--corpus", "none.txt"]
PROBE = cmd(PROBE_NOTHING, checkpoint="run/checkpoint.ckpt", vocab="vocab.tsv", corpus="corpus.txt")
CLOZE_NOTHING = ["eval-cloze", "--checkpoint", "none.ckpt", "--vocab", "none.tsv", "--items", "bad"]
CLOZE = cmd(CLOZE_NOTHING, checkpoint="run/checkpoint.ckpt", vocab="vocab.tsv", items="cloze.jsonl")
PARAM_COUNT = ["param-count", "--config", "toy.cfg", "--vocab-size", "13"]

CLOZE_ITEM = '{"passage_words": ["sun", "[BLANK]"], "options": ["moon", "rain", "wind", "fog"], '
GOOD_ITEM = item(["sun", "[BLANK]"])
INT_AT_1 = "wordlm: error: bad:1: answer_index must be an integer, got "
INVALID_CHOICE = r"wordlm: error: argument command: invalid choice: '{}' \(choose from .*\)"
PAIR_SHAPES = ("arrays 'v_in' and 'v_out' have shapes {} and {}, expected "
               f"[N, {WIDTH}] and [N, 8] with the same N >= 1: the vectors' width and model.hidden")
CONFIG = "wordlm: config error: "
UNKNOWN = CONFIG + "unknown key '{}' (command line)"
THRESHOLDS = (CONFIG + "thresholds must satisfy eval.threshold_high > eval.threshold_medium > "
              "eval.threshold_low > 0, got {}")
# BERT's masking recipe, the neighbor count and the probe's mask rate and top-k
# list are constants in the code: each key is unknown, even at the code's value
RECIPE_KEYS = [("train.mask_ratio", "0.15"), ("train.replace_mask", "0.8"),
               ("train.replace_random", "0.1"), ("train.keep_original", "0.1"),
               ("train.neighbor_k", "10"), ("eval.mask_probability", "0.15"),
               ("eval.topk", "1,5,10")]


class Case(NamedTuple):
    id: str | None
    setup: str
    argv: list
    code: int
    stdout: str | re.Pattern
    stderr: str | re.Pattern
    files: dict = {}  # name: text, bytes, or a function of the working directory returning bytes


rx = re.compile


def _setting_rows(base, setup, rows):
    """Exit-3 rows of ``base`` run with ``--set`` of each space-separated setting."""
    return [Case(f"{settings}-keys{i}", setup, cmd(base, *sets(*settings.split())), 3, "", stderr)
            for i, (settings, stderr) in enumerate(rows)]


CASES: dict[str, list[Case]] = {

    # -- build-vocab -------------------------------------------------------
    "TestBuildVocab::test_k_below_one_refused_before_the_corpus": [
        Case(f"k{k}", "toy", cmd(BUILD_VOCAB, k=k), 1, "",
             f"wordlm: error: --k must be >= 1, got {k}") for k in ("0", "-1")
    ],

    # -- pretrain: settings ------------------------------------------------
    "TestPretrain::test_invalid_config_exits_3": [
        Case(None, "vocab", cmd(PRETRAIN, config="bad.cfg"), 3, "",
             CONFIG + "unknown key 'model.depth' (bad.cfg:15)",
             {"bad.cfg": TOY_CFG + "model.depth = 9\n"}),
    ],
    "TestPretrain::test_invalid_setting_exits_3_before_output": _setting_rows(PRETRAIN, "vocab", [
        # the masking recipe is BERT's, fixed in training.py
        ("train.mask_ratio=2", UNKNOWN.format("train.mask_ratio")),
        ("train.replace_mask=0.5", UNKNOWN.format("train.replace_mask")),
        ("train.warmup_steps=12", CONFIG + "train.warmup_steps 12 must be < train.total_steps 12"),
        ("train.batch_size=0", CONFIG + "train.batch_size must be positive"),
        ("model.hidden=15", CONFIG + "model.hidden 15 not divisible by model.heads 2"),
        ("model.dropout=1.5", CONFIG + "model.dropout 1.5 outside [0, 1)"),
        ("model.variant=bogus", UNKNOWN.format("model.variant")),
        # the window is model.max_positions
        ("train.max_length=20", UNKNOWN.format("train.max_length")),
        ("vocab.k=3", UNKNOWN.format("vocab.k")),
        ("model.gelu_approx=false", UNKNOWN.format("model.gelu_approx")),  # there is one GELU
        # the neighbors rule is reported together with the views' violations
        ("train.use_neighbors=true train.batch_size=0",
         CONFIG + "train.batch_size must be positive\n"
         + CONFIG + "train.use_neighbors = true needs --word-vectors"),
        # the neighbor index is built once, so the word table it ranks must not train
        ("train.use_neighbors=true", CONFIG + "train.use_neighbors = true needs --word-vectors"),
        ("train.max_length=2", UNKNOWN.format("train.max_length")),
        # every view's violations are reported by one run
        ("train.warmup_steps=12 train.batch_size=0 model.heads=3",
         CONFIG + "train.warmup_steps 12 must be < train.total_steps 12\n"
         + CONFIG + "train.batch_size must be positive\n"
         + CONFIG + "model.hidden 8 not divisible by model.heads 3"),
        ("model.max_positions=2", CONFIG + "model.max_positions 2 must be >= 3"),  # [CLS] w [SEP]
        # --word-vectors picks the word table, and train.seed seeds the initialization
        ("model.variant=projected", UNKNOWN.format("model.variant")),
        ("model.embed_dim=8", UNKNOWN.format("model.embed_dim")),
        ("model.freeze_embeddings=true", UNKNOWN.format("model.freeze_embeddings")),
        ("model.seed=3", UNKNOWN.format("model.seed")),
        *[(f"{key}={value}", UNKNOWN.format(key)) for key, value in RECIPE_KEYS],
        # zero layers is a legal model: the embedding alone
        ("model.layers=-1", CONFIG + "model.layers -1 must be >= 0"),
        ("model.hidden=0", CONFIG + "model.hidden 0 must be positive"),
        ("model.hidden=-8", CONFIG + "model.hidden -8 must be positive"),
        # a NaN or infinite learning rate is a setting's fault, not a batch's
        ("train.peak_lr=nan", CONFIG + "train.peak_lr must be positive and finite"),
        ("train.peak_lr=inf", CONFIG + "train.peak_lr must be positive and finite"),
        # numpy seeds a generator from non-negative integers only
        ("train.seed=-1", CONFIG + "bad value for train.seed: '-1' (command line)"),
        # a boolean is spelled true or false, as effective.cfg writes it
        *[(f"train.use_neighbors={value}",
           CONFIG + f"bad value for train.use_neighbors: '{value}' (command line)")
          for value in ("yes", "1", "TRUE")],
    ]),
    "TestPretrain::test_projected_inputs_refused_for_direct_variant": [
        # without --word-vectors the run is direct, and there is no projection to fit
        Case("--pairs", "vocab", cmd(PRETRAIN, pairs="nothere.npz"), 1, "",
             "wordlm: error: --pairs needs --word-vectors"),
    ],
    "TestProjectedPretrain::test_settings_are_checked_before_the_vectors_are_read": [
        # the vectors' NaN row would exit 1
        Case(None, "projected", cmd(PRETRAIN, *sets("model.heads=3"), word_vectors="nan.npz"), 3,
             "", CONFIG + "model.hidden 8 not divisible by model.heads 3",
             {"nan.npz": npz(vectors=with_rows(np.ones((13, WIDTH)), {7: np.nan}))}),
    ],

    # -- pretrain: arguments, sizes and the corpus ---------------------------
    "TestExitCodes::test_pretrain_zero_steps_rejected_before_output": [
        Case(None, "vocab", cmd(PRETRAIN, steps="0"), 1, "",
             "wordlm: error: --steps must be >= 1, got 0"),
        # past train.total_steps (12) the learning rate is 0
        Case(None, "vocab", cmd(PRETRAIN, steps="13"), 1, "",
             "wordlm: error: --steps 13 exceeds train.total_steps 12, past which the learning "
             "rate is 0"),
    ],
    # sizes far beyond any machine's memory, so nothing is allocated: numpy refuses
    # the first array at once, and a model beyond the address space is not built
    "TestExitCodes::test_pretrain_size_no_machine_holds_is_one_line": [
        Case(name, "vocab", cmd(PRETRAIN, *sets("model.hidden=64", setting)), 1, "",
             f"wordlm: error: {message}") for name, setting, message in (
            ("positions-tib", "model.max_positions=1000000000000", "out of memory: Unable to "
             "allocate 466. TiB for an array with shape (1000000000000, 64) and data type float64"),
            ("batch-tib", "train.batch_size=100000000000000", "out of memory: Unable to allocate "
             "728. TiB for an array with shape (100000000000000,) and data type int64"),
            ("positions-beyond-address-space", "model.max_positions=1000000000000000000",
             "the model's 64000000000000050829 parameters exceed what this machine can address"))
    ],
    "TestPretrain::test_non_finite_loss_is_one_line_without_output": [
        # the step that overflows is named, before numpy could print a warning
        Case(None, "vocab", cmd(PRETRAIN, *sets("train.peak_lr=1e10", "train.warmup_steps=1")), 1,
             "", rx(r"wordlm: error: floating-point (overflow|invalid value) encountered in .+ "
                    r"at step \d+, batch lines \[\d+(, \d+)*\]")),
    ],
    "TestPretrain::test_corpus_without_a_vocabulary_word_is_refused_by_name": [
        # brackets peel off "[MASK]", and "sun" comes 8th: past the 6 words the window holds
        Case(None, "vocab", cmd(PRETRAIN, corpus="strange.txt"), 1, "",
             "wordlm: error: corpus strange.txt, vocabulary vocab.tsv: corpus contains no maskable "
             "sequences: no line holds a vocabulary word among its first 6 words",
             {"strange.txt": "[MASK] [PAD]\n\nnothing here is known but this: sun\n"}),
    ],

    # -- pretrain --word-vectors and --pairs -------------------------------
    "TestProjectedPretrain::test_bad_vectors_refused_before_output": [
        Case(name, "projected", cmd(PRETRAIN, word_vectors="bad.npz"), 1, "",
             f"wordlm: error: bad.npz: array 'vectors' has shape {shape}, expected [13, E >= 1]: "
             "one row per vocabulary word", {"bad.npz": npz(vectors=np.ones(shape))})
        for name, shape in (("vectors-1d", (13,)), ("vectors-wrong-rows", (12, 6)),
                            ("vectors-no-columns", (13, 0)))
    ],
    "TestProjectedPretrain::test_truncated_vectors_refused_before_output": [
        # the header is whole, the data is not
        Case(None, "projected", cmd(PRETRAIN, word_vectors="bad.npz"), 1, "",
             rx(r"wordlm: error: bad\.npz: array 'vectors' cannot be read: "
                r"EOF: reading array data.*"),
             {"bad.npz": npz(vectors=_npy(np.ones((13, WIDTH)))[:-8])}),
    ],
    "TestProjectedPretrain::test_bad_values_refused_before_the_corpus": [
        Case(name, "projected", argv, 1, "", f"wordlm: error: bad.npz: {message}",
             {"bad.npz": data})
        for name, argv, data, message in (
            ("vectors-object", cmd(PRETRAIN_NO_CORPUS, word_vectors="bad.npz"),
             npz(vectors=np.full((13, WIDTH), None)),
             "array 'vectors' has dtype object, expected integers or floats"),
            ("vectors-complex", cmd(PRETRAIN_NO_CORPUS, word_vectors="bad.npz"),
             npz(vectors=np.ones((13, WIDTH), complex)),
             "array 'vectors' has dtype complex128, expected integers or floats"),
            ("vectors-nan", cmd(PRETRAIN_NO_CORPUS, word_vectors="bad.npz"),
             npz(vectors=with_rows(np.ones((13, WIDTH)), {7: np.nan, 9: np.inf})),
             "row 7 of array 'vectors' holds a NaN or infinity"),
            ("vectors-inf-neighbors",
             cmd(PRETRAIN_NO_CORPUS, *sets("train.use_neighbors=true"), word_vectors="bad.npz"),
             npz(vectors=with_rows(np.ones((13, WIDTH)), {9: -np.inf})),
             "row 9 of array 'vectors' holds a NaN or infinity"),
            # the specials' rows may be zero: they are never a target
            ("vectors-zero-row-neighbors",
             cmd(PRETRAIN_NO_CORPUS, *sets("train.use_neighbors=true"), word_vectors="bad.npz"),
             npz(vectors=with_rows(np.ones((13, WIDTH)), {0: 0, 4: 0, 6: 0, 11: 0})),
             "row 6 of the embedding table is all zeros, and a zero vector has no cosine "
             "neighbors"),
            # the projection's cases: faults of the --pairs it is fitted on
            ("projection-nan", PRETRAIN_PAIRS,
             npz(v_in=with_rows(np.ones((10, WIDTH)), {2: np.nan}), v_out=np.ones((10, 8))),
             "row 2 of array 'v_in' holds a NaN or infinity"),
            # float64 values a float32 cast would turn into infinities
            ("vectors-beyond-float32", cmd(PRETRAIN_NO_CORPUS, word_vectors="bad.npz"),
             npz(vectors=with_rows(np.ones((13, WIDTH)), {7: 1e300, 9: np.nan})),
             "row 7 of array 'vectors' holds a value outside float32 range"),
            ("projection-beyond-float32", PRETRAIN_PAIRS,
             npz(v_in=np.ones((10, WIDTH)), v_out=with_rows(np.ones((10, 8)), {2: -1e300})),
             "row 2 of array 'v_out' holds a value outside float32 range"),
            ("projection-wrong-shape", PRETRAIN_PAIRS,
             npz(v_in=np.ones((10, WIDTH - 1)), v_out=np.ones((10, 8))),
             PAIR_SHAPES.format((10, WIDTH - 1), (10, 8))),
            ("projection-complex", PRETRAIN_PAIRS,
             npz(v_in=np.ones((10, WIDTH)), v_out=np.ones((10, 8), complex)),
             "array 'v_out' has dtype complex128, expected integers or floats"))
    ],
    "TestProjectedPretrain::test_pairs_file_without_its_arrays_refused": [
        Case("without-v_out", "projected", PRETRAIN_PAIRS, 1, "",
             "wordlm: error: bad.npz does not contain array 'v_out'",
             {"bad.npz": npz(v_in=np.ones((20, WIDTH)))}),
        Case("v_in-not-npy", "projected", PRETRAIN_PAIRS, 1, "",
             rx(r"wordlm: error: bad\.npz: array 'v_in' is not a \.npy array: .+"),
             {"bad.npz": npz(v_in=b"not an array", v_out=np.ones((20, 8)))}),
    ],
    "TestExitCodes::test_pairs_take_no_descent_flags": [
        # the projection is fitted by least squares: no learning rate, epochs or seed
        Case(flag, "toy", cmd(PRETRAIN_PAIRS, flag, "1"), 2, "",
             f"wordlm: error: unrecognized arguments: {flag} 1")
        for flag in ("--lr", "--epochs", "--seed")
    ],
    "TestExitCodes::test_non_finite_pairs_refused_without_output": [
        Case(f"{label}-{name}", "projected", PRETRAIN_PAIRS, 1, "",
             f"wordlm: error: bad.npz: row 4 of array '{name}' holds a NaN or infinity",
             {"bad.npz": npz(**{"v_in": np.ones((6, WIDTH)), "v_out": np.ones((6, 8)),
                                name: with_rows(np.ones((6, WIDTH if name == "v_in" else 8)),
                                                {4: bad, 5: bad})})})
        for label, name, bad in (("nan", "v_in", np.nan), ("inf", "v_out", np.inf),
                                 ("inf", "v_in", np.inf), ("nan", "v_out", np.nan))
    ],
    "TestExitCodes::test_pairs_beyond_float32_refused_without_output": [
        Case(f"{name}-{big:g}", "projected", PRETRAIN_PAIRS, 1, "",
             f"wordlm: error: bad.npz: row 3 of array '{name}' holds a value outside float32 range",
             {"bad.npz": npz(**{"v_in": np.ones((6, WIDTH)), "v_out": np.ones((6, 8)),
                                name: with_rows(np.ones((6, WIDTH if name == "v_in" else 8)),
                                                {3: big})})})
        for name, big in (("v_in", 1e300), ("v_out", -1e300))
    ],
    "TestExitCodes::test_pair_shapes_refused_without_output": [
        # the NaN shows the shapes are checked from the headers, before any data is read
        Case(name, "projected", PRETRAIN_PAIRS, 1, "",
             f"wordlm: error: bad.npz: {PAIR_SHAPES.format(v_in, v_out)}",
             {"bad.npz": npz(v_in=np.full(v_in, np.nan), v_out=np.ones(v_out))})
        for name, v_in, v_out in (
            ("v_in-1d", (3,), (3, 8)), ("v_out-1d", (3, WIDTH), (3,)),
            ("pair-counts-differ", (2, WIDTH), (3, 8)), ("no-pairs", (0, WIDTH), (0, 8)),
            ("v_in-no-columns", (4, 0), (4, 8)), ("v_out-no-columns", (4, WIDTH), (4, 0)),
            ("3d", (2, 2, WIDTH), (2, 2, 8)), ("v_in-not-the-vectors-width", (4, 2), (4, 8)),
            ("v_out-not-model-hidden", (4, WIDTH), (4, 4)))
    ],
    "TestProjectedPretrain::test_neighbors_refuse_a_vocabulary_of_at_most_ten_words": [
        Case(None, "projected", cmd(PRETRAIN_NO_CORPUS, *sets("train.use_neighbors=true"),
                                    vocab="small.tsv", word_vectors="small.npz"), 1, "",
             "wordlm: error: small.npz: embedding table has 10 rows, but the neighbor search needs "
             "more than 10", {"small.tsv": vocab_text(SPECIALS + ["sun", "moon", "star", "cloud",
                                                                   "rain"]),
                              "small.npz": npz(vectors=np.ones((10, WIDTH)))}),
    ],
    "TestProjectedPretrain::test_eleven_words_pass_the_neighbor_check": [
        # the run gets as far as the corpus
        Case(None, "projected", cmd(PRETRAIN_NO_CORPUS, *sets("train.use_neighbors=true"),
                                    vocab="small.tsv", word_vectors="small.npz"), 1, "",
             "wordlm: error: [Errno 2] No such file or directory: 'none.txt'",
             {"small.tsv": vocab_text(SPECIALS + ["sun", "moon", "star", "cloud", "rain", "wind"]),
              "small.npz": npz(vectors=np.ones((11, WIDTH)))}),
    ],

    # -- param-count -------------------------------------------------------
    "TestProjectedPretrain::test_param_count": [
        Case(None, "projected", cmd(PARAM_COUNT, word_vectors="vectors.npz"), 0,
             # embedding: the 13 x 6 vectors and the 6 x 8 map
             "transformer\t936\nembedding\t126\nmlm_head\t13\ntotal\t1075", ""),
        Case(None, "projected", cmd(PARAM_COUNT, vocab_size="14", word_vectors="vectors.npz"), 1,
             "", "wordlm: error: vectors.npz: array 'vectors' has shape (13, 6), expected "
             "[14, E >= 1]: one row per vocabulary word"),
    ],
    "TestProjectedPretrain::test_param_count_refuses_vectors_of_no_real_type": [
        Case(name, "toy", cmd(PARAM_COUNT, word_vectors="bad.npz"), 1, "",
             f"wordlm: error: bad.npz: array 'vectors' has dtype {np.dtype(dtype)}, expected "
             "integers or floats", {"bad.npz": npz(vectors=np.ones((13, WIDTH), dtype))})
        for name, dtype in (("object", object), ("complex", complex))
    ],
    # --vocab-size is a flag, not a key: refused with exit 1, as --steps 0 is
    "TestEvalCommands::test_param_count_refuses_vocab_size_below_specials_by_flag": [
        Case(None, "toy", ["param-count", "--vocab-size", "3"], 1, "",
             "wordlm: error: --vocab-size must be >= 5, got 3"),
    ],
    "TestEvalCommands::test_param_count_invalid_model_exits_3": [
        Case(None, "toy", ["param-count", "--vocab-size", "100", *sets("model.heads=7")], 3, "",
             CONFIG + "model.hidden 768 not divisible by model.heads 7"),
    ],
    "TestEvalCommands::test_param_count_model_size_below_range_exits_3": [
        Case(name, "toy", ["param-count", "--vocab-size", "100", *sets(*settings)], 3, "",
             CONFIG + line) for name, settings, line in (
            ("hidden-negative", ["model.hidden=-8", "model.heads=2"],
             "model.hidden -8 must be positive"),
            ("hidden-zero", ["model.hidden=0"], "model.hidden 0 must be positive"),
            ("layers-negative", ["model.layers=-3"], "model.layers -3 must be >= 0"))
    ],

    # -- probe ---------------------------------------------------------------
    "TestEvalCommands::test_probe_invalid_setting_exits_3_before_reading": _setting_rows(
        PROBE_NOTHING, "toy", [
            ("eval.threshold_high=1", THRESHOLDS.format("1/10/3")),
            ("eval.threshold_low=0", THRESHOLDS.format("20/10/0")),
            ("eval.mask_probability=2", UNKNOWN.format("eval.mask_probability")),
            ("eval.mask_probability=0", UNKNOWN.format("eval.mask_probability")),
            ("eval.topk=0,5", UNKNOWN.format("eval.topk")),
            # the window is the checkpoint's model.max_positions
            ("train.max_length=2", UNKNOWN.format("train.max_length")),
            ("train.max_length=20", UNKNOWN.format("train.max_length")),
            *[(f"{key}={value}", UNKNOWN.format(key)) for key, value in RECIPE_KEYS],
            # train.seed seeds the probe-set streams
            ("train.seed=-1", CONFIG + "bad value for train.seed: '-1' (command line)"),
        ]),
    # the probe set is built from --corpus, its one source, by the vocabulary's counts
    "TestExitCodes::test_probe_takes_exactly_one_source": [
        Case("ref-corpus", "toy", cmd(PROBE_NOTHING, "--ref-corpus", "none.txt"), 2, "",
             "wordlm: error: unrecognized arguments: --ref-corpus none.txt"),
        # prebuilt probes are gone
        Case("both", "toy", cmd(PROBE_NOTHING, "--probes", "none.jsonl"), 2, "",
             "wordlm: error: unrecognized arguments: --probes none.jsonl"),
        Case("neither", "toy", ["probe", "--checkpoint", "none.ckpt", "--vocab", "none.tsv"], 2, "",
             "wordlm probe: error: the following arguments are required: --corpus"),
    ],

    # -- eval-cloze ----------------------------------------------------------
    "TestEvalCommands::test_eval_cloze": [
        # the second item's "zzz" is out of vocabulary: its three known options are scored
        Case(None, "trained", ["eval-cloze", "--checkpoint", "run/checkpoint.ckpt",
                               "--vocab", "vocab.tsv", "--items", "cloze.jsonl"], 0,
             rx(r"cloze accuracy [01]\.[0-9]{4} over 2 items"), "",
             {"cloze.jsonl": item(["sun", "[BLANK]", "star"], ["moon", "rain", "wind", "cloud"])
              + item(["rain", "[BLANK]", "sun"], ["star", "zzz", "fog", "wind"], 2)}),
    ],
    "TestExitCodes::test_unscorable_cloze_item_is_named": [
        Case(name, "trained", CLOZE, 1, "", f"wordlm: error: cloze.jsonl: item 2: {message}",
             {"cloze.jsonl": GOOD_ITEM + second}) for name, second, message in (
            # the checkpoint encodes model.max_positions = 8 positions: 6 words
            ("blank-outside-window", item(["sun"] * 15 + ["[BLANK]"]),
             "blank position falls outside the encoded window"),
            ("options-out-of-vocabulary", item(["sun", "[BLANK]"], ["a", "b", "c", "d"]),
             "every cloze option is out of vocabulary"),
            # the vocabulary is lowercased: both spellings are one id, whose tie
            # would always go to the first
            ("options-one-word", item(["sun", "[BLANK]"], ["Rain", "rain", "wind", "fog"]),
             "options 'Rain' and 'rain' are one vocabulary word"))
    ],
    "TestExitCodes::test_evaluation_over_no_records_is_plain_error": [
        # an accuracy over no items is undefined
        Case("eval-cloze", "toy", CLOZE_NOTHING, 1, "", "wordlm: error: bad: no records",
             {"bad": "\n"}),
    ],

    # -- malformed inputs ----------------------------------------------------
    "TestExitCodes::test_malformed_input_is_plain_error": [
        Case("vocab-frequency", "toy", cmd(PRETRAIN, vocab="bad"), 1, "",
             "wordlm: error: bad:3: frequency 'many' is not an integer",
             {"bad": "#wordvocab v1 lowercase=true\n[PAD]\t0\n[UNK]\tmany\n"}),
        Case("vocab-negative-frequency", "toy", cmd(PRETRAIN, vocab="bad"), 1, "",
             "wordlm: error: bad:3: frequency '-7' is negative",
             {"bad": "#wordvocab v1 lowercase=true\n[PAD]\t0\n[UNK]\t-7\n"}),
        # the vocabulary and vectors pass, so the pairs are at fault
        Case("npz", "projected", cmd(PRETRAIN_PAIRS, corpus="corpus.txt", pairs="bad"), 1, "",
             rx(r"wordlm: error: bad: not an npz archive: .+"), {"bad": "not an archive\n"}),
        # the items are read first: neither the vocabulary nor the checkpoint exists
        *[Case(name, "toy", CLOZE_NOTHING, 1, "", stderr, {"bad": content})
          for name, content, stderr in (
            ("cloze-invalid-json", CLOZE_ITEM + '"answer_index": 0}\n{"passage_words": [\n',
             rx(r"wordlm: error: bad:2: invalid JSON: .+")),
            ("cloze-missing-field", CLOZE_ITEM[:-2] + "}\n",
             "wordlm: error: bad:1: missing fields ['answer_index']"),
            ("cloze-answer-string", GOOD_ITEM + CLOZE_ITEM + '"answer_index": "x"}\n',
             "wordlm: error: bad:2: answer_index must be an integer, got 'x'"),
            ("cloze-answer-null", CLOZE_ITEM + '"answer_index": null}\n', INT_AT_1 + "None"),
            ("cloze-answer-float", CLOZE_ITEM + '"answer_index": 2.7}\n', INT_AT_1 + "2.7"),
            ("cloze-answer-bool", CLOZE_ITEM + '"answer_index": true}\n', INT_AT_1 + "True"),
            ("cloze-unknown-field", CLOZE_ITEM + '"answer_index": 0, "score": 0.9}\n',
             "wordlm: error: bad:1: unknown fields ['score']"),
            ("cloze-not-object", "5\n", "wordlm: error: bad:1: not a JSON object: '5'"),
            ("cloze-options-not-strings",
             '{"passage_words": ["[BLANK]"], "options": ["w", "x", "y", 7], "answer_index": 0}\n',
             "wordlm: error: bad:1: options must be a list of strings, got ['w', 'x', 'y', 7]"),
            ("cloze-passage-int",
             '{"passage_words": 5, "options": ["w", "x", "y", "z"], "answer_index": 0}\n',
             "wordlm: error: bad:1: passage_words must be a list of strings, got 5"),
            ("cloze-passage-string", '{"passage_words": "a [BLANK] b", '
             '"options": ["w", "x", "y", "z"], "answer_index": 0}\n',
             "wordlm: error: bad:1: passage_words must be a list of strings, got 'a [BLANK] b'"),
            ("cloze-options-string",
             '{"passage_words": ["[BLANK]"], "options": "wxyz", "answer_index": 0}\n',
             "wordlm: error: bad:1: options must be a list of strings, got 'wxyz'"),
            # well-typed fields, but an item that checks itself and fails
            ("cloze-no-blank",
             '{"passage_words": ["sun"], "options": ["w", "x", "y", "z"], "answer_index": 0}\n',
             "wordlm: error: bad:1: passage must contain exactly one [BLANK]"))],
    ],
    "TestExitCodes::test_undecodable_line_is_one_line": [
        # each file is read before the checkpoint, which does not exist
        Case(name, "toy", argv, code,
             "", rx(rf"wordlm: {prefix}: bad:2: 'utf-8' codec can't decode byte 0xff .+"),
             {"bad": b"# line one\n\xff\xfe bad\n"}) for name, argv, code, prefix in (
            ("vocab", cmd(PROBE_NOTHING, vocab="bad", corpus="corpus.txt"), 1, "error"),
            ("config", cmd(PROBE_NOTHING, config="bad", corpus="corpus.txt"), 3, "config error"),
            ("items", CLOZE_NOTHING, 1, "error"))
    ],
    "TestExitCodes::test_undecodable_corpus_line_is_plain_error": [
        Case(name, "trained", cmd(argv, corpus="bad.txt"), 1, "",
             rx(r"wordlm: error: bad\.txt:2: 'utf-8' codec can't decode byte 0xff .+"),
             {"bad.txt": b"sun moon\n\xff\xfe bad\nstar\n"})
        for name, argv in (("pretrain", PRETRAIN), ("probe", PROBE))
    ],
    "TestExitCodes::test_vocabulary_content_error_names_file": [
        Case(name, "toy", cmd(PROBE_NOTHING, vocab="bad.tsv", corpus="corpus.txt"), 1, "",
             f"wordlm: error: bad.tsv: {message}", {"bad.tsv": vocab_text(words)})
        for name, words, message in (
            ("duplicate-word", SPECIALS + ["sun", "moon", "rain", "moon", "sun"],
             "vocabulary contains duplicate word 'sun'"),
            ("specials-out-of-order", ["[PAD]", "[UNK]", "[CLS]", "[MASK]", "[SEP]", "sun"],
             "vocabulary must start with the five special tokens"),
            ("special-spelled-word", SPECIALS + ["sun", "moon", "[PAD]"],
             "special token '[PAD]' repeated as a word at id 7"))
    ],
    # lowercasing is the one case rule: a vocabulary naming another is refused
    "TestExitCodes::test_vocabulary_lowercase_flag_must_be_true_or_false": [
        Case(name, "toy", cmd(argv, vocab="bad.tsv"), 1, "",
             "wordlm: error: bad.tsv: not a wordvocab file: first line must be "
             "'#wordvocab v1 lowercase=true'",
             {"bad.tsv": vocab_text(SPECIALS + ["sun"], lowercase=flag), "cloze.jsonl": GOOD_ITEM})
        for name, argv, flag in (("pretrain", PRETRAIN, "TRUE"),
                                 ("probe", cmd(PROBE_NOTHING, corpus="corpus.txt"), "TRUE"),
                                 ("eval-cloze", cmd(CLOZE_NOTHING, items="cloze.jsonl"), "false"))
    ],
    "TestExitCodes::test_vocabulary_of_another_size_than_checkpoint_is_plain_error": [
        Case(name, "trained", cmd(argv, vocab="other.tsv"), 1, "",
             "wordlm: error: vocabulary other.tsv holds 35 words, but checkpoint "
             "run/checkpoint.ckpt was trained on 13",
             {"other.tsv": vocab_text(SPECIALS + [f"word{i}" for i in range(30)]),
              "cloze.jsonl": GOOD_ITEM}) for name, argv in (("probe", PROBE), ("eval-cloze", CLOZE))
    ],

    # -- inspect-checkpoint ----------------------------------------------------
    "TestExitCodes::test_corrupt_checkpoint_is_plain_error": [
        Case(None, "toy", ["inspect-checkpoint", "bad.ckpt"], 1, "",
             "wordlm: error: bad.ckpt:2: expected 'step <int>', found 'step x'",
             {"bad.ckpt": b"#wordlm-checkpoint v1\nstep x\npayload_bytes 0\n---\n"}),
    ],
    "TestExitCodes::test_negative_opt_step_is_named_by_line": [
        Case(None, "trained", ["inspect-checkpoint", "negative.ckpt"], 1, "",
             rx(r"wordlm: error: negative\.ckpt:\d+: opt_step must not be negative, "
                r"found 'opt_step \S+ -3'"), {"negative.ckpt": negative_opt_steps}),
    ],

    # -- --out ---------------------------------------------------------------
    # an empty --out names no file or directory; each named input is missing,
    # which would be another error
    "TestExitCodes::test_empty_out_refused_before_any_input": [
        Case(f"{argv[0]}-flags{i}", "toy", cmd(argv, out=""), 1, "",
             "wordlm: error: --out is empty") for i, argv in enumerate((
            BUILD_VOCAB,
            cmd(PRETRAIN_NO_CORPUS, config="none.cfg", vocab="none.tsv", word_vectors="none.npz",
                pairs="none.npz"),
            cmd(PRETRAIN_NO_CORPUS, config="none.cfg", vocab="none.tsv")))
    ],
    # an --out that cannot be written is refused before any input is read
    "TestExitCodes::test_pretrain_unusable_out_refused_before_training": [
        Case(name, "vocab", cmd(PRETRAIN_NO_CORPUS, out=out), 1, "",
             rx(rf"wordlm: error: --out {re.escape(out)}: /.*/toy\.cfg "
                "is not a writable directory"))
        for name, out in (("file", "toy.cfg"), ("below-file", "toy.cfg/sub"))
    ],
    "TestExitCodes::test_unusable_out_refused_before_the_work": [
        Case(name, setup, cmd(argv, out=out), 1, "", rx(f"wordlm: error: --out {re.escape(out)}"
                                                         + message), files)
        for name, setup, argv, out, message, files in (
            ("build-vocab-directory", "trained", BUILD_VOCAB, "run", " is a directory", {}),
            ("build-vocab-below-file", "toy", BUILD_VOCAB, "corpus.txt/vocab.tsv",
             r": /.*/corpus\.txt is not a writable directory", {}))
    ],

    # -- usage errors ------------------------------------------------------------
    "TestExitCodes::test_unknown_command_is_usage_error": [
        # the removed eval-tag and eval-span commands are unknown commands too
        Case(None, "toy", argv, 2, "", rx(INVALID_CHOICE.format(argv[0])))
        for argv in (["frobnicate"], ["eval-tag", "--pred", "p", "--gold", "g"],
                     ["eval-span", "--pred", "p", "--gold", "g"])
    ],
    "TestExitCodes::test_pretrain_projection_command_is_gone": [
        # pretrain --pairs fits the projection where it is used
        Case(None, "projected", ["pretrain-projection", "--pairs", "pairs.npz", "--out", "p.npz"],
             2, "", rx(INVALID_CHOICE.format("pretrain-projection"))),
    ],
    "TestExitCodes::test_unknown_flag_is_usage_error": [
        Case(None, "toy", ["build-vocab", "--corpus", "x", "--k", "1", "--out", "y", "--bogus"], 2,
             "", "wordlm: error: unrecognized arguments: --bogus"),
    ],
    "TestExitCodes::test_removed_flags_are_usage_errors": [
        Case(name, "toy", cmd(base, *removed), 2, "",
             f"wordlm: error: unrecognized arguments: {' '.join(removed)}")
        for name, base, removed in (
            ("pretrain-seed", PRETRAIN, ["--seed", "7"]),
            ("eval-cloze-config", CLOZE_NOTHING, ["--config", "toy.cfg"]),
            ("eval-cloze-set", CLOZE_NOTHING, ["--set", "k=v"]),
            ("pretrain-projection", PRETRAIN_VECTORS, ["--projection", "p.npz"]),
            # lowercasing is the one case rule, and eval-cloze reports on stdout alone
            ("build-vocab-no-lowercase", BUILD_VOCAB, ["--no-lowercase"]),
            ("eval-cloze-out", CLOZE_NOTHING, ["--out", "d"]),
            # probe reports on stdout alone; its removed --probes is a row of
            # test_probe_takes_exactly_one_source
            ("probe-out", PROBE_NOTHING, ["--out", "d"]))
    ],
    "TestExitCodes::test_missing_file_is_plain_error": [
        Case(None, "toy", BUILD_VOCAB, 1, "",
             "wordlm: error: [Errno 2] No such file or directory: 'none.txt'"),
    ],
}
