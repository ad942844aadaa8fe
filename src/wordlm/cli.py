"""Command-line entry point tying the pipeline together.

Exit codes: 0 success, 2 usage error (unknown command or flag), 3 invalid
configuration (each violated key listed), 1 any other failure, always with a
one-line diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
import zipfile

import numpy as np

from .checkpoint import config_digest, load_checkpoint, read_manifest, save_checkpoint
from .config import RunConfig
from .errors import ConfigError, ContractError, WordlmError
from .evaluation import (
    BUCKET_NAMES,
    ClozeItem,
    FrequencyBuckets,
    build_probe_set,
    cloze_accuracy,
    load_records,
    probe_topk,
)
from .model import ModelConfig, WordBertModel, parameter_counts
from .sampling import NeighborIndex
from .seeding import substream
from .training import TrainConfig, pretrain_projection, write_metrics
from .training import train as run_training
from .vocab import NUM_SPECIALS, WordVocab, build_vocabulary, count_frequencies, read_text_lines

_CLOZE_EXAMPLE = (
    'cloze JSONL example: {"passage_words": ["the", "dog", "[BLANK]", "loudly"], '
    '"options": ["barked", "sat", "blue", "seven"], "answer_index": 0}'
)
_PROBE_KS = (1, 5, 10)


def _npz_shape(path, key):
    """Shape of array ``key`` of npz file ``path``, read from its ``.npy`` header
    alone. A file that is not an npz archive, a missing key and an array of no
    integer or float type are refused by name."""
    try:
        with zipfile.ZipFile(path) as archive, archive.open(f"{key}.npy") as fp:
            version = np.lib.format.read_magic(fp)
            read_header = (np.lib.format.read_array_header_1_0 if version == (1, 0)
                           else np.lib.format.read_array_header_2_0)
            shape, _, dtype = read_header(fp)
    except zipfile.BadZipFile as err:
        raise ContractError(f"{path}: not an npz archive: {err}") from err
    except KeyError as err:
        raise WordlmError(f"{path} does not contain array {key!r}") from err
    except ValueError as err:
        raise ContractError(f"{path}: array {key!r} is not a .npy array: {err}") from err
    if dtype.kind not in "iuf":
        raise ContractError(f"{path}: array {key!r} has dtype {dtype}, expected integers or floats")
    return shape


def _load_finite(path, key):
    """The 2-D array ``key`` of npz file ``path`` as float32, refusing one that
    holds a NaN, an infinity or a value outside float32 range by its first
    such row. Callers check the array's header through ``_npz_shape`` first."""
    try:
        with zipfile.ZipFile(path) as archive, archive.open(f"{key}.npy") as fp:
            array = np.lib.format.read_array(fp)
    except (ValueError, zipfile.BadZipFile) as err:  # data cut short, or a CRC mismatch
        raise ContractError(f"{path}: array {key!r} cannot be read: {err}") from err
    high, low = array.max(axis=1), array.min(axis=1)  # a NaN reaches both
    limit = np.finfo(np.float32).max
    rows = np.flatnonzero(~((low >= -limit) & (high <= limit)))  # a NaN compares false
    if rows.size:  # refused before the cast, which would overflow
        row = rows[0]
        problem = ("a value outside float32 range" if np.isfinite([low[row], high[row]]).all()
                   else "a NaN or infinity")
        raise ContractError(f"{path}: row {row} of array {key!r} holds {problem}")
    return array.astype(np.float32, copy=False)  # a fresh array


def _word_table(word_vectors_path, vocab_size: int, hidden: int):
    """``ModelConfig``'s word-table fields: direct without a vectors file, projected
    with one, as wide as its array (read from the file's header)."""
    if word_vectors_path is None:
        return {"variant": "direct", "embed_dim": hidden, "freeze_embeddings": False}
    shape = _npz_shape(word_vectors_path, "vectors")
    if len(shape) != 2 or shape[0] != vocab_size or shape[1] < 1:
        raise ContractError(f"{word_vectors_path}: array 'vectors' has shape {shape}, "
                            f"expected [{vocab_size}, E >= 1]: one row per vocabulary word")
    return {"variant": "projected", "embed_dim": shape[1], "freeze_embeddings": True}


def _check_out_dir(out):
    """Refuse an ``--out`` that cannot become the output directory: the nearest
    of it and its ancestors that exists must be a writable directory, and it
    must not be empty. Creates nothing."""
    if not out:  # names nothing; abspath would read it as the working directory
        raise WordlmError("--out is empty")
    existing = os.path.abspath(out)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not (os.path.isdir(existing) and os.access(existing, os.W_OK | os.X_OK)):
        raise WordlmError(f"--out {out}: {existing} is not a writable directory")


def _check_out_file(out):
    """Refuse an ``--out`` that cannot become the output file: it must not be a
    directory or empty, and its parent must be a writable directory. Creates
    nothing."""
    if not out:  # names nothing; abspath would read it as the working directory
        raise WordlmError("--out is empty")
    if os.path.isdir(out):
        raise WordlmError(f"--out {out} is a directory")
    parent = os.path.dirname(os.path.abspath(out))
    if not (os.path.isdir(parent) and os.access(parent, os.W_OK | os.X_OK)):
        raise WordlmError(f"--out {out}: {parent} is not a writable directory")


def _load_vocab_and_model(args):
    """The vocabulary and the checkpoint's model, refused unless their sizes agree."""
    vocab = WordVocab.load(args.vocab)
    model = load_checkpoint(args.checkpoint).model
    if vocab.size != model.config.vocab_size:
        raise WordlmError(f"vocabulary {args.vocab} holds {vocab.size} words, but checkpoint "
                          f"{args.checkpoint} was trained on {model.config.vocab_size}")
    return vocab, model


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_build_vocab(args) -> int:
    if args.k < 1:
        raise ContractError(f"--k must be >= 1, got {args.k}")
    _check_out_file(args.out)  # before the corpus is counted
    counts = count_frequencies(read_text_lines(args.corpus))
    vocab = build_vocabulary(counts, k=args.k)
    vocab.save(args.out)
    print(f"wrote {vocab.size} words ({vocab.size - NUM_SPECIALS} corpus words of {args.k} "
          f"requested + {NUM_SPECIALS} specials) to {args.out}")
    return 0


def cmd_pretrain(args) -> int:
    if args.steps is not None and args.steps < 1:
        raise ContractError(f"--steps must be >= 1, got {args.steps}")
    if args.pairs is not None and args.word_vectors is None:
        raise WordlmError("--pairs needs --word-vectors")
    _check_out_dir(args.out)  # before training, so a run that cannot be written does not start
    cfg = RunConfig.load(args.config, overrides=args.set)
    vocab = WordVocab.load(args.vocab)
    table = _word_table(args.word_vectors, vocab.size, cfg["model.hidden"])
    views, violations = [], []
    for view in (lambda: cfg.view(TrainConfig, max_length=cfg["model.max_positions"]),
                 lambda: cfg.view(ModelConfig, vocab_size=vocab.size, **table)):
        try:
            views.append(view())
        except ConfigError as err:
            violations.extend(err.violations)
    if cfg["train.use_neighbors"] and args.word_vectors is None:
        # the NeighborIndex is built once, from the word table as training starts,
        # and searched every step, so the table it ranks must not train
        violations.append("train.use_neighbors = true needs --word-vectors")
    if violations:  # every view's violations together, before any array or the corpus is read
        raise ConfigError(violations)
    train_cfg, model_cfg = views
    if args.steps is not None and args.steps > train_cfg.total_steps:
        raise ContractError(f"--steps {args.steps} exceeds train.total_steps "
                            f"{train_cfg.total_steps}, past which the learning rate is 0")
    vectors = None if args.word_vectors is None else _load_finite(args.word_vectors, "vectors")
    neighbor_index = None
    if cfg["train.use_neighbors"]:
        try:
            neighbor_index = NeighborIndex(vectors)
        except ContractError as err:
            raise ContractError(f"{args.word_vectors}: {err}") from err
    total = parameter_counts(model_cfg)["total"]
    if 8 * total > np.iinfo(np.intp).max:  # the initialization draws each parameter in float64
        raise ContractError(f"the model's {total} parameters exceed what this machine can address")
    projection = None
    if args.pairs is not None:  # the map starts from the least-squares fit to the pairs
        width, hidden = model_cfg.embed_dim, model_cfg.hidden
        shape_in, shape_out = _npz_shape(args.pairs, "v_in"), _npz_shape(args.pairs, "v_out")
        if not (len(shape_in) == len(shape_out) == 2 and shape_in[0] == shape_out[0] >= 1
                and (shape_in[1], shape_out[1]) == (width, hidden)):
            raise ContractError(f"{args.pairs}: arrays 'v_in' and 'v_out' have shapes {shape_in} "
                                f"and {shape_out}, expected [N, {width}] and [N, {hidden}] with "
                                "the same N >= 1: the vectors' width and model.hidden")
        projection, mse = pretrain_projection(_load_finite(args.pairs, "v_in"),
                                              _load_finite(args.pairs, "v_out"))
        print(f"fitted {width}x{hidden} projection on {shape_in[0]} pairs, final mse {mse:.6g}")
    model = WordBertModel(model_cfg, train_cfg.seed, word_vectors=vectors, projection=projection)
    del vectors, projection  # the model holds its own copies
    corpus = read_text_lines(args.corpus)
    try:
        records, optimizer = run_training(
            corpus, vocab, model, train_cfg, neighbor_index=neighbor_index, num_steps=args.steps,
        )
    except ContractError as err:  # e.g. a corpus with no line to mask, which names no file
        raise ContractError(f"corpus {args.corpus}, vocabulary {args.vocab}: {err}") from err
    # written only once training ends, so a failed run leaves no output directory
    os.makedirs(args.out, exist_ok=True)
    cfg.echo_into(args.out)
    write_metrics(records, os.path.join(args.out, "metrics.tsv"))
    save_checkpoint(
        model, optimizer, step=len(records),
        path=os.path.join(args.out, "checkpoint.ckpt"),
        digest=config_digest(cfg.text()),
    )
    print(f"trained {len(records)} steps, final loss {records[-1].loss:.6g}, "
          f"artifacts in {args.out}")
    return 0


def cmd_probe(args) -> int:
    cfg = RunConfig.load(args.config, overrides=args.set)
    buckets = cfg.view(FrequencyBuckets, reference_frequencies={})
    vocab, model = _load_vocab_and_model(args)
    # a word's bucket is its count in the corpus the vocabulary was built from
    buckets.reference_frequencies = dict(zip(vocab.words, vocab.frequency.tolist()))
    lines = read_text_lines(args.corpus)
    probes = []
    for bucket in BUCKET_NAMES:
        probes.extend(build_probe_set(lines, buckets, bucket,
                                      rng=substream(cfg["train.seed"], f"probe-{bucket}")))
    report = probe_topk(model, vocab, probes, ks=_PROBE_KS)
    print("bucket\tmasked\toov" + "".join(f"\ttop-{k}" for k in _PROBE_KS))
    for bucket in BUCKET_NAMES:
        accs = "".join(f"\t{report['accuracy'][bucket][k]:.4f}" for k in _PROBE_KS)
        print(f"{bucket}\t{report['total'][bucket]}\t{report['oov'][bucket]}{accs}")
    return 0


def cmd_eval_cloze(args) -> int:
    items = load_records(args.items, ClozeItem)
    if not items:  # an accuracy over no items is undefined
        raise WordlmError(f"{args.items}: no records")
    vocab, model = _load_vocab_and_model(args)
    try:
        acc = cloze_accuracy(model, vocab, items)
    except ContractError as err:
        raise ContractError(f"{args.items}: {err}") from err
    print(f"cloze accuracy {acc:.4f} over {len(items)} items")
    return 0


def cmd_inspect_checkpoint(args) -> int:
    manifest, _ = read_manifest(args.checkpoint)
    for line in manifest.lines[1:]:  # the manifest's own spelling of the values it holds
        if line.startswith(("step ", "seed ", "config_digest ", "model_config ")):
            print(line)
    for name, (shape, _, length) in manifest.tensors.items():
        print(f"tensor {name} f32 {'x'.join(map(str, shape))} {length} bytes")
    print(f"payload {manifest.payload_bytes} bytes in {len(manifest.tensors)} tensors")
    return 0


def cmd_param_count(args) -> int:
    if args.vocab_size < NUM_SPECIALS:
        raise ContractError(f"--vocab-size must be >= {NUM_SPECIALS}, got {args.vocab_size}")
    cfg = RunConfig.load(args.config, overrides=args.set)
    table = _word_table(args.word_vectors, args.vocab_size, cfg["model.hidden"])
    counts = parameter_counts(cfg.view(ModelConfig, vocab_size=args.vocab_size, **table))
    for key in ("transformer", "embedding", "mlm_head", "total"):
        print(f"{key}\t{counts[key]}")
    return 0


# ---------------------------------------------------------------------------
# parser / dispatch
# ---------------------------------------------------------------------------


def _add_config_args(sub):
    sub.add_argument("--config", help="key = value config file")
    sub.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override a config key (repeatable)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wordlm",
        description="Word-level masked-language-model pretraining toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-vocab", help="count a corpus and write a top-K word vocabulary")
    p.add_argument("--corpus", required=True, help="UTF-8 text, one document per line")
    p.add_argument("--k", type=int, required=True, help="number of corpus words to keep")
    p.add_argument("--out", required=True, help="vocabulary file to write")
    p.set_defaults(fn=cmd_build_vocab)

    p = sub.add_parser("pretrain", help="run MLM pretraining")
    _add_config_args(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--steps", type=int, help="run only this many steps")
    p.add_argument("--word-vectors", help="npz with array 'vectors' [V,E]: frozen, projected to H")
    p.add_argument("--pairs", help="npz with arrays v_in [N,E] and v_out [N,H] of vector pairs, "
                   "to start the projection from their least-squares fit (needs --word-vectors)")
    p.set_defaults(fn=cmd_pretrain)

    p = sub.add_parser("probe", help="frequency-stratified zero-shot masked-word probing")
    _add_config_args(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--corpus", required=True,
                   help="build probes from this corpus, by vocabulary counts")
    p.set_defaults(fn=cmd_probe)

    p = sub.add_parser("eval-cloze", help="score 4-option cloze items", epilog=_CLOZE_EXAMPLE)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--items", required=True)
    p.set_defaults(fn=cmd_eval_cloze)

    p = sub.add_parser("inspect-checkpoint", help="print a checkpoint manifest")
    p.add_argument("checkpoint")
    p.set_defaults(fn=cmd_inspect_checkpoint)

    p = sub.add_parser("param-count", help="analytic parameter accounting for a config")
    _add_config_args(p)
    p.add_argument("--vocab-size", type=int, required=True)
    p.add_argument("--word-vectors", help="npz with array 'vectors' [V,E] (projected variant)")
    p.set_defaults(fn=cmd_param_count)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as err:
        for violation in err.violations:
            print(f"wordlm: config error: {violation}", file=sys.stderr)
        return 3
    except WordlmError as err:
        print(f"wordlm: error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"wordlm: error: {err}", file=sys.stderr)
        return 1
    except MemoryError as err:
        print(f"wordlm: error: out of memory: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
