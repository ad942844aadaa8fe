"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines alongside pytest's own pass/fail output.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from wordlm import kernels
from wordlm.model import ModelConfig, WordBertModel, parameter_counts
from wordlm.sampling import NEIGHBORS, NeighborIndex, sample_batch_vocab
from wordlm.training import (
    MaskedBatch,
    TrainConfig,
    apply_masking,
    lr_at,
    mlm_loss,
    pretrain_projection,
    train,
    write_metrics,
)
from wordlm.vocab import NUM_SPECIALS, build_vocabulary, count_frequencies, segment_words

from wordlm.evaluation import (
    BLANK_SENTINEL,
    BUCKET_NAMES,
    ClozeItem,
    FrequencyBuckets,
    bucket_of,
    build_probe_set,
    probe_topk,
    score_cloze,
)

from conftest import masked_top1_accuracy, restricted_loss64
from oracles import (
    brute_force_topk,
    central_diff_grad,
    cosine_distance,
    gelu64,
    projection_mse,
    rel_error,
    softmax64,
)
from reference_model import params64, per_sequence, ref_mlm_loss


def report(n, text):
    print(f"\n[criterion {n:02d}] PASS - {text}")


# ---------------------------------------------------------------------------
# 1. gradient correctness
# ---------------------------------------------------------------------------


def _kernel_checks():
    """(name, [(analytic gradient, float64 loss fn, point)]) per kernel: each
    backward kernel given the gradient of a weighted mean at its forward's
    output. The matmuls, gathers and scatters between them are checked by the
    full model below."""
    rng = np.random.default_rng(201)

    def weights(r):  # the gradient of mean(y * r) with respect to y
        return r * np.float32(1.0 / r.size)

    checks = []

    x, rr = (rng.standard_normal(18).astype(np.float32) for _ in range(2))
    _, erf1 = kernels.gelu_erf_fwd(x)
    checks.append(("gelu_erf", [
        (kernels.gelu_erf_bwd(x, erf1, weights(rr)), lambda v: float((gelu64(v) * rr).mean()), x),
    ]))

    ln_x, gamma, beta, ln_r = (rng.standard_normal(shape).astype(np.float32)
                               for shape in ((4, 8), (8,), (8,), (4, 8)))

    def ln64(xv, gv, bv):
        mu = xv.mean(axis=-1, keepdims=True)
        var = ((xv - mu) ** 2).mean(axis=-1, keepdims=True)
        return (xv - mu) / np.sqrt(var + 1e-5) * gv + bv

    _, mean, inv_std = kernels.layer_norm_fwd(ln_x, gamma, beta, np.float32(1e-5))
    gx, dgamma, dbeta = kernels.layer_norm_bwd(ln_x, gamma, mean, inv_std, weights(ln_r))
    checks.append(("layer_norm", [
        (gx, lambda v: float((ln64(v, gamma, beta) * ln_r).mean()), ln_x),
        (dgamma, lambda v: float((ln64(ln_x.astype(np.float64), v, beta) * ln_r).mean()), gamma),
        (dbeta, lambda v: float((ln64(ln_x.astype(np.float64), gamma, v) * ln_r).mean()), beta),
    ]))

    sm_x, sm_r = (rng.standard_normal((3, 6)).astype(np.float32) for _ in range(2))
    checks.append(("softmax", [
        (kernels.softmax_rows_bwd(kernels.softmax_rows(sm_x), weights(sm_r)),
         lambda v: float((softmax64(v) * sm_r).mean()), sm_x),
    ]))

    # rows 0, 1 and 2 weighted 1, 2 and 3 times in a mean over 6
    ce_x, ce_t, ce_rows = (rng.standard_normal((3, 11)).astype(np.float32), np.array([4, 0, 10]),
                           np.array([0, 1, 1, 2, 2, 2]))

    def ce64(v):
        m = v.max(axis=1, keepdims=True)
        lse = m[:, 0] + np.log(np.exp(v - m).sum(axis=1))
        return float((lse - v[np.arange(3), ce_t])[ce_rows].mean())

    ce_gout = np.bincount(ce_rows).astype(np.float32) / np.float32(ce_rows.size)
    _, ce_probs = kernels.cross_entropy_rows_fwd(ce_x, ce_t)
    checks.append(("cross_entropy_rows", [
        (kernels.cross_entropy_rows_bwd(ce_probs, ce_t, ce_gout), ce64, ce_x),
    ]))

    return checks


def _acceptance_model_and_batch():
    vocab_size = 35
    model = WordBertModel(
        ModelConfig(vocab_size=vocab_size, num_layers=2, num_heads=2, hidden=16,
                    embed_dim=16, max_positions=12, dropout=0.0),
        seed=202,
    )
    # two rows of 8 words with 10 targets, a selection rate of 0.3: twice BERT's,
    # so that the finite-difference check below runs over many target rows
    masked = MaskedBatch(
        [[2, 14, 28, 33, 15, 4, 4, 4, 4, 3], [2, 4, 4, 4, 30, 4, 23, 12, 18, 3]],
        positions=[4, 5, 6, 7, 8, 11, 12, 13, 15, 17],
        target_global_ids=[15, 34, 7, 18, 11, 23, 14, 6, 30, 31],
    )
    extra = np.random.default_rng(205).choice(
        np.arange(NUM_SPECIALS, vocab_size), size=15, replace=False
    )
    bv = np.unique(np.concatenate([np.arange(NUM_SPECIALS), extra, masked.target_global_ids]))
    return model, masked, bv


def test_criterion_01_gradient_correctness():
    start = time.monotonic()

    for name, fd_specs in _kernel_checks():
        for analytic, f64, at in fd_specs:
            assert analytic is not None, f"{name}: no gradient"
            fd = central_diff_grad(f64, at)
            err = rel_error(analytic, fd)
            assert err <= 1e-3, f"{name}: aggregate relative error {err:.2e}"

    model, masked, bv = _acceptance_model_and_batch()
    loss = mlm_loss(model, masked, bv, rng=np.random.default_rng(0))  # dropout 0: no draw
    model.zero_grad()
    loss.backward()

    p64 = params64(model)
    batch64 = per_sequence(masked, bv)

    def loss_at(p):
        return ref_mlm_loss(p, model.config, batch64, bv)

    all_analytic, all_fd = [], []
    h = 1e-3
    for name, tensor_ in model.params.items():
        analytic = tensor_.grad
        if analytic is None:
            analytic = np.zeros_like(tensor_.data)
        base = p64[name]
        fd = np.zeros_like(base)
        flat_base = base.ravel()
        flat_fd = fd.ravel()
        for j in range(flat_base.size):
            orig = flat_base[j]
            flat_base[j] = orig + h
            fp = loss_at(p64)
            flat_base[j] = orig - h
            fm = loss_at(p64)
            flat_base[j] = orig
            flat_fd[j] = (fp - fm) / (2 * h)
        floor = 1e-3 * max(np.abs(fd).max(), 1e-8)
        gap = np.abs(analytic.astype(np.float64) - fd)
        tol = 1e-2 * np.maximum(np.abs(analytic), np.abs(fd)) + floor
        assert np.all(gap <= tol), f"{name}: per-component gradient mismatch"
        if np.linalg.norm(fd) > 0:
            assert cosine_distance(analytic, fd) <= 1e-3, f"{name}: cosine distance too large"
        all_analytic.append(analytic.ravel())
        all_fd.append(fd.ravel())

    overall = rel_error(np.concatenate(all_analytic), np.concatenate(all_fd))
    assert overall <= 1e-3
    elapsed = time.monotonic() - start
    assert elapsed < 120, f"gradient checks took {elapsed:.0f}s"
    report(1, f"backward kernels + full {sum(a.size for a in all_fd)}-parameter model vs central "
              f"finite differences, aggregate rel err {overall:.1e}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 2. restriction identity
# ---------------------------------------------------------------------------


def test_criterion_02_restriction_identity():
    from wordlm.vocab import CLS_ID, SEP_ID

    vocab_size = 60
    model = WordBertModel(
        ModelConfig(vocab_size=vocab_size, num_layers=1, num_heads=2, hidden=16,
                    embed_dim=16, max_positions=12, dropout=0.0),
        seed=206,
    )
    model.params["mlm.bias"].data[:] = np.random.default_rng(207).standard_normal(vocab_size) * 0.2
    rng = np.random.default_rng(208)
    subset_rng = np.random.default_rng(213)
    worst = {"full": 0.0, "subset": 0.0}
    for _ in range(100):
        rows = []
        for _ in range(3):
            body = rng.integers(NUM_SPECIALS, vocab_size, size=int(rng.integers(3, 9))).tolist()
            rows.append([CLS_ID] + body + [SEP_ID] + [0] * (10 - 2 - len(body)))
        masked = apply_masking(np.array(rows), rng, vocab_size)
        sampled = subset_rng.choice(np.arange(NUM_SPECIALS, vocab_size), size=10, replace=False)
        subset = np.unique(
            np.concatenate([np.arange(NUM_SPECIALS), masked.target_global_ids, sampled])
        )
        for name, ids in (("full", np.arange(vocab_size)), ("subset", subset)):
            gap = abs(mlm_loss(model, masked, ids).item() - restricted_loss64(model, masked, ids))
            worst[name] = max(worst[name], gap)
    assert max(worst.values()) <= 1e-6, worst
    report(2, f"restricted head == float64 softmax over full-vocabulary logits on 100 random "
              f"batches, max gap {worst['full']:.1e} (all ids), {worst['subset']:.1e} (subset)")


# ---------------------------------------------------------------------------
# 3. sampler soundness
# ---------------------------------------------------------------------------


def test_criterion_03_sampler_soundness():
    vocab_size, sample_size, k = 10_000, 500, NEIGHBORS
    emb = np.random.default_rng(209).standard_normal((vocab_size, 16)).astype(np.float32)
    index = NeighborIndex(emb)
    rng = np.random.default_rng(210)
    for _ in range(1000):
        batch = set(rng.integers(NUM_SPECIALS, vocab_size, size=int(rng.integers(5, 120))).tolist())
        masked = set(rng.choice(sorted(batch), size=min(len(batch), 6), replace=False).tolist())
        bv = sample_batch_vocab(
            sorted(batch), sorted(masked), vocab_size=vocab_size, sample_size=sample_size,
            rng=rng, neighbor_index=index,
        )
        missing = [t for t in masked if t not in bv]
        assert not missing, f"masked targets missing from batch vocab: {missing}"
        assert len(bv) <= sample_size + len(batch) + k * len(masked) + NUM_SPECIALS

    counts = np.zeros(vocab_size, dtype=np.int64)
    chi_rng = np.random.default_rng(211)
    for _ in range(1000):
        bv = sample_batch_vocab([], [], vocab_size=vocab_size,
                                sample_size=sample_size, rng=chi_rng)
        counts[bv] += 1
    _, pvalue = stats.chisquare(counts[NUM_SPECIALS:])
    assert pvalue > 0.001
    report(3, f"1000 batches: 100% target membership, size bound held, "
              f"inclusion chi-square p={pvalue:.3f}")


# ---------------------------------------------------------------------------
# 4. neighbor exactness
# ---------------------------------------------------------------------------


def test_criterion_04_neighbor_exactness():
    emb = np.random.default_rng(212).standard_normal((200, 300)).astype(np.float32)
    index = NeighborIndex(emb)
    expected = brute_force_topk(emb, k=10)
    matches = 0
    for q in range(100):
        got = index.neighbors_of_many([q])
        assert list(got) == expected[q], f"query {q} differs"
        matches += 1
    report(4, f"top-10 cosine neighbors identical to O(V^2) oracle, {matches}/100 queries")


# ---------------------------------------------------------------------------
# 5. projection recovery
# ---------------------------------------------------------------------------


def test_criterion_05_projection_recovery():
    start = time.monotonic()
    rng = np.random.default_rng(213)
    planted = (rng.standard_normal((300, 768)) / np.sqrt(300)).astype(np.float32)
    xs = rng.standard_normal((500, 300)).astype(np.float32)
    held_x = rng.standard_normal((200, 300)).astype(np.float32)
    w, _ = pretrain_projection(xs, xs @ planted)
    held_mse = projection_mse(w, held_x, held_x @ planted)
    assert held_mse < 1e-3, f"held-out mse {held_mse}"

    v_in = np.zeros(300, np.float32)
    v_in[0] = 1.0
    v_out = rng.standard_normal(768).astype(np.float32)
    _, single_mse = pretrain_projection(v_in[None], v_out[None])
    assert single_mse < 1e-9, f"single-pair residual {single_mse}"
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"projection recovery took {elapsed:.0f}s"
    report(5, f"planted 300->768 map recovered, held-out mse {held_mse:.1e}, "
              f"single-pair residual {single_mse:.1e}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 6. overfit sanity
# ---------------------------------------------------------------------------


def test_criterion_06_overfit_sanity(overfit_bundle):
    acc = masked_top1_accuracy(
        overfit_bundle["model"], overfit_bundle["vocab"],
        overfit_bundle["lines"], overfit_bundle["max_length"],
    )
    elapsed = overfit_bundle["train_seconds"]
    assert acc >= 0.95, f"masked top-1 accuracy {acc:.3f}"
    assert elapsed < 900, f"training took {elapsed:.0f}s"
    assert len(overfit_bundle["records"]) == 2000
    report(6, f"2-layer H=64 model reached masked top-1 {acc:.3f} within 2000 steps "
              f"({elapsed:.0f}s train time)")


# ---------------------------------------------------------------------------
# 7. zero-shot probing pipeline
# ---------------------------------------------------------------------------


def test_criterion_07_probing_pipeline(overfit_bundle):
    model = overfit_bundle["model"]
    vocab = overfit_bundle["vocab"]
    lines = overfit_bundle["lines"]
    counts = count_frequencies(lines)
    realized = sorted(counts.values())
    qs = [realized[int(len(realized) * q)] for q in (0.25, 0.5, 0.8)]
    low, medium, high = qs[0], qs[1], max(qs[2], qs[1] + 1)
    buckets = FrequencyBuckets(dict(counts), high=high, medium=medium, low=max(low, 1))

    got_counts = {}
    probes_all = []
    for i, bucket in enumerate(BUCKET_NAMES):
        probes = build_probe_set(lines, buckets, bucket, p=0.15,
                                 rng=np.random.default_rng(300 + i))
        got_counts[bucket] = sum(len(ex.masked_positions) for ex in probes)
        probes_all.extend(probes)

    streams = {b: np.random.default_rng(300 + i) for i, b in enumerate(BUCKET_NAMES)}
    oracle_counts = dict.fromkeys(BUCKET_NAMES, 0)
    for line in lines:
        for w in segment_words(line):
            b = bucket_of(w, buckets)
            if streams[b].random() < 0.15:
                oracle_counts[b] += 1
    assert got_counts == oracle_counts
    assert sum(got_counts.values()) == sum(oracle_counts.values())

    checksum_before = model.checksum()
    rep = probe_topk(model, vocab, probes_all, ks=(1, 5, 10),
                     max_length=overfit_bundle["max_length"])
    assert model.checksum() == checksum_before
    populated = 0
    for bucket in BUCKET_NAMES:
        if rep["total"][bucket]:
            populated += 1
            accs = rep["accuracy"][bucket]
            assert accs[1] <= accs[5] <= accs[10]
    assert populated >= 3
    report(7, f"per-bucket masked counts {tuple(got_counts.values())} equal the "
              f"single-pass oracle; accuracy non-decreasing in k over {populated} buckets")


# ---------------------------------------------------------------------------
# 8. cloze mechanism
# ---------------------------------------------------------------------------


def test_criterion_08_cloze_mechanism(copy_task_bundle):
    model = copy_task_bundle["model"]
    vocab = copy_task_bundle["vocab"]
    words = copy_task_bundle["words"]
    rng = np.random.default_rng(214)
    items = []
    for line in copy_task_bundle["held_out"]:
        ws = segment_words(line)
        answer = ws[-1]
        passage = ws[:-1] + [BLANK_SENTINEL]
        distractors = [w for w in words if w != answer]
        options = [answer] + [distractors[i] for i in rng.choice(len(distractors), 3, replace=False)]
        order = rng.permutation(4)
        shuffled = [options[i] for i in order]
        items.append(ClozeItem(passage, shuffled, int(np.where(order == 0)[0][0])))

    chosen = [score_cloze(model, vocab, it, copy_task_bundle["max_length"]) for it in items]
    acc = float(np.mean([c == it.answer_index for c, it in zip(chosen, items)]))
    assert acc >= 0.9, f"cloze accuracy {acc:.3f} (random baseline 0.25)"

    model.params["mlm.bias"].data[:] += 11.0  # constant shift of every logit
    shifted = [score_cloze(model, vocab, it, copy_task_bundle["max_length"]) for it in items]
    model.params["mlm.bias"].data[:] -= 11.0
    assert shifted == chosen
    report(8, f"synthetic cloze accuracy {acc:.3f} vs 0.25 baseline; argmax invariant "
              f"to constant logit shift on all {len(items)} items")


# ---------------------------------------------------------------------------
# 9. reproducibility + resume
# ---------------------------------------------------------------------------


def test_criterion_09_reproducibility(tmp_path):
    """Two runs of one seed and config write byte-identical metrics, and a run
    saved, loaded and resumed continues with bit-exact losses.

    The scope is one BLAS build at one fixed ``OPENBLAS_NUM_THREADS``: a float32
    GEMM's rounding may depend on the thread count (the tied head's input
    gradient, whose K is the batch vocabulary, does here), so comparisons across
    commits pin both. ``test_criterion_09_resume_identity_at_fixed_blas_threads``
    checks the resume at 1 and at 2 threads, each against itself.
    """
    from wordlm.checkpoint import load_checkpoint, save_checkpoint

    words = [f"r{i:02d}" for i in range(30)]
    rng = np.random.default_rng(215)
    lines = [" ".join(rng.choice(words, size=6)) for _ in range(40)]
    vocab = build_vocabulary({w: 4 for w in words}, k=30)
    cfg = TrainConfig(peak_lr=1e-3, warmup_steps=10, total_steps=105, batch_size=4,
                      seed=216, sample_size=20, max_length=8)

    def fresh():
        return WordBertModel(
            ModelConfig(vocab_size=vocab.size, num_layers=1, num_heads=2, hidden=16,
                        embed_dim=16, max_positions=8, dropout=0.0),
            seed=217,
        )

    paths = []
    for name in ("a", "b"):
        model = fresh()
        records, _ = train(lines, vocab, model, cfg, num_steps=100)
        p = tmp_path / f"metrics_{name}.tsv"
        write_metrics(records, p)
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()

    model_full = fresh()
    records_full, _ = train(lines, vocab, model_full, cfg, num_steps=105)

    model_half = fresh()
    _, opt_half = train(lines, vocab, model_half, cfg, num_steps=100)
    ckpt = tmp_path / "resume.ckpt"
    save_checkpoint(model_half, opt_half, step=100, path=ckpt)
    loaded = load_checkpoint(ckpt)
    resumed, _ = train(lines, vocab, loaded.model, cfg,
                       optimizer=loaded.optimizer, num_steps=5)
    tail_full = [r.loss for r in records_full[100:]]
    tail_resumed = [r.loss for r in resumed]
    assert tail_full == tail_resumed
    report(9, "two 100-step runs byte-identical; save/load/resume losses bit-exact for 5 steps")


def resume_identity(out_dir):
    """Criterion 09's resume at a batch vocabulary of more than 768 rows (V =
    2,505, ``sample_size`` 1000), dropout on: writes ``full.tsv`` and
    ``full.ckpt`` after 6 uninterrupted steps, and ``resumed.tsv`` and
    ``resumed.ckpt`` after 4 steps, a save and load, and 2 more steps. The
    ``.tsv`` files hold steps 4-5."""
    from wordlm.checkpoint import load_checkpoint, save_checkpoint

    out = Path(out_dir)
    words = [f"w{i:04d}" for i in range(2500)]
    rng = np.random.default_rng(218)
    lines = [" ".join(rng.choice(words, size=22)) for _ in range(64)]
    vocab = build_vocabulary({w: 2 for w in words}, k=len(words))
    cfg = TrainConfig(peak_lr=1e-3, warmup_steps=2, total_steps=20, batch_size=16,
                      seed=219, sample_size=1000, max_length=24)

    def fresh():
        return WordBertModel(
            ModelConfig(vocab_size=vocab.size, num_layers=1, num_heads=2, hidden=64,
                        embed_dim=64, max_positions=24, dropout=0.1),
            seed=220,
        )

    model = fresh()
    records, optimizer = train(lines, vocab, model, cfg, num_steps=6)
    write_metrics(records[4:], out / "full.tsv")
    save_checkpoint(model, optimizer, step=6, path=out / "full.ckpt")

    model = fresh()
    _, optimizer = train(lines, vocab, model, cfg, num_steps=4)
    save_checkpoint(model, optimizer, step=4, path=out / "half.ckpt")
    loaded = load_checkpoint(out / "half.ckpt")
    records, optimizer = train(lines, vocab, loaded.model, cfg, optimizer=loaded.optimizer,
                               num_steps=2)
    write_metrics(records, out / "resumed.tsv")
    save_checkpoint(loaded.model, optimizer, step=6, path=out / "resumed.ckpt")


@pytest.mark.parametrize("threads", ["1", "2"])
def test_criterion_09_resume_identity_at_fixed_blas_threads(tmp_path, threads):
    """At one fixed BLAS thread count, in a fresh interpreter that reads it, a
    resumed run equals an uninterrupted one byte for byte: metrics and
    checkpoint. Nothing is asserted across thread counts."""
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
        [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-c", "import sys; from test_acceptance import "
                    "resume_identity; resume_identity(sys.argv[1])", str(tmp_path)],
                   env=env, check=True, timeout=300)
    assert (tmp_path / "full.tsv").read_bytes() == (tmp_path / "resumed.tsv").read_bytes()
    assert (tmp_path / "full.ckpt").read_bytes() == (tmp_path / "resumed.ckpt").read_bytes()
    report(9, f"at OPENBLAS_NUM_THREADS={threads}, a resume past a 1000+ row batch "
              "vocabulary matches the uninterrupted run byte for byte")


# ---------------------------------------------------------------------------
# 10. schedule
# ---------------------------------------------------------------------------


def test_criterion_10_schedule():
    cfg = TrainConfig()
    assert lr_at(0, cfg) == 0.0
    assert lr_at(5_000, cfg) == 5e-5
    assert lr_at(102_500, cfg) == pytest.approx(2.5e-5, rel=1e-12)
    assert lr_at(200_000, cfg) == 0.0
    assert lr_at(250_000, cfg) == 0.0
    # linear on both segments
    for s in (1, 1_250, 2_500, 4_999):
        assert lr_at(s, cfg) == pytest.approx(5e-5 * s / 5_000, rel=1e-12)
    for s in (5_001, 50_000, 150_000, 199_999):
        assert lr_at(s, cfg) == pytest.approx(5e-5 * (200_000 - s) / 195_000, rel=1e-12)
    report(10, "lr schedule: 0 at step 0, 5e-5 at 5000, linear decay to 0 at 200000")


# ---------------------------------------------------------------------------
# 11. parameter accounting
# ---------------------------------------------------------------------------


def test_criterion_11_parameter_accounting():
    counts = parameter_counts(ModelConfig(vocab_size=500_005))
    t_gap = abs(counts["transformer"] - 85_000_000) / 85_000_000
    e_gap = abs(counts["embedding"] - 384_000_000) / 384_000_000
    assert t_gap <= 0.02, f"transformer off by {t_gap:.2%}"
    assert e_gap <= 0.02, f"embedding off by {e_gap:.2%}"
    report(11, f"reference config: transformer {counts['transformer']:,} (within "
               f"{t_gap:.2%}), embedding {counts['embedding']:,} (within {e_gap:.2%})")
