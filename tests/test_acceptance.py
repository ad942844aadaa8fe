"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines alongside pytest's own pass/fail output.
"""

import time

import numpy as np
import pytest
from scipy import stats

from wordlm import tensor as T
from wordlm.model import ModelConfig, WordBertModel, parameter_counts
from wordlm.sampling import NeighborIndex, sample_batch_vocab
from wordlm.tensor import Tensor
from wordlm.training import (
    MaskingPolicy,
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


def _primitive_checks():
    """(name, loss tensor, [(leaf tensor, float64 loss fn)]) per primitive."""
    rng = np.random.default_rng(201)

    def leaf(*shape):
        return Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)

    def const(*shape):
        return Tensor(rng.standard_normal(shape).astype(np.float32))

    checks = []

    a, b, r = leaf(3, 4), leaf(4, 5), const(3, 5)
    checks.append((
        "matmul",
        T.mean(T.mul(T.matmul(a, b), r)),
        [(a, lambda v: float(((v @ b.data.astype(np.float64)) * r.data).mean())),
         (b, lambda v: float(((a.data.astype(np.float64) @ v) * r.data).mean()))],
    ))

    x, rr = leaf(18), const(18)
    checks.append((
        "gelu_erf",
        T.mean(T.mul(T.gelu(x), rr)),
        [(x, lambda v: float((gelu64(v) * rr.data).mean()))],
    ))

    ln_x, gamma, beta, ln_r = leaf(4, 8), leaf(8), leaf(8), const(4, 8)

    def ln64(xv, gv, bv):
        mu = xv.mean(axis=-1, keepdims=True)
        var = ((xv - mu) ** 2).mean(axis=-1, keepdims=True)
        return (xv - mu) / np.sqrt(var + 1e-5) * gv + bv

    checks.append((
        "layer_norm",
        T.mean(T.mul(T.layer_norm(ln_x, gamma, beta), ln_r)),
        [(ln_x, lambda v: float((ln64(v, gamma.data, beta.data) * ln_r.data).mean())),
         (gamma, lambda v: float((ln64(ln_x.data.astype(np.float64), v, beta.data) * ln_r.data).mean())),
         (beta, lambda v: float((ln64(ln_x.data.astype(np.float64), gamma.data, v) * ln_r.data).mean()))],
    ))

    sm_x, sm_r = leaf(3, 6), const(3, 6)
    checks.append((
        "softmax",
        T.mean(T.mul(T.softmax(sm_x), sm_r)),
        [(sm_x, lambda v: float((softmax64(v) * sm_r.data).mean()))],
    ))

    ce_x, ce_t, ce_r = leaf(3, 11), np.array([4, 0, 10]), const(3)

    def ce64(v):
        m = v.max(axis=1, keepdims=True)
        lse = m[:, 0] + np.log(np.exp(v - m).sum(axis=1))
        return float(((lse - v[np.arange(3), ce_t]) * ce_r.data).mean())

    checks.append((
        "cross_entropy_rows",
        T.mean(T.mul(T.cross_entropy_rows(ce_x, ce_t), ce_r)),
        [(ce_x, ce64)],
    ))

    ax, ab, ar = leaf(3, 5), leaf(5), const(3, 5)
    checks.append((
        "add_broadcast",
        T.mean(T.mul(T.add(ax, ab), ar)),
        [(ax, lambda v: float(((v + ab.data) * ar.data).mean())),
         (ab, lambda v: float(((ax.data.astype(np.float64) + v) * ar.data).mean()))],
    ))

    mx, my = leaf(4, 4), leaf(4, 4)
    checks.append((
        "mul",
        T.mean(T.mul(T.mul(mx, my), 0.5)),
        [(mx, lambda v: float((v * my.data * 0.5).mean())),
         (my, lambda v: float((mx.data.astype(np.float64) * v * 0.5).mean()))],
    ))

    table, gr = leaf(6, 3), const(4, 3)
    ids = np.array([5, 0, 5, 2])
    checks.append((
        "gather_rows",
        T.mean(T.mul(T.gather_rows(table, ids), gr)),
        [(table, lambda v: float((v[ids] * gr.data).mean()))],
    ))

    tx = leaf(2, 3, 4)
    checks.append((
        "reshape_transpose_mean",
        T.mean(T.transpose(T.reshape(tx, (6, 4)), (1, 0))),
        [(tx, lambda v: float(v.mean()))],
    ))

    return checks


def _acceptance_model_and_batch():
    vocab_size = 35
    model = WordBertModel(
        ModelConfig(vocab_size=vocab_size, num_layers=2, num_heads=2, hidden=16,
                    embed_dim=16, max_positions=12, dropout=0.0),
        seed=202,
    )
    rng = np.random.default_rng(203)
    from wordlm.vocab import CLS_ID, SEP_ID

    rows = []
    for _ in range(2):
        body = rng.integers(NUM_SPECIALS, vocab_size, size=8).tolist()
        rows.append([CLS_ID] + body + [SEP_ID])
    masked = apply_masking(np.array(rows), MaskingPolicy(mask_ratio=0.3), np.random.default_rng(204), vocab_size)
    extra = np.random.default_rng(205).choice(
        np.arange(NUM_SPECIALS, vocab_size), size=15, replace=False
    )
    bv = np.unique(np.concatenate([np.arange(NUM_SPECIALS), extra, masked.target_global_ids]))
    return model, masked, bv


def test_criterion_01_gradient_correctness():
    start = time.monotonic()

    for name, loss, fd_specs in _primitive_checks():
        loss.backward()
        for tensor_, f64 in fd_specs:
            assert tensor_.grad is not None, f"{name}: no gradient"
            fd = central_diff_grad(f64, tensor_.data)
            err = rel_error(tensor_.grad, fd)
            assert err <= 1e-3, f"{name}: aggregate relative error {err:.2e}"

    model, masked, bv = _acceptance_model_and_batch()
    loss = mlm_loss(model, masked, bv)
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
    report(1, f"primitives + full {sum(a.size for a in all_fd)}-parameter model vs central "
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
        masked = apply_masking(np.array(rows), MaskingPolicy(), rng, vocab_size)
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
    vocab_size, sample_size, k = 10_000, 500, 10
    emb = np.random.default_rng(209).standard_normal((vocab_size, 16)).astype(np.float32)
    index = NeighborIndex(emb)
    rng = np.random.default_rng(210)
    for _ in range(1000):
        batch = set(rng.integers(NUM_SPECIALS, vocab_size, size=int(rng.integers(5, 120))).tolist())
        masked = set(rng.choice(sorted(batch), size=min(len(batch), 6), replace=False).tolist())
        bv = sample_batch_vocab(
            sorted(batch), sorted(masked), vocab_size=vocab_size, sample_size=sample_size,
            rng=rng, neighbor_index=index, k=k,
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
        got = index.neighbors_of_many([q], k=10)
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
    w, losses = pretrain_projection(xs, xs @ planted, lr=200.0, epochs=250, rng=rng)
    held_mse = projection_mse(w, held_x, held_x @ planted)
    assert held_mse < 1e-3, f"held-out mse {held_mse}"

    v_in = np.zeros(300, np.float32)
    v_in[0] = 1.0
    v_out = rng.standard_normal(768).astype(np.float32)
    _, single_losses = pretrain_projection(
        v_in[None], v_out[None], lr=300.0, epochs=200, rng=rng
    )
    assert single_losses[-1] < 1e-9, f"single-pair residual {single_losses[-1]}"
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"projection recovery took {elapsed:.0f}s"
    report(5, f"planted 300->768 map recovered, held-out mse {held_mse:.1e}, "
              f"single-pair residual {single_losses[-1]:.1e}, {elapsed:.0f}s")


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
                       optimizer=loaded.optimizer, start_step=100, num_steps=5)
    tail_full = [r.loss for r in records_full[100:]]
    tail_resumed = [r.loss for r in resumed]
    assert tail_full == tail_resumed
    report(9, "two 100-step runs byte-identical; save/load/resume losses bit-exact for 5 steps")


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
