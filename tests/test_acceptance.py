"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Tolerances are pinned in the assertions.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from hngen import autodiff as ad
from hngen import cacai, cli, datakit, evalkit, gcl, kernels, losses, trainer
from hngen.backbone import Backbone, BackboneConfig, EmbeddingBatch

from gradcheck import fd_gradient, rel_error
from oracles import (
    fuse_random_weighting, interpolate_pair, j_ce, j_div, j_m, j_sim, lane_interpolants,
    original_np_loss,
)

REPO = Path(__file__).resolve().parent.parent
SMOKE_CONFIG = REPO / "configs" / "smoke.json"


def unit_rows(rng, n, d):
    z = rng.standard_normal((n, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _passline(n, name):
    print(f"\nACCEPTANCE {n:2d} [{name}]: PASS")


# -- 1. interpolation geometry ---------------------------------------------------


def test_01_interpolation_geometry():
    rng = np.random.default_rng(101)
    d = 16
    pairs = unit_rows(rng, 2000, d).reshape(1000, 2, d)
    lam_scalar = rng.uniform(0.05, 0.95, size=1000)
    etas = rng.uniform(0.1, 1.0, size=1000)
    # warm up before the timed section
    interpolate_pair(pairs[0, 0], pairs[0, 1], 0.5, 0.1, 1.0, 0.5)

    start = time.perf_counter()
    checked = 0
    for t in range(1000):
        z_i, z_j = pairs[t, 0], pairs[t, 1]
        d_minus = float(np.linalg.norm(z_j - z_i))
        if d_minus <= 1e-9:
            continue
        d_plus = d_minus * float(rng.uniform(0.05, 0.95))  # force first branch
        lam, eta = float(lam_scalar[t]), float(etas[t])
        out = interpolate_pair(z_i, z_j, lam, d_plus, d_minus, eta)
        want = d_plus + lam * eta * (d_minus - d_plus)
        assert abs(np.linalg.norm(out.data - z_i) - want) < 1e-6

        lam_vec = rng.uniform(0.0, 1.0, size=d)
        mid = interpolate_pair(z_i, z_j, lam_vec, d_plus, d_minus, eta).data
        lo = interpolate_pair(z_i, z_j, np.zeros(d), d_plus, d_minus, eta).data
        hi = interpolate_pair(z_i, z_j, np.ones(d), d_plus, d_minus, eta).data
        assert np.all(mid >= np.minimum(lo, hi) - 1e-12)
        assert np.all(mid <= np.maximum(lo, hi) + 1e-12)
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 1000
    assert elapsed < 5.0, f"geometry check took {elapsed:.2f}s"
    _passline(1, f"interpolation geometry, {elapsed:.2f}s")


# -- 2. second branch bit-for-bit -------------------------------------------------


def test_02_second_branch_returns_z_j_bitwise():
    rng = np.random.default_rng(102)
    for _ in range(500):
        z = unit_rows(rng, 2, 8)
        z_i, z_j = z[0], z[1]
        d_minus = float(np.linalg.norm(z_j - z_i))
        d_plus = d_minus * float(rng.uniform(1.0, 2.0))  # d- <= d+
        out = interpolate_pair(z_i, z_j, rng.uniform(0, 1, 8), d_plus, d_minus, 0.7)
        assert out.data.tobytes() == z_j.tobytes()
    # vectorized path too: each anchor's positive is antipodal, so d+ = 2
    # and every pair takes the second branch
    z = unit_rows(rng, 6, 8)
    z[3:] = -z[:3]
    zb = EmbeddingBatch(ad.Tensor(z), np.tile([1, 2, 3], 2), 3, 2)
    pos = np.array([3, 4, 5, 0, 1, 2])
    lam = ad.Tensor(rng.uniform(0, 1, (21, 8)))
    out = lane_interpolants(zb, lam, kernels.pair_index(6), 0.5, pos)
    for i in range(6):
        for j in range(6):
            assert out[i, j].tobytes() == zb.z.data[j].tobytes()
    _passline(2, "d- <= d+ returns the negative bit for bit")


# -- 3. attention mask exactness ---------------------------------------------------


def test_03_mask_exactness():
    rng = np.random.default_rng(103)
    for n, m in ((2, 2), (3, 2), (4, 3), (6, 4), (8, 3), (12, 2)):
        b = n * m
        assert b <= 24
        d = 8
        z = unit_rows(rng, b, d)
        labels = np.tile(rng.permutation(np.arange(1, n + 1)), m)
        net = gcl.GraphNet(d, rng, k_steps=1, heads=2, ffn_expansion=4,
                           share_weights_across_steps=True, node_propagation=True,
                           include_edge_sum=True, final_edge_step=True)
        _, probs = net.node_blocks[0].attention(ad.Tensor(z), labels)
        p = probs.data  # (H, B, B)
        same = labels[:, None] == labels[None, :]
        assert np.all(p[:, same] == 0.0)
        for h in range(p.shape[0]):
            assert np.all(np.abs(p[h].sum(axis=1) - 1.0) < 1e-6)
    _passline(3, "self/same-class attention weights exactly zero")


# -- 4. gradient checks ------------------------------------------------------------


def _check(fn, params, tol):
    for p in params:
        p.grad = None
    fn().backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
    numeric = fd_gradient(lambda: fn().data, params, eps=1e-6)
    worst = max(rel_error(a, n) for a, n in zip(analytic, numeric))
    assert worst <= tol, f"rel error {worst:.2e} > {tol}"
    return worst


def test_04_gradient_checks_all_losses_and_blocks():
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    b, d, n, m = 6, 8, 3, 2
    labels = np.tile([1, 2, 3], m)
    codec = losses.ClassCodec(np.array([1, 2, 3]))
    worst = {}

    # Eq. 8: synthetic-class cross-entropy
    head = losses.ClassifierHead(3, d, rng)
    zh = ad.parameter(rng.standard_normal(d))
    worst["j_ce"] = _check(
        lambda: j_ce(zh, 2, head, codec, frozen_head=False),
        [zh, head.linear.weight, head.linear.bias], 1e-4)

    # Eq. 9: similarity
    a1 = ad.parameter(rng.standard_normal(d))
    a2 = ad.parameter(rng.standard_normal(d))
    worst["j_sim"] = _check(lambda: j_sim(a1, a2), [a1, a2], 1e-4)

    # Eq. 10: diversity
    lam_e = ad.parameter(rng.uniform(0.2, 0.8, size=(4, d)))
    worst["j_div"] = _check(lambda: j_div(lam_e), [lam_e], 1e-4)

    # Eq. 11: generator composite (through synthetics and lambda)
    z_const = ad.Tensor(unit_rows(rng, b, d))
    z_hat = ad.parameter(rng.standard_normal((b, n, d)))
    lam = ad.parameter(rng.uniform(0.2, 0.8, (b * (b + 1) // 2, d)))
    slots = np.array([1, 2, 3])

    def gen_loss():
        synth = cacai.SyntheticNegatives(
            z_hat=z_hat, slot_labels=slots,
            valid=slots[None, :] != labels[:, None],
        )
        return losses.j_gen(z_const, synth, lam, kernels.pair_index(b), head, codec,
                            gamma_s=1.0, gamma_d=0.3)[0]

    worst["j_gen"] = _check(gen_loss, [z_hat, lam], 1e-4)

    # Eq. 12 / Eq. 13: head losses over real embeddings and node states
    z_p = ad.parameter(unit_rows(rng, b, d))
    worst["j_cz"] = _check(
        lambda: losses.j_cz(z_p, labels, head, codec),
        [z_p, head.linear.weight, head.linear.bias], 1e-4)
    head_cv = losses.ClassifierHead(3, d, rng)
    v_p = ad.parameter(rng.standard_normal((b, d)))
    worst["j_gca"] = _check(
        lambda: losses.j_gca(v_p, labels, head_cv, codec),
        [v_p, head_cv.linear.weight, head_cv.linear.bias], 1e-4)

    # Eq. 14: synthetic-pair loss
    pos = (np.arange(b) + n) % b
    zs = ad.parameter(unit_rows(rng, b, d))
    zh2 = ad.parameter(rng.standard_normal((b, n, d)))

    def syn_loss():
        synth = cacai.SyntheticNegatives(
            z_hat=zh2, slot_labels=slots,
            valid=slots[None, :] != labels[:, None],
        )
        return losses.j_syn(zs, pos, synth)

    worst["j_syn"] = _check(syn_loss, [zs, zh2], 1e-4)

    # Eq. 15: modified N-pair
    z_np = ad.parameter(unit_rows(rng, b, d))
    worst["np"] = _check(lambda: losses.np_loss(z_np, n, m), [z_np], 1e-4)

    # Eq. 16: proxy anchor
    bank = losses.ProxyBank(3, d, rng, alpha=32.0, margin=0.1)
    raw = ad.parameter(unit_rows(rng, b, d) * 1.2)
    worst["pa"] = _check(
        lambda: losses.pa_loss(ad.l2_normalize(raw), labels, bank, codec),
        [raw, bank.proxies], 1e-4)

    # graph blocks: scalar of V^K and E^K w.r.t. all block parameters
    net = gcl.GraphNet(d, rng, k_steps=1, heads=2, ffn_expansion=4,
                       share_weights_across_steps=True, node_propagation=True,
                       include_edge_sum=True, final_edge_step=True)
    zg = unit_rows(rng, b, d)
    wv = rng.standard_normal((b, d))
    we = rng.standard_normal((b, b, d))

    def graph_loss():
        zb = EmbeddingBatch(ad.Tensor(zg), labels, n, m)
        out = net.propagate(gcl.init_graph(zb))
        return (out.v * wv).sum() + (net.final_edges(out)[kernels.pair_index(b)] * we).sum()

    worst["gcl"] = _check(graph_loss, net.parameters(), 1e-4)

    # Eq. 17: full composite end to end (all paths attached), looser 1e-3
    cfg = trainer.TrainConfig(batch_classes=n, batch_instances=m, k_steps=1,
                              heads=2, metric_loss="np_modified", seed=0)
    backbone_cfg = BackboneConfig(hidden_dims=[6], embed_dim=d)
    model = trainer.HngModel(cfg, backbone_cfg, 5, codec, rng)
    feats = rng.standard_normal((b, 5))
    batch = datakit.LabeledBatch(feats, labels, n, m)

    def composite():
        zb = model.backbone.embed(batch)
        graph = model.propagate_graph(zb)
        lam2, lane = model.lambda_for(zb, graph)
        synth = cacai.synthesize(
            zb, lam2, lane, trainer.schedule_factor(5.0, 5.0),
            np.random.default_rng(42), pos,
        )
        return j_m(
            model.metric_loss_term(zb),
            losses.j_gca(graph.v, zb.labels, model.head_cv, codec),
            losses.j_syn(zb.z, pos, synth),
            gamma_n=0.4,
        )

    worst["composite"] = _check(composite, model.parameters(), 1e-3)

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"gradient checks took {elapsed:.1f}s"
    detail = " ".join(f"{k}={v:.1e}" for k, v in worst.items())
    _passline(4, f"finite differences, {elapsed:.1f}s, {detail}")


# -- 5. loop oracles ---------------------------------------------------------------


def _ce_scalar(logits, col):
    m = logits.max()
    return float(np.log(np.exp(logits - m).sum()) + m - logits[col])


def test_05_loss_loop_oracles():
    rng = np.random.default_rng(105)
    for trial in range(50):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 4))
        d = int(rng.integers(4, 9))
        b = n * m
        c_total = n + int(rng.integers(0, 3))
        ids = np.arange(1, c_total + 1)
        codec = losses.ClassCodec(ids)
        slots = rng.choice(ids, size=n, replace=False)
        labels = np.tile(slots, m)
        z = unit_rows(rng, b, d)
        zt = ad.Tensor(z)

        head = losses.ClassifierHead(c_total, d, rng)
        w, bias = head.linear.weight.data, head.linear.bias.data
        cols = codec.columns(labels)

        # j_cz and j_gca против per-sample CE loops
        got = losses.j_cz(zt, labels, head, codec).data
        want = np.mean([_ce_scalar(w @ z[i] + bias, cols[i]) for i in range(b)])
        assert abs(got - want) < 1e-6
        v = rng.standard_normal((b, d))
        head_cv = losses.ClassifierHead(c_total, d, rng)
        got = losses.j_gca(ad.Tensor(v), labels, head_cv, codec).data
        w2, b2 = head_cv.linear.weight.data, head_cv.linear.bias.data
        want = np.mean([_ce_scalar(w2 @ v[i] + b2, cols[i]) for i in range(b)])
        assert abs(got - want) < 1e-6

        # j_gen against the (i, n) double loop
        z_hat = rng.standard_normal((b, n, d)) * 0.6 + z[:, None, :]
        rows = rng.uniform(0.1, 0.9, (b * (b + 1) // 2, d))
        lam = cacai.lambda_lanes(rows, kernels.pair_index(b))
        synth = cacai.SyntheticNegatives(
            z_hat=ad.Tensor(z_hat), slot_labels=slots,
            valid=slots[None, :] != labels[:, None],
        )
        gamma_s, gamma_d = 1.0, 0.5
        got = losses.j_gen(zt, synth, ad.Tensor(rows), kernels.pair_index(b), head, codec,
                           gamma_s=gamma_s, gamma_d=gamma_d)[0].data
        slot_cols = codec.columns(slots)
        total = 0.0
        for i in range(b):
            entries = np.concatenate(
                [lam[i, j].ravel() for j in range(b) if labels[j] != labels[i]])
            div_i = 1.0 - entries.std()
            for s in range(n):
                if slots[s] == labels[i]:
                    continue
                logits = w @ z_hat[i, s] + bias
                ce = _ce_scalar(logits, slot_cols[s])
                sim = 1.0 - z[i] @ z_hat[i, s] / (
                    np.linalg.norm(z[i]) * np.linalg.norm(z_hat[i, s]))
                total += ce + gamma_s * sim + gamma_d * div_i
        assert abs(got - total / (b * n)) < 1e-6

        # j_syn against the direct formula
        pos = np.array([rng.choice([j for j in range(b)
                                    if labels[j] == labels[i] and j != i])
                        for i in range(b)])
        got = losses.j_syn(zt, pos, synth).data
        total = 0.0
        for i in range(b):
            acc = sum(np.exp(z[i] @ z_hat[i, s] - z[i] @ z[pos[i]])
                      for s in range(n) if slots[s] != labels[i])
            total += np.log(1.0 + acc)
        assert abs(got - total / b) < 1e-6

        # modified N-pair against the triple loop
        got = losses.np_loss(zt, n, m).data
        total = 0.0
        for g in range(1, m):
            for j in range(n):
                acc = sum(np.exp(z[j] @ z[q + g * n] - z[j] @ z[j + g * n])
                          for q in range(n) if q != j)
                total += np.log(1.0 + acc)
        assert abs(got - total / ((m - 1) * n)) < 1e-6

        # proxy anchor against the direct formula
        bank = losses.ProxyBank(c_total, d, rng, alpha=32.0, margin=0.1)
        got = losses.pa_loss(zt, labels, bank, codec).data
        p = bank.proxies.data / np.linalg.norm(bank.proxies.data, axis=1, keepdims=True)
        sims = z @ p.T
        present = np.unique(cols)
        pull = np.mean([
            np.log(1.0 + np.exp(-32.0 * (sims[cols == pc, pc] - 0.1)).sum())
            for pc in present])
        push = np.mean([
            np.log(1.0 + np.exp(32.0 * (sims[cols != pc, pc] + 0.1)).sum())
            for pc in range(c_total)])
        assert abs(got - (pull + push)) < 1e-6
    _passline(5, "vectorized losses equal scalar loop oracles on 50 batches")


# -- 6. N-pair equivalence --------------------------------------------------------


def test_06_np_m2_equals_original():
    rng = np.random.default_rng(106)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(3, 10))
        z = unit_rows(rng, 2 * n, d)
        labels = np.tile(np.arange(1, n + 1), 2)
        zt = ad.Tensor(z)
        a = losses.np_loss(zt, n, 2).data
        b = original_np_loss(zt, labels, n).data
        assert abs(a - b) <= 1e-9
    _passline(6, "modified N-pair at m=2 equals original within 1e-9")


# -- 7. retrieval metric oracles ----------------------------------------------------


def _oracle_metrics(index, ks):
    sims = index.query_z @ index.gallery_z.T
    nq, ng = sims.shape
    recalls = {k: 0.0 for k in ks}
    rps, aps = [], []
    for q in range(nq):
        order = sorted(range(ng), key=lambda g: (-sims[q, g], g))
        if index.exclude_self:
            order = [g for g in order if g != q]
        rel = [int(index.gallery_labels[g] == index.query_labels[q]) for g in order]
        for k in ks:
            recalls[k] += 1.0 if any(rel[:k]) else 0.0
        r = sum(rel)
        if r == 0:
            continue
        rps.append(sum(rel[:r]) / r)
        ap, seen = 0.0, 0
        for i, flag in enumerate(rel[:r], start=1):
            seen += flag
            if flag:
                ap += seen / i
        aps.append(ap / r)
    return {k: v / nq for k, v in recalls.items()}, float(np.mean(rps)), float(np.mean(aps))


def test_07_metric_oracles_exact():
    rng = np.random.default_rng(107)
    ks = [1, 2, 4, 8, 16, 32]
    for _ in range(20):
        z = unit_rows(rng, 200, 8)
        labels = rng.integers(1, 6, size=200)
        index = evalkit.RetrievalIndex.single_set(z, labels)
        rep = evalkit.evaluate_retrieval(index, ks)
        o_rec, o_rp, o_map = _oracle_metrics(index, ks)
        for k in ks:
            assert rep.recall_at[k] == o_rec[k]
        assert rep.r_precision == o_rp
        assert rep.map_at_r == o_map
        vals = [rep.recall_at[k] for k in ks]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
    _passline(7, "R@K/RP/MAP@R equal brute force exactly, R@K monotone")


# -- 8. stop-gradient contract -------------------------------------------------------


def test_08_stop_gradient_contract(tmp_path):
    ds = datakit.make_synthetic(datakit.SyntheticDatasetSpec(
        num_classes=4, samples_per_class=8, input_dim=5, seed=0))
    cfg = trainer.TrainConfig(epochs=1, batch_classes=3, batch_instances=2,
                              k_steps=1, heads=2, seed=11)
    tr = trainer.Trainer(ds, None, cfg, BackboneConfig(hidden_dims=[16], embed_dim=8),
                         tmp_path / "run")
    batch = datakit.sample_balanced(ds, 3, 2, tr.sampler_rng)
    zb = tr.model.backbone.embed(batch)
    zb_sg = EmbeddingBatch(zb.z.detach(), zb.labels, 3, 2)
    pos = cacai.select_positives(zb.labels, tr.positive_rng)

    # stage 1 leaves the backbone bit-identical
    before = {k: v.data.tobytes() for k, v in tr.model.backbone.named_parameters().items()}
    tr._stage1(zb_sg, pos, eta=0.7)
    after = {k: v.data.tobytes() for k, v in tr.model.backbone.named_parameters().items()}
    assert before == after

    # stage-2 lambda branch: zero gradient to the interpolation FC
    graph = tr.model.propagate_graph(zb)
    lam, lane = tr.model.lambda_for(zb, graph)
    synth = cacai.synthesize(zb, lam.detach(), lane, trainer.schedule_factor(5.0, 5.0),
                             np.random.default_rng(1), pos)
    total = j_m(
        tr.model.metric_loss_term(zb),
        losses.j_gca(graph.v, zb.labels, tr.model.head_cv, tr.codec),
        losses.j_syn(zb.z, pos, synth),
        gamma_n=0.5,
    )
    tr.model.zero_grad()
    total.backward()
    assert tr.model.lambda_head.fc.weight.grad is None
    assert tr.model.lambda_head.fc.bias.grad is None

    # C_z receives no synthetic-sample gradient
    tr.model.zero_grad()
    graph1 = tr.model.propagate_graph(zb_sg)
    lam1, lane1 = tr.model.lambda_for(zb_sg, graph1)
    synth1 = cacai.synthesize(zb_sg, lam1, lane1, trainer.schedule_factor(5.0, 5.0),
                              np.random.default_rng(2), pos)
    gen_loss, _ = losses.j_gen(zb_sg.z, synth1, lam1, lane1, tr.model.head_cz, tr.codec,
                               gamma_s=1.0, gamma_d=0.01)
    gen_loss.backward()
    assert tr.model.head_cz.linear.weight.grad is None
    assert tr.model.head_cz.linear.bias.grad is None

    # stage 2 moves neither the lambda head nor (at K=1) the edge block,
    # whose output feeds only sg(lambda): data, moments and step counts hold
    tr.model.zero_grad()
    tr.train_step(datakit.sample_balanced(ds, 3, 2, tr.sampler_rng))
    groups = tr.model.parameter_groups()
    stage1_only = [p for name, p in groups["gcl"].items() if name.startswith("edge_blocks.")]
    stage1_only += list(groups["cacai_fc"].values())
    opt = tr.opt
    generator = [i for i, group in enumerate(opt.group_of) if group == "lr_g"]
    held = [i for i, p in enumerate(opt.params) if any(p is q for q in stage1_only)]
    # stepped by the _stage1 call above and this step's stage 1 only
    assert len(held) == len(stage1_only) and all(opt.steps[i] == 2 for i in held)

    def state(i):
        seg = opt.segments[i]
        return (opt.params[i].data.tobytes(), opt.m[seg].tobytes(),
                opt.v[seg].tobytes(), opt.steps[i])

    before = {i: state(i) for i in generator}
    batch2 = datakit.sample_balanced(ds, 3, 2, tr.sampler_rng)
    zb2 = tr.model.backbone.embed(batch2)
    tr._stage2(zb2, cacai.select_positives(zb2.labels, tr.positive_rng), eta=0.7, gamma_n=0.4)
    for i in generator:
        if i in held:
            assert state(i) == before[i]
        else:  # the node block is in the stage-2 loss and steps
            assert state(i)[0] != before[i][0] and state(i)[3] == before[i][3] + 1
    _passline(8, "stop-gradient isolation holds in both stages")


# -- 9. schedule sanity ----------------------------------------------------------------


def test_09_schedule_sanity():
    cfg = trainer.TrainConfig(alpha_pull=5.0, beta=2.0)
    eta = trainer.eta_for_batch(cfg, trainer.RunState(avg_metric_loss=5.0))
    assert abs(eta - 0.36788) < 1e-5
    gamma = trainer.update_gen_tracker(cfg, trainer.RunState(), 2.0)
    assert abs(gamma - 0.36788) < 1e-5
    grid = np.linspace(0.2, 50.0, 200)
    etas = [trainer.eta_for_batch(cfg, trainer.RunState(avg_metric_loss=j)) for j in grid]
    gammas = [trainer.update_gen_tracker(cfg, trainer.RunState(), j) for j in grid]
    assert all(a < b for a, b in zip(etas, etas[1:]))
    assert all(a < b for a, b in zip(gammas, gammas[1:]))
    _passline(9, "eta and gamma_n reference values and monotonicity")


# -- 10. random-weighting convexity ------------------------------------------------------


def test_10_fusion_convexity():
    rng = np.random.default_rng(110)
    for _ in range(1000):
        k = int(rng.integers(2, 9))
        vecs = [ad.Tensor(rng.standard_normal(5)) for _ in range(k)]
        out, coeffs = fuse_random_weighting(vecs, rng)
        assert np.all(coeffs >= 0.0)
        assert abs(coeffs.sum() - 1.0) <= 1e-9
        direct = sum(c * v.data for c, v in zip(coeffs, vecs))
        assert np.allclose(out.data, direct, atol=1e-9)
    _passline(10, "1000 fusions expand to convex combinations")


# -- 11. end-to-end smoke -----------------------------------------------------------------


@pytest.mark.slow
def test_11_end_to_end_smoke(tmp_path):
    cfg = cli.resolve_config(str(SMOKE_CONFIG))
    assert cfg["dataset"]["num_classes"] == 8
    assert cfg["dataset"]["samples_per_class"] == 50
    assert cfg["dataset"]["input_dim"] == 64
    assert cfg["backbone"]["embed_dim"] == 64
    assert cfg["train"]["batch_classes"] == 4
    assert cfg["train"]["batch_instances"] == 3
    assert cfg["train"]["k_steps"] == 1
    assert cfg["train"]["heads"] == 2
    assert cfg["train"]["epochs"] == 30

    start = time.perf_counter()
    _, final = cli._fit_one(cfg, str(tmp_path / "full"), quiet=True)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"smoke run took {elapsed:.0f}s"
    r1_first = final["recall_at"]["1"]
    assert r1_first >= 0.90, f"held-out R@1 {r1_first:.3f} < 0.90"

    full_r1 = [r1_first]
    base_r1 = []
    for seed in (2, 3):
        c = json.loads(json.dumps(cfg))
        c["train"]["seed"] = seed
        _, f = cli._fit_one(c, str(tmp_path / "full"), quiet=True)
        full_r1.append(f["recall_at"]["1"])
    for seed in (1, 2, 3):
        c = json.loads(json.dumps(cfg))
        c["train"]["seed"] = seed
        c["train"]["ablation"] = "baseline"
        _, f = cli._fit_one(c, str(tmp_path / "base"), quiet=True)
        base_r1.append(f["recall_at"]["1"])
    full_mean, base_mean = np.mean(full_r1), np.mean(base_r1)
    assert full_mean >= base_mean - 0.02, (
        f"full arm mean R@1 {full_mean:.3f} inferior to baseline {base_mean:.3f}")
    _passline(11, f"smoke {elapsed:.0f}s, R@1={r1_first:.3f}, "
                  f"full={full_mean:.3f} vs baseline={base_mean:.3f}")


# -- 12. determinism ---------------------------------------------------------------------


def test_12_determinism(tmp_path):
    def run(name):
        ds = datakit.make_synthetic(datakit.SyntheticDatasetSpec(
            num_classes=4, samples_per_class=8, input_dim=5, seed=2))
        cfg = trainer.TrainConfig(epochs=2, batch_classes=3, batch_instances=2,
                                  k_steps=1, heads=2, seed=77)
        tr = trainer.Trainer(ds, None, cfg, BackboneConfig(hidden_dims=[8], embed_dim=8),
                             tmp_path / name)
        return tr.fit()

    r1, r2 = run("a"), run("b")

    def stripped(path):
        return [
            {k: v for k, v in json.loads(line).items() if k != "timestamp"}
            for line in path.read_text().strip().split("\n")
        ]

    assert stripped(r1.log_path) == stripped(r2.log_path)
    ckpts = sorted((r1.run_dir / "checkpoints").glob("epoch_*"))
    assert [d.name for d in ckpts] == ["epoch_000", "epoch_001", "epoch_002"]
    for d1 in ckpts:
        d2 = r2.run_dir / "checkpoints" / d1.name
        bins1 = sorted(d1.glob("*.bin"))
        assert bins1, "checkpoint has no parameter blobs"
        for f1 in bins1:
            assert f1.read_bytes() == (d2 / f1.name).read_bytes()
    _passline(12, "same seed: identical logs (minus wall clock) and checkpoints")
