"""Oracles the tests check chainboost against.

Each one re-derives by the plainest route what the package computes a faster
way: a teacher-forced forward and a greedy chain decode as folds of
forward_step, the teacher-forced chain walk as forward_train calls that keep
every activation, a gradient by central differences, the alignment estimate
as a loop of one-row passes, a training batch pass and chain_eval over
every column, the dead ones past the last labelled column included, the
layer kernels as out-of-place expressions, one fresh array per step, which
the in-place kernels must match bit for bit, the embedding gradient by
np.add.at, and a layer's parameter view with (n,) gains and biases, which
the (1, 1, n) ones must match bit for bit. Last come the references only
the tests call: a task's labels re-derived from its tokens, the wavefront
grid's anti-diagonal widths, and cross-entropy and the suppression loss as
plain formulas over probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from chainboost import pipeline
from chainboost.ensemble import Ensemble, fuse_logits
from chainboost.model import _GELU_A, _GELU_C, LAYER_VECTORS, LN_EPS, KvCache, TransformerModel
from chainboost.tasks import NO_LABEL, TaskSpec
from chainboost.training import (
    AlignmentEstimate,
    batch_loss_and_grad,
    chain_logits,
)


@dataclass
class LayerTrace:
    """Per-step, per-layer post-block hidden states plus final logits.

    hidden[t, l] is h_{l,t} for l in 0..L (0 = embedding output);
    logits[t] is z_t.
    """

    hidden: np.ndarray  # (T, L + 1, d_model)
    logits: np.ndarray  # (T, vocab)


def forward_teacher(
    model: TransformerModel,
    token_ids,
    fusion_in: Optional[dict[int, np.ndarray]] = None,
) -> LayerTrace:
    """Teacher-forced forward: fold forward_step over the sequence.

    fusion_in maps fusion layer l -> (T, d_model) array of predecessor
    states, one row per step.
    """
    s = model.spec
    token_ids = list(token_ids)
    T = len(token_ids)
    cache = KvCache(s.n_layers)
    hidden = np.zeros((T, s.n_layers + 1, s.d_model))
    logits = np.zeros((T, s.vocab))
    for t, tok in enumerate(token_ids):
        step_fusion = None
        if fusion_in is not None:
            step_fusion = {l: fusion_in[l][t] for l in fusion_in}
        logits[t], hidden[t], cache = model.forward_step(tok, cache, step_fusion)
    return LayerTrace(hidden=hidden, logits=logits)


def step_fold(ens: Ensemble, prompt, max_tokens: int):
    """The greedy decode as a fold of forward_step over the chain: the
    sequential decoder's oracle. Every step runs every model in full, the
    steps that emit nothing included."""
    caches = [KvCache(m.spec.n_layers) for m in ens.models]

    def step(token, emit):
        zs, states = [], None
        for i, m in enumerate(ens.models):
            z, states, _ = m.forward_step(token, caches[i], ens.fusion_inputs(i, states))
            zs.append(z)
        return fuse_logits(zs, ens.spec.lambdas, ens.spec.top_k)

    return pipeline._greedy(ens, prompt, max_tokens, step)


def chain_walk_train(ens: Ensemble, upto: int, tokens):
    """The teacher-forced chain walk through model `upto` as one forward_train
    per model, activations kept: every walked model's logits and model
    `upto`'s states, as Ensemble.walk returns them."""
    zs, states = [], None
    for i in range(upto + 1):
        z, acts = ens.models[i].forward_train(tokens, ens.fusion_inputs(i, states))
        assert len(acts["layers"]) == ens.models[i].spec.n_layers
        zs.append(z)
        states = acts["states"]
    return zs, states


def stage_batch_pass_full(model: TransformerModel, tokens, gold, err, alpha, beta,
                          fusion_in=None, keys=None):
    """training.stage_batch_pass over the full (B, T) batch: one forward_train,
    the loss and one backward, every column included."""
    logits, acts = model.forward_train(tokens, fusion_in)
    ce, supp, dz = batch_loss_and_grad(logits, gold, err, alpha, beta)
    return ce, supp, model.backward(dz, acts, keys=keys)


def chain_eval_full(ens: Ensemble, dataset) -> dict:
    """training.chain_eval over every column of the dataset."""
    zs = chain_logits(ens, dataset.tokens)
    labeled = dataset.gold >= 0
    gold = dataset.gold[labeled]
    accs = [float((z.argmax(-1)[labeled] == gold).mean()) for z in zs]
    fused = fuse_logits(zs, ens.spec.lambdas, ens.spec.top_k)
    fused_acc = float((fused.argmax(-1)[labeled] == gold).mean())
    return {"model_accs": accs, "base_acc": accs[0], "fused_acc": fused_acc}


def finite_diff_grad(
    f: Callable[[np.ndarray], float], x: np.ndarray, eps: float = 1e-6
) -> np.ndarray:
    """Central-difference gradient of a scalar function, one coordinate at a time."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.ravel()
    xw = x.copy()
    xf = xw.ravel()
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + eps
        fp = float(f(xw))
        xf[i] = orig - eps
        fm = float(f(xw))
        xf[i] = orig
        g = (fp - fm) / (2.0 * eps)
        if not np.isfinite(g):
            raise FloatingPointError(f"finite_diff_grad: non-finite difference at index {i}")
        flat[i] = g
    return grad


def estimate_alignment_loop(model: TransformerModel, tokens, gold, err, keys, beta,
                            fusion_in=None):
    """estimate_alignment as a loop over samples: per row one forward_train and
    two backward calls, each on a one-row batch_loss_and_grad. Returns the
    estimate and the per-row CE and suppression gradients, (B, P) each."""
    B = tokens.shape[0]
    rho, gamma, count = 0.0, 0.0, 0
    rows_ce, rows_s = [], []
    for b in range(B):
        tb, gb, eb = tokens[b : b + 1], gold[b : b + 1], err[b : b + 1]
        f_in = {l: fusion_in[l][b : b + 1] for l in fusion_in} if fusion_in else None
        logits, acts = model.forward_train(tb, f_in)
        _, _, dz_ce = batch_loss_and_grad(logits, gb, np.full_like(eb, -1), 1.0, beta)
        g_ce = model.backward(dz_ce, acts, keys=keys)
        # suppression-only gradient (the alpha = 0 contribution)
        _, _, dz_s = batch_loss_and_grad(logits, gb, eb, 0.0, beta)
        g_s = model.backward(dz_s, acts, keys=keys)
        rows_ce.append(g_ce)
        rows_s.append(g_s)
        count += 1
        n_ce = float(np.linalg.norm(g_ce))
        n_s = float(np.linalg.norm(g_s))
        if n_ce <= 0:
            continue
        gamma = max(gamma, n_s / n_ce)
        if n_s > 0:
            cos = float(g_s @ g_ce) / (n_s * n_ce)
            rho = max(rho, min(-cos, 1.0 - 1e-12))
    rho = max(0.0, rho)
    est = AlignmentEstimate(rho=rho, gamma=gamma, sample_count=count)
    return est, np.array(rows_ce), np.array(rows_s)


# -- the layer kernels, out of place: the in-place ones must match these bit for bit


def softmax_rows(z):
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def gelu_tanh(x):
    return np.tanh(_GELU_C * (x + _GELU_A * (x * x * x)))


def gelu(x, t):
    return 0.5 * x * (1.0 + t)


def gelu_grad(x, t):
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * _GELU_C * (1.0 + 3.0 * _GELU_A * (x * x))


def ln_forward(x, gain, bias):
    d = x.shape[-1]
    xc = x - np.add.reduce(x, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(np.add.reduce(xc * xc, axis=-1, keepdims=True) / d + LN_EPS)
    xhat = xc * inv
    return gain * xhat + bias, (xhat, inv)


def ln_backward(dy, saved, gain):
    xhat, inv = saved
    dxhat = dy * gain
    d = dy.shape[-1]
    return inv * (
        dxhat
        - np.add.reduce(dxhat, axis=-1, keepdims=True) / d
        - xhat * (np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / d)
    )


def attention(qh, kh, vh, scale, mask=None):
    scores = (qh @ kh.swapaxes(-1, -2)) * scale
    attn = softmax_rows(scores if mask is None else scores + mask)
    return attn @ vh, attn


def attention_backward(doh, qh, kh, vh, attn, scale):
    dattn = doh @ vh.swapaxes(-1, -2)
    dvh = attn.swapaxes(-1, -2) @ doh
    dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
    dqh = (dscores @ kh) * scale
    dkh = (dscores.swapaxes(-1, -2) @ qh) * scale
    return dqh, dkh, dvh


def transformer_layer(p, ht, n_heads, mask):
    """model.transformer_layer without a cache, its residual and bias adds
    out of place; returns (h, activations) like it."""
    B, T, d = ht.shape
    dh = d // n_heads
    qh, kh, vh = ((ht @ p[w]).reshape(B, T, n_heads, dh).transpose(0, 2, 1, 3)
                  for w in ("wq", "wk", "wv"))
    oh, attn = attention(qh, kh, vh, 1.0 / math.sqrt(dh), mask)
    o = oh.transpose(0, 2, 1, 3).reshape(B, T, d)
    ha, ln_a = ln_forward(o @ p["wo"] + ht, p["ln_attn_g"], p["ln_attn_b"])
    u1 = ha @ p["w1"] + p["b1"]
    t1 = gelu_tanh(u1)
    g1 = gelu(u1, t1)
    h, ln_m = ln_forward(g1 @ p["w2"] + p["b2"] + ha, p["ln_mlp_g"], p["ln_mlp_b"])
    return h, dict(p=p, ht=ht, qh=qh, kh=kh, vh=vh, attn=attn, o=o,
                   ln_attn=ln_a, ha=ha, u1=u1, t1=t1, g1=g1, ln_mlp=ln_m)


def backward(model: TransformerModel, dlogits, acts, per_sample=False):
    """TransformerModel.backward with every key, its gradient steps out of
    place over the oracle kernels above, and its layer weights taken from
    model.params, wq and wv merged with their factors here, not from the
    forward's parameter view."""
    s = model.spec
    params = model.params

    def weight(key):
        """A layer weight as the forward ran it: w + A @ B where it has factors."""
        w = params[key]
        return w + params[key + ".A"] @ params[key + ".B"] if key + ".A" in params else w

    B, T, _ = dlogits.shape
    nh, dh = s.n_heads, s.d_model // s.n_heads
    scale = 1.0 / np.sqrt(dh)
    rows = 1 if per_sample else (0, 1)

    def wgrad(x, dy):
        if per_sample:
            return x.swapaxes(-1, -2) @ dy
        return x.reshape(-1, x.shape[-1]).T @ dy.reshape(-1, dy.shape[-1])

    def heads(x):
        return x.transpose(0, 2, 1, 3).reshape(B, T, s.d_model)

    grads = {"unemb": wgrad(acts["states"][-1], dlogits)}
    dh_ = dlogits @ params["unemb"].T
    for l in range(s.n_layers, 0, -1):
        p, a = f"l{l}.", acts["layers"][l - 1]
        w = {name: weight(p + name) for name in ("wq", "wk", "wv", "wo", "w1", "w2",
                                                 "ln_attn_g", "ln_mlp_g")}
        grads[p + "ln_mlp_g"] = (dh_ * a["ln_mlp"][0]).sum(axis=rows)
        grads[p + "ln_mlp_b"] = dh_.sum(axis=rows)
        dr2 = ln_backward(dh_, a["ln_mlp"], w["ln_mlp_g"])
        grads[p + "w2"] = wgrad(a["g1"], dr2)
        grads[p + "b2"] = dr2.sum(axis=rows)
        du1 = (dr2 @ w["w2"].T) * gelu_grad(a["u1"], a["t1"])
        grads[p + "w1"] = wgrad(a["ha"], du1)
        grads[p + "b1"] = du1.sum(axis=rows)
        dha = dr2 + du1 @ w["w1"].T
        grads[p + "ln_attn_g"] = (dha * a["ln_attn"][0]).sum(axis=rows)
        grads[p + "ln_attn_b"] = dha.sum(axis=rows)
        dr1 = ln_backward(dha, a["ln_attn"], w["ln_attn_g"])
        grads[p + "wo"] = wgrad(a["o"], dr1)
        doh = (dr1 @ w["wo"].T).reshape(B, T, nh, dh).transpose(0, 2, 1, 3)
        dq, dk, dv = map(heads, attention_backward(doh, a["qh"], a["kh"], a["vh"], a["attn"], scale))
        for name, dy in (("wq", dq), ("wk", dk), ("wv", dv)):
            key = p + name
            grads[key] = dw = wgrad(a["ht"], dy)
            if key + ".A" in params:
                grads[key + ".A"] = dw @ params[key + ".B"].T
                grads[key + ".B"] = params[key + ".A"].T @ dw
        dht = dr1 + (dq @ w["wq"].T + dk @ w["wk"].T + dv @ w["wv"].T)
        dh_ = ln_backward(dht, a["ln_fuse"], 1.0) if a["fused"] else dht
    dpos = np.zeros(((B,) if per_sample else ()) + params["pos_emb"].shape)
    dpos[..., :T, :] = dh_ if per_sample else dh_.sum(axis=0)
    grads["tok_emb"] = embedding_grad(acts["tokens"], dh_, s.vocab, per_sample)
    grads["pos_emb"] = dpos
    return grads


def embedding_grad(tokens, dh, vocab, per_sample=False):
    """model._embedding_grad by np.add.at: each dh[b, t] added onto row
    tokens[b, t] of a zero (vocab, d) table, or of row b's own table."""
    B, _, d = dh.shape
    if per_sample:
        out = np.zeros((B, vocab, d))
        np.add.at(out, (np.arange(B)[:, None], tokens), dh)
    else:
        out = np.zeros((vocab, d))
        np.add.at(out, tokens, dh)
    return out


def layer_params_1d(model: TransformerModel, l: int) -> dict:
    """model.layer_params(l) with its gains and biases as the (n,) params
    arrays themselves, not (1, 1, n) views: the same call's operands at
    another rank, which broadcasting must not change a bit of."""
    return {name: arr.reshape(arr.shape[-1:]) if name in LAYER_VECTORS else arr
            for name, arr in model.layer_params(l).items()}


# -- references only the tests call


def derive_gold(task: TaskSpec, tokens: np.ndarray) -> np.ndarray:
    """Re-derive labels from a token sequence; the generator's independent check."""
    tokens = list(int(t) for t in tokens)
    T = len(tokens)
    gold = [NO_LABEL] * T
    if task.kind in ("copy", "reverse"):
        m = task.length
        payload = tokens[:m]
        answer = payload if task.kind == "copy" else payload[::-1]
        for j, a in enumerate(answer):
            gold[m + j] = a
        gold[m + len(answer)] = task.eos
    elif task.kind == "modsum":
        for t in range(1, task.length - 1):
            gold[t] = (tokens[t] + tokens[t - 1]) % task.modulus
        gold[task.length - 1] = task.eos
    else:
        marker_pos = tokens.index(task.marker)
        needle = tokens[marker_pos + 1]
        gold[T - 3] = needle
        gold[T - 2] = task.eos
    return np.array(gold, dtype=np.int64)


def antidiagonal_width(k: int, l: int, s: int) -> int:
    """Number of grid tasks (m, i) with m + i == s; s ranges over [2, k + l]."""
    if not (2 <= s <= k + l):
        raise ValueError(f"s must be in [2, {k + l}], got {s}")
    return min(k, s - 1) - max(1, s - l) + 1


def cross_entropy(p, gold: int) -> float:
    """-log p[gold] for probabilities p."""
    return -math.log(p[gold])


def suppression_loss(p, gold: int, err: Optional[int], beta: float) -> float:
    """-log sigma(beta (log p[gold] - log p[err])) for probabilities p, or 0
    when err is None."""
    if err is None:
        return 0.0
    return float(np.logaddexp(0.0, -beta * (math.log(p[gold]) - math.log(p[err]))))
