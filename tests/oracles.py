"""Oracles the tests check chainboost against.

Each one re-derives by the plainest route what the package computes a faster
way: a teacher-forced forward and a greedy chain decode as folds of
forward_step, the teacher-forced chain walk as forward_train calls that keep
every activation, a gradient by central differences, the alignment estimate
as a loop of one-row passes, and a training batch pass and chain_eval over
every column, the dead ones past the last labelled column included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from chainboost import pipeline
from chainboost.ensemble import Ensemble, fuse_logits
from chainboost.model import KvCache, TransformerModel
from chainboost.training import (
    AlignmentEstimate,
    batch_loss_and_grad,
    chain_logits,
    flatten_grads,
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
    sequential decoder's oracle."""
    caches = [KvCache(m.spec.n_layers) for m in ens.models]

    def step(token):
        zs, states = [], None
        for i, m in enumerate(ens.models):
            z, states, _ = m.forward_step(token, caches[i], ens.fusion_inputs(i, states))
            zs.append(z)
        return fuse_logits(zs, ens.spec.lambdas, ens.spec.top_k)

    return pipeline._greedy(ens, prompt, max_tokens, step)


def chain_walk_train(ens: Ensemble, upto: int, tokens):
    """The teacher-forced chain walk through model `upto` as one forward_train
    per model, activations kept: every walked model's logits and model
    `upto`'s states, as training._chain_forward returns them."""
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
        g_ce = flatten_grads(model.backward(dz_ce, acts), keys)
        # suppression-only gradient (the alpha = 0 contribution)
        _, _, dz_s = batch_loss_and_grad(logits, gb, eb, 0.0, beta)
        g_s = flatten_grads(model.backward(dz_s, acts), keys)
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
