"""Oracles the tests check chainboost against.

Each one re-derives by the plainest route what the package computes a faster
way: a teacher-forced forward and a greedy chain decode as folds of
forward_step, and a gradient by central differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from chainboost import pipeline
from chainboost.ensemble import Ensemble, fuse_logits
from chainboost.model import KvCache, TransformerModel


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
