"""Loss functions, analytic gradients, chain trainer, and descent diagnostics.

The composite objective per sequence is sum_t L_supp(t) + alpha * sum_t CE(t),
where the suppression term -log sigma(beta (log p[gold] - log p[err])) is
active only at positions where the frozen predecessor predicted wrongly.
Gradients are taken in logit space (alpha (p - y*) plus
beta sigma(-u) (y_err - y*)) and pushed through the model's backward pass.
One core, _objective, computes both from probabilities: training runs it
through batch_loss_and_grad, and the scalar API the gradient checks use is
its one-position view.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .ensemble import Ensemble, ErrorTokenTrace, fuse_logits
from .model import TransformerModel, is_factor
from .numkit import ShapeError, softmax_rows
from .tasks import Dataset

log = logging.getLogger(__name__)

PROB_FLOOR = 1e-30

DEFAULT_ALPHA = 0.90
DEFAULT_BETA = 0.10


@dataclass
class TrainConfig:
    alpha: float = DEFAULT_ALPHA
    beta: float = DEFAULT_BETA
    learning_rate: float = 0.1
    epochs: int = 60
    batch_size: int = 32
    seed: int = 0
    stage2_epochs: Optional[int] = None  # defaults to epochs
    stage2_learning_rate: Optional[float] = None
    successor_init: str = "base_copy"  # or "fresh"

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0 or self.learning_rate <= 0:
            raise ValueError("alpha, beta, learning_rate must be positive")
        if self.successor_init not in ("base_copy", "fresh"):
            raise ValueError(
                f"successor_init must be 'base_copy' or 'fresh', got {self.successor_init!r}"
            )


@dataclass
class AlignmentEstimate:
    rho: float  # worst-case -cos(g_s, g_ce), clamped to [0, 1)
    gamma: float  # worst-case |g_s| / |g_ce|
    sample_count: int


class EmptyEstimateError(RuntimeError):
    """No active error tokens in the batch; alignment is undefined."""


class BoundViolatedError(RuntimeError):
    """alpha <= rho * gamma: the descent theorem's precondition fails."""


class DivergenceError(RuntimeError):
    """Training loss went non-finite."""


def _objective(
    p: np.ndarray, gold: np.ndarray, err: np.ndarray, alpha: float, beta: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The composite objective from probabilities: the one loss implementation.

    p is (..., V); gold and err are (...) with -1 holes, and err counts only
    where gold is labeled. Returns per-position CE and suppression (...) and
    the unscaled dlogits (..., V) of sum(suppression + alpha * CE). Logs one
    warning per call that floors a probability at PROB_FLOOR.
    """
    if gold.shape != p.shape[:-1] or err.shape != gold.shape:
        raise ShapeError(f"probabilities {p.shape} do not match gold {gold.shape} / err {err.shape}")
    V = p.shape[-1]
    g, e = gold.ravel(), err.ravel()
    d = p.copy()
    flat = d.reshape(-1)  # a view: the copy is C-contiguous
    labeled = g >= 0
    r = labeled.nonzero()[0]
    ig = r * V + g[r]  # flat index of each labeled position's gold entry
    act = e[r] >= 0
    a = r[act]
    ie, iga = a * V + e[a], ig[act]  # the active positions' err and gold entries
    if (ie == iga).any():
        raise ValueError("error token must differ from gold")
    pg, pe = flat[ig], flat[ie]
    clamped = np.count_nonzero(pg < PROB_FLOOR) + np.count_nonzero(pe < PROB_FLOOR)
    if clamped:
        log.warning("composite loss: %d probabilities clamped to floor %.0e", clamped, PROB_FLOOR)
    flat[ig] -= 1.0
    d *= alpha
    if r.size < g.size:
        d.reshape(-1, V)[~labeled] = 0.0
    log_pg = np.log(np.maximum(pg, PROB_FLOOR))
    ce = np.zeros(g.size)
    ce[r] = -log_pg
    supp = np.zeros(g.size)
    if a.size:
        u = beta * (log_pg[act] - np.log(np.maximum(pe, PROB_FLOOR)))
        supp[a] = np.logaddexp(0.0, -u)  # -log sigma(u), computed stably
        coeff = beta * (1.0 / (1.0 + np.exp(np.clip(u, -500, 500))))
        flat[ie] += coeff
        flat[iga] -= coeff
    return ce.reshape(gold.shape), supp.reshape(gold.shape), d


def _at(p: np.ndarray, gold: int, err: Optional[int], alpha: float = 1.0, beta: float = 1.0):
    """The objective at one position: (CE, suppression, dlogits (V,))."""
    e = -1 if err is None else err
    ce, supp, d = _objective(np.asarray(p)[None], np.array([gold]), np.array([e]), alpha, beta)
    return float(ce[0]), float(supp[0]), d[0]


def suppression_loss(p: np.ndarray, gold: int, err: Optional[int], beta: float) -> float:
    """-log sigma(beta (log p[gold] - log p[err])), or 0 when err is absent."""
    return _at(p, gold, err, beta=beta)[1]


def cross_entropy(p: np.ndarray, gold: int) -> float:
    return _at(p, gold, None)[0]


def loss_logit_grad(
    p: np.ndarray, gold: int, err: Optional[int], alpha: float, beta: float
) -> np.ndarray:
    """Gradient of (suppression + alpha * CE) w.r.t. the logits at one step."""
    return _at(p, gold, err, alpha, beta)[2]


def total_loss(
    logits: np.ndarray,
    gold: Sequence[int],
    err_trace: ErrorTokenTrace,
    alpha: float,
    beta: float,
) -> float:
    """Eq-style composite: sum_t suppression + alpha * sum_t CE, over labeled steps."""
    logits = np.asarray(logits)
    if logits.shape[0] != len(gold) or len(err_trace) != len(gold):
        raise ValueError("logits, gold and error trace must align")
    err = np.array([-1 if e is None else e for e in err_trace.tokens], dtype=int)
    ce, supp, _ = _objective(softmax_rows(logits), np.asarray(gold, dtype=int), err, alpha, beta)
    return float((supp + alpha * ce).sum())


def batch_loss_and_grad(
    logits: np.ndarray,
    gold: np.ndarray,
    err: np.ndarray,
    alpha: float,
    beta: float,
) -> tuple[float, float, np.ndarray]:
    """Vectorized composite loss over a (B, T, V) batch.

    err is (B, T) with -1 where the predecessor was correct (or no label).
    Returns (mean CE per sequence, mean suppression per sequence, dlogits
    scaled for the batch-mean objective).
    """
    B = logits.shape[0]
    ce, supp, dlogits = _objective(softmax_rows(logits), gold, err, alpha, beta)
    return float(ce.sum() / B), float(supp.sum() / B), dlogits / B


# -- parameter updates ----------------------------------------------------


def trainable_keys(model: TransformerModel, scope: str) -> list[str]:
    """The sorted params keys a scope trains: 'full' every base parameter,
    'adapters' only the low-rank factors (the keys ending in .A or .B)."""
    if scope not in ("full", "adapters"):
        raise ValueError(f"unknown scope {scope!r}")
    keys = sorted(k for k in model.params if is_factor(k) == (scope == "adapters"))
    if not keys:
        raise ValueError("model has no adapters; use scope='full'")
    return keys


def sgd_step(model: TransformerModel, grads: dict, lr: float, keys: Sequence[str]) -> None:
    """In-place params -= lr * grads, restricted to the given keys."""
    for key in keys:
        g = grads.get(key)
        if g is None:
            continue
        arr = model.params[key]
        if g.shape != arr.shape:
            raise ValueError(f"gradient shape {g.shape} does not match {key} {arr.shape}")
        arr -= lr * g


def flatten_grads(grads: dict, keys: Sequence[str]) -> np.ndarray:
    return np.concatenate([np.ravel(grads[k]) for k in keys])


def flatten_params(model: TransformerModel, keys: Sequence[str]) -> np.ndarray:
    return np.concatenate([np.ravel(model.params[k]) for k in keys])


def load_flat_params(model: TransformerModel, keys: Sequence[str], theta: np.ndarray) -> None:
    """Inverse of flatten_params: write theta's slices into the params in place."""
    off = 0
    for key in keys:
        arr = model.params[key]
        arr[...] = theta[off : off + arr.size].reshape(arr.shape)
        off += arr.size


# -- forward/backward wrappers --------------------------------------------


def stage_batch_pass(
    model: TransformerModel,
    tokens: np.ndarray,
    gold: np.ndarray,
    err: np.ndarray,
    alpha: float,
    beta: float,
    fusion_in: Optional[dict[int, np.ndarray]] = None,
):
    """One forward + composite-loss backward; returns (ce, supp, grads)."""
    logits, acts = model.forward_train(tokens, fusion_in)
    ce, supp, dz = batch_loss_and_grad(logits, gold, err, alpha, beta)
    grads = model.backward(dz, acts)
    return ce, supp, grads


# -- alignment / descent diagnostics --------------------------------------


def estimate_alignment(
    model: TransformerModel,
    tokens: np.ndarray,
    gold: np.ndarray,
    err: np.ndarray,
    keys: Sequence[str],
    beta: float,
    fusion_in: Optional[dict[int, np.ndarray]] = None,
) -> AlignmentEstimate:
    """Worst-case angle and norm ratio between the suppression and CE gradients.

    Both gradients are taken per sample over the trainable keys. gold/err use
    -1 holes as elsewhere; samples whose CE gradient vanishes are skipped for
    the ratio. One batched pass serves every sample: one forward_train over
    all rows, then one per-sample backward for CE and one for suppression.
    """
    if not ((err >= 0) & (gold >= 0)).any():
        raise EmptyEstimateError("no active error tokens in batch")
    rho, gamma, count = 0.0, 0.0, 0
    for g_ce, g_s in _alignment_rows(model, tokens, gold, err, keys, beta, fusion_in):
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
    return AlignmentEstimate(rho=rho, gamma=gamma, sample_count=count)


def _alignment_rows(model, tokens, gold, err, keys, beta, fusion_in):
    """Yield each row's flat gradients over keys, in order, of its CE and of
    its suppression term (the alpha = 0 objective), from one forward and two
    per-sample backwards. A row's dlogits are unscaled, as a one-row
    batch_loss_and_grad gives them. Rows are flattened one at a time, so no
    (B, P) copy of either gradient is made."""
    logits, acts = model.forward_train(tokens, fusion_in)
    p = softmax_rows(logits)
    B = tokens.shape[0]
    rows = []
    for e, alpha in ((np.full_like(err, -1), 1.0), (err, 0.0)):
        grads = model.backward(_objective(p, gold, e, alpha, beta)[2], acts, per_sample=True)
        rows.append([grads[k].reshape(B, -1) for k in keys])
    del acts  # the generator would hold the activations until its last row
    ce, supp = rows
    for b in range(B):
        yield np.concatenate([g[b] for g in ce]), np.concatenate([g[b] for g in supp])


def descent_lr_bound(alpha: float, rho: float, gamma: float, l_smooth: float) -> float:
    """eta*(alpha) = 2 (alpha - rho gamma) / (L (alpha + gamma)^2)."""
    if l_smooth <= 0:
        raise ValueError("smoothness constant must be positive")
    if alpha <= rho * gamma:
        raise BoundViolatedError(
            f"alpha={alpha} <= rho*gamma={rho * gamma}; descent precondition fails"
        )
    return 2.0 * (alpha - rho * gamma) / (l_smooth * (alpha + gamma) ** 2)


# -- the chain trainer -----------------------------------------------------


def _iter_batches(n: int, batch_size: int, rng: np.random.Generator):
    perm = rng.permutation(n)
    if batch_size <= 0 or batch_size >= n:
        yield perm
        return
    for i in range(0, n, batch_size):
        yield perm[i : i + batch_size]


def train_model(
    model: TransformerModel,
    dataset: Dataset,
    cfg: TrainConfig,
    *,
    scope: str,
    alpha: float,
    beta: float,
    err: Optional[np.ndarray] = None,
    fusion_in: Optional[dict[int, np.ndarray]] = None,
    epochs: Optional[int] = None,
    learning_rate: Optional[float] = None,
    stage: str = "stage1",
    model_index: int = 0,
    metrics: Optional[list] = None,
) -> list[dict]:
    """SGD over one model; err/fusion_in come from a frozen predecessor."""
    keys = trainable_keys(model, scope)
    rng = np.random.default_rng(cfg.seed)
    n = len(dataset)
    if n == 0:
        raise ValueError("dataset is empty")
    if err is None:
        err = np.full_like(dataset.gold, -1)
    metrics = metrics if metrics is not None else []
    epochs = epochs if epochs is not None else cfg.epochs
    lr = learning_rate if learning_rate is not None else cfg.learning_rate
    for epoch in range(epochs):
        ce_sum, supp_sum, nb = 0.0, 0.0, 0
        for idx in _iter_batches(n, cfg.batch_size, rng):
            f_in = None
            if fusion_in is not None:
                f_in = {l: fusion_in[l][idx] for l in fusion_in}
            ce, supp, grads = stage_batch_pass(
                model, dataset.tokens[idx], dataset.gold[idx], err[idx], alpha, beta, f_in
            )
            if not np.isfinite(ce) or not np.isfinite(supp):
                raise DivergenceError(
                    f"{stage} model {model_index} epoch {epoch}: loss is not finite"
                )
            sgd_step(model, grads, lr, keys)
            ce_sum += ce
            supp_sum += supp
            nb += 1
        metrics.append(
            {
                "stage": stage,
                "model_index": model_index,
                "epoch": epoch,
                "ce": ce_sum / nb,
                "suppression": supp_sum / nb,
            }
        )
    return metrics


def train_chain(ensemble: Ensemble, dataset: Dataset, cfg: TrainConfig) -> list[dict]:
    """Two-stage chain training; returns per-epoch metrics records.

    Stage 1 fine-tunes the base model on plain CE (full-parameter when it has
    no adapters, adapter-only otherwise). Stage 2 walks the chain: freeze the
    predecessor, harvest its teacher-forced trace and error tokens, then train
    the successor on its own logits under the composite objective.
    """
    metrics: list[dict] = []
    base = ensemble.models[0]
    scope0 = "adapters" if base.spec.adapter_rank > 0 else "full"
    train_model(
        base,
        dataset,
        cfg,
        scope=scope0,
        alpha=1.0,
        beta=cfg.beta,
        stage="stage1",
        model_index=0,
        metrics=metrics,
    )

    s2_epochs = cfg.stage2_epochs if cfg.stage2_epochs is not None else cfg.epochs
    s2_lr = cfg.stage2_learning_rate if cfg.stage2_learning_rate is not None else cfg.learning_rate
    for i in range(1, len(ensemble.models)):
        pred = ensemble.models[i - 1]
        succ = ensemble.models[i]
        if cfg.successor_init == "base_copy":
            # no pretrained checkpoints exist at this scale; the trained base
            # plays that role for every successor
            donor = ensemble.models[0]
            base_keys = [k for k in succ.params if not is_factor(k)]
            for k in base_keys:
                v, src = succ.params[k], donor.params.get(k)
                if src is None or src.shape != v.shape:
                    raise ValueError(
                        f"base_copy: param {k!r} of model {i} has shape {v.shape}, "
                        f"the base's is {'missing' if src is None else src.shape}"
                    )
            succ.params = {k: donor.params[k].copy() for k in base_keys}
            if succ.spec.adapter_rank > 0:
                succ.init_adapters(np.random.default_rng(succ.spec.seed + 1))
        pred_logits, pred_states = pred_forward_chain(ensemble, i - 1, dataset.tokens)
        err = predecessor_errors(pred_logits, dataset.gold)
        fusion_in = ensemble.fusion_inputs(i, pred_states)
        scope_i = "adapters" if succ.spec.adapter_rank > 0 else "full"
        train_model(
            succ,
            dataset,
            cfg,
            scope=scope_i,
            alpha=cfg.alpha,
            beta=cfg.beta,
            err=err,
            fusion_in=fusion_in,
            epochs=s2_epochs,
            learning_rate=s2_lr,
            stage="stage2",
            model_index=i,
            metrics=metrics,
        )
        _append_alignment(metrics, succ, dataset, err, cfg, scope_i, i, fusion_in=fusion_in)
    return metrics


def _chain_forward(ensemble: Ensemble, upto: int, tokens: np.ndarray):
    """Teacher-forced walk down the chain through model `upto`.

    Returns every walked model's (B, T, V) logits and model `upto`'s states
    [h_0, ..., h_L], each (B, T, d_model). No backward follows, so each model
    runs the checked walk without keeping layer activations (forward_train
    keeps them): while model i + 1 runs, only model i's states, which its
    fusion layers read, stay alive.
    """
    zs, states = [], None
    for i in range(upto + 1):
        z, acts = ensemble.models[i]._forward(tokens, ensemble.fusion_inputs(i, states))
        zs.append(z)
        states = acts["states"]
    return zs, states


def chain_logits(ensemble: Ensemble, tokens: np.ndarray) -> list[np.ndarray]:
    """Teacher-forced per-model logits down the whole chain; list of (B,T,V)."""
    return _chain_forward(ensemble, len(ensemble.models) - 1, tokens)[0]


def chain_eval(ensemble: Ensemble, dataset: Dataset) -> dict:
    """Held-out next-token accuracy of every model and of the fused chain,
    from one teacher-forced chain walk that keeps no layer activations."""
    zs = chain_logits(ensemble, dataset.tokens)
    labeled = dataset.gold >= 0
    gold = dataset.gold[labeled]
    accs = [float((z.argmax(-1)[labeled] == gold).mean()) for z in zs]
    fused = fuse_logits(zs, ensemble.spec.lambdas, ensemble.spec.top_k)
    fused_acc = float((fused.argmax(-1)[labeled] == gold).mean())
    return {"model_accs": accs, "base_acc": accs[0], "fused_acc": fused_acc}


def pred_forward_chain(
    ensemble: Ensemble, upto: int, tokens: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Teacher-forced logits (B, T, V) and states [h_0, ..., h_L] of model
    `upto`, with its fusion inputs resolved down the chain."""
    zs, states = _chain_forward(ensemble, upto, tokens)
    return zs[-1], states


def predecessor_errors(pred_logits: np.ndarray, gold: np.ndarray) -> np.ndarray:
    """(B, T) array: predecessor argmax where it differs from gold, else -1.

    Positions with gold < 0 carry no supervision and never produce an error
    token. Argmax ties break toward the lowest index (np.argmax convention).
    """
    if pred_logits.shape[:-1] != gold.shape:
        raise ShapeError(f"logits cover {pred_logits.shape[:-1]} positions but gold is {gold.shape}")
    pred = pred_logits.argmax(axis=-1)
    return np.where((gold >= 0) & (pred != gold), pred, -1)


def _append_alignment(metrics, model, dataset, err, cfg, scope, model_index, cap: int = 12, fusion_in=None):
    active_rows = np.where((err >= 0).any(axis=1))[0][:cap]
    if active_rows.size == 0:
        return
    keys = trainable_keys(model, scope)
    f_in = {l: fusion_in[l][active_rows] for l in fusion_in} if fusion_in else None
    est = estimate_alignment(
        model,
        dataset.tokens[active_rows],
        dataset.gold[active_rows],
        err[active_rows],
        keys,
        cfg.beta,
        fusion_in=f_in,
    )
    rec = {
        "stage": "stage2_alignment",
        "model_index": model_index,
        "rho": est.rho,
        "gamma": est.gamma,
        "samples": est.sample_count,
    }
    if cfg.alpha > est.rho * est.gamma:
        rec["eta_bound_unit_smoothness"] = descent_lr_bound(cfg.alpha, est.rho, est.gamma, 1.0)
    metrics.append(rec)
