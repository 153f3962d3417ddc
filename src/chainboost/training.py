"""Loss functions, analytic gradients, chain trainer, and descent diagnostics.

The composite objective per sequence is sum_t L_supp(t) + alpha * sum_t CE(t),
where the suppression term -log sigma(beta (log p[gold] - log p[err])) is
active only at positions where the frozen predecessor predicted wrongly.
Gradients are taken in logit space (alpha (p - y*) plus
beta sigma(-u) (y_err - y*)) and pushed through the model's backward pass.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .ensemble import Ensemble, ErrorTokenTrace, fuse_logits
from .model import TransformerModel
from .numkit import softmax, softmax_rows
from .tasks import NO_LABEL, Dataset

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
    precision: str = "f64"  # or "f32"
    stage2_epochs: Optional[int] = None  # defaults to epochs
    stage2_learning_rate: Optional[float] = None
    successor_init: str = "base_copy"  # or "fresh"

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0 or self.learning_rate <= 0:
            raise ValueError("alpha, beta, learning_rate must be positive")
        if self.precision not in ("f64", "f32"):
            raise ValueError("precision must be f64 or f32")


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


def _floored_log(p: float) -> tuple[float, bool]:
    if p < PROB_FLOOR:
        return float(np.log(PROB_FLOOR)), True
    return float(np.log(p)), False


def suppression_loss(p: np.ndarray, gold: int, err: Optional[int], beta: float) -> float:
    """-log sigma(beta (log p[gold] - log p[err])), or 0 when err is absent."""
    if err is None:
        return 0.0
    if err == gold:
        raise ValueError("error token must differ from gold")
    lg, fg = _floored_log(float(p[gold]))
    le, fe = _floored_log(float(p[err]))
    if fg or fe:
        log.warning("suppression_loss: probability clamped to floor %.0e", PROB_FLOOR)
    u = beta * (lg - le)
    # -log(sigmoid(u)) = log(1 + exp(-u)), computed stably
    return float(np.logaddexp(0.0, -u))


def cross_entropy(p: np.ndarray, gold: int) -> float:
    lg, flagged = _floored_log(float(p[gold]))
    if flagged:
        log.warning("cross_entropy: probability clamped to floor %.0e", PROB_FLOOR)
    return -lg


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
    out = 0.0
    for t, g in enumerate(gold):
        if g < 0:
            continue
        p = softmax(logits[t])
        out += suppression_loss(p, g, err_trace.tokens[t], beta) + alpha * cross_entropy(p, g)
    return out


def loss_logit_grad(
    p: np.ndarray, gold: int, err: Optional[int], alpha: float, beta: float
) -> np.ndarray:
    """Gradient of (suppression + alpha * CE) w.r.t. the logits at one step."""
    V = p.shape[0]
    grad = alpha * p.copy()
    grad[gold] -= alpha
    if err is not None:
        if err == gold:
            raise ValueError("error token must differ from gold")
        lg, _ = _floored_log(float(p[gold]))
        le, _ = _floored_log(float(p[err]))
        u = beta * (lg - le)
        sig_neg_u = 1.0 / (1.0 + np.exp(u)) if u > -30 else 1.0
        grad[err] += beta * sig_neg_u
        grad[gold] -= beta * sig_neg_u
    return grad


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
    B, T, V = logits.shape
    p = softmax_rows(logits)
    labeled = gold >= 0
    gold_safe = np.where(labeled, gold, 0)
    rows = np.take_along_axis(p, gold_safe[..., None], axis=-1)[..., 0]
    rows = np.maximum(rows, PROB_FLOOR)
    ce = float(np.where(labeled, -np.log(rows), 0.0).sum() / B)

    dlogits = alpha * (p - _onehot(gold_safe, V))
    dlogits[~labeled] = 0.0

    active = (err >= 0) & labeled
    supp = 0.0
    if active.any():
        err_safe = np.where(active, err, 0)
        pe = np.take_along_axis(p, err_safe[..., None], axis=-1)[..., 0]
        pe = np.maximum(pe, PROB_FLOOR)
        u = beta * (np.log(rows) - np.log(pe))
        supp = float(np.where(active, np.logaddexp(0.0, -u), 0.0).sum() / B)
        sig = np.where(active, 1.0 / (1.0 + np.exp(np.clip(u, -500, 500))), 0.0)
        coeff = beta * sig
        np.put_along_axis(
            dlogits,
            err_safe[..., None],
            np.take_along_axis(dlogits, err_safe[..., None], axis=-1) + coeff[..., None],
            axis=-1,
        )
        np.put_along_axis(
            dlogits,
            gold_safe[..., None],
            np.take_along_axis(dlogits, gold_safe[..., None], axis=-1) - coeff[..., None],
            axis=-1,
        )
    return ce, supp, dlogits / B


def _onehot(idx: np.ndarray, V: int) -> np.ndarray:
    out = np.zeros(idx.shape + (V,))
    np.put_along_axis(out, idx[..., None], 1.0, axis=-1)
    return out


# -- parameter updates ----------------------------------------------------


def trainable_keys(model: TransformerModel, scope: str) -> list[str]:
    """'full' covers every base parameter; 'adapters' only the low-rank factors."""
    if scope == "full":
        return sorted(model.params)
    if scope == "adapters":
        if not model.adapters:
            raise ValueError("model has no adapters; use scope='full'")
        return sorted(f"{name}.{fac}" for name in model.adapters for fac in ("A", "B"))
    raise ValueError(f"unknown scope {scope!r}")


def get_param(model: TransformerModel, key: str) -> np.ndarray:
    if key.endswith((".A", ".B")):
        name, fac = key.rsplit(".", 1)
        return getattr(model.adapters[name], fac)
    return model.params[key]


def sgd_step(model: TransformerModel, grads: dict, lr: float, keys: Sequence[str]) -> None:
    """In-place params -= lr * grads, restricted to the given keys."""
    for key in keys:
        g = grads.get(key)
        if g is None:
            continue
        arr = get_param(model, key)
        if g.shape != arr.shape:
            raise ValueError(f"gradient shape {g.shape} does not match {key} {arr.shape}")
        arr -= lr * g


def flatten_grads(grads: dict, keys: Sequence[str]) -> np.ndarray:
    return np.concatenate([np.ravel(grads[k]) for k in keys])


def flatten_params(model: TransformerModel, keys: Sequence[str]) -> np.ndarray:
    return np.concatenate([np.ravel(get_param(model, k)) for k in keys])


# -- forward/backward wrappers --------------------------------------------


def model_grads(
    model: TransformerModel,
    tokens: np.ndarray,
    dlogits: np.ndarray,
    fusion_in: Optional[dict[int, np.ndarray]] = None,
    acts: Optional[dict] = None,
) -> dict:
    if acts is None:
        _, acts = model.forward_train(tokens, fusion_in)
    return model.backward(dlogits, acts)


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
    the ratio.
    """
    B = tokens.shape[0]
    if not ((err >= 0) & (gold >= 0)).any():
        raise EmptyEstimateError("no active error tokens in batch")
    rho, gamma, count = 0.0, 0.0, 0
    for b in range(B):
        tb, gb, eb = tokens[b : b + 1], gold[b : b + 1], err[b : b + 1]
        f_in = {l: fusion_in[l][b : b + 1] for l in fusion_in} if fusion_in else None
        logits, acts = model.forward_train(tb, f_in)
        _, _, dz_ce = batch_loss_and_grad(logits, gb, np.full_like(eb, -1), 1.0, beta)
        g_ce = flatten_grads(model.backward(dz_ce, acts), keys)
        # suppression-only gradient (the alpha = 0 contribution)
        _, _, dz_s = batch_loss_and_grad(logits, gb, eb, 0.0, beta)
        g_s = flatten_grads(model.backward(dz_s, acts), keys)
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


def descent_lr_bound(alpha: float, rho: float, gamma: float, l_smooth: float) -> float:
    """eta*(alpha) = 2 (alpha - rho gamma) / (L (alpha + gamma)^2)."""
    if l_smooth <= 0:
        raise ValueError("smoothness constant must be positive")
    if alpha <= rho * gamma:
        raise BoundViolatedError(
            f"alpha={alpha} <= rho*gamma={rho * gamma}; descent precondition fails"
        )
    return 2.0 * (alpha - rho * gamma) / (l_smooth * (alpha + gamma) ** 2)


def estimate_smoothness(
    grad_at,
    theta0: np.ndarray,
    *,
    n_pairs: int = 24,
    scales: Sequence[float] = (1e-3, 1e-2, 1e-1),
    seed: int = 0,
) -> float:
    """Max secant ratio |grad(x1) - grad(x2)| / |x1 - x2| over sampled pairs.

    grad_at maps a flat parameter vector to the flat CE gradient.
    """
    rng = np.random.default_rng(seed)
    g0 = grad_at(theta0)
    best = 0.0
    for _ in range(n_pairs):
        d = rng.standard_normal(theta0.shape)
        d /= np.linalg.norm(d)
        for s in scales:
            g1 = grad_at(theta0 + s * d)
            best = max(best, float(np.linalg.norm(g1 - g0)) / s)
    return best


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
    scope0 = "full" if not base.adapters else "adapters"
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
            succ.params = {k: v.copy() for k, v in donor.params.items()}
            if succ.spec.adapter_rank > 0:
                succ.adapters = {}
                succ.init_adapters(np.random.default_rng(succ.spec.seed + 1))
        pred_logits, pred_acts = pred_forward_chain(ensemble, i - 1, dataset.tokens)
        err = predecessor_errors(pred_logits, dataset.gold)
        fusion_in = None
        if ensemble.spec.fusion_enabled:
            fusion_in = {
                l: pred_acts[:, :, l - 1, :]
                for l in succ.spec.fusion_layers()
            }
        scope_i = "adapters" if succ.adapters else "full"
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


def chain_logits(ensemble: Ensemble, tokens: np.ndarray) -> list[np.ndarray]:
    """Teacher-forced per-model logits down the whole chain; list of (B,T,V)."""
    hidden = None
    out = []
    for i, model in enumerate(ensemble.models):
        fusion_in = None
        if i > 0 and ensemble.spec.fusion_enabled:
            fusion_in = {l: hidden[:, :, l - 1, :] for l in model.spec.fusion_layers()}
        logits, acts = model.forward_train(tokens, fusion_in)
        states = [acts["h0"]] + _layer_outputs(acts)
        hidden = np.stack(states, axis=2)
        out.append(logits)
    return out


def chain_eval(ensemble: Ensemble, dataset: Dataset) -> dict:
    """Held-out next-token accuracy of every model and of the fused chain."""
    zs = chain_logits(ensemble, dataset.tokens)
    labeled = dataset.gold >= 0
    gold = dataset.gold[labeled]
    accs = [float((z.argmax(-1)[labeled] == gold).mean()) for z in zs]
    fused = fuse_logits(zs, ensemble.spec.lambdas, ensemble.spec.top_k)
    fused_acc = float((fused.argmax(-1)[labeled] == gold).mean())
    return {"model_accs": accs, "base_acc": accs[0], "fused_acc": fused_acc}


def pred_forward_chain(
    ensemble: Ensemble, upto: int, tokens: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Teacher-forced logits and hidden states of model `upto`, with its own
    fusion inputs resolved down the chain. Returns (logits (B,T,V),
    hidden (B,T,L+1,d))."""
    hidden = None
    logits = None
    for i in range(upto + 1):
        model = ensemble.models[i]
        fusion_in = None
        if i > 0 and ensemble.spec.fusion_enabled:
            fusion_in = {l: hidden[:, :, l - 1, :] for l in model.spec.fusion_layers()}
        logits, acts = model.forward_train(tokens, fusion_in)
        B, T = tokens.shape
        states = [acts["h0"]] + [a_out for a_out in _layer_outputs(acts)]
        hidden = np.stack(states, axis=2)  # (B, T, L+1, d)
    return logits, hidden


def _layer_outputs(acts: dict) -> list[np.ndarray]:
    outs = []
    layers = acts["layers"]
    for j, a in enumerate(layers):
        nxt = layers[j + 1]["h_in"] if j + 1 < len(layers) else acts["h_final"]
        outs.append(nxt)
    return outs


def predecessor_errors(pred_logits: np.ndarray, gold: np.ndarray) -> np.ndarray:
    """(B, T) array: predecessor argmax where it differs from gold, else -1."""
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
