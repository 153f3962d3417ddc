"""Loss functions, analytic gradients, chain trainer, and descent diagnostics.

The composite objective per sequence is sum_t L_supp(t) + alpha * sum_t CE(t),
where the suppression term -log sigma(beta (log p[gold] - log p[err])) is
active only at positions where the frozen predecessor predicted wrongly.
Gradients are taken in logit space (alpha (p - y*) plus
beta sigma(-u) (y_err - y*)) and pushed through the model's backward pass.
One core, _objective, computes both from probabilities: training runs it
through batch_loss_and_grad, and the scalar API the gradient checks use
(total_loss, and loss_logit_grad, its one-position view) runs it too.

Every teacher-forced pass that has gold labels (stage_batch_pass, the
alignment estimate, chain_eval) runs only the batch's live width: columns
0 .. n-1, n being 1 + the last column in which any row is labelled. Under
the causal mask no labelled position attends to a later column, so the dead
columns past it add nothing to any loss or gradient. The loss sums still run
over the full (B, T) grid, the dead columns as zero-logit holes, so a
reported loss adds the same terms in the same order as a full-width pass.
Each attention row then sums over n keys, not T. numpy groups those sums as
it did at T for the modsum (T = 9) and probe (T = 5, 10) shapes the tests
pin bit for bit; at some widths (T = 8, n = 7) it does not, and a trained
weight can move by a rounding step.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
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

ALIGNMENT_ROWS = 12  # rows each stage-2 alignment record is estimated on


@dataclass
class TrainConfig:
    """One run's training settings, checked when built: alpha, beta and the
    learning rates are finite positive numbers, epochs, batch_size and
    stage2_epochs ints >= 1 and seed an int >= 0. A stage2_ field left None
    takes its stage-1 value."""

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
        for name in ("alpha", "beta", "learning_rate", "stage2_learning_rate"):
            value = getattr(self, name)
            if value is None and name.startswith("stage2_"):
                continue
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 < value < math.inf:
                raise ValueError(f"{name} must be a finite positive number, got {value!r}")
        for name in ("epochs", "batch_size", "stage2_epochs", "seed"):
            value, least = getattr(self, name), 0 if name == "seed" else 1
            if value is None and name.startswith("stage2_"):
                continue
            if type(value) is not int or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
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


def loss_logit_grad(
    p: np.ndarray, gold: int, err: Optional[int], alpha: float, beta: float
) -> np.ndarray:
    """Gradient of (suppression + alpha * CE) w.r.t. the logits at one step."""
    e = -1 if err is None else err
    return _objective(np.asarray(p)[None], np.array([gold]), np.array([e]), alpha, beta)[2][0]


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
    dlogits /= B
    return float(ce.sum() / B), float(supp.sum() / B), dlogits


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
    """params -= lr * grads, restricted to the given keys, in place through
    model.write; a key with no gradient raises KeyError, before anything is
    written, rather than going untrained."""
    for key in keys:
        if key not in grads:
            raise KeyError(f"no gradient for {key!r} to step")
    model.write(((key, grads[key]) for key in keys), lr)


def flatten_grads(grads: dict, keys: Sequence[str]) -> np.ndarray:
    return np.concatenate([np.ravel(grads[k]) for k in keys])


def flatten_params(model: TransformerModel, keys: Sequence[str]) -> np.ndarray:
    return np.concatenate([np.ravel(model.params[k]) for k in keys])


def load_flat_params(model: TransformerModel, keys: Sequence[str], theta: np.ndarray) -> None:
    """Inverse of flatten_params: write theta's slices into the params through
    model.write. Raises ValueError, before writing anything, unless theta has
    exactly as many entries as the keys' arrays together."""
    arrays = [model.params[key] for key in keys]
    need = sum(arr.size for arr in arrays)
    if theta.size != need:
        raise ValueError(f"theta has {theta.size} entries, the keys' arrays hold {need}")

    def slices():
        off = 0
        for key, arr in zip(keys, arrays):
            yield key, theta[off : off + arr.size].reshape(arr.shape)
            off += arr.size

    model.write(slices())


# -- forward/backward wrappers --------------------------------------------


def _live(gold: np.ndarray, tokens: np.ndarray, fusion_in: Optional[dict] = None):
    """(n, tokens, fusion_in) of a labelled (B, T) batch cut to its live
    width: n is 1 + the last column in which any row has gold >= 0 (1 when
    no row has a label), and the tokens and every fusion input keep columns
    0 .. n-1. No labelled position sees a later column, so the cut pass gives
    each labelled position the logits the full one does, up to the rounding
    of products run at other shapes (a one-row product is a gemv); an error
    token counts only where gold is labelled, so err needs no check of its
    own."""
    cols = np.flatnonzero((gold >= 0).any(axis=0))
    n = int(cols[-1]) + 1 if cols.size else 1
    if fusion_in is not None:
        fusion_in = {l: f[:, :n] for l, f in fusion_in.items()}
    return n, tokens[:, :n], fusion_in


def stage_batch_pass(
    model: TransformerModel,
    tokens: np.ndarray,
    gold: np.ndarray,
    err: np.ndarray,
    alpha: float,
    beta: float,
    fusion_in: Optional[dict[int, np.ndarray]] = None,
    keys: Optional[Sequence[str]] = None,
):
    """One forward + composite-loss backward; returns (ce, supp, grads), the
    gradients of keys only, or of every params array when keys is None.

    The forward and backward run the batch's live width only (see _live);
    the loss runs over the full (B, T) grid with the dead columns' logits
    zero-filled, so ce and supp are the sums a full-width pass reports."""
    n, tokens, fusion_in = _live(gold, tokens, fusion_in)
    logits, acts = model.forward_train(tokens, fusion_in)
    if n < gold.shape[1]:
        full = np.zeros(gold.shape + logits.shape[-1:])
        full[:, :n] = logits
        logits = full
    ce, supp, dz = batch_loss_and_grad(logits, gold, err, alpha, beta)
    grads = model.backward(dz[:, :n], acts, keys=keys)
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
    all rows, then one per-sample backward that carries the CE and the
    suppression cotangents together, over the batch's live width only (see
    _live), into the rows of one array. Each row's squared norms and dot
    come from three batched (1, P) @ (P, 1) products, each row on numpy's
    vector-dot path, so the bits of the one-row v.dot(v) and g_s @ g_ce;
    the sqrt, the ratios and the max/min fold then run on Python floats,
    row by row.
    """
    if not ((err >= 0) & (gold >= 0)).any():
        raise EmptyEstimateError("no active error tokens in batch")
    g_ce, g_s = _alignment_rows(model, tokens, gold, err, keys, beta, fusion_in)

    def row_dots(a, b):
        return np.matmul(a[:, None, :], b[:, :, None]).ravel().tolist()

    rho, gamma, count = 0.0, 0.0, 0
    for sq_ce, sq_s, dot in zip(row_dots(g_ce, g_ce), row_dots(g_s, g_s), row_dots(g_s, g_ce)):
        count += 1
        n_ce = math.sqrt(sq_ce)
        n_s = math.sqrt(sq_s)
        if n_ce <= 0:
            continue
        gamma = max(gamma, n_s / n_ce)
        if n_s > 0:
            cos = dot / (n_s * n_ce)
            rho = max(rho, min(-cos, 1.0 - 1e-12))
    rho = max(0.0, rho)
    return AlignmentEstimate(rho=rho, gamma=gamma, sample_count=count)


def _alignment_rows(model, tokens, gold, err, keys, beta, fusion_in):
    """The (B, P) flat gradients over keys of each row's CE and of its
    suppression term (the alpha = 0 objective), row b laid out as
    flatten_grads(keys) gives sample b, from one forward and one per-sample
    backward: the two objectives' dlogits, stacked as (2, B, n, V), go down
    one layer walk that takes the gradients of keys alone and writes them
    into one (2, B, P) array, bit for bit what a backward per objective
    gives. A row's dlogits are unscaled, as a one-row batch_loss_and_grad
    gives them. The pass runs the live width n only, and no loss is summed,
    so the objective runs over the first n columns too."""
    n, tokens, fusion_in = _live(gold, tokens, fusion_in)
    gold, err = gold[:, :n], err[:, :n]
    logits, acts = model.forward_train(tokens, fusion_in)
    p = softmax_rows(logits)
    dz = np.stack([_objective(p, gold, e, alpha, beta)[2]
                   for e, alpha in ((np.full_like(err, -1), 1.0), (err, 0.0))])
    # one block, not an array per key: the heap those small arrays took was
    # trimmed when they were freed and faulted in again on every call
    G = np.empty((2, tokens.shape[0], sum(model.params[k].size for k in keys)))
    model.backward(dz, acts, per_sample=True, keys=keys, out=G)
    return G[0], G[1]


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
    for i in range(0, n, batch_size):
        yield perm[i : i + batch_size]


def _trained_keys(model: TransformerModel) -> list[str]:
    """The keys the chain trainer trains: the adapter factors of a model
    that has them, otherwise every parameter."""
    return trainable_keys(model, "adapters" if model.spec.adapter_rank > 0 else "full")


def train_model(
    model: TransformerModel,
    dataset: Dataset,
    cfg: TrainConfig,
    *,
    err: Optional[np.ndarray] = None,
    fusion_in: Optional[dict[int, np.ndarray]] = None,
    stage: str = "stage1",
    model_index: int = 0,
) -> list[dict]:
    """SGD over one model's _trained_keys for cfg.epochs epochs at
    cfg.learning_rate; returns one record per epoch. err/fusion_in come from
    a frozen predecessor. Without err the objective is plain CE (alpha 1),
    with it the composite one at cfg.alpha; beta is cfg.beta."""
    keys = _trained_keys(model)
    alpha = 1.0 if err is None else cfg.alpha
    rng = np.random.default_rng(cfg.seed)
    n = len(dataset)
    if n == 0:
        raise ValueError("dataset is empty")
    if err is None:
        err = np.full_like(dataset.gold, -1)
    metrics = []
    for epoch in range(cfg.epochs):
        ce_sum, supp_sum, nb = 0.0, 0.0, 0
        for idx in _iter_batches(n, cfg.batch_size, rng):
            f_in = None
            if fusion_in is not None:
                f_in = {l: fusion_in[l][idx] for l in fusion_in}
            ce, supp, grads = stage_batch_pass(
                model, dataset.tokens[idx], dataset.gold[idx], err[idx], alpha, cfg.beta, f_in,
                keys=keys,
            )
            if not np.isfinite(ce) or not np.isfinite(supp):
                raise DivergenceError(
                    f"{stage} model {model_index} epoch {epoch}: loss is not finite"
                )
            sgd_step(model, grads, cfg.learning_rate, keys)
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
    metrics = train_model(ensemble.models[0], dataset, cfg)

    s2_lr = cfg.stage2_learning_rate
    cfg2 = replace(
        cfg,
        epochs=cfg.epochs if cfg.stage2_epochs is None else cfg.stage2_epochs,
        learning_rate=cfg.learning_rate if s2_lr is None else s2_lr,
    )
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
            succ.write((k, donor.params[k]) for k in base_keys)
            if succ.spec.adapter_rank > 0:
                succ.init_adapters(np.random.default_rng(succ.spec.seed + 1))
        pred_logits, pred_states = pred_forward_chain(ensemble, i - 1, dataset.tokens)
        err = predecessor_errors(pred_logits, dataset.gold)
        fusion_in = ensemble.fusion_inputs(i, pred_states)
        metrics += train_model(succ, dataset, cfg2, err=err, fusion_in=fusion_in,
                               stage="stage2", model_index=i)
        metrics += _alignment_record(succ, dataset, err, cfg, i, fusion_in)
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
    from one teacher-forced chain walk that keeps no layer activations and
    runs the dataset's live width only (see _live): the columns past the
    last labelled one are scored nowhere. A dataset with no labelled
    position has no accuracy and raises ValueError."""
    n, tokens, _ = _live(dataset.gold, dataset.tokens)
    labeled = dataset.gold[:, :n] >= 0
    if not labeled.any():
        raise ValueError("dataset has no labelled position to score")
    zs = chain_logits(ensemble, tokens)
    gold = dataset.gold[:, :n][labeled]
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


def _alignment_record(model, dataset, err, cfg, model_index, fusion_in) -> list[dict]:
    """A trained successor's stage-2 alignment record over its _trained_keys,
    in a list; [] when no row has an error token."""
    active_rows = np.where((err >= 0).any(axis=1))[0][:ALIGNMENT_ROWS]
    if active_rows.size == 0:
        return []
    f_in = {l: fusion_in[l][active_rows] for l in fusion_in} if fusion_in else None
    est = estimate_alignment(
        model,
        dataset.tokens[active_rows],
        dataset.gold[active_rows],
        err[active_rows],
        _trained_keys(model),
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
    return [rec]
