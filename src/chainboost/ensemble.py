"""Chain wiring: ordered model list, fusion inputs, error tokens, logits fusion."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .model import LayerTrace, ModelSpec, TransformerModel
from .numkit import ShapeError, layer_norm

MANIFEST_FORMAT_VERSION = 1

DEFAULT_LAMBDA = 0.3
DEFAULT_TOP_K = 2


@dataclass
class EnsembleSpec:
    """Ordered chain of model specs plus the logits-fusion knobs."""

    models: list[ModelSpec]
    lambdas: list[float] = field(default_factory=list)
    top_k: int = DEFAULT_TOP_K
    fusion_enabled: bool = True

    def __post_init__(self):
        if not self.models:
            raise ValueError("ensemble needs at least one model")
        v0, t0 = self.models[0].vocab, self.models[0].max_steps
        for ms in self.models[1:]:
            if ms.vocab != v0:
                raise ValueError(
                    "all models in a chain must share one vocabulary; "
                    "mismatched tokenizations prevent layer-wise residual correction"
                )
            if ms.max_steps != t0:
                raise ValueError("all models in a chain must share max_steps")
        n = len(self.models) - 1
        if not self.lambdas:
            self.lambdas = [DEFAULT_LAMBDA] * n
        if len(self.lambdas) != n:
            raise ValueError(f"need {n} lambdas (one per successor), got {len(self.lambdas)}")
        if any(lam <= 0 for lam in self.lambdas):
            raise ValueError("lambdas must be positive")
        if not (1 <= self.top_k <= v0):
            raise ValueError(f"top_k must be in [1, {v0}]")

    @property
    def n_successors(self) -> int:
        return len(self.models) - 1

    @property
    def vocab(self) -> int:
        return self.models[0].vocab


@dataclass
class ErrorTokenTrace:
    """Per-step optional wrong-token id from a predecessor (None = correct)."""

    tokens: list[Optional[int]]

    def __len__(self) -> int:
        return len(self.tokens)

    def active_positions(self) -> list[int]:
        return [t for t, tok in enumerate(self.tokens) if tok is not None]


def fuse_hidden(h_own: np.ndarray, h_pred: np.ndarray, l: int, eta: int, eps: float = 1e-5) -> np.ndarray:
    """LayerNorm(h_own + h_pred) at fusion layers (l % eta == 0), h_own otherwise."""
    if h_own.shape != h_pred.shape:
        raise ShapeError(f"hidden shapes differ: {h_own.shape} vs {h_pred.shape}")
    if l % eta != 0:
        return h_own
    return layer_norm(h_own + h_pred, 1.0, 0.0, eps)


def error_tokens(pred_logits: np.ndarray, gold: Sequence[int]) -> ErrorTokenTrace:
    """Predecessor argmax stored wherever it disagrees with gold.

    Positions with gold < 0 carry no supervision and never produce an error
    token. Argmax ties break toward the lowest index (np.argmax convention).
    """
    pred_logits = np.asarray(pred_logits)
    if pred_logits.shape[0] != len(gold):
        raise ShapeError(
            f"logits cover {pred_logits.shape[0]} steps but gold has {len(gold)}"
        )
    out: list[Optional[int]] = []
    for t, g in enumerate(gold):
        if g < 0:
            out.append(None)
            continue
        pred = int(np.argmax(pred_logits[t]))
        out.append(pred if pred != g else None)
    return ErrorTokenTrace(out)


def topk_mask(z: np.ndarray, k: int) -> np.ndarray:
    """Keep the k largest entries of each row (last axis), zero the rest.

    Ties at the k-th value break toward the lowest index. Leading axes are
    batch axes: each row gives the same bits as a separate 1-D call.
    """
    z = np.asarray(z)
    V = z.shape[-1]
    if not (1 <= k <= V):
        raise ValueError(f"k must be in [1, {V}], got {k}")
    if k == V:
        return z.copy()
    # stable sort along the last axis: order by (-value, index), so equal
    # values keep their low indices
    order = (-z).argsort(kind="stable")
    out = np.zeros_like(z)
    if z.ndim == 1:
        # plain indexing: about half the cost of put_along_axis on one row
        keep = order[:k]
        out[keep] = z[keep]
    else:
        keep = order[..., :k]
        np.put_along_axis(out, keep, np.take_along_axis(z, keep, axis=-1), axis=-1)
    return out


def fuse_logits(z_list: Sequence[np.ndarray], lambdas: Sequence[float], k: int) -> np.ndarray:
    """z = z0 + sum_i lambda_i * topk_mask(z_i, k) over the successors.

    Each z_i is one (V,) logit vector or a batch of them, shape (..., V).
    """
    if len(z_list) != len(lambdas) + 1:
        raise ValueError(f"{len(z_list)} logit vectors need {len(z_list) - 1} lambdas")
    z0 = np.asarray(z_list[0])
    out = z0.copy()
    for zi, lam in zip(z_list[1:], lambdas):
        zi = np.asarray(zi)
        if zi.shape != z0.shape:
            raise ShapeError(f"logit shapes differ: {zi.shape} vs {z0.shape}")
        out = out + lam * topk_mask(zi, k)
    return out


def build_fusion_inputs(pred_trace: LayerTrace, eta: int, n_layers: int) -> dict[int, np.ndarray]:
    """Map successor fusion layer l -> predecessor layer l-1 states, all steps.

    Layer 0 of the trace is the embedding output. Returns {} when no layer
    fuses (eta > n_layers).
    """
    out: dict[int, np.ndarray] = {}
    for l in range(1, n_layers + 1):
        if l % eta != 0:
            continue
        if l - 1 >= pred_trace.hidden.shape[1]:
            raise KeyError(f"predecessor trace lacks layer {l - 1}")
        out[l] = pred_trace.hidden[:, l - 1, :]
    return out


class Ensemble:
    """Concrete chain: spec plus instantiated models."""

    def __init__(self, spec: EnsembleSpec, models: Optional[list[TransformerModel]] = None):
        self.spec = spec
        self.models = models or [TransformerModel(ms) for ms in spec.models]
        if len(self.models) != len(spec.models):
            raise ValueError("model count does not match spec")

    @property
    def n_successors(self) -> int:
        return self.spec.n_successors

    def teacher_traces(self, token_ids) -> list[LayerTrace]:
        """Teacher-forced traces for the whole chain, fusion inputs included."""
        traces: list[LayerTrace] = []
        for i, model in enumerate(self.models):
            fusion = None
            if i > 0 and self.spec.fusion_enabled:
                fusion = build_fusion_inputs(
                    traces[i - 1], model.spec.fusion_period, model.spec.n_layers
                )
            traces.append(model.forward_teacher(token_ids, fusion))
        return traces

    def fused_teacher_logits(self, token_ids) -> np.ndarray:
        """Per-step fused logits (T, V) under teacher forcing."""
        traces = self.teacher_traces(token_ids)
        return fuse_logits([tr.logits for tr in traces], self.spec.lambdas, self.spec.top_k)


def save_manifest(path, checkpoint_paths: Sequence[str], spec: EnsembleSpec) -> None:
    """Human-readable ensemble manifest referencing the checkpoint files."""
    doc = {
        "format_version": MANIFEST_FORMAT_VERSION,
        "checkpoints": list(checkpoint_paths),
        "lambdas": list(spec.lambdas),
        "top_k": spec.top_k,
        "fusion_enabled": spec.fusion_enabled,
        "fusion_period": spec.models[0].fusion_period,
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_manifest(path) -> tuple[Ensemble, dict]:
    """Load manifest + checkpoints into an Ensemble; rejects vocab mismatches."""
    path = Path(path)
    doc = json.loads(path.read_text())
    if doc.get("format_version") != MANIFEST_FORMAT_VERSION:
        raise ValueError("unsupported manifest format version")
    models = []
    for ref in doc["checkpoints"]:
        ckpt = Path(ref)
        if not ckpt.is_absolute():
            ckpt = path.parent / ckpt
        models.append(TransformerModel.load(ckpt))
    vocabs = {m.spec.vocab for m in models}
    if len(vocabs) > 1:
        raise ValueError(
            f"checkpoint vocabularies differ ({sorted(vocabs)}); incompatible "
            "tokenizations prevent layer-wise residual correction"
        )
    spec = EnsembleSpec(
        models=[m.spec for m in models],
        lambdas=[float(x) for x in doc["lambdas"]],
        top_k=int(doc["top_k"]),
        fusion_enabled=bool(doc.get("fusion_enabled", True)),
    )
    return Ensemble(spec, models), doc
