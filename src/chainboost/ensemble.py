"""Chain wiring: ordered model list, fusion inputs, the chain walk, stacked weights, logits fusion."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .model import ModelSpec, TransformerModel, check_tokens, forward_pass, stack_views
from .numkit import ShapeError
from .numkit import layer_norm  # noqa: F401 - chainbench/tracer.py patches ensemble.layer_norm

MANIFEST_FORMAT_VERSION = 1

DEFAULT_LAMBDA = 0.3
DEFAULT_TOP_K = 2


@dataclass
class EnsembleSpec:
    """Ordered chain of model specs plus the logits-fusion knobs: lambdas is
    a list of one finite positive weight per successor (DEFAULT_LAMBDA is
    the usual choice; a one-model chain takes []), top_k an int in [1, vocab]."""

    models: list[ModelSpec]
    lambdas: list[float] = field(default_factory=list)
    top_k: int = DEFAULT_TOP_K

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
        for i in range(1, len(self.models)):
            pred, succ = self.models[i - 1], self.models[i]
            layers = succ.fusion_layers()
            if layers and succ.d_model != pred.d_model:
                raise ValueError(
                    f"model {i}: d_model {succ.d_model} differs from its predecessor's "
                    f"d_model {pred.d_model}; fusion adds the two states"
                )
            if layers and layers[-1] - 1 > pred.n_layers:
                raise ValueError(
                    f"model {i}: fusion layer {layers[-1]} (fusion_period {succ.fusion_period}) "
                    f"reads predecessor layer {layers[-1] - 1}, but the predecessor has "
                    f"n_layers {pred.n_layers}"
                )
        n = len(self.models) - 1
        if not isinstance(self.lambdas, list) or len(self.lambdas) != n:
            raise ValueError(f"need a list of {n} lambdas (one per successor), got {self.lambdas!r}")
        for i, lam in enumerate(self.lambdas):
            if isinstance(lam, bool) or not isinstance(lam, (int, float)) or not 0 < lam < math.inf:
                raise ValueError(f"lambdas[{i}] must be a finite positive number, got {lam!r}")
        if type(self.top_k) is not int or not 1 <= self.top_k <= v0:
            raise ValueError(f"top_k must be an integer in [1, {v0}], got {self.top_k!r}")

    @property
    def vocab(self) -> int:
        return self.models[0].vocab


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


class Ensemble:
    """Concrete chain: spec plus instantiated models, fresh ones from the
    spec when models is None, else one per spec.models entry with that spec."""

    def __init__(self, spec: EnsembleSpec, models: Optional[list[TransformerModel]] = None):
        self.spec = spec
        if models is None:
            models = [TransformerModel(ms) for ms in spec.models]
        if len(models) != len(spec.models):
            raise ValueError(f"{len(models)} models given for a spec of {len(spec.models)}")
        for i, (m, ms) in enumerate(zip(models, spec.models)):
            if m.spec != ms:
                raise ValueError(f"model {i}'s spec differs from spec.models[{i}]")
        self.models = models
        # stacked_views(), with the (model, version) pairs they were stacked from
        self._stacked: Optional[tuple[tuple, list[dict]]] = None

    def fusion_inputs(self, i: int, pred_states) -> Optional[dict]:
        """Fusion inputs of model i: its fusion layer l reads predecessor state l-1.

        pred_states is model i-1's [h_0, ..., h_L] (h_0 = embedding output),
        either one decode step's (d_model,) vectors or batched (B, T, d_model)
        arrays. The base model (i == 0) takes no fusion input.
        """
        if i == 0:
            return None
        return {l: pred_states[l - 1] for l in self.spec.models[i].fusion_layers()}

    def last_state_read(self, i: int) -> bool:
        """Whether model i's last state h_L is a fusion input: only when its
        successor fuses at layer L + 1, deeper than model i itself."""
        models = self.spec.models
        return i + 1 < len(models) and models[i].n_layers + 1 in models[i + 1].fusion_layers()

    def walk(self, tokens, upto: Optional[int] = None, caches: Optional[list] = None,
             emit: bool = True) -> tuple[list, list]:
        """The chain walk: models 0 .. upto (every model when upto is None)
        in chain order, each forward_pass over its param_views() on the (B,
        T) batch tokens, model i's fusion layers reading model i-1's states
        (fusion_inputs). Returns (each walked model's (B, T, V) logits,
        model upto's states [h_0, ..., h_L]). No model keeps its layer
        activations: while model i + 1 runs, only model i's states stay.

        Without caches the batch starts at position 0 and is checked once
        for the whole chain, whose models share vocab and max_steps
        (check_tokens raises IndexError). With caches, one KvCache per
        model, it is a decode step after the cached ones, run unchecked
        and extending each cache in place. A step with emit False stops any
        model whose last state nobody reads (last_state_read) at its last
        layer's keys and values, and that model's logits are None."""
        tokens = np.asarray(tokens)
        if caches is None:
            check_tokens(self.spec.models[0], tokens)
        zs, states = [], None
        for i in range(len(self.models) if upto is None else upto + 1):
            m = self.models[i]
            z, acts = forward_pass(m.spec, m.param_views(), tokens, self.fusion_inputs(i, states),
                                   None if caches is None else caches[i],
                                   stop_at_cache=not (emit or self.last_state_read(i)))
            zs.append(z)
            states = acts["states"]
        return zs, states

    def stacked_views(self) -> Optional[list[dict]]:
        """stack_views of the chain's models for the layer-synchronous
        decoder, or None when their depths, widths, heads or fusion periods
        differ. Kept until a model is replaced or written: the key holds
        each model, compared by identity, with its version."""
        specs = self.spec.models
        if len({(m.n_layers, m.d_model, m.d_ff, m.n_heads, m.fusion_period) for m in specs}) > 1:
            return None
        key = tuple((m, m.version) for m in self.models)
        if self._stacked is None or self._stacked[0] != key:
            self._stacked = (key, stack_views(self.models))
        return self._stacked[1]


def params_sha256(model: TransformerModel) -> str:
    """sha256 over a model's parameter arrays, in params order."""
    h = hashlib.sha256()
    for arr in model.params.values():
        h.update(arr.tobytes())
    return h.hexdigest()


def _checkpoint_path(manifest: Path, ref: str) -> Path:
    """A manifest's checkpoint reference; a relative one resolves against
    the manifest's directory."""
    ckpt = Path(ref)
    return ckpt if ckpt.is_absolute() else manifest.parent / ckpt


def save_manifest(path, checkpoint_paths: Sequence[str], spec: EnsembleSpec) -> None:
    """Human-readable ensemble manifest referencing the checkpoint files,
    with the params_sha256 of each checkpoint as it reads back from disk."""
    path = Path(path)
    doc = {
        "format_version": MANIFEST_FORMAT_VERSION,
        "checkpoints": list(checkpoint_paths),
        "checkpoint_sha256": [params_sha256(TransformerModel.load(_checkpoint_path(path, ref)))
                              for ref in checkpoint_paths],
        "lambdas": spec.lambdas,
        "top_k": spec.top_k,
    }
    periods = {ms.fusion_period for ms in spec.models}
    if len(periods) == 1:
        doc["fusion_period"] = periods.pop()
    path.write_text(json.dumps(doc, indent=2) + "\n")


def load_manifest(path) -> tuple[Ensemble, dict]:
    """Load manifest + checkpoints into an Ensemble.

    Rejects a document that is not a JSON object, lacks checkpoints,
    lambdas or top_k, has checkpoints that are not a list of file names, a
    format_version other than the int 1, "fusion_enabled": false (fusion
    cannot be switched off), a checkpoint_sha256 that is not one string per
    checkpoint, a checkpoint whose params_sha256 is not the one recorded
    there (a manifest without the key, as written before it existed, checks
    none) or a fusion_period that disagrees with a checkpoint. lambdas and
    top_k pass to EnsembleSpec as the document holds them, so it rejects
    their values, and checkpoints that do not form a chain, such as
    mismatched vocabularies.
    """
    path = Path(path)
    doc = json.loads(path.read_text())
    if not isinstance(doc, dict):
        raise ValueError(f"a manifest must be a JSON object, got {type(doc).__name__}")
    for key in ("checkpoints", "lambdas", "top_k"):
        if key not in doc:
            raise ValueError(f"manifest key {key!r} is missing")
    ckpts = doc["checkpoints"]
    if not (isinstance(ckpts, list) and all(isinstance(c, str) for c in ckpts)):
        raise ValueError(f"manifest key 'checkpoints' must be a list of file names, got {ckpts!r}")
    version = doc.get("format_version")
    if type(version) is not int or version != MANIFEST_FORMAT_VERSION:
        raise ValueError(f"unsupported manifest format version {version!r}")
    if doc.get("fusion_enabled", True) is not True:
        raise ValueError(f"manifest key fusion_enabled={doc['fusion_enabled']!r} is not supported")
    digests = doc.get("checkpoint_sha256")
    if "checkpoint_sha256" in doc and not (
            isinstance(digests, list) and len(digests) == len(ckpts)
            and all(isinstance(d, str) for d in digests)):
        raise ValueError(f"manifest key 'checkpoint_sha256' must be a list of one digest "
                         f"per checkpoint, got {digests!r}")
    models = []
    for i, ref in enumerate(ckpts):
        ckpt = _checkpoint_path(path, ref)
        models.append(TransformerModel.load(ckpt))
        if digests is not None and (found := params_sha256(models[-1])) != digests[i]:
            raise ValueError(f"checkpoint {ckpt}: parameter sha256 {found} is not the "
                             f"manifest's {digests[i]}")
    for i, m in enumerate(models):
        if "fusion_period" in doc and m.spec.fusion_period != doc["fusion_period"]:
            raise ValueError(
                f"manifest fusion_period {doc['fusion_period']} disagrees with checkpoint {i} "
                f"({doc['checkpoints'][i]}), whose fusion_period is {m.spec.fusion_period}"
            )
    spec = EnsembleSpec([m.spec for m in models], doc["lambdas"], doc["top_k"])
    return Ensemble(spec, models), doc
