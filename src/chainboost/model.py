"""Toy decoder-only transformer with per-layer state taps and fusion injection.

The block structure follows a post-norm layout: the attention input is either
the previous layer's state or, at fusion layers, LayerNorm(h_own + h_pred)
with unit gain and zero bias; Q/K/V are all projected from that (possibly
fused) stream, in one matmul with wqkv = [wq | wk | wv]; a residual +
LayerNorm follows, then a GELU MLP with its own residual + LayerNorm. Layers
are 1-indexed and layer l fuses iff l % fusion_period == 0
(ModelSpec.fusion_layers); the embedding output counts as "layer 0".

One layer body (transformer_layer, over a parameter view) serves every path.
One walk, forward_pass, wraps it in embedding and unembedding over a model's
param_views(), which are built once per parameter version.
TransformerModel._forward checks a batch (check_tokens) and runs the walk for
forward_train (no cache, activations kept for backward) and forward_step
(the one-token call over a KvCache); Ensemble.walk runs it down a chain, and
the layer-synchronous decoder calls the layer body on k models' views
stacked by stack_views. A decode step whose logits nobody reads stops at the
last layer's keys and values (cache_kv).

Ownership rule: TransformerModel.write is the one writer of the parameters
and moves the model's version on; params, its arrays and the cached views
are read-only, so a stray write raises instead of leaving a cache stale.
Each causal_mask and each model's layout() are built once and shared
read-only too: the mask refuses writes, the layout is tuples. A kernel
writes only arrays it allocated, with one exception: a pass that keeps
nothing (keep=False, every pass but forward_train) may also consume a
fresh array that its caller hands over and no longer reads. LayerNorm
forward and backward, GELU and its gradient, softmax_rows, attention and
its backward, and the residual and bias adds of transformer_layer and
backward allocate an array only for a value they keep or return and run
every other elementwise step in place on it; their inputs and the
activations forward_train saves are only read. Without keep, the layer
runs each elementwise stage in the array the stage before it allocated:
the softmax in the scores, each LayerNorm in its input, the GELU in u1.
Each in-place step is the IEEE operation the plain expression ran, at most
with the operands of one + or * swapped, so the results are bit for bit
those of the out-of-place expressions that tests/oracles.py keeps.
"""

from __future__ import annotations

import functools
import json
import math
import weakref
from dataclasses import asdict, dataclass, fields
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .numkit import ShapeError, softmax_rows
from .numkit import layer_norm  # noqa: F401 - chainbench/tracer.py patches model.layer_norm

CHECKPOINT_FORMAT_VERSION = 1
LN_EPS = 1e-5
# steps of room in a layer's first KvCache buffer, as in PagedAttention's
# 16-token blocks: a short request never grows its buffers
KV_FIRST_ROOM = 16
# key tuples whose layout() a model keeps; the oldest goes first
LAYOUTS_KEPT = 8

_GELU_C = np.sqrt(2.0 / np.pi)
_GELU_A = 0.044715
# a layer's weights a view holds as they are; wq, wk and wv go into its wqkv
LAYER_WEIGHTS = ("wo", "w1", "w2")
# a layer's gains and biases, which a view holds as (1, 1, n)
LAYER_VECTORS = ("ln_attn_g", "ln_attn_b", "b1", "b2", "ln_mlp_g", "ln_mlp_b")
# a layer's weights that carry rank-r adapter factors on a rank > 0 model
ADAPTED_WEIGHTS = ("wq", "wv")


class ContractError(RuntimeError):
    """A caller violated an interface contract (e.g. missing fusion input)."""


@dataclass(frozen=True)
class ModelSpec:
    n_layers: int = 2
    d_model: int = 32
    n_heads: int = 2
    d_ff: int = 64
    vocab: int = 64
    max_steps: int = 32
    fusion_period: int = 2
    adapter_rank: int = 4
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value, least = getattr(self, f.name), 0 if f.name in ("adapter_rank", "seed") else 1
            if type(value) is not int or value < least:
                raise ValueError(f"{f.name} must be an integer >= {least}, got {value!r}")
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")

    def fusion_layers(self) -> list[int]:
        """The layers that fuse, the one owner of the rule: l % fusion_period == 0."""
        return [l for l in range(1, self.n_layers + 1) if l % self.fusion_period == 0]


class KvCache:
    """Per-layer keys and values of the steps decoded so far.

    kv[i] holds layer i+1's post-fusion key and value projections split by
    head, (2, B, n_heads, steps, head_dim), keys at [0] and values at [1],
    or None before the first step. It is a view of the filled steps of the
    layer's buffer, whose step axis has room for more: the first holds
    KV_FIRST_ROOM steps (or every step of the first extend, if more), a step
    writes its keys and values in place after the last one, and a step that
    does not fit moves the layer to a buffer of twice the room (or of every
    step, if that is more), copying the old steps once. A view handed out
    never changes: later steps write only past its end, and growth writes
    to a new buffer.
    """

    def __init__(self, n_layers: int):
        self.kv: list[Optional[np.ndarray]] = [None] * n_layers
        self._bufs: list[Optional[np.ndarray]] = [None] * n_layers

    @property
    def step_count(self) -> int:
        return 0 if self.kv[0] is None else self.kv[0].shape[3]

    def extend(self, layer: int, kv: np.ndarray) -> np.ndarray:
        """Append (2, B, heads, T, dh) keys and values to a layer; return all of that layer's."""
        old, buf = self.kv[layer], self._bufs[layer]
        t0 = 0 if old is None else old.shape[3]
        t1 = t0 + kv.shape[3]
        if buf is None or t1 > buf.shape[3]:
            room = max(t1, KV_FIRST_ROOM if buf is None else 2 * buf.shape[3])
            buf = np.empty(kv.shape[:3] + (room,) + kv.shape[4:], dtype=kv.dtype)
            if old is not None:
                buf[:, :, :, :t0] = old
            self._bufs[layer] = buf
        buf[:, :, :, t0:t1] = kv
        self.kv[layer] = buf[:, :, :, :t1]
        return self.kv[layer]


def gelu_tanh(x: np.ndarray) -> np.ndarray:
    """The tanh factor of the GELU approximation, shared by gelu and gelu_grad,
    built in the one array this call allocates; x is only read."""
    t = x * x
    t *= x
    t *= _GELU_A
    t += x
    t *= _GELU_C
    return np.tanh(t, out=t)


def gelu(x: np.ndarray, t: np.ndarray, keep: bool = True) -> np.ndarray:
    """Tanh GELU, where t is gelu_tanh(x): 0.5 x (1 + t). With keep, x and t
    are only read, and the result and the 1 + t temporary are the two
    arrays it allocates; without, it allocates none and consumes both: t
    becomes 1 + t, and x the result."""
    g = np.multiply(x, 0.5, out=None if keep else x)
    g *= np.add(t, 1.0, out=None if keep else t)
    return g


def gelu_grad(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """d gelu / dx, where t is the forward pass's gelu_tanh(x).

    0.5 (1 + t) + 0.5 x (1 - t^2) c (1 + 3a x^2), term by term in that
    order, in the two arrays this call allocates; x and t are only read."""
    g = t * t
    np.subtract(1.0, g, out=g)
    dx = x * 0.5
    dx *= g
    dx *= _GELU_C
    np.multiply(x, x, out=g)
    g *= 3.0 * _GELU_A
    g += 1.0
    dx *= g
    np.add(t, 1.0, out=g)
    g *= 0.5
    g += dx
    return g


class TransformerModel:
    """Decoder-only transformer over a read-only mapping of named numpy parameters."""

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self.version = 0
        self._store: dict[str, np.ndarray] = {}  # the writable arrays; only write() writes them
        self._views: Optional[list] = None  # param_views() of this version, built on first use
        self._layouts: dict = {}  # layout() by key tuple, built on first use
        self._init_params()

    def __getstate__(self) -> dict:
        """What copy and pickle keep: the spec, the writable arrays and the version."""
        return {"spec": self.spec, "store": self._store, "version": self.version}

    def __setstate__(self, state: dict) -> None:
        """A model over its own copies of state's arrays, with no views or
        layouts built yet, so that a write through a copy (copy.copy
        included, which hands over the original's store) never reaches the
        original."""
        self.spec, self.version = state["spec"], state["version"]
        self._store = {key: np.array(arr) for key, arr in state["store"].items()}
        self._views = None
        self._layouts = {}
        self._params = MappingProxyType({key: _read_only(arr) for key, arr in self._store.items()})

    @property
    def params(self) -> Mapping[str, np.ndarray]:
        """Every parameter by key, as read-only views of the arrays write() updates."""
        return self._params

    def write(self, items: Iterable[tuple[str, np.ndarray]], lr: Optional[float] = None) -> None:
        """The one writer of params: for each (key, value), arr[...] = value,
        or arr -= lr * value when lr is given, in place, then version moves
        on (also when a value is refused part-way) and the views of the old
        version are dropped. A value whose shape is not its array's raises
        ValueError; an unknown key, KeyError."""
        try:
            for key, value in items:
                arr = self._store[key]
                if value.shape != arr.shape:
                    raise ValueError(f"value shape {value.shape} does not match {key} {arr.shape}")
                if lr is None:
                    arr[...] = value
                else:
                    arr -= lr * value
        finally:
            self.version += 1
            # dropped now, not at the next build: kept through a training step,
            # stale views made a train_modsum train_chain take 8x the page faults
            self._views = None

    # -- construction -----------------------------------------------------

    def _init_params(self) -> None:
        s = self.spec
        rng = np.random.default_rng(s.seed)
        d, ff = s.d_model, s.d_ff
        std = 0.5 / np.sqrt(d)
        store = self._store

        def rnd(*shape, scale=std):
            return rng.standard_normal(shape) * scale

        store["tok_emb"] = rnd(s.vocab, d, scale=0.1)
        store["pos_emb"] = rnd(s.max_steps, d, scale=0.1)
        for l in range(1, s.n_layers + 1):
            p = f"l{l}."
            for w in ("wq", "wk", "wv", "wo"):
                store[p + w] = rnd(d, d)
            store[p + "ln_attn_g"] = np.ones(d)
            store[p + "ln_attn_b"] = np.zeros(d)
            store[p + "w1"] = rnd(d, ff)
            store[p + "b1"] = np.zeros(ff)
            store[p + "w2"] = rnd(ff, d)
            store[p + "b2"] = np.zeros(d)
            store[p + "ln_mlp_g"] = np.ones(d)
            store[p + "ln_mlp_b"] = np.zeros(d)
        store["unemb"] = rnd(d, s.vocab, scale=0.1)
        r = s.adapter_rank
        if r > 0:  # zero factors, which init_adapters sets through write()
            store.update((f"l{l}.{t}.{f}", np.zeros((d, r) if f == "A" else (r, d)))
                         for l in range(1, s.n_layers + 1) for t in ADAPTED_WEIGHTS for f in "AB")
        self._params = MappingProxyType({key: _read_only(arr) for key, arr in store.items()})
        if r > 0:
            self.init_adapters(rng)

    def init_adapters(self, rng: np.random.Generator) -> None:
        """Set the rank-r factors of wq and wv of every layer through write(),
        l{l}.wq.A (d_model, r), l{l}.wq.B (r, d_model) and the same for wv
        (A gaussian, B zero, so a fresh adapter changes nothing)."""
        s = self.spec
        r, d = s.adapter_rank, s.d_model

        def factors():
            for l in range(1, s.n_layers + 1):
                for target in ADAPTED_WEIGHTS:
                    yield f"l{l}.{target}.A", rng.standard_normal((d, r)) * 0.01
                    yield f"l{l}.{target}.B", np.zeros((r, d))

        self.write(factors())

    def layer_params(self, l: int) -> dict[str, np.ndarray]:
        """Layer l's parameter view: its l{l}.* arrays by short name, except
        wq, wk and wv, which it holds only as the one projection wqkv = [wq |
        wk | wv] (d_model, 3 d_model), read-only like the rest. On a rank > 0
        model the q and v blocks are merged with their factors as w + A @ B
        before the concatenation.

        The gains and biases (ln_attn_g/b, b1, b2, ln_mlp_g/b) are (1, 1, n)
        views of their (n,) params arrays, the rank of the (B, T, n)
        activations: a one-row decode step meets them at equal shapes, on
        numpy's fast path, where a (n,) vector takes its broadcasting iterator
        at about three times the cost per op, for the same bits."""
        p = f"l{l}."
        view = {name: self.params[p + name] for name in LAYER_WEIGHTS}
        view.update((name, self.params[p + name][None, None]) for name in LAYER_VECTORS)
        qkv = {name: self.params[p + name] for name in ("wq", "wk", "wv")}
        if self.spec.adapter_rank > 0:
            for name in ADAPTED_WEIGHTS:
                qkv[name] = qkv[name] + self.params[p + name + ".A"] @ self.params[p + name + ".B"]
        view["wqkv"] = np.concatenate(list(qkv.values()), axis=1)
        view["wqkv"].flags.writeable = False
        return view

    def param_views(self) -> list[dict[str, np.ndarray]]:
        """The views one pass reads: [0] holds tok_emb, pos_emb and unemb, [l]
        is layer_params(l), its vectors at the activations' rank. Built once
        per version and shared by every pass until the next write(); callers
        only read them."""
        if self._views is None:
            emb = {name: self.params[name] for name in ("tok_emb", "pos_emb", "unemb")}
            self._views = [emb] + [self.layer_params(l) for l in range(1, self.spec.n_layers + 1)]
        return self._views

    # -- the transformer pass ---------------------------------------------

    def _forward(
        self,
        tokens: np.ndarray,
        fusion_in: Optional[dict] = None,
        cache: Optional[KvCache] = None,
        keep_acts: bool = False,
    ) -> tuple[np.ndarray, dict]:
        """forward_pass over this model's param_views(), once the batch
        (check_tokens) and every fusion layer's input (when fusion_in is
        given) are checked: a missing input, one that does not broadcast
        to the (B, T, d_model) states, or one keyed at a layer that does
        not fuse, raises ContractError naming the layer. keep_acts is
        forward_pass's: only forward_train sets it; every other caller
        reads just acts["states"]."""
        s = self.spec
        tokens = np.asarray(tokens)
        check_tokens(s, tokens, 0 if cache is None else cache.step_count)
        if fusion_in is not None:
            full, layers = tokens.shape + (s.d_model,), s.fusion_layers()
            for l in fusion_in:
                if l not in layers:
                    raise ContractError(f"fusion input for layer {l}, which does not fuse "
                                        f"(fusion layers {layers})")
            for l in layers:
                if l not in fusion_in:
                    raise ContractError(f"fusion input missing for fusion layer {l}")
                shape = np.shape(fusion_in[l])
                if shape != full and not _broadcasts_to(shape, full):
                    raise ContractError(f"fusion input of shape {shape} for fusion layer {l} "
                                        f"does not broadcast to the states' {full}")
        return forward_pass(s, self.param_views(), tokens, fusion_in, cache, keep_acts)

    def forward_step(
        self,
        token_id: int,
        cache: KvCache,
        fusion_in: Optional[dict] = None,
    ) -> tuple[np.ndarray, list[np.ndarray], KvCache]:
        """One decoding step; returns (logits (V,), layer states 0..L, cache).

        The (1, 1) call of _forward: the cache is extended in place, and
        fusion_in works as there, on (d_model,) states.
        """
        logits, acts = self._forward(np.array([[token_id]]), fusion_in, cache)
        return logits[0, 0], [h[0, 0] for h in acts["states"]], cache

    def forward_train(
        self,
        tokens: np.ndarray,
        fusion_in: Optional[dict[int, np.ndarray]] = None,
    ) -> tuple[np.ndarray, dict]:
        """Batched forward over a (B, T) token batch from position 0, keeping
        every layer's activations for backward(): the cache-free call of
        _forward with keep_acts set, fusion_in mapping each fusion layer l to
        (B, T, d_model) states. acts["model"] and acts["version"] record the
        model, by a weak reference, and the parameter version the pass read,
        which backward() checks. The reference keeps no model alive, and a
        deep copy of acts shares it, so the copy still belongs to the model.
        """
        logits, acts = self._forward(tokens, fusion_in, keep_acts=True)
        acts.update(model=weakref.ref(self), version=self.version)
        return logits, acts

    def backward(self, dlogits: np.ndarray, acts: dict, per_sample: bool = False,
                 keys: Optional[Sequence[str]] = None) -> np.ndarray:
        """Gradients of a scalar loss w.r.t. the params arrays named in keys,
        or w.r.t. every array in params when keys is None, as one
        C-contiguous float64 array laid out by layout(keys):
        (P,) summed over the batch, or per sample (*lead, P), lead being
        dlogits' (B,). Each gradient goes straight into its column block.

        dlogits is dL/dz of shape (B, T, V). Each layer's weights are read
        from the view its forward used (acts["layers"][l - 1]["p"]): wq, wk
        and wv are the three column blocks of its wqkv, by basic slicing, so
        wq and wv are the adapter-merged ones; their factors get gradients
        under their params keys, like 'l1.wq.A'. No gradient flows into
        fusion inputs (they come from a frozen predecessor). Since write()
        updates those views' arrays in place, acts must come from this
        model's own forward_train at its current version: activations of
        another model raise ContractError, and so do those of another
        version, naming both versions. The model is compared by identity,
        since two models can stand at one version.

        With keys, each block is array_equal to that key's block of the full
        call, and the work of every other gradient is skipped: its weight
        product or sum, the factor products, and the pass below layer 1 when
        neither embedding is asked for. A key that is not in params raises
        KeyError, a repeated key ValueError, both before any work and
        before the model and version checks.

        Per sample, row b is bit for bit what a B = 1 call on that row
        returns: the weight products run one (d, T) @ (T, e) matmul per row
        and the bias, gain and embedding sums run over positions only.
        dlogits may stack C cotangents, (C, B, T, V): lead is then (C, B),
        and [c] is bit for bit the call on dlogits[c], from one walk where
        the saved activations broadcast (never tiled) and the GELU gradient
        is taken once. Another rank, or a stack without per_sample, raises
        ValueError before any work.
        """
        s = self.spec
        if dlogits.ndim != 3 and not (per_sample and dlogits.ndim == 4):
            raise ValueError(f"dlogits must be (B, T, V), or (C, B, T, V) per sample; "
                             f"got shape {dlogits.shape}")
        lead, T = dlogits.shape[:-2], dlogits.shape[-2]
        nh, dh = s.n_heads, s.d_model // s.n_heads
        scale = 1.0 / np.sqrt(dh)
        rows = -2 if per_sample else (0, 1)  # the axes a bias gradient sums
        slots, width, want = self.layout(keys)
        owner = acts.get("model")
        if owner is None or owner() is not self:
            raise ContractError("activations from another model's forward_train cannot give "
                                "this model's gradients; run its own forward_train")
        if acts.get("version") != self.version:
            raise ContractError(f"activations of parameter version {acts.get('version')} cannot "
                                f"give gradients at version {self.version}; run forward_train again")
        # one block, not an array per key: the heap those small arrays took was
        # trimmed when they were freed and faulted in again on every call
        out = np.empty((lead if per_sample else ()) + (width,))
        blocks = _blocks(slots, out)
        below = "tok_emb" in want or "pos_emb" in want  # run the pass below layer 1

        def put(key, grad):
            """grad(block) into key's block, run only when key is asked for."""
            if key in want:
                grad(blocks[key])

        put("unemb", lambda o: _weight_grad(acts["states"][-1], dlogits, per_sample, o))
        dh_ = dlogits @ self.params["unemb"].T

        for l in range(s.n_layers, 0, -1):
            p = f"l{l}."
            a = acts["layers"][l - 1]
            w = a["p"]
            # mlp block
            xhat = a["ln_mlp"][0]
            put(p + "ln_mlp_g", lambda o: np.add.reduce(dh_ * xhat, axis=rows, out=o))
            put(p + "ln_mlp_b", lambda o: np.add.reduce(dh_, axis=rows, out=o))
            dr2 = _ln_backward(dh_, a["ln_mlp"], w["ln_mlp_g"])
            dm = dr2
            put(p + "w2", lambda o: _weight_grad(a["g1"], dm, per_sample, o))
            put(p + "b2", lambda o: np.add.reduce(dm, axis=rows, out=o))
            du1 = dm @ w["w2"].T
            du1 *= gelu_grad(a["u1"], a["t1"])
            put(p + "w1", lambda o: _weight_grad(a["ha"], du1, per_sample, o))
            put(p + "b1", lambda o: np.add.reduce(du1, axis=rows, out=o))
            dha = du1 @ w["w1"].T
            dha += dr2
            # attention block
            xhat = a["ln_attn"][0]
            put(p + "ln_attn_g", lambda o: np.add.reduce(dha * xhat, axis=rows, out=o))
            put(p + "ln_attn_b", lambda o: np.add.reduce(dha, axis=rows, out=o))
            dr1 = _ln_backward(dha, a["ln_attn"], w["ln_attn_g"])
            dhhat = dr1
            put(p + "wo", lambda o: _weight_grad(a["o"], dhhat, per_sample, o))
            do = dhhat @ w["wo"].T
            doh = do.reshape(lead + (T, nh, dh)).swapaxes(-3, -2)
            dqh, dkh, dvh = _attention_backward(doh, a["qh"], a["kh"], a["vh"], a["attn"], scale)
            dq = dqh.swapaxes(-3, -2).reshape(lead + (T, s.d_model))
            dk = dkh.swapaxes(-3, -2).reshape(lead + (T, s.d_model))
            dv = dvh.swapaxes(-3, -2).reshape(lead + (T, s.d_model))
            for name, dy in (("wq", dq), ("wk", dk), ("wv", dv)):
                # wq and wv carry factors key.A, key.B on a rank > 0 model
                key = p + name
                if key in want or key + ".A" in want or key + ".B" in want:
                    dw = _weight_grad(a["ht"], dy, per_sample, blocks.get(key))
                    put(key + ".A", lambda o: np.matmul(dw, self.params[key + ".B"].T, out=o))
                    put(key + ".B", lambda o: np.matmul(self.params[key + ".A"].T, dw, out=o))
            if l == 1 and not below:
                break
            # one product per block: dqkv @ wqkv.T would sum in another order
            wqkv, d = w["wqkv"], s.d_model
            dht = dq @ wqkv[:, :d].T
            dht += dk @ wqkv[:, d : 2 * d].T
            dht += dv @ wqkv[:, 2 * d :].T
            dht += dr1
            # fusion norm (unit gain): gradient flows only into h_own
            dh_ = _ln_backward(dht, a["ln_fuse"], 1.0) if a["fused"] else dht

        # embeddings
        put("tok_emb", lambda o: _embedding_grad(acts["tokens"], dh_, s.vocab, per_sample, o))
        if "pos_emb" in want:
            dpos = blocks["pos_emb"]
            dpos[..., T:, :] = 0.0
            dpos[..., :T, :] = dh_ if per_sample else dh_.sum(axis=0)
        return out

    def layout(self, keys: Optional[Sequence[str]] = None) -> tuple[tuple, int, frozenset]:
        """The one key-to-column-block map of a flat (*lead, P) array whose
        last axis holds the keys' arrays one after another, in the order of
        keys (of params when keys is None): (slots, P, the keys as a set),
        each slot (key, start, stop, shape). backward lays out its gradients
        by it, and flat_blocks cuts an array by it for sgd_step and
        load_flat_params. Built and checked the first time a key tuple is
        met (of the last LAYOUTS_KEPT tuples), then shared and only read;
        it cannot go stale, because write refuses a value of another shape.
        A key not in params raises KeyError, a repeated key ValueError."""
        tag = None if keys is None else tuple(keys)
        found = self._layouts.get(tag)
        if found is None:
            names = tuple(self.params) if tag is None else tag
            unknown = sorted(set(names) - self.params.keys())
            if unknown:
                raise KeyError(f"no parameter {unknown[0]!r} to take a gradient of")
            if len(set(names)) != len(names):
                raise ValueError("a flat parameter layout needs keys without repeats")
            slots, start = [], 0
            for key in names:
                arr = self.params[key]
                slots.append((key, start, start + arr.size, arr.shape))
                start += arr.size
            if len(self._layouts) == LAYOUTS_KEPT:
                del self._layouts[next(iter(self._layouts))]
            found = self._layouts[tag] = (tuple(slots), start, frozenset(names))
        return found

    def flat_blocks(self, keys: Optional[Sequence[str]], flat: np.ndarray) -> dict[str, np.ndarray]:
        """Each key's (*lead, *shape) view of its block of flat, a (*lead, P)
        array in layout(keys). A P that is not the keys' sizes together
        raises ValueError, and so do layout's faults."""
        slots, width, _ = self.layout(keys)
        if flat.shape[-1:] != (width,):
            raise ValueError(f"flat array of shape {flat.shape} does not hold the keys' {width} entries per row")
        return _blocks(slots, flat)

    # -- persistence -------------------------------------------------------

    def save(self, path) -> None:
        """Write params to an .npz archive in params order, adapter factors as
        adapter.<key> and every other array as param.<key>, plus a JSON header."""
        header = {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "spec": asdict(self.spec),
            "dtype": "float64",
            "adapters": _factor_bases(self.params),
        }
        arrays = {_archive_name(k): v for k, v in self.params.items()}
        arrays["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
        with open(path, "wb") as f:
            np.savez(f, **arrays)

    @staticmethod
    def load(path) -> "TransformerModel":
        """Read a checkpoint; every array must be one its spec declares, with
        that shape, under the name save gives it, and the header's adapters
        what save writes. Any fault, in the archive, the header or an array,
        raises ValueError naming the checkpoint; a file that does not open
        stays OSError."""
        with open(path, "rb") as f:
            try:  # zipfile, zlib and numpy's reader each raise their own types on a bad file
                data = np.load(f)
                if not isinstance(data, np.lib.npyio.NpzFile):
                    raise ValueError("it holds one .npy array")
                with data:
                    stored = {name: data[name] for name in data.files}
            except Exception as exc:  # noqa: BLE001 - every one is the file's fault
                raise ValueError(f"checkpoint {path}: does not read as an .npz archive: {exc!r}") from None
        try:  # a missing array or header key is a KeyError, bad JSON a ValueError
            header = json.loads(bytes(stored.pop("header")).decode())
            version, dtype, spec, adapters = (
                header[key] for key in ("format_version", "dtype", "spec", "adapters"))
            if type(version) is not int or version != CHECKPOINT_FORMAT_VERSION:
                raise ValueError(f"unsupported checkpoint format version {version!r}")
            if dtype != "float64":
                raise ValueError(f"unsupported checkpoint dtype {dtype!r} (only float64)")
            if not isinstance(spec, dict) or set(spec) != {f.name for f in fields(ModelSpec)}:
                raise ValueError(f"header spec {spec!r} does not name each ModelSpec field once")
            model = TransformerModel(ModelSpec(**spec))
            bases = _factor_bases(model.params)
            if adapters != bases:
                raise ValueError(f"header adapters {adapters!r} are not the spec's {bases!r}")
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"checkpoint {path}: bad header: {exc!r}") from None
        names = {_archive_name(k): k for k in model.params}
        arrays = {}
        for name in sorted(names.keys() | stored.keys()):
            if name not in names:
                raise ValueError(f"checkpoint {path}: array {name!r} is not in its spec")
            if name not in stored:
                raise ValueError(f"checkpoint {path}: array {name!r} is missing")
            arr, want = stored[name], model.params[names[name]].shape
            if arr.shape != want:
                raise ValueError(
                    f"checkpoint {path}: array {name!r} has shape {arr.shape}, "
                    f"its spec needs {want}"
                )
            arrays[names[name]] = arr
        model.write(arrays.items())
        return model


def _broadcasts_to(shape: tuple, full: tuple) -> bool:
    """Whether an array of shape broadcasts against one of full to full."""
    return len(shape) <= len(full) and all(n in (1, m) for n, m in zip(shape[::-1], full[::-1]))


def _factor_bases(params) -> list[str]:
    """A checkpoint header's adapters: the sorted keys of factored weights, like l1.wq."""
    return sorted(k[:-2] for k in params if k.endswith(".A"))


def _read_only(arr: np.ndarray) -> np.ndarray:
    """A view of arr that refuses writes; arr itself stays writable."""
    view = arr.view()
    view.flags.writeable = False
    return view


def is_factor(key: str) -> bool:
    """Whether a params key names an adapter factor, like l1.wq.A or l1.wv.B."""
    return key.endswith((".A", ".B"))


def _archive_name(key: str) -> str:
    """A params key's array name in a checkpoint: adapter.<key> for an
    adapter factor, param.<key> otherwise."""
    return ("adapter." if is_factor(key) else "param.") + key


def _weight_grad(x: np.ndarray, dy: np.ndarray, per_sample: bool,
                 out: Optional[np.ndarray]) -> np.ndarray:
    """sum over (b, t) of outer(x[b, t], dy[b, t]), as one 2-D matmul; per
    sample, the sum over t alone, one (d, T) @ (T, e) matmul per row b (per
    (c, b) of a stacked dy); into out, or a fresh array when out is None."""
    if per_sample:
        return np.matmul(x.swapaxes(-1, -2), dy, out=out)
    return np.matmul(x.reshape(-1, x.shape[-1]).T, dy.reshape(-1, dy.shape[-1]), out=out)


def _blocks(slots: tuple, flat: np.ndarray) -> dict[str, np.ndarray]:
    """Each slot's (*lead, *shape) view of its columns of flat (*lead, P)."""
    lead = flat.shape[:-1]
    return {key: flat[..., start:stop].reshape(lead + shape) for key, start, stop, shape in slots}


def _embedding_grad(tokens: np.ndarray, dh: np.ndarray, vocab: int, per_sample: bool,
                    out: np.ndarray) -> np.ndarray:
    """The (vocab, d) table gradient, written into out and returned: each
    dh[b, t] added onto row tokens[b, t] of zeros, or per sample onto row
    b's own (B, vocab, d) table (per (c, b) of a stacked dh). One
    np.bincount over the flat indices (row * vocab + token) * d + j: like
    np.add.at, it adds in index order from zeros, so the bits are the same,
    at a fraction of the cost."""
    d = dh.shape[-1]
    rows = tokens.astype(np.intp)  # a narrower int type would wrap in the products
    if dh.ndim == 4:  # a stack: tile the tokens, and only then
        rows = np.tile(rows, (dh.shape[0], 1))
    if per_sample:
        rows += np.arange(len(rows))[:, None] * vocab
    flat = (rows[..., None] * d + np.arange(d)).ravel()
    out[...] = np.bincount(flat, weights=dh.ravel(), minlength=out.size).reshape(out.shape)
    return out


def check_tokens(spec: ModelSpec, tokens: np.ndarray, t0: int = 0) -> None:
    """Raise IndexError unless every id of the (B, T) batch tokens is in [0,
    vocab) and its steps t0 .. t0 + T - 1 fit max_steps; a batch that is not
    2-D raises ShapeError, one not of an integer dtype ValueError."""
    if tokens.ndim != 2:
        raise ShapeError(f"a token batch must be (B, T), got shape {tokens.shape}")
    if tokens.dtype.kind not in "iu":
        raise ValueError(f"token ids must have an integer dtype, got {tokens.dtype}")
    T = tokens.shape[1]
    bad = tokens[(tokens < 0) | (tokens >= spec.vocab)]
    if bad.size:
        raise IndexError(f"token id {bad[0]} out of range for vocab {spec.vocab}")
    if t0 + T > spec.max_steps:
        raise IndexError(f"step {t0 + T - 1} exceeds max_steps {spec.max_steps}")


def stack_views(models) -> list[dict]:
    """The models' param_views() stacked along a leading model axis,
    read-only, so that transformer_layer runs model b in batch row b: [0]
    holds the embeddings and unembedding, [l] every entry of layer l's view.
    (d, d') weights become (k, d, d'), and the (1, 1, n) gains and biases
    are concatenated into (k, 1, n), the rank of the (k, 1, n) activations."""

    def stack(arrays):
        # np.array(arrays) is np.stack's result at a third of its overhead
        out = np.concatenate(arrays) if arrays[0].ndim == 3 else np.array(arrays)
        out.flags.writeable = False
        return out

    return [{name: stack([v[name] for v in per]) for name in per[0]}
            for per in zip(*(m.param_views() for m in models))]


def fuse_states(h: np.ndarray, pred: np.ndarray, keep: bool = True):
    """A fusion layer's attention input LayerNorm(h + pred), unit gain and zero
    bias; returns (input, saved for _ln_backward), or (input, None) without
    keep, when the norm runs inside the fresh sum h + pred. h and pred are
    only read."""
    return _ln_forward(h + pred, 1.0, 0.0, keep)


def forward_pass(spec: ModelSpec, views: list[dict], tokens: np.ndarray,
                 fusion_in: Optional[dict] = None,
                 cache: Optional[KvCache] = None,
                 keep_acts: bool = False,
                 stop_at_cache: bool = False) -> tuple[Optional[np.ndarray], dict]:
    """One model's walk over a (B, T) token batch, unchecked: embedding, then
    transformer_layer per layer, then unembedding, over views as built by
    TransformerModel.param_views.

    Positions start at cache.step_count (0 without a cache); a cache is
    extended in place and attention reads every step it holds. fusion_in,
    when present, maps each layer l to fuse to a state that broadcasts
    against (B, T, d_model): the pass fuses at its keys, which callers
    take from spec.fusion_layers(). Returns (logits (B, T, V), acts), where
    acts["states"] is [h_0, ..., h_L]. Only with keep_acts does
    acts["layers"] hold each layer's activations for backward(); without
    it the list stays empty, every layer runs transformer_layer's keep=False
    body (its elementwise stages in place, fusion norms too), and a layer's
    intermediates are freed as soon as the next layer starts.

    stop_at_cache is for a decode step whose logits and last state nobody
    reads: the last layer only projects its keys and values into the cache
    (cache_kv), and the pass returns (None, acts) with acts["states"] ending
    at h_{L-1}. The cache then holds the bits a full step leaves in it.
    """
    T = tokens.shape[1]
    t0 = 0 if cache is None else cache.step_count
    # a one-token step attends to every cached step: its mask is all zeros
    mask = None if T == 1 else causal_mask(T, t0)
    emb = views[0]
    # positions at the batch's rank: a one-row step adds two (1, 1, d) arrays
    h = emb["tok_emb"][tokens] + emb["pos_emb"][None, t0 : t0 + T]
    acts: dict = {"tokens": tokens, "layers": [], "states": [h]}
    for l in range(1, spec.n_layers + 1):
        fused = fusion_in is not None and l in fusion_in
        ht, ln_fuse = fuse_states(h, fusion_in[l], keep_acts) if fused else (h, None)
        if stop_at_cache and l == spec.n_layers:
            cache_kv(views[l], ht, cache, l, spec.n_heads)
            return None, acts
        h, a = transformer_layer(views[l], ht, cache, l, spec.n_heads, mask, keep_acts)
        acts["states"].append(h)
        if keep_acts:
            a.update(fused=fused, ln_fuse=ln_fuse)
            acts["layers"].append(a)
        del a  # else this layer's activations would live through the next layer
    return h @ emb["unemb"], acts


@functools.lru_cache(maxsize=32)
def causal_mask(T: int, t0: int) -> np.ndarray:
    """The additive (T, t0 + T) mask of T steps after t0 cached ones: 0
    where step t0 + i may see step j (j <= t0 + i), -1e30 elsewhere. Built
    once per (T, t0), of the last 32 met, and shared read-only: attention
    only adds it to the scores."""
    mask = np.triu(np.full((T, t0 + T), -1e30), k=t0 + 1)
    mask.flags.writeable = False
    return mask


def transformer_layer(p: dict, ht: np.ndarray, cache: Optional[KvCache], layer: int,
                      n_heads: int, mask: Optional[np.ndarray],
                      keep: bool = True) -> tuple[np.ndarray, Optional[dict]]:
    """The one transformer layer body, from its attention input ht (B, T, d_model).

    p is a parameter view (TransformerModel.layer_params): one model's
    (d, d') weights and (1, 1, d) gains and biases, or k models' stacked
    along a leading model axis, (k, d, d') and (k, 1, d), so that batch row
    b runs model b. A cache, when given, is extended in place at index
    layer-1; mask None means every key is visible. Returns (state h_layer,
    activations for backward), or (h_layer, None) without keep. The
    residual and bias adds go in place onto the fresh products; ht and p
    are only read.

    Without keep nothing is saved, so each elementwise stage writes over
    the fresh array of the stage before it: the softmax over the scores,
    each LayerNorm inside its input (hhat, then m), the GELU inside u1.
    That is five arrays fewer per layer, for the same bits.
    """
    B, T, d = ht.shape
    dh = d // n_heads
    qkv = _qkv_heads(p, ht, n_heads)
    qh = qkv[0]
    kh, vh = qkv[1:] if cache is None else cache.extend(layer - 1, qkv[1:])
    oh, attn = _attention(qh, kh, vh, 1.0 / math.sqrt(dh), mask, keep)
    o = oh.transpose(0, 2, 1, 3).reshape(B, T, d)
    hhat = o @ p["wo"]
    hhat += ht
    ha, ln_a = _ln_forward(hhat, p["ln_attn_g"], p["ln_attn_b"], keep)
    u1 = ha @ p["w1"]
    u1 += p["b1"]
    t1 = gelu_tanh(u1)
    g1 = gelu(u1, t1, keep)
    m = g1 @ p["w2"]
    m += p["b2"]
    m += ha
    h, ln_m = _ln_forward(m, p["ln_mlp_g"], p["ln_mlp_b"], keep)
    if not keep:
        return h, None
    acts = dict(p=p, ht=ht, qh=qh, kh=kh, vh=vh, attn=attn, o=o,
                ln_attn=ln_a, ha=ha, u1=u1, t1=t1, g1=g1, ln_mlp=ln_m)
    return h, acts


def cache_kv(p: dict, ht: np.ndarray, cache: KvCache, layer: int, n_heads: int) -> None:
    """Extend the cache at index layer-1 with the keys and values of attention
    input ht, from the projection transformer_layer makes, and do nothing
    else of the layer: its attention, MLP and LayerNorms are skipped."""
    cache.extend(layer - 1, _qkv_heads(p, ht, n_heads)[1:])


def _qkv_heads(p: dict, ht: np.ndarray, n_heads: int) -> np.ndarray:
    """Q, K and V of attention input ht (B, T, d) from the one matmul
    ht @ p["wqkv"], split by head: (3, B, n_heads, T, head_dim) views."""
    B, T, d = ht.shape
    return (ht @ p["wqkv"]).reshape(B, T, 3, n_heads, d // n_heads).transpose(2, 0, 3, 1, 4)


def _attention(qh, kh, vh, scale: float, mask: Optional[np.ndarray] = None,
               keep: bool = True):
    """Softmax attention over (B, heads, T, dh), masked when a mask is given;
    returns (context, weights). The scale and the mask go onto the scores
    in place, and without keep the softmax too, so that the weights are
    the scores' array."""
    scores = qh @ kh.swapaxes(-1, -2)
    scores *= scale
    if mask is not None:
        scores += mask
    attn = softmax_rows(scores, out=None if keep else scores)
    return attn @ vh, attn


def _attention_backward(doh, qh, kh, vh, attn, scale: float):
    """Gradients (dq, dk, dv) of _attention given the context gradient doh.
    dscores = attn * (dattn - rowsum(dattn * attn)) is built in dattn."""
    dattn = doh @ vh.swapaxes(-1, -2)
    dvh = attn.swapaxes(-1, -2) @ doh
    dattn -= (dattn * attn).sum(axis=-1, keepdims=True)
    dattn *= attn
    dqh = dattn @ kh
    dqh *= scale
    dkh = dattn.swapaxes(-1, -2) @ qh
    dkh *= scale
    return dqh, dkh, dvh


def _ln_forward(x: np.ndarray, gain, bias, keep: bool = True):
    """LayerNorm over the last axis; returns (gain * xhat + bias, (xhat, inv))
    with inv = 1 / sqrt(var + eps), a (..., 1) array. With keep, of the
    full-size arrays it allocates the centred copy, which becomes the saved
    xhat, and the output, which first holds the squares; x is only read.
    Without keep it returns (output, None) and allocates only the squares:
    x, which the caller hands over fresh and no longer reads, is centred,
    scaled, gained and biased in place and becomes the output.

    The per-row values stay out of place. An input that holds one row (every
    decode step of one model) takes its row's sum and sum of squares as
    Python floats and runs the mean, the variance, the sqrt and the
    reciprocal on them: the same IEEE operations in the same order as the
    array path, so the same bits, at about half the numpy calls."""
    # np.add.reduce(...) / d is what ndarray.mean computes, minus its Python wrapper
    d = x.shape[-1]
    into = None if keep else x
    if x.size == d:
        xc = np.subtract(x, float(np.add.reduce(x, axis=None)) / d, out=into)
        y = xc * xc
        inv = 1.0 / math.sqrt(float(np.add.reduce(y, axis=None)) / d + LN_EPS)
        xc *= inv
        if keep:
            inv = np.array(inv, ndmin=x.ndim)
    else:
        xc = np.subtract(x, np.add.reduce(x, axis=-1, keepdims=True) / d, out=into)
        y = xc * xc
        inv = 1.0 / np.sqrt(np.add.reduce(y, axis=-1, keepdims=True) / d + LN_EPS)
        xc *= inv
    if not keep:
        y = xc
    np.multiply(gain, xc, out=y)
    y += bias
    return y, ((xc, inv) if keep else None)


def _ln_backward(dy: np.ndarray, saved, gain) -> np.ndarray:
    """dx of _ln_forward given dy; backward takes the gain and bias sums
    itself, and only for the keys it is asked for.

    inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) with dxhat =
    dy * gain, built in dxhat; the product dxhat * xhat is the one other
    full-size array allocated. dy and saved are only read."""
    xhat, inv = saved
    dxhat = dy * gain
    d = dy.shape[-1]
    mean_dxhat = np.add.reduce(dxhat, axis=-1, keepdims=True) / d
    prod = dxhat * xhat
    np.multiply(xhat, np.add.reduce(prod, axis=-1, keepdims=True) / d, out=prod)
    dxhat -= mean_dxhat
    dxhat -= prod
    dxhat *= inv
    return dxhat
