"""Toy decoder-only transformer with per-layer state taps and fusion injection.

The block structure follows a post-norm layout: the attention input is either
the previous layer's state or, at fusion layers, LayerNorm(h_own + h_pred)
with unit gain and zero bias; Q/K/V are all projected from that (possibly
fused) stream, in one matmul with wqkv = [wq | wk | wv], the one Q/K/V
weight a layer's parameter view holds (backward reads its three column
blocks); a residual + LayerNorm follows, then a GELU MLP with its own
residual + LayerNorm. Layers are 1-indexed so layer l fuses iff
l % fusion_period == 0; the embedding output counts as "layer 0".

One layer body (transformer_layer, over a parameter view) serves every path.
One walk, forward_pass, wraps it in embedding and unembedding over a model's
param_views(). TransformerModel._forward checks its inputs and runs the walk
for batched training (forward_train, no cache, with analytic gradients in
backward that the tests cross-check against finite differences; backward
takes every gradient, or only those of the keys a trainer asks for and none
of the work of the rest, per sample also straight into the rows of one
caller-owned array, and for a stack of cotangents in one layer walk),
for the teacher-forced chain walk and for KV-cache
decoding (forward_step, the one-token call over a KvCache). Only
forward_train keeps each layer's activations; the other calls return the
layer states alone. A model builds its param_views() once per parameter
version, and every pass until the next write shares them: the sequential
chain decoder runs the walk over them, and the layer-synchronous one calls
the layer body with k models' views stacked along the batch axis. A view
holds each gain and bias at the activations' rank, (1, 1, n), and the walk
adds positions at the batch's rank, so that a decode step's one-row
elementwise ops meet two arrays of one shape: numpy's fast path, where a
(n,) operand would take its broadcasting iterator. A decode
step whose logits nobody reads stops at the last layer's keys and values
(cache_kv): both decoders take it on every prompt token but the last. A
KvCache writes each step's keys and values in place into one buffer per
layer, which grows by doubling; attention reads a view of the filled steps,
and a view handed out never changes.

Ownership rule: TransformerModel.write is the one writer of the parameters
and moves the model's version on; params, its arrays and the cached views
are read-only, so a stray write raises instead of leaving a cache stale. A
kernel writes only arrays it allocated, and backward also the out array its
caller hands it for per-sample gradients: every element of it, each gradient
in its own column block, as the plain call would compute it. LayerNorm
forward and backward, GELU and its gradient, softmax_rows, attention and its
backward, and the residual and bias adds of transformer_layer and backward
allocate an array only for a value they keep or return and run every other
elementwise step in place on it; their inputs and the activations
forward_train saves are only read. Each in-place step is the IEEE operation
the plain expression ran, at most with the operands of one + or * swapped,
so the results are bit for bit those of the out-of-place expressions that
tests/oracles.py keeps. LayerNorm forward on an input that holds one row (a
decode step of one model) runs its row's statistics on Python floats: the
same IEEE operations in the same order, so also bit for bit, with fewer
numpy calls. backward adds the token-embedding gradient's rows with one
np.bincount, in the index order np.add.at would add them, so also bit for
bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .numkit import softmax_rows
from .numkit import layer_norm  # noqa: F401 - chainbench/tracer.py patches model.layer_norm

CHECKPOINT_FORMAT_VERSION = 1
LN_EPS = 1e-5
# steps of room in a layer's first KvCache buffer, as in PagedAttention's
# 16-token blocks: a short request never grows its buffers
KV_FIRST_ROOM = 16

_GELU_C = np.sqrt(2.0 / np.pi)
_GELU_A = 0.044715
# a layer's weights a view holds as they are; wq, wk and wv go into its wqkv
LAYER_WEIGHTS = ("wo", "w1", "w2")
# a layer's gains and biases, which a view holds as (1, 1, n)
LAYER_VECTORS = ("ln_attn_g", "ln_attn_b", "b1", "b2", "ln_mlp_g", "ln_mlp_b")


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


def gelu(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Tanh GELU, where t is gelu_tanh(x). Builds 0.5 x (1 + t) in its
    result, with 1 + t the one temporary; x and t are only read."""
    g = x * 0.5
    g *= t + 1.0
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
        self._init_params()

    def __getstate__(self) -> dict:
        """What copy and pickle keep: the spec, the writable arrays and the version."""
        return {"spec": self.spec, "store": self._store, "version": self.version}

    def __setstate__(self, state: dict) -> None:
        """A model over its own copies of state's arrays, with no views built
        yet, so that a write through a copy (copy.copy included, which hands
        over the original's store) never reaches the original."""
        self.spec, self.version = state["spec"], state["version"]
        self._store = {key: np.array(arr) for key, arr in state["store"].items()}
        self._views = None
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
                         for l in range(1, s.n_layers + 1) for t in ("wq", "wv") for f in "AB")
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
                for target in ("wq", "wv"):
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
            for name in ("wq", "wv"):
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
        """forward_pass over this model's param_views(), once the token range,
        the step bound and every fusion layer's input (when fusion_in is
        given) are checked. keep_acts is forward_pass's: only forward_train
        sets it; every other caller reads just acts["states"]."""
        s = self.spec
        tokens = np.asarray(tokens)
        _, T = tokens.shape
        t0 = 0 if cache is None else cache.step_count
        bad = tokens[(tokens < 0) | (tokens >= s.vocab)]
        if bad.size:
            raise IndexError(f"token id {bad[0]} out of range for vocab {s.vocab}")
        if t0 + T > s.max_steps:
            raise IndexError(f"step {t0 + T - 1} exceeds max_steps {s.max_steps}")
        if fusion_in is not None:
            for l in s.fusion_layers():
                if l not in fusion_in:
                    raise ContractError(f"fusion input missing for fusion layer {l}")
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
        (B, T, d_model) states.
        """
        return self._forward(tokens, fusion_in, keep_acts=True)

    def backward(self, dlogits: np.ndarray, acts: dict, per_sample: bool = False,
                 keys: Optional[Sequence[str]] = None,
                 out: Optional[np.ndarray] = None) -> dict[str, np.ndarray]:
        """Gradients of a scalar loss w.r.t. the params arrays named in keys,
        or w.r.t. every array in params when keys is None.

        dlogits is dL/dz of shape (B, T, V). Each layer's weights are read
        from the view its forward used (acts["layers"][l - 1]["p"]): wq, wk
        and wv are the three column blocks of its wqkv, by basic slicing, so
        wq and wv are the adapter-merged ones; their factors get gradients
        under their params keys, like 'l1.wq.A'. No gradient flows into
        fusion inputs (they come from a frozen predecessor).

        With keys, the dict holds exactly those keys, each array_equal to
        what the full call returns, and the work of every other gradient is
        skipped: its weight product or sum, the factor products, and the pass
        below layer 1 when neither embedding is asked for. A key that is not
        in params raises KeyError.

        Gradients are summed over the batch. With per_sample=True each one
        keeps a leading B axis instead, row b being the gradient of batch row
        b's own loss, bit for bit what a B = 1 call on that row returns: the
        weight products run one (d, T) @ (T, e) matmul per row and the bias,
        gain and embedding sums run over positions only.

        Per sample, dlogits may stack C cotangents, (C, B, T, V): each
        gradient is then (C, B, ...), [c] bit for bit the call on
        dlogits[c], in one walk where the saved activations broadcast (never
        tiled) and the GELU gradient is taken once. Another rank, or a stack
        without per_sample, raises ValueError before any work.

        out, only with per_sample, is a caller-owned C-contiguous float64
        (*lead, P) array, lead being dlogits' (B,) or (C, B), P the sizes of
        the keys' arrays together (of every params array, in params order,
        when keys is None). Each gradient goes straight into its column
        block, so that out[..., b, :] is flatten_grads(keys) of sample b's
        gradients, with the same bits, and the dict holds views of out. A
        repeated key, or an out of another shape, dtype or layout, raises
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
        want = self.params.keys() if keys is None else set(keys)
        unknown = sorted(want - self.params.keys())
        if unknown:
            raise KeyError(f"no parameter {unknown[0]!r} to take a gradient of")
        blocks = {} if out is None else _out_blocks(self.params, keys, lead, per_sample, out)
        below = "tok_emb" in want or "pos_emb" in want  # run the pass below layer 1
        grads: dict[str, np.ndarray] = {}

        def put(key, grad):
            """grads[key] = grad(block), run only when key is asked for; block
            is the key's view of out, or None without out."""
            if key in want:
                grads[key] = grad(blocks.get(key))

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
                    if key in want:
                        grads[key] = dw
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
        tokens = acts["tokens"]
        if "tok_emb" in want:
            grads["tok_emb"] = _embedding_grad(tokens, dh_, s.vocab, per_sample,
                                               blocks.get("tok_emb"))
        if "pos_emb" in want:
            dpos = _zeros((lead if per_sample else ()) + self.params["pos_emb"].shape,
                          blocks.get("pos_emb"))
            dpos[..., :T, :] = dh_ if per_sample else dh_.sum(axis=0)
            grads["pos_emb"] = dpos
        return grads

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
        what save writes. Any fault, in the header or an array, raises
        ValueError naming the checkpoint."""
        with np.load(path) as data:
            try:  # a missing array or header key is a KeyError, bad JSON a ValueError
                header = json.loads(bytes(data["header"]).decode())
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
            for name in sorted(names.keys() | set(data.files) - {"header"}):
                if name not in names:
                    raise ValueError(f"checkpoint {path}: array {name!r} is not in its spec")
                if name not in data.files:
                    raise ValueError(f"checkpoint {path}: array {name!r} is missing")
                arr, want = data[name], model.params[names[name]].shape
                if arr.shape != want:
                    raise ValueError(
                        f"checkpoint {path}: array {name!r} has shape {arr.shape}, "
                        f"its spec needs {want}"
                    )
                arrays[names[name]] = arr
        model.write(arrays.items())
        return model


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


def _weight_grad(x: np.ndarray, dy: np.ndarray, per_sample: bool = False,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
    """sum over (b, t) of outer(x[b, t], dy[b, t]), as one 2-D matmul; per
    sample, the sum over t alone, one (d, T) @ (T, e) matmul per row b (per
    (c, b) of a stacked dy), written into out when it is given."""
    if per_sample:
        return np.matmul(x.swapaxes(-1, -2), dy, out=out)
    return x.reshape(-1, x.shape[-1]).T @ dy.reshape(-1, dy.shape[-1])


def _out_blocks(params, keys, lead: tuple, per_sample: bool, out: np.ndarray) -> dict:
    """Each key's (*lead, *shape) view of its column block of backward's out,
    in the order of keys (of params when keys is None); raises ValueError,
    before backward does any work, unless out is a per-sample call's
    C-contiguous float64 (*lead, P) array and no key repeats."""
    if not per_sample:
        raise ValueError("out needs per_sample=True")
    keys = list(params) if keys is None else list(keys)
    if len(set(keys)) != len(keys):
        raise ValueError("out needs keys without repeats")
    sizes = [params[key].size for key in keys]
    # a block of any other layout would reshape to a copy, and a narrower
    # dtype would take the products cast down
    shape = lead + (sum(sizes),)
    if out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 {shape} array, "
                         f"got {out.dtype} {out.shape}")
    blocks, off = {}, 0
    for key, size in zip(keys, sizes):
        blocks[key] = out[..., off : off + size].reshape(lead + params[key].shape)
        off += size
    return blocks


def _embedding_grad(tokens: np.ndarray, dh: np.ndarray, vocab: int, per_sample: bool,
                    out: Optional[np.ndarray]) -> np.ndarray:
    """The (vocab, d) table gradient: each dh[b, t] added onto row tokens[b, t]
    of zeros, or per sample onto row b's own (B, vocab, d) table, written
    into out when it is given (per (c, b) of a stacked dh). One np.bincount
    over the flat indices (row * vocab + token) * d + j: like np.add.at, it
    adds in index order from zeros, so the bits are the same, at a fraction
    of the cost."""
    d = dh.shape[-1]
    rows = tokens.astype(np.intp)  # a narrower int type would wrap in the products
    if dh.ndim == 4:  # a stack: tile the tokens, and only then
        rows = np.tile(rows, (dh.shape[0], 1))
    if per_sample:
        rows += np.arange(len(rows))[:, None] * vocab
    shape = (dh.shape[:-2] if per_sample else ()) + (vocab, d)
    flat = (rows[..., None] * d + np.arange(d)).ravel()
    sums = np.bincount(flat, weights=dh.ravel(), minlength=math.prod(shape)).reshape(shape)
    if out is None:
        return sums
    out[...] = sums
    return out


def _zeros(shape: tuple, out: Optional[np.ndarray]) -> np.ndarray:
    """np.zeros(shape), or out set to zero in place when it is given."""
    if out is None:
        return np.zeros(shape)
    out[...] = 0.0
    return out


def fuse_states(h: np.ndarray, pred: np.ndarray):
    """A fusion layer's attention input LayerNorm(h + pred), unit gain and zero
    bias; returns (input, saved for _ln_backward)."""
    return _ln_forward(h + pred, 1.0, 0.0)


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
    when present, maps every fusion layer l to a state that broadcasts
    against (B, T, d_model). Returns (logits (B, T, V), acts), where
    acts["states"] is [h_0, ..., h_L]. Only with keep_acts does
    acts["layers"] hold each layer's activations for backward(); without
    it the list stays empty and a layer's intermediates are freed as soon
    as the next layer starts.

    stop_at_cache is for a decode step whose logits and last state nobody
    reads: the last layer only projects its keys and values into the cache
    (cache_kv), and the pass returns (None, acts) with acts["states"] ending
    at h_{L-1}. The cache then holds the bits a full step leaves in it.
    """
    T = tokens.shape[1]
    t0 = 0 if cache is None else cache.step_count
    # a one-token step attends to every cached step: its mask is all zeros
    mask = None if T == 1 else np.triu(np.full((T, t0 + T), -1e30), k=t0 + 1)
    emb = views[0]
    # positions at the batch's rank: a one-row step adds two (1, 1, d) arrays
    h = emb["tok_emb"][tokens] + emb["pos_emb"][None, t0 : t0 + T]
    acts: dict = {"tokens": tokens, "layers": [], "states": [h]}
    for l in range(1, spec.n_layers + 1):
        fused = fusion_in is not None and l % spec.fusion_period == 0
        ht, ln_fuse = fuse_states(h, fusion_in[l]) if fused else (h, None)
        if stop_at_cache and l == spec.n_layers:
            cache_kv(views[l], ht, cache, l, spec.n_heads)
            return None, acts
        h, a = transformer_layer(views[l], ht, cache, l, spec.n_heads, mask)
        acts["states"].append(h)
        if keep_acts:
            a.update(fused=fused, ln_fuse=ln_fuse)
            acts["layers"].append(a)
        del a  # else this layer's activations would live through the next layer
    return h @ emb["unemb"], acts


def transformer_layer(p: dict, ht: np.ndarray, cache: Optional[KvCache], layer: int,
                      n_heads: int, mask: Optional[np.ndarray]) -> tuple[np.ndarray, dict]:
    """The one transformer layer body, from its attention input ht (B, T, d_model).

    p is a parameter view (TransformerModel.layer_params): one model's
    (d, d') weights and (1, 1, d) gains and biases, or k models' stacked
    along a leading model axis, (k, d, d') and (k, 1, d), so that batch row
    b runs model b. A cache, when given, is extended in place at index
    layer-1; mask None means every key is visible. Returns (state h_layer, activations). The
    residual and bias adds go in place onto the fresh products; ht and p
    are only read.
    """
    B, T, d = ht.shape
    dh = d // n_heads
    qkv = _qkv_heads(p, ht, n_heads)
    qh = qkv[0]
    kh, vh = qkv[1:] if cache is None else cache.extend(layer - 1, qkv[1:])
    oh, attn = _attention(qh, kh, vh, 1.0 / math.sqrt(dh), mask)
    o = oh.transpose(0, 2, 1, 3).reshape(B, T, d)
    hhat = o @ p["wo"]
    hhat += ht
    ha, ln_a = _ln_forward(hhat, p["ln_attn_g"], p["ln_attn_b"])
    u1 = ha @ p["w1"]
    u1 += p["b1"]
    t1 = gelu_tanh(u1)
    g1 = gelu(u1, t1)
    m = g1 @ p["w2"]
    m += p["b2"]
    m += ha
    h, ln_m = _ln_forward(m, p["ln_mlp_g"], p["ln_mlp_b"])
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


def _attention(qh, kh, vh, scale: float, mask: Optional[np.ndarray] = None):
    """Softmax attention over (B, heads, T, dh), masked when a mask is given;
    returns (context, weights). The scale and the mask go onto the scores
    in place."""
    scores = qh @ kh.swapaxes(-1, -2)
    scores *= scale
    if mask is not None:
        scores += mask
    attn = softmax_rows(scores)
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


def _ln_forward(x: np.ndarray, gain, bias):
    """LayerNorm over the last axis; returns (gain * xhat + bias, (xhat, inv))
    with inv = 1 / sqrt(var + eps), a (..., 1) array. Of the full-size arrays
    it allocates the centred copy, which becomes the saved xhat, and the
    output, which first holds the squares; x is only read.

    The per-row values stay out of place. An input that holds one row (every
    decode step of one model) takes its row's sum and sum of squares as
    Python floats and runs the mean, the variance, the sqrt and the
    reciprocal on them: the same IEEE operations in the same order as the
    array path, so the same bits, at about half the numpy calls."""
    # np.add.reduce(...) / d is what ndarray.mean computes, minus its Python wrapper
    d = x.shape[-1]
    if x.size == d:
        xc = x - float(np.add.reduce(x, axis=None)) / d
        y = xc * xc
        inv = 1.0 / math.sqrt(float(np.add.reduce(y, axis=None)) / d + LN_EPS)
        xc *= inv
        inv = np.array(inv, ndmin=x.ndim)
    else:
        xc = x - np.add.reduce(x, axis=-1, keepdims=True) / d
        y = xc * xc
        inv = 1.0 / np.sqrt(np.add.reduce(y, axis=-1, keepdims=True) / d + LN_EPS)
        xc *= inv
    np.multiply(gain, xc, out=y)
    y += bias
    return y, (xc, inv)


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
