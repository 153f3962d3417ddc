"""Toy decoder-only transformer with per-layer state taps and fusion injection.

The block structure follows a post-norm layout: the attention input is either
the previous layer's state or, at fusion layers, LayerNorm(h_own + h_pred)
with unit gain and zero bias; Q/K/V are all projected from that (possibly
fused) stream, a residual + LayerNorm follows, then a GELU MLP with its own
residual + LayerNorm. Layers are 1-indexed so layer l fuses iff
l % fusion_period == 0; the embedding output counts as "layer 0".

One layer body (transformer_layer, over a parameter view) serves every path.
One walk, forward_pass, wraps it in embedding and unembedding over a model's
param_views(). TransformerModel._forward checks its inputs and runs the walk
for batched training (forward_train, no cache, with analytic gradients in
backward that the tests cross-check against finite differences), for the
teacher-forced chain walk and for KV-cache decoding (forward_step, the
one-token call over a KvCache). Only forward_train keeps each layer's
activations; the other calls return the layer states alone. The sequential
chain decoder runs the walk over views it builds once per request; the
layer-synchronous one calls the layer body with k models' weights stacked
along the batch axis.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .numkit import softmax_rows
from .numkit import layer_norm  # noqa: F401 - chainbench/tracer.py patches model.layer_norm

CHECKPOINT_FORMAT_VERSION = 1
LN_EPS = 1e-5

_GELU_C = np.sqrt(2.0 / np.pi)
_GELU_A = 0.044715
# a layer's parameters, by the short name a parameter view uses
LAYER_KEYS = ("wq", "wk", "wv", "wo", "ln_attn_g", "ln_attn_b",
              "w1", "b1", "w2", "b2", "ln_mlp_g", "ln_mlp_b")


class ContractError(RuntimeError):
    """A caller violated an interface contract (e.g. missing fusion input)."""


@dataclass(frozen=True)
class ModelSpec:
    n_layers: int = 4
    d_model: int = 64
    n_heads: int = 4
    d_ff: int = 128
    vocab: int = 64
    max_steps: int = 64
    fusion_period: int = 2
    adapter_rank: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        for name in ("n_layers", "d_model", "n_heads", "d_ff", "vocab", "max_steps", "fusion_period"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.adapter_rank < 0:
            raise ValueError("adapter_rank must be nonnegative")

    def fusion_layers(self) -> list[int]:
        return [l for l in range(1, self.n_layers + 1) if l % self.fusion_period == 0]


class KvCache:
    """Per-layer keys/values of the steps decoded so far.

    keys[i] and values[i] hold layer i+1's post-fusion projections split by
    head, (B, n_heads, steps, head_dim), or None before the first step.
    """

    def __init__(self, n_layers: int):
        self.keys: list[Optional[np.ndarray]] = [None] * n_layers
        self.values: list[Optional[np.ndarray]] = [None] * n_layers

    @property
    def step_count(self) -> int:
        return 0 if self.keys[0] is None else self.keys[0].shape[2]

    def extend(self, layer: int, kh: np.ndarray, vh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Append (B, heads, T, dh) keys/values to a layer; return all of that layer's."""
        if self.keys[layer] is not None:
            kh = np.concatenate((self.keys[layer], kh), axis=2)
            vh = np.concatenate((self.values[layer], vh), axis=2)
        self.keys[layer], self.values[layer] = kh, vh
        return kh, vh


def gelu_tanh(x: np.ndarray) -> np.ndarray:
    """The tanh factor of the GELU approximation, shared by gelu and gelu_grad."""
    return np.tanh(_GELU_C * (x + _GELU_A * (x * x * x)))


def gelu(x: np.ndarray, t: Optional[np.ndarray] = None) -> np.ndarray:
    """Tanh GELU; t, when given, is gelu_tanh(x) computed beforehand."""
    if t is None:
        t = gelu_tanh(x)
    return 0.5 * x * (1.0 + t)


def gelu_grad(x: np.ndarray, t: Optional[np.ndarray] = None) -> np.ndarray:
    """d gelu / dx; t, when given, is the forward pass's gelu_tanh(x)."""
    if t is None:
        t = gelu_tanh(x)
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * _GELU_C * (1.0 + 3.0 * _GELU_A * (x * x))


class TransformerModel:
    """Decoder-only transformer over a dict of named numpy parameters."""

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self.params: dict[str, np.ndarray] = {}
        self._init_params()

    # -- construction -----------------------------------------------------

    def _init_params(self) -> None:
        s = self.spec
        rng = np.random.default_rng(s.seed)
        d, ff = s.d_model, s.d_ff
        std = 0.5 / np.sqrt(d)

        def rnd(*shape, scale=std):
            return rng.standard_normal(shape) * scale

        self.params["tok_emb"] = rnd(s.vocab, d, scale=0.1)
        self.params["pos_emb"] = rnd(s.max_steps, d, scale=0.1)
        for l in range(1, s.n_layers + 1):
            p = f"l{l}."
            for w in ("wq", "wk", "wv", "wo"):
                self.params[p + w] = rnd(d, d)
            self.params[p + "ln_attn_g"] = np.ones(d)
            self.params[p + "ln_attn_b"] = np.zeros(d)
            self.params[p + "w1"] = rnd(d, ff)
            self.params[p + "b1"] = np.zeros(ff)
            self.params[p + "w2"] = rnd(ff, d)
            self.params[p + "b2"] = np.zeros(d)
            self.params[p + "ln_mlp_g"] = np.ones(d)
            self.params[p + "ln_mlp_b"] = np.zeros(d)
        self.params["unemb"] = rnd(d, s.vocab, scale=0.1)
        if s.adapter_rank > 0:
            self.init_adapters(rng)

    def init_adapters(self, rng: Optional[np.random.Generator] = None) -> None:
        """Set the rank-r factors of wq and wv of every layer in params, as
        l{l}.wq.A (d_model, r), l{l}.wq.B (r, d_model) and the same for wv
        (A gaussian, B zero, so a fresh adapter changes nothing)."""
        s = self.spec
        if rng is None:
            rng = np.random.default_rng(s.seed + 1)
        r, d = s.adapter_rank, s.d_model
        for l in range(1, s.n_layers + 1):
            for target in ("wq", "wv"):
                self.params[f"l{l}.{target}.A"] = rng.standard_normal((d, r)) * 0.01
                self.params[f"l{l}.{target}.B"] = np.zeros((r, d))

    def layer_params(self, l: int) -> dict[str, np.ndarray]:
        """Layer l's parameter view: its l{l}.* arrays by short name, with wq
        and wv merged with their factors as w + A @ B on a rank > 0 model."""
        p = f"l{l}."
        view = {name: self.params[p + name] for name in LAYER_KEYS}
        if self.spec.adapter_rank > 0:
            for name in ("wq", "wv"):
                view[name] = view[name] + self.params[p + name + ".A"] @ self.params[p + name + ".B"]
        return view

    def param_views(self) -> list[dict[str, np.ndarray]]:
        """The views one pass reads: [0] holds tok_emb, pos_emb and unemb, [l]
        is layer_params(l). Build them per call, not once per model: sgd_step
        updates the adapter factors in place."""
        emb = {name: self.params[name] for name in ("tok_emb", "pos_emb", "unemb")}
        return [emb] + [self.layer_params(l) for l in range(1, self.spec.n_layers + 1)]

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

    def backward(self, dlogits: np.ndarray, acts: dict,
                 per_sample: bool = False) -> dict[str, np.ndarray]:
        """Gradients of a scalar loss w.r.t. every array in params.

        dlogits is dL/dz of shape (B, T, V). Each layer's weights are read
        from the view its forward used (acts["layers"][l - 1]["p"]), so wq and
        wv are the adapter-merged ones; their factors get gradients under
        their params keys, like 'l1.wq.A'. No gradient flows into fusion
        inputs (they come from a frozen predecessor).

        Gradients are summed over the batch. With per_sample=True each one
        keeps a leading B axis instead, row b being the gradient of batch row
        b's own loss, bit for bit what a B = 1 call on that row returns: the
        weight products run one (d, T) @ (T, e) matmul per row and the bias,
        gain and embedding sums run over positions only.
        """
        s = self.spec
        B, T, _ = dlogits.shape
        nh, dh = s.n_heads, s.d_model // s.n_heads
        scale = 1.0 / np.sqrt(dh)
        rows = 1 if per_sample else (0, 1)  # the axes a bias gradient sums
        grads: dict[str, np.ndarray] = {}

        grads["unemb"] = _weight_grad(acts["states"][-1], dlogits, per_sample)
        dh_ = dlogits @ self.params["unemb"].T

        for l in range(s.n_layers, 0, -1):
            p = f"l{l}."
            a = acts["layers"][l - 1]
            w = a["p"]
            # mlp block
            dr2, dg, db = _ln_backward(dh_, a["ln_mlp"], w["ln_mlp_g"], per_sample)
            grads[p + "ln_mlp_g"], grads[p + "ln_mlp_b"] = dg, db
            dm = dr2
            grads[p + "w2"] = _weight_grad(a["g1"], dm, per_sample)
            grads[p + "b2"] = dm.sum(axis=rows)
            dg1 = dm @ w["w2"].T
            du1 = dg1 * gelu_grad(a["u1"], a["t1"])
            grads[p + "w1"] = _weight_grad(a["ha"], du1, per_sample)
            grads[p + "b1"] = du1.sum(axis=rows)
            dha = dr2 + du1 @ w["w1"].T
            # attention block
            dr1, dg, db = _ln_backward(dha, a["ln_attn"], w["ln_attn_g"], per_sample)
            grads[p + "ln_attn_g"], grads[p + "ln_attn_b"] = dg, db
            dhhat = dr1
            grads[p + "wo"] = _weight_grad(a["o"], dhhat, per_sample)
            do = dhhat @ w["wo"].T
            doh = do.reshape(B, T, nh, dh).transpose(0, 2, 1, 3)
            dqh, dkh, dvh = _attention_backward(doh, a["qh"], a["kh"], a["vh"], a["attn"], scale)
            dq = dqh.transpose(0, 2, 1, 3).reshape(B, T, s.d_model)
            dk = dkh.transpose(0, 2, 1, 3).reshape(B, T, s.d_model)
            dv = dvh.transpose(0, 2, 1, 3).reshape(B, T, s.d_model)
            ht = a["ht"]
            dwq = _weight_grad(ht, dq, per_sample)
            dwk = _weight_grad(ht, dk, per_sample)
            dwv = _weight_grad(ht, dv, per_sample)
            grads[p + "wq"], grads[p + "wk"], grads[p + "wv"] = dwq, dwk, dwv
            if s.adapter_rank > 0:
                for target, dw in ((p + "wq", dwq), (p + "wv", dwv)):
                    grads[target + ".A"] = dw @ self.params[target + ".B"].T
                    grads[target + ".B"] = self.params[target + ".A"].T @ dw
            dht = dr1 + (dq @ w["wq"].T + dk @ w["wk"].T + dv @ w["wv"].T)
            # fusion norm (unit gain): gradient flows only into h_own
            if a["fused"]:
                dh_, _, _ = _ln_backward(dht, a["ln_fuse"], 1.0)
            else:
                dh_ = dht

        # embeddings
        tokens = acts["tokens"]
        lead = (B,) if per_sample else ()
        dtok = np.zeros(lead + self.params["tok_emb"].shape)
        np.add.at(dtok, (np.arange(B)[:, None], tokens) if per_sample else tokens, dh_)
        grads["tok_emb"] = dtok
        dpos = np.zeros(lead + self.params["pos_emb"].shape)
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
            "adapters": sorted(k[:-2] for k in self.params if k.endswith(".A")),
        }
        arrays = {_archive_name(k): v for k, v in self.params.items()}
        arrays["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
        with open(path, "wb") as f:
            np.savez(f, **arrays)

    @staticmethod
    def load(path) -> "TransformerModel":
        """Read a checkpoint; every array must be one its spec declares, with
        that shape, under the name save gives it."""
        with np.load(path) as data:
            header = json.loads(bytes(data["header"]).decode())
            if header["format_version"] != CHECKPOINT_FORMAT_VERSION:
                raise ValueError(f"unsupported checkpoint format version {header['format_version']}")
            if header["dtype"] != "float64":
                raise ValueError(f"unsupported checkpoint dtype {header['dtype']!r} (only float64)")
            model = TransformerModel(ModelSpec(**header["spec"]))
            want = {_archive_name(k): v for k, v in model.params.items()}
            for key in sorted(want.keys() | set(data.files) - {"header"}):
                if key not in want:
                    raise ValueError(f"checkpoint {path}: array {key!r} is not in its spec")
                if key not in data.files:
                    raise ValueError(f"checkpoint {path}: array {key!r} is missing")
                arr = data[key]
                if arr.shape != want[key].shape:
                    raise ValueError(
                        f"checkpoint {path}: array {key!r} has shape {arr.shape}, "
                        f"its spec needs {want[key].shape}"
                    )
                want[key][...] = arr  # want holds the new model's own arrays
        return model


def is_factor(key: str) -> bool:
    """Whether a params key names an adapter factor, like l1.wq.A or l1.wv.B."""
    return key.endswith((".A", ".B"))


def _archive_name(key: str) -> str:
    """A params key's array name in a checkpoint: adapter.<key> for an
    adapter factor, param.<key> otherwise."""
    return ("adapter." if is_factor(key) else "param.") + key


def _weight_grad(x: np.ndarray, dy: np.ndarray, per_sample: bool = False) -> np.ndarray:
    """sum over (b, t) of outer(x[b, t], dy[b, t]), as one 2-D matmul; per
    sample, the sum over t alone, one (d, T) @ (T, e) matmul per row b."""
    if per_sample:
        return x.swapaxes(-1, -2) @ dy
    return x.reshape(-1, x.shape[-1]).T @ dy.reshape(-1, dy.shape[-1])


def fuse_states(h: np.ndarray, pred: np.ndarray):
    """A fusion layer's attention input LayerNorm(h + pred), unit gain and zero
    bias; returns (input, saved for _ln_backward)."""
    return _ln_forward(h + pred, 1.0, 0.0)


def forward_pass(spec: ModelSpec, views: list[dict], tokens: np.ndarray,
                 fusion_in: Optional[dict] = None,
                 cache: Optional[KvCache] = None,
                 keep_acts: bool = False) -> tuple[np.ndarray, dict]:
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
    """
    T = tokens.shape[1]
    t0 = 0 if cache is None else cache.step_count
    # a one-token step attends to every cached step: its mask is all zeros
    mask = None if T == 1 else np.triu(np.full((T, t0 + T), -1e30), k=t0 + 1)
    emb = views[0]
    h = emb["tok_emb"][tokens] + emb["pos_emb"][t0 : t0 + T]
    acts: dict = {"tokens": tokens, "layers": [], "states": [h]}
    for l in range(1, spec.n_layers + 1):
        fused = fusion_in is not None and l % spec.fusion_period == 0
        ht, ln_fuse = fuse_states(h, fusion_in[l]) if fused else (h, None)
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
    (d, d') weights and (d,) gains, or k models' stacked along a leading
    model axis, (k, d, d') and (k, 1, d), so that batch row b runs model b.
    A cache, when given, is extended in place at index layer-1; mask None
    means every key is visible. Returns (state h_layer, activations).
    """
    B, T, d = ht.shape
    dh = d // n_heads
    q = ht @ p["wq"]
    k = ht @ p["wk"]
    v = ht @ p["wv"]
    qh = q.reshape(B, T, n_heads, dh).transpose(0, 2, 1, 3)
    kh = k.reshape(B, T, n_heads, dh).transpose(0, 2, 1, 3)
    vh = v.reshape(B, T, n_heads, dh).transpose(0, 2, 1, 3)
    if cache is not None:
        kh, vh = cache.extend(layer - 1, kh, vh)
    oh, attn = _attention(qh, kh, vh, 1.0 / math.sqrt(dh), mask)
    o = oh.transpose(0, 2, 1, 3).reshape(B, T, d)
    hhat = o @ p["wo"]
    ha, ln_a = _ln_forward(hhat + ht, p["ln_attn_g"], p["ln_attn_b"])
    u1 = ha @ p["w1"] + p["b1"]
    t1 = gelu_tanh(u1)
    g1 = gelu(u1, t1)
    m = g1 @ p["w2"] + p["b2"]
    h, ln_m = _ln_forward(m + ha, p["ln_mlp_g"], p["ln_mlp_b"])
    acts = dict(p=p, ht=ht, qh=qh, kh=kh, vh=vh, attn=attn, o=o,
                ln_attn=ln_a, ha=ha, u1=u1, t1=t1, g1=g1, ln_mlp=ln_m)
    return h, acts


def _attention(qh, kh, vh, scale: float, mask: Optional[np.ndarray] = None):
    """Softmax attention over (B, heads, T, dh), masked when a mask is given;
    returns (context, weights)."""
    scores = (qh @ kh.swapaxes(-1, -2)) * scale
    attn = softmax_rows(scores if mask is None else scores + mask)
    return attn @ vh, attn


def _attention_backward(doh, qh, kh, vh, attn, scale: float):
    """Gradients (dq, dk, dv) of _attention given the context gradient doh."""
    dattn = doh @ vh.swapaxes(-1, -2)
    dvh = attn.swapaxes(-1, -2) @ doh
    dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
    dqh = (dscores @ kh) * scale
    dkh = (dscores.swapaxes(-1, -2) @ qh) * scale
    return dqh, dkh, dvh


def _ln_forward(x: np.ndarray, gain, bias):
    # np.add.reduce(...) / d is what ndarray.mean computes, minus its Python wrapper
    d = x.shape[-1]
    xc = x - np.add.reduce(x, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(np.add.reduce(xc * xc, axis=-1, keepdims=True) / d + LN_EPS)
    xhat = xc * inv
    return gain * xhat + bias, (xhat, inv)


def _ln_backward(dy: np.ndarray, saved, gain: np.ndarray, per_sample: bool = False):
    """(dx, dgain, dbias); the gain and bias gradients sum over every leading
    axis, or per sample over all but the first."""
    xhat, inv = saved
    lead = tuple(range(1 if per_sample else 0, dy.ndim - 1))
    dg = (dy * xhat).sum(axis=lead)
    db = dy.sum(axis=lead)
    dxhat = dy * gain
    d = dy.shape[-1]
    dx = inv * (
        dxhat
        - np.add.reduce(dxhat, axis=-1, keepdims=True) / d
        - xhat * (np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / d)
    )
    return dx, dg, db
