"""Toy decoder-only transformer with per-layer state taps and fusion injection.

The block structure follows a post-norm layout: the attention input is either
the previous layer's state or, at fusion layers, LayerNorm(h_own + h_pred)
with unit gain and zero bias; Q/K/V are all projected from that (possibly
fused) stream, a residual + LayerNorm follows, then a GELU MLP with its own
residual + LayerNorm. Layers are 1-indexed so layer l fuses iff
l % fusion_period == 0; the embedding output counts as "layer 0".

The incremental path (forward_step / KvCache) is the decoding reference; the
batched path (forward_train / backward) carries analytic gradients for every
parameter and is cross-checked against finite differences in the tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .numkit import ShapeError, layer_norm, softmax_rows

CHECKPOINT_FORMAT_VERSION = 1
LN_EPS = 1e-5

_GELU_C = np.sqrt(2.0 / np.pi)
_GELU_A = 0.044715


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

    def to_dict(self) -> dict:
        return {
            "n_layers": self.n_layers,
            "d_model": self.d_model,
            "n_heads": self.n_heads,
            "d_ff": self.d_ff,
            "vocab": self.vocab,
            "max_steps": self.max_steps,
            "fusion_period": self.fusion_period,
            "adapter_rank": self.adapter_rank,
            "seed": self.seed,
        }

    @staticmethod
    def from_dict(d: dict) -> "ModelSpec":
        return ModelSpec(**d)


@dataclass
class Adapter:
    """Low-rank delta A @ B attached to one square projection weight."""

    target: str  # "wq" or "wv"
    A: np.ndarray  # (d_model, r)
    B: np.ndarray  # (r, d_model)

    def delta(self) -> np.ndarray:
        return self.A @ self.B


def apply_adapter(base_weight: np.ndarray, adapter: Optional[Adapter]) -> np.ndarray:
    """base + A @ B; rank 0 (or no adapter) returns the base unchanged."""
    if adapter is None or adapter.A.shape[1] == 0:
        return base_weight
    d = base_weight.shape[0]
    if base_weight.shape != (d, d) or adapter.A.shape[0] != d or adapter.B.shape[1] != d:
        raise ShapeError(
            f"adapter shapes {adapter.A.shape}x{adapter.B.shape} do not conform to base {base_weight.shape}"
        )
    if adapter.A.shape[1] != adapter.B.shape[0]:
        raise ShapeError("adapter rank mismatch between A and B")
    return base_weight + adapter.A @ adapter.B


class KvCache:
    """Per-layer keys/values accumulated over decoded steps.

    Keys/values are the post-fusion projections, stored per layer as python
    lists of (d_model,) vectors so snapshots are cheap.
    """

    def __init__(self, n_layers: int):
        self.keys: list[list[np.ndarray]] = [[] for _ in range(n_layers)]
        self.values: list[list[np.ndarray]] = [[] for _ in range(n_layers)]

    @property
    def step_count(self) -> int:
        return len(self.keys[0])

    def append(self, layer: int, k: np.ndarray, v: np.ndarray) -> None:
        self.keys[layer].append(k)
        self.values[layer].append(v)

    def snapshot(self) -> "KvCache":
        c = KvCache(len(self.keys))
        c.keys = [list(ks) for ks in self.keys]
        c.values = [list(vs) for vs in self.values]
        return c


@dataclass
class LayerTrace:
    """Per-step, per-layer post-block hidden states plus final logits.

    hidden[t, l] is h_{l,t} for l in 0..L (0 = embedding output);
    logits[t] is z_t.
    """

    hidden: np.ndarray  # (T, L + 1, d_model)
    logits: np.ndarray  # (T, vocab)

    @property
    def length(self) -> int:
        return self.hidden.shape[0]


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

    def __init__(self, spec: ModelSpec, dtype=np.float64):
        self.spec = spec
        self.dtype = np.dtype(dtype)
        self.params: dict[str, np.ndarray] = {}
        self.adapters: dict[str, Adapter] = {}
        self._init_params()

    # -- construction -----------------------------------------------------

    def _init_params(self) -> None:
        s = self.spec
        rng = np.random.default_rng(s.seed)
        d, ff = s.d_model, s.d_ff
        std = 0.5 / np.sqrt(d)

        def rnd(*shape, scale=std):
            return (rng.standard_normal(shape) * scale).astype(self.dtype)

        self.params["tok_emb"] = rnd(s.vocab, d, scale=0.1)
        self.params["pos_emb"] = rnd(s.max_steps, d, scale=0.1)
        for l in range(1, s.n_layers + 1):
            p = f"l{l}."
            for w in ("wq", "wk", "wv", "wo"):
                self.params[p + w] = rnd(d, d)
            self.params[p + "ln_attn_g"] = np.ones(d, dtype=self.dtype)
            self.params[p + "ln_attn_b"] = np.zeros(d, dtype=self.dtype)
            self.params[p + "w1"] = rnd(d, ff)
            self.params[p + "b1"] = np.zeros(ff, dtype=self.dtype)
            self.params[p + "w2"] = rnd(ff, d)
            self.params[p + "b2"] = np.zeros(d, dtype=self.dtype)
            self.params[p + "ln_mlp_g"] = np.ones(d, dtype=self.dtype)
            self.params[p + "ln_mlp_b"] = np.zeros(d, dtype=self.dtype)
        self.params["unemb"] = rnd(d, s.vocab, scale=0.1)
        if s.adapter_rank > 0:
            self.init_adapters(rng)

    def init_adapters(self, rng: Optional[np.random.Generator] = None) -> None:
        """Attach rank-r adapters to wq and wv of every layer (A gaussian, B zero)."""
        s = self.spec
        if rng is None:
            rng = np.random.default_rng(s.seed + 1)
        r, d = s.adapter_rank, s.d_model
        for l in range(1, s.n_layers + 1):
            for target in ("wq", "wv"):
                self.adapters[f"l{l}.{target}"] = Adapter(
                    target=target,
                    A=(rng.standard_normal((d, r)) * 0.01).astype(self.dtype),
                    B=np.zeros((r, d), dtype=self.dtype),
                )

    def effective_weight(self, name: str) -> np.ndarray:
        return apply_adapter(self.params[name], self.adapters.get(name))

    def clone(self) -> "TransformerModel":
        other = TransformerModel.__new__(TransformerModel)
        other.spec = self.spec
        other.dtype = self.dtype
        other.params = {k: v.copy() for k, v in self.params.items()}
        other.adapters = {
            k: Adapter(a.target, a.A.copy(), a.B.copy()) for k, a in self.adapters.items()
        }
        return other

    def new_cache(self) -> KvCache:
        return KvCache(self.spec.n_layers)

    # -- incremental decoding path ----------------------------------------

    def forward_step(
        self,
        token_id: int,
        cache: KvCache,
        fusion_in=None,
        on_layer_start=None,
        on_layer_end=None,
    ) -> tuple[np.ndarray, list[np.ndarray], KvCache]:
        """One decoding step; returns (logits, layer_states incl. layer 0, cache).

        The cache is mutated in place and also returned. fusion_in, when
        present, is either a dict mapping every fusion layer l to a (d_model,)
        vector or a callable l -> vector. The optional hooks fire at the top
        of each block (on_layer_start(l)) and after each state is produced
        (on_layer_end(l, h), including l=0 for the embedding); the pipelined
        decoder uses them to stream states without forking this code path.
        """
        s = self.spec
        if not (0 <= token_id < s.vocab):
            raise IndexError(f"token id {token_id} out of range for vocab {s.vocab}")
        t = cache.step_count
        if t >= s.max_steps:
            raise IndexError(f"step {t} exceeds max_steps {s.max_steps}")
        if fusion_in is not None and not callable(fusion_in):
            for l in s.fusion_layers():
                if l not in fusion_in:
                    raise ContractError(f"fusion input missing for fusion layer {l}")

        h = self.params["tok_emb"][token_id] + self.params["pos_emb"][t]
        states = [h]
        if on_layer_end is not None:
            on_layer_end(0, h)
        nh, dh = s.n_heads, s.d_model // s.n_heads
        scale = 1.0 / np.sqrt(dh)
        for l in range(1, s.n_layers + 1):
            p = f"l{l}."
            if on_layer_start is not None:
                on_layer_start(l)
            if fusion_in is not None and l % s.fusion_period == 0:
                fv = fusion_in(l) if callable(fusion_in) else fusion_in[l]
                ht = layer_norm(h + fv, 1.0, 0.0, LN_EPS)
            else:
                ht = h
            q = ht @ self.effective_weight(p + "wq")
            k = ht @ self.params[p + "wk"]
            v = ht @ self.effective_weight(p + "wv")
            cache.append(l - 1, k, v)
            keys = np.stack(cache.keys[l - 1])  # (t+1, d)
            vals = np.stack(cache.values[l - 1])
            qh = q.reshape(nh, dh)
            kh = keys.reshape(-1, nh, dh).transpose(1, 0, 2)  # (nh, t+1, dh)
            vh = vals.reshape(-1, nh, dh).transpose(1, 0, 2)
            scores = np.einsum("hd,htd->ht", qh, kh) * scale
            attn = softmax_rows(scores)
            oh = np.einsum("ht,htd->hd", attn, vh)
            hhat = oh.reshape(-1) @ self.params[p + "wo"]
            ha = layer_norm(hhat + ht, self.params[p + "ln_attn_g"], self.params[p + "ln_attn_b"], LN_EPS)
            m = gelu(ha @ self.params[p + "w1"] + self.params[p + "b1"]) @ self.params[p + "w2"] + self.params[p + "b2"]
            h = layer_norm(m + ha, self.params[p + "ln_mlp_g"], self.params[p + "ln_mlp_b"], LN_EPS)
            states.append(h)
            if on_layer_end is not None:
                on_layer_end(l, h)
        logits = h @ self.params["unemb"]
        return logits, states, cache

    def forward_teacher(
        self,
        token_ids,
        fusion_in: Optional[dict[int, np.ndarray]] = None,
    ) -> LayerTrace:
        """Teacher-forced forward: fold forward_step over the sequence.

        fusion_in maps fusion layer l -> (T, d_model) array of predecessor
        states, one row per step.
        """
        s = self.spec
        token_ids = list(token_ids)
        T = len(token_ids)
        if T > s.max_steps:
            raise IndexError(f"sequence length {T} exceeds max_steps {s.max_steps}")
        cache = self.new_cache()
        hidden = np.zeros((T, s.n_layers + 1, s.d_model), dtype=self.dtype)
        logits = np.zeros((T, s.vocab), dtype=self.dtype)
        for t, tok in enumerate(token_ids):
            step_fusion = None
            if fusion_in is not None:
                step_fusion = {l: fusion_in[l][t] for l in fusion_in}
            z, states, cache = self.forward_step(tok, cache, step_fusion)
            hidden[t] = np.stack(states)
            logits[t] = z
        return LayerTrace(hidden=hidden, logits=logits)

    # -- batched training path --------------------------------------------

    def forward_train(
        self,
        tokens: np.ndarray,
        fusion_in: Optional[dict[int, np.ndarray]] = None,
    ) -> tuple[np.ndarray, dict]:
        """Vectorized forward over a (B, T) token batch, keeping activations.

        fusion_in maps fusion layer l -> (B, T, d_model). Returns
        (logits (B, T, V), activations for backward()).
        """
        s = self.spec
        tokens = np.asarray(tokens)
        B, T = tokens.shape
        if T > s.max_steps:
            raise IndexError(f"sequence length {T} exceeds max_steps {s.max_steps}")
        nh, dh = s.n_heads, s.d_model // s.n_heads
        scale = 1.0 / np.sqrt(dh)
        mask = np.triu(np.full((T, T), -1e30, dtype=self.dtype), k=1)

        h = self.params["tok_emb"][tokens] + self.params["pos_emb"][:T]
        acts: dict = {"tokens": tokens, "layers": [], "h0": h, "fusion_in": fusion_in}
        for l in range(1, s.n_layers + 1):
            p = f"l{l}."
            a: dict = {"h_in": h}
            fused = fusion_in is not None and l % s.fusion_period == 0
            if fused:
                pre = h + fusion_in[l]
                ht, ln_f = _ln_forward(pre, np.ones(s.d_model), np.zeros(s.d_model))
                a["ln_fuse"] = ln_f
            else:
                ht = h
            a["fused"] = fused
            a["ht"] = ht
            wq = self.effective_weight(p + "wq")
            wv = self.effective_weight(p + "wv")
            q = ht @ wq
            k = ht @ self.params[p + "wk"]
            v = ht @ wv
            qh = q.reshape(B, T, nh, dh).transpose(0, 2, 1, 3)
            kh = k.reshape(B, T, nh, dh).transpose(0, 2, 1, 3)
            vh = v.reshape(B, T, nh, dh).transpose(0, 2, 1, 3)
            oh, attn = _attention(qh, kh, vh, scale, mask)
            o = oh.transpose(0, 2, 1, 3).reshape(B, T, s.d_model)
            hhat = o @ self.params[p + "wo"]
            ha, ln_a = _ln_forward(hhat + ht, self.params[p + "ln_attn_g"], self.params[p + "ln_attn_b"])
            u1 = ha @ self.params[p + "w1"] + self.params[p + "b1"]
            t1 = gelu_tanh(u1)
            g1 = gelu(u1, t1)
            m = g1 @ self.params[p + "w2"] + self.params[p + "b2"]
            hout, ln_m = _ln_forward(m + ha, self.params[p + "ln_mlp_g"], self.params[p + "ln_mlp_b"])
            a.update(
                wq=wq, wv=wv, qh=qh, kh=kh, vh=vh, attn=attn, o=o,
                ln_attn=ln_a, ha=ha, u1=u1, t1=t1, g1=g1, ln_mlp=ln_m,
            )
            acts["layers"].append(a)
            h = hout
        acts["h_final"] = h
        logits = h @ self.params["unemb"]
        return logits, acts

    def backward(self, dlogits: np.ndarray, acts: dict) -> dict[str, np.ndarray]:
        """Gradients of a scalar loss w.r.t. every parameter and adapter factor.

        dlogits is dL/dz of shape (B, T, V). Adapter gradients appear under
        keys like 'l1.wq.A'. No gradient flows into fusion inputs (they come
        from a frozen predecessor).
        """
        s = self.spec
        B, T, _ = dlogits.shape
        nh, dh = s.n_heads, s.d_model // s.n_heads
        scale = 1.0 / np.sqrt(dh)
        grads: dict[str, np.ndarray] = {}

        h_final = acts["h_final"]
        grads["unemb"] = _weight_grad(h_final, dlogits)
        dh_ = dlogits @ self.params["unemb"].T

        for l in range(s.n_layers, 0, -1):
            p = f"l{l}."
            a = acts["layers"][l - 1]
            # mlp block
            dr2, dg, db = _ln_backward(dh_, a["ln_mlp"], self.params[p + "ln_mlp_g"])
            grads[p + "ln_mlp_g"], grads[p + "ln_mlp_b"] = dg, db
            dm = dr2
            grads[p + "w2"] = _weight_grad(a["g1"], dm)
            grads[p + "b2"] = dm.sum(axis=(0, 1))
            dg1 = dm @ self.params[p + "w2"].T
            du1 = dg1 * gelu_grad(a["u1"], a["t1"])
            grads[p + "w1"] = _weight_grad(a["ha"], du1)
            grads[p + "b1"] = du1.sum(axis=(0, 1))
            dha = dr2 + du1 @ self.params[p + "w1"].T
            # attention block
            dr1, dg, db = _ln_backward(dha, a["ln_attn"], self.params[p + "ln_attn_g"])
            grads[p + "ln_attn_g"], grads[p + "ln_attn_b"] = dg, db
            dhhat = dr1
            grads[p + "wo"] = _weight_grad(a["o"], dhhat)
            do = dhhat @ self.params[p + "wo"].T
            doh = do.reshape(B, T, nh, dh).transpose(0, 2, 1, 3)
            dqh, dkh, dvh = _attention_backward(doh, a["qh"], a["kh"], a["vh"], a["attn"], scale)
            dq = dqh.transpose(0, 2, 1, 3).reshape(B, T, s.d_model)
            dk = dkh.transpose(0, 2, 1, 3).reshape(B, T, s.d_model)
            dv = dvh.transpose(0, 2, 1, 3).reshape(B, T, s.d_model)
            ht = a["ht"]
            dwq = _weight_grad(ht, dq)
            dwk = _weight_grad(ht, dk)
            dwv = _weight_grad(ht, dv)
            grads[p + "wq"], grads[p + "wk"], grads[p + "wv"] = dwq, dwk, dwv
            for target, dw in (("wq", dwq), ("wv", dwv)):
                ad = self.adapters.get(p + target)
                if ad is not None and ad.A.shape[1] > 0:
                    grads[f"{p}{target}.A"] = dw @ ad.B.T
                    grads[f"{p}{target}.B"] = ad.A.T @ dw
            dht = dr1 + (dq @ a["wq"].T + dk @ self.params[p + "wk"].T + dv @ a["wv"].T)
            # fusion norm (unit gain): gradient flows only into h_own
            if a["fused"]:
                dh_, _, _ = _ln_backward(dht, a["ln_fuse"], np.ones(s.d_model))
            else:
                dh_ = dht

        # embeddings
        tokens = acts["tokens"]
        dtok = np.zeros_like(self.params["tok_emb"])
        np.add.at(dtok, tokens, dh_)
        grads["tok_emb"] = dtok
        dpos = np.zeros_like(self.params["pos_emb"])
        dpos[:T] = dh_.sum(axis=0)
        grads["pos_emb"] = dpos
        return grads

    # -- persistence -------------------------------------------------------

    def save(self, path) -> None:
        header = {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "spec": self.spec.to_dict(),
            "dtype": self.dtype.name,
            "adapters": sorted(self.adapters),
        }
        arrays = {f"param.{k}": v for k, v in self.params.items()}
        for k, a in self.adapters.items():
            arrays[f"adapter.{k}.A"] = a.A
            arrays[f"adapter.{k}.B"] = a.B
        arrays["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
        with open(path, "wb") as f:
            np.savez(f, **arrays)

    @staticmethod
    def load(path) -> "TransformerModel":
        with np.load(path) as data:
            header = json.loads(bytes(data["header"]).decode())
            if header["format_version"] != CHECKPOINT_FORMAT_VERSION:
                raise ValueError(f"unsupported checkpoint format version {header['format_version']}")
            model = TransformerModel.__new__(TransformerModel)
            model.spec = ModelSpec.from_dict(header["spec"])
            model.dtype = np.dtype(header["dtype"])
            model.params = {
                k[len("param."):]: data[k].copy() for k in data.files if k.startswith("param.")
            }
            model.adapters = {}
            for name in header["adapters"]:
                model.adapters[name] = Adapter(
                    target=name.split(".")[-1],
                    A=data[f"adapter.{name}.A"].copy(),
                    B=data[f"adapter.{name}.B"].copy(),
                )
        return model


def _weight_grad(x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """sum over (b, t) of outer(x[b, t], dy[b, t]), as one 2-D matmul."""
    return x.reshape(-1, x.shape[-1]).T @ dy.reshape(-1, dy.shape[-1])


def _attention(qh, kh, vh, scale: float, mask: np.ndarray):
    """Masked softmax attention over (B, heads, T, dh); returns (context, weights)."""
    attn = softmax_rows((qh @ kh.swapaxes(-1, -2)) * scale + mask)
    return attn @ vh, attn


def _attention_backward(doh, qh, kh, vh, attn, scale: float):
    """Gradients (dq, dk, dv) of _attention given the context gradient doh."""
    dattn = doh @ vh.swapaxes(-1, -2)
    dvh = attn.swapaxes(-1, -2) @ doh
    dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
    dqh = (dscores @ kh) * scale
    dkh = (dscores.swapaxes(-1, -2) @ qh) * scale
    return dqh, dkh, dvh


def _ln_forward(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    xc = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + LN_EPS)
    xhat = xc * inv
    return gain * xhat + bias, (xhat, inv)


def _ln_backward(dy: np.ndarray, saved, gain: np.ndarray):
    xhat, inv = saved
    dg = (dy * xhat).sum(axis=tuple(range(dy.ndim - 1)))
    db = dy.sum(axis=tuple(range(dy.ndim - 1)))
    dxhat = dy * gain
    dx = inv * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return dx, dg, db
