"""Greedy decoding for model chains.

Two decoders run one greedy loop and give bit-identical tokens and fused
logits. decode_sequential, the reference, runs each model's forward_pass in
chain order over parameter views built once per request. decode_pipelined
is layer-synchronous: successor fusion layer l reads predecessor state l-1,
the depth of its own input, so one call of the shared layer body runs layer
l of all k models, their weights stacked along the batch axis. A step costs
n_layers layer calls whatever k is: GPipe's schedule (Huang et al.,
arXiv:1811.06965) with models in place of devices.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .ensemble import Ensemble, fuse_logits
from .model import KvCache, forward_pass, fuse_states, transformer_layer


@dataclass
class TimingReport:
    """Wall-clock accounting for one pipelined decode. Nothing waits, so
    blocked_s stays 0; transfer_s is the time spent stacking the weights."""

    events: list = field(default_factory=list)  # (model, layer, step, start_us, finish_us)
    wall_s: float = 0.0
    blocked_s: float = 0.0
    transfer_s: float = 0.0
    n_tokens: int = 0

    @property
    def per_token_s(self) -> float:
        return self.wall_s / self.n_tokens if self.n_tokens else 0.0

    def format(self, per_layer: bool = False) -> str:
        lines = [
            f"end_to_end_s        {self.wall_s:.6f}",
            f"per_token_latency_s {self.per_token_s:.6f}",
            f"blocked_s           {self.blocked_s:.6f}",
            f"state_passing_s     {self.transfer_s:.6f}",
        ]
        if per_layer:
            lines.append("model layer step start_us finish_us")
            for m, l, t, a, b in sorted(self.events, key=lambda e: (e[2], e[0], e[1])):
                lines.append(f"{m:5d} {l:5d} {t:4d} {a:8d} {b:9d}")
        return "\n".join(lines)


def check_prompt(ensemble: Ensemble, prompt, max_tokens: int) -> None:
    """Raise ValueError unless max_tokens >= 1, the prompt is nonempty, its
    ids lie in [0, vocab) and prompt + max_tokens fits max_steps."""
    if max_tokens < 1:  # the greedy loop emits a token before it checks the limit
        raise ValueError(f"max_tokens must be >= 1, got {max_tokens}")
    if len(prompt) == 0:
        raise ValueError("prompt must be nonempty")
    vocab = ensemble.spec.vocab
    for token in prompt:
        if not 0 <= token < vocab:
            raise ValueError(f"prompt token id {token} out of range for vocab {vocab}")
    cap = min(m.spec.max_steps for m in ensemble.models)
    if len(prompt) + max_tokens > cap:
        raise ValueError(
            f"prompt ({len(prompt)}) + max_tokens ({max_tokens}) exceeds max_steps {cap}"
        )


def _greedy(ensemble: Ensemble, prompt, max_tokens: int, step):
    """The greedy loop both decoders run; returns (tokens, per-step fused logits).

    step(token) advances the whole chain one step on token and returns that
    step's fused logits. The prompt is fed first; then the argmax (lowest
    index on ties) is emitted and fed back until EOS (= V-1) or max_tokens
    emissions. The emitted EOS is included in the output.
    """
    eos = ensemble.spec.vocab - 1
    for token in prompt:
        fused = step(int(token))
    out: list[int] = []
    fused_hist: list[np.ndarray] = []
    while True:
        nxt = int(np.argmax(fused))
        out.append(nxt)
        fused_hist.append(fused)
        if nxt == eos or len(out) >= max_tokens:
            return out, np.array(fused_hist)
        fused = step(nxt)


def decode_sequential(ensemble: Ensemble, prompt, max_tokens: int):
    """Reference greedy decoder; returns (tokens, per-step fused logits).

    Every call builds each model's param_views() afresh (training updates
    adapters in place). Per step each model runs forward_pass to completion
    in chain order over its own KvCache, and successor fusion layers read the
    predecessor's states for the same step.
    """
    check_prompt(ensemble, prompt, max_tokens)
    models = ensemble.models
    views = [m.param_views() for m in models]
    caches = [KvCache(m.spec.n_layers) for m in models]

    def step_chain(token: int) -> np.ndarray:
        tokens = np.array([[token]])
        zs, states = [], None
        for i, m in enumerate(models):
            z, acts = forward_pass(m.spec, views[i], tokens, ensemble.fusion_inputs(i, states), caches[i])
            zs.append(z[0, 0])
            states = acts["states"]
        return fuse_logits(zs, ensemble.spec.lambdas, ensemble.spec.top_k)

    return _greedy(ensemble, prompt, max_tokens, step_chain)


def _stack(arrays: list[np.ndarray]) -> np.ndarray:
    """Per-model arrays along a leading model axis; vectors become (k, 1, n)."""
    out = np.array(arrays)  # np.stack's result at a third of its overhead
    return out[:, None] if out.ndim == 2 else out


def _stack_weights(models) -> list[dict]:
    """The chain's param_views() stacked along a leading model axis: [0] holds
    the embeddings and unembedding, [l] layer l's adapter-merged view."""
    return [{name: _stack([v[name] for v in per]) for name in per[0]}
            for per in zip(*(m.param_views() for m in models))]


def decode_pipelined(ensemble: Ensemble, prompt, max_tokens: int, workers: Optional[int] = None):
    """Layer-synchronous greedy decode; returns (tokens, fused logits, timing).

    Every call stacks the weights afresh (training updates adapters in
    place). Per step an embedding lookup feeds one transformer_layer call
    per depth over a B = k KvCache; at fusion layers rows 1..k-1 take
    LN(h[1:] + h[:-1]) and the base row passes through. Chains whose models
    differ in depth, widths, heads or fusion period run decode_sequential.
    report.events holds (model, layer, step, start_us, finish_us), one per
    model for each stacked layer call.

    workers is kept only for chainbench/workloads.py, and a benchmark change
    removes it: below 1 it raises ValueError; any other value has no effect.
    """
    check_prompt(ensemble, prompt, max_tokens)
    if workers is not None and workers < 1:
        raise ValueError("workers must be >= 1")
    t_origin = time.perf_counter()
    specs = ensemble.spec.models
    if len({(m.n_layers, m.d_model, m.d_ff, m.n_heads, m.fusion_period) for m in specs}) > 1:
        out, fused_hist = decode_sequential(ensemble, prompt, max_tokens)
        return out, fused_hist, TimingReport(wall_s=time.perf_counter() - t_origin, n_tokens=len(out))

    weights = _stack_weights(ensemble.models)
    transfer_s = time.perf_counter() - t_origin
    k, spec = len(specs), specs[0]
    cache = KvCache(spec.n_layers)
    calls: list[tuple] = []  # (layer, step, start_us, finish_us) of each stacked call

    def now_us() -> int:
        return int((time.perf_counter() - t_origin) * 1e6)

    def step_chain(token: int) -> np.ndarray:
        t = cache.step_count
        h = weights[0]["tok_emb"][:, token : token + 1] + weights[0]["pos_emb"][:, t : t + 1]
        for l in range(1, spec.n_layers + 1):
            start = now_us()
            ht = h
            if k > 1 and l % spec.fusion_period == 0:
                ht = h.copy()
                ht[1:] = fuse_states(h[1:], h[:-1])[0]
            h, _ = transformer_layer(weights[l], ht, cache, l, spec.n_heads, None)
            calls.append((l, t, start, now_us()))
        z = h @ weights[0]["unemb"]
        return fuse_logits(z[:, 0], ensemble.spec.lambdas, ensemble.spec.top_k)

    out, fused_hist = _greedy(ensemble, prompt, max_tokens, step_chain)
    events = [(m, l, t, a, b) for l, t, a, b in calls for m in range(k)]
    wall_s = time.perf_counter() - t_origin
    return out, fused_hist, TimingReport(events, wall_s, transfer_s=transfer_s, n_tokens=len(out))
