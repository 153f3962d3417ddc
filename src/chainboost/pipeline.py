"""Greedy decoding for model chains.

Two decoders run one greedy loop and give bit-identical tokens and fused
logits. decode_sequential, the reference, runs each step as one
Ensemble.walk over per-model KV caches. decode_pipelined is
layer-synchronous: successor fusion layer l reads predecessor state l-1, the
depth of its own input, so one call of the shared layer body runs layer l of
all k models, their weights stacked along the batch axis
(Ensemble.stacked_views). A step costs n_layers layer calls whatever k is:
GPipe's schedule (Huang et al., arXiv:1811.06965) with models in place of
devices. Both stop every prompt step but the last at the last layer's keys
and values: nobody reads its logits.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .ensemble import Ensemble, fuse_logits
from .model import KvCache, cache_kv, check_tokens, fuse_states, transformer_layer


@dataclass
class TimingReport:
    """Wall-clock accounting for one decode. Nothing waits, so blocked_s
    stays 0 and format() omits it; transfer_s is the time spent getting the
    stacked weights: stacking them when the chain's parameters changed since
    the last request, else only looking them up. A report without events
    stacked nothing (a sequential or a fallen-back pipelined decode), so
    format() prints only its wall times."""

    events: list = field(default_factory=list)  # (model, layer, step, start_us, finish_us)
    wall_s: float = 0.0
    blocked_s: float = 0.0
    transfer_s: float = 0.0
    n_tokens: int = 0

    @property
    def per_token_s(self) -> float:
        return self.wall_s / self.n_tokens if self.n_tokens else 0.0

    def format(self) -> str:
        lines = [
            f"end_to_end_s        {self.wall_s:.6f}",
            f"per_token_latency_s {self.per_token_s:.6f}",
        ]
        if self.events:
            lines.append(f"state_passing_s     {self.transfer_s:.6f}")
        return "\n".join(lines)


def _is_int(value) -> bool:
    """A Python or numpy integer; bool is not one here, though it subclasses int."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_prompt(ensemble: Ensemble, prompt, max_tokens: int) -> None:
    """Raise ValueError unless max_tokens is an integer >= 1, the prompt is
    nonempty, its ids are integers (Python or numpy, not bool; the greedy
    loop would read 1.9 as 1), and model.check_tokens passes it as a batch
    max_tokens steps on: ids in [0, vocab), prompt + max_tokens <= max_steps.
    An id beyond int64, out of range of any vocab, is named with its
    prompt position."""
    if not _is_int(max_tokens):
        raise ValueError(f"max_tokens must be an integer, got {max_tokens!r}")
    if max_tokens < 1:  # the greedy loop emits a token before it checks the limit
        raise ValueError(f"max_tokens must be >= 1, got {max_tokens}")
    if len(prompt) == 0:
        raise ValueError("prompt must be nonempty")
    for i, token in enumerate(prompt):
        if not _is_int(token):
            raise ValueError(f"prompt token {i} must be an integer id, got {token!r}")
    spec, ids = ensemble.spec.models[0], [int(token) for token in prompt]
    where = f"prompt of {len(prompt)} ids with max_tokens {max_tokens}"
    try:
        check_tokens(spec, np.array([ids], dtype=np.int64), max_tokens)
    except OverflowError:
        i = next(i for i, token in enumerate(ids) if not -(2**63) <= token < 2**63)
        raise ValueError(f"{where}: token id {ids[i]} at prompt position {i} "
                         f"out of range for vocab {spec.vocab}") from None
    except IndexError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _greedy(ensemble: Ensemble, prompt, max_tokens: int, step):
    """The greedy loop both decoders run; returns (tokens, per-step fused logits).

    step(token, emit) advances the whole chain one step on token. emit says
    whether a token is chosen from this step's fused logits: then step
    returns them, and otherwise it may return None. Only the last prompt
    step and the steps on fed-back tokens emit. The prompt is fed first;
    then the argmax (lowest index on ties) is emitted and fed back until EOS
    (= V-1) or max_tokens emissions. The emitted EOS is included in the
    output.
    """
    eos = ensemble.spec.vocab - 1
    for i, token in enumerate(prompt):
        fused = step(int(token), i == len(prompt) - 1)
    out: list[int] = []
    fused_hist: list[np.ndarray] = []
    while True:
        nxt = int(fused.argmax())
        out.append(nxt)
        fused_hist.append(fused)
        if nxt == eos or len(out) >= max_tokens:
            return out, np.array(fused_hist)
        fused = step(nxt, True)


def decode_sequential(ensemble: Ensemble, prompt, max_tokens: int):
    """Reference greedy decoder; returns (tokens, per-step fused logits).

    The prompt is checked once (check_prompt); each step is then one
    unchecked Ensemble.walk over the models' own KvCaches. On a step that
    emits nothing, the walk stops a model whose last state no successor
    reads at its last layer's keys and values, and fuse_logits is not
    called.
    """
    check_prompt(ensemble, prompt, max_tokens)
    caches = [KvCache(m.spec.n_layers) for m in ensemble.models]

    def step_chain(token: int, emit: bool) -> Optional[np.ndarray]:
        zs, _ = ensemble.walk(np.array([[token]]), caches=caches, emit=emit)
        if not emit:
            return None
        return fuse_logits([z[0, 0] for z in zs], ensemble.spec.lambdas, ensemble.spec.top_k)

    return _greedy(ensemble, prompt, max_tokens, step_chain)


def decode_pipelined(ensemble: Ensemble, prompt, max_tokens: int, workers: Optional[int] = None):
    """Layer-synchronous greedy decode; returns (tokens, fused logits, timing).

    The stacked weights come from Ensemble.stacked_views, so a request
    after no write only looks them up. Per step an embedding lookup feeds
    one transformer_layer call per depth over a B = k KvCache; at fusion
    layers rows 1..k-1 take LN(h[1:] + h[:-1]) and the base row passes
    through. A step that emits nothing makes n_layers - 1 such calls and
    then only cache_kv at the last layer, with no unembedding or
    fuse_logits: in a stackable chain no fusion layer reads a last state. A
    chain that stacked_views cannot stack runs decode_sequential.
    report.events holds (model, layer, step, start_us, finish_us), one per
    model for each layer of each step.

    workers is kept only for chainbench/workloads.py, and a benchmark change
    removes it: below 1 it raises ValueError; any other value has no effect.
    """
    check_prompt(ensemble, prompt, max_tokens)
    if workers is not None and workers < 1:
        raise ValueError("workers must be >= 1")
    t_origin = time.perf_counter()
    weights = ensemble.stacked_views()
    if weights is None:
        out, fused_hist = decode_sequential(ensemble, prompt, max_tokens)
        return out, fused_hist, TimingReport(wall_s=time.perf_counter() - t_origin, n_tokens=len(out))
    transfer_s = time.perf_counter() - t_origin
    k, spec = len(ensemble.models), ensemble.spec.models[0]
    cache = KvCache(spec.n_layers)
    fusing = spec.fusion_layers() if k > 1 else []
    calls: list[tuple] = []  # (layer, step, start, finish) of each stacked call, perf_counter s

    def step_chain(token: int, emit: bool) -> Optional[np.ndarray]:
        t = cache.step_count
        h = weights[0]["tok_emb"][:, token : token + 1] + weights[0]["pos_emb"][:, t : t + 1]
        for l in range(1, spec.n_layers + 1):
            start = time.perf_counter()
            ht = h
            if l in fusing:
                ht = h.copy()
                ht[1:] = fuse_states(h[1:], h[:-1])[0]
            if emit or l < spec.n_layers:
                h, _ = transformer_layer(weights[l], ht, cache, l, spec.n_heads, None)
            else:
                cache_kv(weights[l], ht, cache, l, spec.n_heads)
            calls.append((l, t, start, time.perf_counter()))
        if not emit:
            return None
        z = h @ weights[0]["unemb"]
        return fuse_logits(z[:, 0], ensemble.spec.lambdas, ensemble.spec.top_k)

    out, fused_hist = _greedy(ensemble, prompt, max_tokens, step_chain)
    stamps = [(l, t, int((a - t_origin) * 1e6), int((b - t_origin) * 1e6)) for l, t, a, b in calls]
    events = [(m, *call) for call in stamps for m in range(k)]
    wall_s = time.perf_counter() - t_origin
    return out, fused_hist, TimingReport(events, wall_s, transfer_s=transfer_s, n_tokens=len(out))
