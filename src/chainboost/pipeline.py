"""Greedy decoding for model chains.

Two interchangeable decoders run one greedy loop: a sequential reference
(each model finishes a step before the next one starts) and a near-parallel
one that runs one worker thread per model and streams, through a blocking
write-once pool, only the hidden states that successor fusion layers read.
Both share the exact same per-step forward code, so their token streams are
bit-identical.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .ensemble import Ensemble, fuse_logits
from .model import KvCache

DEFAULT_TIMEOUT_S = 5.0


class PoolProtocolError(RuntimeError):
    """Write-once violation: some scheduler bug wrote the same key twice."""


class PoolTimeoutError(RuntimeError):
    """A blocking read timed out; the message names the missing state, token or logits."""


class WorkerFailedError(RuntimeError):
    """A decode worker raised; carries the partial trace gathered so far."""

    def __init__(self, msg, partial_tokens=None, partial_events=None):
        super().__init__(msg)
        self.partial_tokens = partial_tokens or []
        self.partial_events = partial_events or []


@dataclass(frozen=True)
class HiddenKey:
    """Address of one hidden state: model index, layer (0 = embedding), step."""

    model: int
    layer: int
    step: int


class StatePool:
    """Thread-safe write-once store for hidden states, logits and tokens.

    Readers block until the key they want has been written (or a timeout /
    failure wakes them). Wait time and bookkeeping time are accumulated so the
    decoder can report blocked time and state-passing overhead separately.
    """

    def __init__(self, timeout_s: float = DEFAULT_TIMEOUT_S):
        self._cond = threading.Condition()
        self._states: dict[HiddenKey, np.ndarray] = {}
        self._logits: dict[tuple[int, int], np.ndarray] = {}
        self._tokens: dict[int, Optional[int]] = {}
        self._failure: Optional[BaseException] = None
        self.timeout_s = timeout_s
        self.blocked_s = 0.0
        self.transfer_s = 0.0

    def fail(self, exc: BaseException) -> None:
        with self._cond:
            if self._failure is None:
                self._failure = exc
            self._cond.notify_all()

    def _put(self, store, key, value) -> None:
        t0 = time.perf_counter()
        with self._cond:
            if key in store:
                raise PoolProtocolError(f"duplicate write for {key!r}")
            store[key] = value
            self._cond.notify_all()
            self.transfer_s += time.perf_counter() - t0

    def _get(self, store, key, what: str, timeout_s: Optional[float] = None):
        if timeout_s is None:
            timeout_s = self.timeout_s
        t0 = time.perf_counter()
        with self._cond:
            ok = self._cond.wait_for(
                lambda: key in store or self._failure is not None,
                timeout=timeout_s,
            )
            waited = time.perf_counter() - t0
            self.blocked_s += waited
            if self._failure is not None:
                raise WorkerFailedError(f"decode aborted: {self._failure}")
            if not ok:
                raise PoolTimeoutError(f"deadlock: blocked {timeout_s:.3f}s waiting for {what}")
            return store[key]

    def put_state(self, key: HiddenKey, value: np.ndarray) -> None:
        self._put(self._states, key, value)

    def get_state(self, key: HiddenKey, timeout_s: Optional[float] = None) -> np.ndarray:
        """Block for the state at key; timeout_s overrides the pool default for this call."""
        return self._get(self._states, key, repr(key), timeout_s)

    def put_logits(self, model: int, step: int, z: np.ndarray) -> None:
        self._put(self._logits, (model, step), z)

    def get_logits(self, model: int, step: int) -> np.ndarray:
        return self._get(self._logits, (model, step), f"logits of model {model} for step {step}")

    def put_token(self, step: int, token: Optional[int]) -> None:
        """Broadcast the input token for a step; None tells workers to stop."""
        self._put(self._tokens, step, token)

    def get_token(self, step: int) -> Optional[int]:
        return self._get(self._tokens, step, f"token for step {step}")


@dataclass
class TimingReport:
    """Wall-clock accounting for one pipelined decode."""

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
    """Raise ValueError unless the prompt is nonempty, its ids lie in [0, vocab)
    and prompt + max_tokens fits max_steps."""
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


def _step_all(ensemble: Ensemble, token: int, caches: list[KvCache]) -> np.ndarray:
    """Advance every model one step in chain order; return the fused logits."""
    zs, states = [], None
    for i, model in enumerate(ensemble.models):
        z, states, _ = model.forward_step(token, caches[i], ensemble.fusion_inputs(i, states))
        zs.append(z)
    return fuse_logits(zs, ensemble.spec.lambdas, ensemble.spec.top_k)


def decode_sequential(ensemble: Ensemble, prompt, max_tokens: int):
    """Reference greedy decoder; returns (tokens, per-step fused logits).

    Per step each model runs to completion in chain order and successor
    fusion layers read the predecessor's states for the same step.
    """
    check_prompt(ensemble, prompt, max_tokens)
    caches = [KvCache(m.spec.n_layers) for m in ensemble.models]
    return _greedy(ensemble, prompt, max_tokens, lambda token: _step_all(ensemble, token, caches))


def decode_pipelined(
    ensemble: Ensemble,
    prompt,
    max_tokens: int,
    workers: Optional[int] = None,
    timeout_s: float = DEFAULT_TIMEOUT_S,
):
    """Near-parallel greedy decode; returns (tokens, fused logits, timing).

    One worker runs each model (fewer workers fold adjacent models onto one
    thread, preserving chain order). Waits and publishes follow
    Ensemble.fusion_inputs: worker i blocks on the pool only at its fusion
    layers, for the predecessor state (i-1, l-1, t), and publishes only the
    states its successor reads, the moment each is produced; it posts logits
    per step. The coordinator fuses all logits for a step, then broadcasts
    the chosen token, which is the per-step barrier that keeps the token
    stream identical to decode_sequential. A worker still alive timeout_s
    after the decode ends is named, by its models, in a WorkerFailedError.
    """
    check_prompt(ensemble, prompt, max_tokens)
    n_models = len(ensemble.models)
    if workers is None or workers > n_models:
        workers = n_models
    if workers < 1:
        raise ValueError("workers must be >= 1")

    # reads[i][l]: the predecessor layer model i's fusion layer l waits for;
    # publish[i]: the layers of model i that model i+1 reads
    layers = [range(m.spec.n_layers + 1) for m in ensemble.models]
    reads = [None] + [ensemble.fusion_inputs(i, layers[i - 1]) for i in range(1, n_models)]
    publish = [set(r.values()) for r in reads[1:]] + [set()]

    pool = StatePool(timeout_s=timeout_s)
    caches = [KvCache(m.spec.n_layers) for m in ensemble.models]
    events: list[list] = [[] for _ in range(n_models)]
    t_origin = time.perf_counter()

    def now_us() -> int:
        return int((time.perf_counter() - t_origin) * 1e6)

    def run_model(i: int, step: int, token: int) -> np.ndarray:
        start = 0  # each layer starts when the previous one ends or its fusion wait returns

        def fusion_in(l):
            nonlocal start
            h = pool.get_state(HiddenKey(i - 1, reads[i][l], step))
            start = now_us()
            return h

        def on_end(l, h):
            nonlocal start
            if l > 0:
                events[i].append((i, l, step, start, now_us()))
            if l in publish[i]:
                pool.put_state(HiddenKey(i, l, step), h)
            start = now_us()

        z, _, _ = ensemble.models[i].forward_step(
            token, caches[i], fusion_in if i > 0 else None, on_layer_end=on_end
        )
        return z

    def run_models(model_indices: list[int]) -> None:
        try:
            step = 0
            while (token := pool.get_token(step)) is not None:
                for i in model_indices:
                    pool.put_logits(i, step, run_model(i, step, token))
                step += 1
        except WorkerFailedError:
            return
        except BaseException as exc:  # noqa: BLE001 - must unblock peers
            pool.fail(exc)

    # contiguous partition keeps chain order within a thread; with
    # workers <= n_models no part is empty
    bounds = np.linspace(0, n_models, workers + 1).astype(int)
    parts = [list(range(bounds[w], bounds[w + 1])) for w in range(workers)]
    threads = [threading.Thread(target=run_models, args=(p,), daemon=True) for p in parts]
    for th in threads:
        th.start()

    fed: list[int] = []

    def step_chain(token: int) -> np.ndarray:
        step = len(fed)
        fed.append(token)
        pool.put_token(step, token)
        zs = [pool.get_logits(i, step) for i in range(n_models)]
        return fuse_logits(zs, ensemble.spec.lambdas, ensemble.spec.top_k)

    failure = None
    try:
        out, fused_hist = _greedy(ensemble, prompt, max_tokens, step_chain)
        pool.put_token(len(fed), None)
    except BaseException as exc:
        pool.fail(exc)
        failure = exc
    for th in threads:
        th.join(timeout=timeout_s)
    alive = [i for th, p in zip(threads, parts) if th.is_alive() for i in p]
    all_events = [e for per in events for e in per]
    msgs = []
    if failure is not None:
        msgs.append(str(failure) if isinstance(failure, WorkerFailedError) else f"decode aborted: {failure}")
    if alive:
        msgs.append(f"workers of models {alive} still running {timeout_s:.3f}s after the decode")
    if msgs:
        raise WorkerFailedError(
            "; ".join(msgs), partial_tokens=fed[len(prompt):], partial_events=all_events
        ) from failure

    report = TimingReport(
        events=all_events,
        wall_s=time.perf_counter() - t_origin,
        blocked_s=pool.blocked_s,
        transfer_s=pool.transfer_s,
        n_tokens=len(out),
    )
    return out, fused_hist, report
