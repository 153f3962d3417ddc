"""Greedy decoding for model chains.

Two interchangeable decoders: a sequential reference (each model finishes a
step before the next one starts) and a near-parallel one that runs one worker
thread per model and streams hidden states layer by layer through a blocking
write-once pool. Both share the exact same per-step forward code, so their
token streams are bit-identical.
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
    """A blocking read timed out; the message names the missing key."""


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

    def _get(self, store, key, timeout_s: Optional[float] = None):
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
                raise PoolTimeoutError(
                    f"deadlock: blocked {timeout_s:.3f}s waiting for {key!r}"
                )
            return store[key]

    def put_state(self, key: HiddenKey, value: np.ndarray) -> None:
        self._put(self._states, key, value)

    def get_state(self, key: HiddenKey, timeout_s: Optional[float] = None) -> np.ndarray:
        """Block for the state at key; timeout_s overrides the pool default for this call."""
        return self._get(self._states, key, timeout_s)

    def put_logits(self, model: int, step: int, z: np.ndarray) -> None:
        self._put(self._logits, (model, step), z)

    def get_logits(self, model: int, step: int) -> np.ndarray:
        return self._get(self._logits, (model, step))

    def put_token(self, step: int, token: Optional[int]) -> None:
        """Broadcast the input token for a step; None tells workers to stop."""
        self._put(self._tokens, step, token)

    def get_token(self, step: int) -> Optional[int]:
        return self._get(self._tokens, step)


def pool_put(pool: StatePool, key: HiddenKey, value: np.ndarray) -> None:
    pool.put_state(key, value)


def pool_get(pool: StatePool, key: HiddenKey, timeout_ms: Optional[float] = None) -> np.ndarray:
    return pool.get_state(key, None if timeout_ms is None else timeout_ms / 1000.0)


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


def _check_prompt(ensemble: Ensemble, prompt, max_tokens: int) -> None:
    if len(prompt) == 0:
        raise ValueError("prompt must be nonempty")
    cap = min(m.spec.max_steps for m in ensemble.models)
    if len(prompt) + max_tokens > cap:
        raise ValueError(
            f"prompt ({len(prompt)}) + max_tokens ({max_tokens}) exceeds max_steps {cap}"
        )


def _step_all(ensemble: Ensemble, token: int, caches: list[KvCache]) -> np.ndarray:
    """Advance every model one step in chain order; return the fused logits."""
    spec = ensemble.spec
    zs = []
    prev_states = None
    for i, model in enumerate(ensemble.models):
        fusion = None
        if i > 0:
            fusion = {l: prev_states[l - 1] for l in model.spec.fusion_layers()}
        z, prev_states, _ = model.forward_step(token, caches[i], fusion)
        zs.append(z)
    return fuse_logits(zs, spec.lambdas, spec.top_k)


def decode_sequential(ensemble: Ensemble, prompt, max_tokens: int):
    """Reference greedy decoder; returns (tokens, per-step fused logits).

    Per step each model runs to completion in chain order, successor fusion
    layers read the predecessor's states for the same step, fused logits pick
    the argmax (lowest index on ties), and decoding stops at EOS (= V-1) or
    after max_tokens emissions. The emitted EOS is included in the output.
    """
    _check_prompt(ensemble, prompt, max_tokens)
    eos = ensemble.spec.vocab - 1
    caches = [KvCache(m.spec.n_layers) for m in ensemble.models]
    out: list[int] = []
    fused_hist: list[np.ndarray] = []
    token = int(prompt[0])
    pos = 0
    while True:
        fused = _step_all(ensemble, token, caches)
        pos += 1
        if pos < len(prompt):
            token = int(prompt[pos])
            continue
        nxt = int(np.argmax(fused))
        out.append(nxt)
        fused_hist.append(fused)
        if nxt == eos or len(out) >= max_tokens:
            return out, np.array(fused_hist)
        token = nxt


def decode_pipelined(
    ensemble: Ensemble,
    prompt,
    max_tokens: int,
    workers: Optional[int] = None,
    timeout_s: float = DEFAULT_TIMEOUT_S,
):
    """Near-parallel greedy decode; returns (tokens, fused logits, timing).

    One worker runs each model (fewer workers fold adjacent models onto one
    thread, preserving chain order). At every block, worker i first blocks on
    the predecessor's state (i-1, l-1, t), publishes its own state the moment
    a block finishes, and posts logits per step. The coordinator fuses all
    logits for a step, then broadcasts the chosen token, which is the per-step
    barrier that keeps the token stream identical to decode_sequential.
    """
    _check_prompt(ensemble, prompt, max_tokens)
    n_models = len(ensemble.models)
    eos = ensemble.spec.vocab - 1
    if workers is None or workers > n_models:
        workers = n_models
    if workers < 1:
        raise ValueError("workers must be >= 1")

    pool = StatePool(timeout_s=timeout_s)
    caches = [KvCache(m.spec.n_layers) for m in ensemble.models]
    events: list[list] = [[] for _ in range(n_models)]
    t_origin = time.perf_counter()

    def now_us() -> int:
        return int((time.perf_counter() - t_origin) * 1e6)

    def run_models(model_indices: list[int]) -> None:
        try:
            step = 0
            while True:
                token = pool.get_token(step)
                if token is None:
                    return
                for i in model_indices:
                    model = ensemble.models[i]
                    pred: dict[int, np.ndarray] = {}
                    starts: dict[int, int] = {}

                    def on_start(l, i=i, step=step, pred=pred, starts=starts):
                        if i > 0:
                            pred[l - 1] = pool.get_state(HiddenKey(i - 1, l - 1, step))
                        starts[l] = now_us()

                    def on_end(l, h, i=i, step=step, starts=starts):
                        if i < n_models - 1:
                            pool.put_state(HiddenKey(i, l, step), h)
                        if l > 0:
                            events[i].append((i, l, step, starts[l], now_us()))

                    z, _, _ = model.forward_step(
                        token,
                        caches[i],
                        fusion_in=(lambda l, pred=pred: pred[l - 1]) if i > 0 else None,
                        on_layer_start=on_start,
                        on_layer_end=on_end,
                    )
                    pool.put_logits(i, step, z)
                step += 1
        except WorkerFailedError:
            return
        except BaseException as exc:  # noqa: BLE001 - must unblock peers
            pool.fail(exc)

    # contiguous partition keeps chain order within a thread
    bounds = np.linspace(0, n_models, workers + 1).astype(int)
    parts = [list(range(bounds[w], bounds[w + 1])) for w in range(workers)]
    threads = [
        threading.Thread(target=run_models, args=(p,), daemon=True) for p in parts if p
    ]
    for th in threads:
        th.start()

    out: list[int] = []
    fused_hist: list[np.ndarray] = []
    try:
        pool.put_token(0, int(prompt[0]))
        step = 0
        while True:
            zs = [pool.get_logits(i, step) for i in range(n_models)]
            fused = fuse_logits(zs, ensemble.spec.lambdas, ensemble.spec.top_k)
            step += 1
            if step < len(prompt):
                pool.put_token(step, int(prompt[step]))
                continue
            nxt = int(np.argmax(fused))
            out.append(nxt)
            fused_hist.append(fused)
            if nxt == eos or len(out) >= max_tokens:
                pool.put_token(step, None)
                break
            pool.put_token(step, nxt)
    except BaseException as exc:
        pool.fail(exc)
        for th in threads:
            th.join(timeout=timeout_s)
        merged = [e for per in events for e in per]
        raise WorkerFailedError(
            f"decode aborted: {exc}", partial_tokens=out, partial_events=merged
        ) from exc

    for th in threads:
        th.join(timeout=timeout_s)
    report = TimingReport(
        events=[e for per in events for e in per],
        wall_s=time.perf_counter() - t_origin,
        blocked_s=pool.blocked_s,
        transfer_s=pool.transfer_s,
        n_tokens=len(out),
    )
    return out, np.array(fused_hist), report
