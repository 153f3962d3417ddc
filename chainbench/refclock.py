"""Rescale measured seconds to a reference host speed.

On a shared host the same code runs at two speeds that switch every second
or so (a slice below took 1.7 ms in some 2-s windows and 3.1 ms in others).
A timed call is therefore bracketed by a short reference slice, pure numpy
shaped like the call's own work and independent of chainboost, and its
seconds are multiplied by (nominal slice time / measured slice time). Calls
that last seconds also get slices inside them, from a hook on a function
they call many times, so each piece between two slices is rescaled by the
speed measured at its ends. A change to chainboost cannot move a slice, so
it still moves the rescaled time one for one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

_rng = np.random.default_rng(0)
_W = _rng.standard_normal((32, 32)) * 0.1
_V = _rng.standard_normal(32)
_X = _rng.standard_normal((288, 32))
_W1 = _rng.standard_normal((32, 64)) * 0.1
_W2 = _rng.standard_normal((64, 32)) * 0.1


def _layer_work() -> None:
    """Tiny vector ops, like one decode step through one layer."""
    v = _V
    for _ in range(100):
        v = np.tanh(v @ _W) + 0.5 * v
        v = (v - v.mean()) / np.sqrt(v.var() + 1e-5)


def _batch_work() -> None:
    """(32 x 9, 32) activations through a GELU MLP, a norm and a backward
    product, like one training batch."""
    for _ in range(6):
        h = _X @ _W1
        g = 0.5 * h * (1 + np.tanh(0.79 * (h + 0.0447 * h * h * h)))
        y = g @ _W2
        m = y.mean(-1, keepdims=True)
        yh = (y - m) / np.sqrt(((y - m) ** 2).mean(-1, keepdims=True) + 1e-5)
        _X.T @ ((yh @ _W2.T) * (1 - np.tanh(h) ** 2))


@dataclass(frozen=True)
class RefSlice:
    """A fixed run of numpy work and its seconds on an uncontended 2 GHz
    Xeon core (the fast state of the development host)."""

    work: Callable[[], None]
    nominal_s: float

    def measure(self) -> float:
        t0 = time.perf_counter()
        self.work()
        return time.perf_counter() - t0


LAYER_SLICE = RefSlice(_layer_work, 2.0e-3)
BATCH_SLICE = RefSlice(_batch_work, 2.5e-3)


def split_at_slices(ref: RefSlice, t0: float, before: float, marks, t1: float,
                    after: float) -> tuple[float, float]:
    """(wall, reference) seconds of a call that ran from t0 to t1, minus the
    slices run inside it. `before`/`after` are slice times measured just
    outside the call, `marks` the (start, seconds) of slices inside it."""
    points = [(t0, before, 0.0)] + [(t, d, d) for t, d in marks] + [(t1, after, 0.0)]
    wall = scaled = 0.0
    for (ta, sa, da), (tb, sb, _) in zip(points, points[1:]):
        piece = tb - ta - da
        wall += piece
        scaled += piece * 2 * ref.nominal_s / (sa + sb)
    return wall, scaled


def timed_ref(ref: RefSlice, fn, *args, marks=(), **kwargs):
    """Call fn bracketed by two slices; returns (result, wall s, reference s).
    `marks` is a list a SliceHook fills while fn runs."""
    before = ref.measure()
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    t1 = time.perf_counter()
    return (out,) + split_at_slices(ref, t0, before, list(marks), t1, ref.measure())


class SliceHook:
    """Wraps owner.attr: counts its calls and, while `active`, runs a slice
    after every `every` calls, recording (start, seconds) in `marks`."""

    def __init__(self, owner, attr: str, ref: RefSlice, every: int):
        self.owner, self.attr, self.ref, self.every = owner, attr, ref, every
        self.orig = getattr(owner, attr)
        self.calls = 0
        self.active = True
        self.marks: list[tuple[float, float]] = []

        def hooked(*args, **kwargs):
            out = self.orig(*args, **kwargs)
            self.calls += 1
            if self.active and self.calls % self.every == 0:
                t = time.perf_counter()
                self.marks.append((t, self.ref.measure()))
            return out

        setattr(owner, attr, hooked)

    def reset(self) -> None:
        self.calls = 0
        self.marks = []

    def remove(self) -> None:
        setattr(self.owner, self.attr, self.orig)
