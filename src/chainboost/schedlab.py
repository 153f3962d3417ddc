"""Latency lab for layer-pipelined chains: closed form, event simulator, sweeps.

The k models x l layers dependency grid is scheduled by anti-diagonal
wavefronts; tasks on each anti-diagonal are assigned round-robin to g
processors, restarting at processor 0 on every diagonal (the assignment under
which the closed form is exact). Times are exact Fractions internally so the
oracle comparison is integer-precise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

Num = float | int | Fraction


@dataclass(frozen=True)
class SchedProblem:
    k: int  # models
    l: int  # layers per model
    g: int  # processors
    c: Num = 1  # per-layer cost
    delta: Num = 0  # communication overhead, added once

    def __post_init__(self):
        if self.k < 1 or self.l < 1 or self.g < 1:
            raise ValueError("k, l, g must be >= 1")
        if self.c <= 0:
            raise ValueError("per-layer cost must be positive")
        if self.delta < 0:
            raise ValueError("overhead must be nonnegative")


def t_sequential(n_successors: int, L: int, c: Num) -> Fraction:
    """Naive chain latency: every model runs all layers before the next starts."""
    if n_successors < 0 or L < 1 or c <= 0:
        raise ValueError("invalid arguments")
    return Fraction(n_successors + 1) * L * Fraction(c)


def t_parallel_closed(problem: SchedProblem) -> Fraction:
    """Closed-form wavefront latency: 2c*sum ceil(t/g) + (u-w+1)c*ceil(w/g) + delta."""
    k, l, g = problem.k, problem.l, problem.g
    c, delta = Fraction(problem.c), Fraction(problem.delta)
    w, u = min(k, l), max(k, l)
    ramp = sum(-(-t // g) for t in range(1, w))
    return 2 * c * ramp + (u - w + 1) * c * (-(-w // g)) + delta


def simulate_schedule(problem: SchedProblem) -> tuple[Fraction, dict[tuple[int, int], tuple[Fraction, Fraction]]]:
    """Discrete-event list schedule of the k x l grid; the closed form's oracle.

    Task (m, i) is ready once (m-1, i) and (m, i-1) have finished. Tasks on
    anti-diagonal s = m + i are assigned round-robin (restarting each
    diagonal) over g processors. Returns (makespan incl. delta, schedule of
    (start, finish) per task).
    """
    k, l, g = problem.k, problem.l, problem.g
    c = Fraction(problem.c)
    finish: dict[tuple[int, int], Fraction] = {}
    schedule: dict[tuple[int, int], tuple[Fraction, Fraction]] = {}
    proc_free = [Fraction(0)] * g
    for s in range(2, k + l + 1):
        tasks = [(m, s - m) for m in range(max(1, s - l), min(k, s - 1) + 1)]
        for idx, (m, i) in enumerate(tasks):
            proc = idx % g
            ready = max(
                finish.get((m - 1, i), Fraction(0)),
                finish.get((m, i - 1), Fraction(0)),
            )
            start = max(ready, proc_free[proc])
            end = start + c
            proc_free[proc] = end
            finish[(m, i)] = end
            schedule[(m, i)] = (start, end)
    makespan = max(finish.values()) + Fraction(problem.delta)
    return makespan, schedule


def speedup_table(
    k_range: Iterable[int],
    l_range: Iterable[int],
    g_range: Iterable[int],
    c: Num = 1,
    delta: Num = 0,
) -> list[dict]:
    """Rows of (k, l, g, T_seq, T_par closed, T_par simulated, speedup)."""
    rows = []
    for k, l, g in itertools.product(k_range, l_range, g_range):
        problem = SchedProblem(k=k, l=l, g=g, c=c, delta=delta)
        seq = t_sequential(k - 1, l, c)
        closed = t_parallel_closed(problem)
        sim, _ = simulate_schedule(problem)
        rows.append(
            {
                "k": k,
                "l": l,
                "g": g,
                "t_seq": seq,
                "t_par_closed": closed,
                "t_par_sim": sim,
                "speedup": Fraction(seq, closed) if closed > 0 else Fraction(0),
            }
        )
    return rows


def format_table(rows: list[dict]) -> str:
    header = f"{'k':>3} {'l':>4} {'g':>3} {'T_seq':>10} {'T_par':>10} {'T_sim':>10} {'speedup':>9}"
    lines = [header]
    for r in rows:
        lines.append(
            f"{r['k']:>3} {r['l']:>4} {r['g']:>3} "
            f"{float(r['t_seq']):>10.4g} {float(r['t_par_closed']):>10.4g} "
            f"{float(r['t_par_sim']):>10.4g} {float(r['speedup']):>9.4f}"
        )
    return "\n".join(lines)


def table_to_csv(rows: list[dict]) -> str:
    lines = ["k,l,g,t_seq,t_par_closed,t_par_sim,speedup"]
    for r in rows:
        lines.append(
            f"{r['k']},{r['l']},{r['g']},{float(r['t_seq'])},"
            f"{float(r['t_par_closed'])},{float(r['t_par_sim'])},{float(r['speedup'])}"
        )
    return "\n".join(lines) + "\n"
