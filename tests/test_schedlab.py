"""Tests for the latency model and its discrete-event oracle."""

from fractions import Fraction

import pytest

from chainboost.schedlab import (
    SchedProblem,
    format_table,
    simulate_schedule,
    speedup_table,
    t_parallel_closed,
    t_sequential,
    table_to_csv,
)
from oracles import antidiagonal_width


class TestAntidiagonalWidth:
    def test_single_cell(self):
        assert antidiagonal_width(1, 1, 2) == 1

    def test_enumerated_grid(self):
        assert [antidiagonal_width(2, 4, s) for s in range(2, 7)] == [1, 2, 2, 2, 1]

    def test_sums_to_grid_size(self):
        for k in range(1, 7):
            for l in range(1, 9):
                assert sum(antidiagonal_width(k, l, s) for s in range(2, k + l + 1)) == k * l

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            antidiagonal_width(2, 2, 1)
        with pytest.raises(ValueError):
            antidiagonal_width(2, 2, 5)

    def test_rise_plateau_fall(self):
        k, l = 3, 7
        w, u = min(k, l), max(k, l)
        widths = [antidiagonal_width(k, l, s) for s in range(2, k + l + 1)]
        assert widths[: w - 1] == list(range(1, w))
        assert widths[w - 1 : w - 1 + (u - w + 1)] == [w] * (u - w + 1)
        assert widths[w - 1 + (u - w + 1) :] == list(range(w - 1, 0, -1))


class TestClosedForm:
    def test_sequential(self):
        assert t_sequential(0, 4, 1) == 4
        assert t_sequential(1, 4, 1) == 8
        assert t_sequential(2, 32, Fraction(1, 2)) == 48

    def test_worked_example(self):
        assert t_parallel_closed(SchedProblem(k=2, l=4, g=2)) == 5

    def test_g1_is_sequential(self):
        for k in range(1, 5):
            for l in range(1, 8):
                assert t_parallel_closed(SchedProblem(k=k, l=l, g=1)) == k * l

    def test_saturated_g(self):
        for k in range(1, 5):
            for l in range(1, 8):
                w = min(k, l)
                assert t_parallel_closed(SchedProblem(k=k, l=l, g=w)) <= k * l
                assert t_parallel_closed(SchedProblem(k=k, l=l, g=max(w, 1) + 3)) == k + l - 1

    def test_delta_added_once(self):
        a = t_parallel_closed(SchedProblem(k=2, l=4, g=2, delta=3))
        assert a == 8


class TestSimulator:
    def test_single_model(self):
        mk, _ = simulate_schedule(SchedProblem(k=1, l=6, g=2))
        assert mk == 6

    def test_worked_example(self):
        mk, sched = simulate_schedule(SchedProblem(k=2, l=4, g=2))
        assert mk == 5
        # precedence: task (m, i) starts after (m-1, i) and (m, i-1)
        for (m, i), (start, finish) in sched.items():
            assert finish == start + 1
            if (m - 1, i) in sched:
                assert start >= sched[(m - 1, i)][1]
            if (m, i - 1) in sched:
                assert start >= sched[(m, i - 1)][1]

    def test_full_parallel_diagonal_bound(self):
        mk, _ = simulate_schedule(SchedProblem(k=3, l=3, g=3))
        assert mk == 5

    def test_oracle_equivalence_grid(self):
        for k in range(1, 7):
            for l in range(1, 13):
                for g in range(1, 5):
                    p = SchedProblem(k=k, l=l, g=g)
                    assert t_parallel_closed(p) == simulate_schedule(p)[0], (k, l, g)

    def test_monotone_in_g(self):
        for k in (2, 4):
            for l in (3, 7):
                times = [simulate_schedule(SchedProblem(k=k, l=l, g=g))[0] for g in range(1, 6)]
                assert all(a >= b for a, b in zip(times, times[1:]))

    def test_bounds(self):
        for k in range(1, 6):
            for l in range(1, 9):
                for g in range(1, 5):
                    t = t_parallel_closed(SchedProblem(k=k, l=l, g=g))
                    assert k + l - 1 <= t <= k * l


class TestSpeedupTable:
    def test_single_row(self):
        rows = speedup_table(range(2, 3), range(4, 5), range(2, 3), c=1, delta=0)
        assert len(rows) == 1
        assert rows[0]["speedup"] == Fraction(8, 5)

    def test_g1_column_unity(self):
        rows = speedup_table(range(1, 5), range(1, 6), range(1, 2), c=1, delta=0)
        assert all(r["speedup"] == 1 for r in rows)

    def test_asymptotic_speedup(self):
        rows = speedup_table(range(4, 5), range(4, 5), range(4, 5), c=1, delta=0)
        assert rows[0]["speedup"] == Fraction(16, 7)

    def test_closed_equals_sim_in_rows(self):
        rows = speedup_table(range(1, 5), range(1, 7), range(1, 4), c=1, delta=0)
        assert all(r["t_par_closed"] == r["t_par_sim"] for r in rows)

    def test_formats(self):
        rows = speedup_table(range(2, 3), range(4, 5), range(2, 3), c=1, delta=0)
        text = format_table(rows)
        assert "1.6000" in text
        csv_text = table_to_csv(rows)
        assert csv_text.splitlines()[0].startswith("k,")


class TestValidation:
    def test_bad_problem(self):
        for kwargs in ({"k": 0, "l": 1, "g": 1}, {"k": 1, "l": 0, "g": 1},
                       {"k": 1, "l": 1, "g": 0}, {"k": 1, "l": 1, "g": 1, "c": 0},
                       {"k": 1, "l": 1, "g": 1, "delta": -1}):
            with pytest.raises(ValueError):
                SchedProblem(**kwargs)
