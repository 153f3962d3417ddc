"""Tests for the first-order probes: effective contribution, remainder,
MSE sweep, and the guaranteed-descent runner."""

import numpy as np
import pytest

from chainboost import theoryprobe
from chainboost.model import ModelSpec, TransformerModel
from chainboost.numkit import ShapeError, softmax, softmax_jacobian
from chainboost.tasks import TaskSpec, generate
from chainboost.training import AlignmentEstimate, descent_lr_bound
from chainboost.theoryprobe import (
    DegenerateFitError,
    descent_probe,
    effective_contribution,
    mse_sweep,
    remainder_probe,
)

TINY = ModelSpec(
    n_layers=2, d_model=16, n_heads=2, d_ff=32, vocab=12, max_steps=10,
    fusion_period=2, adapter_rank=0, seed=0,
)


class TestEffectiveContribution:
    def test_two_token_symmetric(self):
        # V=2 uniform point: J = [[.25,-.25],[-.25,.25]]; z_new=[1,-1] -> [.5,-.5]
        g = effective_contribution(np.zeros(2), np.array([1.0, -1.0]))
        np.testing.assert_allclose(g, [0.5, -0.5], atol=1e-12)

    def test_dense_oracle(self):
        rng = np.random.default_rng(4)
        zp, zn = rng.standard_normal(6), rng.standard_normal(6)
        p = softmax(zp)
        want = (np.diag(p) - np.outer(p, p)) @ zn
        np.testing.assert_allclose(effective_contribution(zp, zn), want, atol=1e-12)

    def test_sums_to_zero(self):
        rng = np.random.default_rng(5)
        g = effective_contribution(rng.standard_normal(8), rng.standard_normal(8))
        assert abs(g.sum()) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            effective_contribution(np.zeros(3), np.zeros(4))


class TestRemainderProbe:
    def test_quadratic_slope_and_envelope(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal(8)
        slope, c = remainder_probe(z, scales=np.logspace(-4, -1, 10), seed=1)
        assert 1.9 <= slope <= 2.1
        # the envelope holds on a fresh sample at a small scale
        jac = softmax_jacobian(z)
        d = rng.standard_normal(8)
        d /= np.linalg.norm(d)
        s = 1e-3
        r = softmax(z + s * d) - softmax(z) - jac @ (s * d)
        assert np.linalg.norm(r) <= c * s**2 * 1.5

    def test_too_few_scales(self):
        with pytest.raises(DegenerateFitError):
            remainder_probe(np.zeros(4), scales=[1e-3, 1e-2])

    def test_narrow_span_rejected(self):
        with pytest.raises(ValueError):
            remainder_probe(np.zeros(4), scales=[1e-3, 2e-3, 4e-3])


class TestMseSweep:
    def test_zero_corrector_is_flat(self):
        rng = np.random.default_rng(1)
        zp = rng.standard_normal((5, 6))
        gold = rng.integers(0, 6, size=5)
        rep = mse_sweep(zp, np.zeros_like(zp), gold, [0.01, 0.1, 0.5])
        assert rep.mean_eg == 0.0
        np.testing.assert_allclose(rep.delta_mse, 0.0, atol=1e-12)
        assert rep.negative_range is None

    def test_constructed_corrector_gives_negative_range(self):
        rng = np.random.default_rng(2)
        n, v = 40, 8
        zp = rng.standard_normal((n, v))
        gold = rng.integers(0, v, size=n)
        zn = np.zeros((n, v))
        zn[np.arange(n), gold] = 4.0  # push probability onto the target
        lambdas = np.linspace(0.01, 0.5, 12)
        rep = mse_sweep(zp, zn, gold, lambdas)
        assert rep.mean_eg > 0
        lo, hi = rep.negative_range
        assert lo == pytest.approx(0.01) and hi == pytest.approx(0.5)
        assert all(d < 0 for d in rep.delta_mse)

    def test_linear_predictor_matches_small_lambda(self):
        rng = np.random.default_rng(3)
        n, v = 60, 6
        zp = rng.standard_normal((n, v))
        zn = rng.standard_normal((n, v))
        gold = rng.integers(0, v, size=n)
        lam = 1e-4
        rep = mse_sweep(zp, zn, gold, [lam])
        assert rep.delta_mse[0] == pytest.approx(-2.0 * lam * rep.mean_eg, rel=1e-2)

    def test_residual_decays_quadratically(self):
        rng = np.random.default_rng(6)
        n, v = 30, 6
        zp = rng.standard_normal((n, v))
        zn = rng.standard_normal((n, v))
        gold = rng.integers(0, v, size=n)
        lambdas = np.logspace(-4, -2, 8)
        rep = mse_sweep(zp, zn, gold, lambdas)
        slope, _ = np.polyfit(np.log(lambdas), np.log(np.abs(rep.residuals())), 1)
        assert slope >= 1.9

    def test_misaligned_inputs(self):
        with pytest.raises(ShapeError):
            mse_sweep(np.zeros((3, 4)), np.zeros((3, 5)), [0, 1, 2], [0.1])
        with pytest.raises(ValueError):
            mse_sweep(np.zeros((3, 4)), np.zeros((3, 4)), [0, 1, 2], [-0.1])


class TestDescentProbe:
    def _task(self):
        ds = generate(TaskSpec("copy", vocab=12, length=3, n_samples=12, seed=1))
        return ds.tokens, ds.gold

    def test_ce_decreases_without_violations(self):
        model = TransformerModel(TINY)
        tokens, gold = self._task()
        rep = descent_probe(model, tokens, gold, alpha=0.9, steps=25, seed=0)
        assert rep.precondition_ok
        assert rep.violations == 0
        assert rep.ce_trajectory[-1] < rep.ce_trajectory[0]
        assert 0 < rep.eta_used <= 0.9 * rep.eta_bound * (1 + 1e-9)

    def test_no_error_tokens_reduces_alignment_to_zero(self):
        model = TransformerModel(TINY)
        tokens, gold = self._task()
        rep = descent_probe(model, tokens, gold, alpha=0.9, steps=5, seed=0)
        assert rep.alignment.rho == 0.0 and rep.alignment.gamma == 0.0

    def test_with_synthetic_errors(self):
        model = TransformerModel(TINY)
        tokens, gold = self._task()
        err = np.where(gold >= 0, (gold + 1) % TINY.vocab, -1)
        rep = descent_probe(model, tokens, gold, alpha=0.9, steps=15, err=err, seed=0)
        assert rep.violations == 0
        assert rep.alignment.gamma > 0.0

    def test_reports_unconverged_fixed_point(self, monkeypatch):
        tokens, gold = self._task()
        rep = descent_probe(TransformerModel(TINY), tokens, gold, alpha=0.9, steps=5, seed=0)
        assert rep.converged
        # this task needs a second round to make L-hat consistent with its path
        monkeypatch.setattr(theoryprobe, "DESCENT_ROUNDS", 1)
        short = descent_probe(TransformerModel(TINY), tokens, gold, alpha=0.9, steps=5, seed=0)
        assert not short.converged
        assert len(short.ce_trajectory) == 6 and short.precondition_ok

    def test_failed_precondition_reports_and_restores(self, monkeypatch):
        # rho * Gamma = 1.8 >= alpha = 0.9: no eta*(alpha) exists
        tokens, gold = self._task()
        err = np.where(gold >= 0, (gold + 1) % TINY.vocab, -1)
        # zero steps accept the first round, so its L-hat is the local secant
        local = descent_probe(TransformerModel(TINY), tokens, gold, alpha=0.9, steps=0,
                              err=err, seed=0).smoothness
        model = TransformerModel(TINY)
        before = {k: v.copy() for k, v in model.params.items()}
        monkeypatch.setattr(theoryprobe, "estimate_alignment",
                            lambda *a, **kw: AlignmentEstimate(0.9, 2.0, 12))
        rep = descent_probe(model, tokens, gold, alpha=0.9, steps=5, err=err, seed=0)
        assert not rep.precondition_ok
        assert "precondition" in rep.note
        assert rep.ce_trajectory == [] and rep.violations == 0
        assert rep.eta_used == 0.0 and rep.eta_bound == 0.0
        assert not rep.converged
        assert rep.smoothness == local
        assert model.params.keys() == before.keys()
        for k, v in before.items():
            assert model.params[k].tobytes() == v.tobytes(), k

    def test_unconverged_report_pairs_l_hat_with_its_eta(self, monkeypatch):
        # the reported pilot ran at eta_used = 0.9 eta_bound, and eta_bound
        # must be the one the reported L-hat gives
        tokens, gold = self._task()
        monkeypatch.setattr(theoryprobe, "DESCENT_ROUNDS", 1)
        rep = descent_probe(TransformerModel(TINY), tokens, gold, alpha=0.9, steps=5, seed=0)
        assert not rep.converged
        want = descent_lr_bound(0.9, rep.alignment.rho, rep.alignment.gamma, rep.smoothness)
        assert rep.eta_bound == want
        assert rep.eta_used == 0.9 * want
