"""Empirical probes for the framework's analysis claims.

Four instruments: the effective-contribution operator (the corrector's linear
action in probability space), a quadratic-remainder probe for the softmax
expansion, an MSE sweep that compares the measured ensemble error change
against its first-order prediction, and a guaranteed-descent probe that runs
full-batch steps at a learning rate derived from measured alignment
constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .numkit import ShapeError, check_finite, softmax, softmax_jacobian, softmax_rows, vector_norm
from .training import (
    DEFAULT_BETA,
    AlignmentEstimate,
    BoundViolatedError,
    EmptyEstimateError,
    descent_lr_bound,
    estimate_alignment,
    flatten_params,
    load_flat_params,
    stage_batch_pass,
    trainable_keys,
)

DESCENT_ROUNDS = 12  # descent_probe's cap on L-hat fixed-point rounds
ETA_SCALE = 0.9  # descent_probe steps at this fraction of eta*(alpha)


def effective_contribution(z_prev_accum: np.ndarray, z_new: np.ndarray) -> np.ndarray:
    """g = J_softmax(z_prev) @ z_new: first-order probability shift per unit λ."""
    z_prev_accum = np.asarray(z_prev_accum, dtype=float)
    z_new = np.asarray(z_new, dtype=float)
    if z_prev_accum.shape != z_new.shape or z_prev_accum.ndim != 1:
        raise ShapeError(
            f"expected matching 1-D logits, got {z_prev_accum.shape} vs {z_new.shape}"
        )
    return softmax_jacobian(z_prev_accum) @ z_new


class DegenerateFitError(ValueError):
    """Too few scales to fit a log-log slope."""


def remainder_probe(
    z: np.ndarray,
    scales: Sequence[float],
    directions: int = 64,
    seed: int = 0,
) -> tuple[float, float]:
    """Fit ||softmax(z+dz) - softmax(z) - J dz|| ~ C*s^p; return (p, C).

    C is the envelope constant: the max of ||R|| / s^2 over all sampled
    points, so ||R|| <= C * s^2 holds on the sample by construction.
    """
    z = np.asarray(z, dtype=float)
    scales = sorted(float(s) for s in scales)
    if len(scales) < 3:
        raise DegenerateFitError("need at least 3 scales for a slope fit")
    if scales[0] <= 0 or scales[-1] / scales[0] < 100.0:
        raise ValueError("scales must be positive and span >= 2 decades")
    rng = np.random.default_rng(seed)
    p0 = softmax(z)
    jac = softmax_jacobian(z)
    log_s, log_r, ratios = [], [], []
    for _ in range(directions):
        d = rng.standard_normal(z.shape[0])
        d /= np.linalg.norm(d)
        for s in scales:
            dz = s * d
            r = softmax(z + dz) - p0 - jac @ dz
            nr = np.linalg.norm(r)
            if nr > 0.0:
                log_s.append(np.log(s))
                log_r.append(np.log(nr))
            ratios.append(nr / s**2)
    slope, _ = np.polyfit(log_s, log_r, 1)
    return float(slope), float(max(ratios))


@dataclass
class MseSweepReport:
    """Measured vs predicted ensemble MSE change across a λ grid."""

    lambdas: list[float]
    mse_pred: float            # predecessor MSE, λ-independent
    mse_ens: list[float]       # ensemble MSE per λ
    linear_pred: list[float]   # -2 λ mean(e·g)
    mean_eg: float
    n_instances: int

    @property
    def delta_mse(self) -> list[float]:
        return [m - self.mse_pred for m in self.mse_ens]

    @property
    def negative_range(self) -> Optional[tuple[float, float]]:
        """(min λ, max λ) among grid points with ΔMSE < 0, or None."""
        neg = [lam for lam, d in zip(self.lambdas, self.delta_mse) if d < 0.0]
        return (min(neg), max(neg)) if neg else None

    def residuals(self) -> list[float]:
        return [d - p for d, p in zip(self.delta_mse, self.linear_pred)]


def mse_sweep(
    pred_logits: np.ndarray,
    corr_logits: np.ndarray,
    gold: Sequence[int],
    lambdas: Sequence[float],
) -> MseSweepReport:
    """Sweep λ over softmax(z_prev + λ z_new) and compare with -2λ mean(e·g).

    pred_logits/corr_logits are (N, V); gold holds N target ids. The MSE is
    against one-hot targets, summed over vocab dims, averaged over instances.
    """
    zp = np.asarray(pred_logits, dtype=float)
    zn = np.asarray(corr_logits, dtype=float)
    gold = np.asarray(gold, dtype=int)
    if zp.ndim != 2 or zp.shape != zn.shape or gold.shape != (zp.shape[0],):
        raise ShapeError(
            f"misaligned sets: pred {zp.shape}, corr {zn.shape}, gold {gold.shape}"
        )
    if zp.shape[0] == 0:
        raise ValueError("empty instance set")
    check_finite(zn, "corr_logits")  # zp is checked by effective_contribution
    lambdas = [float(l) for l in lambdas]
    if any(l <= 0 for l in lambdas):
        raise ValueError("lambda grid must be positive")

    n, v = zp.shape
    onehot = np.zeros((n, v))
    onehot[np.arange(n), gold] = 1.0
    p0 = softmax_rows(zp)
    mse_pred = float(np.mean(np.sum((p0 - onehot) ** 2, axis=1)))
    eg = np.array(
        [(onehot[i] - p0[i]) @ effective_contribution(zp[i], zn[i]) for i in range(n)]
    )
    mean_eg = float(eg.mean())

    mse_ens, linear = [], []
    for lam in lambdas:
        ph = softmax_rows(zp + lam * zn)
        mse_ens.append(float(np.mean(np.sum((ph - onehot) ** 2, axis=1))))
        linear.append(-2.0 * lam * mean_eg)
    return MseSweepReport(
        lambdas=lambdas,
        mse_pred=mse_pred,
        mse_ens=mse_ens,
        linear_pred=linear,
        mean_eg=mean_eg,
        n_instances=n,
    )


@dataclass
class DescentReport:
    """Trajectory of a guaranteed-descent run."""

    ce_trajectory: list[float]
    violations: int
    alignment: AlignmentEstimate
    smoothness: float
    eta_used: float
    eta_bound: float
    precondition_ok: bool = True
    note: str = ""
    converged: bool = True  # False when the L-hat fixed point ran out of rounds


def descent_probe(
    model,
    tokens: np.ndarray,
    gold: np.ndarray,
    alpha: float,
    steps: int,
    err: Optional[np.ndarray] = None,
    seed: int = 0,
) -> DescentReport:
    """Run full-batch steps over every parameter at η = ETA_SCALE x η*(α),
    β = DEFAULT_BETA, and count CE increases.

    Measures (ρ̂, Γ̂) from per-sample gradients. The smoothness constant L̂ is
    found by a fixed point: start from a local secant probe around θ0, run a
    pilot descent at the implied η, fold the max CE-gradient secant observed
    along that trajectory back into L̂, and repeat until the realized path is
    consistent with the L̂ that produced it (the true global constant is not
    observable, and each pilot looks exactly where the descent actually
    goes). The accepted pilot is the reported run. Steps use the composite
    gradient; the trajectory and the secants track the primary CE, which is
    what the bound is stated for. If α <= ρ̂Γ̂ the bound does not exist and
    the probe reports the failed precondition instead of raising. After
    DESCENT_ROUNDS rounds without a consistent L̂ the last pilot is reported
    with converged=False.
    """
    tokens = np.asarray(tokens)
    gold = np.asarray(gold)
    if err is None:
        err = np.full_like(gold, -1)
    keys = trainable_keys(model, "full")
    try:
        align = estimate_alignment(model, tokens, gold, err, keys, DEFAULT_BETA)
    except EmptyEstimateError:
        # no predecessor errors: the suppression gradient vanishes identically
        align = AlignmentEstimate(rho=0.0, gamma=0.0, sample_count=0)

    theta0 = flatten_params(model, keys)
    no_err = np.full_like(gold, -1)

    def at(theta: np.ndarray):
        """(primary CE, composite flat grad, CE-only flat grad) at theta."""
        load_flat_params(model, keys, theta)
        ce, _, g_comp = stage_batch_pass(model, tokens, gold, err, alpha, DEFAULT_BETA, keys=keys)
        _, _, g_ce = stage_batch_pass(model, tokens, gold, no_err, 1.0, DEFAULT_BETA, keys=keys)
        return ce, g_comp, g_ce

    ce0, g0_comp, g0_ce = at(theta0)
    rng = np.random.default_rng(seed)
    l_hat = 1e-12
    for d in [g0_ce] + [rng.standard_normal(theta0.size) for _ in range(6)]:
        nd = vector_norm(d)
        if nd == 0.0:
            continue
        d = d / nd
        for s in (1e-2, 1e-1, 1.0):
            _, _, g1 = at(theta0 + s * d)
            if np.isfinite(g1).all():
                l_hat = max(l_hat, vector_norm(g1 - g0_ce) / s)

    traj: list[float] = []
    violations = 0
    eta = eta_star = 0.0
    converged = False
    note = ""
    path_sec = l_hat
    try:
        for _ in range(DESCENT_ROUNDS):  # fixed-point rounds; converges since eta shrinks
            l_hat = path_sec  # the L-hat behind this pilot, and so the one reported
            eta_star = descent_lr_bound(alpha, align.rho, align.gamma, l_hat)
            eta = ETA_SCALE * eta_star
            theta, g_comp, g_ce = theta0.copy(), g0_comp, g0_ce
            traj, violations, path_sec = [ce0], 0, 0.0
            for _ in range(steps):
                theta_next = theta - eta * g_comp
                ce_next, g_comp_next, g_ce_next = at(theta_next)
                dn = vector_norm(theta_next - theta)
                if dn > 0 and np.isfinite(g_ce_next).all():
                    path_sec = max(path_sec, vector_norm(g_ce_next - g_ce) / dn)
                if not ce_next < traj[-1]:
                    violations += 1
                traj.append(ce_next)
                theta, g_comp, g_ce = theta_next, g_comp_next, g_ce_next
            if path_sec <= l_hat:
                converged = True
                break
    except BoundViolatedError as exc:  # only the first round can raise: alpha <= rho*Gamma
        note = str(exc)

    load_flat_params(model, keys, theta0)
    return DescentReport(traj, violations, align, l_hat, eta, eta_star,
                         precondition_ok=not note, note=note, converged=converged)
