"""Acceptance gate: nine end-to-end criteria with pinned tolerances.

Each test prints one pass/fail line. Tolerances and time budgets are fixed
here on purpose; loosening them is not an acceptable fix for a red test.
"""

import dataclasses
import time

import numpy as np
import pytest

from chainboost import schedlab, theoryprobe
from chainboost.ensemble import Ensemble, EnsembleSpec
from chainboost.model import KvCache, ModelSpec, TransformerModel
from chainboost.numkit import softmax, softmax_jacobian
from chainboost.pipeline import decode_pipelined, decode_sequential
from chainboost.tasks import TaskSpec, generate
from chainboost.theoryprobe import descent_probe, mse_sweep, remainder_probe
from chainboost.training import (
    TrainConfig,
    chain_eval,
    loss_logit_grad,
    pred_forward_chain,
    total_loss,
    train_chain,
)

BASE32 = ModelSpec(
    n_layers=2, d_model=32, n_heads=2, d_ff=64, vocab=16, max_steps=16,
    fusion_period=2, adapter_rank=0, seed=0,
)
TINY = ModelSpec(
    n_layers=2, d_model=16, n_heads=2, d_ff=32, vocab=12, max_steps=12,
    fusion_period=2, adapter_rank=0, seed=0,
)


def _chain32(seed: int, adapter_rank: int = 8) -> Ensemble:
    specs = [
        dataclasses.replace(BASE32, adapter_rank=0, seed=seed * 10),
        dataclasses.replace(BASE32, adapter_rank=adapter_rank, seed=seed * 10 + 1),
    ]
    return Ensemble(EnsembleSpec(specs, lambdas=[0.3], top_k=2))


def test_criterion_1_gradient_fidelity():
    """1000 random draws: analytic logit gradient vs Richardson FD, rel < 1e-5."""
    t0 = time.time()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(1000):
        v = int(rng.integers(3, 12))
        z = rng.normal(0.0, 2.0, v)
        gold = int(rng.integers(0, v))
        err = int(rng.choice([i for i in range(v) if i != gold])) if rng.random() < 0.7 else None
        alpha = float(rng.uniform(0.1, 1.0))
        beta = float(rng.uniform(0.05, 0.5))
        g = loss_logit_grad(softmax(z), gold, err, alpha, beta)

        def central(e):
            out = np.zeros(v)
            for j in range(v):
                zp, zm = z.copy(), z.copy()
                zp[j] += e
                zm[j] -= e
                out[j] = (
                    total_loss([zp], [gold], [err], alpha, beta)
                    - total_loss([zm], [gold], [err], alpha, beta)
                ) / (2 * e)
            return out

        fd = (4 * central(5e-5) - central(1e-4)) / 3
        rel = np.abs(g - fd) / np.maximum(np.abs(fd), 1e-8)
        worst = max(worst, float(rel.max()))
    wall = time.time() - t0
    print(f"criterion 1 (gradient fidelity): worst rel {worst:.3e}, {wall:.1f}s "
          f"-> {'PASS' if worst < 1e-5 else 'FAIL'}")
    assert worst < 1e-5
    assert wall < 10.0


def test_criterion_2_pipelined_equals_sequential():
    """>= 20 configurations, n in {0,1,2}: same tokens, logits within 1e-9."""
    t0 = time.time()
    cases = 0
    worst = 0.0
    for n_succ in (0, 1, 2):
        for seed in range(7):
            specs = [dataclasses.replace(TINY, seed=seed + 10 * i) for i in range(n_succ + 1)]
            ens = Ensemble(EnsembleSpec(specs, lambdas=[0.3] * n_succ, top_k=2))
            rng = np.random.default_rng(seed)
            prompt = rng.integers(0, TINY.vocab - 1, size=3).tolist()
            toks_s, z_s = decode_sequential(ens, prompt, max_tokens=6)
            toks_p, z_p, _ = decode_pipelined(ens, prompt, max_tokens=6)
            assert toks_s == toks_p, f"token mismatch: n={n_succ} seed={seed}"
            worst = max(worst, float(np.max(np.abs(np.asarray(z_s) - np.asarray(z_p)))))
            cases += 1
    wall = time.time() - t0
    print(f"criterion 2 (pipelined == sequential): {cases} cases, worst logit diff "
          f"{worst:.2e}, {wall:.1f}s -> {'PASS' if cases >= 20 and worst <= 1e-9 else 'FAIL'}")
    assert cases >= 20
    assert worst <= 1e-9
    assert wall < 120.0


def test_criterion_3_scheduler_oracle():
    """Closed form == simulator on the full grid; exact endpoint speedups."""
    t0 = time.time()
    mismatches = 0
    for k in range(1, 7):
        for l in range(1, 13):
            for g in range(1, 5):
                prob = schedlab.SchedProblem(k=k, l=l, g=g, c=1, delta=0)
                closed = schedlab.t_parallel_closed(prob)
                sim, _ = schedlab.simulate_schedule(prob)
                if closed != sim:
                    mismatches += 1
                seq = schedlab.t_sequential(k - 1, l, 1)
                if g == 1:
                    assert seq == closed, f"g=1 must not pipeline: k={k} l={l}"
                if g >= min(k, l):
                    assert seq / closed == pytest.approx(k * l / (k + l - 1)), (
                        f"saturated speedup wrong at k={k} l={l} g={g}"
                    )
    wall = time.time() - t0
    print(f"criterion 3 (scheduler oracle): 288 grid points, {mismatches} mismatches, "
          f"{wall:.1f}s -> {'PASS' if mismatches == 0 else 'FAIL'}")
    assert mismatches == 0
    assert wall < 5.0


def test_criterion_4_remainder_quadratic():
    """Softmax remainder decays with exponent in [1.9, 2.1]; envelope holds."""
    t0 = time.time()
    rng = np.random.default_rng(4)
    for v in (4, 16, 64):
        for _ in range(10):
            z = rng.uniform(-3, 3, v)
            slope, c = remainder_probe(z, scales=np.logspace(-3, -1, 7), directions=16, seed=1)
            assert 1.9 <= slope <= 2.1, f"V={v}: slope {slope:.4f} outside [1.9, 2.1]"
            # envelope check on an independent direction
            d = rng.standard_normal(v)
            d /= np.linalg.norm(d)
            s = 3e-3
            r = softmax(z + s * d) - softmax(z) - softmax_jacobian(z) @ (s * d)
            assert np.linalg.norm(r) <= 1.5 * c * s**2
    wall = time.time() - t0
    print(f"criterion 4 (quadratic remainder): 30 base points, {wall:.1f}s -> PASS")
    assert wall < 10.0


def test_criterion_5_mse_witness():
    """Trained 2-model chain on modsum: a nonempty lambda interval in (0, 0.5]
    with ensemble MSE below the predecessor's, and the small-lambda slope
    matching -2 mean(e.g) within 5%, for seeds 1, 2, 3."""
    t0 = time.time()
    for sd in (1, 2, 3):
        task = TaskSpec("modsum", vocab=16, length=8, n_samples=240, seed=sd, modulus=7)
        train, hold = generate(task).split(0.25, seed=sd)
        ens = _chain32(sd)
        cfg = TrainConfig(learning_rate=0.05, epochs=30, batch_size=32, seed=sd,
                          stage2_epochs=50, stage2_learning_rate=0.1)
        train_chain(ens, train, cfg)
        z0, _ = pred_forward_chain(ens, 0, hold.tokens)
        z1, _ = pred_forward_chain(ens, 1, hold.tokens)
        lab = hold.gold >= 0
        lambdas = [1e-3] + list(np.linspace(0.05, 0.5, 10))
        rep = mse_sweep(z0[lab], z1[lab], hold.gold[lab], lambdas)
        assert rep.mean_eg > 0, f"seed {sd}: mean(e.g) = {rep.mean_eg:+.5f} not positive"
        lo, hi = rep.negative_range or (None, None)
        assert lo is not None and 0 < lo <= hi <= 0.5, f"seed {sd}: no negative interval"
        lin = -2.0 * 1e-3 * rep.mean_eg
        rel = abs(rep.delta_mse[0] - lin) / abs(lin)
        assert rel < 0.05, f"seed {sd}: small-lambda slope off by {rel:.1%}"
    wall = time.time() - t0
    print(f"criterion 5 (MSE witness): 3 seeds, {wall:.0f}s -> PASS")
    assert wall < 600.0


def test_criterion_6_guaranteed_descent():
    """200 descent steps at 0.9 eta* from measured (rho, Gamma, L): zero CE
    increases, on a clean task and on one with synthetic error tokens."""
    t0 = time.time()
    spec = dataclasses.replace(TINY, vocab=12, max_steps=16)
    ds_a = generate(TaskSpec("copy", vocab=12, length=4, n_samples=24, seed=1))
    rep_a = descent_probe(TransformerModel(spec), ds_a.tokens, ds_a.gold,
                          alpha=0.9, steps=200, seed=1)
    ds_b = generate(TaskSpec("modsum", vocab=12, length=4, n_samples=24, seed=2, modulus=7))
    err_b = np.where(ds_b.gold >= 0, (ds_b.gold + 1) % 12, -1)
    rep_b = descent_probe(TransformerModel(dataclasses.replace(spec, seed=2)),
                          ds_b.tokens, ds_b.gold, alpha=0.9, steps=200, err=err_b, seed=2)
    wall = time.time() - t0
    for name, rep in (("copy", rep_a), ("modsum+err", rep_b)):
        assert rep.precondition_ok, f"{name}: descent precondition failed"
        assert rep.violations == 0, f"{name}: {rep.violations} CE increases\n{rep}"
        assert len(rep.ce_trajectory) == 201
    print(f"criterion 6 (guaranteed descent): 0 violations over 2x200 steps, "
          f"{wall:.0f}s -> PASS")
    assert wall < 300.0


def test_criterion_7_chain_never_hurts():
    """Held-out accuracy, mean over seeds 1-3: fused chain >= base on at least
    2 of 4 tasks and never worse than base by more than 0.5pp on any task."""
    t0 = time.time()
    cfgs = {
        "copy": dict(length=5, n=120, lr=0.15, ep=40, s2ep=20, s2lr=0.05),
        "reverse": dict(length=5, n=120, lr=0.15, ep=40, s2ep=20, s2lr=0.05),
        "needle": dict(length=5, n=120, lr=0.15, ep=80, s2ep=20, s2lr=0.05),
        "modsum": dict(length=8, n=240, lr=0.05, ep=30, s2ep=50, s2lr=0.1),
    }
    wins = 0
    for kind, c in cfgs.items():
        base_accs, fused_accs = [], []
        for sd in (1, 2, 3):
            task = TaskSpec(kind, vocab=16, length=c["length"], n_samples=c["n"],
                            seed=sd, modulus=7)
            train, hold = generate(task).split(0.25, seed=sd)
            ens = Ensemble(EnsembleSpec(
                [dataclasses.replace(BASE32, seed=sd * 100),
                 dataclasses.replace(BASE32, adapter_rank=8, seed=sd * 100 + 1)],
                lambdas=[0.3], top_k=2,
            ))
            cfg = TrainConfig(learning_rate=c["lr"], epochs=c["ep"], batch_size=32,
                              seed=sd, stage2_epochs=c["s2ep"],
                              stage2_learning_rate=c["s2lr"])
            train_chain(ens, train, cfg)
            ev = chain_eval(ens, hold)
            base_accs.append(ev["base_acc"])
            fused_accs.append(ev["fused_acc"])
        mb, mf = float(np.mean(base_accs)), float(np.mean(fused_accs))
        print(f"criterion 7: {kind:8s} base={mb:.4f} fused={mf:.4f} diff={mf - mb:+.4f}")
        if mf >= mb:
            wins += 1
        assert mf >= mb - 0.005, f"{kind}: fused {mf:.4f} worse than base {mb:.4f} by >0.5pp"
    wall = time.time() - t0
    print(f"criterion 7 (chain never hurts): {wins}/4 tasks at-or-above base, "
          f"{wall:.0f}s -> {'PASS' if wins >= 2 else 'FAIL'}")
    assert wins >= 2
    assert wall < 900.0


def test_criterion_8_pipelined_latency():
    """Pipelined decode at most 0.8x sequential median latency over >= 5 reps."""
    t0 = time.time()
    specs = [dataclasses.replace(BASE32, seed=i) for i in range(3)]
    ens = Ensemble(EnsembleSpec(specs, lambdas=[0.3, 0.3], top_k=2))
    prompt = [1, 2, 3]
    seq, pip, transfer = [], [], []
    for _ in range(5):
        a = time.perf_counter()
        decode_sequential(ens, prompt, max_tokens=12)
        seq.append(time.perf_counter() - a)
        a = time.perf_counter()
        _, _, rep = decode_pipelined(ens, prompt, max_tokens=12)
        pip.append(time.perf_counter() - a)
        transfer.append(rep.transfer_s)
    med_s, med_p = float(np.median(seq)), float(np.median(pip))
    wall = time.time() - t0
    print(f"criterion 8 (latency): sequential {med_s:.4f}s pipelined {med_p:.4f}s "
          f"state-passing {np.median(transfer):.5f}s "
          f"-> {'PASS' if med_p <= 0.8 * med_s else 'FAIL'}")
    assert med_p <= 0.8 * med_s
    assert wall < 120.0


def test_criterion_9_base_model_recovery():
    """A chain with zero successors decodes bit-identically to the bare model."""
    t0 = time.time()
    ens = Ensemble(EnsembleSpec([TINY], lambdas=[], top_k=2))
    model = ens.models[0]
    prompt = [1, 2, 3]
    toks_chain, z_chain = decode_sequential(ens, prompt, max_tokens=8)

    cache = KvCache(TINY.n_layers)
    toks_bare, z_bare = [], []
    token = prompt[0]
    step = 0
    while True:
        z, _, _ = model.forward_step(token, cache)
        step += 1
        if step < len(prompt):
            token = prompt[step]
            continue
        nxt = int(np.argmax(z))
        toks_bare.append(nxt)
        z_bare.append(z)
        if nxt == TINY.vocab - 1 or len(toks_bare) >= 8:
            break
        token = nxt
    wall = time.time() - t0
    identical = toks_chain == toks_bare and all(
        np.array_equal(a, b) for a, b in zip(z_chain, z_bare)
    )
    print(f"criterion 9 (base-model recovery): bit-identical={identical}, "
          f"{wall:.1f}s -> {'PASS' if identical else 'FAIL'}")
    assert toks_chain == toks_bare
    for a, b in zip(z_chain, z_bare):
        assert np.array_equal(a, b)
    assert wall < 60.0
