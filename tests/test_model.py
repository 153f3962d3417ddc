"""Tests for the toy decoder-only transformer."""

import numpy as np
import pytest

from chainboost.model import (
    Adapter,
    ContractError,
    KvCache,
    ModelSpec,
    TransformerModel,
    _attention,
    _attention_backward,
    _weight_grad,
    apply_adapter,
    gelu,
    gelu_grad,
    gelu_tanh,
)
from chainboost.numkit import layer_norm

SMALL = ModelSpec(
    n_layers=3, d_model=16, n_heads=2, d_ff=32, vocab=12, max_steps=16,
    fusion_period=2, adapter_rank=0, seed=7,
)


def small_model(rank=0, seed=7):
    import dataclasses

    return TransformerModel(dataclasses.replace(SMALL, adapter_rank=rank, seed=seed))


class TestForwardStep:
    def test_deterministic(self):
        m = small_model()
        z1, s1, _ = m.forward_step(3, KvCache(SMALL.n_layers))
        z2, s2, _ = m.forward_step(3, KvCache(SMALL.n_layers))
        assert np.array_equal(z1, z2)
        for a, b in zip(s1, s2):
            assert np.array_equal(a, b)

    def test_token_range(self):
        m = small_model()
        with pytest.raises(IndexError):
            m.forward_step(SMALL.vocab, KvCache(SMALL.n_layers))

    def test_step_overflow(self):
        m = small_model()
        cache = KvCache(SMALL.n_layers)
        for _ in range(SMALL.max_steps):
            m.forward_step(0, cache)
        with pytest.raises(IndexError):
            m.forward_step(0, cache)

    def test_missing_fusion_vector(self):
        m = small_model()
        with pytest.raises(ContractError):
            m.forward_step(0, KvCache(SMALL.n_layers), fusion_in={})

    def test_self_fusion_matches_recompute(self):
        # feeding the model's own pre-layer states: fused input is
        # LayerNorm(2 * h_own), recomputed here outside the model
        m = small_model()
        _, states, _ = m.forward_step(5, KvCache(SMALL.n_layers))
        fusion = {l: states[l - 1] for l in SMALL.fusion_layers()}
        _, fused_states, _ = m.forward_step(5, KvCache(SMALL.n_layers), fusion_in=fusion)
        # check the first fusion layer's input transformation directly
        l = SMALL.fusion_layers()[0]
        expect = layer_norm(2.0 * states[l - 1], 1.0, 0.0, 1e-5)
        direct = layer_norm(states[l - 1] + fusion[l], 1.0, 0.0, 1e-5)
        assert np.allclose(expect, direct, atol=1e-14)
        # h_own is a post-norm output (zero mean, ~unit variance), so
        # LayerNorm(2 h_own) is nearly h_own again and the fused run only
        # shifts by the eps term: different bits, close values
        assert not np.array_equal(fused_states[l], states[l])
        assert np.allclose(fused_states[l], states[l], atol=1e-3)


class TestForwardTeacher:
    def test_length_one_equals_single_step(self):
        m = small_model()
        trace = m.forward_teacher([4])
        z, states, _ = m.forward_step(4, KvCache(SMALL.n_layers))
        assert np.array_equal(trace.logits[0], z)
        assert np.array_equal(trace.hidden[0], np.stack(states))

    def test_equals_step_fold(self):
        m = small_model()
        toks = [1, 5, 2, 9, 0]
        trace = m.forward_teacher(toks)
        cache = KvCache(SMALL.n_layers)
        for t, tok in enumerate(toks):
            z, states, cache = m.forward_step(tok, cache)
            assert np.array_equal(trace.logits[t], z)
            assert np.array_equal(trace.hidden[t], np.stack(states))

    def test_causality(self):
        m = small_model()
        a = m.forward_teacher([1, 2, 3, 4, 5])
        b = m.forward_teacher([1, 2, 3, 9, 11])
        assert np.array_equal(a.logits[:3], b.logits[:3])
        assert not np.array_equal(a.logits[3:], b.logits[3:])

    def test_length_overflow(self):
        m = small_model()
        with pytest.raises(IndexError):
            m.forward_teacher([0] * (SMALL.max_steps + 1))

    def test_fusion_period_above_layers_is_identity(self):
        spec = ModelSpec(
            n_layers=3, d_model=16, n_heads=2, d_ff=32, vocab=12, max_steps=16,
            fusion_period=5, adapter_rank=0, seed=7,
        )
        m = TransformerModel(spec)
        base = TransformerModel(SMALL)
        t1 = m.forward_teacher([1, 2, 3])
        t2 = base.forward_teacher([1, 2, 3])
        assert np.array_equal(t1.logits, t2.logits)


class TestAdapters:
    def test_rank_zero_identity(self):
        w = np.eye(4)
        assert apply_adapter(w, None) is w

    def test_zero_b_identity(self):
        w = np.random.default_rng(0).normal(size=(4, 4))
        ad = Adapter("wq", A=np.random.default_rng(1).normal(size=(4, 2)), B=np.zeros((2, 4)))
        assert np.array_equal(apply_adapter(w, ad), w)

    def test_matches_dense_product(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(4, 4))
        a, b = rng.normal(size=(4, 2)), rng.normal(size=(2, 4))
        out = apply_adapter(w, Adapter("wv", A=a, B=b))
        assert np.allclose(out, w + a @ b, atol=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            apply_adapter(np.eye(4), Adapter("wq", A=np.zeros((3, 2)), B=np.zeros((2, 4))))

    def test_fresh_adapter_is_noop_in_forward(self):
        # B starts at zero, so an adapted model forward equals the base model
        m0 = small_model()
        m1 = small_model(rank=4)
        t0 = m0.forward_teacher([3, 1, 4])
        t1 = m1.forward_teacher([3, 1, 4])
        assert np.array_equal(t0.logits, t1.logits)


class TestBackward:
    def _fd_check(self, name, rank=0, tol=2e-4):
        spec = ModelSpec(
            n_layers=2, d_model=8, n_heads=2, d_ff=16, vocab=6, max_steps=8,
            fusion_period=2, adapter_rank=rank, seed=11,
        )
        m = TransformerModel(spec)
        rng = np.random.default_rng(1)
        tokens = rng.integers(0, 6, (2, 4))
        gold = rng.integers(0, 6, (2, 4))

        def loss():
            logits, _ = m.forward_train(tokens)
            p = np.exp(logits - logits.max(-1, keepdims=True))
            p /= p.sum(-1, keepdims=True)
            ce = -np.log(np.take_along_axis(p, gold[..., None], -1))
            return float(ce.sum())

        logits, acts = m.forward_train(tokens)
        p = np.exp(logits - logits.max(-1, keepdims=True))
        p /= p.sum(-1, keepdims=True)
        dz = p.copy()
        np.put_along_axis(dz, gold[..., None], np.take_along_axis(dz, gold[..., None], -1) - 1.0, -1)
        grads = m.backward(dz, acts)

        if name.endswith(".A"):
            target = m.adapters[name[:-2]].A
        elif name.endswith(".B"):
            target = m.adapters[name[:-2]].B
        else:
            target = m.params[name]
        g = grads[name]
        if target.ndim == 1:
            idx = [(0,), (target.shape[0] - 1,)]
        else:
            idx = [(0, 0), (target.shape[0] - 1, target.shape[-1] - 1)]
        eps = 1e-5
        for ij in idx:
            orig = target[ij]
            target[ij] = orig + eps
            lp = loss()
            target[ij] = orig - eps
            lm = loss()
            target[ij] = orig
            fd = (lp - lm) / (2 * eps)
            assert abs(g[ij] - fd) <= tol * max(1.0, abs(fd)), (name, ij, g[ij], fd)

    @pytest.mark.parametrize(
        "name",
        ["tok_emb", "pos_emb", "unemb", "l1.wq", "l1.wo", "l1.w1", "l1.b2",
         "l2.ln_attn_g", "l2.ln_mlp_b", "l1.wk"],
    )
    def test_param_grads_vs_fd(self, name):
        self._fd_check(name)

    @pytest.mark.parametrize("name", ["l1.wq.A", "l1.wq.B", "l2.wv.A", "l2.wv.B"])
    def test_adapter_grads_vs_fd(self, name):
        self._fd_check(name, rank=3)


class TestCheckpoint:
    def test_bit_exact_roundtrip(self, tmp_path):
        m = small_model(rank=4)
        rng = np.random.default_rng(5)
        for ad in m.adapters.values():
            ad.B[...] = rng.normal(0, 0.1, ad.B.shape)
        p = tmp_path / "ck.npz"
        m.save(p)
        m2 = TransformerModel.load(p)
        assert m2.spec == m.spec
        for k in m.params:
            assert np.array_equal(m.params[k], m2.params[k]), k
        for k in m.adapters:
            assert np.array_equal(m.adapters[k].A, m2.adapters[k].A)
            assert np.array_equal(m.adapters[k].B, m2.adapters[k].B)
        a = m.forward_teacher([1, 2, 3]).logits
        b = m2.forward_teacher([1, 2, 3]).logits
        assert np.array_equal(a, b)

    def test_version_check(self, tmp_path):
        m = small_model()
        p = tmp_path / "ck.npz"
        m.save(p)
        import json
        data = dict(np.load(p, allow_pickle=False))
        header = json.loads(bytes(data["header"]).decode())
        header["format_version"] = 999
        data["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
        np.savez(p, **data)
        with pytest.raises(ValueError):
            TransformerModel.load(p)


class TestForwardTrain:
    def test_matches_teacher(self):
        m = small_model()
        toks = np.array([[1, 5, 2, 9], [0, 3, 3, 7]])
        logits, _ = m.forward_train(toks)
        for b in range(2):
            trace = m.forward_teacher(toks[b])
            assert np.allclose(logits[b], trace.logits, atol=1e-10)


def _gelu_pow_reference(x):
    # the tanh GELU with the cube taken through pow, as first written
    c = np.sqrt(2.0 / np.pi)
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x**3)))


class TestGelu:
    X = np.random.default_rng(21).normal(0.0, 2.0, size=(4, 9, 32))

    def test_cached_tanh_is_bit_identical(self):
        t = gelu_tanh(self.X)
        assert np.array_equal(gelu(self.X, t), gelu(self.X))
        assert np.array_equal(gelu_grad(self.X, t), gelu_grad(self.X))

    def test_matches_pow_formula(self):
        ref = _gelu_pow_reference(self.X)
        # relative to the largest output: where x is very negative, 1 + tanh
        # cancels and an ulp in the cube shows up as a larger elementwise ratio
        rel = np.abs(gelu(self.X) - ref).max() / np.abs(ref).max()
        assert rel <= 1e-15

    def test_grad_matches_central_difference(self):
        x = np.linspace(-6.0, 6.0, 241)
        eps = 1e-6
        fd = (gelu(x + eps) - gelu(x - eps)) / (2 * eps)
        np.testing.assert_allclose(gelu_grad(x), fd, rtol=0, atol=1e-8)


class TestBlasShapedGradients:
    B, T, H, DH = 3, 7, 4, 8

    def test_weight_grad_matches_einsum(self):
        rng = np.random.default_rng(22)
        x = rng.normal(size=(self.B, self.T, 16))
        dy = rng.normal(size=(self.B, self.T, 24))
        ref = np.einsum("btd,bte->de", x, dy)
        np.testing.assert_allclose(_weight_grad(x, dy), ref, rtol=0, atol=1e-12)

    def test_attention_matches_einsum(self):
        rng = np.random.default_rng(23)
        shape = (self.B, self.H, self.T, self.DH)
        qh, kh, vh, doh = (rng.normal(size=shape) for _ in range(4))
        scale = 1.0 / np.sqrt(self.DH)
        mask = np.triu(np.full((self.T, self.T), -1e30), k=1)

        scores = np.einsum("bhtd,bhsd->bhts", qh, kh) * scale + mask
        attn_ref = np.exp(scores - scores.max(-1, keepdims=True))
        attn_ref /= attn_ref.sum(-1, keepdims=True)
        oh_ref = np.einsum("bhts,bhsd->bhtd", attn_ref, vh)
        dattn = np.einsum("bhtd,bhsd->bhts", doh, vh)
        dvh_ref = np.einsum("bhts,bhtd->bhsd", attn_ref, doh)
        dscores = attn_ref * (dattn - (dattn * attn_ref).sum(-1, keepdims=True))
        dqh_ref = np.einsum("bhts,bhsd->bhtd", dscores, kh) * scale
        dkh_ref = np.einsum("bhts,bhtd->bhsd", dscores, qh) * scale

        oh, attn = _attention(qh, kh, vh, scale, mask)
        dqh, dkh, dvh = _attention_backward(doh, qh, kh, vh, attn, scale)
        for got, ref in ((attn, attn_ref), (oh, oh_ref), (dqh, dqh_ref), (dkh, dkh_ref), (dvh, dvh_ref)):
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)
