"""Tests for the toy decoder-only transformer."""

import copy
import dataclasses
import pickle
import sys
from pathlib import Path

import numpy as np
import pytest

from chainboost import model as model_mod
from chainboost.model import (
    ContractError,
    KV_FIRST_ROOM,
    LAYER_VECTORS,
    KvCache,
    ModelSpec,
    TransformerModel,
    _attention,
    _attention_backward,
    _ln_backward,
    _ln_forward,
    _weight_grad,
    gelu,
    gelu_grad,
    gelu_tanh,
    is_factor,
)
from chainboost.numkit import ShapeError, layer_norm
from chainboost.training import flatten_params, load_flat_params, sgd_step, trainable_keys
from oracles import forward_teacher

SMALL = ModelSpec(
    n_layers=3, d_model=16, n_heads=2, d_ff=32, vocab=12, max_steps=16,
    fusion_period=2, adapter_rank=0, seed=7,
)


def small_model(rank=0, seed=7):
    import dataclasses

    return TransformerModel(dataclasses.replace(SMALL, adapter_rank=rank, seed=seed))


def greedy_logits(model, prompt=(3, 1, 4), steps=6):
    """The logits of a greedy one-token decode: the prompt's last step and
    each step after it."""
    cache = KvCache(model.spec.n_layers)
    for t in prompt:
        z, _, _ = model.forward_step(t, cache)
    out = [z]
    for _ in range(steps):
        z, _, _ = model.forward_step(int(np.argmax(z)), cache)
        out.append(z)
    return np.array(out)


class TestModelSpec:
    @pytest.mark.parametrize("value", [2.5, True, "4", None, -1])
    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(ModelSpec)])
    def test_every_field_is_a_bounded_int(self, field, value):
        with pytest.raises(ValueError, match=rf"{field} must be an integer >= [01], got {value!r}"):
            dataclasses.replace(SMALL, **{field: value})

    def test_zero_only_for_adapter_rank_and_seed(self):
        for f in dataclasses.fields(ModelSpec):
            if f.name in ("adapter_rank", "seed"):
                dataclasses.replace(SMALL, **{f.name: 0})
            else:  # n_heads 0 is refused before d_model % n_heads
                with pytest.raises(ValueError, match=f"{f.name} must be an integer >= 1, got 0"):
                    dataclasses.replace(SMALL, **{f.name: 0})


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


class TestKvCache:
    """Each step writes its keys and values into a layer buffer that grows by
    doubling; what extend returns equals the concatenation of every step, and
    a view handed out keeps its bits through later writes and growths."""

    @pytest.mark.parametrize("first", [1, 3, KV_FIRST_ROOM + 1])
    @pytest.mark.parametrize("heads, dh", [(1, 4), (3, 2)])
    @pytest.mark.parametrize("B", [1, 3])
    def test_extend_equals_concatenation(self, B, heads, dh, first):
        rng = np.random.default_rng(B * 100 + heads * 10 + first)
        cache = KvCache(2)
        steps = [[], []]
        handed_out = []  # (view, its bits as a fresh array)
        rooms = [set(), set()]
        for T in [first] + [1] * (3 * KV_FIRST_ROOM):
            for layer in (0, 1):
                kv = rng.standard_normal((2, B, heads, T, dh))
                steps[layer].append(kv)
                out = cache.extend(layer, kv)
                expect = np.concatenate(steps[layer], axis=3)
                assert out is cache.kv[layer]
                assert np.array_equal(out, expect)
                handed_out.append((out, expect))
                rooms[layer].add(out.base.shape[3])
            assert cache.step_count == first + len(steps[0]) - 1
            for view, bits in handed_out:
                assert np.array_equal(view, bits)
        # buffers of 16, 32 and 64 steps, or of 17, 34 and 68: two growths
        assert rooms == [{max(first, KV_FIRST_ROOM) * r for r in (1, 2, 4)}] * 2

    def test_empty_cache_counts_no_steps(self):
        assert KvCache(3).step_count == 0


class TestForwardTeacher:
    def test_length_one_equals_single_step(self):
        m = small_model()
        trace = forward_teacher(m, [4])
        z, states, _ = m.forward_step(4, KvCache(SMALL.n_layers))
        assert np.array_equal(trace.logits[0], z)
        assert np.array_equal(trace.hidden[0], np.stack(states))

    def test_equals_step_fold(self):
        m = small_model()
        toks = [1, 5, 2, 9, 0]
        trace = forward_teacher(m, toks)
        cache = KvCache(SMALL.n_layers)
        for t, tok in enumerate(toks):
            z, states, cache = m.forward_step(tok, cache)
            assert np.array_equal(trace.logits[t], z)
            assert np.array_equal(trace.hidden[t], np.stack(states))

    def test_causality(self):
        m = small_model()
        a = forward_teacher(m, [1, 2, 3, 4, 5])
        b = forward_teacher(m, [1, 2, 3, 9, 11])
        assert np.array_equal(a.logits[:3], b.logits[:3])
        assert not np.array_equal(a.logits[3:], b.logits[3:])

    def test_length_overflow(self):
        m = small_model()
        with pytest.raises(IndexError):
            forward_teacher(m, [0] * (SMALL.max_steps + 1))

    def test_fusion_period_above_layers_is_identity(self):
        spec = ModelSpec(
            n_layers=3, d_model=16, n_heads=2, d_ff=32, vocab=12, max_steps=16,
            fusion_period=5, adapter_rank=0, seed=7,
        )
        m = TransformerModel(spec)
        base = TransformerModel(SMALL)
        t1 = forward_teacher(m, [1, 2, 3])
        t2 = forward_teacher(base, [1, 2, 3])
        assert np.array_equal(t1.logits, t2.logits)


def qkv_blocks(m, l):
    """The wq, wk and wv column blocks of layer l's view wqkv, by name."""
    d, wqkv = m.spec.d_model, m.layer_params(l)["wqkv"]
    return {name: wqkv[:, i * d : (i + 1) * d] for i, name in enumerate(("wq", "wk", "wv"))}


class TestAdapters:
    def test_rank_zero_identity(self):
        m = small_model()
        for name, block in qkv_blocks(m, 1).items():
            assert np.array_equal(block, m.params["l1." + name]), name

    def test_zero_b_identity(self):
        m = small_model(rank=2)
        assert not m.params["l1.wq.B"].any() and m.params["l1.wq.A"].any()
        for name, block in qkv_blocks(m, 1).items():
            assert np.array_equal(block, m.params["l1." + name]), name

    def test_matches_dense_product(self):
        m = small_model(rank=2)
        rng = np.random.default_rng(2)
        a, b = m.params["l2.wv.A"], m.params["l2.wv.B"]
        m.write([("l2.wv.A", rng.normal(size=a.shape)), ("l2.wv.B", rng.normal(size=b.shape))])
        blocks = qkv_blocks(m, 2)
        assert np.array_equal(blocks["wv"], m.params["l2.wv"] + a @ b)
        # wq's B is still zero, and wk carries no factors
        assert np.array_equal(blocks["wq"], m.params["l2.wq"])
        assert np.array_equal(blocks["wk"], m.params["l2.wk"])

    def test_fresh_adapter_is_noop_in_forward(self):
        # B starts at zero, so an adapted model forward equals the base model
        m0 = small_model()
        m1 = small_model(rank=4)
        t0 = forward_teacher(m0, [3, 1, 4])
        t1 = forward_teacher(m1, [3, 1, 4])
        assert np.array_equal(t0.logits, t1.logits)


class TestWriter:
    """params and the cached views are read-only; write() is the one writer."""

    def test_params_refuse_writes(self):
        m = small_model(rank=2)
        with pytest.raises(ValueError, match="read-only"):
            m.params["l1.wq"][0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            m.params["l1.wq.B"] += 1.0
        with pytest.raises(TypeError):
            m.params["l1.wq"] = np.zeros_like(m.params["l1.wq"])
        with pytest.raises(AttributeError):
            m.params = {}

    def test_cached_views_refuse_writes(self):
        views = small_model(rank=2).param_views()
        with pytest.raises(ValueError, match="read-only"):
            views[0]["tok_emb"][0, 0] = 1.0
        for view in views[1:]:
            for name, arr in view.items():
                with pytest.raises(ValueError, match="read-only"):
                    arr[...] = 0.0

    def test_views_hold_vectors_at_the_activations_rank(self):
        # (1, 1, n) views of the params arrays, which a one-row step meets at equal shapes
        m = small_model(rank=2)
        for l, view in enumerate(m.param_views()[1:], start=1):
            for name in LAYER_VECTORS:
                arr = m.params[f"l{l}.{name}"]
                assert view[name].shape == (1, 1) + arr.shape and arr.ndim == 1
                assert np.shares_memory(view[name], arr)

    def test_write_checks_shapes_and_moves_the_version_on(self):
        m = small_model()
        version, before = m.version, m.params["unemb"].copy()
        with pytest.raises(ValueError, match="does not match unemb"):
            m.write([("unemb", np.zeros(3))])
        with pytest.raises(KeyError):
            m.write([("l9.wq", np.zeros(3))])
        assert m.version == version + 2
        assert np.array_equal(m.params["unemb"], before)

    @pytest.mark.parametrize("duplicate", [
        copy.copy, copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))],
        ids=["copy", "deepcopy", "pickle"])
    def test_copies_decode_alike_and_own_their_arrays(self, duplicate):
        m = small_model(rank=2)
        rng = np.random.default_rng(3)
        m.write((k, 0.1 * rng.standard_normal(v.shape)) for k, v in m.params.items() if k.endswith(".B"))
        before = greedy_logits(m)  # with m's views built and cached
        c = duplicate(m)
        assert c.version == m.version and c.spec == m.spec
        assert greedy_logits(c).tobytes() == before.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            c.params["l1.wq"][0, 0] = 1.0
        c.write((k, v + 0.5) for k, v in c.params.items())
        assert not np.array_equal(greedy_logits(c), before)
        assert greedy_logits(m).tobytes() == before.tobytes()


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
        target = m.params[name]
        g = m.flat_blocks(None, m.backward(dz, acts))[name]
        if target.ndim == 1:
            idx = [(0,), (target.shape[0] - 1,)]
        else:
            idx = [(0, 0), (target.shape[0] - 1, target.shape[-1] - 1)]
        eps = 1e-5

        def put(ij, value):
            w = target.copy()
            w[ij] = value
            m.write([(name, w)])

        for ij in idx:
            orig = target[ij]
            put(ij, orig + eps)
            lp = loss()
            put(ij, orig - eps)
            lm = loss()
            put(ij, orig)
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

    @pytest.mark.parametrize("per_sample", [False, True])
    def test_activations_of_another_version_are_refused(self, per_sample):
        # a write updates the arrays the forward's views read in place, so the
        # old activations would mix two versions' weights into one gradient
        m, tokens = small_model(rank=2), np.array([[1, 5, 2], [0, 3, 7]])
        dz = np.random.default_rng(4).standard_normal((2, 3, SMALL.vocab))
        _, acts = m.forward_train(tokens)
        old = m.version
        m.write([("unemb", m.params["unemb"] + 1.0), ("l2.wq.B", m.params["l2.wq.B"] + 0.5)])
        with pytest.raises(ContractError, match=rf"version {old} .* version {old + 1};"):
            m.backward(dz, acts, per_sample=per_sample)
        _, acts = m.forward_train(tokens)
        fresh = copy.deepcopy(m)
        want = fresh.backward(dz, fresh.forward_train(tokens)[1], per_sample=per_sample)
        assert np.array_equal(m.backward(dz, acts, per_sample=per_sample), want)

    @pytest.mark.parametrize("per_sample", [False, True])
    def test_activations_of_another_model_are_refused(self, per_sample):
        # two fresh models stand at one version, so the version alone let
        # one model's activations through the other's backward
        a, b = (TransformerModel(ModelSpec(adapter_rank=2, seed=seed)) for seed in (0, 5))
        assert a.version == b.version == 1
        tokens = np.array([[1, 5, 2], [0, 3, 7]])
        dz = np.random.default_rng(4).standard_normal((2, 3, a.spec.vocab))
        with pytest.raises(ContractError, match="another model's forward_train"):
            a.backward(dz, b.forward_train(tokens)[1], per_sample=per_sample)
        _, acts = a.forward_train(tokens)
        twin = copy.deepcopy(a)  # equal parameters and version, still another model
        with pytest.raises(ContractError, match="another model's forward_train"):
            twin.backward(dz, acts, per_sample=per_sample)

    @pytest.mark.parametrize("per_sample", [False, True])
    def test_own_activations_pass(self, per_sample):
        a, b = (TransformerModel(ModelSpec(adapter_rank=2, seed=seed)) for seed in (0, 5))
        tokens = np.array([[1, 5, 2], [0, 3, 7]])
        dz = np.random.default_rng(4).standard_normal((2, 3, a.spec.vocab))
        _, acts = a.forward_train(tokens)
        b.backward(dz, b.forward_train(tokens)[1], per_sample=per_sample)
        twin = copy.deepcopy(a)
        want = twin.backward(dz, twin.forward_train(tokens)[1], per_sample=per_sample)
        assert np.array_equal(a.backward(dz, acts, per_sample=per_sample), want)


KEY_SETS = {
    "adapters": lambda m: [k for k in m.params if is_factor(k)],
    "full": lambda m: [k for k in m.params if not is_factor(k)],
    "one_factor": lambda m: ["l1.wq.A"] if "l1.wq.A" in m.params else ["l1.wq"],
    "embeddings": lambda m: ["pos_emb", "tok_emb"],
    "mixed": lambda m: ["unemb", "l2.wk", "l3.ln_attn_g", "l1.b1", "l2.ln_mlp_b"]
                       + (["l2.wv.B"] if "l2.wv.B" in m.params else []),
}


def keyed_case(rank, fusion_period, fused):
    """(model, dlogits, acts) of one forward_train; rank > 0 gets nonzero B factors."""
    import dataclasses

    spec = dataclasses.replace(SMALL, adapter_rank=rank, fusion_period=fusion_period, seed=13)
    m = TransformerModel(spec)
    rng = np.random.default_rng(8)
    m.write((k, rng.normal(0, 0.1, v.shape)) for k, v in m.params.items() if k.endswith(".B"))
    tokens = rng.integers(0, spec.vocab, (3, 5))
    fusion_in = None
    if fused:
        fusion_in = {l: rng.standard_normal((3, 5, spec.d_model)) for l in spec.fusion_layers()}
    logits, acts = m.forward_train(tokens, fusion_in)
    return m, rng.standard_normal(logits.shape), acts


class TestKeyedBackward:
    """backward(keys=...) returns exactly the blocks of the keys asked for,
    each bit for bit that key's block of the full call, and skips the work
    of the others."""

    @pytest.mark.parametrize("per_sample", [False, True], ids=["batch", "per_sample"])
    @pytest.mark.parametrize("keyset", list(KEY_SETS))
    @pytest.mark.parametrize("rank,fusion_period,fused", [
        (3, 2, True), (3, 1, True), (3, 2, False), (0, 2, True), (0, 1, True),
    ], ids=["rank3_fused", "rank3_period1", "rank3_plain", "rank0_fused", "rank0_period1"])
    def test_equals_full_backward(self, rank, fusion_period, fused, keyset, per_sample):
        m, dz, acts = keyed_case(rank, fusion_period, fused)
        keys = KEY_SETS[keyset](m)
        full = m.flat_blocks(None, m.backward(dz, acts, per_sample=per_sample))
        got = m.flat_blocks(keys, m.backward(dz, acts, per_sample=per_sample, keys=keys))
        for k in keys:
            assert np.array_equal(got[k], full[k]), k

    @pytest.mark.parametrize("bad", ["l9.wq", "l1.wk.A", "unemb.A"])
    def test_unknown_key_raises(self, bad):
        m, dz, acts = keyed_case(3, 2, False)
        with pytest.raises(KeyError, match=bad.replace(".", r"\.")):
            m.backward(dz, acts, keys=["unemb", bad])

    @pytest.mark.parametrize("keyset,weight_grads,ln_backwards", [
        ("full", 3 * 6 + 1, 3 * 2 + 3), ("adapters", 3 * 2, 3 * 2 + 2),
        ("embeddings", 0, 3 * 2 + 3),
    ])
    def test_skipped_work_is_not_done(self, keyset, weight_grads, ln_backwards, monkeypatch):
        # fusion_period 1: every layer, layer 1 too, runs a fusion-norm backward
        m, dz, acts = keyed_case(3, 1, True)
        calls = {"_weight_grad": 0, "_ln_backward": 0}
        for name in calls:
            orig = getattr(model_mod, name)

            def counted(*args, _orig=orig, _name=name):
                calls[_name] += 1
                return _orig(*args)

            monkeypatch.setattr(model_mod, name, counted)
        m.backward(dz, acts, keys=KEY_SETS[keyset](m))
        assert calls == {"_weight_grad": weight_grads, "_ln_backward": ln_backwards}


class TestCheckpoint:
    def test_bit_exact_roundtrip(self, tmp_path):
        m = small_model(rank=4)
        rng = np.random.default_rng(5)
        m.write((k, rng.normal(0, 0.1, v.shape)) for k, v in m.params.items() if k.endswith(".B"))
        p = tmp_path / "ck.npz"
        m.save(p)
        m2 = TransformerModel.load(p)
        assert m2.spec == m.spec
        assert list(m2.params) == list(m.params)
        for k in m.params:
            assert np.array_equal(m.params[k], m2.params[k]), k
        a = forward_teacher(m, [1, 2, 3]).logits
        b = forward_teacher(m2, [1, 2, 3]).logits
        assert np.array_equal(a, b)

    def test_pinned_checkpoint_loads_and_resaves_identically(self, tmp_path):
        # data/tiny_rank2.npz was written while adapter factors still lived
        # outside params: TINY (n_layers 2, d_model 16, d_ff 32, vocab 12,
        # max_steps 12) at adapter_rank 2, seed 5, every B drawn N(0, 0.1)
        # from default_rng(6)
        pinned = Path(__file__).parent / "data" / "tiny_rank2.npz"
        m = TransformerModel.load(pinned)
        assert m.spec.adapter_rank == 2
        assert all(m.params[f"l{l}.{w}.B"].any() for l in (1, 2) for w in ("wq", "wv"))
        m.save(tmp_path / "again.npz")
        with np.load(pinned) as old, np.load(tmp_path / "again.npz") as new:
            assert new.files == old.files
            for name in old.files:  # the header included
                assert new[name].dtype == old[name].dtype, name
                assert np.array_equal(new[name], old[name]), name

    def test_version_check(self, tmp_path):
        m = small_model()
        p = tmp_path / "ck.npz"
        m.save(p)
        import json
        data = dict(np.load(p, allow_pickle=False))
        header = json.loads(bytes(data["header"]).decode())
        for version in (999, True):  # True == 1, but it is not the int 1
            header["format_version"] = version
            data["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
            np.savez(p, **data)
            with pytest.raises(ValueError, match=f"unsupported checkpoint format version {version}"):
                TransformerModel.load(p)

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (lambda d: d.update({"param.l1.wk": d["param.l1.wk"][:, :8]}),
             r"'param.l1.wk' has shape \(16, 8\), its spec needs \(16, 16\)"),
            (lambda d: d.pop("param.l2.b1"), "'param.l2.b1' is missing"),
            (lambda d: d.pop("adapter.l1.wv.B"), "'adapter.l1.wv.B' is missing"),
            (lambda d: d.update({"param.l9.wq": d["param.l1.wq"]}), "'param.l9.wq' is not in its spec"),
            (lambda d: d.update({"adapter.l1.wq.A": d["adapter.l1.wq.A"][:12]}),
             r"'adapter.l1.wq.A' has shape \(12, 4\), its spec needs \(16, 4\)"),
        ],
        ids=["shape", "missing_param", "missing_adapter_factor", "extra", "adapter_factor_shape"],
    )
    def test_arrays_checked_against_spec(self, tmp_path, tamper, message):
        p = tmp_path / "ck.npz"
        small_model(rank=4).save(p)
        data = dict(np.load(p, allow_pickle=False))
        tamper(data)
        np.savez(p, **data)
        with pytest.raises(ValueError, match=message):
            TransformerModel.load(p)

    def test_dtype_check(self, tmp_path):
        import json

        p = tmp_path / "ck.npz"
        small_model().save(p)
        data = dict(np.load(p, allow_pickle=False))
        header = json.loads(bytes(data["header"]).decode())
        assert header["dtype"] == "float64"
        header["dtype"] = "float32"
        data["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
        np.savez(p, **data)
        with pytest.raises(ValueError, match="float32"):
            TransformerModel.load(p)


class TestForwardTrain:
    def test_matches_teacher(self):
        toks = np.array([[1, 5, 2, 9], [0, 3, 3, 7]])
        plain = small_model()
        # a fused model with nonzero adapters, reading another model's states
        fused = small_model(rank=3, seed=8)
        rng = np.random.default_rng(9)
        fused.write((k, rng.normal(0, 0.2, v.shape))
                    for k, v in fused.params.items() if k.endswith(".B"))
        _, acts = small_model(seed=10).forward_train(toks)
        fusion = {l: acts["states"][l - 1] for l in SMALL.fusion_layers()}
        for m, fusion_in in ((plain, None), (fused, fusion)):
            logits, _ = m.forward_train(toks, fusion_in)
            for b in range(2):
                row = None if fusion_in is None else {l: f[b] for l, f in fusion_in.items()}
                trace = forward_teacher(m, toks[b], row)
                assert np.allclose(logits[b], trace.logits, atol=1e-10)

    def test_rejects_negative_token(self):
        with pytest.raises(IndexError, match="token id -1"):
            small_model().forward_train(np.array([[1, -1]]))

    @pytest.mark.parametrize("tokens, error, message", [
        ([[1.5, 2.0]], ValueError, "integer dtype, got float64"),
        ([[True, False]], ValueError, "integer dtype, got bool"),
        ([1, 2], ShapeError, r"must be \(B, T\), got shape \(2,\)"),
        ([[[1, 2]]], ShapeError, r"must be \(B, T\), got shape \(1, 1, 2\)"),
    ], ids=["float", "bool", "1d", "3d"])
    def test_rejects_a_batch_not_2d_of_integers(self, tokens, error, message):
        with pytest.raises(error, match=message):
            small_model().forward_train(np.array(tokens))

    def test_missing_fusion_layer_is_contract_error(self):
        with pytest.raises(ContractError, match="fusion layer 2"):
            small_model().forward_train(np.array([[1, 2]]), fusion_in={})

    @pytest.mark.parametrize("shape", [(2, 3, 5), (3, 3, 16), (2, 3, 16, 1), (1, 2, 3, 16), (4, 16)])
    def test_fusion_input_that_does_not_broadcast_is_contract_error(self, shape):
        # not numpy's "operands could not be broadcast together" from inside the walk
        message = rf"fusion input of shape \({', '.join(map(str, shape))},?\) for fusion layer 2"
        with pytest.raises(ContractError, match=message):
            small_model().forward_train(np.ones((2, 3), dtype=int), fusion_in={2: np.zeros(shape)})

    @pytest.mark.parametrize("layer", [1, 3, 4])
    @pytest.mark.parametrize("call", ["forward_train", "forward_step"])
    def test_fusion_input_at_a_layer_that_does_not_fuse_is_contract_error(self, call, layer):
        # the walk fuses at fusion_in's keys: a stray one must not reach it
        fusion_in, m = {2: np.zeros(16), layer: np.zeros(16)}, small_model()
        with pytest.raises(ContractError, match=rf"fusion input for layer {layer}, which does not fuse"):
            if call == "forward_train":
                m.forward_train(np.ones((2, 3), dtype=int), fusion_in)
            else:
                m.forward_step(1, KvCache(SMALL.n_layers), fusion_in)

    @pytest.mark.parametrize("shape", [(2, 3, 16), (1, 1, 16), (2, 1, 16), (3, 16), (16,), (1,), ()])
    def test_fusion_input_that_broadcasts_is_accepted(self, shape):
        m, tokens = small_model(), np.ones((2, 3), dtype=int)
        got, _ = m.forward_train(tokens, {2: np.full(shape, 0.5)})
        want, _ = m.forward_train(tokens, {2: np.full((2, 3, 16), 0.5)})
        assert np.array_equal(got, want)


class TestLayoutsAndMasks:
    """layout() is built once per model and key tuple and starts empty on
    every new model, copy, unpickled model and loaded checkpoint; the
    causal mask is built once per (T, t0) and refuses writes."""

    def test_layout_is_built_once_per_key_tuple(self):
        m = small_model(rank=2)
        keys = ["unemb", "l1.wq.A", "tok_emb"]
        first = m.layout(keys)
        assert m.layout(tuple(keys)) is first and m.layout(list(keys)) is first
        assert m.layout(None) is m.layout() and m.layout() is not first
        slots, width, want = first
        assert [s[0] for s in slots] == keys and want == set(keys)
        assert width == sum(m.params[k].size for k in keys) == slots[-1][2]
        m.write([("unemb", m.params["unemb"] + 1.0)])  # a write keeps shapes, so the layout stands
        assert m.layout(keys) is first
        assert [(s[0], s[3]) for s in m.layout()[0]] == [(k, v.shape) for k, v in m.params.items()]

    def test_backward_sgd_step_and_load_share_one_build(self, monkeypatch):
        # a spy on the build: each build makes the layout's key set once
        m = small_model(rank=2)
        keys = trainable_keys(m, "adapters")
        builds = []
        monkeypatch.setattr(model_mod, "frozenset",
                            lambda names: builds.append(names) or frozenset(names), raising=False)
        for _ in range(3):  # each round's writes move the version on: forward again
            _, acts = m.forward_train(np.ones((2, 3), dtype=int))
            grads = m.backward(np.ones((2, 3, SMALL.vocab)), acts, keys=keys)
            sgd_step(m, grads, 0.1, keys)
            load_flat_params(m, keys, flatten_params(m, keys))
            blocks = m.flat_blocks(keys, grads)
        assert builds == [tuple(keys)]
        assert all(np.shares_memory(block, grads) for block in blocks.values())

    def test_layouts_are_bounded(self):
        m = small_model()
        keys = list(m.params)
        for n in range(1, model_mod.LAYOUTS_KEPT + 3):
            m.layout(keys[:n])
        assert len(m._layouts) == model_mod.LAYOUTS_KEPT
        assert tuple(keys[:1]) not in m._layouts and tuple(keys[: model_mod.LAYOUTS_KEPT + 2]) in m._layouts

    @pytest.mark.parametrize("how", ["copy", "deepcopy", "pickle", "load"])
    def test_a_copy_starts_with_no_layouts(self, how, tmp_path):
        m = small_model(rank=2)
        m.layout()
        m.layout(["unemb"])
        if how == "load":
            m.save(tmp_path / "m.npz")
            other = TransformerModel.load(tmp_path / "m.npz")
        else:
            other = {"copy": copy.copy, "deepcopy": copy.deepcopy,
                     "pickle": lambda x: pickle.loads(pickle.dumps(x))}[how](m)
        assert other._layouts == {} and len(m._layouts) == 2
        assert other.layout() is not m.layout() and other.layout() == m.layout()

    def test_models_built_and_freed_in_turn_never_share_a_layout(self):
        # ids are reused once a model is freed, so a cache keyed on id(params)
        # would hand a new model a dead one's layout: a layout lives and dies
        # with its model, and once the model is gone only this test holds it
        specs = [SMALL, dataclasses.replace(SMALL, d_model=8, d_ff=8, vocab=6, adapter_rank=1)]
        for i in range(40):
            spec = specs[i % 2]
            m = TransformerModel(spec)
            layout = m.layout()
            slots, width, _ = layout
            assert width == sum(v.size for v in m.params.values())
            assert [(s[0], s[3]) for s in slots] == [(k, v.shape) for k, v in m.params.items()]
            grads = m.backward(np.zeros((1, 2, spec.vocab)), m.forward_train(np.ones((1, 2), dtype=int))[1])
            assert grads.shape == (width,)
            del m, slots
            alone = tuple(list(layout))
            assert sys.getrefcount(layout) == sys.getrefcount(alone)

    @pytest.mark.parametrize("T,t0", [(2, 0), (5, 0), (3, 4)])
    def test_causal_mask_is_shared_and_read_only(self, T, t0):
        mask = model_mod.causal_mask(T, t0)
        assert model_mod.causal_mask(T, t0) is mask
        assert np.array_equal(mask, np.triu(np.full((T, t0 + T), -1e30), k=t0 + 1))
        with pytest.raises(ValueError, match="read-only"):
            mask[0, -1] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            mask += 1.0


def _gelu_pow_reference(x):
    # the tanh GELU with the cube taken through pow, as first written
    c = np.sqrt(2.0 / np.pi)
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x**3)))


class TestGelu:
    X = np.random.default_rng(21).normal(0.0, 2.0, size=(4, 9, 32))

    def test_matches_pow_formula(self):
        ref = _gelu_pow_reference(self.X)
        # relative to the largest output: where x is very negative, 1 + tanh
        # cancels and an ulp in the cube shows up as a larger elementwise ratio
        rel = np.abs(gelu(self.X, gelu_tanh(self.X)) - ref).max() / np.abs(ref).max()
        assert rel <= 1e-15

    def test_grad_matches_central_difference(self):
        x = np.linspace(-6.0, 6.0, 241)
        eps = 1e-6
        fd = (gelu(x + eps, gelu_tanh(x + eps)) - gelu(x - eps, gelu_tanh(x - eps))) / (2 * eps)
        np.testing.assert_allclose(gelu_grad(x, gelu_tanh(x)), fd, rtol=0, atol=1e-8)


class TestBlasShapedGradients:
    B, T, H, DH = 3, 7, 4, 8

    def test_weight_grad_matches_einsum(self):
        rng = np.random.default_rng(22)
        x = rng.normal(size=(self.B, self.T, 16))
        dy = rng.normal(size=(self.B, self.T, 24))
        ref = np.einsum("btd,bte->de", x, dy)
        np.testing.assert_allclose(_weight_grad(x, dy, False, None), ref, rtol=0, atol=1e-12)

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


class TestOverheadCuts:
    """Cheaper spellings of the same arithmetic must not change a bit."""

    def test_layer_norm_matches_mean_formula(self):
        rng = np.random.default_rng(24)
        x, dy = rng.normal(size=(3, 5, 32)), rng.normal(size=(3, 5, 32))
        gain, bias = rng.normal(size=32), rng.normal(size=32)

        xc = x - x.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-5)
        xhat = xc * inv
        y, (got_xhat, got_inv) = _ln_forward(x, gain, bias)
        assert np.array_equal(y, gain * xhat + bias)
        assert np.array_equal(got_xhat, xhat) and np.array_equal(got_inv, inv)

        dxhat = dy * gain
        dx = inv * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )
        assert np.array_equal(_ln_backward(dy, (xhat, inv), gain), dx)

    def test_one_token_attention_without_mask(self):
        # a one-token step's causal mask is all zeros; skipping it changes no bit
        rng = np.random.default_rng(25)
        qh = rng.normal(size=(3, 2, 1, 8))
        kh, vh = rng.normal(size=(3, 2, 6, 8)), rng.normal(size=(3, 2, 6, 8))
        zeros = np.triu(np.full((1, 6), -1e30), k=6)
        assert not zeros.any()
        for got, want in zip(_attention(qh, kh, vh, 0.25), _attention(qh, kh, vh, 0.25, zeros)):
            assert np.array_equal(got, want)
