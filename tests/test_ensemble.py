"""Tests for chain wiring: fusion inputs, error tokens, logits fusion."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainboost.ensemble import (
    Ensemble,
    EnsembleSpec,
    build_fusion_inputs,
    error_tokens,
    fuse_hidden,
    fuse_logits,
    load_manifest,
    save_manifest,
    topk_mask,
)
from chainboost.model import ModelSpec
from chainboost.numkit import layer_norm

MS = ModelSpec(
    n_layers=4, d_model=16, n_heads=2, d_ff=32, vocab=12, max_steps=16,
    fusion_period=2, adapter_rank=0, seed=3,
)


class TestEnsembleSpec:
    def test_vocab_mismatch_rejected(self):
        other = dataclasses.replace(MS, vocab=13)
        with pytest.raises(ValueError):
            EnsembleSpec(models=[MS, other], lambdas=[0.3], top_k=2)

    def test_lambda_arity(self):
        with pytest.raises(ValueError):
            EnsembleSpec(models=[MS, MS], lambdas=[0.3, 0.3], top_k=2)

    def test_top_k_range(self):
        with pytest.raises(ValueError):
            EnsembleSpec(models=[MS], lambdas=[], top_k=MS.vocab + 1)


class TestFuseHidden:
    def test_non_fusion_layer_passthrough(self):
        h = np.arange(8.0)
        assert fuse_hidden(h, np.ones(8), l=3, eta=2) is h

    def test_cancellation(self):
        h = np.random.default_rng(0).normal(size=8)
        out = fuse_hidden(h, -h, l=2, eta=2)
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_matches_numkit_oracle(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=8), rng.normal(size=8)
        assert np.array_equal(fuse_hidden(a, b, l=4, eta=2), layer_norm(a + b, 1.0, 0.0, 1e-5))

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            fuse_hidden(np.zeros(4), np.zeros(5), l=2, eta=2)


class TestErrorTokens:
    def test_all_correct_gives_empty(self):
        logits = np.zeros((3, 4))
        logits[np.arange(3), [1, 2, 0]] = 5.0
        trace = error_tokens(logits, [1, 2, 0])
        assert trace.tokens == [None, None, None]

    def test_direct_example(self):
        trace = error_tokens(np.array([[5.0, 1.0, 0.0]]), [1])
        assert trace.tokens == [0]

    def test_brute_force_agreement(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(20, 16))
        gold = rng.integers(0, 16, 20)
        trace = error_tokens(logits, gold)
        for t in range(20):
            pred = int(np.argmax(logits[t]))  # np.argmax is lowest-index on ties
            expect = pred if pred != gold[t] else None
            assert trace.tokens[t] == expect

    def test_never_stores_gold(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(50, 8))
        gold = rng.integers(0, 8, 50)
        trace = error_tokens(logits, gold)
        for t, tok in enumerate(trace.tokens):
            assert tok is None or tok != gold[t]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            error_tokens(np.zeros((3, 4)), [0, 1])

    def test_unlabeled_positions_skipped(self):
        trace = error_tokens(np.array([[5.0, 0.0], [5.0, 0.0]]), [-1, 1])
        assert trace.tokens == [None, 0]


class TestTopkMask:
    def test_k_equals_v(self):
        z = np.array([3.0, -1.0, 2.0])
        assert np.array_equal(topk_mask(z, 3), z)

    def test_single(self):
        assert np.array_equal(topk_mask(np.array([3.0, -1.0, 2.0]), 1), [3.0, 0.0, 0.0])

    def test_tie_lowest_index(self):
        assert np.array_equal(topk_mask(np.array([2.0, 2.0, 1.0]), 1), [2.0, 0.0, 0.0])

    def test_k_out_of_range(self):
        for k in (0, 4):
            with pytest.raises(ValueError):
                topk_mask(np.zeros(3), k)

    @given(st.lists(st.integers(-5, 5), min_size=2, max_size=8), st.data())
    @settings(max_examples=60, deadline=None)
    def test_brute_force_tie_policy(self, vals, data):
        z = np.array(vals, dtype=float)
        k = data.draw(st.integers(1, len(vals)))
        out = topk_mask(z, k)
        # brute force: stable sort by (-value, index), keep first k positions
        order = sorted(range(len(vals)), key=lambda i: (-z[i], i))
        keep = set(order[:k])
        expect = np.array([z[i] if i in keep else 0.0 for i in range(len(vals))])
        assert np.array_equal(out, expect)

    def test_preserves_values_and_positions(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=10)
        out = topk_mask(z, 4)
        nz = out != 0
        assert np.array_equal(out[nz], z[nz])


class TestBatchedFusion:
    def test_batched_equals_per_row_on_ties(self):
        rng = np.random.default_rng(9)
        zs = [rng.integers(-3, 4, size=(5, 7, 8)).astype(float) for _ in range(3)]
        for k in (1, 2, 5, 8):
            masked = topk_mask(zs[1], k)
            fused = fuse_logits(zs, [0.3, 0.7], k)
            for b in range(5):
                for t in range(7):
                    assert np.array_equal(masked[b, t], topk_mask(zs[1][b, t], k))
                    row = fuse_logits([z[b, t] for z in zs], [0.3, 0.7], k)
                    assert np.array_equal(fused[b, t], row)


class TestFuseLogits:
    def test_base_only(self):
        z = np.random.default_rng(5).normal(size=6)
        assert np.array_equal(fuse_logits([z], [], 2), z)

    def test_full_k_unit_lambda(self):
        rng = np.random.default_rng(6)
        a, b = rng.normal(size=6), rng.normal(size=6)
        assert np.allclose(fuse_logits([a, b], [1.0], 6), a + b, atol=1e-15)

    def test_scalar_oracle_two_successors(self):
        rng = np.random.default_rng(7)
        zs = [rng.normal(size=6) for _ in range(3)]
        out = fuse_logits(zs, [0.3, 0.3], 2)
        expect = zs[0].copy()
        for z in zs[1:]:
            kept = sorted(range(6), key=lambda i: (-z[i], i))[:2]
            for i in kept:
                expect[i] += 0.3 * z[i]
        assert np.allclose(out, expect, atol=1e-15)

    def test_untouched_coordinates_exact(self):
        rng = np.random.default_rng(8)
        z0, z1 = rng.normal(size=8), rng.normal(size=8)
        out = fuse_logits([z0, z1], [0.7], 2)
        kept = set(sorted(range(8), key=lambda i: (-z1[i], i))[:2])
        for i in range(8):
            if i not in kept:
                assert out[i] == z0[i]

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            fuse_logits([np.zeros(4), np.zeros(4)], [0.3, 0.3], 2)


class TestBuildFusionInputs:
    def test_period_above_layers_empty(self):
        from chainboost.model import TransformerModel

        m = TransformerModel(MS)
        trace = m.forward_teacher([1, 2, 3])
        assert build_fusion_inputs(trace, eta=5, n_layers=4) == {}

    def test_layer_offset_bookkeeping(self):
        from chainboost.model import TransformerModel

        m = TransformerModel(dataclasses.replace(MS, n_layers=2))
        trace = m.forward_teacher([1, 2])
        fin = build_fusion_inputs(trace, eta=1, n_layers=2)
        assert sorted(fin) == [1, 2]
        # successor layer l reads predecessor layer l-1 (0 = embedding)
        assert np.array_equal(fin[1], trace.hidden[:, 0, :])
        assert np.array_equal(fin[2], trace.hidden[:, 1, :])

    def test_shapes(self):
        from chainboost.model import TransformerModel

        m = TransformerModel(MS)
        trace = m.forward_teacher([1, 2, 3])
        fin = build_fusion_inputs(trace, eta=2, n_layers=4)
        assert sorted(fin) == [2, 4]
        for v in fin.values():
            assert v.shape == (3, MS.d_model)


class TestManifest:
    def test_roundtrip_and_vocab_refusal(self, tmp_path):
        from chainboost.model import TransformerModel

        spec = EnsembleSpec(models=[MS, MS], lambdas=[0.3], top_k=2)
        ens = Ensemble(spec)
        paths = []
        for i, m in enumerate(ens.models):
            p = tmp_path / f"m{i}.npz"
            m.save(p)
            paths.append(p.name)
        mpath = tmp_path / "manifest.json"
        save_manifest(mpath, paths, spec)
        ens2, doc = load_manifest(mpath)
        assert len(ens2.models) == 2
        a = ens.fused_teacher_logits([1, 2, 3])
        b = ens2.fused_teacher_logits([1, 2, 3])
        assert np.array_equal(a, b)

        # corrupt: second checkpoint with a different vocab
        other = TransformerModel(dataclasses.replace(MS, vocab=13))
        other.save(tmp_path / "m1.npz")
        with pytest.raises(ValueError, match="vocab|tokenizer"):
            load_manifest(mpath)


class TestBaseModelRecovery:
    def test_fused_argmax_matches_base_when_alone(self):
        ens = Ensemble(EnsembleSpec(models=[MS], lambdas=[], top_k=2))
        fused = ens.fused_teacher_logits([1, 2, 3, 4])
        base = ens.models[0].forward_teacher([1, 2, 3, 4]).logits
        assert np.array_equal(fused, base)
