"""Tests for chain wiring: fusion inputs, error tokens, logits fusion."""

import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainboost.ensemble import (
    Ensemble,
    EnsembleSpec,
    fuse_logits,
    load_manifest,
    params_sha256,
    save_manifest,
    topk_mask,
)
from chainboost.model import KvCache, ModelSpec, TransformerModel
from chainboost.numkit import ShapeError
from chainboost.training import chain_logits, predecessor_errors

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

    @pytest.mark.parametrize("lambdas", [[], (0.3,), 0.3], ids=["empty", "tuple", "number"])
    def test_lambdas_are_a_list_of_one_per_successor(self, lambdas):
        with pytest.raises(ValueError, match=r"need a list of 1 lambdas \(one per successor\)"):
            EnsembleSpec(models=[MS, MS], lambdas=lambdas, top_k=2)
        assert EnsembleSpec(models=[MS]).lambdas == []

    def test_top_k_range(self):
        with pytest.raises(ValueError):
            EnsembleSpec(models=[MS], lambdas=[], top_k=MS.vocab + 1)

    @pytest.mark.parametrize("top_k", [2.5, 2.0, True, "2"])
    def test_top_k_must_be_an_int(self, top_k):
        with pytest.raises(ValueError, match=r"top_k must be an integer in \[1, 12\], got "):
            EnsembleSpec(models=[MS, MS], lambdas=[0.3], top_k=top_k)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), float("-inf"), 0.0, -0.3, True, "0.3"])
    def test_lambdas_must_be_finite(self, lam):
        with pytest.raises(ValueError, match=rf"lambdas\[1\] must be a finite positive number, got {lam!r}"):
            EnsembleSpec(models=[MS, MS, MS], lambdas=[0.3, lam], top_k=2)

    def test_d_model_mismatch_rejected(self):
        other = dataclasses.replace(MS, d_model=8)
        with pytest.raises(ValueError, match=r"model 1: d_model 8"):
            EnsembleSpec(models=[MS, other], lambdas=[0.3], top_k=2)

    def test_fusion_layer_deeper_than_predecessor_rejected(self):
        shallow = dataclasses.replace(MS, n_layers=2)
        with pytest.raises(ValueError, match=r"model 2: fusion layer 4 .*n_layers 2"):
            EnsembleSpec(models=[MS, shallow, MS], lambdas=[0.3, 0.3], top_k=2)


class TestEnsembleModels:
    def test_empty_model_list_refused(self):
        spec = EnsembleSpec(models=[MS], lambdas=[], top_k=2)
        with pytest.raises(ValueError, match="0 models given for a spec of 1"):
            Ensemble(spec, [])

    def test_model_with_another_spec_refused(self):
        other = dataclasses.replace(MS, seed=4)
        spec = EnsembleSpec(models=[MS, MS], lambdas=[0.3], top_k=2)
        with pytest.raises(ValueError, match=r"model 1's spec differs from spec.models\[1\]"):
            Ensemble(spec, [TransformerModel(MS), TransformerModel(other)])


class TestErrorTokens:
    """predecessor_errors: the predecessor's argmax where it misses gold, else -1."""

    def test_all_correct_gives_empty(self):
        logits = np.zeros((1, 3, 4))
        logits[0, np.arange(3), [1, 2, 0]] = 5.0
        err = predecessor_errors(logits, np.array([[1, 2, 0]]))
        np.testing.assert_array_equal(err, [[-1, -1, -1]])

    def test_direct_example(self):
        err = predecessor_errors(np.array([[[5.0, 1.0, 0.0]]]), np.array([[1]]))
        np.testing.assert_array_equal(err, [[0]])

    def test_brute_force_agreement(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(4, 20, 16))
        logits[:, :, 3] = logits[:, :, 7]  # exact ties: the lowest index wins
        gold = rng.integers(0, 16, (4, 20))
        err = predecessor_errors(logits, gold)
        for b in range(4):
            for t in range(20):
                row = list(logits[b, t])
                pred = row.index(max(row))  # first occurrence of the maximum
                assert err[b, t] == (pred if pred != gold[b, t] else -1)

    def test_never_stores_gold(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(5, 10, 8))
        gold = rng.integers(0, 8, (5, 10))
        err = predecessor_errors(logits, gold)
        assert not np.any(err == gold)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            predecessor_errors(np.zeros((1, 3, 4)), np.array([[0, 1]]))
        with pytest.raises(ShapeError):  # a (1, T) gold must not broadcast over B
            predecessor_errors(np.zeros((2, 3, 4)), np.zeros((1, 3), dtype=int))

    def test_unlabeled_positions_skipped(self):
        err = predecessor_errors(np.array([[[5.0, 0.0], [5.0, 0.0]]]), np.array([[-1, 1]]))
        np.testing.assert_array_equal(err, [[-1, 0]])


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


class TestFusionInputs:
    def test_base_model_takes_none(self):
        ens = Ensemble(EnsembleSpec(models=[MS, MS], lambdas=[0.3], top_k=2))
        assert ens.fusion_inputs(0, None) is None

    def test_period_above_layers_empty(self):
        ens = Ensemble(EnsembleSpec([MS, dataclasses.replace(MS, fusion_period=5)], [0.3], 2))
        _, acts = ens.models[0].forward_train(np.array([[1, 2, 3]]))
        assert ens.fusion_inputs(1, acts["states"]) == {}

    def test_layer_offset_bookkeeping(self):
        ms = dataclasses.replace(MS, n_layers=2, fusion_period=1)
        ens = Ensemble(EnsembleSpec([ms, ms], [0.3], 2))
        _, states, _ = ens.models[0].forward_step(1, KvCache(ms.n_layers))
        fin = ens.fusion_inputs(1, states)
        assert sorted(fin) == [1, 2]
        # successor layer l reads predecessor layer l-1 (0 = embedding)
        assert fin[1] is states[0]
        assert fin[2] is states[1]

    def test_shapes(self):
        ens = Ensemble(EnsembleSpec([MS, MS], [0.3], 2))
        _, acts = ens.models[0].forward_train(np.array([[1, 2, 3]]))
        fin = ens.fusion_inputs(1, acts["states"])
        assert sorted(fin) == [2, 4]
        for v in fin.values():
            assert v.shape == (1, 3, MS.d_model)


def _fused(ens, tokens):
    return fuse_logits(chain_logits(ens, np.array([tokens])), ens.spec.lambdas, ens.spec.top_k)


class TestManifest:
    def _saved(self, tmp_path, models):
        """Save a chain of the given specs; returns (ensemble, manifest path)."""
        spec = EnsembleSpec(models=models, lambdas=[0.3] * (len(models) - 1), top_k=2)
        ens = Ensemble(spec)
        paths = []
        for i, m in enumerate(ens.models):
            m.save(tmp_path / f"m{i}.npz")
            paths.append(f"m{i}.npz")
        save_manifest(tmp_path / "manifest.json", paths, spec)
        return ens, tmp_path / "manifest.json"

    def test_roundtrip_and_vocab_refusal(self, tmp_path):
        ens, mpath = self._saved(tmp_path, [MS, MS])
        ens2, doc = load_manifest(mpath)
        assert len(ens2.models) == 2
        a = _fused(ens, [1, 2, 3])
        b = _fused(ens2, [1, 2, 3])
        assert np.array_equal(a, b)

        # corrupt: second checkpoint with a different vocab, whose digest the
        # rewritten manifest records, so that the chain check refuses it
        other = TransformerModel(dataclasses.replace(MS, vocab=13))
        other.save(tmp_path / "m1.npz")
        save_manifest(mpath, doc["checkpoints"], ens.spec)
        with pytest.raises(ValueError, match="must share one vocabulary"):
            load_manifest(mpath)

    def test_checkpoint_digests(self, tmp_path):
        ens, mpath = self._saved(tmp_path, [MS, MS])
        doc = json.loads(mpath.read_text())
        assert doc["checkpoint_sha256"] == [params_sha256(m) for m in ens.models]
        succ = ens.models[1]
        succ.write([("unemb", succ.params["unemb"] + 1e-12)])
        succ.save(tmp_path / "m1.npz")
        with pytest.raises(ValueError, match=re.escape(f"checkpoint {tmp_path / 'm1.npz'}: parameter sha256 ")):
            load_manifest(mpath)
        # a manifest written before digests were recorded checks none
        mpath.write_text(json.dumps({k: v for k, v in doc.items() if k != "checkpoint_sha256"}))
        ens2, _ = load_manifest(mpath)
        assert params_sha256(ens2.models[1]) == params_sha256(succ)

    def test_fusion_disabled_rejected(self, tmp_path):
        _, mpath = self._saved(tmp_path, [MS, MS])
        doc = json.loads(mpath.read_text())
        assert "fusion_enabled" not in doc
        # manifests written before the key was dropped say true and still load
        mpath.write_text(json.dumps({**doc, "fusion_enabled": True}))
        load_manifest(mpath)
        mpath.write_text(json.dumps({**doc, "fusion_enabled": False}))
        with pytest.raises(ValueError, match="fusion_enabled"):
            load_manifest(mpath)

    def test_fusion_period_disagreement_rejected(self, tmp_path):
        _, mpath = self._saved(tmp_path, [MS, MS])
        doc = json.loads(mpath.read_text())
        assert doc["fusion_period"] == MS.fusion_period
        mpath.write_text(json.dumps({**doc, "fusion_period": 1}))
        with pytest.raises(ValueError, match=r"fusion_period 1 .*checkpoint 0"):
            load_manifest(mpath)
        # a chain with mixed periods writes no single period and still loads
        _, mixed = self._saved(tmp_path, [MS, dataclasses.replace(MS, fusion_period=1)])
        assert "fusion_period" not in json.loads(mixed.read_text())
        load_manifest(mixed)


class TestBaseModelRecovery:
    def test_fused_argmax_matches_base_when_alone(self):
        ens = Ensemble(EnsembleSpec(models=[MS], lambdas=[], top_k=2))
        fused = _fused(ens, [1, 2, 3, 4])
        base, _ = ens.models[0].forward_train(np.array([[1, 2, 3, 4]]))
        assert np.array_equal(fused, base)
