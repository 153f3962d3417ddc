"""Tests for the layer-synchronous and sequential decoders."""

import dataclasses
import sys
import time

import numpy as np
import pytest

from chainboost import model, pipeline
from chainboost.ensemble import Ensemble, EnsembleSpec
from chainboost.model import ModelSpec
from chainboost.pipeline import decode_pipelined, decode_sequential
from chainboost.training import sgd_step
from oracles import step_fold

TINY = ModelSpec(
    n_layers=2, d_model=16, n_heads=2, d_ff=32, vocab=12, max_steps=12,
    fusion_period=2, adapter_rank=0, seed=0,
)


def make_chain(n_successors: int, seed: int = 0) -> Ensemble:
    specs = [dataclasses.replace(TINY, seed=seed + 10 * i) for i in range(n_successors + 1)]
    return Ensemble(EnsembleSpec(specs, lambdas=[0.3] * n_successors, top_k=2))


def adapted_chain(seed: int = 3, base: ModelSpec = TINY) -> Ensemble:
    """3 models, successor adapters with nonzero B: wq and wv differ from the base."""
    specs = [dataclasses.replace(base, adapter_rank=0 if i == 0 else 4, seed=seed + i)
             for i in range(3)]
    ens = Ensemble(EnsembleSpec(specs, lambdas=[0.3, 0.3], top_k=2))
    rng = np.random.default_rng(seed)
    for m in ens.models[1:]:
        for k, v in m.params.items():
            if k.endswith(".B"):
                v[...] = rng.normal(0.0, 0.5, v.shape)
    return ens


class TestDecoderEquivalence:
    @pytest.mark.parametrize("n_successors", [0, 1, 2])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6])
    def test_pipelined_matches_sequential(self, n_successors, seed):
        ens = make_chain(n_successors, seed=seed)
        rng = np.random.default_rng(seed)
        prompt = rng.integers(0, TINY.vocab - 1, size=3).tolist()
        toks_s, logits_s = decode_sequential(ens, prompt, max_tokens=6)
        toks_p, logits_p, _ = decode_pipelined(ens, prompt, max_tokens=6)
        assert toks_s == toks_p
        assert len(logits_s) == len(logits_p)
        assert np.max(np.abs(np.asarray(logits_s) - np.asarray(logits_p))) <= 1e-9

    def test_single_worker_folds_whole_chain(self):
        ens = make_chain(2, seed=9)
        toks_s, _ = decode_sequential(ens, [1, 2], max_tokens=5)
        toks_p, _, _ = decode_pipelined(ens, [1, 2], max_tokens=5, workers=1)
        assert toks_s == toks_p

    def test_successor_deeper_than_predecessor(self):
        # fusion layer 3 of the 4-layer successor reads base layer 2; the
        # successor's other layers must not wait for base states that never exist
        succ = dataclasses.replace(TINY, n_layers=4, fusion_period=3, seed=1)
        ens = Ensemble(EnsembleSpec([TINY, succ], lambdas=[0.3], top_k=2))
        toks_s, logits_s = decode_sequential(ens, [1, 2], max_tokens=3)
        toks_p, logits_p, _ = decode_pipelined(ens, [1, 2], max_tokens=3)
        assert toks_s == toks_p == [10, 0, 9]
        assert np.array_equal(logits_s, logits_p)

    def test_deep_chain_under_frequent_thread_switches(self):
        # a deep 3-model chain, with the interpreter switching threads every
        # microsecond: anything that depended on thread timing would show up
        # as a mismatch
        deep = dataclasses.replace(TINY, n_layers=4)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for seed in range(8):
                specs = [dataclasses.replace(deep, seed=seed + 10 * i) for i in range(3)]
                ens = Ensemble(EnsembleSpec(specs, [0.3, 0.3], 2))
                toks_s, logits_s = decode_sequential(ens, [seed, 1], max_tokens=5)
                toks_p, logits_p, _ = decode_pipelined(ens, [seed, 1], max_tokens=5)
                assert toks_s == toks_p
                assert np.array_equal(logits_s, logits_p)
        finally:
            sys.setswitchinterval(old)

    def test_worker_error_named_once(self, monkeypatch):
        # a failing layer call reaches the caller as its own exception, once,
        # neither wrapped nor chained
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(pipeline, "transformer_layer", boom)
        with pytest.raises(RuntimeError) as info:
            decode_pipelined(make_chain(1), [1, 2], max_tokens=3)
        assert type(info.value) is RuntimeError and str(info.value) == "boom"
        assert info.value.__cause__ is None and info.value.__context__ is None

    def test_base_only_chain(self):
        ens = make_chain(0, seed=3)
        toks_s, _ = decode_sequential(ens, [4], max_tokens=4)
        toks_p, _, _ = decode_pipelined(ens, [4], max_tokens=4)
        assert toks_s == toks_p


class TestLayerSynchronous:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_one_stacked_layer_call_per_depth(self, k, monkeypatch):
        assert pipeline.transformer_layer is model.transformer_layer  # the one layer body
        shapes = []

        def counting(p, ht, *args):
            shapes.append(ht.shape)
            return model.transformer_layer(p, ht, *args)

        monkeypatch.setattr(pipeline, "transformer_layer", counting)
        deep = dataclasses.replace(TINY, n_layers=4)
        ens = Ensemble(EnsembleSpec([dataclasses.replace(deep, seed=i) for i in range(k)],
                                    [0.3] * (k - 1), 2))
        prompt = [1, 2, 3]
        toks, _, report = decode_pipelined(ens, prompt, max_tokens=5)
        steps = len(prompt) + len(toks) - 1
        assert shapes == [(k, 1, TINY.d_model)] * (deep.n_layers * steps)
        assert len(report.events) == k * deep.n_layers * steps

    def test_adapted_chain_bit_identical(self):
        ens = adapted_chain()
        for seed in range(6):
            prompt = np.random.default_rng(seed).integers(0, TINY.vocab - 1, size=3).tolist()
            toks_s, logits_s = decode_sequential(ens, prompt, max_tokens=8)
            toks_p, logits_p, _ = decode_pipelined(ens, prompt, max_tokens=8)
            assert toks_s == toks_p
            assert np.array_equal(logits_s, logits_p)

    def test_no_stale_snapshot_after_adapter_update(self):
        ens = adapted_chain(seed=5)
        _, before_s = decode_sequential(ens, [1, 2], max_tokens=4)
        _, before_p, _ = decode_pipelined(ens, [1, 2], max_tokens=4)
        grads = {"l2.wv.B": np.full((4, TINY.d_model), 0.5)}
        sgd_step(ens.models[2], grads, 1.0, ["l2.wv.B"])  # in place, as training does
        toks_s, logits_s = decode_sequential(ens, [1, 2], max_tokens=4)
        toks_p, logits_p, _ = decode_pipelined(ens, [1, 2], max_tokens=4)
        assert toks_s == toks_p
        assert np.array_equal(logits_s, logits_p)
        assert np.array_equal(logits_s, step_fold(ens, [1, 2], 4)[1])
        assert not np.array_equal(before_s[0], logits_s[0])
        assert not np.array_equal(before_p[0], logits_p[0])

    def test_workers_has_no_effect(self):
        ens = make_chain(2, seed=6)
        runs = [decode_pipelined(ens, [1, 2], max_tokens=4, workers=w) for w in (None, 1, 2, 9)]
        for toks, logits, _ in runs[1:]:
            assert toks == runs[0][0] and np.array_equal(logits, runs[0][1])
        for bad in (0, -1):
            with pytest.raises(ValueError, match="workers"):
                decode_pipelined(ens, [1, 2], max_tokens=4, workers=bad)

    def test_report_nothing_waits(self):
        toks, _, report = decode_pipelined(make_chain(2, seed=7), [1, 2], max_tokens=4)
        assert report.blocked_s == 0.0
        assert 0.0 < report.transfer_s < report.wall_s
        assert report.n_tokens == len(toks)


class TestSequential:
    @pytest.mark.parametrize("base", [
        TINY,
        dataclasses.replace(TINY, n_layers=4, fusion_period=1),
        dataclasses.replace(TINY, n_layers=3, max_steps=16),
    ])
    def test_matches_forward_step_fold(self, base):
        ens = adapted_chain(seed=4, base=base)
        for seed in range(4):
            prompt = np.random.default_rng(seed).integers(0, TINY.vocab - 1, size=3).tolist()
            toks, logits = decode_sequential(ens, prompt, max_tokens=8)
            toks_f, logits_f = step_fold(ens, prompt, 8)
            assert toks == toks_f
            assert np.array_equal(logits, logits_f)

    def test_views_built_once_per_call(self, monkeypatch):
        ens = adapted_chain(seed=6)
        built = []
        layer_params = model.TransformerModel.layer_params

        def counting(self, l):
            built.append((id(self), l))
            return layer_params(self, l)

        monkeypatch.setattr(model.TransformerModel, "layer_params", counting)
        toks, _ = decode_sequential(ens, [1, 2, 3], max_tokens=6)
        assert len(toks) > 1  # several steps ran on one set of views
        assert sorted(built) == sorted((id(m), l) for m in ens.models
                                       for l in range(1, TINY.n_layers + 1))


class TestWavefront:
    def test_layer_precedence_in_events(self):
        deep = dataclasses.replace(TINY, n_layers=4)
        chains = [
            make_chain(2, seed=1),
            Ensemble(EnsembleSpec([dataclasses.replace(deep, seed=s) for s in (1, 11, 21)], [0.3, 0.3], 2)),
        ]
        for ens in chains:
            _, _, report = decode_pipelined(ens, [1, 2, 3], max_tokens=5)
            start = {(m, l, t): a for m, l, t, a, _ in report.events}
            finish = {(m, l, t): b for m, l, t, _, b in report.events}
            for (m, l, t), a in start.items():
                if m > 0 and l in ens.spec.models[m].fusion_layers():
                    # a successor fusion block begins only after the
                    # predecessor block it reads (layer l-1) has finished
                    assert a >= finish[(m - 1, l - 1, t)]

    def test_report_accounting(self):
        ens = make_chain(1, seed=2)
        toks, _, report = decode_pipelined(ens, [1], max_tokens=4)
        assert report.n_tokens == len(toks)
        assert report.wall_s > 0
        assert report.blocked_s >= 0 and report.transfer_s >= 0
        text = report.format()
        assert "per_token_latency_s" in text and "state_passing_s" in text

    def test_liveness(self):
        ens = make_chain(2, seed=5)
        t0 = time.perf_counter()
        decode_pipelined(ens, [1, 2], max_tokens=4)
        assert time.perf_counter() - t0 < 10.0


class TestPromptValidation:
    def test_empty_prompt(self):
        ens = make_chain(0)
        with pytest.raises(ValueError):
            decode_sequential(ens, [], max_tokens=3)
        with pytest.raises(ValueError):
            decode_pipelined(ens, [], max_tokens=3)

    @pytest.mark.parametrize("max_tokens", [0, -1])
    def test_max_tokens_below_one(self, max_tokens):
        ens = make_chain(1)
        for decode in (decode_sequential, decode_pipelined):
            with pytest.raises(ValueError, match=f"max_tokens must be >= 1, got {max_tokens}"):
                decode(ens, [1, 2], max_tokens)

    def test_out_of_vocab_prompt(self):
        ens = make_chain(0)
        with pytest.raises((ValueError, IndexError)):
            decode_sequential(ens, [99], max_tokens=3)
