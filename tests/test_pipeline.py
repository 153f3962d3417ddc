"""Tests for the layer-synchronous and sequential decoders."""

import dataclasses
import sys
import time

import numpy as np
import pytest

from chainboost import ensemble, model, pipeline, training
from chainboost.ensemble import Ensemble, EnsembleSpec, fuse_logits
from chainboost.model import ModelSpec, TransformerModel
from chainboost.pipeline import check_prompt, decode_pipelined, decode_sequential
from chainboost.tasks import TaskSpec, generate
from chainboost.training import TrainConfig, flatten_params, load_flat_params, sgd_step
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
        m.write((k, rng.normal(0.0, 0.5, v.shape)) for k, v in m.params.items() if k.endswith(".B"))
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
        # each prompt step but the last stops at its last layer's keys and values
        assert shapes == [(k, 1, TINY.d_model)] * (deep.n_layers * steps - (len(prompt) - 1))
        assert len(report.events) == k * deep.n_layers * steps

    def test_adapted_chain_bit_identical(self):
        ens = adapted_chain()
        for seed in range(6):
            prompt = np.random.default_rng(seed).integers(0, TINY.vocab - 1, size=3).tolist()
            toks_s, logits_s = decode_sequential(ens, prompt, max_tokens=8)
            toks_p, logits_p, _ = decode_pipelined(ens, prompt, max_tokens=8)
            assert toks_s == toks_p
            assert np.array_equal(logits_s, logits_p)

    def test_no_stale_snapshot_after_adapter_update(self, monkeypatch):
        key = "l2.wv.B"

        def sgd(ens):
            # in place, as training does
            sgd_step(ens.models[2], np.full(4 * TINY.d_model, 0.5), 1.0, [key])

        def flat(ens):
            load_flat_params(ens.models[2], [key], flatten_params(ens.models[2], [key]) - 0.5)

        def write(ens):
            ens.models[2].write([(key, ens.models[2].params[key] - 0.5)])

        def base_copy(ens):  # train_chain untrained: only base_copy and init_adapters write
            monkeypatch.setattr(training, "train_model", lambda *args, **kwargs: [])
            data = generate(TaskSpec("copy", vocab=12, length=3, n_samples=8, seed=1))
            training.train_chain(ens, data, TrainConfig())

        for update in (sgd, flat, write, base_copy):
            ens = adapted_chain(seed=5)
            _, before_s = decode_sequential(ens, [1, 2], max_tokens=4)
            _, before_p, _ = decode_pipelined(ens, [1, 2], max_tokens=4)
            update(ens)
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

    def test_replacing_a_model_restacks(self, monkeypatch):
        ens = adapted_chain(seed=5)
        stacked = []
        stack_views = model.stack_views
        monkeypatch.setattr(ensemble, "stack_views",
                            lambda models: stacked.append(1) or stack_views(models))
        _, before, _ = decode_pipelined(ens, [1, 2], max_tokens=4)
        decode_pipelined(ens, [3], max_tokens=4)
        assert len(stacked) == 1  # one stack for two requests at one version
        old = ens.models[2]
        new = TransformerModel(old.spec)  # same spec, other B, same version
        rng = np.random.default_rng(11)
        new.write((k, rng.normal(0.0, 0.5, v.shape)) for k, v in new.params.items() if k.endswith(".B"))
        assert new.version == old.version
        ens.models[2] = new
        toks, logits, _ = decode_pipelined(ens, [1, 2], max_tokens=4)
        assert len(stacked) == 2
        toks_f, logits_f = step_fold(ens, [1, 2], 4)
        assert toks == toks_f and np.array_equal(logits, logits_f)
        assert not np.array_equal(before[0], logits[0])

    def test_stacked_weights_refuse_writes(self):
        ens = adapted_chain(seed=5)
        decode_pipelined(ens, [1, 2], max_tokens=4)
        for view in ens.stacked_views():
            for name, arr in view.items():
                with pytest.raises(ValueError, match="read-only"):
                    arr[...] = 0.0

    def test_report_nothing_waits(self):
        toks, _, report = decode_pipelined(make_chain(2, seed=7), [1, 2], max_tokens=4)
        assert report.blocked_s == 0.0
        assert 0.0 < report.transfer_s < report.wall_s
        assert report.n_tokens == len(toks)


    def test_fallback_report_claims_no_stacked_timing(self):
        # models of different d_ff cannot be stacked: the sequential decode runs
        succ = dataclasses.replace(TINY, d_ff=24, seed=1)
        ens = Ensemble(EnsembleSpec([TINY, succ], lambdas=[0.3], top_k=2))
        assert ens.stacked_views() is None
        toks, logits, report = decode_pipelined(ens, [1, 2], max_tokens=4)
        toks_s, logits_s = decode_sequential(ens, [1, 2], max_tokens=4)
        assert toks == toks_s and np.array_equal(logits, logits_s)
        assert report.events == [] and report.n_tokens == len(toks)
        assert [l.split()[0] for l in report.format().splitlines()] == [
            "end_to_end_s", "per_token_latency_s"
        ]


def test_stacked_weights_hold_exactly_the_view_keys():
    ens = adapted_chain(seed=4)
    views = ens.models[0].param_views()
    stacked = model.stack_views(ens.models)
    assert [set(w) for w in stacked] == [set(v) for v in views]
    for v in views[1:]:  # Q/K/V only as the one wqkv
        assert "wqkv" in v and not {"wq", "wk", "wv"} & set(v)
    # gains and biases at the (k, 1, n) rank of the stacked activations, model b in row b
    for l in range(1, TINY.n_layers + 1):
        for name in model.LAYER_VECTORS:
            assert stacked[l][name].shape == (3, 1) + ens.models[0].params[f"l{l}.{name}"].shape
            for b, m in enumerate(ens.models):
                assert np.array_equal(stacked[l][name][b, 0], m.params[f"l{l}.{name}"])


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

    def test_views_built_once_per_version(self, monkeypatch):
        ens = adapted_chain(seed=6)
        built = []
        layer_params = model.TransformerModel.layer_params

        def counting(self, l):
            built.append((id(self), l))
            return layer_params(self, l)

        monkeypatch.setattr(model.TransformerModel, "layer_params", counting)
        once = sorted((id(m), l) for m in ens.models for l in range(1, TINY.n_layers + 1))
        toks, _ = decode_sequential(ens, [1, 2, 3], max_tokens=6)
        assert len(toks) > 1  # several steps ran on one set of views
        decode_sequential(ens, [4, 5], max_tokens=6)
        decode_pipelined(ens, [6], max_tokens=6)
        assert sorted(built) == once  # three requests at one version
        succ = ens.models[1]
        succ.write([("l1.wq.B", succ.params["l1.wq.B"] + 0.1)])
        decode_sequential(ens, [1, 2, 3], max_tokens=6)
        assert sorted(built) == sorted(once + [(id(succ), l) for l in range(1, TINY.n_layers + 1)])


class TestPromptStop:
    """Prompt steps whose logits nobody reads stop at the last layer's K/V."""

    def test_successor_fusing_the_last_state_keeps_it(self):
        # fusion layer 3 of the 3-layer successor reads the 2-layer base's last
        # state, so the base runs its last layer in full on every step
        succ = dataclasses.replace(TINY, n_layers=3, fusion_period=3, adapter_rank=4, seed=1)
        ens = Ensemble(EnsembleSpec([TINY, succ], lambdas=[0.3], top_k=2))
        assert ens.last_state_read(0) and not ens.last_state_read(1)
        rng = np.random.default_rng(0)
        succ_model = ens.models[1]  # a successor that moves the fused logits
        succ_model.write((k, v + rng.normal(0.0, 0.1, v.shape)) for k, v in succ_model.params.items())
        max_tokens = 4
        for n in (1, 3, TINY.max_steps - max_tokens):
            prompt = rng.integers(0, TINY.vocab - 1, size=n).tolist()
            toks_f, logits_f = step_fold(ens, prompt, max_tokens)
            for decode in (decode_sequential, decode_pipelined):
                toks, logits = decode(ens, prompt, max_tokens)[:2]
                assert toks == toks_f
                assert np.array_equal(logits, logits_f)

    @pytest.mark.parametrize("deep_successor", [False, True])
    def test_fuse_logits_once_per_emitted_token(self, deep_successor, monkeypatch):
        if deep_successor:
            succ = dataclasses.replace(TINY, n_layers=3, fusion_period=3, seed=1)
            ens = Ensemble(EnsembleSpec([TINY, succ], lambdas=[0.3], top_k=2))
        else:
            ens = make_chain(2, seed=8)
        calls = []

        def counting(*args):
            calls.append(1)
            return fuse_logits(*args)

        monkeypatch.setattr(pipeline, "fuse_logits", counting)
        for decode in (decode_sequential, decode_pipelined):
            for prompt in ([1], [1, 2, 3, 4, 5]):
                calls.clear()
                toks = decode(ens, prompt, 6)[0]
                assert len(calls) == len(toks)


def without_eos(ens: Ensemble) -> None:
    """Write every model's last LayerNorm bias as ones and its EOS column of
    unemb as -100: a last state then sums to d_model, so EOS's logit is about
    -100 * d_model and the greedy loop never stops before max_tokens."""
    eos = ens.spec.vocab - 1
    for m in ens.models:
        unemb = m.params["unemb"].copy()
        unemb[:, eos] = -100.0
        m.write([(f"l{m.spec.n_layers}.ln_mlp_b", np.ones(m.spec.d_model)), ("unemb", unemb)])


class TestFullRequest:
    """A request of prompt + max_tokens == max_steps runs to its last token."""

    # the last emitted token is not fed back, so max_steps - 1 steps run: 11
    # fit the first KV buffer, and 32 fill the second to its last step
    @pytest.mark.parametrize("max_steps", [TINY.max_steps, 2 * model.KV_FIRST_ROOM + 1])
    @pytest.mark.parametrize("n_successors", [0, 2])
    def test_fills_max_steps(self, n_successors, max_steps):
        specs = [dataclasses.replace(TINY, max_steps=max_steps, seed=5 + 10 * i)
                 for i in range(n_successors + 1)]
        ens = Ensemble(EnsembleSpec(specs, lambdas=[0.3] * n_successors, top_k=2))
        without_eos(ens)
        prompt = [1, 2, 3]
        max_tokens = max_steps - len(prompt)
        toks, logits = decode_sequential(ens, prompt, max_tokens)
        toks_p, logits_p, report = decode_pipelined(ens, prompt, max_tokens)
        toks_f, logits_f = step_fold(ens, prompt, max_tokens)
        assert len(toks) == max_tokens and TINY.vocab - 1 not in toks
        assert toks == toks_p == toks_f
        assert np.array_equal(logits, logits_p) and np.array_equal(logits, logits_f)
        assert len(report.events) == (n_successors + 1) * TINY.n_layers * (max_steps - 1)
        assert all(type(a) is int and type(b) is int and a <= b for *_, a, b in report.events)
        for decode in (decode_sequential, decode_pipelined):
            with pytest.raises(ValueError, match=f"exceeds max_steps {max_steps}"):
                decode(ens, prompt, max_tokens + 1)


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
        # blocked_s is always 0, so format() does not print it
        assert [l.split()[0] for l in report.format().splitlines()] == [
            "end_to_end_s", "per_token_latency_s", "state_passing_s"
        ]

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

    @pytest.mark.parametrize("prompt, position", [
        ([2**70], 0), ([-(2**70)], 0), ([1, 2**63], 1), ([1, 2, np.uint64(2**64 - 1)], 2),
    ])
    def test_ids_beyond_int64_are_out_of_range(self, prompt, position):
        # not an object array's "integer dtype" complaint: the id, where it is
        ens = make_chain(1)
        message = rf"token id {int(prompt[position])} at prompt position {position} out of range for vocab {TINY.vocab}"
        with pytest.raises(ValueError, match=message):
            check_prompt(ens, prompt, 3)
        for decode in (decode_sequential, decode_pipelined):
            with pytest.raises(ValueError, match=message):
                decode(ens, prompt, 3)

    @pytest.mark.parametrize("prompt, position", [
        ([1.9, 2], 0), ([1, 2.0], 1), ([1, True], 1), ([False], 0), ([1, 2, "3"], 2),
        ([np.float64(1.0)], 0), ([np.bool_(True)], 0), (np.array([1.0, 2.0]), 0),
    ])
    def test_ids_that_are_not_integers_are_refused(self, prompt, position):
        # the greedy loop's int() would read 1.9 as 1 and True as 1
        ens = make_chain(1)
        for decode in (decode_sequential, decode_pipelined):
            with pytest.raises(ValueError, match=f"prompt token {position} must be an integer id"):
                decode(ens, prompt, 4)

    @pytest.mark.parametrize("max_tokens", [2.5, 2.0, True, "4", None])
    def test_max_tokens_that_is_not_an_integer_is_refused(self, max_tokens):
        ens = make_chain(1)
        for decode in (decode_sequential, decode_pipelined):
            with pytest.raises(ValueError, match="max_tokens must be an integer"):
                decode(ens, [1, 2], max_tokens)

    def test_numpy_integers_decode_as_python_ones(self):
        ens = make_chain(1)
        want = decode_sequential(ens, [1, 2], 4)
        for prompt in (np.array([1, 2]), [np.int32(1), np.uint8(2)]):
            for max_tokens in (4, np.int64(4)):
                toks, logits = decode_sequential(ens, prompt, max_tokens)
                toks_p, logits_p, _ = decode_pipelined(ens, prompt, max_tokens)
                assert toks == toks_p == want[0]
                assert np.array_equal(logits, want[1]) and np.array_equal(logits_p, want[1])
