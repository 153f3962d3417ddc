"""Tests for the composite objective, alignment estimates and chain trainer."""

import dataclasses
import re

import numpy as np
import pytest

from chainboost.ensemble import Ensemble, EnsembleSpec
from chainboost.model import ModelSpec, TransformerModel
from chainboost.numkit import ShapeError, softmax
from chainboost.tasks import Dataset, TaskSpec, generate
from chainboost import ensemble as ensemble_mod, model as model_mod, pipeline, training
from chainboost.training import (
    BoundViolatedError,
    EmptyEstimateError,
    TrainConfig,
    batch_loss_and_grad,
    chain_eval,
    chain_logits,
    descent_lr_bound,
    estimate_alignment,
    flatten_params,
    load_flat_params,
    loss_logit_grad,
    pred_forward_chain,
    predecessor_errors,
    sgd_step,
    total_loss,
    train_chain,
    train_model,
    trainable_keys,
)
from memory_peaks import modsum, modsum_chain, traced_peak
from oracles import (
    chain_eval_full,
    chain_walk_train,
    cross_entropy,
    estimate_alignment_loop,
    finite_diff_grad,
    forward_teacher,
    stage_batch_pass_full,
    suppression_loss,
)

SMALL = ModelSpec(
    n_layers=2, d_model=16, n_heads=2, d_ff=32, vocab=12, max_steps=8,
    fusion_period=2, adapter_rank=0, seed=0,
)


def suppression_term(p, gold, err, beta):
    """The package's suppression loss at one position: total_loss at alpha 0
    over the logits log p, whose softmax is p."""
    return total_loss(np.log(p)[None], [gold], [err], 0.0, beta)


class TestSuppressionLoss:
    def test_absent_error_token_is_zero(self):
        p = np.array([0.2, 0.3, 0.5])
        assert suppression_term(p, 0, None, beta=0.1) == 0.0

    def test_equal_probabilities_give_log_two(self):
        # log p[gold] == log p[err] => u = 0 => -log sigma(0) = log 2
        p = np.array([0.25, 0.25, 0.25, 0.25])
        assert suppression_term(p, 1, 3, beta=0.1) == pytest.approx(np.log(2.0), rel=1e-12)

    def test_oracle_value(self):
        p = np.array([0.7, 0.2, 0.1])
        beta = 0.5
        u = beta * (np.log(0.7) - np.log(0.1))
        want = -np.log(1.0 / (1.0 + np.exp(-u)))
        assert suppression_term(p, 0, 2, beta) == pytest.approx(want, rel=1e-12)
        assert suppression_loss(p, 0, 2, beta) == pytest.approx(want, rel=1e-12)

    def test_rejects_err_equal_gold(self):
        with pytest.raises(ValueError):
            loss_logit_grad(np.array([0.5, 0.5]), 1, 1, 0.9, 0.1)
        gold = np.array([[0, 1, -1]])
        # err at an unlabeled position is ignored; an active one equal to gold is not
        batch_loss_and_grad(np.zeros((1, 3, 4)), gold, np.array([[2, -1, 0]]), 0.9, 0.1)
        with pytest.raises(ValueError):
            batch_loss_and_grad(np.zeros((1, 3, 4)), gold, np.array([[2, 1, -1]]), 0.9, 0.1)

    def test_monotone_in_gold_probability(self):
        # when the gold token is already far ahead the penalty shrinks
        low = suppression_term(np.array([0.4, 0.3, 0.3]), 0, 1, 0.3)
        high = suppression_term(np.array([0.8, 0.1, 0.1]), 0, 1, 0.3)
        assert high < low


class TestTotalLoss:
    def test_empty_trace_reduces_to_scaled_ce(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((4, 6))
        gold = [1, 2, 3, 0]
        want = 0.9 * sum(cross_entropy(softmax(logits[t]), gold[t]) for t in range(4))
        assert total_loss(logits, gold, [None] * 4, alpha=0.9, beta=0.1) == pytest.approx(want)

    def test_unlabeled_steps_skipped(self):
        logits = np.zeros((3, 4))
        assert total_loss(logits, [-1, -1, -1], [None, None, None], 0.9, 0.1) == 0.0

    def test_alignment_check(self):
        with pytest.raises(ValueError):
            total_loss(np.zeros((3, 4)), [0, 1], [None, None, None], 0.9, 0.1)


# an id >= V at a position the loss reads: its flat index r * V + id would
# read the next position's probability, or run past the array's end. Per
# case: total_loss's (gold, err) over (2, 8) logits, stage_batch_pass's over
# a (1, 3) batch of SMALL (vocab 12), and the position each names
OUT_OF_VOCAB = {
    "gold_reads_next_position": (([9, 1], [None, None], "gold id 9 at position (0,)"),
                                 ([[-1, 13, 1]], [[-1, -1, -1]], "gold id 13 at position (0, 1)")),
    "gold_past_the_end": (([0, 17], [None, None], "gold id 17 at position (1,)"),
                          ([[-1, 0, 21]], [[-1, -1, -1]], "gold id 21 at position (0, 2)")),
    "active_error": (([0, 1], [None, 8], "error id 8 at position (1,)"),
                     ([[-1, 0, 1]], [[-1, -1, 12]], "error id 12 at position (0, 2)")),
}


class TestOutOfVocabIds:
    @pytest.mark.parametrize("case", list(OUT_OF_VOCAB))
    def test_total_loss_refuses(self, case):
        gold, err, message = OUT_OF_VOCAB[case][0]
        with pytest.raises(ValueError, match=re.escape(message + " is out of range for vocab 8")):
            total_loss(np.zeros((2, 8)), gold, err, 0.9, 0.1)

    @pytest.mark.parametrize("case", list(OUT_OF_VOCAB))
    def test_stage_batch_pass_refuses(self, case):
        gold, err, message = OUT_OF_VOCAB[case][1]
        with pytest.raises(ValueError, match=re.escape(message + " is out of range for vocab 12")):
            training.stage_batch_pass(TransformerModel(SMALL), np.array([[1, 2, 3]]),
                                      np.array(gold), np.array(err), 0.9, 0.1)

    def test_error_equal_to_gold_names_its_position(self):
        with pytest.raises(ValueError, match=re.escape("error token 3 at position (1,) must differ from gold")):
            total_loss(np.zeros((2, 8)), [0, 3], [None, 3], 0.9, 0.1)
        with pytest.raises(ValueError, match=re.escape("error token 1 at position (0, 2) must differ from gold")):
            training.stage_batch_pass(TransformerModel(SMALL), np.array([[1, 2, 3]]),
                                      np.array([[-1, 4, 1]]), np.array([[-1, 5, 1]]), 0.9, 0.1)

    def test_holes_and_inactive_errors_are_not_read(self):
        # a -1 gold hole with an out-of-vocab error id there: nothing is read
        assert total_loss(np.zeros((2, 8)), [-1, 1], [99, None], 0.9, 0.1) == pytest.approx(
            0.9 * np.log(8.0), rel=1e-15)


class TestLossLogitGrad:
    def test_ce_only_is_p_minus_onehot(self):
        p = softmax(np.array([0.3, -0.2, 1.1, 0.0]))
        g = loss_logit_grad(p, 2, None, alpha=1.0, beta=0.1)
        want = p.copy()
        want[2] -= 1.0
        np.testing.assert_allclose(g, want, atol=1e-12)

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal(6)
        gold, err = 1, 4
        alpha, beta = 0.9, 0.1

        def f(zz):
            p = softmax(zz)
            return suppression_loss(p, gold, err, beta) + alpha * cross_entropy(p, gold)

        g = loss_logit_grad(softmax(z), gold, err, alpha, beta)
        eps = 1e-6
        for j in range(6):
            e = np.zeros(6)
            e[j] = eps
            fd = (f(z + e) - f(z - e)) / (2 * eps)
            assert g[j] == pytest.approx(fd, abs=1e-7)

    def test_gradient_sums_to_zero(self):
        p = softmax(np.arange(5.0))
        g = loss_logit_grad(p, 0, 3, 0.9, 0.1)
        assert abs(g.sum()) < 1e-12


class TestBatchLossAndGrad:
    def test_dlogits_match_finite_differences(self):
        rng = np.random.default_rng(7)
        B, T, V = 3, 4, 6
        alpha, beta = 0.9, 0.1
        logits = rng.standard_normal((B, T, V))
        gold = rng.integers(0, V, size=(B, T))
        gold[0, 0] = gold[2, 3] = -1
        err = np.where(rng.random((B, T)) < 0.5, (gold + 1) % V, -1)
        err[2, 3] = 1  # err at a hole carries no loss
        assert (err[gold >= 0] < 0).any() and (err[gold >= 0] >= 0).any()

        def objective(z):
            ce, supp, _ = batch_loss_and_grad(z, gold, err, alpha, beta)
            return supp + alpha * ce

        _, _, dz = batch_loss_and_grad(logits, gold, err, alpha, beta)
        fd = finite_diff_grad(objective, logits, eps=1e-6)
        np.testing.assert_allclose(dz, fd, rtol=0, atol=1e-7)
        assert not dz[0, 0].any() and not dz[2, 3].any()

    def test_floor_clamp_logs_once(self, caplog):
        logits = np.zeros((2, 2, 4))
        logits[0, 0, 0] = logits[1, 1, 0] = -80.0  # p[gold] ~ 1e-35, under PROB_FLOOR
        gold = np.array([[0, 1], [2, 0]])
        err = np.array([[1, -1], [-1, 3]])
        with caplog.at_level("WARNING", logger="chainboost.training"):
            ce, supp, dz = batch_loss_and_grad(logits, gold, err, 0.9, 0.1)
        assert len(caplog.records) == 1 and "clamped" in caplog.records[0].getMessage()
        # two floored positions and two uniform ones, over B = 2
        assert ce == pytest.approx(-np.log(1e-30) + np.log(4.0), rel=1e-12)
        assert np.isfinite(supp) and np.isfinite(dz).all()


class TestSgdStep:
    def test_single_step(self):
        model = TransformerModel(SMALL)
        before = model.params["unemb"].copy()
        sgd_step(model, np.ones(before.size), 0.5, ["unemb"])
        np.testing.assert_allclose(model.params["unemb"], before - 0.5, atol=1e-15)

    def test_untouched_keys_stay_bitwise(self):
        model = TransformerModel(SMALL)
        before = model.params["tok_emb"].copy()
        sgd_step(model, np.ones(model.params["unemb"].size), 0.5, ["unemb"])
        assert np.array_equal(model.params["tok_emb"], before)

    def test_key_without_gradient_raises(self):
        # backward returns only the blocks of the keys it is asked for: a key
        # it was not asked for must not go untrained without a word
        model = TransformerModel(SMALL)
        before = flatten_params(model, ["unemb", "tok_emb"])
        grads = np.ones(model.params["unemb"].size)
        with pytest.raises(ValueError, match=f"does not hold the keys' {before.size} entries"):
            sgd_step(model, grads, 0.5, ["unemb", "tok_emb"])
        assert np.array_equal(flatten_params(model, ["unemb", "tok_emb"]), before)


class TestLoadFlatParams:
    def test_roundtrip_is_bit_exact_with_adapters(self):
        import dataclasses

        model = TransformerModel(dataclasses.replace(SMALL, adapter_rank=3))
        keys = trainable_keys(model, "full") + trainable_keys(model, "adapters")
        theta = flatten_params(model, keys)
        load_flat_params(model, keys, np.random.default_rng(0).normal(size=theta.size))
        assert not np.array_equal(flatten_params(model, keys), theta)
        load_flat_params(model, keys, theta)
        assert np.array_equal(flatten_params(model, keys), theta)
        fresh = TransformerModel(dataclasses.replace(SMALL, adapter_rank=3))
        for k in keys:
            assert np.array_equal(model.params[k], fresh.params[k])

    @pytest.mark.parametrize("extra", [1, -1])
    def test_wrong_size_raises_before_writing(self, extra):
        model = TransformerModel(SMALL)
        keys = trainable_keys(model, "full")
        theta = flatten_params(model, keys)
        bad = np.zeros(theta.size + extra)
        message = rf"\({bad.size},\) does not hold the keys' {theta.size} entries"
        with pytest.raises(ValueError, match=message):
            load_flat_params(model, keys, bad)
        assert np.array_equal(flatten_params(model, keys), theta)


class TestDescentLrBound:
    def test_unit_case(self):
        # 2 (1 - 0) / (2 * (1 + 0)^2) = 1
        assert descent_lr_bound(1.0, 0.0, 0.0, 2.0) == pytest.approx(1.0)

    def test_worked_example(self):
        # 2 (0.9 - 0.5) / (4 * 1.9^2) = 0.8 / 14.44
        assert descent_lr_bound(0.9, 0.5, 1.0, 4.0) == pytest.approx(0.8 / 14.44, rel=1e-12)

    def test_precondition_violation(self):
        with pytest.raises(BoundViolatedError):
            descent_lr_bound(0.5, 1.0, 1.0, 4.0)

    def test_rejects_nonpositive_smoothness(self):
        with pytest.raises(ValueError):
            descent_lr_bound(0.9, 0.1, 0.5, 0.0)


class TestEstimateAlignment:
    def _batch(self, seed=0):
        rng = np.random.default_rng(seed)
        tokens = rng.integers(0, SMALL.vocab, size=(4, 6))
        gold = rng.integers(0, SMALL.vocab, size=(4, 6))
        err = np.where((gold + 1) % SMALL.vocab != gold, (gold + 1) % SMALL.vocab, -1)
        return tokens, gold, err

    def test_empty_batch_raises(self):
        model = TransformerModel(SMALL)
        tokens, gold, _ = self._batch()
        err = np.full_like(gold, -1)
        with pytest.raises(EmptyEstimateError):
            estimate_alignment(model, tokens, gold, err, trainable_keys(model, "full"), 0.1)

    @pytest.mark.parametrize("which", ["gold", "err"])
    def test_labels_of_another_shape_are_refused(self, which):
        # a gold one column short would drop the tokens' last column unseen
        model = TransformerModel(SMALL)
        tokens, gold, err = self._batch()
        labels = {"gold": gold, "err": err}
        labels[which] = labels[which][:, :-1]
        with pytest.raises(ShapeError, match=r"must have the tokens' shape \(4, 6\)"):
            training.stage_batch_pass(model, tokens, labels["gold"], labels["err"], 0.9, 0.1)
        with pytest.raises(ShapeError, match=r"must have the tokens' shape \(4, 6\)"):
            estimate_alignment(model, tokens, labels["gold"], labels["err"],
                               trainable_keys(model, "full"), 0.1)

    def test_estimates_in_range(self):
        model = TransformerModel(SMALL)
        tokens, gold, err = self._batch()
        est = estimate_alignment(model, tokens, gold, err, trainable_keys(model, "full"), 0.1)
        assert 0.0 <= est.rho < 1.0
        assert est.gamma >= 0.0
        assert est.sample_count == 4


def _alignment_case(name):
    """(model, tokens, gold, err, keys, fusion_in) for the oracle comparisons."""
    spec = dataclasses.replace(SMALL, max_steps=16, seed=0)
    rng = np.random.default_rng(3)
    fusion_in = None
    if name.startswith("tiny_full"):
        seed = int(name[-1])
        spec = dataclasses.replace(spec, seed=seed)
        rng = np.random.default_rng(seed)
        tokens = rng.integers(0, spec.vocab, size=(24, 4))
        gold = rng.integers(0, spec.vocab, size=(24, 4))
        err = (gold + 1) % spec.vocab
    elif name.startswith("rank3"):
        spec = dataclasses.replace(spec, adapter_rank=3)
        tokens = rng.integers(0, spec.vocab, size=(12, 6))
        gold = rng.integers(0, spec.vocab, size=(12, 6))
        other = (gold + 1 + rng.integers(0, 10, gold.shape)) % spec.vocab
        err = np.where(rng.random(gold.shape) < 0.4, other, -1)
        fusion_in = {l: rng.standard_normal((12, 6, spec.d_model)) for l in spec.fusion_layers()}
    elif name in ("holes", "one_row"):
        tokens = rng.integers(0, spec.vocab, size=(5, 6))
        gold = rng.integers(0, spec.vocab, size=(5, 6))
        gold[:, :2] = -1  # unlabeled prefix
        gold[3, 4] = -1
        err = np.where(rng.random(gold.shape) < 0.5, (gold + 2) % spec.vocab, -1)
        err[gold < 0] = 1  # an err at a hole is not active
        err[2] = -1  # a row with no active error token
        if name == "one_row":
            tokens, gold, err = tokens[:1], gold[:1], err[:1]
    else:  # "rho_positive": later positions' gold is row 0's err token
        spec = dataclasses.replace(spec, seed=9)
        tokens = np.random.default_rng(9).integers(0, spec.vocab, size=(3, 6))
        gold = np.array([[0, 5, 5, 5, 5, 5], [1, 2, 3, 4, 5, 6], [3, 7, 7, 7, 7, 7]])
        err = np.full_like(gold, -1)
        err[:, 0] = [5, 0, 7]
    model = TransformerModel(spec)
    model.write((key, rng.normal(0.0, 0.1, v.shape))
                for key, v in model.params.items() if key.endswith(".B"))
    scope = "adapters" if name == "rank3_adapters" else "full"
    return model, tokens, gold, err, trainable_keys(model, scope), fusion_in


ALIGNMENT_CASES = ["tiny_full0", "tiny_full1", "tiny_full2", "rank3_adapters", "rank3_full",
                   "holes", "one_row", "rho_positive"]


class TestBatchedAlignment:
    """estimate_alignment's one batched pass against the one-row loop it replaced."""

    @pytest.mark.parametrize("name", ALIGNMENT_CASES)
    def test_bit_identical_to_loop(self, name):
        model, tokens, gold, err, keys, fusion_in = _alignment_case(name)
        want, want_ce, want_s = estimate_alignment_loop(model, tokens, gold, err, keys, 0.1, fusion_in)
        ce, s = training._alignment_rows(model, tokens, gold, err, keys, 0.1, fusion_in)
        assert np.array_equal(ce, want_ce)
        assert np.array_equal(s, want_s)
        assert estimate_alignment(model, tokens, gold, err, keys, 0.1, fusion_in) == want
        if name == "rho_positive":
            assert want.rho > 0.0

    @pytest.mark.parametrize("name", ["rank3_full", "holes"])
    def test_per_sample_sums_to_batch_gradient(self, name):
        model, tokens, gold, err, _, fusion_in = _alignment_case(name)
        logits, acts = model.forward_train(tokens, fusion_in)
        _, _, dz = batch_loss_and_grad(logits, gold, err, 0.9, 0.1)
        batch = model.flat_blocks(None, model.backward(dz, acts))
        per_sample = model.flat_blocks(None, model.backward(dz, acts, per_sample=True))
        for key, g in batch.items():
            assert per_sample[key].shape == (len(tokens),) + g.shape
            assert np.abs(per_sample[key].sum(axis=0) - g).max() <= 1e-12 * np.abs(g).max(), key

    @pytest.mark.parametrize("rows", [1, 4, 24])
    def test_one_forward_one_backward(self, rows, monkeypatch):
        model, tokens, gold, err, keys, _ = _alignment_case("tiny_full0")
        calls = {"forward_train": 0, "backward": 0}
        for name in calls:
            orig = getattr(TransformerModel, name)

            def counted(self, *args, _orig=orig, _name=name, **kw):
                calls[_name] += 1
                return _orig(self, *args, **kw)

            monkeypatch.setattr(TransformerModel, name, counted)
        est = estimate_alignment(model, tokens[:rows], gold[:rows], err[:rows], keys, 0.1)
        assert est.sample_count == rows
        assert calls == {"forward_train": 1, "backward": 1}


class TestPredecessorErrors:
    def test_examples(self):
        logits = np.zeros((1, 3, 4))
        logits[0, 0, 2] = 1.0  # argmax 2
        logits[0, 1, 1] = 1.0  # argmax 1
        logits[0, 2, 3] = 1.0  # argmax 3, but no label
        gold = np.array([[2, 0, -1]])
        np.testing.assert_array_equal(predecessor_errors(logits, gold), [[-1, 1, -1]])


class TestChainWalk:
    def _chain(self):
        import dataclasses

        specs = [
            dataclasses.replace(SMALL, fusion_period=1, seed=5),
            dataclasses.replace(SMALL, adapter_rank=2, seed=6),
            dataclasses.replace(SMALL, fusion_period=1, adapter_rank=2, seed=7),
        ]
        ens = Ensemble(EnsembleSpec(specs, lambdas=[0.3, 0.2], top_k=2))
        rng = np.random.default_rng(1)
        for m in ens.models:
            m.write((k, rng.normal(0.0, 0.05, v.shape)) for k, v in m.params.items() if k.endswith(".B"))
        return ens

    def test_chain_logits_equal_pred_forward_chain(self):
        ens = self._chain()
        tokens = np.random.default_rng(2).integers(0, SMALL.vocab, size=(3, 5))
        zs = chain_logits(ens, tokens)
        assert len(zs) == 3
        for i in range(3):
            z, states = pred_forward_chain(ens, i, tokens)
            assert np.array_equal(zs[i], z)
            assert len(states) == SMALL.n_layers + 1

    def test_states_match_step_fold(self):
        ens = self._chain()
        tokens = np.random.default_rng(3).integers(0, SMALL.vocab, size=(2, 5))
        for b in range(2):
            trace = None
            for i, m in enumerate(ens.models):
                pred = None if trace is None else list(trace.hidden.swapaxes(0, 1))
                trace = forward_teacher(m, tokens[b], ens.fusion_inputs(i, pred))
                _, states = pred_forward_chain(ens, i, tokens)
                hidden = np.stack(states, axis=2)[b]
                np.testing.assert_allclose(hidden, trace.hidden, rtol=0, atol=1e-10)


# the chain of the train_modsum benchmark: d_model 32, a rank-8 successor
BASE32 = ModelSpec(
    n_layers=2, d_model=32, n_heads=2, d_ff=64, vocab=16, max_steps=16,
    fusion_period=2, adapter_rank=0, seed=0,
)


def _rank8_chain(k: int, seed: int = 0) -> Ensemble:
    """k BASE32 models; successors carry rank-8 adapters with nonzero B, and
    the third model fuses at every layer."""
    specs = [dataclasses.replace(BASE32, adapter_rank=8 if i else 0,
                                 fusion_period=1 if i == 2 else 2, seed=seed + i)
             for i in range(k)]
    ens = Ensemble(EnsembleSpec(specs, lambdas=[0.3] * (k - 1), top_k=2))
    rng = np.random.default_rng(seed)
    for m in ens.models[1:]:
        m.write((key, rng.normal(0.0, 0.1, v.shape)) for key, v in m.params.items() if key.endswith(".B"))
    return ens


def _modsum(n_samples: int, seed: int = 1):
    return generate(TaskSpec("modsum", vocab=16, length=8, n_samples=n_samples, seed=seed,
                             modulus=7))


class TestLeanChainWalk:
    """The teacher-forced chain walk keeps no layer activations, and gives
    bit for bit what a walk of forward_train calls gives."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_bit_identical_to_forward_train_walk(self, k, monkeypatch):
        ens = _rank8_chain(k)
        ds = _modsum(20)
        want, _ = chain_walk_train(ens, k - 1, ds.tokens)
        got = chain_logits(ens, ds.tokens)
        assert len(got) == k
        for z, w in zip(got, want):
            assert np.array_equal(z, w)
        for i in range(k):
            want_z, want_states = chain_walk_train(ens, i, ds.tokens)
            z, states = pred_forward_chain(ens, i, ds.tokens)
            assert np.array_equal(z, want_z[-1])
            assert len(states) == len(want_states) == BASE32.n_layers + 1
            for h, w in zip(states, want_states):
                assert np.array_equal(h, w)
        got_eval = chain_eval(ens, ds)
        monkeypatch.setattr(training, "chain_logits",
                            lambda e, tokens: chain_walk_train(e, len(e.models) - 1, tokens)[0])
        assert got_eval == chain_eval(ens, ds)

    def test_only_forward_train_keeps_activations(self):
        ens = _rank8_chain(2)
        tokens = _modsum(4).tokens
        pred = ens.models[0]._forward(tokens)[1]["states"]
        succ = ens.models[1]
        f_in = ens.fusion_inputs(1, pred)
        _, acts = succ._forward(tokens, f_in)
        assert acts["layers"] == [] and len(acts["states"]) == BASE32.n_layers + 1
        _, acts = succ.forward_train(tokens, f_in)
        assert len(acts["layers"]) == BASE32.n_layers
        assert [a["fused"] for a in acts["layers"]] == [False, True]

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("bad, message", [
        ("token_-1", "token id -1 out of range for vocab 16"),
        ("token_vocab", "token id 16 out of range for vocab 16"),
        ("wider_than_max_steps", "step 16 exceeds max_steps 16"),
    ])
    def test_refuses_what_one_model_refuses(self, k, bad, message):
        ens, ds = _rank8_chain(k), _modsum(4)
        tokens, gold = ds.tokens.copy(), ds.gold.copy()
        if bad == "wider_than_max_steps":  # labelled to the last column, which chain_eval scores
            tokens = np.concatenate([tokens] * 2, axis=1)[:, : BASE32.max_steps + 1]
            gold = np.concatenate([gold] * 2, axis=1)[:, : BASE32.max_steps + 1]
            gold[:, -1] = 3
        else:
            tokens[1, 2] = -1 if bad == "token_-1" else BASE32.vocab
        with pytest.raises(IndexError) as one:
            ens.models[0].forward_train(tokens)
        assert str(one.value) == message
        for run in (lambda: chain_logits(ens, tokens),
                    lambda: pred_forward_chain(ens, k - 1, tokens),
                    lambda: pred_forward_chain(ens, 0, tokens),
                    lambda: chain_eval(ens, Dataset(tokens, gold))):
            with pytest.raises(IndexError) as err:
                run()
            assert str(err.value) == message

    def test_checked_once_per_walk_and_never_per_decode_step(self, monkeypatch):
        calls = []
        for module in (model_mod, ensemble_mod):
            def spy(*args, _orig=module.check_tokens, **kw):
                calls.append(1)
                return _orig(*args, **kw)

            monkeypatch.setattr(module, "check_tokens", spy)
        ens = _rank8_chain(3)
        chain_logits(ens, _modsum(4).tokens)
        assert len(calls) == 1  # one check for three models
        toks, _ = pipeline.decode_sequential(ens, [1, 2, 3], max_tokens=5)
        assert len(toks) > 1 and len(calls) == 1

    def test_chain_eval_peak_memory(self):
        # the train_modsum chain, untrained, on one 100-row held-out part: a
        # part that needs more heap than a training step (3.3-3.4 MB) leaves
        # free makes glibc grow the heap and trim it back on every part
        ens, part = modsum_chain(), modsum(100, seed=1 + 7919)
        peak = traced_peak(lambda: chain_eval(ens, part))
        assert peak <= 4.4, f"chain_eval peaked at {peak:.2f} MB"


# the criterion-6 probe's model shape
TINY = ModelSpec(
    n_layers=2, d_model=16, n_heads=2, d_ff=32, vocab=12, max_steps=16,
    fusion_period=2, adapter_rank=0, seed=2,
)


def _live_width_case(name):
    """(model, tokens, gold, err, alpha, keys, fusion_in, live width) of a
    labelled batch; every modsum row ends in [..., eos, -1]."""
    ds = _modsum(32)
    tokens, gold, err = ds.tokens, ds.gold.copy(), np.full_like(ds.gold, -1)
    T = tokens.shape[1]
    alpha, keys, fusion_in, width = 1.0, None, None, T - 1
    model = TransformerModel(dataclasses.replace(BASE32, seed=10))
    if name.startswith("successor"):  # stage 2: a rank-8 model behind a frozen base
        ens = _rank8_chain(2, seed=11)
        z, states = pred_forward_chain(ens, 0, tokens)
        err = predecessor_errors(z, gold)
        assert (err >= 0).any()
        model, fusion_in, alpha = ens.models[1], ens.fusion_inputs(1, states), 0.9
        if name == "successor_adapters":
            keys = trainable_keys(model, "adapters")
    elif name == "probe":  # criterion 6's modsum+err batch
        ds = generate(TaskSpec("modsum", vocab=12, length=4, n_samples=24, seed=2, modulus=7))
        tokens, gold = ds.tokens, ds.gold
        err = np.where(gold >= 0, (gold + 1) % 12, -1)
        model, alpha, width = TransformerModel(TINY), 0.9, tokens.shape[1] - 1
    elif name == "last_column_labelled":
        gold[5, -1] = 3
        width = T
    elif name == "all_holes":
        gold[:] = -1
        width = 1
    elif name == "one_row":
        tokens, gold, err = tokens[:1], gold[:1], err[:1]
    return model, tokens, gold, err, alpha, keys, fusion_in, width


LIVE_WIDTH_CASES = ["stage1", "successor_adapters", "successor_full", "probe",
                    "last_column_labelled", "all_holes", "one_row"]


def _record_widths(monkeypatch) -> list:
    """Patch forward_pass where TransformerModel._forward and Ensemble.walk,
    which every teacher-forced pass runs through, look it up, to record the
    width of each token batch it receives."""
    widths = []
    for module in (model_mod, ensemble_mod):
        def spy(spec, views, tokens, *args, _orig=module.forward_pass, **kw):
            widths.append(tokens.shape[1])
            return _orig(spec, views, tokens, *args, **kw)

        monkeypatch.setattr(module, "forward_pass", spy)
    return widths


class TestLiveWidth:
    """Labelled passes run only columns 0 .. n-1, n = 1 + the last labelled
    column, bit for bit equal to the full-width pass on these cases (not on
    every shape: tests/test_properties.py checks the cut to 1e-12)."""

    @pytest.mark.parametrize("name", LIVE_WIDTH_CASES)
    def test_stage_batch_pass_matches_full_width(self, name, monkeypatch):
        model, tokens, gold, err, alpha, keys, fusion_in, width = _live_width_case(name)
        want_ce, want_supp, want = stage_batch_pass_full(
            model, tokens, gold, err, alpha, 0.1, fusion_in, keys=keys)
        widths = _record_widths(monkeypatch)
        ce, supp, grads = training.stage_batch_pass(
            model, tokens, gold, err, alpha, 0.1, fusion_in, keys=keys)
        assert widths == [width]
        assert ce == want_ce and supp == want_supp
        if name.startswith("successor"):
            assert supp > 0.0
        if name == "all_holes":
            assert ce == 0.0 and supp == 0.0
        assert grads.shape == want.shape and np.array_equal(grads, want)

    def test_close_where_attention_sums_regroup(self):
        # T = 8 cut to 7: numpy groups a 7-key attention row sum unlike an
        # 8-key one, so bits may differ, by rounding only
        ds = generate(TaskSpec("copy", vocab=12, length=3, n_samples=16, seed=1))
        err = np.where(ds.gold >= 0, (ds.gold + 1) % 12, -1)
        model = TransformerModel(SMALL)
        want_ce, want_supp, want = stage_batch_pass_full(model, ds.tokens, ds.gold, err, 0.9, 0.1)
        ce, supp, grads = training.stage_batch_pass(model, ds.tokens, ds.gold, err, 0.9, 0.1)
        assert ce == pytest.approx(want_ce, rel=1e-13) and supp == pytest.approx(want_supp, rel=1e-13)
        grads = model.flat_blocks(None, grads)
        for key, g in model.flat_blocks(None, want).items():
            np.testing.assert_allclose(grads[key], g, rtol=0, atol=1e-12 * np.abs(g).max())

    def test_alignment_runs_live_width(self, monkeypatch):
        model, tokens, gold, err, _, _, fusion_in, width = _live_width_case("successor_full")
        for scope in ("full", "adapters"):
            keys = trainable_keys(model, scope)
            want = estimate_alignment_loop(model, tokens, gold, err, keys, 0.1, fusion_in)[0]
            widths = _record_widths(monkeypatch)
            assert estimate_alignment(model, tokens, gold, err, keys, 0.1, fusion_in) == want
            assert widths == [width]
            monkeypatch.undo()

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_chain_eval_matches_full_width(self, k, monkeypatch):
        ens, ds = _rank8_chain(k, seed=4), _modsum(100)
        want = chain_eval_full(ens, ds)
        widths = _record_widths(monkeypatch)
        assert chain_eval(ens, ds) == want
        assert widths == [ds.tokens.shape[1] - 1] * k

    def test_chain_eval_refuses_an_unlabelled_set(self):
        ds = _modsum(8)
        with pytest.raises(ValueError, match="no labelled position"):
            chain_eval(_rank8_chain(2), Dataset(ds.tokens, np.full_like(ds.gold, -1)))

    def test_training_sees_one_column_less(self, monkeypatch):
        # modsum rows end in [..., eos, -1]: the eos column carries no label
        ds = _modsum(40)
        widths = _record_widths(monkeypatch)
        cfg = TrainConfig(learning_rate=0.05, epochs=1, batch_size=16, seed=0)
        train_model(TransformerModel(BASE32), ds, cfg)
        assert widths == [ds.tokens.shape[1] - 1] * 3


class TestTrainChain:
    def _dataset(self):
        return generate(TaskSpec("copy", vocab=12, length=3, n_samples=24, seed=1))

    @pytest.mark.parametrize("field, value", [
        ("epochs", 0), ("epochs", -1), ("batch_size", 0), ("stage2_epochs", 0),
        ("epochs", 2.5), ("batch_size", True), ("epochs", None), ("seed", -1),
    ])
    def test_rejects_counts_below_one(self, field, value):
        with pytest.raises(ValueError, match=rf"{field} must be an integer >= [01], got {value}"):
            TrainConfig(**{field: value})
        TrainConfig(**{field: 1})
        TrainConfig(stage2_epochs=None)

    @pytest.mark.parametrize("value", [0, -0.1, float("nan"), float("inf"), True, "0.1"])
    @pytest.mark.parametrize("field", ["alpha", "beta", "learning_rate", "stage2_learning_rate"])
    def test_rates_are_finite_positive_numbers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a finite positive number, got "):
            TrainConfig(**{field: value})
        TrainConfig(**{field: 1})

    def test_rejects_unknown_successor_init(self):
        with pytest.raises(ValueError, match="successor_init"):
            TrainConfig(successor_init="copy")
        TrainConfig(successor_init="fresh")

    def test_base_copy_rejects_mismatched_shapes(self):
        import dataclasses

        succ_spec = dataclasses.replace(SMALL, d_ff=24, adapter_rank=4, seed=100)
        ens = Ensemble(EnsembleSpec([SMALL, succ_spec], [0.3]))
        cfg = TrainConfig(learning_rate=0.05, epochs=1, batch_size=8, stage2_epochs=1)
        with pytest.raises(ValueError, match=r"'l1\.w1' of model 1"):
            train_chain(ens, self._dataset(), cfg)

    def test_fresh_successor_keeps_its_own_weights(self):
        ds = self._dataset()
        cfg = TrainConfig(learning_rate=0.05, epochs=2, batch_size=8, seed=0,
                          stage2_epochs=2, successor_init="fresh")
        succ_spec = dataclasses.replace(SMALL, adapter_rank=4, seed=100)
        ens = Ensemble(EnsembleSpec([SMALL, succ_spec], [0.3]))
        train_chain(ens, ds, cfg)
        # adapter-only stage 2 leaves the successor's own initial weights be
        init = TransformerModel(succ_spec)
        base, succ = ens.models
        keys = trainable_keys(succ, "full")
        for k in keys:
            assert np.array_equal(succ.params[k], init.params[k]), k
        assert not np.array_equal(flatten_params(succ, keys), flatten_params(base, keys))
        assert any(v.any() for k, v in succ.params.items() if k.endswith(".B"))

    def test_single_model_chain_matches_train_model(self):
        ds = self._dataset()
        cfg = TrainConfig(learning_rate=0.05, epochs=3, batch_size=8, seed=0)
        ens = Ensemble(EnsembleSpec([SMALL]))
        train_chain(ens, ds, cfg)
        solo = TransformerModel(SMALL)
        train_model(solo, ds, cfg)
        for k in solo.params:
            assert np.array_equal(solo.params[k], ens.models[0].params[k])

    def test_stage_two_freezes_predecessor(self):
        ds = self._dataset()
        cfg = TrainConfig(
            learning_rate=0.05, epochs=3, batch_size=8, seed=0,
            stage2_epochs=2, stage2_learning_rate=0.05,
        )
        import dataclasses

        succ_spec = dataclasses.replace(SMALL, adapter_rank=4, seed=100)
        ens = Ensemble(EnsembleSpec([SMALL, succ_spec], [0.3]))
        train_chain(ens, ds, cfg)
        solo = TransformerModel(SMALL)
        train_model(solo, ds, cfg)
        # the base must come out of the full two-stage run bit-identical to a
        # stage-1-only run: stage 2 never touches it
        for k in solo.params:
            assert np.array_equal(solo.params[k], ens.models[0].params[k])

    def test_metrics_schema(self):
        ds = self._dataset()
        cfg = TrainConfig(
            learning_rate=0.05, epochs=2, batch_size=8, seed=0, stage2_epochs=2
        )
        import dataclasses

        succ_spec = dataclasses.replace(SMALL, adapter_rank=4, seed=100)
        ens = Ensemble(EnsembleSpec([SMALL, succ_spec], [0.3]))
        metrics = train_chain(ens, ds, cfg)
        stages = {m["stage"] for m in metrics}
        assert "stage1" in stages and "stage2" in stages
        for m in metrics:
            if m["stage"] in ("stage1", "stage2"):
                assert {"model_index", "epoch", "ce", "suppression"} <= set(m)
                assert np.isfinite(m["ce"])
        align = [m for m in metrics if m["stage"] == "stage2_alignment"]
        for m in align:
            assert 0.0 <= m["rho"] < 1.0
            assert m["gamma"] >= 0.0

    def test_keyed_backward_trains_bit_identically(self, monkeypatch):
        # train_model asks backward for its trainable keys only; with the full
        # backward instead, records and every weight come out the same
        ds = self._dataset()
        cfg = TrainConfig(learning_rate=0.05, epochs=2, batch_size=8, seed=0,
                          stage2_epochs=3, stage2_learning_rate=0.1)

        def run():
            succ_spec = dataclasses.replace(SMALL, adapter_rank=8, seed=100)
            ens = Ensemble(EnsembleSpec([SMALL, succ_spec], [0.3]))
            return train_chain(ens, ds, cfg), ens.models

        orig = training.stage_batch_pass
        seen = []

        def spy(*args, keys=None, **kw):
            seen.append(keys)
            return orig(*args, keys=keys, **kw)

        monkeypatch.setattr(training, "stage_batch_pass", spy)
        keyed_records, keyed = run()
        assert {tuple(k) for k in seen} == {
            tuple(trainable_keys(m, "full" if i == 0 else "adapters")) for i, m in enumerate(keyed)
        }
        def full_then_keys(model, *args, keys=None, **kw):
            ce, supp, grads = orig(model, *args, **kw)
            blocks = model.flat_blocks(None, grads)
            return ce, supp, np.concatenate([blocks[k].ravel() for k in keys])

        monkeypatch.setattr(training, "stage_batch_pass", full_then_keys)
        full_records, full = run()
        assert keyed_records == full_records
        for a, b in zip(keyed, full):
            assert list(a.params) == list(b.params)
            for k in a.params:
                assert np.array_equal(a.params[k], b.params[k]), k

    def test_train_model_works_out_keys_alpha_and_beta(self, monkeypatch):
        # a model's adapter factors when it has them, else every parameter;
        # alpha 1 (plain CE) without err and cfg.alpha with it; beta cfg.beta
        ds = self._dataset()
        cfg = TrainConfig(alpha=0.8, beta=0.2, learning_rate=0.05, epochs=1, batch_size=8)
        orig, seen = training.stage_batch_pass, set()

        def spy(model, tokens, gold, err, alpha, beta, fusion_in, keys):
            seen.add((tuple(keys), alpha, beta))
            return orig(model, tokens, gold, err, alpha, beta, fusion_in, keys=keys)

        monkeypatch.setattr(training, "stage_batch_pass", spy)
        plain = TransformerModel(SMALL)
        adapted = TransformerModel(dataclasses.replace(SMALL, adapter_rank=4))
        train_model(plain, ds, cfg)
        train_model(adapted, ds, cfg, err=np.full_like(ds.gold, -1))
        assert seen == {(tuple(trainable_keys(plain, "full")), 1.0, 0.2),
                        (tuple(trainable_keys(adapted, "adapters")), 0.8, 0.2)}

    def test_successor_diverges_from_base_on_error_positions(self):
        ds = self._dataset()
        cfg = TrainConfig(
            learning_rate=0.05, epochs=2, batch_size=8, seed=0,
            stage2_epochs=3, stage2_learning_rate=0.1,
        )
        import dataclasses

        succ_spec = dataclasses.replace(SMALL, adapter_rank=4, seed=100)
        ens = Ensemble(EnsembleSpec([SMALL, succ_spec], [0.3]))
        train_chain(ens, ds, cfg)
        keys = trainable_keys(ens.models[0], "full")
        succ = ens.models[1]
        assert trainable_keys(succ, "full") == keys
        # base-copy init plus adapter-only training: shared weights identical
        np.testing.assert_array_equal(flatten_params(ens.models[0], keys), flatten_params(succ, keys))
        assert any(v.any() for k, v in succ.params.items() if k.endswith(".B"))
