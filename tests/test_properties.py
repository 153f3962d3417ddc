"""Bit-identity contracts of the decoders and of backward, checked over
random models.

Decoders: hypothesis draws a chain (k of 1 to 3 models, 1 to 3 layers each,
a d_model with 1 to 4 heads dividing it, fusion period 1 to 3, successor
adapter ranks 0, 1 or 3 with nonzero B factors, each model with gains and
biases of its own), top_k, a prompt and max_tokens within a max_steps of up
to 48, so that KV buffers grow. The models share their structure in about
half the chains, which the layer-synchronous decoder stacks; the others
fall back to the sequential decode. For each chain, decode_pipelined equals decode_sequential bit for
bit, and both are within 1e-9 of the teacher-forced chain_logits +
fuse_logits at every emitted step, with the same argmax.

backward: hypothesis draws one model of the same kinds, a (B, T) batch with
or without fusion inputs, dlogits and an ordered set of keys. backward
returns one C-contiguous float64 array, (P,) summed and (B, P) per sample,
over the keys' blocks (model.flat_blocks) or, without keys, every params
array's in params order. Each keyed block equals the full call's block for
that key, summed and per sample; row b of the per-sample result is the
summed call on row b alone; repeated keys raise ValueError in both modes
before backward reads an activation; and load_flat_params takes back what
flatten_params gives, bit for bit, in the same layout. A stack of C = 1 to
3 cotangents, (C, B, T, V), per sample: [c] of the full and of the keyed
rows equals the call on dlogits[c] bit for bit; a stack without per_sample
and dlogits of rank other than 3 or 4 raise ValueError before any work. A
guard checks that the drawn passes reach factor keys, fusion inputs and
every batch size.

The embedding gradient: np.bincount over flat indices equals the np.add.at
oracle on drawn tokens with repeats, summed and per sample, written into
out, a fresh table or a column block of a wider array (as backward's
per-sample rows).

The live cut: a labelled batch cut to its live width (training._live) gives
every labelled position the logits of the full-width pass, and
stage_batch_pass the ce, supp and gradients of the full-width oracle, to
within 1e-12 of the largest magnitude. Not bit for bit: a cut changes the
shapes the products run at, and BLAS sums a one-row product (gemv) and a
product over fewer rows in another order (a (1, 2, d) batch cut to one
column moves a last bit of its logits).

State: a write moves the model's version on, and both decoders read the new
weights on the next request, as a chain of fresh copies does. A copy,
deepcopy or pickle round trip of a chain that has decoded (so that its
views and stacked weights are built) decodes alike, and a write through the
copy leaves the original as it was.

Layer layout: one-row _ln_forward equals its row of the k-row call, with
(1, 1, n) gains and biases; transformer_layer over a model's views, whose
gains and biases are (1, 1, n), equals the same call over (n,) ones
(oracles.layer_params_1d), on a one-row step over a drawn KV cache and on a
batched pass, and each row of the stacked k-row call over the chain's
stacked weights equals its model's one-row call over the (n,) ones.

The row max: softmax_rows on drawn batches on both sides of its fold rule
(numkit._folded_max for many short rows), with causal -1e30 masks, whole
rows of -inf, NaN and zeros of either sign, gives the bits of the reduce
(oracles.softmax_rows) and only reads its input.

Runs are derandomized, so every run draws the same examples.
"""

import copy
import dataclasses
import pickle
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainboost import numkit
from chainboost.ensemble import Ensemble, EnsembleSpec, fuse_logits
from chainboost.model import (
    KV_FIRST_ROOM,
    KvCache,
    ModelSpec,
    TransformerModel,
    _embedding_grad,
    _ln_forward,
    stack_views,
    transformer_layer,
)
from chainboost.numkit import softmax_rows
from chainboost.pipeline import decode_pipelined, decode_sequential
from chainboost.training import (_live, chain_logits, flatten_params, load_flat_params,
                                 stage_batch_pass)
from oracles import embedding_grad, layer_params_1d, stage_batch_pass_full
from oracles import softmax_rows as oracle_softmax_rows
from test_kernels import assert_same_tree, same_bits

LOGIT_TOL = 1e-9
CUT_TOL = 1e-12


@st.composite
def structure(draw, d_model: int, max_layers: int) -> dict:
    """One model's layer count, heads, d_ff and fusion period; with at most
    max_layers layers, so that its deepest fusion layer l finds the
    predecessor state l - 1."""
    return dict(
        n_layers=draw(st.integers(1, max_layers)),
        n_heads=draw(st.sampled_from([h for h in range(1, 5) if d_model % h == 0])),
        d_ff=draw(st.sampled_from([4, 8, 16])),
        fusion_period=draw(st.integers(1, 3)),
    )


@st.composite
def requests(draw):
    """(ensemble, prompt, max_tokens) of a random chain."""
    k = draw(st.integers(1, 3))
    d_model = draw(st.sampled_from([4, 6, 8, 12, 24, 33]))
    vocab = draw(st.integers(6, 16))
    max_steps = draw(st.integers(2, 3 * KV_FIRST_ROOM))
    seed = draw(st.integers(0, 2**16))
    shared = draw(st.booleans())
    layouts = [draw(structure(d_model, 3))]
    for _ in range(1, k):
        layouts.append(layouts[0] if shared else draw(structure(d_model, layouts[-1]["n_layers"] + 1)))
    specs = [
        ModelSpec(d_model=d_model, vocab=vocab, max_steps=max_steps, seed=seed + i,
                  adapter_rank=0 if i == 0 else draw(st.sampled_from([0, 1, 3])), **layout)
        for i, layout in enumerate(layouts)
    ]
    lambdas = [draw(st.sampled_from([0.1, 0.3, 1.0])) for _ in range(k - 1)]
    ens = Ensemble(EnsembleSpec(specs, lambdas, draw(st.integers(1, vocab))))
    rng = np.random.default_rng(seed)
    for m in ens.models:  # every model's own gains and biases; successors' B factors
        m.write((key, v + rng.normal(0.0, 0.5, v.shape)) for key, v in m.params.items()
                if key.endswith(".B") or v.ndim == 1)
    prompt = draw(st.lists(st.integers(0, vocab - 1), min_size=1, max_size=max_steps - 1))
    max_tokens = draw(st.integers(1, max_steps - len(prompt)))
    return ens, prompt, max_tokens


@settings(max_examples=150, derandomize=True, deadline=None)
@given(requests())
def test_decoders_agree_with_teacher_forcing(request):
    ens, prompt, max_tokens = request
    toks, logits = decode_sequential(ens, prompt, max_tokens)
    toks_p, logits_p, _ = decode_pipelined(ens, prompt, max_tokens)
    assert toks == toks_p
    assert np.array_equal(logits, logits_p)
    eos = ens.spec.vocab - 1
    assert len(toks) == max_tokens or toks[-1] == eos
    assert eos not in toks[:-1]
    zs = chain_logits(ens, np.array([prompt + toks[:-1]]))
    first = len(prompt) - 1
    for j, tok in enumerate(toks):
        ref = fuse_logits([z[0, first + j] for z in zs], ens.spec.lambdas, ens.spec.top_k)
        assert np.max(np.abs(ref - logits[j])) <= LOGIT_TOL
        assert int(ref.argmax()) == tok


def test_draws_cover_every_shape():
    """The drawn chains reach every k, stacked and fallen-back chains, the
    largest requests and prompts that outgrow the first KV buffer: a guard
    against a strategy that stops drawing a case."""
    seen = set()

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(requests())
    def record(request):
        ens, prompt, max_tokens = request
        specs = ens.spec.models
        stacked = len({dataclasses.replace(s, seed=0, adapter_rank=0) for s in specs}) == 1
        seen.add(("k", len(specs)))
        seen.add(("stacked", stacked))
        seen.add(("fills max_steps", len(prompt) + max_tokens == specs[0].max_steps))
        seen.add(("prompt outgrows the first KV buffer", len(prompt) > KV_FIRST_ROOM))

    record()
    assert seen >= {("k", 1), ("k", 2), ("k", 3), ("stacked", True), ("stacked", False),
                    ("fills max_steps", True), ("prompt outgrows the first KV buffer", True)}


@st.composite
def training_passes(draw):
    """(model, tokens, fusion_in, dlogits, keys) of a random model and batch;
    keys is a nonempty subset of the model's params keys in random order."""
    d_model = draw(st.sampled_from([4, 6, 8, 12]))
    vocab, T, B = draw(st.integers(6, 12)), draw(st.integers(1, 6)), draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**16))
    spec = ModelSpec(d_model=d_model, vocab=vocab, max_steps=T, seed=seed,
                     adapter_rank=draw(st.sampled_from([0, 1, 3])), **draw(structure(d_model, 3)))
    model = TransformerModel(spec)
    rng = np.random.default_rng(seed)
    model.write((key, rng.normal(0.0, 0.5, v.shape)) for key, v in model.params.items()
                if key.endswith(".B"))
    tokens = rng.integers(0, vocab, (B, T))
    fusion_in = None
    if draw(st.booleans()):
        fusion_in = {l: rng.normal(0.0, 1.0, (B, T, d_model)) for l in spec.fusion_layers()}
    keys = draw(st.lists(st.sampled_from(sorted(model.params)), min_size=1, unique=True))
    return model, tokens, fusion_in, rng.normal(0.0, 1.0, (B, T, vocab)), keys


@settings(max_examples=150, derandomize=True, deadline=None)
@given(training_passes())
def test_backward_keys_and_out_agree(case):
    model, tokens, fusion_in, dz, keys = case
    B = len(tokens)
    P, P_all = sum(model.params[k].size for k in keys), sum(v.size for v in model.params.values())
    _, acts = model.forward_train(tokens, fusion_in)
    for lead in ((), (B,)):
        per_sample = lead != ()
        full = model.backward(dz, acts, per_sample=per_sample)
        keyed = model.backward(dz, acts, per_sample=per_sample, keys=keys)
        for out, width in ((keyed, P), (full, P_all)):
            assert out.shape == lead + (width,) and out.dtype == np.float64 and out.flags.c_contiguous
        full_blocks = model.flat_blocks(None, full)
        assert all(np.array_equal(block, full_blocks[k])
                   for k, block in model.flat_blocks(keys, keyed).items())
        # no activations: a call that did any work before refusing would raise KeyError
        with pytest.raises(ValueError):
            model.backward(dz, {}, per_sample=per_sample, keys=keys + keys[:1])
    for b in range(B):
        f_in = None if fusion_in is None else {l: f[b : b + 1] for l, f in fusion_in.items()}
        _, acts_b = model.forward_train(tokens[b : b + 1], f_in)
        assert np.array_equal(keyed[b], model.backward(dz[b : b + 1], acts_b, keys=keys))
        assert np.array_equal(full[b], model.backward(dz[b : b + 1], acts_b))
    theta = flatten_params(model, keys)
    assert all(np.array_equal(block, model.params[k])
               for k, block in model.flat_blocks(keys, theta).items())
    load_flat_params(model, keys, theta + 1.0)
    load_flat_params(model, keys, theta)
    assert np.array_equal(flatten_params(model, keys), theta)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(training_passes(), st.integers(1, 3), st.integers(0, 2**16))
def test_stacked_backward_is_separate_calls(case, C, seed):
    model, tokens, fusion_in, dz, keys = case
    B = len(tokens)
    rng = np.random.default_rng(seed)
    stack = np.stack([dz] + [rng.normal(0.0, 1.0, dz.shape) for _ in range(C - 1)])
    _, acts = model.forward_train(tokens, fusion_in)
    every = model.backward(stack, acts, per_sample=True)
    keyed = model.backward(stack, acts, per_sample=True, keys=keys)
    P = sum(model.params[k].size for k in keys)
    assert every.shape == (C, B, sum(v.size for v in model.params.values()))
    assert keyed.shape == (C, B, P) and keyed.flags.c_contiguous
    for c in range(C):
        assert np.array_equal(every[c], model.backward(stack[c], acts, per_sample=True))
        assert np.array_equal(keyed[c], model.backward(stack[c], acts, per_sample=True, keys=keys))
    for dlogits, per_sample in ((stack, False), (stack[..., None], True), (stack[0, 0], True)):
        # no activations: a call that did any work before refusing would raise KeyError
        with pytest.raises(ValueError):
            model.backward(dlogits, {}, per_sample=per_sample, keys=keys)


def test_training_draws_cover_stacked_cases():
    """The drawn passes reach adapter factors among the keys, fusion inputs
    and every batch size: a guard against a strategy that stops drawing a case."""
    seen = set()

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(training_passes())
    def record(case):
        model, tokens, fusion_in, _, keys = case
        seen.add(("factor keys", any(k.endswith((".A", ".B")) for k in keys)))
        seen.add(("fusion", fusion_in is not None))
        seen.add(("B", len(tokens)))

    record()
    assert {("factor keys", True), ("fusion", True), ("fusion", False)} <= seen
    assert {("B", b) for b in range(1, 5)} <= seen


# B, T, vocab, d, seed and per_sample of an embedding-gradient case
EMBEDDING_DRAWS = (st.integers(1, 6), st.integers(1, 8), st.integers(1, 6), st.integers(1, 8),
                   st.integers(0, 2**16), st.booleans())


@settings(max_examples=100, derandomize=True, deadline=None)
@given(*EMBEDDING_DRAWS)
def test_embedding_grad_matches_add_at(B, T, vocab, d, seed, per_sample):
    rng = np.random.default_rng(seed)
    tokens = rng.integers(0, vocab, (B, T))
    dh = rng.normal(0.0, 1.0, (B, T, d))
    dh[rng.random((B, T)) < 0.2] = -0.0
    want = embedding_grad(tokens, dh, vocab, per_sample)
    table = np.empty(((B,) if per_sample else ()) + (vocab, d))
    assert _embedding_grad(tokens, dh, vocab, per_sample, table) is table
    assert same_bits(table, want)
    if per_sample:  # into a column block of a wider (B, P) array, as backward's out
        out = np.full((B, 3 + vocab * d), np.nan)
        block = out[:, 3:].reshape(B, vocab, d)
        assert _embedding_grad(tokens, dh, vocab, True, block) is block
        assert same_bits(block, want) and np.isnan(out[:, :3]).all()


def test_embedding_draws_repeat_tokens():
    """Most drawn batches hit some table row twice, within a row and across rows."""
    seen = set()

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(*EMBEDDING_DRAWS)
    def record(B, T, vocab, d, seed, per_sample):
        tokens = np.random.default_rng(seed).integers(0, vocab, (B, T))
        seen.add(("repeat within a row", any(len(set(r)) < T for r in tokens.tolist())))
        seen.add(("repeat across rows", len(set(tokens.ravel().tolist())) < B * T and B > 1))

    record()
    assert {("repeat within a row", True), ("repeat across rows", True)} <= seen


@st.composite
def labelled_batches(draw):
    """(model, tokens, gold, err, alpha, fusion_in, keys) of a random model and
    a batch whose labels stop at a drawn column, so that _live cuts it."""
    model, tokens, fusion_in, _, keys = draw(training_passes())
    B, T = tokens.shape
    vocab = model.spec.vocab
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    gold = np.where(rng.random((B, T)) < 0.6, rng.integers(0, vocab, (B, T)), -1)
    gold[:, draw(st.integers(1, T)):] = -1
    err = np.where((gold >= 0) & (rng.random((B, T)) < 0.5), (gold + 1) % vocab, -1)
    alpha = draw(st.sampled_from([0.0, 0.5, 1.0]))
    return model, tokens, gold, err, alpha, fusion_in, draw(st.sampled_from([None, keys]))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(labelled_batches())
def test_live_cut_equals_full_width(case):
    model, tokens, gold, err, alpha, fusion_in, keys = case
    n, cut, cut_in = _live(gold, tokens, fusion_in)
    assert cut.shape[1] == n and (gold[:, n:] < 0).all()
    labelled = gold >= 0
    z_full, _ = model.forward_train(tokens, fusion_in)
    z_cut, _ = model.forward_train(cut, cut_in)
    close(z_cut[labelled[:, :n]], z_full[labelled])
    ce, supp, grads = stage_batch_pass(model, tokens, gold, err, alpha, 0.1, fusion_in, keys)
    want_ce, want_supp, want = stage_batch_pass_full(model, tokens, gold, err, alpha, 0.1,
                                                     fusion_in, keys)
    close(ce, want_ce)
    close(supp, want_supp)
    want = model.flat_blocks(keys, want)
    for k, block in model.flat_blocks(keys, grads).items():
        close(block, want[k])


def close(got, want) -> None:
    """Equal up to rounding: within CUT_TOL of want's largest magnitude."""
    np.testing.assert_allclose(got, want, rtol=0, atol=CUT_TOL * np.max(np.abs(want), initial=0.0))


def decode_both(ens, prompt, max_tokens):
    """(tokens, fused logits) of both decoders, checked equal."""
    toks, logits = decode_sequential(ens, prompt, max_tokens)
    toks_p, logits_p, _ = decode_pipelined(ens, prompt, max_tokens)
    assert toks == toks_p and same_bits(logits, logits_p)
    return toks, logits


def fresh_copies(ens: Ensemble) -> Ensemble:
    """The chain over deep copies of its models, which hold no views yet."""
    return Ensemble(ens.spec, [copy.deepcopy(m) for m in ens.models])


def perturb(model: TransformerModel, seed: int) -> None:
    """Move every parameter of model by a random step, through write."""
    rng = np.random.default_rng(seed)
    model.write(((key, rng.normal(0.0, 1.0, v.shape)) for key, v in model.params.items()), lr=0.3)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(requests(), st.data())
def test_write_reaches_the_next_request(request, data):
    ens, prompt, max_tokens = request
    _, before = decode_both(ens, prompt, max_tokens)  # builds the views and stacked weights
    m = ens.models[data.draw(st.integers(0, len(ens.models) - 1))]
    version = m.version
    perturb(m, version)
    assert m.version == version + 1
    toks, logits = decode_both(ens, prompt, max_tokens)
    toks_f, logits_f = decode_sequential(fresh_copies(ens), prompt, max_tokens)
    assert toks == toks_f and same_bits(logits, logits_f)
    assert not np.array_equal(logits[0], before[0])


COPIES = {
    "copy": lambda ens: Ensemble(ens.spec, [copy.copy(m) for m in ens.models]),
    "deepcopy": copy.deepcopy,
    "pickle": lambda ens: pickle.loads(pickle.dumps(ens)),
}


@settings(max_examples=40, derandomize=True, deadline=None)
@given(requests(), st.sampled_from(sorted(COPIES)))
def test_copies_decode_alike(request, how):
    ens, prompt, max_tokens = request
    toks, logits = decode_both(ens, prompt, max_tokens)
    dup = COPIES[how](ens)
    toks_d, logits_d = decode_both(dup, prompt, max_tokens)
    assert toks_d == toks and same_bits(logits_d, logits)
    perturb(dup.models[0], 1)
    toks_o, logits_o = decode_both(ens, prompt, max_tokens)
    assert toks_o == toks and same_bits(logits_o, logits)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.integers(2, 4), st.sampled_from([4, 6, 8, 12, 24, 32, 33]), st.integers(0, 2**16))
def test_one_row_layer_norm_is_its_row(k, n, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 2.0, (k, 1, n)) + rng.normal(0.0, 50.0, (k, 1, 1))
    gain, bias = rng.normal(1.0, 0.2, (k, 1, n)), rng.normal(0.0, 0.2, (k, 1, n))
    y, (xhat, inv) = _ln_forward(x, gain, bias)
    for r in range(k):
        y_r, (xhat_r, inv_r) = _ln_forward(x[r : r + 1], gain[r : r + 1], bias[r : r + 1])
        assert same_bits(y_r, y[r : r + 1]) and same_bits(xhat_r, xhat[r : r + 1])
        assert same_bits(inv_r, inv[r : r + 1])


@st.composite
def layer_calls(draw):
    """(models, layer, steps cached before the call, seed): k of 1 to 3
    models of one structure, with drawn adapter ranks, nonzero B factors and
    gains and biases of their own, and one of their layers."""
    d_model = draw(st.sampled_from([4, 6, 8, 12, 24, 33]))
    layout = draw(structure(d_model, 3))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    models = []
    for i in range(draw(st.integers(1, 3))):
        m = TransformerModel(ModelSpec(d_model=d_model, vocab=8, max_steps=3 * KV_FIRST_ROOM,
                                       seed=seed + i, adapter_rank=draw(st.sampled_from([0, 1, 3])),
                                       **layout))
        m.write((key, rng.normal(0.0, 0.5, v.shape)) for key, v in m.params.items()
                if key.endswith(".B") or v.ndim == 1)
        models.append(m)
    layer = draw(st.integers(1, layout["n_layers"]))
    return models, layer, draw(st.integers(0, 2 * KV_FIRST_ROOM)), seed


def rows(tree, b: Optional[int] = None):
    """Every array of transformer_layer's (h, activations) but the parameter
    view, or its batch row b, kept as a one-row batch."""
    if isinstance(tree, dict):
        return {k: rows(v, b) for k, v in tree.items() if k != "p"}
    if isinstance(tree, tuple):
        return tuple(rows(v, b) for v in tree)
    return tree if b is None else tree[b : b + 1]


def filled_cache(spec: ModelSpec, layer: int, kv: np.ndarray) -> KvCache:
    """A cache whose layer holds the (2, B, heads, steps, dh) keys and values kv."""
    cache = KvCache(spec.n_layers)
    if kv.shape[3]:
        cache.extend(layer - 1, kv)
    return cache


@settings(max_examples=100, derandomize=True, deadline=None)
@given(layer_calls())
def test_layer_vectors_at_any_rank_agree(case):
    models, l, t0, seed = case
    s = models[0].spec
    k, d, nh = len(models), s.d_model, s.n_heads
    rng = np.random.default_rng(seed)
    past = rng.normal(0.0, 1.0, (2, k, nh, t0, d // nh))
    ht = rng.normal(0.0, 1.0, (k, 1, d))
    # one row over a cache: each model, and row b of the stacked call
    stacked = transformer_layer(stack_views(models)[l], ht,
                                filled_cache(s, l, past), l, nh, None)
    for b, m in enumerate(models):
        one_d = transformer_layer(layer_params_1d(m, l), ht[b : b + 1],
                                  filled_cache(s, l, past[:, b : b + 1]), l, nh, None)
        one = transformer_layer(m.param_views()[l], ht[b : b + 1],
                                filled_cache(s, l, past[:, b : b + 1]), l, nh, None)
        assert_same_tree(rows(one, 0), rows(one_d, 0))
        assert_same_tree(rows(stacked, b), rows(one_d, 0))
    # a batched pass from position 0, causally masked
    B, T = int(rng.integers(1, 5)), int(rng.integers(1, 9))
    hb = rng.normal(0.0, 1.0, (B, T, d))
    mask = np.triu(np.full((T, T), -1e30), k=1)
    m = models[0]
    assert_same_tree(rows(transformer_layer(m.param_views()[l], hb, None, l, nh, mask)),
                     rows(transformer_layer(layer_params_1d(m, l), hb, None, l, nh, mask)))


@st.composite
def softmax_batches(draw) -> np.ndarray:
    """A (rows, cols) or (2 or 3, rows / that, cols) array on either side of
    softmax_rows' fold rule: 1 to 20 columns and within 48 rows of 24 per
    column. Normal entries, at two scales, with causal -1e30 masks, whole
    rows of -inf or of zeros of either sign, and NaN, inf and zeros of
    either sign scattered."""
    cols = draw(st.integers(1, 20))
    rows = draw(st.integers(max(1, 24 * cols - 48), 24 * cols + 48))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    z = rng.normal(0.0, draw(st.sampled_from([1.0, 1e3])), (rows, cols))
    if draw(st.booleans()):
        z += np.triu(np.full((cols, cols), -1e30), k=1)[rng.integers(cols, size=rows)]
    specials = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0])
    for _ in range(draw(st.integers(0, 6))):
        z[rng.integers(rows), rng.integers(cols)] = specials[rng.integers(len(specials))]
    if draw(st.booleans()):
        z[rng.integers(rows)] = -np.inf
    if draw(st.booleans()):
        z[rng.integers(rows)] = rng.choice([0.0, -0.0], size=cols)
    split = draw(st.sampled_from([1, 2, 3]))
    return z.reshape(split, rows // split, cols) if rows % split == 0 else z


@settings(max_examples=300, derandomize=True, deadline=None)
@given(softmax_batches())
def test_folded_row_max_gives_the_reduce_bits(z):
    before = z.copy()
    with np.errstate(invalid="ignore"):
        assert same_bits(softmax_rows(z), oracle_softmax_rows(z))
    assert same_bits(z, before)


def test_softmax_draws_cover_both_paths(monkeypatch):
    """The drawn batches reach both the fold and the reduce, and folds that
    meet a NaN or a zero max: a guard against a strategy that stops drawing
    a case."""
    seen, folded = set(), []

    def spy(z):
        folded.append(z)
        return real(z)

    real = numkit._folded_max
    monkeypatch.setattr(numkit, "_folded_max", spy)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(softmax_batches())
    def record(z):
        folded.clear()
        with np.errstate(invalid="ignore"):
            softmax_rows(z)
        seen.add(("folds", bool(folded)))
        seen.add(("folds a NaN row", bool(folded) and bool(np.isnan(z).any())))
        seen.add(("folds a zero max", bool(folded) and bool((z.max(axis=-1) == 0.0).any())))

    record()
    assert seen >= {("folds", True), ("folds", False), ("folds a NaN row", True),
                    ("folds a zero max", True)}
