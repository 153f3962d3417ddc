"""The layer kernels write only arrays they allocate, bit for bit as before.

Each kernel in chainboost.model and chainboost.numkit works in place on its
own temporaries. It must equal the out-of-place oracle in tests/oracles.py
bit for bit, signed zeros included, and leave every input unchanged. The
shapes are those of training (32, 8, d), evaluation (100, 8, d), a decode
step (1, 1, d) and the stacked decoder (k, 1, d) with per-model gains. A
one-row LayerNorm input takes its statistics as Python floats, and each row
of a k-row call must be what that row alone gives.
"""

import copy
import dataclasses
import math

import numpy as np
import pytest

import oracles
from chainboost import model as M
from chainboost.model import ModelSpec, TransformerModel
from chainboost.numkit import softmax_rows
from chainboost.training import _objective, batch_loss_and_grad

# (batch, positions, d_model), and the leading shape of per-model gains
SHAPES = {
    "train32": ((32, 8, 32), ()),
    "train64": ((32, 8, 64), ()),
    "eval": ((100, 8, 64), ()),
    "decode": ((1, 1, 32), ()),
    "stacked": ((3, 1, 32), (3, 1)),
}


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_same_tree(got, want, path="out"):
    """Arrays in nested dicts, lists and tuples are equal bit for bit."""
    if isinstance(want, dict):
        assert got.keys() == want.keys(), path
        for k in want:
            assert_same_tree(got[k], want[k], f"{path}[{k!r}]")
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same_tree(g, w, f"{path}[{i}]")
    elif isinstance(want, np.ndarray):
        assert same_bits(got, want), f"{path} differs"
    else:
        assert got == want, path


def rows_at_their_mean(x):
    """Set some rows constant: row - mean is then +0.0 everywhere (from 3.0
    and from -0.0), and one row to a large offset."""
    x = x.copy()
    flat = x.reshape(-1, x.shape[-1])
    flat[0] = 3.0
    if len(flat) > 1:
        flat[-1] = -0.0
    if len(flat) > 2:
        flat[1] += 1e6
    return x


def ln_inputs(name, rng):
    shape, lead = SHAPES[name]
    d = shape[-1]
    x = rows_at_their_mean(rng.standard_normal(shape) * 2.0)
    gain = 1.0 + 0.3 * rng.standard_normal(lead + (d,))
    bias = 0.1 * rng.standard_normal(lead + (d,))
    return x, gain, bias


@pytest.mark.parametrize("name", SHAPES)
@pytest.mark.parametrize("unit", [False, True], ids=["gains", "fusion_norm"])
def test_layer_norm_matches_oracle(name, unit):
    rng = np.random.default_rng(1)
    x, gain, bias = ln_inputs(name, rng)
    if unit:  # the fusion norm: unit gain, zero bias
        gain, bias = 1.0, 0.0
    y, saved = M._ln_forward(x, gain, bias)
    y_ref, saved_ref = oracles.ln_forward(x, gain, bias)
    assert_same_tree((y, saved), (y_ref, saved_ref))
    assert not np.signbit(saved[0].reshape(-1, x.shape[-1])[0]).any()  # xc was +0.0
    dy = rows_at_their_mean(rng.standard_normal(x.shape))
    assert same_bits(M._ln_backward(dy, saved, gain), oracles.ln_backward(dy, saved_ref, gain))


@pytest.mark.parametrize("d", [8, 24, 32, 100, 130])
@pytest.mark.parametrize("k", [2, 3, 8])
@pytest.mark.parametrize("per_row", [False, True], ids=["gain", "per_row_gain"])
def test_one_row_layer_norm_is_its_row_of_k(d, k, per_row):
    """A one-row input (a decode step) takes its statistics as Python floats,
    a k-row one (the stacked decoder) as arrays: row i alone gives row i of
    the k-row call, bit for bit, in y, xhat and inv."""
    rng = np.random.default_rng(100 * d + k)
    x = rng.standard_normal((k, 1, d)) * 10.0 ** rng.uniform(-3, 3, (k, 1, 1))
    x[-1] += 1e6  # a large offset
    x[0] = 3.0  # a constant row: its xhat is +0.0
    lead = (k, 1) if per_row else ()
    gain = 1.0 + 0.3 * rng.standard_normal(lead + (d,))
    bias = 0.1 * rng.standard_normal(lead + (d,))
    y, (xhat, inv) = M._ln_forward(x, gain, bias)
    for i in range(k):
        row = slice(i, i + 1)
        g, b = (gain[row], bias[row]) if per_row else (gain, bias)
        assert_same_tree(M._ln_forward(x[row], g, b), (y[row], (xhat[row], inv[row])), f"row {i}")


@pytest.mark.parametrize("name", SHAPES)
def test_gelu_matches_oracle(name):
    shape, _ = SHAPES[name]
    x = np.random.default_rng(2).standard_normal(shape[:-1] + (2 * shape[-1],)) * 3.0
    x.reshape(-1)[:3] = (0.0, -0.0, 40.0)
    t = M.gelu_tanh(x)
    assert same_bits(t, oracles.gelu_tanh(x))
    for kernel, oracle in ((M.gelu, oracles.gelu), (M.gelu_grad, oracles.gelu_grad)):
        assert same_bits(kernel(x, t), oracle(x, t))


def attention_inputs(name, rng, cached=0):
    """(qh, kh, vh, mask) with 2 heads; a decode step attends to `cached`
    earlier keys as well, unmasked; a multi-position call is causally masked."""
    (B, T, d), _ = SHAPES[name]
    nh, dh = 2, d // 2
    qh = rng.standard_normal((B, nh, T, dh))
    kh = rng.standard_normal((B, nh, cached + T, dh))
    vh = rng.standard_normal((B, nh, cached + T, dh))
    mask = None if T == 1 else np.triu(np.full((T, cached + T), -1e30), k=cached + 1)
    return qh, kh, vh, mask


@pytest.mark.parametrize("name", SHAPES)
@pytest.mark.parametrize("cached", [0, 5])
def test_attention_matches_oracle(name, cached):
    rng = np.random.default_rng(3)
    qh, kh, vh, mask = attention_inputs(name, rng, cached)
    scale = 1.0 / math.sqrt(qh.shape[-1])
    (ctx, attn), (ctx_ref, attn_ref) = (f(qh, kh, vh, scale, mask)
                                        for f in (M._attention, oracles.attention))
    assert same_bits(ctx, ctx_ref) and same_bits(attn, attn_ref)
    doh = rng.standard_normal(ctx.shape)
    assert_same_tree(M._attention_backward(doh, qh, kh, vh, attn, scale),
                     oracles.attention_backward(doh, qh, kh, vh, attn, scale))


@pytest.mark.parametrize("shape", [(32, 8, 16), (100, 8, 16), (4, 2, 8, 8), (3, 16)])
def test_softmax_rows_matches_oracle(shape):
    z = np.random.default_rng(4).standard_normal(shape) * 5.0
    assert same_bits(softmax_rows(z), oracles.softmax_rows(z))
    # masked rows, as in a causal attention: one visible entry, or every other one
    rows = z.reshape(-1, shape[-1])
    rows[0, 1:] = -1e30
    rows[-1, ::2] = -1e30
    p = softmax_rows(z)
    assert same_bits(p, oracles.softmax_rows(z))
    assert p.reshape(-1, shape[-1])[0, 0] == 1.0


def test_softmax_rows_of_integers():
    # the result is float64 whatever the input's type, as the plain expression gave
    assert same_bits(softmax_rows([[1, 2, 3], [4, 4, 4]]),
                     oracles.softmax_rows(np.array([[1, 2, 3], [4, 4, 4]])))


def layer_weights(name, rng):
    """A parameter view for the shape: one model's, its gains and biases
    (1, 1, n) as TransformerModel.layer_params holds them, or k models'
    stacked."""
    (_, _, d), lead = SHAPES[name]
    k = lead[:1]
    ff = 2 * d
    p = {w: rng.standard_normal(k + (d, d)) / math.sqrt(d) for w in ("wq", "wk", "wv", "wo")}
    p["wqkv"] = np.concatenate((p["wq"], p["wk"], p["wv"]), axis=-1)
    p.update(w1=rng.standard_normal(k + (d, ff)) / math.sqrt(d),
             w2=rng.standard_normal(k + (ff, d)) / math.sqrt(ff))
    for name_, n in (("ln_attn_g", d), ("ln_attn_b", d), ("b1", ff), ("b2", d),
                     ("ln_mlp_g", d), ("ln_mlp_b", d)):
        shape = (lead or (1, 1)) + (n,)
        p[name_] = (1.0 if name_.endswith("_g") else 0.0) + 0.2 * rng.standard_normal(shape)
    return p


@pytest.mark.parametrize("name", SHAPES)
def test_transformer_layer_matches_oracle(name):
    rng = np.random.default_rng(5)
    p = layer_weights(name, rng)
    (B, T, d), _ = SHAPES[name]
    ht = rows_at_their_mean(rng.standard_normal((B, T, d)))
    mask = None if T == 1 else np.triu(np.full((T, T), -1e30), k=1)
    h, acts = M.transformer_layer(p, ht, None, 1, 2, mask)
    h_ref, acts_ref = oracles.transformer_layer(p, ht, 2, mask)
    assert_same_tree((h, acts), (h_ref, acts_ref))


def test_batch_loss_and_grad_matches_oracle():
    rng = np.random.default_rng(6)
    logits = rng.standard_normal((32, 8, 16)) * 3.0
    gold = rng.integers(0, 16, (32, 8))
    gold[:, -1] = -1
    err = np.where(rng.random((32, 8)) < 0.5, (gold + 1) % 16, -1)
    _, _, dz = batch_loss_and_grad(logits, gold, err, 0.7, 0.3)
    assert same_bits(dz, _objective(oracles.softmax_rows(logits), gold, err, 0.7, 0.3)[2] / 32)


BASE = ModelSpec(n_layers=2, d_model=32, n_heads=2, d_ff=64, vocab=16, max_steps=16,
                 fusion_period=1, adapter_rank=0, seed=3)


def model_case(rank, B):
    """A model whose adapter factors, if it has any, are nonzero, a (B, 8)
    batch, fusion inputs for every layer and a dlogits whose last position
    is dead."""
    model = TransformerModel(dataclasses.replace(BASE, adapter_rank=rank))
    rng = np.random.default_rng(7)
    model.write((key, 0.1 * rng.standard_normal(v.shape))
                for key, v in model.params.items() if key.endswith(".B"))
    tokens = rng.integers(0, 16, (B, 8))
    fusion_in = {l: rng.standard_normal((B, 8, 32)) for l in (1, 2)}
    dlogits = rng.standard_normal((B, 8, 16)) / B
    dlogits[:, -1] = 0.0
    return model, tokens, fusion_in, dlogits


@pytest.mark.parametrize("rank", [0, 3])
@pytest.mark.parametrize("B", [1, 32])
@pytest.mark.parametrize("per_sample", [False, True], ids=["batch", "per_sample"])
def test_backward_matches_oracle(rank, B, per_sample):
    model, tokens, fusion_in, dlogits = model_case(rank, B)
    _, acts = model.forward_train(tokens, fusion_in)
    got = model.flat_blocks(None, model.backward(dlogits, acts, per_sample=per_sample))
    assert_same_tree(got, oracles.backward(model, dlogits, acts, per_sample))


@pytest.mark.parametrize("rank", [0, 3])
@pytest.mark.parametrize("per_sample", [False, True], ids=["batch", "per_sample"])
def test_one_token_backward_matches_oracle(rank, per_sample):
    """B = 1, T = 1: every LayerNorm of forward_train takes the one-row path,
    and backward from what it saved is the oracle's."""
    model, tokens, fusion_in, dlogits = model_case(rank, 1)
    _, acts = model.forward_train(tokens[:, :1], {l: f[:, :1] for l, f in fusion_in.items()})
    got = model.flat_blocks(None, model.backward(dlogits[:, :1], acts, per_sample=per_sample))
    assert_same_tree(got, oracles.backward(model, dlogits[:, :1], acts, per_sample))


def kernel_calls(rng):
    """(name, kernel, args) for each kernel on one training-shaped input."""
    x, gain, bias = ln_inputs("train32", rng)
    _, saved = oracles.ln_forward(x, gain, bias)
    u = rng.standard_normal((32, 8, 64))
    t = oracles.gelu_tanh(u)
    qh, kh, vh, mask = attention_inputs("train32", rng)
    scale = 1.0 / math.sqrt(qh.shape[-1])
    _, attn = oracles.attention(qh, kh, vh, scale, mask)
    doh = rng.standard_normal(qh.shape)
    p = layer_weights("train32", rng)
    return [
        ("ln_forward", M._ln_forward, (x, gain, bias)),
        ("ln_backward", M._ln_backward, (rng.standard_normal(x.shape), saved, gain)),
        ("gelu_tanh", M.gelu_tanh, (u,)),
        ("gelu", M.gelu, (u, t)),
        ("gelu_grad", M.gelu_grad, (u, t)),
        ("softmax_rows", softmax_rows, (rng.standard_normal((32, 8, 16)),)),
        ("attention", M._attention, (qh, kh, vh, scale, mask)),
        ("attention_backward", M._attention_backward, (doh, qh, kh, vh, attn, scale)),
        ("transformer_layer", M.transformer_layer, (p, x, None, 1, 2, mask)),
        ("fuse_states", M.fuse_states, (x, u[..., :32])),
    ]


KERNEL_CALLS = kernel_calls(np.random.default_rng(8))


@pytest.mark.parametrize("kernel, args", [c[1:] for c in KERNEL_CALLS],
                         ids=[c[0] for c in KERNEL_CALLS])
def test_kernel_leaves_its_inputs_alone(kernel, args):
    before = copy.deepcopy(args)
    kernel(*args)
    assert_same_tree(args, before, "args")


@pytest.mark.parametrize("rank", [0, 3])
@pytest.mark.parametrize("per_sample", [False, True], ids=["batch", "per_sample"])
def test_training_pass_leaves_inputs_and_activations_alone(rank, per_sample):
    """forward_train then backward: every input, parameter and saved
    activation is unchanged after the backward."""
    model, tokens, fusion_in, dlogits = model_case(rank, 32)
    inputs = copy.deepcopy((tokens, fusion_in, dlogits, dict(model.params)))
    _, acts = model.forward_train(tokens, fusion_in)
    saved = copy.deepcopy(acts)
    model.backward(dlogits, acts, per_sample=per_sample)
    assert_same_tree(acts, saved, "acts")
    assert_same_tree((tokens, fusion_in, dlogits, dict(model.params)), inputs, "inputs")
