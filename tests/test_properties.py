"""Bit-identity contracts of the decoders and of backward, checked over
random models.

Decoders: hypothesis draws a chain (k of 1 to 3 models, 1 to 3 layers each,
a d_model with 1 to 4 heads dividing it, fusion period 1 to 3, successor
adapter ranks 0, 1 or 3 with nonzero B factors), top_k, a prompt and
max_tokens within a max_steps of up to 48, so that KV buffers grow. The
models share their structure in about half the chains, which the
layer-synchronous decoder stacks; the others fall back to the sequential
decode. For each chain, decode_pipelined equals decode_sequential bit for
bit, and both are within 1e-9 of the teacher-forced chain_logits +
fuse_logits at every emitted step, with the same argmax.

backward: hypothesis draws one model of the same kinds, a (B, T) batch with
or without fusion inputs, dlogits and an ordered set of keys. A keyed
backward equals the full one, summed and per sample; per sample into out,
row b is flatten_grads(keys) of the dict call's row b and of a B = 1 call on
row b alone, and without keys it is every params array's in params order;
an out of the wrong shape, dtype or layout, over repeated keys or without
per_sample raises ValueError before backward reads an activation.

Runs are derandomized, so every run draws the same examples.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainboost.ensemble import Ensemble, EnsembleSpec, fuse_logits
from chainboost.model import KV_FIRST_ROOM, ModelSpec, TransformerModel
from chainboost.pipeline import decode_pipelined, decode_sequential
from chainboost.training import chain_logits, flatten_grads

LOGIT_TOL = 1e-9


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
    for m in ens.models[1:]:
        m.write((key, rng.normal(0.0, 0.5, v.shape)) for key, v in m.params.items()
                if key.endswith(".B"))
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
    _, acts = model.forward_train(tokens, fusion_in)
    for per_sample in (False, True):
        full = model.backward(dz, acts, per_sample=per_sample)
        keyed = model.backward(dz, acts, per_sample=per_sample, keys=keys)
        assert sorted(keyed) == sorted(keys)
        assert all(np.array_equal(keyed[k], full[k]) for k in keys)
    out = np.full((B, sum(model.params[k].size for k in keys)), np.nan)
    into = model.backward(dz, acts, per_sample=True, keys=keys, out=out)
    assert all(np.shares_memory(into[k], out) and np.array_equal(into[k], keyed[k]) for k in keys)
    for b in range(B):
        assert np.array_equal(out[b], flatten_grads({k: g[b] for k, g in keyed.items()}, keys))
        f_in = None if fusion_in is None else {l: f[b : b + 1] for l, f in fusion_in.items()}
        _, acts_b = model.forward_train(tokens[b : b + 1], f_in)
        assert np.array_equal(out[b], flatten_grads(model.backward(dz[b : b + 1], acts_b, keys=keys), keys))
    every = np.empty((B, sum(v.size for v in model.params.values())))
    model.backward(dz, acts, per_sample=True, out=every)
    assert all(np.array_equal(every[b], flatten_grads({k: g[b] for k, g in full.items()},
                                                      list(model.params))) for b in range(B))
    P = out.shape[1]
    bad = [(keys, np.zeros((B, P + 1)), True), (keys, np.zeros((B + 1, P)), True),
           (keys, np.zeros(B * P), True), (keys, np.zeros_like(out), False),
           (keys, np.zeros((B, P), np.float32), True), (keys, np.zeros((B, 2 * P))[:, ::2], True),
           (keys + keys[:1], np.zeros((B, P + model.params[keys[0]].size)), True)]
    for ks, bad_out, per_sample in bad:
        # no activations: a call that did any work before refusing out would raise KeyError
        with pytest.raises(ValueError):
            model.backward(dz, {}, per_sample=per_sample, keys=ks, out=bad_out)
