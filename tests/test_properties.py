"""Bit-identity contracts of the decoders, checked over random chains.

hypothesis draws a chain (k of 1 to 3 models, 1 to 3 layers each, a d_model
with 1 to 4 heads dividing it, fusion period 1 to 3, successor adapter
ranks 0, 1 or 3 with nonzero B factors), top_k, a prompt and max_tokens
within a max_steps of up to 48, so that KV buffers grow. The models share
their structure in about half the chains, which the layer-synchronous
decoder stacks; the others fall back to the sequential decode. For each chain, decode_pipelined equals decode_sequential bit for
bit, and both are within 1e-9 of the teacher-forced chain_logits +
fuse_logits at every emitted step, with the same argmax. Runs are
derandomized, so every run draws the same examples.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chainboost.ensemble import Ensemble, EnsembleSpec, fuse_logits
from chainboost.model import KV_FIRST_ROOM, ModelSpec
from chainboost.pipeline import decode_pipelined, decode_sequential
from chainboost.training import chain_logits

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
