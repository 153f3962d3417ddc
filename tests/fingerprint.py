"""Print one sha256 per result of chainboost's training, probe and decode paths.

Run from the repository root:

    PYTHONPATH=src python tests/fingerprint.py

Each output line is `<name> <sha256>`. Two trees that print the same lines
compute the same bits on these inputs, which is how a change that claims to
keep every trained bit is checked: run the script on both and diff. The
hashes depend on the numpy and BLAS build, so they are compared between
trees on one host, never against pinned values. pytest does not collect this
file (its name does not start with test_).

What is hashed:

- train_chain's records, every trained array and chain_eval on a held-out
  set, for a k = 2 chain (BASE32 base, rank-8 successor) and a k = 3 chain
  (ranks 4/4/3), each on seeds 1 and 2;
- both criterion-6 descent_probe reports with their trajectories;
- estimate_alignment of the trained rank-8 successor with its fusion input,
  in full and in adapter scope;
- tokens and per-step fused logits from decode_sequential and
  decode_pipelined on decode_chain3-shaped (3 models, 3-token prompts, up to
  12 new tokens) and decode_long1-shaped (one model, 8-token prompts, 110
  new tokens) requests, on chain2d24 requests (2 models of d_model 24,
  where LayerNorm's / d rounds, so the one-row steps of decode_sequential
  are checked against the stacked rows of decode_pipelined beyond
  d_model 32), and (decode.update.*) on the chain3 requests again after new
  successor factors were written, so that a view or stacked weights kept
  from the first requests would show;
- (decode.fill.*) both decoders on requests of prompt + max_tokens ==
  max_steps = 33 over a 3-model chain whose EOS logit never wins, so that
  every request runs to the last step its KV caches can hold.
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct
from collections.abc import Mapping

import numpy as np

from chainboost.ensemble import Ensemble, EnsembleSpec
from chainboost.model import ModelSpec, TransformerModel
from chainboost.pipeline import decode_pipelined, decode_sequential
from chainboost.tasks import TaskSpec, generate
from chainboost.theoryprobe import descent_probe
from chainboost.training import (
    TrainConfig,
    chain_eval,
    estimate_alignment,
    pred_forward_chain,
    predecessor_errors,
    train_chain,
    trainable_keys,
)

BASE32 = ModelSpec(
    n_layers=2, d_model=32, n_heads=2, d_ff=64, vocab=16, max_steps=16,
    fusion_period=2, adapter_rank=0, seed=0,
)
TINY = ModelSpec(
    n_layers=2, d_model=16, n_heads=2, d_ff=32, vocab=12, max_steps=16,
    fusion_period=2, adapter_rank=0, seed=0,
)


def _feed(h, value) -> None:
    """Feed a value's structure and exact bits into the hash h."""
    if isinstance(value, Mapping):
        h.update(b"{")
        for key in sorted(value):
            _feed(h, key)
            _feed(h, value[key])
        h.update(b"}")
    elif isinstance(value, (list, tuple)):
        h.update(b"[")
        for item in value:
            _feed(h, item)
        h.update(b"]")
    elif isinstance(value, np.ndarray):
        h.update(f"a{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, float):
        h.update(b"f" + struct.pack("<d", value))
    else:
        h.update(f"{type(value).__name__}:{value!r}".encode())


def digest(value) -> str:
    h = hashlib.sha256()
    _feed(h, value)
    return h.hexdigest()


def chain(ranks: list[int], seed: int) -> Ensemble:
    specs = [dataclasses.replace(BASE32, adapter_rank=r, seed=seed * 10 + i)
             for i, r in enumerate(ranks)]
    return Ensemble(EnsembleSpec(specs, lambdas=[0.3] * (len(ranks) - 1), top_k=2))


def training_hashes():
    """train_chain and chain_eval per chain and seed, then the alignment
    estimates of the last k = 2 chain's trained successor."""
    for seed in (1, 2):
        task = TaskSpec("modsum", vocab=16, length=8, n_samples=240, seed=seed, modulus=7)
        train, hold = generate(task).split(0.25, seed=seed)
        cfg = TrainConfig(learning_rate=0.05, epochs=10, batch_size=32, seed=seed,
                          stage2_epochs=15, stage2_learning_rate=0.1)
        for name, ranks in (("k2", [0, 8]), ("k3", [4, 4, 3])):
            ens = chain(ranks, seed)
            records = train_chain(ens, train, cfg)
            tag = f"train.{name}.seed{seed}"
            yield f"{tag}.records", digest(records)
            yield f"{tag}.weights", digest([m.params for m in ens.models])
            yield f"{tag}.chain_eval", digest(chain_eval(ens, hold))
            if name == "k2":
                k2, k2_train = ens, train
    pred_logits, pred_states = pred_forward_chain(k2, 0, k2_train.tokens)
    err = predecessor_errors(pred_logits, k2_train.gold)
    rows = np.where((err >= 0).any(axis=1))[0][:12]
    succ = k2.models[1]
    fusion_in = {l: s[rows] for l, s in k2.fusion_inputs(1, pred_states).items()}
    for scope in ("full", "adapters"):
        est = estimate_alignment(succ, k2_train.tokens[rows], k2_train.gold[rows], err[rows],
                                 trainable_keys(succ, scope), 0.5, fusion_in)
        yield f"alignment.{scope}", digest(dataclasses.asdict(est))


def probe_hashes():
    """The two criterion-6 descent probes: copy, and modsum with error tokens."""
    ds_a = generate(TaskSpec("copy", vocab=12, length=4, n_samples=24, seed=1))
    rep_a = descent_probe(TransformerModel(TINY), ds_a.tokens, ds_a.gold,
                          alpha=0.9, steps=200, seed=1)
    yield "probe.copy", digest(dataclasses.asdict(rep_a))
    ds_b = generate(TaskSpec("modsum", vocab=12, length=4, n_samples=24, seed=2, modulus=7))
    err_b = np.where(ds_b.gold >= 0, (ds_b.gold + 1) % 12, -1)
    rep_b = descent_probe(TransformerModel(dataclasses.replace(TINY, seed=2)),
                          ds_b.tokens, ds_b.gold, alpha=0.9, steps=200, err=err_b, seed=2)
    yield "probe.modsum_err", digest(dataclasses.asdict(rep_b))


def decode_hashes():
    """Both decoders over a few requests of each decode workload's shape and
    of chain2d24, then over the chain3 requests after a write to the
    successors' factors."""
    chain3 = Ensemble(EnsembleSpec(
        [dataclasses.replace(BASE32, adapter_rank=0 if i == 0 else 8, seed=i) for i in range(3)],
        lambdas=[0.3, 0.3], top_k=2))
    long1 = Ensemble(EnsembleSpec([dataclasses.replace(BASE32, max_steps=128)], lambdas=[], top_k=2))
    chain2d24 = Ensemble(EnsembleSpec(
        [dataclasses.replace(BASE32, d_model=24, d_ff=48, adapter_rank=0 if i == 0 else 8, seed=i)
         for i in range(2)],
        lambdas=[0.3], top_k=2))
    rng = np.random.default_rng(7)
    # nonzero adapter factors, so the successors' merged weights differ from their bases
    for m in chain3.models[1:]:
        m.write((key, rng.standard_normal(v.shape) * 0.05)
                for key, v in m.params.items() if key.endswith(".B"))
    requests = {}
    for name, ens, prompt_len, max_new in (("chain3", chain3, 3, 12), ("long1", long1, 8, 110)):
        prompts = [rng.integers(0, ens.spec.vocab - 1, size=prompt_len).tolist() for _ in range(4)]
        requests[name] = prompts
        seq = [decode_sequential(ens, p, max_new) for p in prompts]
        pipe = [decode_pipelined(ens, p, max_new)[:2] for p in prompts]
        yield f"decode.{name}.sequential", digest(seq)
        yield f"decode.{name}.pipelined", digest(pipe)
    d24_rng = np.random.default_rng(9)
    for m in chain2d24.models[1:]:
        m.write((key, d24_rng.standard_normal(v.shape) * 0.05)
                for key, v in m.params.items() if key.endswith(".B"))
    prompts = [d24_rng.integers(0, chain2d24.spec.vocab - 1, size=3).tolist() for _ in range(4)]
    yield "decode.chain2d24.sequential", digest([decode_sequential(chain2d24, p, 12) for p in prompts])
    yield "decode.chain2d24.pipelined", digest([decode_pipelined(chain2d24, p, 12)[:2]
                                                for p in prompts])
    update_rng = np.random.default_rng(8)
    for m in chain3.models[1:]:
        m.write((key, update_rng.standard_normal(v.shape) * 0.05)
                for key, v in m.params.items() if key.endswith(".B"))
    yield "decode.update.sequential", digest([decode_sequential(chain3, p, 12)
                                              for p in requests["chain3"]])
    yield "decode.update.pipelined", digest([decode_pipelined(chain3, p, 12)[:2]
                                             for p in requests["chain3"]])
    fill_rng = np.random.default_rng(10)
    # 32 steps run: the second KV buffer fills to its last step
    fill = Ensemble(EnsembleSpec(
        [dataclasses.replace(BASE32, max_steps=33, adapter_rank=0 if i == 0 else 8, seed=20 + i)
         for i in range(3)],
        lambdas=[0.3, 0.3], top_k=2))
    eos = fill.spec.vocab - 1
    for m in fill.models:
        # a last LayerNorm bias of ones and an EOS column of -100: EOS never
        # wins, so each request runs prompt + max_tokens == max_steps
        unemb = m.params["unemb"].copy()
        unemb[:, eos] = -100.0
        m.write([(f"l{m.spec.n_layers}.ln_mlp_b", np.ones(m.spec.d_model)), ("unemb", unemb)])
        m.write((key, fill_rng.standard_normal(v.shape) * 0.05)
                for key, v in m.params.items() if key.endswith(".B"))
    prompts = [fill_rng.integers(0, eos, size=3).tolist() for _ in range(4)]
    max_new = fill.models[0].spec.max_steps - 3
    yield "decode.fill.sequential", digest([decode_sequential(fill, p, max_new) for p in prompts])
    yield "decode.fill.pipelined", digest([decode_pipelined(fill, p, max_new)[:2] for p in prompts])


def main() -> None:
    for group in (training_hashes, probe_hashes, decode_hashes):
        for name, value in group():
            print(f"{name} {value}", flush=True)


if __name__ == "__main__":
    main()
