"""Print the traced heap peak of chainboost's training-side passes at the
train_modsum benchmark's shapes.

Run from the repository root:

    PYTHONPATH=src python tests/memory_peaks.py

The chain is two BASE32 models (d_model 32, 2 layers, vocab 16), the second
with rank-8 adapters, untrained; the data is modsum of length 8 (10 tokens
a row). Each pass runs once untraced, so that what a first call builds and
keeps (parameter views, layouts, causal masks) stays out of the peak, and
then once under tracemalloc; a peak is the most the pass held at once
above what was allocated when it started, in MB. The output is a markdown
table, one row per pass:

- stage_batch_pass: one training batch of 32 rows, in stage 1 (the base
  over every parameter, plain CE) and in stage 2 (the successor over its
  adapter keys, with its fusion input and error tokens);
- pred_forward_chain: the base model's teacher-forced logits and states
  over the 180-row training set;
- chain_eval: one 100-row held-out part, as the benchmark scores them;
- estimate_alignment: the successor's per-sample alignment estimate over
  ALIGNMENT_ROWS rows.

glibc trims a freed heap top and faults it in again on the next call, so
the peaks of the passes that run in a loop set how many page faults a
training run or an evaluation takes. The numbers only report; pytest does
not collect this file (its name does not start with test_), and
tests/test_training.py holds the budget that is checked.
"""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np

from chainboost import tasks, training
from chainboost.ensemble import Ensemble, EnsembleSpec
from chainboost.model import ModelSpec

BASE32 = ModelSpec(n_layers=2, d_model=32, n_heads=2, d_ff=64, vocab=16, max_steps=16,
                   fusion_period=2, adapter_rank=0, seed=10)


def modsum_chain() -> Ensemble:
    """The train_modsum chain: a BASE32 base and a rank-8 successor, untrained."""
    specs = [BASE32, dataclasses.replace(BASE32, adapter_rank=8, seed=11)]
    return Ensemble(EnsembleSpec(specs, lambdas=[0.3], top_k=2))


def modsum(n_samples: int, seed: int = 1) -> tasks.Dataset:
    return tasks.generate(tasks.TaskSpec("modsum", vocab=16, length=8, n_samples=n_samples,
                                         seed=seed, modulus=7))


def traced_peak(fn) -> float:
    """The MB fn() holds at most at once, above what it started with, on
    its second call."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def passes() -> dict:
    """name -> a call of that pass on the train_modsum shapes; its inputs
    are cut beforehand, so that only the pass is traced."""
    ens = modsum_chain()
    base, succ = ens.models
    train = modsum(240).split(0.25, seed=1)[0]
    part = modsum(100, seed=1 + 7919)
    _, states = training.pred_forward_chain(ens, 0, train.tokens)
    fusion_in = ens.fusion_inputs(1, states)
    err = np.where(train.gold >= 0, (train.gold + 1) % 16, -1)
    full, adapters = training.trainable_keys(base, "full"), training.trainable_keys(succ, "adapters")

    def rows(n):
        """The first n rows of the training set: tokens, gold, err, fusion input."""
        return (train.tokens[:n], train.gold[:n], err[:n],
                {l: f[:n].copy() for l, f in fusion_in.items()})

    tokens, gold, err32, f_in = rows(32)
    no_err = np.full_like(gold, -1)
    a_tokens, a_gold, a_err, a_in = rows(training.ALIGNMENT_ROWS)
    beta = training.DEFAULT_BETA
    return {
        "stage_batch_pass, stage 1": lambda: training.stage_batch_pass(
            base, tokens, gold, no_err, 1.0, beta, None, full),
        "stage_batch_pass, stage 2": lambda: training.stage_batch_pass(
            succ, tokens, gold, err32, 0.9, beta, f_in, adapters),
        "pred_forward_chain": lambda: training.pred_forward_chain(ens, 0, train.tokens),
        "chain_eval": lambda: training.chain_eval(ens, part),
        "estimate_alignment": lambda: training.estimate_alignment(
            succ, a_tokens, a_gold, a_err, adapters, beta, a_in),
    }


def main() -> None:
    print("| pass | traced peak, MB |")
    print("| --- | ---: |")
    for name, fn in passes().items():
        print(f"| {name} | {traced_peak(fn):.2f} |")


if __name__ == "__main__":
    main()
