"""The four seeded workloads, each a closed loop of one client in one process.

Every workload builds fixed-seed chains (no trained manifest needed) and draws
its inputs from the workload seed only. An operation returns its timed calls
as `main` and `second` samples plus the list of correctness checks it failed;
see README.md for what each workload stresses and why it was chosen.
"""

from __future__ import annotations

import dataclasses
import os
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from chainboost import ensemble, pipeline, tasks, theoryprobe, training
from chainboost.ensemble import Ensemble, EnsembleSpec
from chainboost.model import ModelSpec, TransformerModel
from refclock import BATCH_SLICE, LAYER_SLICE, SliceHook, timed_ref

# the acceptance suite's model shapes
BASE32 = ModelSpec(
    n_layers=2, d_model=32, n_heads=2, d_ff=64, vocab=16, max_steps=16,
    fusion_period=2, adapter_rank=0, seed=0,
)
TINY = ModelSpec(
    n_layers=2, d_model=16, n_heads=2, d_ff=32, vocab=12, max_steps=16,
    fusion_period=2, adapter_rank=0, seed=2,
)
LOGIT_TOL = 1e-9
EVAL_PART = 100


def host_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@dataclass
class Sample:
    """One timed call: tokens it handled, its wall seconds, and those
    seconds rescaled to reference host speed (see refclock.py)."""

    tokens: int
    seconds: float
    ref_seconds: float


@dataclass
class OpResult:
    main: list[Sample] = field(default_factory=list)
    second: list[Sample] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)


# -- correctness checks (pure functions so the self-tests can corrupt inputs)


def check_decode(ens: Ensemble, prompt, max_new: int, seq, pipe) -> list[str]:
    """Pipelined == sequential bit for bit, and both match a teacher-forced
    recomputation (batched forward_train path + fuse_logits) within 1e-9
    with the same argmax."""
    toks, z_seq = seq
    toks_p, z_pipe = pipe
    fails = []
    if toks != toks_p or not np.array_equal(z_seq, z_pipe):
        fails.append("pipelined output differs from sequential")
    eos = ens.spec.vocab - 1
    if not toks or len(toks) > max_new or (toks[-1] != eos and len(toks) != max_new) or eos in toks[:-1]:
        fails.append(f"bad stop: {len(toks)} tokens")
        return fails
    full = np.array([list(prompt) + list(toks[:-1])])
    zs = training.chain_logits(ens, full)
    first = len(prompt) - 1
    for j, tok in enumerate(toks):
        ref = ensemble.fuse_logits([z[0, first + j] for z in zs], ens.spec.lambdas, ens.spec.top_k)
        diff = float(np.max(np.abs(ref - z_seq[j])))
        if not diff <= LOGIT_TOL or int(np.argmax(ref)) != tok:
            fails.append(f"step {j}: teacher-forced logits differ by {diff:.3e}")
            break
    return fails


def check_train(records: list[dict]) -> list[str]:
    fails = []
    for rec in records:
        for key in ("ce", "suppression", "rho", "gamma"):
            if key in rec and not np.isfinite(rec[key]):
                fails.append(f"{rec['stage']} model {rec['model_index']}: {key} not finite")
    stage1 = [r["ce"] for r in records if r["stage"] == "stage1"]
    if not stage1 or not stage1[-1] < stage1[0]:
        fails.append("stage-1 cross-entropy did not fall")
    return fails


def check_probe(rep, steps: int) -> list[str]:
    fails = []
    if not rep.precondition_ok:
        fails.append(f"descent precondition failed: {rep.note}")
    if rep.violations:
        fails.append(f"{rep.violations} cross-entropy increases")
    if len(rep.ce_trajectory) != steps + 1:
        fails.append(f"trajectory has {len(rep.ce_trajectory)} points, want {steps + 1}")
    return fails


# -- workloads ----------------------------------------------------------------


class Workload:
    name = ""
    chunk = 1  # timed calls per throughput sample
    min_ops = 1  # operations an untraced run always completes
    n_layers = 0  # layers per model, for per-layer step time
    k_models = 0  # chain length the pipelined decoder runs; 0 = no decode
    ref = LAYER_SLICE  # the reference slice shaped like this workload's work

    def __init__(self):
        self.tracer = None
        self.hook: SliceHook | None = None

    def start_tracing(self, tracer) -> None:
        """Slices inside traced calls would inflate their spans: stop them."""
        self.tracer = tracer
        if self.hook is not None:
            self.hook.active = False

    @contextmanager
    def untraced(self):
        """Correctness checks call traced functions; keep them out of the trace."""
        was = self.tracer is not None and self.tracer.active
        if was:
            self.tracer.active = False
        try:
            yield
        finally:
            if was:
                self.tracer.active = True

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def op(self) -> OpResult:
        raise NotImplementedError

    def close(self) -> None:
        if self.hook is not None:
            self.hook.remove()


class TrainModsum(Workload):
    """Criterion-5 training config, then chain_eval on a held-out set."""

    name = "train_modsum"
    ref = BATCH_SLICE

    def __init__(self, smoke: bool = False):
        super().__init__()
        self.n_samples, self.n_eval = (40, 60) if smoke else (240, 2000)
        self.cfg = training.TrainConfig(
            learning_rate=0.05, epochs=2 if smoke else 30, batch_size=32, seed=1,
            stage2_epochs=1 if smoke else 50, stage2_learning_rate=0.1,
        )
        self.eval_passes = 2
        # train_model runs one stage_batch_pass per batch
        self.hook = SliceHook(training, "stage_batch_pass", BATCH_SLICE, every=20)

    @staticmethod
    def chain() -> Ensemble:
        specs = [dataclasses.replace(BASE32, seed=10),
                 dataclasses.replace(BASE32, adapter_rank=8, seed=11)]
        return Ensemble(EnsembleSpec(specs, lambdas=[0.3], top_k=2))

    def setup(self, seed: int) -> None:
        task = tasks.TaskSpec("modsum", vocab=16, length=8, n_samples=self.n_samples,
                              seed=seed, modulus=7)
        self.train, _ = tasks.generate(task).split(0.25, seed=seed)
        heldout = tasks.generate(
            dataclasses.replace(task, n_samples=self.n_eval, seed=seed + 7919))
        # chain_eval runs over the held-out set in parts of EVAL_PART samples,
        # each timed between its own reference slices: a single 1.3-s call
        # spans several of the host's speed switches (see README.md)
        self.heldout = [heldout.subset(np.arange(i, min(i + EVAL_PART, len(heldout))))
                        for i in range(0, len(heldout), EVAL_PART)]
        warm = self.chain()
        few = np.arange(min(32, len(self.train)))
        training.train_chain(warm, self.train.subset(few),
                             dataclasses.replace(self.cfg, epochs=1, stage2_epochs=1))
        training.chain_eval(warm, self.heldout[0])

    def op(self) -> OpResult:
        res = OpResult()
        ens = self.chain()
        self.hook.reset()
        records, *secs = timed_ref(BATCH_SLICE, training.train_chain, ens, self.train,
                                   self.cfg, marks=self.hook.marks)
        epochs = self.cfg.epochs + self.cfg.stage2_epochs
        res.main.append(Sample(epochs * self.train.tokens.size, *secs))
        res.failures += check_train(records)
        passes = []
        for _ in range(self.eval_passes):
            evals = []
            for part in self.heldout:
                ev, *secs = timed_ref(BATCH_SLICE, training.chain_eval, ens, part)
                res.second.append(Sample(part.tokens.size, *secs))
                evals.append(ev)
            passes.append(evals)
        if any(p != passes[0] for p in passes):
            res.failures.append("chain_eval is not deterministic")
        accs = [a for ev in passes[0] for a in ev["model_accs"] + [ev["fused_acc"]]]
        if not all(0.0 <= a <= 1.0 for a in accs):
            res.failures.append(f"accuracy out of range: {passes[0]}")
        # every modsum sample has the same labelled positions: weigh parts by size
        weights = [len(part) for part in self.heldout]
        res.info = {key: float(np.average([ev[key] for ev in passes[0]], weights=weights))
                    for key in ("base_acc", "fused_acc")}
        return res


class Decode(Workload):
    """Each operation is one request, decoded sequentially then pipelined."""

    chunk = 10  # requests: single requests are too short to time alone
    min_ops = 100  # so that p90 has at least 10 samples beyond it

    def __init__(self, smoke: bool = False):
        super().__init__()
        if smoke:
            self.min_ops = 3

    def chain(self) -> Ensemble:
        raise NotImplementedError

    def prompt(self, rng: np.random.Generator) -> list[int]:
        # EOS (= V-1) never appears in a prompt
        return rng.integers(0, self.ens.spec.vocab - 1, size=self.prompt_len).tolist()

    def setup(self, seed: int) -> None:
        self.ens = self.chain()
        self.k_models = len(self.ens.models)
        self.n_layers = self.ens.models[0].spec.n_layers
        self.workers = min(self.k_models, host_cpus())
        self.rng = np.random.default_rng(seed)
        warm_rng = np.random.default_rng([seed, 1])
        for _ in range(3):
            p = self.prompt(warm_rng)
            pipeline.decode_sequential(self.ens, p, self.max_new)
            pipeline.decode_pipelined(self.ens, p, self.max_new, workers=self.workers)

    def op(self) -> OpResult:
        p = self.prompt(self.rng)
        seq, *seq_s = timed_ref(LAYER_SLICE, pipeline.decode_sequential, self.ens, p, self.max_new)
        (toks, z, rep), *pipe_s = timed_ref(
            LAYER_SLICE, pipeline.decode_pipelined, self.ens, p, self.max_new, workers=self.workers)
        with self.untraced():
            fails = check_decode(self.ens, p, self.max_new, seq, (toks, z))
        return OpResult(
            main=[Sample(len(seq[0]), *seq_s)],
            second=[Sample(len(toks), *pipe_s)],
            failures=fails,
            info={"blocked_s": rep.blocked_s, "transfer_s": rep.transfer_s, "pipe_wall_s": rep.wall_s},
        )


class DecodeChain3(Decode):
    """Criterion-8 shape: 3 BASE32 models, short requests ending at EOS."""

    name = "decode_chain3"
    prompt_len, max_new = 3, 12

    def chain(self) -> Ensemble:
        specs = [dataclasses.replace(BASE32, adapter_rank=0 if i == 0 else 8, seed=i)
                 for i in range(3)]
        return Ensemble(EnsembleSpec(specs, lambdas=[0.3, 0.3], top_k=2))


class DecodeLong1(Decode):
    """One BASE32 model, long requests: KV-cache growth, nothing to pipeline."""

    name = "decode_long1"
    prompt_len = 8

    def __init__(self, smoke: bool = False):
        super().__init__(smoke)
        self.max_new = 12 if smoke else 110

    def chain(self) -> Ensemble:
        return Ensemble(EnsembleSpec([dataclasses.replace(BASE32, max_steps=128)], lambdas=[], top_k=2))


class ProbeDescent(Workload):
    """Criterion-6 "modsum+err" descent probe, then estimate_alignment alone."""

    name = "probe_descent"

    def __init__(self, smoke: bool = False):
        super().__init__()
        self.steps = 5 if smoke else 200
        self.align_reps = 2 if smoke else 20
        # The hook also counts full-batch passes: the work varies with the
        # fixed-point rounds the probe needs on these inputs.
        self.hook = SliceHook(theoryprobe, "stage_batch_pass", LAYER_SLICE, every=50)

    def setup(self, seed: int) -> None:
        ds = tasks.generate(tasks.TaskSpec("modsum", vocab=12, length=4, n_samples=24,
                                           seed=seed, modulus=7))
        self.tokens, self.gold = ds.tokens, ds.gold
        self.err = np.where(ds.gold >= 0, (ds.gold + 1) % TINY.vocab, -1)
        warm = TransformerModel(TINY)
        for _ in range(5):
            training.stage_batch_pass(warm, self.tokens, self.gold, self.err, 0.9, 0.1)

    def op(self) -> OpResult:
        res = OpResult()
        model = TransformerModel(TINY)
        self.hook.reset()
        rep, probe_s, ref_s = timed_ref(
            LAYER_SLICE, theoryprobe.descent_probe, model, self.tokens, self.gold,
            alpha=0.9, steps=self.steps, err=self.err, seed=2, marks=self.hook.marks)
        passes = self.hook.calls
        res.main.append(Sample(passes * self.tokens.size, probe_s, ref_s))
        res.failures += check_probe(rep, self.steps)
        keys = training.trainable_keys(model, "full")
        for _ in range(self.align_reps):
            est, *secs = timed_ref(LAYER_SLICE, training.estimate_alignment, model,
                                   self.tokens, self.gold, self.err, keys, 0.1)
            res.second.append(Sample(self.tokens.size, *secs))
            if est.sample_count != len(self.tokens) or not (np.isfinite(est.rho) and np.isfinite(est.gamma)):
                res.failures.append(f"bad alignment estimate {est}")
        res.info = {"probe_s": probe_s, "passes": passes}
        return res


WORKLOADS = {w.name: w for w in (TrainModsum, DecodeChain3, DecodeLong1, ProbeDescent)}
