"""Command-line entry points.

Subcommands: gen (synthetic datasets), train (chain training per seed),
infer (sequential or pipelined decoding), bench (latency comparison),
verify (theory/scheduler probe suites), sched (speedup tables).

Exit codes: 0 for success; a failure exits by the rule CliError states.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import secrets
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from . import ensemble as ens_mod
from . import schedlab, tasks, theoryprobe
from .model import ModelSpec, TransformerModel
from .numkit import softmax
from .pipeline import TimingReport, check_prompt, decode_pipelined, decode_sequential
from .training import TrainConfig, chain_eval, loss_logit_grad, total_loss, train_chain

DEFAULT_SEEDS = [1, 2, 3]


class CliError(Exception):
    """A command's failure, which main prints as the one stderr line and
    exits with code: 2 for a usage error (a bad flag, config, prompt or
    output path), 1 for a failure while running (a manifest that does not
    load, a training run or seed directory write that fails; verify also
    returns 1 when a suite fails)."""

    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def _load_config(path):
    """A train config file's JSON. A file that cannot be read raises OSError,
    one that is not JSON ValueError, each naming the file."""
    try:
        return json.loads(Path(path).read_text())
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise ValueError(f"{path} is not a JSON file: {exc}") from None


# the keys cmd_train reads, by config section; the model seed is set per run
_CONFIG_KEYS = {
    "top-level": {"task", "dataset", "model", "n_successors", "lambdas", "top_k",
                  "train", "seeds", "holdout_fraction", "out"},
    "model": {f.name for f in dataclasses.fields(ModelSpec)} - {"seed"},
    "task": {f.name for f in dataclasses.fields(tasks.TaskSpec)},
}


def _check_config(cfg, seeds) -> None:
    """Raise ValueError naming the first part of a train config that no spec
    checks and cmd_train cannot use as given: a section that is not an
    object, a key it would ignore, seeds that are not a nonempty list of
    nonnegative integers, an n_successors that is not a nonnegative integer,
    or a holdout_fraction outside (0, 1). Sets those two keys' defaults, 1
    and 0.25, in cfg where it leaves them out."""
    if not isinstance(cfg, dict):
        raise ValueError("a config must be a JSON object")
    for section in ("model", "task", "train"):
        if not isinstance(cfg.get(section, {}), dict):
            raise ValueError(f"the {section!r} section must be an object, got {cfg[section]!r}")
    for section, known in _CONFIG_KEYS.items():
        keys = cfg if section == "top-level" else cfg.get(section, {})
        for key in sorted(set(keys) - known):
            raise ValueError(f"unknown {section} key {key!r}")
    if not (isinstance(seeds, list) and seeds and all(type(sd) is int for sd in seeds)):
        raise ValueError(f"seeds must be a nonempty list of integers, got {seeds!r}")
    if min(seeds) < 0:  # model seeds are 100 * seed + i; numpy takes none below 0
        raise ValueError(f"seeds must be nonnegative, got {seeds!r}")
    n_succ = cfg.setdefault("n_successors", 1)
    if type(n_succ) is not int or n_succ < 0:
        raise ValueError(f"n_successors must be a nonnegative integer, got {n_succ!r}")
    holdout = cfg.setdefault("holdout_fraction", 0.25)
    if type(holdout) not in (int, float) or not 0 < holdout < 1:
        raise ValueError(f"holdout_fraction must be a number in (0, 1), got {holdout!r}")


def cmd_gen(args) -> int:
    try:
        spec = tasks.TaskSpec(
            kind=args.kind,
            vocab=args.vocab,
            length=args.length,
            n_samples=args.n_samples,
            seed=args.seed,
            modulus=args.modulus,
        )
    except ValueError as exc:
        raise CliError(f"bad task: {exc}") from None
    ds = tasks.generate(spec)
    out = args.out or f"{args.kind}.jsonl"
    try:
        tasks.save_dataset(out, ds)
    except OSError as exc:  # a missing directory, a directory as the file, no permission
        raise CliError(f"cannot write {out}: {exc.strerror}") from None
    print(f"wrote {ds.tokens.shape[0]} samples to {out}")
    return 0


def _chain_config(cfg: dict):
    """(dataset, EnsembleSpec) a train config that _check_config passed
    describes, its model seeds left to each run; a config they cannot be
    built from, a dataset file that does not load (its ids checked against
    the task's vocab, if one is given), or models whose max_steps cannot
    hold the data's sequences, raise OSError, TypeError or ValueError naming
    the problem. A task section is checked as a TaskSpec whenever it is
    there, also beside a dataset, whose vocab it then gives."""
    task = tasks.TaskSpec(**cfg["task"]) if "task" in cfg else None
    if "dataset" in cfg:
        ds_full = tasks.load_dataset(cfg["dataset"], None if task is None else task.vocab)
    elif task is not None:
        ds_full = tasks.generate(task)
    else:
        raise ValueError("a config needs a 'task' or a 'dataset'")
    vocab = int(ds_full.tokens.max() + 1) if task is None else task.vocab
    mspec = ModelSpec(**{"vocab": vocab, **cfg.get("model", {})})  # ModelSpec fills the rest
    if mspec.vocab != vocab:
        raise ValueError(f"model vocab {mspec.vocab} differs from the data vocab {vocab}")
    n_succ = cfg["n_successors"]
    espec = ens_mod.EnsembleSpec(
        models=[dataclasses.replace(mspec, adapter_rank=0)] + [mspec] * n_succ,
        lambdas=cfg.get("lambdas", [ens_mod.DEFAULT_LAMBDA] * n_succ),
        top_k=cfg.get("top_k", ens_mod.DEFAULT_TOP_K),
    )
    width, max_steps = ds_full.tokens.shape[1], espec.models[0].max_steps
    if width > max_steps:
        raise ValueError(f"model max_steps {max_steps} is below the data's sequence width {width}")
    return ds_full, espec


def _write_seed_dir(seed_dir: Path, ensemble, metrics: list[dict]) -> None:
    """Write one seed's model{i}.npz checkpoints, manifest.json and
    metrics.jsonl into a new temporary sibling of seed_dir, then rename it
    to seed_dir, so that a rerun replaces an earlier seed_dir whole. If any
    write fails, the temporary directory is removed and an earlier seed_dir
    is left as it was."""
    tmp = seed_dir.with_name(f".{seed_dir.name}.{secrets.token_hex(4)}")
    tmp.mkdir()
    try:
        ckpts = []
        for i, model in enumerate(ensemble.models):
            ckpts.append(f"model{i}.npz")  # manifest paths resolve against its directory
            model.save(tmp / ckpts[-1])
        ens_mod.save_manifest(tmp / "manifest.json", ckpts, ensemble.spec)
        with open(tmp / "metrics.jsonl", "w") as fh:
            for rec in metrics:
                fh.write(json.dumps(rec) + "\n")
        if seed_dir.is_dir():  # rename replaces no nonempty directory: move the old one aside
            old = tmp.with_name(tmp.name + ".old")
            seed_dir.rename(old)
            tmp.rename(seed_dir)
            shutil.rmtree(old)
        else:
            tmp.rename(seed_dir)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise


def cmd_train(args) -> int:
    try:  # an unknown train key, or a seed (set per run from seeds), is a TypeError naming it
        cfg = _load_config(args.config)
        seeds = args.seeds or (cfg.get("seeds", DEFAULT_SEEDS) if isinstance(cfg, dict) else None)
        _check_config(cfg, seeds)
        train_base = TrainConfig(**cfg.get("train", {}), seed=seeds[0])
        ds_full, espec_base = _chain_config(cfg)
        holdout = cfg["holdout_fraction"]
        if len(ds_full.split(holdout)[0]) == 0:  # split sizes do not depend on the seed
            raise ValueError(f"holdout_fraction {holdout} leaves no training sample of {len(ds_full)}")
        for sd in seeds:  # chain_eval scores only labelled positions
            if not (ds_full.split(holdout, seed=sd)[1].gold >= 0).any():
                raise ValueError(f"the holdout set of seed {sd} has no labelled position to score")
    except (OSError, TypeError, ValueError) as exc:
        raise CliError(f"bad config: {exc}") from None
    out_dir = Path(args.out or cfg.get("out", "runs"))
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file as the directory, or a path under a file
        raise CliError(f"cannot write {out_dir}: {exc.strerror}") from None

    results = []
    for sd in seeds:
        train_cfg = dataclasses.replace(train_base, seed=sd)
        espec = dataclasses.replace(espec_base, models=[
            dataclasses.replace(ms, seed=sd * 100 + i) for i, ms in enumerate(espec_base.models)
        ])
        ensemble = ens_mod.Ensemble(espec)
        train_ds, hold_ds = ds_full.split(holdout, seed=sd)
        try:
            metrics = train_chain(ensemble, train_ds, train_cfg)
        except Exception as exc:  # noqa: BLE001 - surfaced as exit 1
            raise CliError(f"training failed for seed {sd}: {exc}", 1) from None
        seed_dir = out_dir / f"seed{sd}"
        try:
            _write_seed_dir(seed_dir, ensemble, metrics)
        except OSError as exc:
            raise CliError(f"cannot write {seed_dir}: {exc.strerror or exc}", 1) from None
        ev = chain_eval(ensemble, hold_ds)
        results.append(ev)
        print(
            f"seed {sd}: base_acc={ev['base_acc']:.4f} fused_acc={ev['fused_acc']:.4f}"
        )
    mean_base = statistics.mean(r["base_acc"] for r in results)
    mean_fused = statistics.mean(r["fused_acc"] for r in results)
    print(f"mean: base_acc={mean_base:.4f} fused_acc={mean_fused:.4f}")
    return 0


def _read_prompts(path) -> list[list[int]]:
    """One prompt of whitespace-separated token ids per nonempty line."""
    prompts = []
    for n, line in enumerate(tasks.read_text(path).splitlines(), 1):
        try:
            prompt = [int(x) for x in line.split()]
        except ValueError:
            raise ValueError(f"{path} line {n}: prompt tokens must be integers: {line.strip()!r}") from None
        if prompt:
            prompts.append(prompt)
    return prompts


def _decode_inputs(args):
    """(ensemble, prompts) for infer/bench.

    A manifest that does not load raises CliError with exit 1, naming the
    file at fault: the manifest, or a checkpoint it names. A missing
    --manifest or --prompts file, a --max-tokens below 1, or a prompt that
    is not integers, holds an id outside the vocabulary or cannot fit
    max_steps with --max-tokens, is a usage error (exit 2).
    """
    for flag, path in (("--manifest", args.manifest), ("--prompts", args.prompts)):
        if not Path(path).is_file():
            raise CliError(f"{flag} file not found: {path}")
    fault = f"manifest {args.manifest} does not load:"
    try:
        ensemble, _ = ens_mod.load_manifest(args.manifest)
    except json.JSONDecodeError as exc:
        raise CliError(f"{fault} not valid JSON: {exc}", 1) from None
    except OSError as exc:  # a checkpoint it names is missing or unreadable
        raise CliError(f"{fault} cannot read {exc.filename}: {exc.strerror}", 1) from None
    except ValueError as exc:  # checkpoint errors name their file
        raise CliError(f"{fault} {exc}", 1) from None
    try:
        prompts = _read_prompts(args.prompts)
        for prompt in prompts:
            check_prompt(ensemble, prompt, args.max_tokens)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    return ensemble, prompts


def _decode(ensemble, prompt, max_tokens: int, mode: str) -> tuple[list[int], TimingReport]:
    """(tokens, timing) of one prompt decoded in mode; a sequential
    decode's report measures nothing but its wall time."""
    if mode == "pipelined":
        toks, _, report = decode_pipelined(ensemble, prompt, max_tokens)
        return toks, report
    t0 = time.perf_counter()
    toks, _ = decode_sequential(ensemble, prompt, max_tokens)
    return toks, TimingReport(wall_s=time.perf_counter() - t0, n_tokens=len(toks))


def cmd_infer(args) -> int:
    ensemble, prompts = _decode_inputs(args)
    for prompt in prompts:
        toks, report = _decode(ensemble, prompt, args.max_tokens, args.mode)
        print(" ".join(map(str, toks)))
        print(report.format())
    return 0


def cmd_bench(args) -> int:
    if args.reps < 3:
        raise CliError("need at least 3 repetitions")
    ensemble, prompts = _decode_inputs(args)
    if not prompts:
        return 0
    rows = []
    for mode in ("sequential", "pipelined"):
        e2e, per_tok = [], []
        for _ in range(args.reps):
            t0 = time.perf_counter()
            n_toks = 0
            for prompt in prompts:
                n_toks += len(_decode(ensemble, prompt, args.max_tokens, mode)[0])
            wall = time.perf_counter() - t0
            e2e.append(wall)
            per_tok.append(wall / max(1, n_toks))
        qs = statistics.quantiles(e2e, n=4)
        rows.append(
            {
                "mode": mode,
                "median_e2e_s": statistics.median(e2e),
                "iqr_e2e_s": qs[2] - qs[0],
                "median_per_token_s": statistics.median(per_tok),
            }
        )
    speedup = rows[0]["median_e2e_s"] / rows[1]["median_e2e_s"]
    for r in rows:
        print(
            f"{r['mode']:10s} median={r['median_e2e_s']:.6f}s "
            f"iqr={r['iqr_e2e_s']:.6f}s per_token={r['median_per_token_s']:.6f}s"
        )
    print(f"speedup_sequential_over_pipelined {speedup:.4f}")
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            w = csv.DictWriter(
                fh, fieldnames=["mode", "median_e2e_s", "iqr_e2e_s", "median_per_token_s"]
            )
            w.writeheader()
            w.writerows(rows)
    return 0


def _verify_grad(seed: int) -> bool:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(1000):
        v = int(rng.integers(3, 12))
        z = rng.normal(0.0, 2.0, v)
        gold = int(rng.integers(0, v))
        choices = [i for i in range(v) if i != gold]
        err = int(rng.choice(choices)) if rng.random() < 0.7 else None
        alpha = float(rng.uniform(0.1, 1.0))
        beta = float(rng.uniform(0.05, 0.5))
        g = loss_logit_grad(softmax(z), gold, err, alpha, beta)

        def central(e):
            out = np.zeros(v)
            for j in range(v):
                zp, zm = z.copy(), z.copy()
                zp[j] += e
                zm[j] -= e
                out[j] = (
                    total_loss([zp], [gold], [err], alpha, beta)
                    - total_loss([zm], [gold], [err], alpha, beta)
                ) / (2 * e)
            return out

        # Richardson-extrapolated central differences: O(eps^4) truncation
        # while eps stays large enough to dodge cancellation noise
        fd = (4 * central(5e-5) - central(1e-4)) / 3
        rel = np.abs(g - fd) / np.maximum(np.abs(fd), 1e-8)
        worst = max(worst, float(rel.max()))
    print(f"grad: worst relative error {worst:.3e}")
    return worst < 1e-5


def _verify_remainder(seed: int) -> bool:
    rng = np.random.default_rng(seed)
    ok = True
    for v in (4, 16, 64):
        for _ in range(10):
            z = rng.uniform(-3, 3, v)
            slope, c = theoryprobe.remainder_probe(
                z, scales=np.logspace(-3, -1, 7), directions=16, seed=seed
            )
            if not (1.9 <= slope <= 2.1):
                ok = False
            print(f"remainder: V={v} slope={slope:.4f} C={c:.4f}")
    return ok


def _verify_mse(seed: int) -> bool:
    rng = np.random.default_rng(seed)
    n, v = 200, 8
    zp = rng.normal(0.0, 1.5, (n, v))
    gold = rng.integers(0, v, n)
    # corrector that knows the answer: pushes logits toward gold
    zn = np.zeros((n, v))
    zn[np.arange(n), gold] = 4.0
    rep = theoryprobe.mse_sweep(zp, zn, gold, list(np.logspace(-3, np.log10(0.5), 12)))
    ok = rep.mean_eg > 0 and rep.negative_range is not None
    slope_res = np.polyfit(
        np.log(rep.lambdas), np.log(np.abs(rep.residuals()) + 1e-300), 1
    )[0]
    print(f"mse: mean_eg={rep.mean_eg:+.4e} range={rep.negative_range} residual_slope={slope_res:.2f}")
    return ok and slope_res >= 1.9


def _verify_descent(seed: int) -> bool:
    spec = tasks.TaskSpec("copy", vocab=12, length=4, n_samples=16, seed=seed)
    ds = tasks.generate(spec)
    model = TransformerModel(
        ModelSpec(
            n_layers=2, d_model=16, n_heads=2, d_ff=32, vocab=12,
            max_steps=16, adapter_rank=0, seed=seed,
        )
    )
    rep = theoryprobe.descent_probe(model, ds.tokens, ds.gold, alpha=0.9, steps=50, seed=seed)
    print(f"descent: violations={rep.violations} eta={rep.eta_used:.3e} l_hat={rep.smoothness:.2f}")
    return rep.precondition_ok and rep.violations == 0


def _verify_sched(seed: int) -> bool:
    table = schedlab.speedup_table(range(1, 7), range(1, 13), range(1, 5))
    bad = sum(row["t_par_closed"] != row["t_par_sim"] for row in table)
    print(f"sched: {len(table)} grid points, {bad} mismatches")
    return bad == 0


def cmd_verify(args) -> int:
    suites = {
        "grad": _verify_grad,
        "remainder": _verify_remainder,
        "mse": _verify_mse,
        "descent": _verify_descent,
        "sched": _verify_sched,
    }
    names = list(suites) if args.selector == "all" else [args.selector]
    seed = args.seed if args.seed is not None else 1
    failed = []
    for name in names:
        ok = suites[name](seed)
        print(f"{name}: {'PASS' if ok else 'FAIL'}")
        if not ok:
            failed.append(name)
    return 1 if failed else 0


def _parse_range(text: str) -> range:
    """lo..hi (or one value) as a range; ValueError unless 1 <= lo <= hi."""
    lo, _, hi = text.partition("..")
    if not hi:
        hi = lo
    lo, hi = int(lo), int(hi)
    if not 1 <= lo <= hi:
        raise ValueError(f"bounds must satisfy 1 <= lo <= hi, got {lo}..{hi}")
    return range(lo, hi + 1)


def cmd_sched(args) -> int:
    if args.c <= 0:
        raise CliError(f"--c must be positive, got {args.c}")
    if args.delta < 0:
        raise CliError(f"--delta must be nonnegative, got {args.delta}")
    ranges = {}
    for item in args.ranges:
        key, _, val = item.partition("=")
        if key not in ("k", "l", "g") or not val:
            raise CliError(f"malformed range {item!r}; expected e.g. k=1..6")
        try:
            ranges[key] = _parse_range(val)
        except ValueError as exc:
            raise CliError(f"malformed range {item!r}: {exc}") from None
    table = schedlab.speedup_table(
        ranges.get("k", range(1, 7)),
        ranges.get("l", range(1, 13)),
        ranges.get("g", range(1, 5)),
        c=args.c,
        delta=args.delta,
    )
    print(schedlab.format_table(table))
    if args.csv:
        Path(args.csv).write_text(schedlab.table_to_csv(table))
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="chainboost", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--kind", choices=tasks.TASK_KINDS, required=True)
    p.add_argument("--vocab", type=int, default=32)
    p.add_argument("--length", type=int, default=8)
    p.add_argument("--n-samples", type=int, default=200)
    p.add_argument("--modulus", type=int, default=7)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train a chain per seed")
    p.add_argument("--out", default=None)
    p.add_argument("--config", required=True)
    p.add_argument("--seeds", type=int, nargs="+", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="decode prompts")
    p.add_argument("--manifest", required=True)
    p.add_argument("--prompts", required=True)
    p.add_argument("--mode", choices=["sequential", "pipelined"], default="sequential")
    p.add_argument("--max-tokens", type=int, default=16)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("bench", help="latency comparison")
    p.add_argument("--manifest", required=True)
    p.add_argument("--prompts", required=True)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--max-tokens", type=int, default=16)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("verify", help="run probe suites")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument(
        "--selector",
        choices=["grad", "remainder", "mse", "descent", "sched", "all"],
        default="all",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sched", help="speedup tables")
    p.add_argument("ranges", nargs="*", help="e.g. k=1..6 l=1..12 g=1..4")
    p.add_argument("--c", type=int, default=1)
    p.add_argument("--delta", type=int, default=0)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_sched)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(exc, file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
