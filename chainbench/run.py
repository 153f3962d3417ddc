"""chainboost benchmark: one seeded workload per run, checked, with metrics.

    python3 chainbench/run.py --workload decode_chain3 --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ./src. With
--trace 0 the last stdout line is a JSON object holding the end-to-end
metrics; with --trace 1 it holds the per-layer metrics from a traced run.
Earlier lines carry the host record and a readable report. See README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_REPS = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TRACE_SPAN_CAP = 50_000


def _import_program():
    src = ROOT / "src"
    if not (src / "chainboost" / "__init__.py").is_file():
        sys.exit(f"chainbench: no chainboost package under {src}; run from a repository checkout")
    # One client in one process on tiny matrices: BLAS worker threads only
    # add contention (about 10% slower and noisier on 2 CPUs). The caller's
    # setting wins; the host record shows the count in effect.
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))


def blas_record(np) -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    rec = {"name": blas.get("name", "unknown"), "version": blas.get("version", "unknown"),
           "threads": None}
    for var in BLAS_THREAD_VARS:
        rec[var] = os.environ.get(var)
    # ask the loaded OpenBLAS itself; the symbol name depends on the build
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        maps = []
    libs = {line.split()[-1] for line in maps
            if "openblas" in line.lower() and ".so" in line.split()[-1]}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                rec["threads"] = fn()
                return rec
    return rec


def host_record(np, seed: int, cpus: int) -> dict:
    return {
        "nproc": cpus,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_record(np),
        "seed": seed,
    }


def run_ops(wl, seconds: float, min_ops: int) -> list:
    """Closed loop: the next operation starts when the previous one ends."""
    from workloads import OpResult

    results = []
    start = time.perf_counter()
    while True:
        try:
            results.append(wl.op())
        except Exception as exc:  # a crashed operation is a failed one; keep going
            results.append(OpResult(failures=[f"{type(exc).__name__}: {exc}"]))
        n = len(results)
        # stop once the next operation, at the mean pace so far, would overrun
        if n >= min_ops and (time.perf_counter() - start) * (n + 1) / n > seconds:
            return results


def throughput(results, attr: str, chunk: int, ref: bool = False) -> float:
    """Median over chunks of `chunk` consecutive timed calls of tokens /
    seconds (wall seconds, or seconds at reference host speed when `ref`)."""
    samples = [s for r in results for s in getattr(r, attr)]
    chunks = [samples[i : i + chunk] for i in range(0, len(samples), chunk)]
    if len(chunks) > 1 and len(chunks[-1]) < chunk:
        chunks.pop()
    rates = []
    for group in chunks:
        secs = sum(s.ref_seconds if ref else s.seconds for s in group)
        if secs > 0:
            rates.append(sum(s.tokens for s in group) / secs)
    if not rates:
        raise RuntimeError(f"no successful {attr} samples")
    return statistics.median(rates)


def per_token_ms(results, attr: str) -> list[float]:
    return [1e3 * s.seconds / s.tokens for r in results for s in getattr(r, attr) if s.tokens]


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1]


def report(wl, results, setup_s: float) -> dict:
    """Every end-to-end number the workload produces, under its own name."""
    out = {"setup_s": (setup_s, "s"), "peak_rss_mb": (peak_rss_mb(), "MB"),
           "host_slowdown": (statistics.median(
               s.seconds / s.ref_seconds for r in results for s in r.main), "ratio")}
    main = throughput(results, "main", wl.chunk)
    second = throughput(results, "second", wl.chunk)
    if wl.name == "train_modsum":
        out["train_tokens_per_s"] = (main, "tokens/s")
        out["eval_tokens_per_s"] = (second, "tokens/s")
        for key in ("base_acc", "fused_acc"):
            out[key] = (statistics.median(r.info[key] for r in results if r.info), "share")
    elif wl.name == "probe_descent":
        ok = [r for r in results if r.info]
        out["probe_s"] = (statistics.median(r.info["probe_s"] for r in ok), "s")
        out["probe_passes"] = (statistics.median(r.info["passes"] for r in ok), "count")
        out["probe_tokens_per_s"] = (main, "tokens/s")
        out["alignment_tokens_per_s"] = (second, "tokens/s")
    else:
        out["seq_tokens_per_s"] = (main, "tokens/s")
        out["pipe_tokens_per_s"] = (second, "tokens/s")
        for mode, attr in (("seq", "main"), ("pipe", "second")):
            ms = per_token_ms(results, attr)
            out[f"{mode}_token_ms_p50"] = (statistics.median(ms), "ms")
            out[f"{mode}_token_ms_p90"] = (p90(ms), "ms")
        out["requests"] = (len(results), "count")
        out["mean_new_tokens"] = (statistics.mean(s.tokens for r in results for s in r.main), "tokens")
        out["pipeline.pipe_over_seq"] = (pipe_over_seq(results), "ratio")
    return out


def pipe_over_seq(results) -> float:
    seq = sum(s.seconds for r in results for s in r.main)
    pipe = sum(s.seconds for r in results for s in r.second)
    return pipe / seq


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(wl, results, setup_s: float) -> dict:
    """The metrics BENCHMARK.json gates, shared by every workload."""
    return {
        "setup_s": (setup_s, "s"),
        "main_tokens_per_s": (throughput(results, "main", wl.chunk, ref=True), "tokens/s"),
        "second_tokens_per_s": (throughput(results, "second", wl.chunk, ref=True), "tokens/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer(wl, tracer, untraced, traced, generate_s: float) -> dict:
    from chainboost import schedlab

    n = len(traced)
    s = tracer.summary()

    def calls(name):
        return s.get(name, {}).get("calls", 0) / n

    def total(name):
        return s.get(name, {}).get("total_s", 0.0) / n

    def self_s(name):
        return s.get(name, {}).get("self_s", 0.0) / n

    out = {}
    for name in ("model.forward_train", "model.backward", "model.forward_step"):
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.self_s"] = (self_s(name), "s")
    steps = tracer.child_spans("model.forward_step", "pipeline.decode_sequential")
    us = statistics.mean(d for _, d in steps) * 1e6 / wl.n_layers if steps else 0.0
    out["model.forward_step.us_per_layer"] = (us, "us")
    late = [d for t, d in steps if t >= 96]
    early = [d for t, d in steps if t < 16]
    ratio = statistics.mean(late) / statistics.mean(early) if late and early else 0.0
    out["model.forward_step.late_early_ratio"] = (ratio, "ratio")
    for name in ("model.gelu", "model.gelu_grad", "numkit.softmax_rows", "numkit.layer_norm",
                 "training.batch_loss_and_grad", "training.sgd_step",
                 "training.pred_forward_chain", "training.estimate_alignment",
                 "training.chain_eval", "theoryprobe.descent_probe",
                 "theoryprobe.estimate_alignment"):
        out[f"{name}.s"] = (total(name), "s")
    stage = tracer.tagged_totals("training.train_model")
    out["training.stage1_s"] = (stage.get("stage1", 0.0) / n, "s")
    out["training.stage2_s"] = (stage.get("stage2", 0.0) / n, "s")
    out["ensemble.fuse_logits.calls"] = (calls("ensemble.fuse_logits"), "count")
    out["ensemble.fuse_logits.s"] = (total("ensemble.fuse_logits"), "s")
    out["theoryprobe.stage_batch_pass.calls"] = (calls("theoryprobe.stage_batch_pass"), "count")
    # tasks.generate runs in set-up, which is traced once per run
    out["tasks.generate.s"] = (generate_s, "s")

    # the pipelined decoder's own TimingReport, from the untraced phase
    pipe = {"blocked_s": 0.0, "transfer_s": 0.0, "idle_share": 0.0, "pipe_over_seq": 0.0,
            "speedup_vs_schedlab": 0.0}
    predicted = 0.0
    if wl.k_models:
        infos = [r.info for r in untraced if r.info]
        pipe["blocked_s"] = statistics.mean(i["blocked_s"] for i in infos)
        pipe["transfer_s"] = statistics.mean(i["transfer_s"] for i in infos)
        # workers plus the coordinating thread all wait on the same pool
        busy = sum(i["pipe_wall_s"] for i in infos) * (wl.workers + 1)
        pipe["idle_share"] = sum(i["blocked_s"] for i in infos) / busy
        pipe["pipe_over_seq"] = pipe_over_seq(untraced)
        prob = schedlab.SchedProblem(k=wl.k_models, l=wl.n_layers, g=wl.workers)
        predicted = float(schedlab.t_sequential(wl.k_models - 1, wl.n_layers, 1)
                          / schedlab.t_parallel_closed(prob))
        pipe["speedup_vs_schedlab"] = 1.0 / pipe["pipe_over_seq"] / predicted
    for key, value in pipe.items():
        out[f"pipeline.{key}"] = (value, "s" if key.endswith("_s") else "ratio")
    out["schedlab.predicted_speedup"] = (predicted, "ratio")
    base = throughput(untraced, "main", wl.chunk)
    out["trace.overhead_share"] = (base / throughput(traced, "main", wl.chunk) - 1.0, "ratio")
    return out


def result_line(results, metrics: dict) -> dict:
    """The last stdout line; an operation with any failed check is a failed one."""
    failed = sum(1 for r in results if r.failures)
    return {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def print_report(title: str, metrics: dict) -> None:
    print(f"# {title}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-tests")
    args = ap.parse_args(argv)

    _import_program()
    import numpy as np

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from refclock import timed_ref
    from workloads import WORKLOADS, host_cpus

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    cpus = host_cpus()
    print(json.dumps({"host": host_record(np, args.seed, cpus)}))
    if cpus < 4:
        print(f"note: this host has {cpus} CPUs; criterion 8 (pipelined <= 0.8x sequential "
              "latency) cannot be measured honestly below 4, pipeline.pipe_over_seq is "
              "reported anyway")

    wl = WORKLOADS[args.workload](smoke=args.smoke)
    try:
        setup_s = statistics.median(
            timed_ref(wl.ref, wl.setup, args.seed)[2] for _ in range(SETUP_REPS))
        if args.trace == 0:
            results = run_ops(wl, args.seconds, wl.min_ops)
            print_report(f"{wl.name} end to end", report(wl, results, setup_s))
            metrics = end_to_end(wl, results, setup_s)
        else:
            from tracer import Tracer

            untraced = run_ops(wl, args.seconds / 3, wl.chunk)
            tracer = Tracer()
            wl.start_tracing(tracer)
            tracer.install()
            try:
                wl.setup(args.seed)
                generate_s = tracer.summary().get("tasks.generate", {}).get("total_s", 0.0)
                tracer.reset()  # keep set-up's warm-up out of the per-operation figures
                traced = run_ops(wl, args.seconds * 2 / 3, wl.chunk)
            finally:
                tracer.uninstall()
            results = untraced + traced
            metrics = per_layer(wl, tracer, untraced, traced, generate_s)
            print_report(f"{wl.name} per layer (per operation)", metrics)
            path = OUT_DIR / f"trace_{wl.name}_{args.seed}.json"
            n = tracer.write_chrome_trace(path, TRACE_SPAN_CAP)
            print(f"wrote {n} spans to {path.relative_to(ROOT)}")
    finally:
        wl.close()

    for f in [f for r in results for f in r.failures][:20]:
        print(f"FAILED: {f}", file=sys.stderr)
    print(json.dumps(result_line(results, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
