"""Fast self-tests of the benchmark: smoke sizes and the correctness checks.

Run with `python -m pytest chainbench` from the repository root (with src
on PYTHONPATH, as for the package's own tests).
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chainboost import pipeline
from chainboost.theoryprobe import DescentReport
from chainboost.training import AlignmentEstimate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# the readable report of an untraced run names the workload's own metrics
REPORT_NAMES = {
    "train_modsum": ["train_tokens_per_s", "eval_tokens_per_s", "base_acc", "fused_acc"],
    "decode_chain3": ["seq_tokens_per_s", "pipe_tokens_per_s", "seq_token_ms_p50",
                      "seq_token_ms_p90", "pipe_token_ms_p50", "pipe_token_ms_p90",
                      "requests", "pipeline.pipe_over_seq"],
    "probe_descent": ["probe_s", "probe_passes"],
}
REPORT_NAMES["decode_long1"] = REPORT_NAMES["decode_chain3"]


def run_bench(workload: str, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric(workload, trace):
    result, stdout = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert '"host"' in stdout
    if not trace:
        for name in ["setup_s", "peak_rss_mb", "host_slowdown"] + REPORT_NAMES[workload]:
            assert any(line.split()[:1] == [name] for line in stdout.splitlines()), name


@pytest.fixture(scope="module")
def decoded():
    from workloads import DecodeChain3

    wl = DecodeChain3(smoke=True)
    wl.setup(5)
    prompt = wl.prompt(wl.rng)
    seq = pipeline.decode_sequential(wl.ens, prompt, wl.max_new)
    toks, z, _ = pipeline.decode_pipelined(wl.ens, prompt, wl.max_new, workers=wl.workers)
    return wl, prompt, seq, (toks, z)


def test_check_decode_accepts_real_output(decoded):
    from workloads import check_decode

    wl, prompt, seq, pipe = decoded
    assert check_decode(wl.ens, prompt, wl.max_new, seq, pipe) == []


def test_check_decode_catches_corrupted_logit(decoded):
    from workloads import check_decode

    wl, prompt, seq, pipe = decoded
    z = pipe[1].copy()
    z[0, 0] += 1e-6
    assert check_decode(wl.ens, prompt, wl.max_new, seq, (pipe[0], z))
    # the same corruption on both decoders is caught by the teacher-forced check
    assert check_decode(wl.ens, prompt, wl.max_new, (seq[0], z), (pipe[0], z))


def test_check_decode_catches_corrupted_token(decoded):
    from workloads import check_decode

    wl, prompt, seq, pipe = decoded
    toks = list(pipe[0])
    toks[0] = (toks[0] + 1) % (wl.ens.spec.vocab - 1)
    assert check_decode(wl.ens, prompt, wl.max_new, seq, (toks, pipe[1]))
    assert check_decode(wl.ens, prompt, wl.max_new, (toks, seq[1]), (toks, pipe[1]))


def test_failed_check_counts_as_failed_operation():
    from run import result_line
    from workloads import OpResult

    line = result_line([OpResult(), OpResult(failures=["bad"]), OpResult()], {"x": (1.0, "s")})
    assert line == {"correct": False, "attempted": 3, "failed": 1,
                    "metrics": {"x": {"value": 1.0, "unit": "s"}}}


def test_check_train_and_probe_flag_bad_results():
    from workloads import check_probe, check_train

    assert check_train([{"stage": "stage1", "model_index": 0, "ce": 2.0, "suppression": 0.0},
                        {"stage": "stage1", "model_index": 0, "ce": np.nan, "suppression": 0.0}])
    assert check_train([{"stage": "stage1", "model_index": 0, "ce": 1.0, "suppression": 0.0},
                        {"stage": "stage1", "model_index": 0, "ce": 1.5, "suppression": 0.0}])
    align = AlignmentEstimate(rho=0.0, gamma=0.0, sample_count=1)
    good = DescentReport([3.0, 2.0, 1.0, 0.5], 0, align, 1.0, 0.1, 0.2)
    assert check_probe(good, steps=3) == []
    assert check_probe(dataclasses.replace(good, violations=1), steps=3)
    assert check_probe(dataclasses.replace(good, precondition_ok=False), steps=3)
