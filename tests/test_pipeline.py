"""Tests for the state pool and the pipelined/sequential decoders."""

import dataclasses
import sys
import threading
import time

import numpy as np
import pytest

from chainboost.ensemble import Ensemble, EnsembleSpec
from chainboost.model import ModelSpec, TransformerModel
from chainboost.pipeline import (
    HiddenKey,
    PoolProtocolError,
    PoolTimeoutError,
    StatePool,
    WorkerFailedError,
    decode_pipelined,
    decode_sequential,
)

TINY = ModelSpec(
    n_layers=2, d_model=16, n_heads=2, d_ff=32, vocab=12, max_steps=12,
    fusion_period=2, adapter_rank=0, seed=0,
)


def make_chain(n_successors: int, seed: int = 0) -> Ensemble:
    specs = [dataclasses.replace(TINY, seed=seed + 10 * i) for i in range(n_successors + 1)]
    return Ensemble(EnsembleSpec(specs, lambdas=[0.3] * n_successors, top_k=2))


class TestStatePool:
    def test_put_get_roundtrip(self):
        pool = StatePool()
        key = HiddenKey(0, 1, 2)
        v = np.arange(4.0)
        pool.put_state(key, v)
        np.testing.assert_array_equal(pool.get_state(key), v)

    def test_write_once(self):
        pool = StatePool()
        key = HiddenKey(0, 0, 0)
        pool.put_state(key, np.zeros(2))
        with pytest.raises(PoolProtocolError):
            pool.put_state(key, np.ones(2))

    def test_timeout_names_blocked_key(self):
        pool = StatePool()
        with pytest.raises(PoolTimeoutError, match=r"model=1.*layer=0.*step=3|HiddenKey"):
            pool.get_state(HiddenKey(1, 0, 3), timeout_s=0.05)

    def test_delayed_producer_unblocks_reader(self):
        pool = StatePool()
        key = HiddenKey(0, 1, 0)

        def producer():
            time.sleep(0.05)
            pool.put_state(key, np.array([7.0]))

        th = threading.Thread(target=producer)
        th.start()
        got = pool.get_state(key, timeout_s=2.0)
        th.join()
        assert got[0] == 7.0
        assert pool.blocked_s >= 0.03

    def test_per_call_timeout_leaves_other_readers_alone(self):
        pool = StatePool(timeout_s=5.0)
        late = HiddenKey(0, 1, 0)
        results: dict = {}

        def short_reader():
            try:
                pool.get_state(HiddenKey(0, 0, 9), timeout_s=0.05)
            except PoolTimeoutError as exc:
                results["short"] = exc

        def default_reader():
            results["default"] = pool.get_state(late)

        short = threading.Thread(target=short_reader)
        short.start()
        time.sleep(0.01)  # the default reader starts waiting during the short wait
        default = threading.Thread(target=default_reader)
        default.start()
        short.join(timeout=5.0)
        time.sleep(0.1)  # past the short timeout: the default reader must still wait
        pool.put_state(late, np.array([3.0]))
        default.join(timeout=5.0)
        assert not short.is_alive() and not default.is_alive()
        assert isinstance(results["short"], PoolTimeoutError)
        assert results["default"][0] == 3.0
        assert pool.timeout_s == 5.0

    def test_token_timeout_names_store_and_step(self):
        with pytest.raises(PoolTimeoutError, match=r"token for step 1"):
            StatePool(timeout_s=0.05).get_token(1)

    def test_failure_poisons_waiters(self):
        pool = StatePool()
        pool.fail(RuntimeError("worker crashed"))
        with pytest.raises(WorkerFailedError):
            pool.get_state(HiddenKey(0, 0, 0))

    def test_concurrent_interleaving(self):
        pool = StatePool(timeout_s=5.0)
        n = 50

        def producer():
            for s in range(n):
                pool.put_state(HiddenKey(0, 0, s), np.array([float(s)]))

        def consumer(out):
            for s in range(n):
                out.append(float(pool.get_state(HiddenKey(0, 0, s))[0]))

        got: list[float] = []
        threads = [threading.Thread(target=producer), threading.Thread(target=consumer, args=(got,))]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert got == [float(s) for s in range(n)]


class TestDecoderEquivalence:
    @pytest.mark.parametrize("n_successors", [0, 1, 2])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6])
    def test_pipelined_matches_sequential(self, n_successors, seed):
        ens = make_chain(n_successors, seed=seed)
        rng = np.random.default_rng(seed)
        prompt = rng.integers(0, TINY.vocab - 1, size=3).tolist()
        toks_s, logits_s = decode_sequential(ens, prompt, max_tokens=6)
        toks_p, logits_p, _ = decode_pipelined(ens, prompt, max_tokens=6)
        assert toks_s == toks_p
        assert len(logits_s) == len(logits_p)
        assert np.max(np.abs(np.asarray(logits_s) - np.asarray(logits_p))) <= 1e-9

    def test_single_worker_folds_whole_chain(self):
        ens = make_chain(2, seed=9)
        toks_s, _ = decode_sequential(ens, [1, 2], max_tokens=5)
        toks_p, _, _ = decode_pipelined(ens, [1, 2], max_tokens=5, workers=1)
        assert toks_s == toks_p

    def test_successor_deeper_than_predecessor(self):
        # fusion layer 3 of the 4-layer successor reads base layer 2; the
        # successor's other layers must not wait for base states that never exist
        succ = dataclasses.replace(TINY, n_layers=4, fusion_period=3, seed=1)
        ens = Ensemble(EnsembleSpec([TINY, succ], lambdas=[0.3], top_k=2))
        toks_s, logits_s = decode_sequential(ens, [1, 2], max_tokens=3)
        toks_p, logits_p, _ = decode_pipelined(ens, [1, 2], max_tokens=3, timeout_s=2.0)
        assert toks_s == toks_p == [10, 0, 9]
        assert np.array_equal(logits_s, logits_p)

    def test_deep_chain_under_frequent_thread_switches(self):
        # three workers switching every microsecond: a wait or publish that
        # depends on thread timing shows up as a mismatch or a pool timeout
        deep = dataclasses.replace(TINY, n_layers=4)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for seed in range(8):
                specs = [dataclasses.replace(deep, seed=seed + 10 * i) for i in range(3)]
                ens = Ensemble(EnsembleSpec(specs, [0.3, 0.3], 2))
                toks_s, logits_s = decode_sequential(ens, [seed, 1], max_tokens=5)
                toks_p, logits_p, _ = decode_pipelined(ens, [seed, 1], max_tokens=5, timeout_s=5.0)
                assert toks_s == toks_p
                assert np.array_equal(logits_s, logits_p)
        finally:
            sys.setswitchinterval(old)

    def test_publishes_only_states_successors_read(self, monkeypatch):
        puts = []
        real_put = StatePool.put_state

        def counting_put(pool, key, value):
            puts.append(key)
            real_put(pool, key, value)

        monkeypatch.setattr(StatePool, "put_state", counting_put)
        ens = make_chain(2, seed=4)
        toks, _, _ = decode_pipelined(ens, [1, 2], max_tokens=3)
        n_steps = 2 + len(toks) - 1
        # TINY fuses at layer 2 only, which reads predecessor layer 1
        assert sorted(puts, key=lambda k: (k.step, k.model)) == [
            HiddenKey(m, 1, t) for t in range(n_steps) for m in (0, 1)
        ]

    def test_worker_error_named_once(self, monkeypatch):
        def boom(self, *args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(TransformerModel, "forward_step", boom)
        with pytest.raises(WorkerFailedError) as info:
            decode_pipelined(make_chain(1), [1, 2], max_tokens=3, timeout_s=2.0)
        msg = str(info.value)
        assert "boom" in msg and msg.count("decode aborted") == 1
        assert info.value.partial_tokens == []

    def test_worker_still_running_after_join_is_named(self, monkeypatch):
        ens = make_chain(2, seed=4)
        step = ens.models[1].forward_step
        release = threading.Event()

        def stuck(*args, **kwargs):
            release.wait(timeout=5.0)
            return step(*args, **kwargs)

        monkeypatch.setattr(ens.models[1], "forward_step", stuck)
        try:
            with pytest.raises(WorkerFailedError) as info:
                decode_pipelined(ens, [1, 2], max_tokens=3, timeout_s=0.1)
        finally:
            release.set()
        assert "workers of models [1] still running" in str(info.value)

    def test_base_only_chain(self):
        ens = make_chain(0, seed=3)
        toks_s, _ = decode_sequential(ens, [4], max_tokens=4)
        toks_p, _, _ = decode_pipelined(ens, [4], max_tokens=4)
        assert toks_s == toks_p


class TestWavefront:
    def test_layer_precedence_in_events(self):
        deep = dataclasses.replace(TINY, n_layers=4)
        chains = [
            make_chain(2, seed=1),
            Ensemble(EnsembleSpec([dataclasses.replace(deep, seed=s) for s in (1, 11, 21)], [0.3, 0.3], 2)),
        ]
        for ens in chains:
            _, _, report = decode_pipelined(ens, [1, 2, 3], max_tokens=5)
            start = {(m, l, t): a for m, l, t, a, _ in report.events}
            finish = {(m, l, t): b for m, l, t, _, b in report.events}
            for (m, l, t), a in start.items():
                if m > 0 and l in ens.spec.models[m].fusion_layers():
                    # a successor fusion block begins only after the
                    # predecessor block it reads (layer l-1) has finished
                    assert a >= finish[(m - 1, l - 1, t)]

    def test_report_accounting(self):
        ens = make_chain(1, seed=2)
        toks, _, report = decode_pipelined(ens, [1], max_tokens=4)
        assert report.n_tokens == len(toks)
        assert report.wall_s > 0
        assert report.blocked_s >= 0 and report.transfer_s >= 0
        text = report.format()
        assert "per_token_latency_s" in text and "state_passing_s" in text

    def test_liveness(self):
        ens = make_chain(2, seed=5)
        t0 = time.perf_counter()
        decode_pipelined(ens, [1, 2], max_tokens=4, timeout_s=10.0)
        assert time.perf_counter() - t0 < 10.0


class TestPromptValidation:
    def test_empty_prompt(self):
        ens = make_chain(0)
        with pytest.raises(ValueError):
            decode_sequential(ens, [], max_tokens=3)
        with pytest.raises(ValueError):
            decode_pipelined(ens, [], max_tokens=3)

    def test_out_of_vocab_prompt(self):
        ens = make_chain(0)
        with pytest.raises((ValueError, IndexError)):
            decode_sequential(ens, [99], max_tokens=3)
