"""Tests for the state pool and the pipelined/sequential decoders."""

import threading
import time

import numpy as np
import pytest

from chainboost.ensemble import Ensemble, EnsembleSpec
from chainboost.model import ModelSpec
from chainboost.pipeline import (
    HiddenKey,
    PoolProtocolError,
    PoolTimeoutError,
    StatePool,
    WorkerFailedError,
    decode_pipelined,
    decode_sequential,
    pool_get,
    pool_put,
)

TINY = ModelSpec(
    n_layers=2, d_model=16, n_heads=2, d_ff=32, vocab=12, max_steps=12,
    fusion_period=2, adapter_rank=0, seed=0,
)


def make_chain(n_successors: int, seed: int = 0) -> Ensemble:
    import dataclasses

    specs = [dataclasses.replace(TINY, seed=seed + 10 * i) for i in range(n_successors + 1)]
    return Ensemble(EnsembleSpec(specs, lambdas=[0.3] * n_successors, top_k=2))


class TestStatePool:
    def test_put_get_roundtrip(self):
        pool = StatePool()
        key = HiddenKey(0, 1, 2)
        v = np.arange(4.0)
        pool_put(pool, key, v)
        np.testing.assert_array_equal(pool_get(pool, key), v)

    def test_write_once(self):
        pool = StatePool()
        key = HiddenKey(0, 0, 0)
        pool_put(pool, key, np.zeros(2))
        with pytest.raises(PoolProtocolError):
            pool_put(pool, key, np.ones(2))

    def test_timeout_names_blocked_key(self):
        pool = StatePool()
        with pytest.raises(PoolTimeoutError, match=r"model=1.*layer=0.*step=3|HiddenKey"):
            pool_get(pool, HiddenKey(1, 0, 3), timeout_ms=50)

    def test_delayed_producer_unblocks_reader(self):
        pool = StatePool()
        key = HiddenKey(0, 1, 0)

        def producer():
            time.sleep(0.05)
            pool_put(pool, key, np.array([7.0]))

        th = threading.Thread(target=producer)
        th.start()
        got = pool_get(pool, key, timeout_ms=2000)
        th.join()
        assert got[0] == 7.0
        assert pool.blocked_s >= 0.03

    def test_per_call_timeout_leaves_other_readers_alone(self):
        pool = StatePool(timeout_s=5.0)
        late = HiddenKey(0, 1, 0)
        results: dict = {}

        def short_reader():
            try:
                pool_get(pool, HiddenKey(0, 0, 9), timeout_ms=50)
            except PoolTimeoutError as exc:
                results["short"] = exc

        def default_reader():
            results["default"] = pool_get(pool, late)

        short = threading.Thread(target=short_reader)
        short.start()
        time.sleep(0.01)  # the default reader starts waiting during the short wait
        default = threading.Thread(target=default_reader)
        default.start()
        short.join(timeout=5.0)
        time.sleep(0.1)  # past the short timeout: the default reader must still wait
        pool_put(pool, late, np.array([3.0]))
        default.join(timeout=5.0)
        assert not short.is_alive() and not default.is_alive()
        assert isinstance(results["short"], PoolTimeoutError)
        assert results["default"][0] == 3.0
        assert pool.timeout_s == 5.0

    def test_failure_poisons_waiters(self):
        pool = StatePool()
        pool.fail(RuntimeError("worker crashed"))
        with pytest.raises(WorkerFailedError):
            pool_get(pool, HiddenKey(0, 0, 0))

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

    def test_base_only_chain(self):
        ens = make_chain(0, seed=3)
        toks_s, _ = decode_sequential(ens, [4], max_tokens=4)
        toks_p, _, _ = decode_pipelined(ens, [4], max_tokens=4)
        assert toks_s == toks_p


class TestWavefront:
    def test_layer_precedence_in_events(self):
        ens = make_chain(2, seed=1)
        _, _, report = decode_pipelined(ens, [1, 2, 3], max_tokens=5)
        start = {(m, l, t): a for m, l, t, a, b in report.events}
        for (m, l, t), a in start.items():
            if m > 0 and (m - 1, l - 1, t) in start:
                # a successor block cannot begin before its diagonal
                # predecessor block has begun
                assert a >= start[(m - 1, l - 1, t)]

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
