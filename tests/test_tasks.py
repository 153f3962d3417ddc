"""Tests for synthetic task generation."""

import numpy as np
import pytest

from chainboost.tasks import (
    NO_LABEL,
    Dataset,
    TaskSpec,
    generate,
    load_dataset,
    save_dataset,
)
from oracles import derive_gold


class TestGenerate:
    def test_copy_gold_is_shifted_payload(self):
        spec = TaskSpec("copy", vocab=16, length=8, n_samples=10, seed=1)
        ds = generate(spec)
        for i in range(len(ds)):
            assert np.array_equal(derive_gold(spec, ds.tokens[i]), ds.gold[i])

    def test_deterministic_per_seed(self):
        spec = TaskSpec("reverse", vocab=16, length=6, n_samples=12, seed=5)
        a, b = generate(spec), generate(spec)
        assert np.array_equal(a.tokens, b.tokens)
        assert np.array_equal(a.gold, b.gold)

    def test_seed_changes_data(self):
        s1 = generate(TaskSpec("copy", vocab=16, length=6, n_samples=12, seed=1))
        s2 = generate(TaskSpec("copy", vocab=16, length=6, n_samples=12, seed=2))
        assert not np.array_equal(s1.tokens, s2.tokens)

    @pytest.mark.parametrize("kind", ["copy", "reverse", "modsum", "needle"])
    def test_label_rederivation(self, kind):
        spec = TaskSpec(kind, vocab=16, length=6, n_samples=20, seed=3, modulus=7)
        ds = generate(spec)
        for i in range(len(ds)):
            assert np.array_equal(derive_gold(spec, ds.tokens[i]), ds.gold[i])

    def test_modsum_labels_below_modulus(self):
        spec = TaskSpec("modsum", vocab=16, length=8, n_samples=20, seed=4, modulus=7)
        ds = generate(spec)
        eos = spec.vocab - 1
        lab = ds.gold[ds.gold >= 0]
        assert ((lab < 7) | (lab == eos)).all()

    def test_sequences_fit_max(self):
        for kind in ("copy", "reverse", "modsum", "needle"):
            spec = TaskSpec(kind, vocab=16, length=6, n_samples=5, seed=1)
            ds = generate(spec)
            assert ds.tokens.shape[1] == spec.sequence_length()

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            TaskSpec("sort", vocab=16, length=4, n_samples=5)

    @pytest.mark.parametrize("field, value, message", [
        ("vocab", 16.0, "vocab must be an integer, got 16.0"),
        ("length", True, "length must be an integer, got True"),
        ("n_samples", "8", "n_samples must be an integer, got '8'"),
        ("modulus", None, "modulus must be an integer, got None"),
        ("seed", -1, "seed must be nonnegative, got -1"),
    ])
    def test_int_fields(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            TaskSpec("modsum", **{field: value})


class TestDataset:
    def test_split_disjoint_and_complete(self):
        ds = generate(TaskSpec("copy", vocab=16, length=4, n_samples=40, seed=2))
        train, hold = ds.split(0.25, seed=1)
        assert train.tokens.shape[0] + hold.tokens.shape[0] == 40
        assert hold.tokens.shape[0] == 10

    def test_roundtrip(self, tmp_path):
        ds = generate(TaskSpec("needle", vocab=16, length=5, n_samples=15, seed=9))
        p = tmp_path / "ds.jsonl"
        save_dataset(p, ds)
        ds2 = load_dataset(p)
        assert np.array_equal(ds.tokens, ds2.tokens)
        assert np.array_equal(ds.gold, ds2.gold)

    def test_same_seed_same_bytes(self, tmp_path):
        spec = TaskSpec("modsum", vocab=16, length=6, n_samples=10, seed=11)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(p1, generate(spec))
        save_dataset(p2, generate(spec))
        assert p1.read_bytes() == p2.read_bytes()

    def test_no_label_marker(self):
        ds = generate(TaskSpec("copy", vocab=16, length=4, n_samples=5, seed=1))
        assert (ds.gold == NO_LABEL).any()
