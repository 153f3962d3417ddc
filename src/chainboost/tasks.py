"""Synthetic next-token tasks standing in for fine-tuning corpora.

Each sample is a token sequence plus a per-position gold target: gold[t] is
the token the model should emit after reading tokens[0..t]. Positions with
gold == -1 carry no supervision (prompt/noise regions). Reserved ids at the
top of the vocabulary: EOS = V-1, SEP = V-2, MARKER = V-3.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

TASK_KINDS = ("copy", "reverse", "modsum", "needle")

NO_LABEL = -1


@dataclass(frozen=True)
class TaskSpec:
    kind: str
    vocab: int = 32
    length: int = 8  # payload length (data tokens per sample)
    n_samples: int = 200
    seed: int = 0
    modulus: int = 7  # modsum only

    def __post_init__(self):
        if self.kind not in TASK_KINDS:
            raise ValueError(f"unknown task kind {self.kind!r}; choose from {TASK_KINDS}")
        for name in ("vocab", "length", "n_samples", "seed", "modulus"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.vocab < 6:
            raise ValueError("vocab must be >= 6 (3 reserved ids + data tokens)")
        if self.length < 2 or self.n_samples < 1:
            raise ValueError("invalid length or sample count")
        if self.kind == "modsum" and not (2 <= self.modulus <= self.vocab - 3):
            raise ValueError("modulus must fit below the reserved token ids")

    @property
    def eos(self) -> int:
        return self.vocab - 1

    @property
    def sep(self) -> int:
        return self.vocab - 2

    @property
    def marker(self) -> int:
        return self.vocab - 3

    @property
    def n_data_tokens(self) -> int:
        return self.vocab - 3

    def sequence_length(self) -> int:
        if self.kind in ("copy", "reverse"):
            return 2 * self.length + 2  # payload, SEP, payload, EOS
        if self.kind == "modsum":
            return self.length + 1  # seeded recurrence, EOS
        return self.length + 3  # needle: prefix containing marker+needle, SEP, needle, EOS


@dataclass
class Dataset:
    """Fixed-length token batch: tokens (N, T) int64, gold (N, T) with -1 holes."""

    tokens: np.ndarray
    gold: np.ndarray

    def __post_init__(self):
        self.tokens = np.asarray(self.tokens, dtype=np.int64)
        self.gold = np.asarray(self.gold, dtype=np.int64)
        if self.tokens.shape != self.gold.shape:
            raise ValueError("tokens and gold must share a shape")

    def __len__(self) -> int:
        return self.tokens.shape[0]

    def subset(self, idx) -> "Dataset":
        return Dataset(self.tokens[idx], self.gold[idx])

    def split(self, holdout_fraction: float, seed: int = 0) -> tuple["Dataset", "Dataset"]:
        rng = np.random.default_rng(seed)
        n = len(self)
        perm = rng.permutation(n)
        n_hold = max(1, int(round(n * holdout_fraction)))
        return self.subset(perm[n_hold:]), self.subset(perm[:n_hold])


def _gen_sample(task: TaskSpec, rng: np.random.Generator) -> tuple[list[int], list[int]]:
    nd = task.n_data_tokens
    m = task.length
    if task.kind in ("copy", "reverse"):
        payload = rng.integers(0, nd, size=m).tolist()
        answer = payload if task.kind == "copy" else payload[::-1]
        tokens = payload + [task.sep] + answer + [task.eos]
        gold = [NO_LABEL] * m + answer + [task.eos, NO_LABEL]
        return tokens, gold
    if task.kind == "modsum":
        M = task.modulus
        seq = [int(rng.integers(0, M)), int(rng.integers(0, M))]
        for _ in range(m - 2):
            seq.append((seq[-1] + seq[-2]) % M)
        tokens = seq + [task.eos]
        # gold[t] targets the prediction made after reading tokens[..t]
        gold = [NO_LABEL] + [seq[j] for j in range(2, m)] + [task.eos, NO_LABEL]
        return tokens, gold
    # needle: random prefix containing MARKER followed by the needle token
    prefix_len = m
    marker_pos = int(rng.integers(0, prefix_len - 1))
    prefix = rng.integers(0, nd, size=prefix_len).tolist()
    needle = prefix[marker_pos + 1]
    tokens = (
        prefix[:marker_pos] + [task.marker] + prefix[marker_pos + 1 :] + [task.sep, needle, task.eos]
    )
    gold = [NO_LABEL] * (len(tokens) - 3) + [needle, task.eos, NO_LABEL]
    return tokens, gold


def generate(task: TaskSpec) -> Dataset:
    """Deterministic per seed; all samples share one sequence length."""
    rng = np.random.default_rng(task.seed)
    T = task.sequence_length()
    tokens = np.zeros((task.n_samples, T), dtype=np.int64)
    gold = np.zeros((task.n_samples, T), dtype=np.int64)
    for i in range(task.n_samples):
        toks, g = _gen_sample(task, rng)
        if len(toks) != T or len(g) != T:
            raise AssertionError(f"generator produced length {len(toks)}/{len(g)}, want {T}")
        tokens[i] = toks
        gold[i] = g
    return Dataset(tokens, gold)


def save_dataset(path, ds: Dataset) -> None:
    with open(path, "w") as f:
        for i in range(len(ds)):
            rec = {"input": ds.tokens[i].tolist(), "gold": ds.gold[i].tolist()}
            f.write(json.dumps(rec) + "\n")


def read_text(path) -> str:
    """A text file's contents; bytes that are not UTF-8 raise ValueError
    naming the file."""
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path} is not UTF-8 text: {exc}") from None


def load_dataset(path, vocab: Optional[int] = None) -> Dataset:
    """The samples of a file save_dataset writes: per nonempty line, a JSON
    object whose "input" and "gold" are lists of integer ids, as long as
    each other and as the first line's. A token id is in [0, vocab), a gold
    id too or NO_LABEL; vocab defaults to 1 + the largest token id. A file
    that breaks any of this raises ValueError naming its first bad line."""
    rows = []
    for n, line in enumerate(read_text(path).splitlines(), 1):
        if not line.strip():
            continue
        where = f"{path} line {n}"
        try:
            rec = json.loads(line)
        except ValueError as exc:
            raise ValueError(f"{where}: not JSON: {exc}") from None
        pair = [rec.get(key) if isinstance(rec, dict) else None for key in ("input", "gold")]
        if not all(isinstance(ids, list) and all(type(i) is int for i in ids) for ids in pair):
            raise ValueError(f"{where}: needs 'input' and 'gold' lists of integer ids")
        width = len(rows[0][1]) if rows else len(pair[0])
        if not width or {len(pair[0]), len(pair[1])} != {width}:
            raise ValueError(f"{where}: 'input' and 'gold' hold {len(pair[0])} and "
                             f"{len(pair[1])} ids, not one nonzero width every line shares")
        rows.append((where, *pair))
    if not rows:
        raise ValueError(f"{path} holds no sample")
    if vocab is None:
        vocab = 1 + max(max(tokens) for _, tokens, _ in rows)
    for where, tokens, gold in rows:
        for name, ids, least in (("token", tokens, 0), ("gold", gold, NO_LABEL)):
            bad = [i for i in ids if not least <= i < vocab]
            if bad:
                raise ValueError(f"{where}: {name} id {bad[0]} out of range [{least}, {vocab})")
    return Dataset(np.array([r[1] for r in rows]), np.array([r[2] for r in rows]))
