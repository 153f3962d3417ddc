"""End-to-end tests for the command-line interface."""

import dataclasses
import errno
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from chainboost import cli
from chainboost.ensemble import load_manifest
from chainboost.model import TransformerModel
from chainboost.tasks import load_dataset
from chainboost.training import TrainConfig


EXAMPLE_CONFIG = Path(__file__).resolve().parents[1] / "examples_config.json"
# every one of them is JSON that json.loads reads (NaN and +-Infinity included)
SWEEP_VALUES = [None, "x", 2.5, -1, 0, [], {}, True, [0.3, 0.3], 1e-9,
                float("nan"), float("inf"), float("-inf")]


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_caught(argv, capsys):
    """(exit code, stderr) of one in-process run; an exception that escapes
    main, which the console script would print as a traceback, comes back
    as ("traceback", its repr)."""
    try:
        code = cli.main(argv)
    except Exception as exc:  # noqa: BLE001 - recorded as a failed case
        capsys.readouterr()
        return "traceback", repr(exc)
    return code, capsys.readouterr().err


def train_tiny(root: Path, seeds: list[int], code: int = 0) -> Path:
    """Train a tiny chain per seed under root/out, expecting exit code
    code; returns root/out."""
    cfg = {
        "task": {"kind": "copy", "vocab": 12, "length": 3, "n_samples": 24, "seed": 1},
        "model": {
            "n_layers": 2, "d_model": 16, "n_heads": 2, "d_ff": 32,
            "vocab": 12, "max_steps": 10, "fusion_period": 2, "adapter_rank": 4,
        },
        "n_successors": 1,
        "train": {"learning_rate": 0.05, "epochs": 2, "batch_size": 8, "stage2_epochs": 2},
        "seeds": seeds,
        "holdout_fraction": 0.25,
    }
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(root / "out")]) == code
    return root / "out"


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """One tiny trained chain shared by infer/bench tests."""
    root = tmp_path_factory.mktemp("run")
    out = train_tiny(root, [1])
    prompts = root / "prompts.txt"
    prompts.write_text("1 2 3\n4 5\n")
    return out / "seed1" / "manifest.json", prompts


class TestGen:
    def test_writes_dataset_deterministically(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for p in (a, b):
            code, out, _ = run_cli(
                ["gen", "--kind", "modsum", "--vocab", "16", "--length", "6",
                 "--n-samples", "10", "--seed", "7", "--out", str(p)],
                capsys,
            )
            assert code == 0
            assert "10 samples" in out
        assert a.read_bytes() == b.read_bytes()

    def test_gold_rederivable(self, tmp_path, capsys):
        from chainboost.tasks import TaskSpec, load_dataset
        from oracles import derive_gold

        p = tmp_path / "ds.jsonl"
        code, _, _ = run_cli(
            ["gen", "--kind", "copy", "--vocab", "12", "--length", "4",
             "--n-samples", "6", "--seed", "2", "--out", str(p)],
            capsys,
        )
        assert code == 0
        spec = TaskSpec("copy", vocab=12, length=4, n_samples=6, seed=2)
        ds = load_dataset(p)
        for i in range(len(ds)):
            assert np.array_equal(derive_gold(spec, ds.tokens[i]), ds.gold[i])

    @pytest.mark.parametrize("flag, value, message", [
        ("--vocab", "1", "vocab must be >= 6"),
        ("--n-samples", "0", "invalid length or sample count"),
        ("--seed", "-1", "seed must be nonnegative, got -1"),
    ])
    def test_bad_task_exits_2(self, tmp_path, flag, value, message, capsys):
        out_path = tmp_path / "ds.jsonl"
        code, out, err = run_cli(
            ["gen", "--kind", "modsum", flag, value, "--out", str(out_path)], capsys
        )
        assert code == 2 and out == "" and not out_path.exists()
        assert err.startswith(f"bad task: {message}") and err.count("\n") == 1

    def test_out_in_missing_directory_exits_2(self, tmp_path, capsys):
        out_path = tmp_path / "absent" / "ds.jsonl"
        code, out, err = run_cli(["gen", "--kind", "copy", "--out", str(out_path)], capsys)
        assert code == 2 and out == ""
        assert err == f"cannot write {out_path}: No such file or directory\n"
        assert not out_path.parent.exists()


class TestTrainArtifacts:
    def test_manifest_roundtrip(self, trained_run):
        manifest, _ = trained_run
        ens, meta = load_manifest(manifest)
        assert len(ens.models) == 2
        assert (manifest.parent / "metrics.jsonl").exists()

    def test_checkpoints_reload_bitwise(self, trained_run):
        manifest, _ = trained_run
        a, _ = load_manifest(manifest)
        b, _ = load_manifest(manifest)
        for ma, mb in zip(a.models, b.models):
            for k in ma.params:
                assert np.array_equal(ma.params[k], mb.params[k])


    def test_rerun_replaces_seed_dir_whole(self, tmp_path):
        out = train_tiny(tmp_path, [1])
        (out / "seed1" / "stale.txt").write_text("from another run")
        first = (out / "seed1" / "manifest.json").read_text()
        train_tiny(tmp_path, [1])
        assert sorted(p.name for p in out.iterdir()) == ["seed1"]
        assert sorted(p.name for p in (out / "seed1").iterdir()) == [
            "manifest.json", "metrics.jsonl", "model0.npz", "model1.npz"]
        assert (out / "seed1" / "manifest.json").read_text() == first

    def test_failed_checkpoint_write_leaves_nothing(self, tmp_path, monkeypatch, capsys):
        save = TransformerModel.save
        saved = []

        def fail_second(self, path):
            if saved:
                raise OSError(errno.ENOSPC, "No space left on device")
            saved.append(path)
            save(self, path)

        monkeypatch.setattr(TransformerModel, "save", fail_second)
        out = train_tiny(tmp_path, [1], code=1)
        assert len(saved) == 1
        assert list(out.iterdir()) == []
        assert capsys.readouterr().err == f"cannot write {out / 'seed1'}: No space left on device\n"


class TestTrainConfig:
    @pytest.mark.parametrize("content, message", [
        (None, "No such file or directory"),
        (b"{not json", "is not a JSON file: "),
        (b"\xff\xfe{}", "is not a JSON file: "),
    ], ids=["missing_file", "not_json", "not_utf8"])
    def test_unreadable_config_exits_2(self, tmp_path, content, message, capsys):
        cfg = tmp_path / "cfg.json"
        if content is not None:
            cfg.write_bytes(content)
        code, out, err = run_cli(["train", "--config", str(cfg), "--out", str(tmp_path / "out")], capsys)
        assert code == 2 and out == ""
        assert err.startswith("bad config: ") and err.count("\n") == 1
        assert message in err and str(cfg) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["learning_rte", "precision", "seed"])
    def test_unknown_train_key_exits_2(self, tmp_path, key, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"task": {"kind": "copy"}, "train": {key: 0.1}}))
        code, _, err = run_cli(["train", "--config", str(cfg), "--out", str(tmp_path)], capsys)
        assert code == 2
        assert key in err

    @pytest.mark.parametrize("section, key", [
        ("model", "n_layer"), ("model", "seed"), ("task", "n_sample"), (None, "n_successor"),
    ])
    def test_unknown_config_key_exits_2(self, tmp_path, section, key, capsys):
        doc = json.loads((Path(__file__).resolve().parents[1] / "examples_config.json").read_text())
        (doc if section is None else doc[section])[key] = 4
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code, out, err = run_cli(["train", "--config", str(cfg), "--out", str(tmp_path / "out")], capsys)
        assert code == 2 and out == ""
        assert repr(key) in err and (section or "top-level") in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("data", ["task", "dataset"])
    def test_model_vocab_must_match_data(self, tmp_path, data, capsys):
        doc = json.loads((Path(__file__).resolve().parents[1] / "examples_config.json").read_text())
        doc["model"]["vocab"] = 40
        want = 16
        if data == "dataset":
            code, _, _ = run_cli(["gen", "--kind", "modsum", "--vocab", "16", "--length", "8",
                                  "--n-samples", "40", "--out", str(tmp_path / "d.jsonl")], capsys)
            assert code == 0
            del doc["task"]
            doc["dataset"] = str(tmp_path / "d.jsonl")
            want = int(load_dataset(doc["dataset"]).tokens.max()) + 1  # a dataset's vocab
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code, out, err = run_cli(["train", "--config", str(cfg), "--out", str(tmp_path / "out")], capsys)
        assert code == 2 and out == ""
        assert "model vocab 40" in err and f"data vocab {want}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda d, tmp: d["task"].update(kind="nope"), "unknown task kind 'nope'"),
        (lambda d, tmp: d.pop("task"), "needs a 'task' or a 'dataset'"),
        (lambda d, tmp: d.update(dataset=str(tmp / "absent.jsonl")), "absent.jsonl"),
        (lambda d, tmp: d["model"].update(n_heads=3), "d_model must be divisible by n_heads"),
        (lambda d, tmp: d.update(lambdas=[0.3, 0.3]), "need a list of 1 lambdas (one per successor), got [0.3, 0.3]"),
        (lambda d, tmp: d.update(seeds=[]), "seeds must be a nonempty list of integers, got []"),
        (lambda d, tmp: d.update(seeds=[1, "2"]), "seeds must be a nonempty list of integers"),
        (lambda d, tmp: d.update(seeds=3), "seeds must be a nonempty list of integers, got 3"),
        (lambda d, tmp: d.update(seeds=[1, -1]), "seeds must be nonnegative, got [1, -1]"),
        (lambda d, tmp: d.update(model=5), "the 'model' section must be an object, got 5"),
        (lambda d, tmp: d.update(task="modsum"), "the 'task' section must be an object"),
        (lambda d, tmp: d.update(train=[1]), "the 'train' section must be an object"),
        (lambda d, tmp: d.update(holdout_fraction=1.5), "holdout_fraction must be a number in (0, 1), got 1.5"),
        (lambda d, tmp: d.update(holdout_fraction=0), "holdout_fraction must be a number in (0, 1), got 0"),
        (lambda d, tmp: d.update(holdout_fraction=0.999), "holdout_fraction 0.999 leaves no training sample of 240"),
        (lambda d, tmp: d["model"].update(max_steps=8),
         "model max_steps 8 is below the data's sequence width 9"),
        (lambda d, tmp: d.update(top_k=2.5), "top_k must be an integer in [1, 16], got 2.5"),
        (lambda d, tmp: d.update(top_k=True), "top_k must be an integer in [1, 16], got True"),
        (lambda d, tmp: d.update(lambdas=[float("nan")]), "lambdas[0] must be a finite positive number, got nan"),
        (lambda d, tmp: d["model"].update(n_heads=0), "n_heads must be an integer >= 1, got 0"),
    ], ids=["task_kind", "no_data", "missing_dataset", "model_heads", "lambdas", "seeds_empty",
            "seeds_not_ints", "seeds_not_a_list", "seeds_negative", "model_not_object",
            "task_not_object", "train_not_object", "holdout_above_1", "holdout_0",
            "holdout_leaves_no_sample", "max_steps_below_width", "top_k_float", "top_k_bool",
            "lambda_nan", "model_heads_0"])
    def test_bad_config_exits_2(self, tmp_path, edit, message, capsys):
        doc = json.loads((Path(__file__).resolve().parents[1] / "examples_config.json").read_text())
        edit(doc, tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code, out, err = run_cli(["train", "--config", str(cfg), "--out", str(tmp_path / "out")], capsys)
        assert code == 2 and out == ""
        assert err.startswith("bad config: ") and message in err
        assert not (tmp_path / "out").exists()

    def test_task_beside_a_dataset_is_checked(self, tmp_path, capsys):
        # the task section gives the dataset's vocab, and is refused like a task alone
        code, _, _ = run_cli(["gen", "--kind", "modsum", "--vocab", "16", "--length", "8",
                              "--n-samples", "40", "--out", str(tmp_path / "d.jsonl")], capsys)
        assert code == 0
        doc = {"task": {"kind": "nope", "vocab": 16, "length": -3}, "dataset": str(tmp_path / "d.jsonl")}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code, out, err = run_cli(["train", "--config", str(cfg), "--out", str(tmp_path / "out")], capsys)
        assert code == 2 and out == ""
        assert err.startswith("bad config: unknown task kind 'nope'")
        assert not (tmp_path / "out").exists()

    def test_unlabelled_dataset_exits_2(self, tmp_path, capsys):
        # chain_eval has nothing to score: refused before --out is made
        code, _, _ = run_cli(["gen", "--kind", "modsum", "--vocab", "16", "--length", "8",
                              "--n-samples", "40", "--out", str(tmp_path / "d.jsonl")], capsys)
        assert code == 0
        ds = load_dataset(tmp_path / "d.jsonl")
        (tmp_path / "d.jsonl").write_text("".join(
            json.dumps({"input": row, "gold": [-1] * len(row)}) + "\n" for row in ds.tokens.tolist()))
        doc = json.loads((Path(__file__).resolve().parents[1] / "examples_config.json").read_text())
        doc["dataset"] = str(tmp_path / "d.jsonl")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code, out, err = run_cli(["train", "--config", str(cfg), "--out", str(tmp_path / "out")], capsys)
        assert code == 2 and out == ""
        assert err == "bad config: the holdout set of seed 1 has no labelled position to score\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda rec: rec.pop("gold"), "needs 'input' and 'gold' lists of integer ids"),
        (lambda rec: rec["input"].__setitem__(3, -1), "token id -1 out of range [0, 16)"),
        (lambda rec: rec["gold"].__setitem__(3, 20), "gold id 20 out of range [-1, 16)"),
        (lambda rec: rec["gold"].__setitem__(3, -7), "gold id -7 out of range [-1, 16)"),
        (lambda rec: rec["input"].__setitem__(3, 1.9), "needs 'input' and 'gold' lists of integer ids"),
    ], ids=["no_gold", "token_negative", "gold_above_vocab", "gold_negative", "token_float"])
    def test_bad_dataset_line_exits_2(self, tmp_path, edit, message, capsys):
        # the example config with a dataset file in place of its task
        data = tmp_path / "d.jsonl"
        code, _, _ = run_cli(["gen", "--kind", "modsum", "--vocab", "16", "--length", "8",
                              "--n-samples", "240", "--seed", "1", "--out", str(data)], capsys)
        assert code == 0
        lines = data.read_text().splitlines()
        rec = json.loads(lines[6])
        edit(rec)
        lines[6] = json.dumps(rec)
        data.write_text("\n".join(lines) + "\n")
        doc = json.loads(EXAMPLE_CONFIG.read_text())
        del doc["task"]
        doc["dataset"] = str(data)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code, out, err = run_cli(["train", "--config", str(cfg), "--out", str(tmp_path / "out")], capsys)
        assert code == 2 and out == ""
        assert err == f"bad config: {data} line 7: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_negative_seed_flag_exits_2(self, tmp_path, capsys):
        cfg = Path(__file__).resolve().parents[1] / "examples_config.json"
        code, out, err = run_cli(["train", "--config", str(cfg), "--out", str(tmp_path / "out"),
                                  "--seeds", "2", "-1"], capsys)
        assert code == 2 and out == ""
        assert err == "bad config: seeds must be nonnegative, got [2, -1]\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("train, message", [
        ({"epochs": -1, "stage2_epochs": 0}, "epochs must be an integer >= 1, got -1"),
        ({"epochs": 0}, "epochs must be an integer >= 1, got 0"),
        ({"batch_size": 0}, "batch_size must be an integer >= 1, got 0"),
        ({"stage2_epochs": 0}, "stage2_epochs must be an integer >= 1, got 0"),
        ({"stage2_learning_rate": 0}, "stage2_learning_rate must be a finite positive number, got 0"),
        ({"stage2_learning_rate": -0.1},
         "stage2_learning_rate must be a finite positive number, got -0.1"),
    ], ids=["no_step", "epochs_0", "batch_size_0", "stage2_epochs_0", "stage2_lr_0",
            "stage2_lr_negative"])
    def test_train_count_below_one_exits_2(self, tmp_path, train, message, capsys):
        doc = json.loads((Path(__file__).resolve().parents[1] / "examples_config.json").read_text())
        doc["train"].update(train)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code, out, err = run_cli(["train", "--config", str(cfg), "--out", str(tmp_path / "out")], capsys)
        assert code == 2 and out == ""
        assert err == f"bad config: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("under, reason", [(False, "File exists"), (True, "Not a directory")],
                             ids=["a_file", "under_a_file"])
    def test_out_on_a_file_exits_2(self, tmp_path, under, reason, capsys):
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        out_dir = taken / "runs" if under else taken
        code, out, err = run_cli(["train", "--config", str(EXAMPLE_CONFIG), "--out", str(out_dir),
                                  "--seeds", "1"], capsys)
        assert code == 2 and out == ""
        assert err == f"cannot write {out_dir}: {reason}\n"
        assert taken.read_text() == "not a directory"

    def test_readme_config_is_the_example_file(self):
        root = Path(__file__).resolve().parents[1]
        readme = (root / "README.md").read_text()
        block = readme.split("```json\n", 1)[1].split("```", 1)[0]
        example = json.loads((root / "examples_config.json").read_text())
        assert json.loads(block) == example
        TrainConfig(**example["train"])


class TestMutationSweep:
    """Every single-field mutation of a good input, run in process: each one
    either works or is refused with one line, never with a traceback."""

    def test_config_runs_or_exits_2_before_out(self, tmp_path, capsys):
        doc = json.loads(EXAMPLE_CONFIG.read_text())
        doc["train"].update(epochs=1, stage2_epochs=1)
        doc["seeds"] = [1]
        fields = [(section, key) for section in ("task", "model", "train") for key in doc[section]]
        fields += [(None, key) for key, value in doc.items() if not isinstance(value, dict)]
        assert len(fields) == 22
        bad = []
        for n, ((section, key), value) in enumerate(itertools.product(fields, SWEEP_VALUES)):
            case = json.loads(json.dumps(doc))
            (case if section is None else case[section])[key] = value
            cfg, out = tmp_path / f"cfg{n}.json", tmp_path / f"out{n}"
            cfg.write_text(json.dumps(case))
            code, err = run_caught(["train", "--config", str(cfg), "--out", str(out)], capsys)
            refused = (code == 2 and not out.exists() and err.startswith("bad config: ")
                       and err.count("\n") == 1)
            # no mutation diverges at one epoch per stage, so none may exit 1
            if not (code == 0 or refused):
                bad.append((f"{section or 'top-level'}.{key}", value, code, err))
        assert bad == []

    def test_manifest_loads_or_exits_1(self, trained_run, tmp_path, capsys):
        manifest, prompts = trained_run
        doc = json.loads(manifest.read_text())
        doc["checkpoints"] = [str(manifest.parent / c) for c in doc["checkpoints"]]
        path = tmp_path / "manifest.json"
        # besides the sweep values, digest lists that name the wrong checkpoint
        # or hold one digest too few or too many
        digests = doc["checkpoint_sha256"]
        assert len(digests) == len(doc["checkpoints"]) == 2
        cases = [(key, value) for key in [*doc, "fusion_enabled"] for value in SWEEP_VALUES]
        cases += [("checkpoint_sha256", value) for value in
                  (digests[::-1], [digests[0], digests[0]], digests[:1], digests + digests[:1])]
        loaded, bad = [], []
        for key, value in cases:
            path.write_text(json.dumps({**doc, key: value}))
            code, err = run_caught(["infer", "--manifest", str(path), "--prompts", str(prompts),
                                    "--max-tokens", "4"], capsys)
            if code == 0:
                loaded.append((key, value))
            elif not (code == 1 and err.startswith(f"manifest {path} does not load: ")
                      and err.count("\n") == 1):
                bad.append((key, value, code, err))
        assert bad == []
        assert loaded == [("fusion_enabled", True)]

    def test_checkpoint_header_loads_or_names_the_file(self, trained_run, tmp_path, capsys):
        # each header key and each spec field deleted or set to one of the
        # first ten sweep values, plus an extra spec field, a header that is
        # not JSON and a checkpoint without a header array
        manifest, prompts = trained_run
        doc = json.loads(manifest.read_text())
        with np.load(manifest.parent / doc["checkpoints"][1]) as data:
            arrays = {k: data[k] for k in data.files}
        header = json.loads(bytes(arrays.pop("header")).decode())
        ckpt, path = tmp_path / "model1.npz", tmp_path / "manifest.json"
        doc["checkpoints"] = [str(manifest.parent / doc["checkpoints"][0]), str(ckpt)]
        path.write_text(json.dumps(doc))

        def mutated(section, key, value):
            case = json.loads(json.dumps(header))
            part = case if section is None else case[section]
            if value == "deleted":
                del part[key]
            else:
                part[key] = value
            return json.dumps(case).encode()

        values = ["deleted", *SWEEP_VALUES[:10]]
        cases = [((section, key, value), mutated(section, key, value))
                 for section, keys in ((None, header), ("spec", header["spec"]))
                 for key in keys for value in values]
        cases += [(("spec", "extra", 1), mutated("spec", "extra", 1)),
                  ("not JSON", b"{"), ("no header array", None)]
        assert len(cases) == 146
        loaded, bad = [], []
        for label, raw in cases:
            extra = {} if raw is None else {"header": np.frombuffer(raw, dtype=np.uint8)}
            with open(ckpt, "wb") as fh:
                np.savez(fh, **arrays, **extra)
            code, err = run_caught(["infer", "--manifest", str(path), "--prompts", str(prompts),
                                    "--max-tokens", "4"], capsys)
            if code == 0:
                loaded.append(label)
            elif not (code == 1 and err.startswith(f"manifest {path} does not load: checkpoint {ckpt}: ")
                      and err.count("\n") == 1):
                bad.append((label, code, err))
        assert bad == []
        # every "adapters" mutation is refused, and seed 0 is a valid seed
        assert loaded == [("spec", "seed", 0)]


class TestInfer:
    def test_sequential_and_pipelined_agree(self, trained_run, capsys):
        manifest, prompts = trained_run
        _, out_s, _ = run_cli(
            ["infer", "--manifest", str(manifest), "--prompts", str(prompts),
             "--mode", "sequential", "--max-tokens", "5"],
            capsys,
        )
        _, out_p, _ = run_cli(
            ["infer", "--manifest", str(manifest), "--prompts", str(prompts),
             "--mode", "pipelined", "--max-tokens", "5"],
            capsys,
        )
        toks_s = [l for l in out_s.splitlines() if not l.split()[0].endswith("_s")]
        toks_p = [l for l in out_p.splitlines() if not l.split()[0].endswith("_s")]
        assert toks_s == toks_p

    def test_timing_block_present(self, trained_run, capsys):
        manifest, prompts = trained_run
        _, out, _ = run_cli(
            ["infer", "--manifest", str(manifest), "--prompts", str(prompts),
             "--mode", "pipelined", "--max-tokens", "4"],
            capsys,
        )
        for field in ("end_to_end_s", "per_token_latency_s", "state_passing_s"):
            assert field in out
        assert "blocked_s" not in out  # always 0, so not printed

    def test_sequential_timing_block(self, trained_run, capsys):
        manifest, prompts = trained_run
        _, out, _ = run_cli(
            ["infer", "--manifest", str(manifest), "--prompts", str(prompts), "--max-tokens", "4"],
            capsys,
        )
        lines = out.splitlines()
        # two prompts: tokens + the two timing lines a sequential decode measures
        assert len(lines) == 6
        for first in (0, 3):
            assert [l.split()[0] for l in lines[first + 1 : first + 3]] == [
                "end_to_end_s", "per_token_latency_s"
            ]

    def test_unstackable_chain_prints_only_what_it_measures(self, trained_run, tmp_path, capsys):
        # a successor with another d_ff cannot be stacked: pipelined falls back
        # to the sequential decode, which measures no blocking or stacking time
        manifest, prompts = trained_run
        doc = json.loads(manifest.read_text())
        base, succ = (TransformerModel.load(manifest.parent / c) for c in doc["checkpoints"])
        narrow = TransformerModel(dataclasses.replace(succ.spec, d_ff=24))
        narrow.save(tmp_path / "narrow.npz")
        doc["checkpoints"] = [str(manifest.parent / doc["checkpoints"][0]), "narrow.npz"]
        del doc["checkpoint_sha256"]  # a hand-built chain, which records no digests
        (tmp_path / "manifest.json").write_text(json.dumps(doc))
        _, out, _ = run_cli(
            ["infer", "--manifest", str(tmp_path / "manifest.json"), "--prompts", str(prompts),
             "--mode", "pipelined", "--max-tokens", "4"],
            capsys,
        )
        lines = out.splitlines()
        assert len(lines) == 6
        for first in (0, 3):
            assert [l.split()[0] for l in lines[first + 1 : first + 3]] == [
                "end_to_end_s", "per_token_latency_s"
            ]

    @pytest.mark.parametrize(
        "command, line, message",
        [
            pytest.param(c, None, "exceeds max_steps 10", id=c) for c in ("infer", "bench")
        ] + [
            pytest.param(c, line, message, id=f"{c}-{case}")
            for c in ("infer", "bench")
            for case, line, message in (
                ("id_out_of_range", "1 99", "token id 99 out of range for vocab 12"),
                ("not_an_integer", "1 a", "line 1: prompt tokens must be integers: '1 a'"),
            )
        ],
    )
    def test_prompt_beyond_max_steps_exits_2(self, trained_run, tmp_path, command, line, message, capsys):
        manifest, prompts = trained_run  # max_steps 10; "1 2 3" + 16 tokens does not fit
        if line is not None:  # a prompt that is unusable whatever its length
            prompts = tmp_path / "bad.txt"
            prompts.write_text(line + "\n")
        code, out, err = run_cli(
            [command, "--manifest", str(manifest), "--prompts", str(prompts)], capsys
        )
        assert code == 2
        assert message in err and out == ""

    @pytest.mark.parametrize("missing", ["manifest", "prompts"])
    @pytest.mark.parametrize("command", ["infer", "bench"])
    def test_missing_input_file_exits_2(self, trained_run, tmp_path, command, missing, capsys):
        paths = dict(zip(("manifest", "prompts"), trained_run))
        paths[missing] = tmp_path / "absent.txt"
        code, out, err = run_cli(
            [command, "--manifest", str(paths["manifest"]), "--prompts", str(paths["prompts"])],
            capsys,
        )
        assert code == 2 and out == ""
        assert err == f"--{missing} file not found: {paths[missing]}\n"

    @pytest.mark.parametrize("max_tokens", ["0", "-1"])
    @pytest.mark.parametrize("command", ["infer", "bench"])
    def test_max_tokens_below_one_exits_2(self, trained_run, command, max_tokens, capsys):
        manifest, prompts = trained_run
        code, out, err = run_cli(
            [command, "--manifest", str(manifest), "--prompts", str(prompts),
             "--max-tokens", max_tokens],
            capsys,
        )
        assert code == 2 and out == ""
        assert err == f"max_tokens must be >= 1, got {max_tokens}\n"

    @pytest.mark.parametrize("command", ["infer", "bench"])
    def test_manifest_naming_a_missing_checkpoint_exits_1(self, trained_run, tmp_path,
                                                          command, capsys):
        manifest, prompts = trained_run
        doc = json.loads(manifest.read_text())
        doc["checkpoints"] = [str(manifest.parent / c) for c in doc["checkpoints"]]
        doc["checkpoints"][1] = str(tmp_path / "gone.npz")
        bad = tmp_path / "manifest.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run_cli(
            [command, "--manifest", str(bad), "--prompts", str(prompts)], capsys
        )
        assert code == 1 and out == ""
        assert err == (f"manifest {bad} does not load: cannot read {tmp_path / 'gone.npz'}: "
                       "No such file or directory\n")

    @pytest.mark.parametrize("command", ["infer", "bench"])
    def test_manifest_not_json_exits_1(self, trained_run, tmp_path, command, capsys):
        _, prompts = trained_run
        bad = tmp_path / "manifest.json"
        bad.write_text('{"checkpoints": [\n')
        code, out, err = run_cli(
            [command, "--manifest", str(bad), "--prompts", str(prompts)], capsys
        )
        assert code == 1 and out == ""
        assert err.startswith(f"manifest {bad} does not load: not valid JSON: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("doc,problem", [
        ([], "a manifest must be a JSON object, got list"),
        ({"format_version": 1}, "manifest key 'checkpoints' is missing"),
        ({"format_version": 1, "checkpoints": [], "top_k": 2}, "manifest key 'lambdas' is missing"),
    ], ids=["list", "no-checkpoints", "no-lambdas"])
    @pytest.mark.parametrize("command", ["infer", "bench"])
    def test_manifest_not_a_full_object_exits_1(self, trained_run, tmp_path, command, doc,
                                                 problem, capsys):
        _, prompts = trained_run
        bad = tmp_path / "manifest.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run_cli(
            [command, "--manifest", str(bad), "--prompts", str(prompts)], capsys
        )
        assert code == 1 and out == ""
        assert err == f"manifest {bad} does not load: {problem}\n"

    @pytest.mark.parametrize("key, value, problem", [
        ("lambdas", 0.3, "need a list of 1 lambdas (one per successor), got 0.3"),
        ("top_k", None, "top_k must be an integer in [1, 12], got None"),
        ("top_k", [2], "top_k must be an integer in [1, 12], got [2]"),
        ("checkpoints", 5, "manifest key 'checkpoints' must be a list of file names, got 5"),
    ], ids=["lambdas_number", "top_k_null", "top_k_list", "checkpoints_number"])
    @pytest.mark.parametrize("command", ["infer", "bench"])
    def test_manifest_value_of_wrong_type_exits_1(self, trained_run, tmp_path, command, key,
                                                   value, problem, capsys):
        manifest, prompts = trained_run
        doc = json.loads(manifest.read_text())
        doc["checkpoints"] = [str(manifest.parent / c) for c in doc["checkpoints"]]
        bad = tmp_path / "manifest.json"
        bad.write_text(json.dumps({**doc, key: value}))
        code, out, err = run_cli(
            [command, "--manifest", str(bad), "--prompts", str(prompts)], capsys
        )
        assert code == 1 and out == ""
        assert err == f"manifest {bad} does not load: {problem}\n"

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_manifest_lambda_not_finite_exits_1(self, trained_run, tmp_path, lam, capsys):
        manifest, prompts = trained_run
        doc = json.loads(manifest.read_text())
        doc["checkpoints"] = [str(manifest.parent / c) for c in doc["checkpoints"]]
        bad = tmp_path / "manifest.json"
        bad.write_text(json.dumps({**doc, "lambdas": [lam]}))  # json writes NaN / Infinity
        code, out, err = run_cli(["infer", "--manifest", str(bad), "--prompts", str(prompts)], capsys)
        assert code == 1 and out == ""
        assert err == f"manifest {bad} does not load: lambdas[0] must be a finite positive number, got {lam}\n"

    def test_checkpoint_from_another_run_exits_1(self, tmp_path, capsys):
        # seed 2's successor was trained against another base: its parameters
        # are not the ones seed 1's manifest recorded
        out = train_tiny(tmp_path, [1, 2])
        capsys.readouterr()
        (out / "seed1" / "model1.npz").write_bytes((out / "seed2" / "model1.npz").read_bytes())
        (tmp_path / "prompts.txt").write_text("1 2 3\n")
        manifest = out / "seed1" / "manifest.json"
        code, stdout, err = run_cli(["infer", "--manifest", str(manifest),
                                     "--prompts", str(tmp_path / "prompts.txt")], capsys)
        assert code == 1 and stdout == ""
        assert err.startswith(f"manifest {manifest} does not load: "
                              f"checkpoint {out / 'seed1' / 'model1.npz'}: parameter sha256 ")
        assert err.count("\n") == 1

    def test_manifest_without_digests_loads(self, trained_run, tmp_path, capsys):
        manifest, prompts = trained_run
        doc = json.loads(manifest.read_text())
        doc["checkpoints"] = [str(manifest.parent / c) for c in doc["checkpoints"]]
        del doc["checkpoint_sha256"]
        old = tmp_path / "manifest.json"
        old.write_text(json.dumps(doc))
        runs = [run_cli(["infer", "--manifest", str(m), "--prompts", str(prompts),
                         "--max-tokens", "4"], capsys) for m in (manifest, old)]
        assert [code for code, _, _ in runs] == [0, 0]
        tokens = [[l for l in out.splitlines() if not l.split()[0].endswith("_s")] for _, out, _ in runs]
        assert tokens[0] == tokens[1] and tokens[0]

    def test_empty_prompt_file(self, trained_run, tmp_path, capsys):
        manifest, _ = trained_run
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        code, _, _ = run_cli(
            ["infer", "--manifest", str(manifest), "--prompts", str(empty)], capsys
        )
        assert code == 0


class TestBench:
    def test_reports_both_modes_and_csv(self, trained_run, tmp_path, capsys):
        manifest, prompts = trained_run
        csv_path = tmp_path / "bench.csv"
        code, out, _ = run_cli(
            ["bench", "--manifest", str(manifest), "--prompts", str(prompts),
             "--reps", "3", "--max-tokens", "4", "--csv", str(csv_path)],
            capsys,
        )
        assert code == 0
        assert "sequential" in out and "pipelined" in out and "speedup" in out
        assert csv_path.exists()


class TestSched:
    def test_table_and_exact_cell(self, capsys):
        code, out, _ = run_cli(["sched", "k=2..2", "l=4..4", "g=1..2"], capsys)
        assert code == 0
        assert "1.6000" in out  # k=2, l=4, g=2
        assert "1.0000" in out  # g=1 row: no pipelining, no speedup

    def test_malformed_range_exits_2(self, capsys):
        code, _, err = run_cli(["sched", "k=banana"], capsys)
        assert code == 2

    @pytest.mark.parametrize("item", ["k=0..2", "k=3..1", "l=0", "g=-1..2"])
    def test_range_outside_one_to_hi_exits_2(self, item, capsys):
        code, out, err = run_cli(["sched", item], capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"malformed range {item!r}: bounds must satisfy 1 <= lo <= hi")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("flag,value,rule", [("--c", "0", "positive"),
                                                 ("--c", "-2", "positive"),
                                                 ("--delta", "-1", "nonnegative")])
    def test_bad_cost_flag_exits_2(self, flag, value, rule, capsys):
        code, out, err = run_cli(["sched", "k=1..2", flag, value], capsys)
        assert code == 2 and out == ""
        assert err == f"{flag} must be {rule}, got {value}\n"

    @pytest.mark.parametrize("argv", [["sched", "--seed", "5"], ["sched", "--out", "x"],
                                      ["verify", "--out", "x"]],
                             ids=["sched-seed", "sched-out", "verify-out"])
    def test_flag_the_command_does_not_read_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestVerify:
    def test_sched_suite_passes(self, capsys):
        code, out, _ = run_cli(["verify", "--selector", "sched"], capsys)
        assert code == 0
        assert "PASS" in out

    def test_mse_suite_passes(self, capsys):
        code, out, _ = run_cli(["verify", "--selector", "mse"], capsys)
        assert code == 0
        assert "PASS" in out
