"""End-to-end tests for the command-line interface."""

import json
from pathlib import Path

import numpy as np
import pytest

from chainboost import cli
from chainboost.ensemble import load_manifest
from chainboost.tasks import load_dataset
from chainboost.training import TrainConfig


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """One tiny trained chain shared by infer/bench tests."""
    root = tmp_path_factory.mktemp("run")
    cfg = {
        "task": {"kind": "copy", "vocab": 12, "length": 3, "n_samples": 24, "seed": 1},
        "model": {
            "n_layers": 2, "d_model": 16, "n_heads": 2, "d_ff": 32,
            "vocab": 12, "max_steps": 10, "fusion_period": 2, "adapter_rank": 4,
        },
        "n_successors": 1,
        "train": {"learning_rate": 0.05, "epochs": 2, "batch_size": 8, "stage2_epochs": 2},
        "seeds": [1],
        "holdout_fraction": 0.25,
    }
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = cli.main(["train", "--config", str(cfg_path), "--out", str(root / "out")])
    assert code == 0
    prompts = root / "prompts.txt"
    prompts.write_text("1 2 3\n4 5\n")
    return root / "out" / "seed1" / "manifest.json", prompts


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
        from chainboost.tasks import TaskSpec, derive_gold, load_dataset

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
    ])
    def test_bad_task_exits_2(self, tmp_path, flag, value, message, capsys):
        out_path = tmp_path / "ds.jsonl"
        code, out, err = run_cli(
            ["gen", "--kind", "modsum", flag, value, "--out", str(out_path)], capsys
        )
        assert code == 2 and out == "" and not out_path.exists()
        assert err.startswith(f"bad task: {message}") and err.count("\n") == 1


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


class TestTrainConfig:
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
        (lambda d, tmp: d.update(lambdas=[0.3, 0.3]), "need 1 lambdas (one per successor), got 2"),
        (lambda d, tmp: d.update(seeds=[]), "seeds must be a nonempty list of integers, got []"),
        (lambda d, tmp: d.update(seeds=[1, "2"]), "seeds must be a nonempty list of integers"),
        (lambda d, tmp: d.update(seeds=3), "seeds must be a nonempty list of integers, got 3"),
        (lambda d, tmp: d.update(model=5), "the 'model' section must be an object, got 5"),
        (lambda d, tmp: d.update(task="modsum"), "the 'task' section must be an object"),
        (lambda d, tmp: d.update(train=[1]), "the 'train' section must be an object"),
        (lambda d, tmp: d.update(holdout_fraction=1.5), "holdout_fraction must be a number in (0, 1), got 1.5"),
        (lambda d, tmp: d.update(holdout_fraction=0), "holdout_fraction must be a number in (0, 1), got 0"),
        (lambda d, tmp: d.update(holdout_fraction=0.999), "holdout_fraction 0.999 leaves no training sample of 240"),
    ], ids=["task_kind", "no_data", "missing_dataset", "model_heads", "lambdas", "seeds_empty",
            "seeds_not_ints", "seeds_not_a_list", "model_not_object", "task_not_object",
            "train_not_object", "holdout_above_1", "holdout_0", "holdout_leaves_no_sample"])
    def test_bad_config_exits_2(self, tmp_path, edit, message, capsys):
        doc = json.loads((Path(__file__).resolve().parents[1] / "examples_config.json").read_text())
        edit(doc, tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code, out, err = run_cli(["train", "--config", str(cfg), "--out", str(tmp_path / "out")], capsys)
        assert code == 2 and out == ""
        assert err.startswith("bad config: ") and message in err
        assert not (tmp_path / "out").exists()

    def test_readme_config_is_the_example_file(self):
        root = Path(__file__).resolve().parents[1]
        readme = (root / "README.md").read_text()
        block = readme.split("```json\n", 1)[1].split("```", 1)[0]
        example = json.loads((root / "examples_config.json").read_text())
        assert json.loads(block) == example
        TrainConfig(**example["train"])


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
        for field in ("end_to_end_s", "per_token_latency_s", "blocked_s", "state_passing_s"):
            assert field in out

    def test_sequential_timing_block(self, trained_run, capsys):
        manifest, prompts = trained_run
        _, out, _ = run_cli(
            ["infer", "--manifest", str(manifest), "--prompts", str(prompts), "--max-tokens", "4"],
            capsys,
        )
        lines = out.splitlines()
        assert len(lines) == 10  # two prompts: tokens + four timing lines each
        assert [l.split()[0] for l in lines[1:5]] == [
            "end_to_end_s", "per_token_latency_s", "blocked_s", "state_passing_s"
        ]
        assert lines[3] == "blocked_s           0.000000"
        assert lines[4] == "state_passing_s     0.000000"

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
