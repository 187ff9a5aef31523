import dataclasses
import gc
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import RawDocument, make_small_raw_docs, make_toy_raw_docs, write_corpus_files
from oracles import batch_histograms, nll
from sca import cli, coherence, corpus, embedding, lm, report, trainer

TRAIN_ARGS = ["--dim", "6", "--epochs", "4", "--batch", "8", "--seed", "11"]


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    manifest = write_corpus_files(make_small_raw_docs(), root)
    return manifest


def _train(manifest, out, extra=()):
    return cli.main(
        ["train", "--corpus", str(manifest), "--out", str(out), *TRAIN_ARGS, *extra]
    )


def _read(name):
    return lambda out: (out / name).read_bytes()


def _epochs_run(out):
    return json.loads((out / "reports" / "summary.json").read_text())["epochs_run"]


def _checkpoints(out):
    return sorted(p.name for p in out.glob("checkpoints/*"))


def _files(out):
    return sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())


def _same_run(a, b):
    """Two runs of one config: the same file names, each file byte-identical but timing.json,
    the one file that holds clock readings, and manifests equal once config.out and eval's
    model paths (copies of one model may sit in two run directories) are removed."""
    assert _files(a) == _files(b)
    differ = {name for name in _files(a) if (a / name).read_bytes() != (b / name).read_bytes()}
    assert differ <= {"timing.json", "manifest.json"}
    manifests = [json.loads((run / "manifest.json").read_text()) for run in (a, b)]
    for manifest in manifests:
        for key in ("out", "model", "before", "after"):
            manifest["config"].pop(key, None)
    assert manifests[0] == manifests[1]


DEFAULT = ((), {})
# (base run, run with one knob moved, documented output, whether it changes); a run is
# (flags after TRAIN_ARGS, config file). This corpus' fields have spectral norms of about
# 0.004 to 0.01: rho 1 never binds (alg1 then divides by exactly 1), rho 0.001 always does.
# The stopping rule needs 2 * window epochs; tol 1 then always stops, tol null never does.
KNOB_CASES = [
    pytest.param(DEFAULT, (("--dim", "4"), {}), _read("model.json"), True, id="dim"),
    pytest.param(DEFAULT, (("--kernel", "cosine"), {}), _read("model.json"), True, id="kernel"),
    pytest.param(DEFAULT, (("--bandwidth", "0.7"), {}), _read("model.json"), True, id="bandwidth"),
    # dot and cosine take no bandwidth: the flag is recorded in the manifest and changes nothing
    *(
        pytest.param((("--kernel", family), {}), (("--kernel", family, "--bandwidth", "0.5"), {}),
                     _read("model.json"), False, id=f"bandwidth_{family}")
        for family in ("cosine", "dot")
    ),
    *(
        pytest.param(DEFAULT, (("--rho", rho, "--spectral-mode", mode), {}),
                     _read("model.json"), rho != "1", id=f"rho_{rho}_{mode}")
        for mode in ("clip", "alg1")
        for rho in ("1", "0.001")
    ),
    pytest.param((("--rho", "0.001"), {}), (("--rho", "0.001", "--spectral-mode", "alg1"), {}),
                 _read("model.json"), True, id="spectral_mode"),
    # lambda 0 skips the coherence term, so nothing reads the bound
    pytest.param((("--lambda", "0"), {}),
                 (("--lambda", "0", "--rho", "0.001", "--spectral-mode", "alg1"), {}),
                 _read("model.json"), False, id="rho_lambda_zero"),
    pytest.param(DEFAULT, (("--lr", "0.1"), {}), _read("model.json"), True, id="lr"),
    pytest.param(DEFAULT, (("--batch", "16"), {}), _read("model.json"), True, id="batch"),
    pytest.param(DEFAULT, (("--epochs", "3"), {}), _epochs_run, True, id="epochs"),
    pytest.param(DEFAULT, (("--lambda", "0.5"), {}), _read("model.json"), True, id="lambda"),
    pytest.param(DEFAULT, (("--seed", "3"), {}), _read("model.json"), True, id="seed"),
    pytest.param(DEFAULT, (("--checkpoint-every", "2"), {}), _checkpoints, True,
                 id="checkpoint_every"),
    pytest.param(DEFAULT, ((), {"min_count": 60}), _read("vocab.json"), True, id="min_count"),
    pytest.param(DEFAULT, ((), {"ratios": [0.6, 0.2, 0.2]}), _read("model.json"), True,
                 id="ratios"),
    pytest.param(DEFAULT, ((), {"sigma_init": 0.05}), _read("initial_model.json"), True,
                 id="sigma_init"),
    pytest.param((("--epochs", "6"), {"tol": 1.0}), (("--epochs", "6"), {"tol": 1.0, "window": 2}),
                 _epochs_run, True, id="window"),
    pytest.param((("--epochs", "6"), {"tol": 1.0, "window": 2}),
                 (("--epochs", "6"), {"tol": None, "window": 2}), _epochs_run, True, id="tol"),
]


@pytest.fixture(scope="module")
def train_run(corpus_dir, tmp_path_factory):
    """Train once per (flags, config) and return the output directory."""
    runs = {}

    def run(flags, config):
        key = json.dumps([flags, config])
        if key not in runs:
            root = tmp_path_factory.mktemp("knob")
            extra = list(flags)
            if config:
                (root / "config.json").write_text(json.dumps(config))
                extra += ["--config", str(root / "config.json")]
            assert _train(corpus_dir, root / "out", extra) == 0
            runs[key] = root / "out"
        return runs[key]

    return run


class TestTrain:
    def test_writes_expected_artifacts(self, corpus_dir, tmp_path):
        out = tmp_path / "run1"
        assert _train(corpus_dir, out) == 0
        for name in (
            "model.json",
            "initial_model.json",
            "loss_curve.csv",
            "timing.json",
            "manifest.json",
            "vocab.json",
        ):
            assert (out / name).is_file()
        for name in (
            "coherence_hist.csv",
            "rare_words.csv",
            "pca.csv",
            "summary.json",
        ):
            assert (out / "reports" / name).is_file()
        assert not (out / "reports" / "loss_curve.csv").exists()
        rows = (out / "loss_curve.csv").read_text().splitlines()
        assert rows[0] == "epoch,loss,coherence,lr"
        assert len(rows) == 1 + 4
        assert len(json.loads((out / "timing.json").read_text())["epoch_seconds"]) == 4

    @pytest.mark.parametrize("flags", [(), ("--lambda", "0.5")], ids=["sca", "joint"])
    def test_rerun_gives_identical_directory(self, corpus_dir, tmp_path, flags):
        runs, evals = [tmp_path / "a", tmp_path / "b"], [tmp_path / "eval_a", tmp_path / "eval_b"]
        for run, ev in zip(runs, evals):
            assert _train(corpus_dir, run, [*flags, "--checkpoint-every", "2"]) == 0
            assert cli.main(["eval", "--config", str(run / "manifest.json"), "--before",
                             str(run / "initial_model.json"), "--after", str(run / "model.json"),
                             "--out", str(ev)]) == 0
        assert _checkpoints(runs[0]) == ["epoch_0002.json", "epoch_0004.json"]
        _same_run(*runs)
        _same_run(*evals)

    @pytest.mark.parametrize("base, moved, read, acts", KNOB_CASES)
    def test_knob_acts(self, train_run, base, moved, read, acts):
        assert (read(train_run(*base)) != read(train_run(*moved))) == acts

    def test_every_train_knob_has_a_case(self):
        # a new train knob declares where it acts, or that it is inert, by a KNOB_CASES row
        # whose id is its name or starts with its name and "_"; corpus and out are the run's input
        # and output, not settings
        ids = [case.id for case in KNOB_CASES]
        missing = [k.name for k in cli.KNOBS if "train" in k.commands
                   and k.name not in ("corpus", "out")
                   and not any(i == k.name or i.startswith(k.name + "_") for i in ids)]
        assert missing == []

    def test_config_is_built_by_name(self, corpus_dir, tmp_path, monkeypatch):
        # every TrainConfig field but lam is the train knob of its name, so a new field must be a
        # knob, and the trainer receives each knob's value as the config file set it
        names = [f.name for f in dataclasses.fields(trainer.TrainConfig) if f.name != "lam"]
        assert set(names) <= {k.name for k in cli.KNOBS if "train" in k.commands}
        values = {"lr": 0.3, "batch": 16, "rho": 0.5, "epochs": 2, "window": 3, "tol": 0.25,
                  "seed": 5, "spectral_mode": "alg1", "lambda": 0.25}
        assert sorted(values) == sorted([*names, "lambda"])
        assert [n for n in names if values[n] == getattr(trainer.TrainConfig, n)] == []
        configs = []

        def observed(train):
            def run(model, documents, spec, config, **kwargs):
                configs.append(config)
                return train(model, documents, spec, config, **kwargs)

            return run

        monkeypatch.setattr(trainer, "train_sca", observed(trainer.train_sca))
        monkeypatch.setattr(lm, "train_joint", observed(lm.train_joint))
        (tmp_path / "config.json").write_text(json.dumps({**values, "dim": 6}))
        assert cli.main(["train", "--corpus", str(corpus_dir), "--out", str(tmp_path / "out"),
                         "--config", str(tmp_path / "config.json")]) == 0
        (config,) = configs
        values["lam"] = values.pop("lambda")
        assert dataclasses.asdict(config) == values

    @pytest.mark.parametrize("flags", [(), ("--lambda", "0.5")], ids=["sca", "joint"])
    def test_initial_model_is_the_seeded_init(self, corpus_dir, train_run, flags):
        vocab, _ = corpus.read_manifest(corpus_dir)
        table, names, bias = embedding.load_model(train_run(flags, {}) / "initial_model.json")
        assert names == vocab.id_to_token and bias is None
        assert table.tobytes() == embedding.init_embeddings(len(vocab), 6, 11, 0.1).tobytes()

    # a value set by a flag is named by the flag (--lr), a config file value by the file and its
    # key (config <file>: lr), so a message names a flag exactly when a flag set the value
    @pytest.mark.parametrize("flags, config, code, named", [
        (["--lr", "nan"], None, 2, "--lr"),
        (["--rho", "inf"], None, 2, "--rho"),
        (["--lambda", "nan"], None, 2, "--lambda"),
        (["--bandwidth", "nan"], None, 1, "--bandwidth"),
        (["--bandwidth", "inf"], None, 1, "--bandwidth"),
        (["--checkpoint-every", "-1"], None, 1, "--checkpoint-every"),
        (["--kernel", "cosine", "--bandwidth", "wide"], None, 1, "--bandwidth"),
        ([], {"sigma_init": float("nan")}, 1, "config.json: sigma_init"),
        ([], {"tol": float("nan")}, 1, "config.json: tol"),
        ([], {"tol": "abc"}, 1, "config.json: tol"),
        ([], {"epochs": 2.9}, 1, "config.json: epochs"),
        ([], {"tolerance": None, "windw": 3}, 1, "'tolerance'"),
        ([], {"threads": 2}, 1, "'threads'"),
        ([], [{"tol": None}], 1, "JSON object"),
        # in range for the parser, out of range for the run: each names its knob as it is set
        (["--lr", "-1"], None, 1, "--lr"),
        (["--rho", "0"], None, 1, "--rho"),
        (["--batch", "0"], None, 1, "--batch"),
        (["--epochs", "0"], None, 1, "--epochs"),
        (["--lambda", "-1"], None, 1, "--lambda"),
        (["--seed", "-1"], None, 1, "--seed"),
        (["--dim", "1"], None, 1, "--dim"),
        (["--kernel", "gauss"], None, 1, "--kernel"),
        (["--spectral-mode", "none"], None, 1, "--spectral-mode"),
        (["--bandwidth", "0"], None, 1, "--bandwidth"),
        ([], {"lr": -1}, 1, "config.json: lr"),
        ([], {"rho": 0}, 1, "config.json: rho"),
        ([], {"kernel": "gauss"}, 1, "config.json: kernel"),
        ([], {"dim": 1}, 1, "config.json: dim"),
        ([], {"sigma_init": 0}, 1, "config.json: sigma_init"),
        ([], {"window": 0}, 1, "config.json: window"),
        ([], {"min_count": 0}, 1, "config.json: min_count"),
        ([], {"ratios": [0.5, 0.5, 0.5]}, 1, "config.json: ratios"),
        ([], {"ratios": [1.0]}, 1, "config.json: ratios"),
        ([], {"ratios": [0, 0, 0]}, 1, "config.json: ratios"),
        ([], {"ratios": [1.2, -0.1, -0.1]}, 1, "config.json: ratios"),  # sums to 1
        ([], {"tol": -1}, 1, "config.json: tol"),
        # checked before the corpus is read, so a missing manifest is not what is reported
        (["--corpus", "no-such.manifest", "--lr", "-1"], None, 1, "--lr"),
        (["eval", "--batch", "0"], None, 1, "--batch"),
        (["eval", "--seed", "-1"], None, 1, "--seed"),
        (["eval", "--kernel", "gauss"], None, 1, "--kernel"),
        (["eval", "--bandwidth", "0"], None, 1, "--bandwidth"),
        (["eval"], {"min_count": 0}, 1, "config.json: min_count"),
        (["eval"], {"ratios": [1.2, -0.1, -0.1]}, 1, "config.json: ratios"),
    ], ids=["lr_nan", "rho_inf", "lambda_nan", "bandwidth_nan", "bandwidth_inf",
            "checkpoint_every_negative", "cosine_bandwidth_text", "sigma_init_nan", "tol_nan",
            "tol_text", "epochs_2.9", "unknown_key", "retired_threads_key", "not_an_object",
            "lr_negative", "rho_zero", "batch_zero", "epochs_zero", "lambda_negative",
            "seed_negative", "dim_one", "kernel_unknown", "spectral_mode_unknown", "bandwidth_zero",
            "config_lr_negative", "config_rho_zero", "config_kernel_unknown", "config_dim_one",
            "sigma_init_zero", "window_zero", "min_count_zero", "ratios_sum", "ratios_one",
            "ratios_zero", "ratios_negative", "tol_negative", "lr_negative_missing_corpus",
            "eval_batch_zero", "eval_seed_negative", "eval_kernel_unknown", "eval_bandwidth_zero",
            "eval_min_count_zero", "eval_ratios_negative"])
    def test_bad_value_exits_before_out(self, corpus_dir, fresh_model, tmp_path, capsys, flags,
                                        config, code, named):
        command, flags = (flags[0], flags[1:]) if flags[:1] == ["eval"] else ("train", flags)
        if config is not None:
            (tmp_path / "config.json").write_text(json.dumps(config))
            flags = [*flags, "--config", str(tmp_path / "config.json")]
        model = ["--model", str(fresh_model[0])] if command == "eval" else []
        out = tmp_path / "out"
        try:  # flags come last, so a row's --corpus replaces the corpus every other row reads
            got = cli.main([command, "--corpus", str(corpus_dir), *model, "--out", str(out),
                            *flags])
        except SystemExit as exc:
            got = exc.code
        assert got == code
        err = capsys.readouterr().err
        assert named in err
        assert ("--" in err) == named.startswith("--")
        assert not out.exists()

    def test_missing_manifest_exits_one_with_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.manifest"
        code = cli.main(["train", "--corpus", str(missing), "--out", str(tmp_path / "o")])
        assert code == 1
        assert str(missing) in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("flags, keys", [
        (["corpus"], []), (["out"], []), ([], ["corpus"]), ([], ["out"]), ([], []),
    ], ids=["corpus_flag_only", "out_flag_only", "corpus_config_only", "out_config_only",
            "neither"])
    def test_missing_corpus_or_out_exits_one_and_creates_nothing(
        self, corpus_dir, fresh_model, tmp_path, monkeypatch, capsys, command, flags, keys
    ):
        # flags and keys name the paths given on the command line and in a config file
        paths = {"corpus": str(corpus_dir), "out": str(tmp_path / "out")}
        args = [command, *(a for key in flags for a in (f"--{key}", paths[key]))]
        if keys:
            (tmp_path / "config.json").write_text(json.dumps({k: paths[k] for k in keys}))
            args += ["--config", str(tmp_path / "config.json")]
        if command == "eval":
            args += ["--model", str(fresh_model[0])]
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        assert cli.main(args) == 1
        assert f"{command} requires --corpus and --out" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    def test_too_large_batch_exits_one_before_out(self, corpus_dir, tmp_path, capsys):
        # the small corpus' train part holds 640 tokens and 624 pairs
        out = tmp_path / "big"
        for extra in ([], ["--lambda", "0.5"]):
            code = cli.main(
                ["train", "--corpus", str(corpus_dir), "--out", str(out), "--batch", "1000", *extra]
            )
            assert code == 1
            assert not out.exists()
            assert "exceeds total count" in capsys.readouterr().err

    def test_manifest_freezes_resolved_config(self, corpus_dir, tmp_path):
        out = tmp_path / "frozen"
        assert _train(corpus_dir, out) == 0
        payload = json.loads((out / "manifest.json").read_text())
        assert payload["command"] == "train"
        assert payload["config"]["dim"] == 6
        assert payload["config"]["seed"] == 11
        assert payload["config"]["bandwidth_resolved"] > 0

    def test_rerun_from_manifest_reproduces_model(self, corpus_dir, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        assert _train(corpus_dir, first) == 0
        code = cli.main(["train", "--config", str(first / "manifest.json"),
                         "--corpus", str(corpus_dir), "--out", str(second)])
        assert code == 0
        _same_run(first, second)

    def test_flags_override_config_file(self, corpus_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dim": 4, "epochs": 2}))
        out = tmp_path / "ov"
        code = cli.main(
            [
                "train",
                "--corpus",
                str(corpus_dir),
                "--config",
                str(cfg),
                "--dim",
                "6",
                "--epochs",
                "3",
                "--batch",
                "8",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads((out / "manifest.json").read_text())
        assert payload["config"]["dim"] == 6
        assert payload["config"]["epochs"] == 3

    def test_checkpoints_written(self, corpus_dir, tmp_path):
        out = tmp_path / "ck"
        assert _train(corpus_dir, out, extra=["--checkpoint-every", "2"]) == 0
        assert (out / "checkpoints" / "epoch_0002.json").is_file()
        assert (out / "checkpoints" / "epoch_0004.json").is_file()

    def test_used_out_exits_one_and_keeps_its_files(self, corpus_dir, tmp_path, capsys):
        # each run directory holds one run: an --out that is a file or a non-empty directory
        # exits 1 before any work, and what it holds stays as it was
        run, paired, single = tmp_path / "run", tmp_path / "paired", tmp_path / "single"
        assert _train(corpus_dir, run, ["--lambda", "0.5", "--checkpoint-every", "2"]) == 0
        models = ["--before", str(run / "initial_model.json"), "--after", str(run / "model.json")]
        evaluate = ["eval", "--corpus", str(corpus_dir)]
        assert cli.main([*evaluate, *models, "--out", str(paired)]) == 0
        (tmp_path / "file").write_text("kept\n")
        before = {out: {n: (out / n).read_bytes() for n in _files(out)} for out in (run, paired)}
        for args, out in (
            (["train", "--corpus", str(corpus_dir), *TRAIN_ARGS, "--lambda", "0", "--epochs", "5"],
             run),
            ([*evaluate, "--model", str(run / "model.json")], paired),
            ([*evaluate, *models], run),
            ([*evaluate, "--model", str(run / "model.json")], tmp_path / "file"),
        ):
            assert cli.main([*args, "--out", str(out)]) == 1
            assert f"--out {out} exists and is not an empty directory" in capsys.readouterr().err
        assert before == {out: {n: (out / n).read_bytes() for n in _files(out)} for out in before}
        assert (tmp_path / "file").read_text() == "kept\n"
        for out in (single, tmp_path / "empty"):  # an empty directory made beforehand is new
            out.mkdir()
        assert cli.main([*evaluate, "--model", str(run / "model.json"), "--out", str(single)]) == 0
        assert _train(corpus_dir, tmp_path / "empty") == 0

    @pytest.mark.parametrize("flags", [(), ("--lambda", "0.5")], ids=["sca", "joint"])
    def test_failed_write_leaves_whole_files(self, corpus_dir, tmp_path, monkeypatch, capsys,
                                             flags):
        # the run's k-th file move raises, for each k: the run exits 1, every file it leaves
        # equals the one an unbroken run writes (timing.json, the clock readings, by name only),
        # none is a .tmp
        flags = [*flags, "--checkpoint-every", "1"]
        replace, moved, fail_at = os.replace, [], [0]

        def failing_replace(src, dst):
            moved.append(os.path.relpath(dst, out))
            if len(moved) == fail_at[0]:
                raise OSError("injected failure")
            replace(src, dst)

        def files(run):
            contents = {}
            for path in (p for p in run.rglob("*") if p.is_file()):
                text = path.read_text(encoding="utf-8")
                assert text.endswith("\n")
                contents[path.relative_to(run).as_posix()] = (
                    None if path.name == "timing.json" else text
                )
            return contents

        monkeypatch.setattr(os, "replace", failing_replace)
        out = tmp_path / "whole"
        assert _train(corpus_dir, out, flags) == 0
        whole, order = files(out), list(moved)
        assert sorted(order) == sorted(whole) and len(order) == 14
        for k in range(1, len(order) + 1):
            moved.clear()
            fail_at[0], out = k, tmp_path / f"fail{k}"
            assert _train(corpus_dir, out, flags) == 1
            assert "injected failure" in capsys.readouterr().err
            left = files(out)
            assert sorted(left) == sorted(order[: k - 1])
            assert left == {name: whole[name] for name in left}

    @pytest.mark.parametrize("flags", [(), ("--lambda", "0.5")], ids=["sca", "joint"])
    def test_failed_training_leaves_only_written_files(self, corpus_dir, train_run, tmp_path,
                                                       monkeypatch, capsys, flags):
        # the first file written creates --out: a run that fails at epoch 2 leaves no --out,
        # a pre-made empty one as it was, and with checkpoints only epoch 1's, whole
        whole = train_run((*flags, "--checkpoint-every", "1"), {})
        check_finite = trainer.check_finite

        def failing(loss, rows, epoch, batch):
            if epoch == 2:
                raise trainer.TrainingError(f"injected failure at epoch {epoch}")
            check_finite(loss, rows, epoch, batch)

        monkeypatch.setattr(trainer, "check_finite", failing)
        (tmp_path / "empty").mkdir()
        for out, extra in ((tmp_path / "new", ()), (tmp_path / "empty", ()),
                           (tmp_path / "ck", ("--checkpoint-every", "1"))):
            assert _train(corpus_dir, out, [*flags, *extra]) == 1
            assert "injected failure at epoch 2" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()
        assert _files(tmp_path / "empty") == []
        assert _files(tmp_path / "ck") == ["checkpoints/epoch_0001.json"]
        assert _read("checkpoints/epoch_0001.json")(tmp_path / "ck") == \
            _read("checkpoints/epoch_0001.json")(whole)

    def test_joint_training_stores_bias(self, corpus_dir, tmp_path):
        out = tmp_path / "joint"
        assert _train(corpus_dir, out, extra=["--lambda", "0.5"]) == 0
        payload = json.loads((out / "model.json").read_text())
        assert "bias" in payload and len(payload["bias"]) == len(payload["tokens"])

    def test_lambda_zero_run_writes_reports(self, corpus_dir, tmp_path):
        out = tmp_path / "baseline"
        assert _train(corpus_dir, out, extra=["--lambda", "0"]) == 0
        summary = json.loads((out / "reports" / "summary.json").read_text())
        assert summary["lambda"] == 0.0
        assert "loss_first" in summary and "perplexity_heldout" in summary
        assert json.loads((out / "manifest.json").read_text())["artifacts"]["reports"] == "reports"
        # no batch is coherence-scored at lambda 0, so there is nothing to histogram
        assert not (out / "reports" / "coherence_hist.csv").exists()

    @pytest.mark.parametrize("flags, config, epochs", [
        ((), {}, 4),
        (("--lambda", "0.5"), {}, 4),
        (("--epochs", "6"), {"tol": 1.0, "window": 2}, 4),  # stops early
        (("--epochs", "3"), {}, 3),  # fewer epochs than histogram segments
    ], ids=["embeddings", "joint", "early_stop", "three_epochs"])
    def test_histogram_counts_every_batch_of_the_run(self, corpus_dir, tmp_path, monkeypatch,
                                                     flags, config, epochs):
        # each trainer is wrapped, as benchmarks/child.py wraps it, to see every batch's score
        batch_scores = []

        def observed(train):
            def run(*args, on_batch=None, **kwargs):
                def collect(epoch, b, loss, score):
                    batch_scores.append((epoch, score))
                    if on_batch is not None:
                        on_batch(epoch, b, loss, score)

                return train(*args, on_batch=collect, **kwargs)

            return run

        monkeypatch.setattr(trainer, "train_sca", observed(trainer.train_sca))
        monkeypatch.setattr(lm, "train_joint", observed(lm.train_joint))
        (tmp_path / "config.json").write_text(json.dumps(config))
        out = tmp_path / "out"
        assert _train(corpus_dir, out, [*flags, "--config", str(tmp_path / "config.json")]) == 0
        assert _epochs_run(out) == epochs
        assert {e for e, _ in batch_scores} == set(range(1, epochs + 1))
        text = (out / "reports" / "coherence_hist.csv").read_text(encoding="utf-8")
        rows = [[label, float(lo), float(hi), int(count)]
                for label, lo, hi, count in (line.split(",") for line in text.splitlines()[1:])]
        want = batch_histograms(batch_scores, report.HISTOGRAM_EDGES, report.HISTOGRAM_SEGMENTS)
        assert rows == want

    def test_embeddings_only_summary_has_null_lambda(self, train_run):
        # as in the manifest; a --lambda 0 run, the cross-entropy baseline, records 0.0
        out = train_run(*DEFAULT)
        assert json.loads((out / "reports" / "summary.json").read_text())["lambda"] is None
        assert json.loads((out / "manifest.json").read_text())["config"]["lambda"] is None

    def test_coherence_evaluated_once(self, corpus_dir, tmp_path, monkeypatch):
        # one draw of batches per command scores every model: train's initial and trained
        # tables, and eval's before and after
        calls = []
        evaluate = coherence.evaluate_coherence

        def counted(tables, *args):
            calls.append(len(tables))
            return evaluate(tables, *args)

        monkeypatch.setattr(coherence, "evaluate_coherence", counted)
        run = tmp_path / "run"
        assert _train(corpus_dir, run) == 0
        assert calls == [2]
        models = ["--before", str(run / "initial_model.json"), "--after", str(run / "model.json")]
        out = tmp_path / "eval"
        assert cli.main(["eval", "--corpus", str(corpus_dir), *models, "--out", str(out)]) == 0
        assert calls == [2, 2]

    def test_numeric_bandwidth_flag(self, corpus_dir, tmp_path):
        out = tmp_path / "bw"
        assert _train(corpus_dir, out, extra=["--bandwidth", "0.7"]) == 0
        payload = json.loads((out / "manifest.json").read_text())
        assert payload["config"]["bandwidth"] == 0.7  # a number, as a config file would give it
        assert payload["config"]["bandwidth_resolved"] == 0.7
        bad = cli.main(
            ["train", "--corpus", str(corpus_dir), "--out", str(tmp_path / "bad"),
             "--bandwidth", "narrow", *TRAIN_ARGS]
        )
        assert bad == 1

    def test_vocabulary_under_three_entries_exits_one_before_out(self, corpus_dir, tmp_path,
                                                                 capsys):
        # one word type gives <unk> plus one token; a min_count above every count leaves <unk>
        one_type = _text_corpus(tmp_path / "one", [
            (f"{c}-{k}", c, "word word word word") for c in ("prose", "news") for k in range(10)
        ])
        (tmp_path / "config.json").write_text(json.dumps({"min_count": 1000}))
        cosine = ["--corpus", str(corpus_dir), "--config", str(tmp_path / "config.json"),
                  "--kernel", "cosine"]
        names = corpus.read_manifest(one_type)[0].id_to_token
        model = tmp_path / "model.json"
        embedding.save_model(embedding.init_embeddings(2, 4, seed=0), model, names, 0)
        paired = ["eval", "--corpus", str(one_type), "--before", str(model), "--after", str(model)]
        for args, entries in (
            (["train", "--corpus", str(one_type), *TRAIN_ARGS], 2),
            (["train", *cosine, *TRAIN_ARGS], 1),
            (paired, 2),
        ):
            out = tmp_path / "out"
            assert cli.main([*args, "--out", str(out)]) == 1
            assert not out.exists()
            assert f"vocabulary has {entries} entries" in capsys.readouterr().err
        single = ["eval", "--corpus", str(one_type), "--model", str(model)]
        assert cli.main([*single, "--out", str(tmp_path / "single")]) == 0

    def test_alternative_kernel_families(self, corpus_dir, tmp_path):
        for family in ("dot", "cosine"):
            out = tmp_path / family
            assert _train(corpus_dir, out, extra=["--kernel", family]) == 0
            assert (out / "model.json").is_file()


def _text_corpus(root, docs):
    """Manifest over (doc_id, category, text) documents, written as the README writes them."""
    raw = [RawDocument(d, c, corpus.tokenize(text)) for d, c, text in docs]
    return write_corpus_files(raw, root)


def _readme_corpus(root):
    """The README's demo corpus: ten prose and ten news documents."""
    return _text_corpus(root, [
        doc for i in range(1, 11) for doc in (
            (f"prose_{i}", "prose", f"the cat {i} sat on the mat. the dog sat too."),
            (f"news_{i}", "news",
             f"stocks rose {i} points today, analysts said. markets closed higher."),
        )
    ])


class TestReadmeExample:
    def test_runs_as_written(self, tmp_path):
        docs = []
        for i in range(1, 11):
            docs.append((f"prose_{i}", "prose", f"the cat {i} sat on the mat. the dog sat too."))
            docs.append(
                (f"news_{i}", "news",
                 f"stocks rose {i} points today, analysts said. markets closed higher.")
            )
        manifest = _text_corpus(tmp_path, docs)
        out = tmp_path / "run"
        args = ["--dim", "16", "--epochs", "150", "--seed", "7", "--out", str(out)]
        assert cli.main(["train", "--corpus", str(manifest), *args]) == 0
        assert (out / "manifest.json").is_file()
        assert (out / "reports" / "summary.json").is_file()

    def test_overflowed_perplexity_is_null_in_strict_json(self, tmp_path):
        # the trained table's logits are so large that every mean nll exceeds log(float max)
        manifest = _readme_corpus(tmp_path / "corpus")
        run, ev = tmp_path / "run", tmp_path / "eval"
        flags = ["--epochs", "2", "--rho", "0.000001", "--spectral-mode", "alg1", "--lr", "100"]

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["train", "--corpus", str(manifest), *flags, "--out", str(run)]) == 0
            model = str(run / "model.json")
            assert cli.main(["eval", "--corpus", str(manifest), "--model", model,
                             "--out", str(ev)]) == 0
        for path in [*run.rglob("*.json"), *ev.rglob("*.json")]:
            json.loads(path.read_text(encoding="utf-8"), parse_constant=refuse)
        for summary in (run / "reports" / "summary.json", ev / "summary.json"):
            payload = json.loads(summary.read_text(encoding="utf-8"))
            parts = ("train", "heldout", "validation")
            assert [payload[f"perplexity_{part}"] for part in parts] == [None] * 3

    @pytest.mark.parametrize("flags", [
        (), ("--lambda", "0.5"),
        ("--epochs", "3", "--checkpoint-every", "1"),
        ("--epochs", "3", "--checkpoint-every", "1", "--lambda", "0.5"),
        ("--epochs", "2", "--batch", "8"), ("--epochs", "2", "--batch", "8", "--lambda", "0.5"),
    ], ids=["sca", "joint", "sca_checkpoints", "joint_checkpoints", "sca_batches", "joint_batches"])
    def test_overflowing_last_update_exits_one_without_out(self, tmp_path, capsys, flags):
        # the first update leaves finite rows whose squared norm overflows. The check right after
        # that update refuses them before any checkpoint is written, so no later epoch runs and
        # no file holds the model; with several batches per epoch (--batch 8), batch 1 never
        # runs on the overflowed model, so nothing warns
        manifest = _readme_corpus(tmp_path / "corpus")
        out = tmp_path / "run"
        args = ["--dim", "16", "--seed", "7", "--epochs", "1", "--batch", "150", "--lr", "1e308"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["train", "--corpus", str(manifest), *args, *flags,
                             "--out", str(out)]) == 1
        assert "non-finite loss or model at epoch 1, batch 0\n" in capsys.readouterr().err
        assert not out.exists()

    def test_split_without_test_document_exits_one_before_out(self, tmp_path, capsys):
        # the earlier two-document example: the 0.8/0.1/0.1 split leaves the test part empty
        manifest = _text_corpus(tmp_path, [
            ("a", "prose", "the cat sat on the mat. the dog sat too."),
            ("b", "news", "stocks rose today, analysts said. markets closed higher."),
        ])
        out = tmp_path / "run"
        for command in (
            ["train"],
            ["train", "--batch", "8"],
            ["eval", "--model", str(tmp_path / "model.json")],
        ):
            assert cli.main([*command, "--corpus", str(manifest), "--out", str(out)]) == 1
            assert not out.exists()
            assert "(0.8, 0.1, 0.1) leave the test part" in capsys.readouterr().err


def _unlisted(out):
    """Files under out that the manifest lists neither by name nor under a listed directory;
    the listing must be {stem: name} over the entries of out, so every listed entry exists."""
    artifacts = json.loads((out / "manifest.json").read_text())["artifacts"]
    assert artifacts == {p.stem: p.name for p in out.iterdir() if p.name != "manifest.json"}
    listed = artifacts.values()
    return [name for name in _files(out) if name != "manifest.json"
            and not any(name == entry or name.startswith(entry + "/") for entry in listed)]


# eval's two ways to name its models, as paths inside a train run
EVAL_MODELS = [("--model", "model.json"), ("--before", "initial_model.json", "--after", "model.json")]


class TestManifest:
    # with 4 epochs, checkpoint-every 5 writes no checkpoint, so none is listed
    @pytest.mark.parametrize("flags, listed", [
        ((), False), (("--checkpoint-every", "2"), True), (("--checkpoint-every", "5"), False),
    ], ids=["plain", "checkpoints", "no_checkpoint_due"])
    def test_train_lists_every_file(self, train_run, flags, listed):
        out = train_run(flags, {})
        assert _unlisted(out) == []
        artifacts = json.loads((out / "manifest.json").read_text())["artifacts"]
        assert ("checkpoints" in artifacts) == listed

    @pytest.mark.parametrize("models", EVAL_MODELS, ids=["model", "pair"])
    def test_eval_lists_every_file(self, corpus_dir, train_run, tmp_path, models):
        run = train_run(*DEFAULT)
        flags = [str(run / arg) if arg.endswith(".json") else arg for arg in models]
        out = tmp_path / "eval"
        assert cli.main(["eval", "--corpus", str(corpus_dir), *flags, "--out", str(out)]) == 0
        assert _unlisted(out) == []


@pytest.fixture(scope="module")
def fresh_model(corpus_dir, tmp_path_factory):
    vocab, _ = corpus.read_manifest(corpus_dir)
    table = embedding.init_embeddings(len(vocab), 6, seed=0, scale=0.05)
    path = tmp_path_factory.mktemp("models") / "fresh.json"
    embedding.save_model(table, path, vocab.id_to_token, 0)
    return path, len(vocab)


class TestEval:
    def test_fresh_model_perplexity_near_vocab_size(self, corpus_dir, fresh_model, tmp_path):
        path, n = fresh_model
        out = tmp_path / "eval"
        code = cli.main(
            ["eval", "--corpus", str(corpus_dir), "--model", str(path), "--out", str(out)]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["perplexity_heldout"] == pytest.approx(n, rel=0.05)

    def test_before_equals_after_gives_zero_deltas(self, corpus_dir, fresh_model, tmp_path):
        path, _ = fresh_model
        out = tmp_path / "pair"
        code = cli.main(
            [
                "eval",
                "--corpus",
                str(corpus_dir),
                "--before",
                str(path),
                "--after",
                str(path),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["rare_word_mean_delta"] == 0.0
        assert (out / "rare_words.csv").is_file()
        assert (out / "pca.csv").is_file()

    def test_summary_contains_metric_keys(self, corpus_dir, fresh_model, tmp_path):
        path, _ = fresh_model
        out = tmp_path / "keys"
        assert (
            cli.main(
                ["eval", "--corpus", str(corpus_dir), "--model", str(path), "--out", str(out)]
            )
            == 0
        )
        summary = json.loads((out / "summary.json").read_text())
        for key in (
            "perplexity_train",
            "perplexity_heldout",
            "accuracy",
            "coherence_score",
            "seed",
        ):
            assert key in summary

    def test_vocab_mismatch_exits_one(self, corpus_dir, tmp_path, capsys):
        table = embedding.init_embeddings(4, 4, seed=0)
        path = tmp_path / "other.json"
        embedding.save_model(table, path, [str(i) for i in range(4)], 0)
        code = cli.main(
            ["eval", "--corpus", str(corpus_dir), "--model", str(path), "--out", str(tmp_path / "x")]
        )
        assert code == 1
        assert "mismatch" in capsys.readouterr().err

    def test_bad_model_or_kernel_exits_one_before_out(
        self, corpus_dir, fresh_model, tmp_path, capsys
    ):
        path, _ = fresh_model
        other = tmp_path / "other.json"
        names = [str(i) for i in range(4)]
        embedding.save_model(embedding.init_embeddings(4, 4, seed=0), other, names, 0)
        missing = str(tmp_path / "missing.json")
        no_vector = {"dim": 2, "tokens": [{"id": 0, "token": "a"}]}
        text_id = {"dim": 1, "tokens": [{"id": "0", "token": "a", "vector": [1.0]}]}
        fresh = json.loads(path.read_text())
        n, d = len(fresh["tokens"]), fresh["dim"]

        def with_vector(vector):
            tokens = [dict(r) for r in fresh["tokens"]]
            tokens[1]["vector"] = vector
            return {**fresh, "tokens": tokens}

        payloads = (
            {"dim": 2, "tokens": 5}, [1, 2], no_vector, text_id,
            {**fresh, "bias": [0.0]},  # would broadcast over the n logits
            {**fresh, "bias": "xyz"},
            {**fresh, "bias": [0.0] * (n + 1)},
            with_vector(fresh["tokens"][1]["vector"][:-1]),  # ragged
            with_vector(["0.5"] * d),
            # dim 0: every vector is empty
            {**fresh, "dim": 0, "tokens": [{**r, "vector": []} for r in fresh["tokens"]]},
        )
        malformed = [tmp_path / f"malformed{k}.json" for k in range(len(payloads))]
        for bad, payload in zip(malformed, payloads):
            bad.write_text(json.dumps(payload))
        out = tmp_path / "eval"
        for flags in (
            ["--model", missing],
            ["--model", str(other)],
            *(["--model", str(bad)] for bad in malformed),
            ["--before", str(path), "--after", missing],
            ["--model", str(path), "--bandwidth", "wide"],
            ["--model", str(path), "--batch", "0"],
            ["--before", str(path), "--after", str(path), "--batch", "100000"],
        ):
            code = cli.main(["eval", "--corpus", str(corpus_dir), *flags, "--out", str(out)])
            assert code == 1
            assert not out.exists()
            err = capsys.readouterr().err
            assert err.startswith("sca eval: error:")
            if flags[1] in map(str, malformed):
                assert flags[1] in err

    def test_dim_one_before_after_exits_one_before_out(self, corpus_dir, tmp_path, capsys):
        # load_model accepts dim 1, but pca.csv needs a second component
        vocab, _ = corpus.read_manifest(corpus_dir)
        path = tmp_path / "dim1.json"
        table = np.random.default_rng(0).normal(0.0, 0.1, size=(len(vocab), 1))
        embedding.save_model(table, path, vocab.id_to_token, 0)
        out = tmp_path / "eval"
        flags = ["--before", str(path), "--after", str(path), "--out", str(out)]
        assert cli.main(["eval", "--corpus", str(corpus_dir), *flags]) == 1
        assert "cannot extract 2 components from dimension 1" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_model_exits_one_before_out(
        self, corpus_dir, fresh_model, tmp_path, capsys
    ):
        path, _ = fresh_model
        payload = json.loads(path.read_text())
        payload["tokens"][1]["vector"][0] = float("nan")
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(payload))
        out = tmp_path / "eval"
        flags = ["--before", str(path), "--after", str(broken), "--out", str(out)]
        assert cli.main(["eval", "--corpus", str(corpus_dir), *flags]) == 1
        assert not out.exists()
        assert str(broken) in capsys.readouterr().err

    def test_train_manifest_as_config(self, corpus_dir, fresh_model, tmp_path):
        # a train manifest's knobs that eval does not take, dim and lambda, are accepted and
        # ignored; eval's flag --lambda is unknown
        run = tmp_path / "run"
        assert _train(corpus_dir, run, extra=["--lambda", "0.5"]) == 0
        out = tmp_path / "eval"
        flags = ["--config", str(run / "manifest.json"), "--model", str(fresh_model[0])]
        assert cli.main(["eval", "--corpus", str(corpus_dir), *flags, "--out", str(out)]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config["seed"] == 11 and config["batch"] == 8
        assert "dim" not in config and "lambda" not in config
        assert "lambda" not in json.loads((out / "summary.json").read_text())
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", "--corpus", str(corpus_dir), *flags, "--lambda", "0.5",
                      "--out", str(tmp_path / "flag")])
        assert exc.value.code == 2

    # train scores its tables through the report function eval calls, so a joint run's bias
    # column reaches the perplexity and accuracy keys on both sides
    @pytest.mark.parametrize("recipe", [DEFAULT, (("--lambda", "0.5", "--kernel", "cosine"), {})],
                             ids=["sca", "joint"])
    def test_before_after_reproduces_the_train_reports(self, corpus_dir, train_run, tmp_path,
                                                       recipe):
        run = train_run(*recipe)
        out = tmp_path / "eval"
        flags = ["--config", str(run / "manifest.json"), "--before", str(run / "initial_model.json"),
                 "--after", str(run / "model.json")]
        assert cli.main(["eval", "--corpus", str(corpus_dir), *flags, "--out", str(out)]) == 0
        for name in ("rare_words.csv", "pca.csv"):
            assert (out / name).read_bytes() == (run / "reports" / name).read_bytes()
        trained = json.loads((run / "reports" / "summary.json").read_text())
        evaluated = json.loads((out / "summary.json").read_text())
        assert evaluated["before"]["coherence_score"] == trained["coherence_initial"]
        assert evaluated["after"]["coherence_score"] == trained["coherence_final"]
        for key in ("perplexity_train", "perplexity_heldout", "accuracy", "perplexity_validation",
                    "accuracy_validation"):
            assert evaluated["after"][key] == trained[key]

    def test_requires_model_arguments(self, corpus_dir, tmp_path):
        code = cli.main(["eval", "--corpus", str(corpus_dir), "--out", str(tmp_path / "y")])
        assert code == 1

    def test_config_model_with_before_flag_exits_one_before_out(self, corpus_dir, fresh_model,
                                                               tmp_path, capsys):
        # a config's model and a flag's before are one eval's inputs: never both
        path = str(fresh_model[0])
        (tmp_path / "config.json").write_text(json.dumps({"model": path}))
        base = ["eval", "--corpus", str(corpus_dir), "--config", str(tmp_path / "config.json")]
        out = tmp_path / "eval"
        for pair in (["--before", path], ["--before", path, "--after", path]):
            assert cli.main([*base, *pair, "--out", str(out)]) == 1
            assert "pass either --model, or both --before and --after" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("models", EVAL_MODELS, ids=["model", "pair"])
    def test_rerun_from_its_manifest(self, corpus_dir, train_run, tmp_path, models):
        # the manifest records the scored model paths, so it is the whole eval config
        run = train_run(*DEFAULT)
        flags = [str(run / arg) if arg.endswith(".json") else arg for arg in models]
        first, second = tmp_path / "first", tmp_path / "second"
        assert cli.main(["eval", "--corpus", str(corpus_dir), *flags, "--out", str(first)]) == 0
        assert cli.main(["eval", "--config", str(first / "manifest.json"),
                         "--out", str(second)]) == 0
        _same_run(first, second)
        configs = [json.loads((out / "manifest.json").read_text())["config"]
                   for out in (first, second)]
        assert {key for key in configs[0] if configs[0][key] != configs[1][key]} == {"out"}
        given = {flag[2:]: path for flag, path in zip(flags[::2], flags[1::2])}
        recorded = {key: configs[0][key] for key in ("model", "before", "after")}
        assert recorded == {"model": None, "before": None, "after": None, **given}


class TestValidationPart:
    @pytest.mark.parametrize("flags", [(), ("--lambda", "0.5")], ids=["sca", "joint"])
    def test_figures_match_the_oracle(self, corpus_dir, train_run, tmp_path, flags):
        run = train_run(flags, {})
        table, _, bias = embedding.load_model(run / "model.json")
        model = np.column_stack([table, np.zeros(len(table)) if bias is None else bias])
        _, docs = corpus.read_manifest(corpus_dir)
        validation = corpus.stratified_split(docs, (0.8, 0.1, 0.1), seed=11).validation
        pairs = [(a, b) for doc in validation
                 for a, b in zip(doc.token_ids[:-1].tolist(), doc.token_ids[1:].tolist())]
        perplexity = math.exp(np.mean([nll(model, pair) for pair in pairs]))
        accuracy = np.mean([np.argmax(table @ table[a] + model[:, -1]) == b for a, b in pairs])
        out = tmp_path / "eval"
        flags = ["--config", str(run / "manifest.json"), "--model", str(run / "model.json")]
        assert cli.main(["eval", "--corpus", str(corpus_dir), *flags, "--out", str(out)]) == 0
        for summary in (run / "reports" / "summary.json", out / "summary.json"):
            summary = json.loads(summary.read_text())
            assert summary["perplexity_validation"] == pytest.approx(perplexity, rel=1e-12)
            assert summary["accuracy_validation"] == accuracy
            assert summary["perplexity_validation"] != summary["perplexity_heldout"]

    def test_zero_ratio_gives_nulls(self, corpus_dir, train_run, tmp_path):
        run = train_run((), {"ratios": [0.8, 0, 0.2]})
        out = tmp_path / "eval"
        flags = ["--config", str(run / "manifest.json"), "--before", str(run / "initial_model.json"),
                 "--after", str(run / "model.json")]
        assert cli.main(["eval", "--corpus", str(corpus_dir), *flags, "--out", str(out)]) == 0
        evaluated = json.loads((out / "summary.json").read_text())
        trained = json.loads((run / "reports" / "summary.json").read_text())
        for summary in (trained, evaluated["before"], evaluated["after"]):
            assert summary["perplexity_validation"] is None
            assert summary["accuracy_validation"] is None
            assert summary["perplexity_heldout"] > 1.0

    def test_without_two_token_document_exits_one_before_out(self, tmp_path, capsys):
        # at 0.45/0.1/0.45 the two long documents go to train and test, whatever the seed,
        # and the validation part gets one of the ten one-token documents
        docs = [("long0", "long", "the cat sat on the mat."), ("long1", "long", "the dog sat too.")]
        docs += [(f"short{k}", "short", word) for k, word in enumerate("abcdefghij")]
        manifest = _text_corpus(tmp_path, docs)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"ratios": [0.45, 0.1, 0.45]}))
        out = tmp_path / "run"
        for command in (["train"], ["eval", "--model", str(tmp_path / "model.json")]):
            flags = ["--corpus", str(manifest), "--config", str(config), "--batch", "4"]
            assert cli.main([*command, *flags, "--out", str(out)]) == 1
            assert not out.exists()
            assert "(0.45, 0.1, 0.45) leave the validation part" in capsys.readouterr().err


class TestInterface:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0

    def test_a_key_error_is_a_bug_not_an_input_error(self, monkeypatch):
        # main turns input errors into exit 1; no input raises KeyError, so one propagates
        def broken(args, command):
            raise KeyError("x")

        monkeypatch.setattr(cli, "_resolve_config", broken)
        with pytest.raises(KeyError):
            cli.main(["train", "--corpus", "c", "--out", "o"])

    def test_unknown_flag_exits_two(self, capsys):
        for flag in (["--bogus"], ["--threads", "2"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(["train", *flag])
            assert exc.value.code == 2

    def test_train_and_eval_are_the_only_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["gradcheck"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit):
            cli.main(["--help"])
        assert "{train,eval}" in capsys.readouterr().out

    def test_subcommand_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0

    @pytest.mark.parametrize("level, logged", [("info", True), ("debug", True), (None, False)],
                             ids=["info", "debug", "unset"])
    def test_sca_log_sets_the_log_level(self, corpus_dir, tmp_path, level, logged):
        env = {key: value for key, value in os.environ.items() if key != "SCA_LOG"}
        env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
        if level is not None:
            env["SCA_LOG"] = level
        done = subprocess.run(
            [sys.executable, "-m", "sca.cli", "train", "--corpus", str(corpus_dir), *TRAIN_ARGS,
             "--out", str(tmp_path / "run")],
            env=env, capture_output=True, text=True, check=True,
        )
        assert ("INFO:sca:training:" in done.stderr) == logged

    def test_runs_never_import_numpy_ma(self, tmp_path):
        # np.median, and np.quantile's default method, import numpy.ma (~14 ms) for their NaN
        # check; a fresh interpreter shows whether a train or eval run reaches either
        manifest = write_corpus_files(make_toy_raw_docs(), tmp_path / "corpus")
        script = """
import sys
from sca import cli
manifest, root = sys.argv[1:]
common = ["--corpus", manifest, "--dim", "16", "--epochs", "2", "--seed", "7"]
for name, extra in (("rbf", []), ("joint", ["--lambda", "0.5", "--kernel", "cosine"])):
    assert cli.main(["train", *common, *extra, "--out", f"{root}/{name}"]) == 0
models = ["--before", f"{root}/rbf/initial_model.json", "--after", f"{root}/rbf/model.json"]
assert cli.main(["eval", "--corpus", manifest, *models, "--out", f"{root}/eval"]) == 0
print("numpy.ma" in sys.modules, "logging" in sys.modules)
"""
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        done = subprocess.run([sys.executable, "-c", script, str(manifest), str(tmp_path)],
                              env=env, capture_output=True, text=True, check=True)
        assert done.stdout.split()[-2:] == ["False", "False"]

    def test_exit_freezes_the_collector(self, tmp_path):
        # exit callbacks run last-registered first, so a probe registered before sca is
        # imported runs after sca's hook, and sees what the interpreter's teardown will see
        manifest = write_corpus_files(make_toy_raw_docs(), tmp_path / "corpus")
        script = """
import atexit, gc, sys
atexit.register(lambda: print("frozen", gc.get_freeze_count()))
from sca import cli
manifest, out = sys.argv[1:]
sys.exit(cli.main(["train", "--corpus", manifest, "--dim", "16", "--epochs", "2", "--out", out]))
"""
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        out = tmp_path / "run"
        done = subprocess.run([sys.executable, "-c", script, str(manifest), str(out)],
                              env=env, capture_output=True, text=True, check=True)
        label, count = done.stdout.split()[-2:]
        assert label == "frozen" and int(count) > 0
        assert _unlisted(out) == []
        assert {"model.json", "reports"} <= set(json.loads(
            (out / "manifest.json").read_text())["artifacts"].values())

    def test_no_output_relies_on_finalization(self, corpus_dir, tmp_path):
        # objects frozen at exit are never finalized, so every file must be closed by then:
        # a file object collected while open warns ResourceWarning
        gc.collect()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            run = tmp_path / "run"
            assert _train(corpus_dir, run) == 0
            models = ["--before", str(run / "initial_model.json"), "--after",
                      str(run / "model.json")]
            assert cli.main(["eval", "--corpus", str(corpus_dir), *models,
                             "--out", str(tmp_path / "eval")]) == 0
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
