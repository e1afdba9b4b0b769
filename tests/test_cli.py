"""End-to-end tests of the command-line interface."""

import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import dtmil
from dtmil import (
    Bag,
    Hyperparams,
    SynthConfig,
    embed_bag,
    generate_synthetic,
    load_adapted_model,
    load_dataset,
    save_dataset,
)
from dtmil.cli import _build_parser, _hyper_from_args, run_cli


CAPPED_SOURCE_LINE = (
    "train-source: warning: source training: dual solve stopped at its sweep cap "
    "after 1 sweeps without converging (seed 0, 24 bags)"
)


def run(args):
    return run_cli(args)


@pytest.fixture
def workdir(tmp_path):
    cfg = {
        "d": 4,
        "bags_per_class_source": 12,
        "bags_per_class_target": 8,
        "instances_per_bag": [3, 6],
        "cluster_separation": 3.0,
        "shift_rotation_degrees": 25.0,
        "shift_translation": 0.8,
        "noise_sigma": 0.4,
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    return tmp_path, str(config)


def synth(tmp_path, config, tag="a", seed=7):
    src = str(tmp_path / f"source-{tag}.jsonl")
    tgt = str(tmp_path / f"target-{tag}.jsonl")
    code = run(["synth", "--config", config, "--seed", str(seed),
                "--out-source", src, "--out-target", tgt])
    assert code == 0
    return src, tgt


class TestSynth:
    def test_deterministic_files(self, workdir):
        tmp_path, config = workdir
        s1, t1 = synth(tmp_path, config, "one")
        s2, t2 = synth(tmp_path, config, "two")
        assert Path(s1).read_bytes() == Path(s2).read_bytes()
        assert Path(t1).read_bytes() == Path(t2).read_bytes()

    def test_default_config(self, tmp_path):
        code = run(["synth", "--seed", "1",
                    "--out-source", str(tmp_path / "s.jsonl"),
                    "--out-target", str(tmp_path / "t.jsonl")])
        assert code == 0
        assert (tmp_path / "s.jsonl").exists()


class TestValidationErrors:
    def test_unknown_subcommand_exits_1(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_no_subcommand_exits_1(self):
        assert run([]) == 1

    def test_unknown_flag_exits_1(self, workdir):
        tmp_path, config = workdir
        assert run(["synth", "--config", config, "--wat", "1",
                    "--out-source", "s", "--out-target", "t"]) == 1

    def test_adapt_rejects_c1_zero_without_output(self, workdir):
        tmp_path, config = workdir
        src, tgt = synth(tmp_path, config)
        model = str(tmp_path / "model.json")
        assert run(["train-source", "--data", src, "--words", "5", "--c", "1.0",
                    "--seed", "0", "--out", model]) == 0
        out = str(tmp_path / "adapted.json")
        code = run(["adapt", "--source-model", model, "--target-train", tgt,
                    "--c1", "0", "--out", out])
        assert code == 1
        assert not os.path.exists(out)

    def test_adapt_names_the_non_finite_descent_step(self, workdir, capsys):
        tmp_path, config = workdir
        src, tgt = synth(tmp_path, config)
        model = str(tmp_path / "model.json")
        assert run(["train-source", "--data", src, "--words", "4", "--out", model]) == 0
        out = str(tmp_path / "adapted.json")
        capsys.readouterr()
        code = run(["adapt", "--source-model", model, "--target-train", tgt,
                    "--eta", "1e308", "--c1", "0.01", "--out", out])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: descent step " in err and "is not finite (step size eta=1e+308)" in err
        assert not os.path.exists(out)

    def test_runtime_error_exits_2_without_output(self, workdir, capsys, monkeypatch):
        import dtmil.cli

        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        tmp_path, config = workdir
        src, tgt = synth(tmp_path, config)
        model = str(tmp_path / "model.json")
        assert run(["train-source", "--data", src, "--words", "4", "--out", model]) == 0
        monkeypatch.setattr(dtmil.cli, "fit_dtc", boom)
        out = str(tmp_path / "adapted.json")
        capsys.readouterr()
        assert run(["adapt", "--source-model", model, "--target-train", tgt, "--out", out]) == 2
        assert "runtime error: RuntimeError: boom" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_scalar_instances_per_bag_exits_1(self, tmp_path, capsys):
        config = tmp_path / "scalar.json"
        config.write_text(json.dumps({"instances_per_bag": 5}))
        src, tgt = str(tmp_path / "s.jsonl"), str(tmp_path / "t.jsonl")
        code = run(["synth", "--config", str(config), "--out-source", src, "--out-target", tgt])
        assert code == 1
        err = capsys.readouterr().err
        assert "instances_per_bag" in err and "runtime error" not in err
        assert not os.path.exists(src) and not os.path.exists(tgt)

    def test_synth_config_that_is_no_object_exits_1(self, tmp_path, capsys):
        config = tmp_path / "list.json"
        config.write_text('[["d", 4]]\n')
        src, tgt = tmp_path / "s.jsonl", tmp_path / "t.jsonl"
        assert run(["synth", "--config", str(config), "--out-source", str(src), "--out-target", str(tgt)]) == 1
        assert capsys.readouterr().err == f"error: {config}: synthetic config must be a JSON object\n"
        assert not src.exists() and not tgt.exists()

    def test_synth_config_field_error_names_its_file(self, tmp_path, capsys):
        config = tmp_path / "zero.json"
        config.write_text('{"d": 0}\n')
        src, tgt = tmp_path / "s.jsonl", tmp_path / "t.jsonl"
        assert run(["synth", "--config", str(config), "--out-source", str(src), "--out-target", str(tgt)]) == 1
        assert capsys.readouterr().err == f"error: {config}: d must be an integer >= 1, got 0\n"
        assert not src.exists() and not tgt.exists()

    def test_missing_input_file_exits_1(self, tmp_path):
        code = run(["train-source", "--data", str(tmp_path / "nope.jsonl"),
                    "--out", str(tmp_path / "m.json")])
        assert code == 1

    def test_uncreatable_output_is_named_by_the_path_given(self, tmp_path, capsys):
        src = tmp_path / "nodir" / "s.jsonl"
        tgt = tmp_path / "t.jsonl"
        assert run(["synth", "--out-source", str(src), "--out-target", str(tgt)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: [Errno 2] No such file or directory: {str(src)!r}\n"
        assert ".tmp-" not in err
        assert list(tmp_path.iterdir()) == []

    def test_output_that_is_a_directory_is_named_by_the_path_given(self, workdir, capsys):
        tmp_path, config = workdir
        src, tgt = synth(tmp_path, config)
        model = str(tmp_path / "model.json")
        assert run(["train-source", "--data", src, "--words", "3", "--out", model]) == 0
        out = tmp_path / "outdir"
        out.mkdir()
        before = sorted(tmp_path.iterdir())
        capsys.readouterr()
        assert run(["eval", "--model", model, "--data", tgt, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: [Errno 21] Is a directory: {str(out)!r}\n"
        assert ".tmp-" not in err
        assert sorted(tmp_path.iterdir()) == before and list(out.iterdir()) == []

    @pytest.mark.parametrize("command, flags, message", [
        ("train-source", ["--words", "0"], "--words must be an integer >= 1, got 0"),
        ("train-source", ["--c", "inf"], "--c must be a positive finite real, got inf"),
        ("train-source", ["--c", "nan"], "--c must be a positive finite real, got nan"),
        ("train-source", ["--seed", "-1"], "--seed must be an integer >= 0, got -1"),
        ("protocol", ["--folds", "1"], "--folds must be an integer >= 2, got 1"),
        ("sweep", ["--c1", "-1", "--c2", "1", "--folds", "2"], "--c1 must be a positive finite real, got -1.0"),
        ("sweep", ["--c1", "1", "--c2", "1,inf", "--folds", "2"], "--c2 must be a positive finite real, got inf"),
        ("sweep", ["--c1", "1", "--c2", "1", "--folds", "1"], "--folds must be an integer >= 2, got 1"),
        ("synth", ["--seed", "-1", "--config", "missing.json"], "seed must be an integer >= 0, got -1"),
    ])
    def test_flags_are_checked_before_any_file(self, tmp_path, capsys, command, flags, message):
        missing = str(tmp_path / "missing.jsonl")
        files = {"train-source": ["--data", missing, "--out", str(tmp_path / "m.json")],
                 "protocol": ["--source", missing, "--target", missing, "--out", str(tmp_path / "p.json")],
                 "sweep": ["--source", missing, "--target", missing, "--out", str(tmp_path / "s.csv")],
                 "synth": ["--out-source", str(tmp_path / "s.jsonl"), "--out-target", str(tmp_path / "t.jsonl")]}
        assert run([command, *flags, *files[command]]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["adapt", "protocol", "synth"])
    def test_negative_seed_exits_1(self, tmp_path, capsys, command):
        paths = {"adapt": ["--source-model", "m.json", "--target-train", "t.jsonl", "--out", "o.json"],
                 "protocol": ["--source", "s.jsonl", "--target", "t.jsonl", "--folds", "2", "--out", "o.json"],
                 "synth": ["--out-source", str(tmp_path / "s.jsonl"), "--out-target", str(tmp_path / "t.jsonl")]}
        assert run([command, "--seed", "-1", *paths[command]]) == 1
        assert capsys.readouterr().err == "error: seed must be an integer >= 0, got -1\n"


class TestNonUtf8Inputs:
    """A file that is not UTF-8 is a validation error naming the file."""

    def test_dataset_names_its_line(self, tmp_path, capsys):
        data = tmp_path / "latin1.jsonl"
        save_dataset([Bag(id="a", label=1, instances=[[1.0]])], str(data))
        with open(data, "ab") as handle:
            handle.write('{"id": "\u00e9", "label": -1, "instances": [[2.0]]}\n'.encode("latin-1"))
        out = tmp_path / "m.json"
        assert run_cli(["train-source", "--data", str(data), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {data}:2: not UTF-8 text (invalid continuation byte)\n"
        assert not out.exists()

    def test_model_names_its_file(self, workdir, capsys):
        tmp_path, config = workdir
        src, tgt = synth(tmp_path, config)
        model = tmp_path / "model.json"
        model.write_bytes(b'{"format_version": 1, "\xff": null}\n')
        out = tmp_path / "adapted.json"
        capsys.readouterr()
        assert run_cli(["adapt", "--source-model", str(model), "--target-train", tgt,
                        "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {model}: not UTF-8 text (invalid start byte)\n"
        assert not out.exists()

    def test_synth_config_names_its_file(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_bytes('{"d": 4, "noise_sigma": 0.4} # r\u00e9glage\n'.encode("latin-1"))
        src, tgt = tmp_path / "s.jsonl", tmp_path / "t.jsonl"
        assert run_cli(["synth", "--config", str(config), "--out-source", str(src),
                        "--out-target", str(tgt)]) == 1
        assert capsys.readouterr().err == f"error: {config}: not UTF-8 text (invalid continuation byte)\n"
        assert not src.exists() and not tgt.exists()

    def test_synth_config_invalid_json_names_its_file(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"d": 4,')
        src, tgt = tmp_path / "s.jsonl", tmp_path / "t.jsonl"
        assert run_cli(["synth", "--config", str(config), "--out-source", str(src),
                        "--out-target", str(tgt)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: invalid JSON (")
        assert not src.exists() and not tgt.exists()


class TestDeeplyNestedInputs:
    """JSON nested too deeply to decode is a validation error naming the file."""

    DEEP = "[" * 200000 + "]" * 200000

    def test_model_names_its_file(self, workdir, capsys):
        tmp_path, config = workdir
        src, tgt = synth(tmp_path, config)
        model = tmp_path / "deep.json"
        model.write_text(self.DEEP)
        out = tmp_path / "eval.json"
        capsys.readouterr()
        assert run_cli(["eval", "--model", str(model), "--data", tgt, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {model}: invalid JSON (nested too deeply)\n"
        assert not out.exists()

    def test_dataset_names_its_line(self, tmp_path, capsys):
        data = tmp_path / "deep.jsonl"
        data.write_text(self.DEEP + "\n")
        out = tmp_path / "m.json"
        assert run_cli(["train-source", "--data", str(data), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {data}:1: invalid JSON (nested too deeply)\n"
        assert not out.exists()

    def test_synth_config_names_its_file(self, tmp_path, capsys):
        config = tmp_path / "deep.json"
        config.write_text(self.DEEP)
        src, tgt = tmp_path / "s.jsonl", tmp_path / "t.jsonl"
        assert run_cli(["synth", "--config", str(config), "--out-source", str(src),
                        "--out-target", str(tgt)]) == 1
        assert capsys.readouterr().err == f"error: {config}: invalid JSON (nested too deeply)\n"
        assert not src.exists() and not tgt.exists()


class TestModuleEntryPoint:
    """``python -m dtmil.cli`` runs ``run_cli`` and exits with its code."""

    def run_module(self, *args):
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(dtmil.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", "dtmil.cli", *args], env=env,
                              capture_output=True, text=True, timeout=120)

    def test_exit_codes(self, workdir):
        tmp_path, config = workdir
        src, tgt = tmp_path / "s.jsonl", tmp_path / "t.jsonl"
        done = self.run_module("synth", "--config", config, "--out-source", str(src), "--out-target", str(tgt))
        assert (done.returncode, done.stdout) == (0, "")
        assert done.stderr == f"wrote 24 source bags to {src}\nwrote 16 target bags to {tgt}\n"
        missing = tmp_path / "missing.jsonl"
        done = self.run_module("eval", "--model", "m.json", "--data", str(missing), "--out", str(tmp_path / "e.json"))
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr.startswith("error: [Errno 2] No such file or directory")


class TestPipeline:
    def test_full_pipeline(self, workdir, capsys):
        tmp_path, config = workdir
        src, tgt = synth(tmp_path, config)
        model = str(tmp_path / "source-model.json")
        assert run(["train-source", "--data", src, "--words", "6", "--c", "1.0",
                    "--seed", "0", "--out", model]) == 0

        adapted = str(tmp_path / "adapted.json")
        assert run(["adapt", "--source-model", model, "--target-train", tgt,
                    "--kappa", "4", "--inner-iters", "4", "--max-outer", "3",
                    "--seed", "0", "--out", adapted]) == 0

        report = str(tmp_path / "report.json")
        assert run(["eval", "--model", adapted, "--data", tgt, "--out", report]) == 0
        doc = json.loads(Path(report).read_text())
        assert set(doc) == {"accuracy", "n"}
        assert 0.0 <= doc["accuracy"] <= 1.0
        assert doc["n"] == 16

    def test_train_source_on_large_scale_features(self, tmp_path):
        # x100 instances give Gram entries near 1e6; the dual must accept them
        source, _ = generate_synthetic(SynthConfig(), 0)
        data = str(tmp_path / "source-x100.jsonl")
        save_dataset(
            [Bag(id=b.id, instances=b.instances * 100.0, label=b.label) for b in source], data
        )
        model = str(tmp_path / "model.json")
        assert run(["train-source", "--data", data, "--out", model]) == 0
        assert os.path.exists(model)

    def test_train_source_warns_on_capped_solve(self, workdir, capsys, monkeypatch):
        import dtmil.learn
        from dtmil import solve_box_qp

        monkeypatch.setattr(
            dtmil.learn, "solve_box_qp",
            lambda prob, init=None: solve_box_qp(prob, init=init, max_sweeps=1),
        )
        tmp_path, config = workdir
        src, _ = synth(tmp_path, config)
        model = str(tmp_path / "m.json")
        capsys.readouterr()
        assert run(["train-source", "--data", src, "--words", "4", "--out", model]) == 0
        # a plain line, so that stderr does not name a source file and line
        assert capsys.readouterr().err.splitlines()[0] == CAPPED_SOURCE_LINE
        assert os.path.exists(model)

    def test_eval_prints_a_library_warning_as_a_plain_line(self, workdir, capsys, monkeypatch):
        import warnings

        def warning_accuracy(model, bags):
            warnings.warn("scores overflowed", RuntimeWarning)
            return 0.5

        tmp_path, config = workdir
        src, tgt = synth(tmp_path, config)
        model, out = str(tmp_path / "m.json"), str(tmp_path / "eval.json")
        assert run(["train-source", "--data", src, "--words", "4", "--out", model]) == 0
        monkeypatch.setattr(dtmil.cli, "accuracy", warning_accuracy)
        capsys.readouterr()
        assert run(["eval", "--model", model, "--data", tgt, "--out", out]) == 0
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "warning" in line] == ["eval: warning: scores overflowed"]
        assert ".py:" not in err

    def test_adapt_reports_unconverged_solves_without_verbose(self, workdir, capsys, monkeypatch):
        import dtmil.learn
        from dtmil import solve_box_qp

        monkeypatch.setattr(
            dtmil.learn, "solve_box_qp",
            lambda prob, init=None: solve_box_qp(prob, init=init, max_sweeps=1),
        )
        tmp_path, config = workdir
        src, tgt = synth(tmp_path, config)
        model = str(tmp_path / "m.json")
        capsys.readouterr()
        assert run(["train-source", "--data", src, "--words", "4", "--out", model]) == 0
        assert capsys.readouterr().err.splitlines()[0] == CAPPED_SOURCE_LINE
        args = ["adapt", "--source-model", model, "--target-train", tgt,
                "--kappa", "3", "--inner-iters", "2", "--max-outer", "2"]
        quiet = str(tmp_path / "quiet.json")
        loud = str(tmp_path / "loud.json")
        assert run(args + ["--out", quiet]) == 0
        captured = capsys.readouterr()
        assert "adapt: warning: outer round 1: dual solve stopped at its sweep cap" in captured.err
        assert "outer 1: dual" not in captured.err  # round values stay behind --verbose
        assert captured.out == ""
        assert run(args + ["--out", loud, "--verbose"]) == 0
        assert Path(quiet).read_bytes() == Path(loud).read_bytes()

    def test_adapt_rejects_adapted_model_as_source(self, workdir):
        tmp_path, config = workdir
        src, tgt = synth(tmp_path, config)
        model = str(tmp_path / "m.json")
        run(["train-source", "--data", src, "--words", "4", "--out", model])
        adapted = str(tmp_path / "a.json")
        run(["adapt", "--source-model", model, "--target-train", tgt,
             "--kappa", "3", "--inner-iters", "2", "--max-outer", "2", "--out", adapted])
        out2 = str(tmp_path / "a2.json")
        code = run(["adapt", "--source-model", adapted, "--target-train", tgt,
                    "--kappa", "3", "--out", out2])
        assert code == 1
        assert not os.path.exists(out2)

    def test_embed_dumps_features(self, workdir):
        tmp_path, config = workdir
        src, tgt = synth(tmp_path, config)
        model = str(tmp_path / "m.json")
        run(["train-source", "--data", src, "--words", "4", "--out", model])
        out = str(tmp_path / "features.jsonl")
        assert run(["embed", "--model", model, "--data", tgt, "--dict", "phi",
                    "--out", out]) == 0
        lines = [json.loads(line) for line in Path(out).read_text().splitlines()]
        assert len(lines) == 16
        assert all(len(row["features"]) == 4 for row in lines)

    def test_embed_psi_writes_transfer_features(self, workdir):
        tmp_path, config = workdir
        src, tgt = synth(tmp_path, config)
        model = str(tmp_path / "m.json")
        adapted = str(tmp_path / "a.json")
        assert run(["train-source", "--data", src, "--words", "4", "--out", model]) == 0
        assert run(["adapt", "--source-model", model, "--target-train", tgt, "--kappa", "3",
                    "--inner-iters", "2", "--max-outer", "2", "--out", adapted]) == 0
        out = str(tmp_path / "features.jsonl")
        assert run(["embed", "--model", adapted, "--data", tgt, "--dict", "psi",
                    "--out", out]) == 0
        psi = load_adapted_model(adapted).psi
        expected = [{"id": b.id, "features": embed_bag(b, psi).tolist()} for b in load_dataset(tgt)]
        assert [json.loads(line) for line in Path(out).read_text().splitlines()] == expected

    def test_embed_psi_needs_adapted_model(self, workdir):
        tmp_path, config = workdir
        src, tgt = synth(tmp_path, config)
        model = str(tmp_path / "m.json")
        run(["train-source", "--data", src, "--words", "4", "--out", model])
        code = run(["embed", "--model", model, "--data", tgt, "--dict", "psi",
                    "--out", str(tmp_path / "f.jsonl")])
        assert code == 1


class TestProtocolCommand:
    def test_byte_identical_reports(self, workdir):
        tmp_path, config = workdir
        src, tgt = synth(tmp_path, config)
        args = ["protocol", "--source", src, "--target", tgt, "--folds", "4",
                "--kappa", "4", "--inner-iters", "3", "--max-outer", "2", "--seed", "3"]
        r1 = str(tmp_path / "report1.json")
        r2 = str(tmp_path / "report2.json")
        assert run(args + ["--out", r1]) == 0
        assert run(args + ["--out", r2]) == 0
        assert Path(r1).read_bytes() == Path(r2).read_bytes()
        doc = json.loads(Path(r1).read_text())
        assert len(doc["per_fold_accuracy"]) == 4
        assert "source_only" in doc["baselines"] and "target_only" in doc["baselines"]

    def test_verbose_goes_to_stderr_only(self, workdir, capsys):
        tmp_path, config = workdir
        src, tgt = synth(tmp_path, config)
        args = ["protocol", "--source", src, "--target", tgt, "--folds", "3",
                "--kappa", "3", "--inner-iters", "2", "--max-outer", "2", "--seed", "1"]
        quiet = str(tmp_path / "q.json")
        loud = str(tmp_path / "l.json")
        assert run(args + ["--out", quiet]) == 0
        capsys.readouterr()
        assert run(args + ["--out", loud, "--verbose"]) == 0
        captured = capsys.readouterr()
        assert "dual" in captured.err
        assert captured.out == ""
        assert Path(quiet).read_bytes() == Path(loud).read_bytes()

    def test_reports_unconverged_solves_without_verbose(self, workdir, capsys, monkeypatch):
        import dtmil.learn
        from dtmil import solve_box_qp

        monkeypatch.setattr(
            dtmil.learn, "solve_box_qp",
            lambda prob, init=None: solve_box_qp(prob, init=init, max_sweeps=1),
        )
        tmp_path, config = workdir
        src, tgt = synth(tmp_path, config)
        args = ["protocol", "--source", src, "--target", tgt, "--folds", "3",
                "--kappa", "3", "--inner-iters", "2", "--max-outer", "2", "--seed", "1"]
        quiet = str(tmp_path / "q.json")
        loud = str(tmp_path / "l.json")
        capsys.readouterr()
        assert run(args + ["--out", quiet]) == 0
        captured = capsys.readouterr()
        assert "fold 0: warning: outer round 1: dual solve stopped at its sweep cap" in captured.err
        assert "outer 1: dual" not in captured.err  # round values stay behind --verbose
        # the shared source model's capped solve is a plain line too
        assert "protocol: warning: source training: dual solve stopped at its sweep cap" in captured.err
        assert "evaluate.py:" not in captured.err
        assert captured.out == ""
        assert run(args + ["--out", loud, "--verbose"]) == 0
        assert "evaluate.py:" not in capsys.readouterr().err
        assert Path(quiet).read_bytes() == Path(loud).read_bytes()

    def test_names_each_folds_capped_baseline(self, workdir, capsys, monkeypatch):
        import dtmil.learn
        from dtmil import solve_box_qp

        monkeypatch.setattr(
            dtmil.learn, "solve_box_qp",
            lambda prob, init=None: solve_box_qp(prob, init=init, max_sweeps=1),
        )
        tmp_path, config = workdir
        src, tgt = synth(tmp_path, config)
        capsys.readouterr()
        assert run(["protocol", "--source", src, "--target", tgt, "--folds", "3",
                    "--kappa", "3", "--inner-iters", "2", "--max-outer", "2",
                    "--seed", "1", "--out", str(tmp_path / "r.json")]) == 0
        err = capsys.readouterr().err
        for fold in range(3):
            assert (f"fold {fold}: warning: target-only baseline: "
                    "source training: dual solve stopped at its sweep cap") in err
        assert "protocol: warning: source training: dual solve stopped at its sweep cap" in err
        # the shared source model is trained, and its line printed, before any fold
        assert err.index("protocol: warning: source training:") < err.index("fold 0: warning:")
        assert "evaluate.py:" not in err


class TestSweepCommand:
    def test_csv_row_count(self, workdir):
        tmp_path, config = workdir
        src, tgt = synth(tmp_path, config)
        out = str(tmp_path / "sweep.csv")
        assert run(["sweep", "--source", src, "--target", tgt,
                    "--c1", "0.5,1", "--c2", "0.1,1", "--folds", "3",
                    "--kappa", "3", "--inner-iters", "2", "--max-outer", "2",
                    "--seed", "0", "--out", out]) == 0
        lines = Path(out).read_text().splitlines()
        assert lines[0] == "c1,c2,fold,accuracy"
        assert len(lines) == 1 + 2 * 2 * 3

    def test_reports_unconverged_solves(self, workdir, capsys, monkeypatch):
        import dtmil.learn
        from dtmil import solve_box_qp

        monkeypatch.setattr(
            dtmil.learn, "solve_box_qp",
            lambda prob, init=None: solve_box_qp(prob, init=init, max_sweeps=1),
        )
        tmp_path, config = workdir
        src, tgt = synth(tmp_path, config)
        capsys.readouterr()
        assert run(["sweep", "--source", src, "--target", tgt,
                    "--c1", "0.5", "--c2", "0.1", "--folds", "3",
                    "--kappa", "3", "--inner-iters", "2", "--max-outer", "2",
                    "--seed", "1", "--out", str(tmp_path / "s.csv")]) == 0
        captured = capsys.readouterr()
        for fold in range(3):
            assert (f"c1=0.5 c2=0.1 fold {fold}: warning: outer round 1: "
                    "dual solve stopped at its sweep cap") in captured.err
        assert "outer 1: dual" not in captured.err
        # the sweep reports no baseline, so it trains none to warn about
        assert "target-only baseline" not in captured.err
        assert "sweep: warning: source training: dual solve stopped at its sweep cap" in captured.err
        assert "evaluate.py:" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("grid, message", [
        ("abc", "--c1 must be a comma-separated list of reals: could not convert string to float: 'abc'"),
        (",", "--c1 must contain at least one value"),
        (" , ,", "--c1 must contain at least one value"),
    ], ids=["not-a-real", "comma", "blanks"])
    def test_bad_grid_exits_1(self, workdir, capsys, grid, message):
        tmp_path, config = workdir
        src, tgt = synth(tmp_path, config)
        capsys.readouterr()
        assert run(["sweep", "--source", src, "--target", tgt,
                    "--c1", grid, "--c2", "1", "--folds", "3",
                    "--seed", "0", "--out", str(tmp_path / "s.csv")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "s.csv").exists()


TINY_FIT = ["--kappa", "3", "--inner-iters", "2", "--max-outer", "2", "--seed", "1"]


class TestDeterminism:
    """Identical arguments give byte-identical output files, for every command
    that writes one; wall-clock data belongs on stderr only."""

    CASES = {
        "synth": ["synth", "--config", "{config}", "--seed", "3",
                  "--out-source", "{out}", "--out-target", "{out2}"],
        "train-source": ["train-source", "--data", "{src}", "--words", "3", "--seed", "2",
                         "--out", "{out}"],
        "adapt": ["adapt", "--source-model", "{model}", "--target-train", "{tgt}", *TINY_FIT,
                  "--out", "{out}"],
        "eval": ["eval", "--model", "{adapted}", "--data", "{tgt}", "--out", "{out}"],
        "embed-phi": ["embed", "--model", "{adapted}", "--data", "{tgt}", "--dict", "phi",
                      "--out", "{out}"],
        "embed-psi": ["embed", "--model", "{adapted}", "--data", "{tgt}", "--dict", "psi",
                      "--out", "{out}"],
        "protocol": ["protocol", "--source", "{src}", "--target", "{tgt}", "--folds", "3",
                     *TINY_FIT, "--out", "{out}"],
        "sweep": ["sweep", "--source", "{src}", "--target", "{tgt}", "--c1", "0.5,1",
                  "--c2", "0.1,1", "--folds", "3", *TINY_FIT, "--out", "{out}"],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_identical_runs_write_identical_files(self, workdir, case):
        tmp_path, config = workdir
        src, tgt = synth(tmp_path, config)
        paths = {"config": config, "src": src, "tgt": tgt, "model": str(tmp_path / "m.json"),
                 "adapted": str(tmp_path / "a.json"), "out": str(tmp_path / "out"),
                 "out2": str(tmp_path / "out2")}
        assert run(["train-source", "--data", src, "--words", "3", "--out", paths["model"]]) == 0
        assert run(["adapt", "--source-model", paths["model"], "--target-train", tgt,
                    "--out", paths["adapted"]] + TINY_FIT) == 0
        argv = [arg.format(**paths) for arg in self.CASES[case]]
        outputs = [Path(paths[name]) for name in ("out", "out2") if "{%s}" % name in self.CASES[case]]
        written = []
        for _ in range(2):
            assert run(argv) == 0
            written.append([path.read_bytes() for path in outputs])
        assert written[0] == written[1]


def _flag(name):
    return "--" + name.replace("_", "-")


def _off_default(name):
    # a valid value that differs from the field's default
    return getattr(Hyperparams(), name) * 2 + 1


class TestHyperFlags:
    """Every Hyperparams field must be settable from the CLI; these fail when
    a new field is added to the dataclass but not to the flag builder."""

    COMMANDS = {
        "adapt": ["--source-model", "m", "--target-train", "t", "--out", "o"],
        "protocol": ["--source", "s", "--target", "t", "--folds", "2", "--out", "o"],
        "sweep": ["--source", "s", "--target", "t", "--c1", "1", "--c2", "1",
                  "--folds", "2", "--out", "o"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_every_field_has_a_flag(self, command):
        # sweep's --c1/--c2 are grids, so its base keeps the default weights
        names = [f.name for f in fields(Hyperparams)
                 if command != "sweep" or f.name not in ("c1", "c2")]
        values = {name: _off_default(name) for name in names}
        argv = [command] + self.COMMANDS[command]
        for name, value in values.items():
            argv += [_flag(name), str(value)]
        args = _build_parser().parse_args(argv)
        assert _hyper_from_args(args) == Hyperparams(**values)

    def test_protocol_report_and_model_file_share_hyper_keys(self, workdir):
        tmp_path, config = workdir
        src, tgt = synth(tmp_path, config)
        tiny = ["--kappa", "2", "--inner-iters", "1", "--max-outer", "1"]
        model, adapted, report = (str(tmp_path / n) for n in ("m.json", "a.json", "r.json"))
        assert run(["train-source", "--data", src, "--words", "2", "--out", model]) == 0
        assert run(["adapt", "--source-model", model, "--target-train", tgt,
                    "--out", adapted] + tiny) == 0
        assert run(["protocol", "--source", src, "--target", tgt, "--folds", "2",
                    "--out", report] + tiny) == 0
        model_keys = set(json.loads(Path(adapted).read_text())["hyper"])
        assert set(json.loads(Path(report).read_text())["hyper"]) == model_keys
        assert model_keys == {f.name for f in fields(Hyperparams)}
