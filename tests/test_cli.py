"""End-to-end tests of the command-line interface."""

import json
import os

import pytest

from dtmil.cli import main


def run(args):
    return main(args)


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
        assert open(s1, "rb").read() == open(s2, "rb").read()
        assert open(t1, "rb").read() == open(t2, "rb").read()

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

    def test_missing_input_file_exits_1(self, tmp_path):
        code = run(["train-source", "--data", str(tmp_path / "nope.jsonl"),
                    "--out", str(tmp_path / "m.json")])
        assert code == 1


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
        doc = json.loads(open(report).read())
        assert set(doc) == {"accuracy", "n"}
        assert 0.0 <= doc["accuracy"] <= 1.0
        assert doc["n"] == 16

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
        assert run(["train-source", "--data", src, "--words", "4", "--out", model]) == 0
        args = ["adapt", "--source-model", model, "--target-train", tgt,
                "--kappa", "3", "--inner-iters", "2", "--max-outer", "2"]
        quiet = str(tmp_path / "quiet.json")
        loud = str(tmp_path / "loud.json")
        capsys.readouterr()
        assert run(args + ["--out", quiet]) == 0
        captured = capsys.readouterr()
        assert "adapt: warning: outer round 1: dual solve stopped at its sweep cap" in captured.err
        assert "outer 1: dual" not in captured.err  # round values stay behind --verbose
        assert captured.out == ""
        assert run(args + ["--out", loud, "--verbose"]) == 0
        assert open(quiet, "rb").read() == open(loud, "rb").read()

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
        lines = [json.loads(line) for line in open(out)]
        assert len(lines) == 16
        assert all(len(row["features"]) == 4 for row in lines)

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
        assert open(r1, "rb").read() == open(r2, "rb").read()
        doc = json.loads(open(r1).read())
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
        assert open(quiet, "rb").read() == open(loud, "rb").read()


class TestSweepCommand:
    def test_csv_row_count(self, workdir):
        tmp_path, config = workdir
        src, tgt = synth(tmp_path, config)
        out = str(tmp_path / "sweep.csv")
        assert run(["sweep", "--source", src, "--target", tgt,
                    "--c1", "0.5,1", "--c2", "0.1,1", "--folds", "3",
                    "--kappa", "3", "--inner-iters", "2", "--max-outer", "2",
                    "--seed", "0", "--out", out]) == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "c1,c2,fold,accuracy,seconds"
        assert len(lines) == 1 + 2 * 2 * 3

    def test_bad_grid_exits_1(self, workdir):
        tmp_path, config = workdir
        src, tgt = synth(tmp_path, config)
        assert run(["sweep", "--source", src, "--target", tgt,
                    "--c1", "abc", "--c2", "1", "--folds", "3",
                    "--seed", "0", "--out", str(tmp_path / "s.csv")]) == 1
