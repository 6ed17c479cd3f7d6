import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from owenexplain.cli import build_parser, main
from owenexplain.extraction import ProbeConfig, TrainConfig
from owenexplain.objectives import ObjectiveWeights
from owenexplain.synthesis import SearchParams
from owenexplain.tensorio import read_tensor, write_tensor


# What explain --random --emit-config writes when no other flag is given.
RESOLVED_DEFAULTS = {
    "schema_version": "1",
    "seed": 0,
    "victim": {"kind": "linear_softmax", "num_classes": 4, "input_shape": [6, 6],
               "weight_scale": 1.0, "temperature": 1.0, "dead_index": 0, "group_sizes": None,
               "class_bias": None, "input_cap": 1.0},
    "topk": {"mode": "all", "k": None},
    "masker": {"fill": "blur", "sigma": None, "baseline_path": None, "block": None},
    "explainer": {"max_evals": 128, "order": "priority_abs", "classes": "all"},
    "synthesis": {"target_class": 0, "alpha": 1.0, "beta": 1.0,
                  "schedule": "0:500:128,500:1000:64,1000:1500:32", "after_end": "freeze_shap",
                  "population": 4, "mutation_rate": 0.1, "mutation_scale": 0.25, "steps": 100,
                  "clamp": [0.0, 1.0]},
    "extraction": {"mode": "guided", "labels": "soft", "query_budget": 5000, "rounds": 4,
                   "samples_per_class": 1, "lr": 0.5, "epochs_per_round": 20, "minibatch": 64,
                   "n_probe": 256, "probe_seed": 17, "probe_kind": "uniform",
                   "probe_boost": 0.6},
}


def run(*argv) -> int:
    return main(list(argv))


def exit_code(*argv) -> int:
    """run's exit code, also where argparse exits with a usage error."""
    try:
        return run(*argv)
    except SystemExit as exc:
        return exc.code


class TestTensorIO:
    def test_binary_roundtrip(self, tmp_path):
        path = tmp_path / "t.tnsr"
        data = np.linspace(-1, 1, 12)
        write_tensor(path, data, (3, 4))
        back, shape = read_tensor(path)
        assert shape == (3, 4)
        assert np.array_equal(back, data)

    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "t.json"
        write_tensor(path, [1.0, 2.5, -3.0], (3,))
        back, shape = read_tensor(path)
        assert shape == (3,)
        assert np.array_equal(back, [1.0, 2.5, -3.0])

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.tnsr"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError):
            read_tensor(path)


class TestExplainCommand:
    def test_root_only_uniform_values(self, tmp_path):
        out = tmp_path / "a.json"
        assert run("explain", "--victim", "linear_softmax", "--seed", "7",
                   "--random", "--max-evals", "2", "--classes", "0",
                   "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        values = payload["values"]
        assert len(set(values)) == 1
        assert payload["evals_used"] == 2

    def test_unlimited_block1_matches_oracle(self, tmp_path):
        # exactness limit holds for additive games: group_symmetric with
        # singleton groups has affine outputs, so the masked game is additive
        a, b = tmp_path / "explain.json", tmp_path / "oracle.json"
        common = ["--victim", "group_symmetric", "--seed", "3", "--num-classes", "3",
                  "--input-shape", "8", "--random", "--block", "1", "--fill", "mean"]
        assert run("explain", *common, "--max-evals", "100000", "--classes", "1",
                   "--out", str(a)) == 0
        assert run("oracle", "shapley", *common, "--classes", "1", "--out", str(b)) == 0
        pa, pb = json.loads(a.read_text()), json.loads(b.read_text())
        assert np.allclose(pa["values"], pb["values"], atol=1e-9)
        assert abs(pa["base_value"] - pb["base_value"]) <= 1e-12

    def test_missing_out_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("explain", "--victim", "linear_softmax", "--random")
        assert exc.value.code == 2

    def test_budget_below_two_exit_three(self, tmp_path):
        assert run("explain", "--victim", "linear_softmax", "--random",
                   "--max-evals", "1", "--out", str(tmp_path / "x.json")) == 3

    def test_input_file_flow(self, tmp_path):
        tensor = tmp_path / "x.tnsr"
        write_tensor(tensor, np.linspace(0, 1, 36), (6, 6))
        out = tmp_path / "attr.json"
        assert run("explain", "--victim", "linear_softmax", "--input", str(tensor),
                   "--max-evals", "16", "--classes", "0", "--out", str(out)) == 0
        assert json.loads(out.read_text())["shape"] == [6, 6]

    def test_normalize_flag_scales_into_unit_range(self, tmp_path):
        raw, norm = tmp_path / "raw.json", tmp_path / "norm.json"
        common = ["explain", "--victim", "linear_softmax", "--seed", "6", "--random",
                  "--max-evals", "20", "--classes", "1"]
        assert run(*common, "--out", str(raw)) == 0
        assert run(*common, "--normalize", "--out", str(norm)) == 0
        pr, pn = json.loads(raw.read_text()), json.loads(norm.read_text())
        peak = max(abs(v) for v in pr["values"])
        assert np.allclose(pn["values"], np.asarray(pr["values"]) / peak, atol=1e-12)
        assert max(abs(v) for v in pn["values"]) <= 1.0
        assert pn["method"] == "partition+normalized"
        assert pn["base_value"] == pr["base_value"]

    @pytest.mark.parametrize("word", ["unlimited", "none", "inf"])
    def test_unlimited_max_evals_overrides_config_file(self, tmp_path, word):
        cfg, out, emitted = tmp_path / "c.json", tmp_path / "a.json", tmp_path / "e.json"
        cfg.write_text(json.dumps({"explainer": {"max_evals": 64}}))
        assert run("explain", "--config", str(cfg), "--victim", "linear_softmax",
                   "--input-shape", "12,12", "--block", "1,1", "--random", "--classes", "0",
                   "--max-evals", word, "--emit-config", str(emitted), "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["max_evals"] is None
        assert payload["evals_used"] > 64
        assert json.loads(emitted.read_text())["explainer"]["max_evals"] is None

    def test_shape_mismatch_exit_two(self, tmp_path):
        tensor = tmp_path / "x.tnsr"
        write_tensor(tensor, np.zeros(4), (2, 2))
        assert run("explain", "--victim", "linear_softmax", "--input", str(tensor),
                   "--out", str(tmp_path / "y.json")) == 2

    def test_quadrant_bright_class_without_cells_exit_two(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert run("explain", "--victim", "quadrant_bright", "--num-classes", "4",
                   "--input-shape", "3", "--random", "--seed", "1", "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            "error: quadrant_bright input (3,) leaves class 3 of 4 without cells\n")
        assert not out.exists()


class TestOracleCommand:
    def test_singleton_groups_reproduce_shapley(self, tmp_path):
        a, b = tmp_path / "s.json", tmp_path / "o.json"
        common = ["--victim", "linear_softmax", "--seed", "5", "--input-shape", "6",
                  "--random", "--block", "1", "--fill", "mean", "--classes", "0"]
        assert run("oracle", "shapley", *common, "--out", str(a)) == 0
        assert run("oracle", "owen", *common, "--groups", "0|1|2|3|4|5",
                   "--out", str(b)) == 0
        pa, pb = json.loads(a.read_text()), json.loads(b.read_text())
        assert np.allclose(pa["values"], pb["values"], atol=1e-9)

    def test_shapley_file_lists_every_class_of_one_fill(self, tmp_path):
        # 18 atoms: the first class pays for the whole dense table.
        out = tmp_path / "all.json"
        assert run("oracle", "shapley", "--victim", "linear_softmax", "--seed", "3",
                   "--input-shape", "3,6", "--random", "--block", "1,1", "--fill", "blur",
                   "--classes", "all", "--out", str(out)) == 0
        payloads = json.loads(out.read_text())
        assert [p["class"] for p in payloads] == list(range(len(payloads)))
        assert payloads[0]["evals_used"] == 1 << 18

    @pytest.mark.parametrize("engine", ["owen", "group-uniform"])
    def test_one_class_file_is_its_payload_of_all_classes(self, tmp_path, engine):
        # 48 atoms in 8 groups of 6. The classes after the first read the
        # shared result and report evals_used 0; every other byte of a
        # payload is that of the class run alone.
        from owenexplain.tensorio import dump_json
        groups = "|".join(",".join(str(r * 8 + c) for r in range(6)) for c in range(8))
        common = ["--victim", "linear_softmax", "--num-classes", "4", "--seed", "3",
                  "--input-shape", "6,8", "--random", "--block", "1,1", "--fill", "blur",
                  "--groups", groups]
        every, one = tmp_path / "all.json", tmp_path / "two.json"
        assert run("oracle", engine, *common, "--classes", "all", "--out", str(every)) == 0
        assert run("oracle", engine, *common, "--classes", "2", "--out", str(one)) == 0
        payloads = json.loads(every.read_text())
        evals = [p["evals_used"] for p in payloads]
        assert evals[0] > 0 and evals[1:] == [0, 0, 0]
        expected = tmp_path / "expected.json"
        dump_json(expected, dict(payloads[2], evals_used=evals[0]))
        assert one.read_bytes() == expected.read_bytes()

    def test_malformed_groups_exit_two(self, tmp_path):
        assert run("oracle", "owen", "--victim", "linear_softmax", "--random",
                   "--block", "1", "--groups", "0,1|x",
                   "--out", str(tmp_path / "o.json")) == 2

    def test_owen_differs_from_shapley_on_interacting_game(self, tmp_path):
        a, b = tmp_path / "s.json", tmp_path / "o.json"
        common = ["--victim", "quadrant_bright", "--num-classes", "4", "--seed", "5",
                  "--input-shape", "6,6", "--temperature", "0.2", "--random",
                  "--block", "3,3", "--fill", "mean", "--classes", "0"]
        assert run("oracle", "shapley", *common, "--out", str(a)) == 0
        assert run("oracle", "owen", *common, "--groups", "0,1|2,3", "--out", str(b)) == 0
        pa, pb = json.loads(a.read_text()), json.loads(b.read_text())
        assert not np.allclose(pa["values"], pb["values"], atol=1e-12)

    # Each engine guard, on the 36 atoms of group_symmetric's default 6x6
    # input, ends in one error line and exit 2 before any model call.
    @pytest.mark.parametrize("engine, groups, message", [
        ("shapley", None, "oracle shapley guard: 36 atoms > 20"),
        ("owen", "|".join(map(str, range(12))) + "|" + ",".join(map(str, range(12, 36))),
         "owen guard: more than 12 groups"),
        ("group-uniform", ",".join(map(str, range(13))) + "|" + ",".join(map(str, range(13, 36))),
         "owen guard: group larger than 12"),
    ])
    def test_engine_guards_exit_two(self, tmp_path, monkeypatch, capsys, engine, groups, message):
        from owenexplain.blackbox import GroupSymmetricVictim
        monkeypatch.setattr(GroupSymmetricVictim, "evaluate", None)  # no model call
        out = tmp_path / "o.json"
        extra = ["--groups", groups] if groups else []
        assert run("oracle", engine, "--victim", "group_symmetric", "--random",
                   "--block", "1,1", "--fill", "mean", *extra, "--out", str(out)) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("command", [["oracle", "shapley"], ["explain"]])
    def test_nan_model_output_exits_five(self, tmp_path, monkeypatch, capsys, command):
        from owenexplain.blackbox import LinearSoftmaxVictim
        monkeypatch.setattr(LinearSoftmaxVictim, "evaluate",
                            lambda self, batch: np.full((len(batch), self.num_classes), np.nan))
        out = tmp_path / "o.json"
        assert run(*command, "--victim", "linear_softmax", "--seed", "5", "--input-shape", "6",
                   "--random", "--block", "1", "--fill", "mean", "--out", str(out)) == 5
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()


class TestSynthCommand:
    def test_default_schedule_matches_reference_staging(self, tmp_path):
        from owenexplain.config import DEFAULTS
        assert DEFAULTS["synthesis"]["schedule"] == "0:500:128,500:1000:64,1000:1500:32"

    def test_single_step_determinism(self, tmp_path):
        args = ["synth", "--victim", "quadrant_bright", "--num-classes", "4",
                "--input-shape", "6,6", "--seed", "3", "--target-class", "1",
                "--steps", "1", "--population", "1"]
        a, b = tmp_path / "a.tnsr", tmp_path / "b.tnsr"
        assert run(*args, "--out", str(a)) == 0
        assert run(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_trace_best_column_monotone(self, tmp_path):
        out, trace = tmp_path / "s.tnsr", tmp_path / "t.csv"
        assert run("synth", "--victim", "quadrant_bright", "--num-classes", "4",
                   "--input-shape", "6,6", "--seed", "4", "--target-class", "0",
                   "--steps", "25", "--out", str(out), "--trace", str(trace)) == 0
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "step,objective,class_obj_term,disagreement_term,evals_used_cum"
        objectives = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(objectives[i] <= objectives[i + 1] + 1e-15 for i in range(len(objectives) - 1))


    # With alpha = 0 no explanation runs, so only the synthesizer's own
    # victim reads, for the disagreement term, see the output.
    def test_nan_victim_output_exits_five(self, tmp_path, monkeypatch, capsys):
        from owenexplain.blackbox import LinearSoftmaxVictim
        monkeypatch.setattr(LinearSoftmaxVictim, "evaluate",
                            lambda self, batch: np.full((len(batch), self.num_classes), np.nan))
        out, trace = tmp_path / "s.tnsr", tmp_path / "t.csv"
        assert run("synth", "--victim", "linear_softmax", "--alpha", "0",
                   "--steps", "3", "--out", str(out), "--trace", str(trace)) == 5
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists() and not trace.exists()


class TestExtractCommand:
    def test_arms_emit_identical_queries_cum(self, tmp_path):
        outs = {}
        for mode in ("guided", "random"):
            out = tmp_path / f"{mode}.csv"
            assert run("extract", "--victim", "linear_softmax", "--num-classes", "4",
                       "--input-shape", "4,4", "--block", "1,1", "--fill", "mean",
                       "--seed", "2", "--mode", mode, "--budget", "600", "--rounds", "2",
                       "--labels", "soft", "--topk", "1",
                       "--out", str(out), "--summary", str(tmp_path / f"{mode}.json")) == 0
            rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
            outs[mode] = [row[1] for row in rows]
        assert outs["guided"] == outs["random"]

    def test_summary_contents(self, tmp_path):
        out, summary = tmp_path / "r.csv", tmp_path / "r.json"
        assert run("extract", "--victim", "linear_softmax", "--input-shape", "4,4",
                   "--block", "1,1", "--fill", "mean", "--seed", "1", "--mode", "random",
                   "--budget", "300", "--rounds", "2", "--labels", "soft", "--topk", "all",
                   "--out", str(out), "--summary", str(summary)) == 0
        payload = json.loads(summary.read_text())
        assert payload["queries_total"] == 300
        assert "probe_charged" not in payload
        assert len(payload["class_histogram"]) == 4
        assert payload["truncated"] is False and payload["truncated_jobs"] == [0, 0, 0]
        lines = out.read_text().splitlines()
        assert lines[0] == "round,queries_cum,agreement,min_class_count,max_class_count,truncated_jobs"
        assert [line.rsplit(",", 1)[1] for line in lines[1:]] == ["0", "0", "0"]


    @pytest.mark.parametrize("mode", ["guided", "random"])
    def test_nan_victim_output_exits_five(self, tmp_path, monkeypatch, capsys, mode):
        # --topk all passes probabilities through unwrapped, so only the
        # wrapper's own check stands between NaN and the substitute
        from owenexplain.blackbox import LinearSoftmaxVictim
        monkeypatch.setattr(LinearSoftmaxVictim, "evaluate",
                            lambda self, batch: np.full((len(batch), self.num_classes), np.nan))
        out = tmp_path / "r.csv"
        assert run("extract", "--victim", "linear_softmax", "--input-shape", "4,4",
                   "--block", "1,1", "--fill", "mean", "--seed", "1", "--mode", mode,
                   "--budget", "300", "--rounds", "2", "--labels", "soft", "--topk", "all",
                   "--out", str(out)) == 5
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    # lr <= 0 is a configuration error; an lr so large that training
    # overflows is only seen while training.
    @pytest.mark.parametrize("lr, code", [(1e308, 6), (0.0, 2), (-1.0, 2)])
    def test_bad_lr_exit_code(self, tmp_path, capsys, lr, code):
        cfg, out = tmp_path / "c.json", tmp_path / "r.csv"
        cfg.write_text(json.dumps({"extraction": {"lr": lr}}))
        assert run("extract", "--config", str(cfg), "--victim", "linear_softmax",
                   "--input-shape", "4,4", "--mode", "random", "--budget", "200",
                   "--out", str(out)) == code
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_diverged_training_prints_one_line(self, tmp_path):
        # Exit 6 keeps the one-line contract of the other exit codes: the
        # overflowing steps print no numpy RuntimeWarning ahead of it.
        cfg, out = tmp_path / "c.json", tmp_path / "r.csv"
        cfg.write_text(json.dumps({"extraction": {"lr": 1e308}}))
        src = Path(__file__).resolve().parents[1] / "src"
        path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
        env = dict(os.environ, PYTHONPATH=path, PYTHONWARNINGS="default")
        result = subprocess.run(
            [sys.executable, "-m", "owenexplain.cli", "extract", "--config", str(cfg),
             "--victim", "linear_softmax", "--input-shape", "4,4", "--mode", "random",
             "--budget", "200", "--out", str(out)],
            env=env, capture_output=True, text=True)
        assert result.returncode == 6
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: training diverged: "), lines
        assert not out.exists()


class TestConfigHandling:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"victim": {"kind": "linear_softmax", "bogus": 1}}))
        assert run("explain", "--config", str(cfg), "--random",
                   "--out", str(tmp_path / "o.json")) == 2

    def test_emit_config_roundtrip(self, tmp_path):
        emitted = tmp_path / "resolved.json"
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run("explain", "--victim", "quadrant_bright", "--num-classes", "4",
                   "--input-shape", "6,6", "--seed", "9", "--random", "--max-evals", "12",
                   "--classes", "0", "--emit-config", str(emitted), "--out", str(out1)) == 0
        # feeding the resolved config back reproduces the run byte for byte
        assert run("explain", "--config", str(emitted), "--random", "--classes", "0",
                   "--max-evals", "12", "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("argv", [
        ["synth", "--victim", "quadrant_bright", "--seed", "5", "--target-class", "1",
         "--schedule", "0:4:16,4:8:8", "--steps", "8"],
        ["extract", "--victim", "quadrant_bright", "--seed", "2", "--mode", "guided",
         "--budget", "120", "--rounds", "2", "--labels", "soft", "--topk", "1"],
    ], ids=["synth", "extract"])
    def test_emit_config_roundtrip_from_the_file_alone(self, tmp_path, argv):
        emitted = tmp_path / "resolved.json"
        out1, out2 = tmp_path / "a.out", tmp_path / "b.out"
        assert run(*argv, "--emit-config", str(emitted), "--out", str(out1)) == 0
        assert run(argv[0], "--config", str(emitted), "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_resolved_default_document(self, tmp_path):
        emitted = tmp_path / "resolved.json"
        assert run("explain", "--random", "--emit-config", str(emitted),
                   "--out", str(tmp_path / "o.json")) == 0
        assert emitted.read_text() == json.dumps(RESOLVED_DEFAULTS, sort_keys=True, indent=2) + "\n"

    # Each document fails before any output with one error line. Where the
    # key's type rejects the value, the message names the key.
    @pytest.mark.parametrize("command, doc, message", [
        ("explain", {"victim": {"num_classes": [4]}}, "config key 'victim.num_classes'"),
        ("explain", {"victim": 5}, "config section 'victim'"),
        ("explain", {"victim": {"input_shape": 6}}, "config key 'victim.input_shape'"),
        ("explain", {"victim": {"group_sizes": 3, "kind": "group_symmetric"}},
         "config key 'victim.group_sizes'"),
        ("explain", {"explainer": {"order": "bogus"}}, "order must be one of"),
        ("explain", {"explainer": {"max_evals": "abc"}}, "config key 'explainer.max_evals'"),
        ("extract", {"extraction": {"rounds": None}}, "config key 'extraction.rounds'"),
        ("extract", {"victim": {"input_shape": [0]}}, "shape dims must be >= 1"),
        ("synth", {"synthesis": {"clamp": [1]}}, "clamp must be a pair lo < hi"),
        ("synth", {"synthesis": {"clamp": 0.5}}, "config key 'synthesis.clamp'"),
        ("synth", {"synthesis": {"schedule": 5}}, "config key 'synthesis.schedule'"),
        ("explain", {"victim": {"num_classes": 4.7}}, "config key 'victim.num_classes'"),
        ("explain", {"victim": {"input_shape": [6.5, 6]}}, "config key 'victim.input_shape'"),
        ("explain", {"seed": 1.5}, "config key 'seed'"),
        ("explain", {"seed": True}, "config key 'seed'"),
        ("explain", {"victim": {"kind": "dead_feature", "dead_index": 99}},
         "dead feature index outside the input"),
        ("explain", {"victim": {"kind": "quadrant_bright", "class_bias": [0.1]}},
         "class_bias length must equal num_classes"),
        ("explain", {"victim": {"kind": "group_symmetric", "group_sizes": [5, 5]}},
         "group sizes must be positive and cover the input"),
        ("extract", {"topk": None}, "config section 'topk'"),
        # Every section is cast at load, also one the command does not read,
        # and a float key takes neither a bool nor a non-finite number.
        ("explain", {"synthesis": {"schedule": 5}}, "config key 'synthesis.schedule'"),
        ("explain", {"extraction": {"rounds": None}}, "config key 'extraction.rounds'"),
        ("explain", {"victim": {"temperature": True}}, "config key 'victim.temperature'"),
        ("extract", {"extraction": {"lr": "nan"}}, "config key 'extraction.lr'"),
        ("synth", {"synthesis": {"alpha": float("inf")}}, "config key 'synthesis.alpha'"),
    ], ids=["num-classes-list", "victim-number", "input-shape-number", "group-sizes-number",
            "order", "max-evals-string", "rounds-null", "input-shape-zero", "clamp-short",
            "clamp-number", "schedule-number", "num-classes-fractional",
            "input-shape-fractional", "seed-fractional", "seed-bool", "dead-index",
            "class-bias", "group-sizes", "topk-null", "unread-schedule", "unread-rounds",
            "temperature-bool", "lr-nan", "alpha-infinite"])
    def test_malformed_document_exits_two(self, tmp_path, capsys, command, doc, message):
        cfg, out = tmp_path / "c.json", tmp_path / "o.out"
        cfg.write_text(json.dumps(doc))
        flags = {"explain": ["--random"], "synth": ["--steps", "2"],
                 "extract": ["--mode", "random", "--budget", "200"]}[command]
        assert run(command, "--config", str(cfg), *flags, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    def test_bad_schema_version(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"schema_version": "99"}))
        assert run("explain", "--config", str(cfg), "--random",
                   "--out", str(tmp_path / "o.json")) == 2

    def test_unwritable_out_is_io_error(self, tmp_path):
        assert run("explain", "--victim", "linear_softmax", "--random",
                   "--max-evals", "4",
                   "--out", str(tmp_path / "missing-dir" / "o.json")) == 4

    @pytest.mark.parametrize("doc", [{"workers": 2}, {"output": {"out": "x"}}],
                             ids=["workers", "output"])
    def test_removed_keys_rejected(self, tmp_path, capsys, doc):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        assert run("synth", "--config", str(cfg), "--steps", "2",
                   "--out", str(tmp_path / "s.tnsr")) == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_workers_env_var_is_ignored(self, tmp_path):
        # Synthesis is sequential; OWEN_EXPLAIN_WORKERS is not read at all.
        src = Path(__file__).resolve().parents[1] / "src"
        path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
        base = {k: v for k, v in os.environ.items() if k != "OWEN_EXPLAIN_WORKERS"}
        outputs = []
        for extra in ({}, {"OWEN_EXPLAIN_WORKERS": "bogus"}):
            out = tmp_path / f"s{len(outputs)}.tnsr"
            env = dict(base, PYTHONPATH=path, **extra)
            result = subprocess.run(
                [sys.executable, "-m", "owenexplain.cli", "synth", "--victim",
                 "quadrant_bright", "--num-classes", "4", "--input-shape", "6,6",
                 "--seed", "3", "--target-class", "1", "--steps", "8", "--out", str(out)],
                env=env, capture_output=True, text=True)
            assert result.returncode == 0, result.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestFlags:
    def test_config_flags_name_config_keys(self):
        from owenexplain.config import DEFAULTS
        [sub] = [a for a in build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
        keys = set()
        for command, parser in sub.choices.items():
            for action in parser._actions:
                section, _, key = action.dest.partition(".")
                if key:
                    assert key in DEFAULTS.get(section, {}), (command, action.dest)
                if key or action.dest == "seed":
                    assert action.default is argparse.SUPPRESS, (command, action.dest)
                    keys.add(action.dest)
        assert {"seed", "explainer.max_evals", "topk.k", "extraction.labels"} <= keys

    # The extraction section flattens ProbeConfig's fields as probe_*.
    @pytest.mark.parametrize("spec, section, prefix", [
        (TrainConfig, "extraction", ""),
        (SearchParams, "synthesis", ""),
        (ObjectiveWeights, "synthesis", ""),
        (ProbeConfig, "extraction", "probe_"),
    ], ids=["TrainConfig", "SearchParams", "ObjectiveWeights", "ProbeConfig"])
    def test_config_defaults_equal_dataclass_defaults(self, spec, section, prefix):
        from owenexplain.config import DEFAULTS
        keys = DEFAULTS[section]
        unkeyed = set()
        for field in dataclasses.fields(spec):
            key = next((k for k in (field.name, prefix + field.name) if k in keys), None)
            if key is None:
                unkeyed.add(field.name)
            else:
                value = keys[key]
                assert (type(value), value) == (type(field.default), field.default), key
        # ProbeConfig.base_level is the one field no config key sets.
        assert unkeyed <= {"base_level"}

    @pytest.mark.parametrize("argv", [
        ["explain", "--random", "--input-shape", "6,x"],
        ["explain", "--random", "--block", "2,x"],
        ["explain", "--random", "--classes", "x"],
        ["oracle", "shapley", "--random", "--classes", "x"],
        ["synth", "--budget", "abc"],
        ["extract", "--topk", "x"],
    ], ids=["input-shape", "block", "explain-classes", "oracle-classes", "synth-budget", "topk"])
    def test_malformed_value_exits_two(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        assert exit_code(*argv, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "error: " in err and "Traceback" not in err
        assert not out.exists()

    # argparse prints a type's own message, not the private helper's name
    @pytest.mark.parametrize("argv, message", [
        (["explain", "--random", "--block", "2,x"],
         "argument --block: expected comma-separated integers such as 6,6, got '2,x'"),
        (["extract", "--topk", "x"], "argument --topk: expected an integer k or all, got 'x'"),
        (["synth", "--budget", "abc"],
         "argument --budget: expected an integer or unlimited, got 'abc'"),
    ], ids=["int-list", "topk", "max-evals"])
    def test_malformed_value_message_says_what_flag_expects(self, tmp_path, capsys, argv,
                                                            message):
        assert exit_code(*argv, "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].endswith(f"error: {message}")
        assert "_parse" not in err

    def test_config_file_classes_not_an_integer(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"explainer": {"classes": "x"}}))
        assert run("explain", "--config", str(cfg), "--random",
                   "--out", str(tmp_path / "o.json")) == 2
        assert capsys.readouterr().err == "error: classes must be all or a class index, got 'x'\n"

    # --topk and --labels together set the topk section; an invalid pair
    # is still emitted before it fails with exit 2.
    @pytest.mark.parametrize("topk, labels, section", [
        (None, None, {"mode": "all", "k": None}),
        ("1", None, {"mode": "all", "k": 1}),
        ("all", None, {"mode": "all", "k": None}),
        (None, "soft", {"mode": "soft", "k": None}),
        ("1", "soft", {"mode": "soft", "k": 1}),
        ("all", "soft", {"mode": "all", "k": None}),
        ("2", "hard", {"mode": "hard", "k": 2}),
        ("all", "hard", {"mode": "hard", "k": None}),
    ])
    def test_topk_and_labels_resolve(self, tmp_path, topk, labels, section):
        emitted = tmp_path / "e.json"
        argv = ["extract", "--input-shape", "2,2", "--block", "1,1", "--mode", "random",
                "--budget", "20", "--rounds", "1", "--emit-config", str(emitted),
                "--out", str(tmp_path / "r.csv")]
        argv += ["--topk", topk] if topk else []
        argv += ["--labels", labels] if labels else []
        assert run(*argv) in (0, 2)
        cfg = json.loads(emitted.read_text())
        assert cfg["topk"] == section
        assert cfg["extraction"]["labels"] == (labels or "soft")


class TestDeterminism:
    def test_rerun_byte_identical_across_worker_counts(self, tmp_path):
        files = {}
        for workers in ("1", "4"):
            out = tmp_path / f"s{workers}.tnsr"
            trace = tmp_path / f"t{workers}.csv"
            assert run("synth", "--victim", "quadrant_bright", "--num-classes", "4",
                       "--input-shape", "6,6", "--seed", "13", "--target-class", "2",
                       "--steps", "12", "--workers", workers,
                       "--out", str(out), "--trace", str(trace)) == 0
            files[workers] = (out.read_bytes(), trace.read_bytes())
        assert files["1"] == files["4"]

    def test_explain_rerun_identical(self, tmp_path):
        args = ["explain", "--victim", "linear_softmax", "--seed", "21", "--random",
                "--max-evals", "30", "--classes", "all"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(*args, "--out", str(a)) == 0
        assert run(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()
