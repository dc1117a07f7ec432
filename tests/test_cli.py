import argparse
import ast
import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import homodyne_feedback
from homodyne_feedback import EnsembleResult, analysis, cli, validation
from homodyne_feedback.cli import CSV_HEADER, TRAJ_HEADER, main
from homodyne_feedback.svgfig import histogram_svg


def read_csv(path):
    lines = path.read_text().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    rows = [l for l in lines if not l.startswith("#")]
    return comments, rows[0], [r.split(",") for r in rows[1:]]


class TestSimulate:
    def test_ground_state_column_constant(self, tmp_path):
        out = tmp_path / "ens.csv"
        code = main(
            [
                "simulate", "--policy", "none", "--initial", "ground",
                "--steps", "100", "--trajectories", "50", "--out", str(out),
            ]
        )
        assert code == 0
        _, header, rows = read_csv(out)
        assert header == CSV_HEADER
        col = header.split(",").index("mean_sz")
        assert all(float(r[col]) == -1.0 for r in rows)

    def test_inversion_pins_excited_state(self, tmp_path):
        out = tmp_path / "ens.csv"
        assert main(
            [
                "simulate", "--policy", "invert", "--initial", "excited",
                "--steps", "100", "--trajectories", "50", "--out", str(out),
            ]
        ) == 0
        _, header, rows = read_csv(out)
        col = header.split(",").index("mean_sz")
        assert all(float(r[col]) == 1.0 for r in rows)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_seeded_runs_are_byte_identical(self, tmp_path, fmt):
        # the two runs write to different paths, which must not show in the bytes
        a, b = tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"
        for out in (a, b):
            assert main(
                [
                    "simulate", "--seed", "7", "--steps", "50", "--format", fmt,
                    "--trajectories", "20", "--out", str(out),
                ]
            ) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_output_embeds_configuration(self, tmp_path):
        out = tmp_path / "ens.csv"
        assert main(
            ["simulate", "--seed", "3", "--steps", "10", "--out", str(out)]
        ) == 0
        comments, _, _ = read_csv(out)
        joined = "\n".join(comments)
        assert "seed=3" in joined
        assert "gamma=1.0" in joined
        assert "policy=none" in joined

    def test_json_format(self, tmp_path):
        out = tmp_path / "ens.json"
        assert main(
            [
                "simulate", "--format", "json", "--steps", "10",
                "--trajectories", "5", "--out", str(out),
            ]
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["seed"] == 0
        assert set(payload["columns"]) == {
            "step", "time", "mean_sx", "mean_sz", "var_sx", "var_sz", "se_sx", "se_sz",
        }
        assert len(payload["columns"]["time"]) == 11

    def test_dump_trajectories(self, tmp_path):
        out = tmp_path / "ens.csv"
        dump = tmp_path / "traj.csv"
        assert main(
            [
                "simulate", "--steps", "5", "--trajectories", "3",
                "--out", str(out), "--dump-trajectories", str(dump),
            ]
        ) == 0
        _, header, rows = read_csv(dump)
        assert header == TRAJ_HEADER
        assert len(rows) == 15

    # sha256 of the whole dump file; a changed byte is an RNG, model or
    # format change, never an optimisation
    DUMP_PINNED = "3b392413be0e17c5792c4ddd8db317892b9a0742051ec7f30acfc0c59d185431"

    def test_dump_trajectories_bytes_pinned(self, tmp_path):
        dump = tmp_path / "traj.csv"
        assert main(
            [
                "simulate", "--policy", "custom:0.37", "--initial", "phi:0.3",
                "--steps", "300", "--trajectories", "5",
                "--out", str(tmp_path / "ens.csv"), "--dump-trajectories", str(dump),
            ]
        ) == 0
        assert hashlib.sha256(dump.read_bytes()).hexdigest() == self.DUMP_PINNED

    # the same for an unfed excited atom, whose records start from a
    # mixture weight of exactly 1/2
    DUMP_PINNED_UNFED = "40274d13d6d34fbd761beba5a411884e64a0b090f849d6c38ae611928a262e54"

    def test_dump_trajectories_bytes_pinned_unfed(self, tmp_path):
        dump = tmp_path / "traj.csv"
        assert main(
            [
                "simulate", "--policy", "none", "--initial", "excited", "--seed", "5",
                "--steps", "120", "--trajectories", "4",
                "--out", str(tmp_path / "ens.csv"), "--dump-trajectories", str(dump),
            ]
        ) == 0
        assert hashlib.sha256(dump.read_bytes()).hexdigest() == self.DUMP_PINNED_UNFED

    @pytest.mark.parametrize("sampling", ["vacuum", "conditional"])
    def test_sampling_is_not_settable(self, tmp_path, capsys, sampling):
        # the dynamics draw one record law, the atom-conditioned one, so
        # even naming it is refused
        out = tmp_path / "ens.csv"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--sampling", sampling, "--out", str(out)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: --sampling {sampling}" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"steps=5\nsampling={sampling}\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"{cfg}:2: unknown key 'sampling'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("target", ["csv", "json", "dump"])
    def test_settings_record_conditional_sampling(self, tmp_path, target):
        # one fixed entry, where the sampling flag's value used to be: the
        # sorted CSV comments, and right after "policy" in the JSON config
        out, dump = tmp_path / "ens.out", tmp_path / "traj.csv"
        fmt = "json" if target == "json" else "csv"
        assert main(
            [
                "simulate", "--steps", "3", "--trajectories", "2", "--format", fmt,
                "--out", str(out), "--dump-trajectories", str(dump),
            ]
        ) == 0
        if target == "json":
            keys = list(json.loads(out.read_text())["config"])
            assert keys[keys.index("policy") + 1] == "sampling"
            assert json.loads(out.read_text())["config"]["sampling"] == "conditional"
        else:
            comments, _, _ = read_csv(dump if target == "dump" else out)
            assert "# sampling=conditional" in comments
            assert comments == sorted(comments)

    def test_oracle_settings_name_no_sampling(self, tmp_path):
        # the oracle draws no records, so its settings carry no sampling entry
        out = tmp_path / "pmf.csv"
        assert main(["oracle", "--alpha", "2", "--out", str(out)]) == 0
        comments, _, _ = read_csv(out)
        assert comments == ["# alpha=2.0", "# source=vacuum"]

    def test_unwritable_dump_exits_3(self, tmp_path):
        assert main(
            [
                "simulate", "--steps", "5", "--trajectories", "2",
                "--out", str(tmp_path / "ens.csv"),
                "--dump-trajectories", str(tmp_path / "missing" / "traj.csv"),
            ]
        ) == 3

    def test_invalid_policy_exits_2(self, tmp_path):
        assert main(
            ["simulate", "--policy", "bogus", "--out", str(tmp_path / "x.csv")]
        ) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--policy", "custom:nan", "--steps", "5"],
            ["simulate", "--policy", "custom:inf", "--steps", "5"],
            ["figure", "--kind", "drift-field", "--policy", "custom:-inf"],
        ],
    )
    def test_gain_out_of_range_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "x"
        assert main([*argv, "--out", str(out)]) == 2
        assert "custom gain must be finite, got " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv,warned",
        [
            # |g| = 100 with a rotation scale of 0.1: no warning
            (["--tau", "1e-6", "--policy", "custom:100"], []),
            (["--policy", "custom:10.5"], ["rotation scale"]),
            (["--tau", "0.3", "--policy", "compensate"], ["weak-field", "rotation scale"]),
        ],
        ids=["custom-100", "custom-10.5", "tau-0.3"],
    )
    def test_gain_below_the_full_turn_runs(self, tmp_path, argv, warned):
        # a run's gain is bounded by the full-turn refusal alone
        out = tmp_path / "ens.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", *argv, "--steps", "20", "--trajectories", "8",
                         "--out", str(out)]) == 0
        phrases = ("weak-field", "rotation scale")
        assert [p for w in caught for p in phrases if p in str(w.message)] == warned
        assert len(caught) == len(warned)
        assert "nan" not in out.read_text()

    @pytest.mark.parametrize("value", ["abc", "1.5", "", "0"])
    def test_bad_sim_threads_exits_2(self, tmp_path, monkeypatch, capsys, value):
        monkeypatch.setenv("SIM_THREADS", value)
        out = tmp_path / "x.csv"
        assert main(["simulate", "--steps", "5", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"SIM_THREADS must be a positive integer, got {value!r}" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "alpha,code",
        [
            # 10 alpha overflows float64, so SimParams refuses alpha before any run
            ("1e308", 2),
            ("1e307", 0),
        ],
    )
    def test_overflowing_alpha_exits_2_before_writing(self, tmp_path, capsys, alpha, code):
        out, dump = tmp_path / "ens.csv", tmp_path / "traj.csv"
        assert main(
            [
                "simulate", "--alpha", alpha, "--steps", "5", "--trajectories", "4",
                "--out", str(out), "--dump-trajectories", str(dump),
            ]
        ) == code
        if code:
            message = f"error: alpha = {float(alpha):g} is too large: 10*alpha overflows float64"
            assert capsys.readouterr().err.splitlines() == [message]
            assert list(tmp_path.iterdir()) == []
        else:
            assert "nan" not in out.read_text()

    @pytest.mark.parametrize(
        "alpha,message",
        [
            ("1e308", "alpha = 1e+308 is too large: 10*alpha overflows float64"),
            ("5e-324", "alpha = 4.94066e-324 is too small: its record centre is subnormal"),
        ],
    )
    def test_alpha_outside_float_range_exits_2(self, tmp_path, capsys, alpha, message):
        # one trajectory of one step: the refusal does not wait for the run,
        # nor depend on whether some draw overflows
        out, dump = tmp_path / "ens.csv", tmp_path / "traj.csv"
        argv = ["simulate", "--alpha", alpha, "--steps", "1", "--trajectories", "1"]
        assert main([*argv, "--out", str(out), "--dump-trajectories", str(dump)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv,scale",
        [
            (["simulate", "--tau", "0.1", "--policy", "custom:10", "--steps", "3",
              "--trajectories", "2"], "3.16"),
            (["figure", "--kind", "decay", "--tau", "0.01", "--policy", "custom:8"], "0.8"),
            # the default gamma*tau = 1e-3 runs g in (-20.88, 22.88)
            (["simulate", "--policy", "custom:25", "--steps", "3"], "0.791"),
            # no feedback runs at gamma*tau < 0.1218
            (["simulate", "--tau", "0.13", "--policy", "none", "--steps", "3"], "0.721"),
        ],
        ids=["simulate", "figure-decay", "custom-25", "tau-0.13"],
    )
    def test_full_turn_step_exits_2(self, tmp_path, capsys, recwarn, argv, scale):
        # one step could turn the atom by a full circle: refused before the
        # rotation warning (gamma*tau above 0.01 still gives SimParams' warning)
        assert main([*argv, "--out", str(tmp_path / "x")]) == 2
        message = f"error: per-step rotation scale {scale} lets one step turn by a full circle"
        assert capsys.readouterr().err.splitlines() == [message]
        assert list(tmp_path.iterdir()) == []
        assert not [w for w in recwarn if "rotation" in str(w.message)]

    def test_unwritable_out_exits_3(self, tmp_path):
        assert main(
            ["simulate", "--steps", "5", "--out", str(tmp_path / "no_dir" / "x.csv")]
        ) == 3

    def test_missing_out_exits_2(self):
        assert main(["simulate", "--steps", "5"]) == 2


class TestConfigFile:
    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps=10\nseed=5\ninitial=ground\n")
        out = tmp_path / "a.csv"
        assert main(
            ["simulate", "--config", str(cfg), "--steps", "20", "--out", str(out)]
        ) == 0
        comments, _, rows = read_csv(out)
        assert "# steps=20" in comments
        assert "# seed=5" in comments
        assert len(rows) == 21

    def test_duplicate_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps=10\n# later\nsteps=20\n")
        out = tmp_path / "a.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {cfg}:3: duplicate key 'steps'"]
        assert not out.exists()

    def test_unknown_key_exits_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("stepz=10\n")
        assert main(
            ["simulate", "--config", str(cfg), "--out", str(tmp_path / "a.csv")]
        ) == 2

    @pytest.mark.parametrize(
        "text,message",
        [
            ("steps 10\n", "{cfg}:1: expected key=value, got 'steps 10'"),
            ("steps=abc\n",
             "{cfg}: bad value for 'steps': invalid literal for int() with base 10: 'abc'"),
            ("seed=1\ngamma=fast\n",
             "{cfg}: bad value for 'gamma': could not convert string to float: 'fast'"),
        ],
        ids=["no-equals", "int", "float"],
    )
    def test_unreadable_line_exits_2_naming_file_and_key(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        out = tmp_path / "a.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: " + message.replace("{cfg}", str(cfg))
        ]
        assert not out.exists()


class TestOracle:
    def test_vacuum_alpha_two(self, tmp_path):
        out = tmp_path / "pmf.csv"
        assert main(
            ["oracle", "--alpha", "2", "--source", "vacuum", "--out", str(out)]
        ) == 0
        _, header, rows = read_csv(out)
        assert header == "delta_n,probability"
        by_k = {int(r[0]): float(r[1]) for r in rows}
        assert by_k[0] == pytest.approx(0.2070019212, abs=1e-9)
        summary = json.loads((tmp_path / "pmf.summary.json").read_text())
        assert summary["mean"] == pytest.approx(0.0, abs=1e-10)
        assert summary["variance"] == pytest.approx(4.0, abs=1e-8)
        assert summary["skellam_max_abs_err"] < 1e-10

    def test_weak_field_distance_at_alpha_six(self, tmp_path):
        out = tmp_path / "pmf.csv"
        assert main(
            ["oracle", "--alpha", "6", "--source", "vacuum", "--out", str(out)]
        ) == 0
        summary = json.loads((tmp_path / "pmf.summary.json").read_text())
        assert summary["tv_distance_vs_gaussian_model"] < 0.02

    def test_zero_alpha_single_row(self, tmp_path):
        out = tmp_path / "pmf.csv"
        assert main(
            ["oracle", "--alpha", "0", "--source", "vacuum", "--out", str(out)]
        ) == 0
        _, _, rows = read_csv(out)
        assert len(rows) == 1
        assert rows[0][0] == "0"
        assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-12)

    def test_qubit_source(self, tmp_path):
        out = tmp_path / "pmf.csv"
        c = 1.0 / 2.0**0.5
        assert main(
            [
                "oracle", "--alpha", "4",
                "--source", f"qubit:{c},0,{c},0", "--out", str(out),
            ]
        ) == 0
        summary = json.loads((tmp_path / "pmf.summary.json").read_text())
        assert summary["mean"] == pytest.approx(4.0, abs=1e-8)
        assert "skellam_max_abs_err" not in summary

    @pytest.mark.parametrize(
        "flags",
        [
            # exp(-alpha^2/2) underflows to 0: exit 4 before any array is sized
            ["--alpha", "40"],
            ["--alpha", "1e200"],
            ["--source", "coherent:1e200,0"],
            ["--alpha", "2", "--source", "coherent:40,0"],
            # a subnormal exp(-alpha^2/2) leaves the recurrence too few bits:
            # these used to exit 4 blaming a leakage, or a norm of 1.035
            ["--alpha", "38.1"],
            ["--alpha", "38.5"],
            ["--alpha", "2", "--source", "coherent:38.1,0"],
        ],
    )
    def test_cutoff_too_small_exits_4(self, tmp_path, capsys, flags):
        assert main(["oracle", *flags, "--out", str(tmp_path / "pmf.csv")]) == 4
        assert list(tmp_path.iterdir()) == []
        # the error names the amplitude that underflows: the LO's or the source's
        [err] = capsys.readouterr().err.splitlines()
        name = "|beta|" if "--source" in flags else "alpha"
        amplitude = float(flags[-1].split(":")[-1].split(",")[0])
        vacuum = math.exp(-0.5 * amplitude * amplitude)
        assert err == (
            f"error: {name} = {amplitude:g} is too large: "
            f"exp(-{name}^2/2) underflows to {vacuum:g}"
        )

    def test_alpha_with_normal_vacuum_term_runs(self, tmp_path):
        # exp(-37.5^2/2) ~ 5e-306 is still a normal float
        assert main(["oracle", "--alpha", "37.5", "--out", str(tmp_path / "pmf.csv")]) == 0
        summary = json.loads((tmp_path / "pmf.summary.json").read_text())
        assert summary["variance"] == pytest.approx(37.5**2, rel=1e-9)

    def test_tiny_alpha_runs_without_warning(self, tmp_path, capsys):
        # the Gaussian model's bin edges (k -/+ 0.5) / alpha overflow to
        # -/+inf, where ndtr is exactly 0 and 1
        out = tmp_path / "pmf.csv"
        assert main(["oracle", "--alpha", "1e-320", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        summary = json.loads((tmp_path / "pmf.summary.json").read_text())
        assert summary["tv_distance_vs_gaussian_model"] == 0.0

    @pytest.mark.parametrize(
        "alpha,source,mean,variance",
        [
            # c1 = 1e-320: mean 2 alpha Re(c0* c1) ~ 0, variance alpha^2 (1 + 2|c1|^2) + |c1|^2
            (3.0, "qubit:1,0,1e-320,0", 0.0, 9.0),
            # beta = 1e-160, whose |beta|^2 / sqrt(2) term is subnormal: mean
            # 2 alpha beta ~ 0, variance alpha^2 + |beta|^2
            (2.0, "coherent:1e-160,0", 0.0, 4.0),
        ],
    )
    def test_subnormal_source_amplitude(self, tmp_path, alpha, source, mean, variance):
        out = tmp_path / "pmf.csv"
        assert main(
            ["oracle", "--alpha", repr(alpha), "--source", source, "--out", str(out)]
        ) == 0
        _, _, rows = read_csv(out)
        probs = np.array([float(r[1]) for r in rows])
        assert np.all(np.isfinite(probs)) and probs.sum() == pytest.approx(1.0, abs=1e-9)

        def refuse(name):
            raise ValueError(f"non-finite {name} in the summary")

        text = (tmp_path / "pmf.summary.json").read_text()
        summary = json.loads(text, parse_constant=refuse)
        assert summary["mean"] == pytest.approx(mean, abs=1e-8)
        assert summary["variance"] == pytest.approx(variance, rel=1e-8)

    def test_lost_norm_exits_4(self, tmp_path, capsys):
        # a strong coherent source loses norm to cancellation in the expansion
        flags = ["--alpha", "6", "--source", "coherent:4,0"]
        assert main(["oracle", *flags, "--out", str(tmp_path / "pmf.csv")]) == 4
        assert capsys.readouterr().err == "error: output norm 1.00000000178 deviates from 1\n"
        assert list(tmp_path.iterdir()) == []

    def test_cutoff_is_not_settable(self, tmp_path, capsys):
        # the oracle sizes its truncation from the amplitudes alone
        out = tmp_path / "pmf.csv"
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--cutoff", "5", "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --cutoff 5" in capsys.readouterr().err
        cfg = tmp_path / "oracle.cfg"
        cfg.write_text("alpha=2\ncutoff=5\n")
        assert main(["oracle", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"{cfg}:2: unknown key 'cutoff'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize(
    "argv,message",
    [
        (["simulate", "--alpha", "inf", "--steps", "5"], "alpha must be finite and > 0, got inf"),
        (["simulate", "--alpha", "nan", "--steps", "5"], "alpha must be finite and > 0, got nan"),
        (
            ["figure", "--kind", "drift-field", "--alpha", "inf"],
            "alpha must be finite and > 0, got inf",
        ),
        (["oracle", "--alpha", "inf"], "lo_alpha must be finite and >= 0, got inf"),
        (["oracle", "--alpha", "nan"], "lo_alpha must be finite and >= 0, got nan"),
        (["oracle", "--source", "coherent:inf,0"], "beta must be finite, got (inf+0j)"),
        (["oracle", "--source", "coherent:nan,0"], "beta must be finite, got (nan+0j)"),
        (["oracle", "--source", "qubit:nan,0,0,0"], "c0 must be finite, got (nan+0j)"),
    ],
)
def test_non_finite_input_exits_2(tmp_path, capsys, argv, message):
    assert main([*argv, "--out", str(tmp_path / "x")]) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # no output, and no oracle summary


@pytest.mark.parametrize(
    "argv,message",
    [
        (["simulate", "--initial", "phi:abc"],
         "bad initial angle in 'phi:abc': could not convert string to float: 'abc'"),
        (["simulate", "--initial", "sideways"], "unknown initial state 'sideways'"),
        (["simulate", "--format", "xml"], "unknown format 'xml'"),
        (["simulate", "--gamma", "1e-308", "--tau", "1e305", "--steps", "10000"],
         "n_steps * tau must be finite"),
        (["simulate", "--gamma", "1e-200", "--tau", "1e-200"],
         "gamma*tau = 1e-200*1e-200 = 0 is not in (0, 1)"),
        (["simulate", "--tau", "1"], "gamma*tau = 1*1 = 1 is not in (0, 1)"),
        # the drift field has no full-turn bound, but its rotations must be finite
        (["figure", "--kind", "drift-field", "--policy", "custom:1.7e308"],
         "drift field overflows float64 at gain g = 1.7e+308"),
        (["figure", "--kind", "drift-field", "--policy", "custom:-1.7e308"],
         "drift field overflows float64 at gain g = -1.7e+308"),
        (["figure", "--kind", "record-histogram", "--sampling", "both"],
         "unknown sampling mode 'both'"),
        (["oracle", "--source", "coherent:1"], "coherent source needs RE,IM: 'coherent:1'"),
        (["oracle", "--source", "qubit:1,0,0"],
         "qubit source needs C0RE,C0IM,C1RE,C1IM: 'qubit:1,0,0'"),
        (["oracle", "--source", "thermal"], "unknown source 'thermal'"),
        (["oracle", "--source", "coherent:x,0"],
         "bad source amplitude in 'coherent:x,0': could not convert string to float: 'x'"),
        (["oracle", "--source", "qubit:1,0,0,y"],
         "bad source amplitude in 'qubit:1,0,0,y': could not convert string to float: 'y'"),
    ],
    ids=["initial-angle", "initial-name", "format", "run-time", "gamma-tau", "tau-1",
         "drift-field-gain-high", "drift-field-gain-low", "sampling",
         "coherent", "qubit", "source", "coherent-amplitude", "qubit-amplitude"],
)
def test_invalid_value_exits_2_with_one_line(tmp_path, capsys, argv, message):
    assert main([*argv, "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert list(tmp_path.iterdir()) == []  # no output, and no oracle summary


def _pythonpath():
    """PYTHONPATH for a child interpreter that imports this package's source."""
    src = str(Path(homodyne_feedback.__file__).resolve().parents[1])
    return os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)


def test_console_run_exits_with_main_code(tmp_path):
    # `python -m homodyne_feedback.cli` and the installed `hdsim` script
    # both end in entrypoint, which exits with main's return code
    out = tmp_path / "x.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "homodyne_feedback.cli", "simulate", "--format", "xml",
         "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=_pythonpath()), capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["error: unknown format 'xml'"]
    assert proc.stdout == ""
    assert list(tmp_path.iterdir()) == []


def test_stats_header_is_ensemble_result_fields():
    # one name per statistic: the columns after "step" are EnsembleResult's
    # field names, and the benchmark checks its outputs against the same header
    fields = [f.name for f in dataclasses.fields(EnsembleResult)]
    assert CSV_HEADER.split(",") == ["step", *fields]
    workloads = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    stats_header = next(
        ast.literal_eval(node.value)
        for node in ast.parse(workloads.read_text()).body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["STATS_HEADER"]
    )
    assert CSV_HEADER == stats_header


def test_each_command_takes_exactly_its_spec():
    # one spec per command: its options are --KEY for each key, in the spec's
    # order, after -h/--help and, when it reads any key, --config
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(cli._SPECS)
    for name, parser in sub.choices.items():
        spec = cli._SPECS[name]
        options = [o for action in parser._actions for o in action.option_strings]
        config = ["--config"] if spec else []
        assert options == ["-h", "--help", *config, *(f"--{k}" for k in spec)], name


def test_figure_values_are_the_kinds_union_in_help_order():
    assert list(cli._SPECS["figure"]) == ["kind", *cli._FIGURE_VALUES, "out"]
    assert list(cli._FIGURE_VALUES) == [
        "gamma", "tau", "alpha", "policy", "initial", "steps", "trajectories", "seed",
        "sampling", "samples", "bins", "grid",
    ]
    # test_kind_table_covers_every_value checks the keys are the kinds' union;
    # a flag parses its value one way, whichever kind reads it
    for spec in cli._FIGURE_KINDS.values():
        for key, (conv, _default) in spec.items():
            assert cli._FIGURE_VALUES[key][0] is conv, key


def fixed_point_centers(svg_text):
    pts = []
    for m in re.finditer(
        r'<circle class="fixed-point" cx="([-0-9.]+)" cy="([-0-9.]+)"', svg_text
    ):
        pts.append((float(m.group(1)), float(m.group(2))))
    return pts


class TestFigure:
    def test_drift_field_no_feedback_dot_at_bottom(self, tmp_path):
        out = tmp_path / "fig.svg"
        assert main(
            ["figure", "--kind", "drift-field", "--policy", "none", "--out", str(out)]
        ) == 0
        pts = fixed_point_centers(out.read_text())
        assert len(pts) == 1
        cx, cy = pts[0]
        assert cx == pytest.approx(150.0, abs=1e-6)
        assert cy == pytest.approx(240.0, abs=1e-6)  # circle bottom = ground

    def test_drift_field_inversion_dot_at_top(self, tmp_path):
        out = tmp_path / "fig.svg"
        assert main(
            ["figure", "--kind", "drift-field", "--policy", "invert", "--out", str(out)]
        ) == 0
        pts = fixed_point_centers(out.read_text())
        assert len(pts) == 1
        assert pts[0][1] == pytest.approx(40.0, abs=1e-6)  # circle top = excited

    def test_drift_field_default_has_three_panels(self, tmp_path):
        out = tmp_path / "fig.svg"
        assert main(["figure", "--kind", "drift-field", "--out", str(out)]) == 0
        text = out.read_text()
        assert len(fixed_point_centers(text)) == 4  # 1 + 2 + 1 stationary dots
        assert text.count("Compensation") == 1

    def test_decay_figure(self, tmp_path):
        out = tmp_path / "fig.svg"
        assert main(
            [
                "figure", "--kind", "decay", "--steps", "50",
                "--trajectories", "20", "--out", str(out),
            ]
        ) == 0
        assert 'class="mean-sz"' in out.read_text()

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--steps", "5"],
            ["figure", "--kind", "drift-field"],
            ["figure", "--kind", "decay", "--steps", "5"],
        ],
    )
    def test_empty_policy_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "x"
        assert main([*argv, "--policy", "", "--out", str(out)]) == 2
        assert "unknown policy ''" in capsys.readouterr().err
        assert not out.exists()

    # a valid, cheap setting of each value a figure kind may read
    VALID = {
        "gamma": "1", "tau": "1e-3", "alpha": "100", "policy": "compensate",
        "sampling": "conditional", "initial": "dipole+", "steps": "5",
        "trajectories": "5", "seed": "1", "samples": "100", "bins": "10", "grid": "8",
    }
    UNREAD = [
        (kind, key) for kind, reads in cli._FIGURE_KINDS.items()
        for key in cli._FIGURE_VALUES if key not in reads
    ]

    def test_kind_table_covers_every_value(self):
        assert set(self.VALID) == set(cli._FIGURE_VALUES)
        read = [key for reads in cli._FIGURE_KINDS.values() for key in reads]
        assert set(read) == set(cli._FIGURE_VALUES)
        # 3 kinds x 12 values, of which each kind reads 5 to 8
        assert (len(read), len(self.UNREAD)) == (21, 15)

    @pytest.mark.parametrize("kind,key", UNREAD)
    def test_unread_flag_exits_2(self, tmp_path, capsys, kind, key):
        out = tmp_path / "x.svg"
        argv = ["figure", "--kind", kind, f"--{key}", self.VALID[key], "--out", str(out)]
        assert main(argv) == 2
        takes = ", ".join(f"--{k}" for k in cli._FIGURE_KINDS[kind])
        err = capsys.readouterr().err
        assert f"figure --kind {kind} does not take --{key} (it takes {takes})" in err
        assert not out.exists()

    @pytest.mark.parametrize("kind,key", UNREAD)
    def test_unread_config_key_exits_2(self, tmp_path, capsys, kind, key):
        cfg = tmp_path / "fig.cfg"
        cfg.write_text(f"kind={kind}\n{key}={self.VALID[key]}\n")
        out = tmp_path / "x.svg"
        assert main(["figure", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"{cfg}:2: unknown key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flags", "config"])
    @pytest.mark.parametrize("kind", sorted(cli._FIGURE_KINDS))
    def test_kind_accepts_every_value_it_reads(self, tmp_path, kind, source):
        settings = {key: self.VALID[key] for key in cli._FIGURE_KINDS[kind]}
        if source == "flags":
            argv = ["--kind", kind, *(a for k, v in settings.items() for a in (f"--{k}", v))]
        else:
            cfg = tmp_path / "fig.cfg"
            cfg.write_text("".join(f"{k}={v}\n" for k, v in {"kind": kind, **settings}.items()))
            argv = ["--config", str(cfg)]
        out = tmp_path / "x.svg"
        assert main(["figure", *argv, "--out", str(out)]) == 0
        assert out.read_text().rstrip().endswith("</svg>")

    def test_kind_flag_overrides_config_kind(self, tmp_path, capsys):
        cfg = tmp_path / "fig.cfg"
        cfg.write_text("kind=record-histogram\nsamples=100\n")
        out = tmp_path / "x.svg"
        argv = ["figure", "--config", str(cfg), "--out", str(out)]
        assert main(argv) == 0
        assert 'class="bin"' in out.read_text()
        # drift-field does not read samples, so the file's samples= is unknown to it
        assert main([*argv, "--kind", "drift-field"]) == 2
        assert f"{cfg}:2: unknown key 'samples'" in capsys.readouterr().err

    def test_key_no_kind_reads_is_refused_before_the_kind(self, tmp_path, capsys):
        cfg = tmp_path / "fig.cfg"
        cfg.write_text("kind=bogus\nformat=csv\n")
        assert main(["figure", "--config", str(cfg), "--out", str(tmp_path / "x.svg")]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {cfg}:2: unknown key 'format'"]

    def test_config_file_is_read_once(self, tmp_path, monkeypatch):
        cfg = tmp_path / "fig.cfg"
        cfg.write_text("kind=record-histogram\nsamples=100\n")
        reads, read_text = [], Path.read_text

        def counted(path, *args, **kwargs):
            reads.append(path)
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counted)
        assert main(["figure", "--config", str(cfg), "--out", str(tmp_path / "x.svg")]) == 0
        assert reads.count(cfg) == 1

    @pytest.mark.parametrize("command", [["simulate"], ["figure", "--kind", "decay"]])
    def test_weak_coupling_warning_is_given_once(self, tmp_path, command):
        # each run builds its SimParams once
        argv = [*command, "--tau", "0.05", "--steps", "10", "--trajectories", "10"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([*argv, "--out", str(tmp_path / "x")]) == 0
        messages = [str(w.message) for w in caught]
        assert sum("gamma*tau = 0.05 is above 0.01" in m for m in messages) == 1

    def test_record_histogram(self, tmp_path):
        out = tmp_path / "fig.svg"
        assert main(
            [
                "figure", "--kind", "record-histogram", "--samples", "5000",
                "--bins", "30", "--out", str(out),
            ]
        ) == 0
        text = out.read_text()
        assert 'class="bin"' in text
        assert 'class="vacuum-pdf"' in text

    def test_fixed_seed_svg_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        for out in (a, b):
            assert main(
                [
                    "figure", "--kind", "record-histogram", "--seed", "9",
                    "--samples", "2000", "--out", str(out),
                ]
            ) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_kind_exits_2(self, tmp_path):
        assert main(
            ["figure", "--kind", "mystery", "--out", str(tmp_path / "x.svg")]
        ) == 2

    @pytest.mark.parametrize(
        "key,value", [("samples", "-5"), ("samples", "0"), ("bins", "0"), ("bins", "-3")]
    )
    def test_samples_below_one_exits_2(self, tmp_path, capsys, key, value):
        out = tmp_path / "x.svg"
        assert main(
            ["figure", "--kind", "record-histogram", f"--{key}", value, "--out", str(out)]
        ) == 2
        assert f"{key} must be >= 1, got {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64), pytest.param("9" * 400, id="huge")])
    def test_record_histogram_seed_outside_uint64_exits_2(self, tmp_path, capsys, seed):
        # the histogram's stream takes the seed rule an ensemble run does,
        # also for a seed too large for a float
        out = tmp_path / "x.svg"
        argv = ["figure", "--kind", "record-histogram", "--seed", seed, "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: seed must be an unsigned 64-bit integer, got {seed}"
        ]
        assert not out.exists()

    @pytest.mark.parametrize(
        "alpha,bins,message",
        [
            # the bins span +-5 alpha, whose width 10 alpha overflows float64
            # above ~1.8e307, while the ends 5 alpha do above ~3.6e307:
            # SimParams refuses both
            ("1e308", "100", "alpha = 1e+308 is too large: 10*alpha overflows float64"),
            ("3e307", "2", "alpha = 3e+307 is too large: 10*alpha overflows float64"),
            ("1e300", "100", None),
            # below ~7.04e-307 the record centre sqrt(gamma*tau)*alpha is subnormal
            ("1e-320", "2", "alpha = 9.99989e-321 is too small: its record centre is subnormal"),
            ("1e-307", "2", "alpha = 1e-307 is too small: its record centre is subnormal"),
            ("2e-308", "2", "alpha = 2e-308 is too small: its record centre is subnormal"),
            # an accepted alpha whose 100,000 bins of width ~7e-311 make the
            # densities overflow
            ("7.1e-307", "100000", "non-finite histogram density: alpha = 7.1e-307 is too small"),
            # a finite range or density whose plot map, 550 or 350 pixels
            # times the axis span, overflows
            ("1.7e307", "2", "plot x axis [-8.5e+307, 8.5e+307] overflows float64"),
            ("1e305", "2", "plot x axis [-5e+305, 5e+305] overflows float64"),
            ("7.1e-307", "100", "plot y axis [0, 1.47887e+306] overflows float64"),
        ],
    )
    def test_overflowing_histogram_range_exits_2(self, tmp_path, capsys, alpha, bins, message):
        out = tmp_path / "x.svg"
        assert main(
            [
                "figure", "--kind", "record-histogram", "--alpha", alpha,
                "--samples", "10", "--bins", bins, "--out", str(out),
            ]
        ) == (2 if message else 0)
        if message:
            assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
            assert not out.exists()
        else:
            assert 'class="bin"' in out.read_text()

    def test_overflowing_histogram_range_refused_before_sampling(self, tmp_path, capsys):
        # among 1000 records at alpha = 1e308 some alpha*z overflow (|z| >
        # 1.8), and numpy's overflow warning fails the test: SimParams
        # refuses alpha before any record is drawn
        out = tmp_path / "x.svg"
        argv = ["--alpha", "1e308", "--samples", "1000", "--bins", "100", "--out", str(out)]
        assert main(["figure", "--kind", "record-histogram", *argv]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: alpha = 1e+308 is too large: 10*alpha overflows float64"
        ]
        assert not out.exists()

    def test_overflowing_decay_time_axis_exits_2(self, tmp_path, capsys):
        # gamma tau = 0.01 is a valid step, but 550 pixels times the 1e306 run length overflow
        out = tmp_path / "x.svg"
        argv = ["--gamma", "1e-306", "--tau", "1e304", "--steps", "100", "--trajectories", "2"]
        assert main(["figure", "--kind", "decay", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: plot x axis [0, 1e+306] overflows float64"
        ]
        assert not out.exists()


class TestOutputsPinned:
    # sha256 of each output file; a changed byte is a format, model or RNG
    # change, never a refactoring
    CONFIG = (
        "policy=custom:0.5\ninitial=phi:1.0\n"
        "steps=40\ntrajectories=30\nseed=11\n"
    )
    CASES = {
        "simulate-json": (
            ["simulate", "--format", "json", "--policy", "compensate",
             "--steps", "40", "--trajectories", "30", "--seed", "4"],
            "a2a02b37ee7833040fca12a18f50b0d5cceefd1765f19a1970de36bb054292d2",
        ),
        "simulate-config": (
            ["simulate", "--config", "{cfg}", "--trajectories", "25"],
            "ef662ede720c3f40747931c71ff811c00987e6a23e7c66a9eb706ffb694b542a",
        ),
        "drift-field": (
            ["figure", "--kind", "drift-field"],
            "e861dd502b790e99e800f9db1b4582666944e55ba6391927566cfb0649cbaff8",
        ),
        "drift-field-custom": (
            ["figure", "--kind", "drift-field", "--policy", "custom:1"],
            "acd3f1721cdb2858ed8ddef9c2c87f2e9b84a2f54157125c0a3510e79043f79a",
        ),
        "decay": (
            ["figure", "--kind", "decay", "--steps", "60", "--trajectories", "25", "--seed", "2"],
            "d036af0d1fe8a1913a86cef504fdd734a4f8b9a7476d1c55a418d68fdc977e2f",
        ),
        "decay-compensate": (
            ["figure", "--kind", "decay", "--policy", "compensate", "--initial", "phi:2.0",
             "--steps", "60", "--trajectories", "25", "--seed", "2"],
            "e76c2a5c319f25934e3e0915a3d0068eda9297c509afe67bf8da4f018963fe61",
        ),
        "record-histogram": (
            ["figure", "--kind", "record-histogram", "--samples", "3000", "--bins", "40",
             "--seed", "9"],
            "72afae442635e511985e18b5d4c1d9177205ff0d3bc989b7f79e4bd13a18dddf",
        ),
        "record-histogram-conditional": (
            ["figure", "--kind", "record-histogram", "--sampling", "conditional",
             "--initial", "dipole+", "--samples", "3000", "--seed", "9"],
            "1dd737c52779cfa2453d441e21a3533165a4e0bfec9dc992a5b243872a13b186",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_output_bytes_pinned(self, tmp_path, case):
        argv, digest = self.CASES[case]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(self.CONFIG)
        out = tmp_path / "out"
        argv = [a.replace("{cfg}", str(cfg)) for a in argv]
        assert main([*argv, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_record_histogram_outliers_pinned(self):
        # records below -5 alpha, above +5 alpha and at both edges: every
        # record counts in the density's normaliser, and +5 alpha falls in
        # the last bin
        records = np.array(
            [-31.0, -10.5, -10.0, -4.2, -0.3, 0.0, 0.7, 3.9, 9.99, 10.0, 10.0, 10.25, 57.0]
        )
        svg = histogram_svg(records, 8, 2.0)
        digest = "82d50e4ee0d37cad391bb77bf8be991135ca4b0eb57bc1bc4e0deb2547927175"
        assert hashlib.sha256(svg.encode()).hexdigest() == digest


@pytest.mark.parametrize("command", ["simulate", "oracle"])
def test_main_dispatches_through_module_attributes(monkeypatch, tmp_path, command):
    # tracing tools swap cli.cmd_simulate and cli.cmd_oracle on the module, so
    # main must find the handler there at call time
    calls = []
    monkeypatch.setattr(cli, f"cmd_{command}", lambda args: calls.append(args.command) or 7)
    assert main([command, "--out", str(tmp_path / "x")]) == 7
    assert calls == [command]
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "argv,target",
    [
        (["simulate", "--steps", "20", "--trajectories", "1"], "run_ensemble"),
        (["figure", "--kind", "record-histogram", "--samples", "100"], "sample_records"),
    ],
)
def test_memory_error_exits_2(monkeypatch, tmp_path, capsys, argv, target):
    # an allocation that fails although the size rule let its output through
    # (memory taken by other processes) is stood in for
    def refuse(*args):
        raise MemoryError("Unable to allocate 596. GiB for an array")

    monkeypatch.setattr(cli, target, refuse)
    out = tmp_path / "x"
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: Unable to allocate 596. GiB for an array"
    ]
    assert not out.exists()


def _unreachable(*args):
    raise AssertionError("reached an allocating callee")


@pytest.mark.parametrize(
    "argv,target",
    [
        (["simulate", "--steps", "20000000000", "--trajectories", "1"], "run_ensemble"),
        (["simulate", "--steps", "1000", "--trajectories", str(10**15)], "run_ensemble"),
        (["figure", "--kind", "decay", "--steps", "20000000000"], "run_ensemble"),
        (["figure", "--kind", "record-histogram", "--samples", "100000000000"], "sample_records"),
        (["figure", "--kind", "record-histogram", "--bins", str(10**12)], "sample_records"),
        (["figure", "--kind", "drift-field", "--grid", str(10**11)], "drift_field"),
        # each count fits a float, their estimate (~1e600 bytes) does not
        (["simulate", "--steps", str(10**300), "--trajectories", str(10**300)], "run_ensemble"),
    ],
)
def test_output_above_physical_memory_exits_2(monkeypatch, tmp_path, capsys, argv, target):
    # numpy allocates lazily, so these would exhaust memory rather than raise
    # MemoryError: the size rule refuses them before anything is allocated.
    # cmd_figure imports drift_field from analysis when it runs.
    monkeypatch.setattr(analysis if target == "drift_field" else cli, target, _unreachable)
    out = tmp_path / "x"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert err[0].endswith("GiB RAM")
    assert not out.exists()


@pytest.mark.parametrize(
    "nbytes,need",
    [(6 * 10**6 * 2**30, "6e+06"), (10**600, "9.31e+590")],
    ids=["in-float-range", "beyond-float-range"],
)
def test_size_rule_formats_any_estimate(nbytes, need):
    # an estimate in float range keeps the float's text; one beyond is still named
    with pytest.raises(MemoryError, match=rf"^x need ~{re.escape(need)} GiB of \S+ GiB RAM$"):
        cli._check_fits("x", nbytes)


HUGE = "9" * 400  # converts to no float


@pytest.mark.parametrize(
    "argv,target",
    [
        (["simulate", "--steps", HUGE], "run_ensemble"),
        (["figure", "--kind", "decay", "--steps", HUGE], "run_ensemble"),
        (["simulate", "--trajectories", HUGE], "run_ensemble"),
        (["figure", "--kind", "drift-field", "--grid", HUGE], "drift_field"),
        (["figure", "--kind", "record-histogram", "--samples", HUGE], "sample_records"),
        (["figure", "--kind", "record-histogram", "--bins", HUGE], "sample_records"),
    ],
)
def test_integer_too_large_for_a_float_exits_2(monkeypatch, tmp_path, capsys, argv, target):
    # the run's checks and the size rule compute with floats: such a flag is
    # refused by name as invalid before anything is sized
    monkeypatch.setattr(analysis if target == "drift_field" else cli, target, _unreachable)
    out = tmp_path / "x"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {argv[-2]}: integer too large for a float"]
    assert not out.exists()


@pytest.mark.parametrize(
    "command,key,target",
    [
        (["simulate"], "steps", "run_ensemble"),
        (["simulate"], "trajectories", "run_ensemble"),
        (["figure", "--kind", "drift-field"], "grid", "drift_field"),
        (["figure", "--kind", "record-histogram"], "samples", "sample_records"),
        (["figure", "--kind", "record-histogram"], "bins", "sample_records"),
    ],
)
def test_integer_too_large_for_a_float_in_config_exits_2(
    monkeypatch, tmp_path, capsys, command, key, target
):
    monkeypatch.setattr(analysis if target == "drift_field" else cli, target, _unreachable)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={HUGE}\n")
    out = tmp_path / "x"
    assert main([*command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {cfg}: bad value for {key!r}: integer too large for a float"]
    assert not out.exists()


# command -> (argv with {bad} where the unusable output path goes, the
# entry point that computes the output)
_WRITERS = {
    "simulate": (["simulate", "--steps", "3000", "--trajectories", "20000", "--out", "{bad}"],
                 "run_ensemble"),
    "simulate-dump": (["simulate", "--out", "{tmp}/ens.csv", "--dump-trajectories", "{bad}"],
                      "run_ensemble"),
    "oracle": (["oracle", "--alpha", "6", "--out", "{bad}"], "delta_n_pmf"),
    "figure-decay": (["figure", "--kind", "decay", "--out", "{bad}"], "run_ensemble"),
    "figure-histogram": (["figure", "--kind", "record-histogram", "--out", "{bad}"],
                         "sample_records"),
}
# id suffix -> (an output path no file can be opened at, the error open raises)
_UNUSABLE_OUTPUTS = {
    "": ("{tmp}/nope/out.txt", "[Errno 2] No such file or directory"),
    "-empty": ("", "[Errno 2] No such file or directory"),
    "-directory": ("{tmp}", "[Errno 21] Is a directory"),
}


@pytest.mark.parametrize(
    "argv,target,bad,error",
    [
        pytest.param(argv, target, bad, error, id=command + suffix)
        for command, (argv, target) in _WRITERS.items()
        for suffix, (bad, error) in _UNUSABLE_OUTPUTS.items()
    ],
)
def test_missing_output_directory_fails_before_computing(
    monkeypatch, tmp_path, capsys, argv, target, bad, error
):
    # the error opening the output would raise, before the command computes
    monkeypatch.setattr(cli, target, _unreachable)
    bad = bad.replace("{tmp}", str(tmp_path))
    argv = [a.replace("{bad}", bad).replace("{tmp}", str(tmp_path)) for a in argv]
    assert main(argv) == 3
    assert capsys.readouterr().err.splitlines() == [f"I/O error: {error}: {bad!r}"]
    assert list(tmp_path.iterdir()) == []


def test_dumped_trajectory_counts_toward_the_size_rule(monkeypatch, tmp_path, capsys):
    # steps whose statistics fit in physical memory, but not with one dumped
    # trajectory (3 floats a step) besides
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    steps = memory // (cli._ROW_BYTES + 4 * cli._SUM_BYTES + 3 * cli._DUMP_BYTES) + 1
    argv = ["simulate", "--steps", str(steps), "--out", str(tmp_path / "x")]

    def reached(config):
        raise MemoryError("reached run_ensemble")

    monkeypatch.setattr(cli, "run_ensemble", reached)
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: reached run_ensemble\n"
    monkeypatch.setattr(cli, "run_ensemble", _unreachable)
    assert main([*argv, "--dump-trajectories", str(tmp_path / "d")]) == 2
    assert "GiB RAM" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


@pytest.fixture
def traced_after_run(monkeypatch):
    """Start tracemalloc as `run_ensemble` returns, so a command's traced
    peak is what writing its output holds."""
    run = cli.run_ensemble

    def traced(config):
        result = run(config)
        tracemalloc.start()
        return result

    monkeypatch.setattr(cli, "run_ensemble", traced)


def _traced_peak(argv):
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _simulate(steps, fmt="csv"):
    return ["simulate", "--steps", str(steps), "--trajectories", "1", "--format", fmt,
            "--out", os.devnull]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_simulate_peak_per_step_within_size_rule(traced_after_run, fmt):
    # the size rule's cost of a statistics row bounds what writing a step
    # holds (~264 B as JSON, whose columns are lists).  Traced from the start
    # of the run instead, the kernel's fixed ~1.3 MB of draw buffers set a
    # short run's peak and hid up to ~3x that cost
    _traced_peak(_simulate(10, fmt))  # first-call allocations that later runs reuse
    per_step = (_traced_peak(_simulate(6_000, fmt)) - _traced_peak(_simulate(2_000, fmt))) / 4_000
    assert per_step <= cli._ROW_BYTES


def test_simulate_csv_holds_no_python_column(traced_after_run):
    # CSV rows are converted from the result arrays a block at a time, so
    # writing them holds nothing that grows with the steps; converting whole
    # columns to lists first held ~264 B a step, as JSON still does
    per_step = (_traced_peak(_simulate(5_000)) - _traced_peak(_simulate(1_000))) / 4_000
    assert per_step <= np.dtype(np.float64).itemsize


@pytest.mark.parametrize("sampling", ["vacuum", "conditional"])
def test_record_histogram_peak_per_sample_within_size_rule(tmp_path, sampling):
    # the size rule's cost of a record holds; the records are the one array
    # that grows with --samples, since the sampler draws in the generator's
    # fixed chunks (separate uniform, normal and centre arrays took ~48 B a
    # vacuum and ~56 B a conditional sample)
    def peak(samples):
        argv = ["figure", "--kind", "record-histogram", "--sampling", sampling,
                "--samples", str(samples), "--out", str(tmp_path / "x.svg")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10)  # first-call allocations that later runs reuse
    per_sample = (peak(1_100_000) - peak(100_000)) / 1_000_000
    assert per_sample <= cli._RECORD_BYTES
    assert per_sample < 2 * np.dtype(np.float64).itemsize


class TestImportCost:
    # `import scipy.special` takes ~0.33 s a launch: ~0.29 s of it is its
    # array-API shim (scipy._lib._array_api), which clones numpy and so
    # imports numpy.f2py, .random, .testing and .ma.  The compiled ufuncs the
    # package uses (gammaln, ndtr, ive) load from their extension module in
    # ~1.5 ms through `_special`, so no command imports the package, and
    # importing the CLI loads nothing from scipy at all.
    _PACKAGE_INIT = {"scipy.special", "scipy._lib._array_api"}
    @staticmethod
    def loaded(code):
        """The names in sys.modules once `code` has run in a fresh interpreter."""
        code += "; print(sorted(sys.modules))"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=_pythonpath()),
            capture_output=True, text=True, check=True,
        )
        return set(ast.literal_eval(proc.stdout.strip().splitlines()[-1]))

    @classmethod
    def scipy_modules(cls, code):
        return sorted(m for m in cls.loaded(code) if m.startswith("scipy"))

    @staticmethod
    def main_code(argv, tmp_path):
        argv = [*argv, "--out", str(tmp_path / "x")]
        return f"import sys; from homodyne_feedback.cli import main; assert main({argv!r}) == 0"

    @pytest.mark.parametrize(
        "module", ["homodyne_feedback.cli", "homodyne_feedback", "homodyne_feedback.validation"]
    )
    def test_import_loads_no_scipy(self, module):
        assert self.scipy_modules(f"import sys, {module}") == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["oracle", "--alpha", "6", "--source", "qubit:0.6,0,0,0.8"],
            ["oracle", "--alpha", "6", "--source", "coherent:0.5,0.25"],
            ["figure", "--kind", "drift-field"],
            ["oracle", "--alpha", "6"],
            ["simulate", "--steps", "10", "--trajectories", "4"],
        ],
    )
    def test_command_loads_no_scipy(self, tmp_path, argv):
        # no scipy.special package init, whichever ufuncs the command calls
        loaded = self.scipy_modules(self.main_code(argv, tmp_path))
        assert self._PACKAGE_INIT.isdisjoint(loaded)

    def test_vacuum_oracle_loads_scipy(self, tmp_path):
        # the guard above is not vacuous: the Skellam reference calls ive,
        # from the compiled extension
        argv = ["oracle", "--alpha", "6"]
        loaded = self.scipy_modules(self.main_code(argv, tmp_path))
        assert "scipy.special._special_ufuncs" in loaded

    @pytest.mark.parametrize(
        "argv,loads",
        [
            (None, False),
            (["oracle", "--alpha", "6"], False),
            (["simulate", "--steps", "2", "--trajectories", "2"], True),
        ],
    )
    def test_thread_pool_loads_only_for_an_ensemble(self, tmp_path, argv, loads):
        # the pool, and the logging it imports, load when an ensemble runs
        pool = {"concurrent.futures", "logging"}
        code = self.main_code(argv, tmp_path) if argv else "import sys, homodyne_feedback.cli"
        assert pool & self.loaded(code) == (pool if loads else set())

    def test_package_import_loads_no_module(self):
        # each public name's module is imported when the name is first read
        loaded = self.loaded("import sys, homodyne_feedback")
        assert sorted(m for m in loaded if m.startswith("homodyne_feedback.")) == []
        assert "numpy" not in loaded

    # only `figure` draws, so only it imports the drift field and the SVG writer
    _FIGURE_STACK = {"homodyne_feedback.analysis", "homodyne_feedback.svgfig"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["oracle", "--alpha", "6", "--source", "qubit:0.6,0,0,0.8"],
            ["simulate", "--steps", "10", "--trajectories", "4"],
        ],
    )
    def test_command_loads_no_figure_stack(self, tmp_path, argv):
        assert self._FIGURE_STACK & self.loaded(self.main_code(argv, tmp_path)) == set()

    def test_figure_loads_the_figure_stack(self, tmp_path):
        # the guard above is not vacuous
        argv = ["figure", "--kind", "drift-field"]
        assert self._FIGURE_STACK <= self.loaded(self.main_code(argv, tmp_path))

    @pytest.mark.parametrize("passed,code", [(True, 0), (False, 1)])
    def test_validate_resolves_its_imports(self, monkeypatch, capsys, passed, code):
        stub = [validation.CheckResult("stub criterion", passed, "detail")]
        monkeypatch.setattr(validation, "run_all", lambda: stub)
        assert main(["validate"]) == code
        assert capsys.readouterr().out == validation.format_report(stub) + "\n"


def test_package_exports_resolve_without_duplicates():
    names = homodyne_feedback.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(homodyne_feedback, n)] == []
    # the package binds none of them itself, so dir lists them through __dir__
    assert set(names) <= set(dir(homodyne_feedback))
