import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import homodyne_feedback
from homodyne_feedback import cli, validation
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
    DUMP_PINNED = {
        "conditional": "3b392413be0e17c5792c4ddd8db317892b9a0742051ec7f30acfc0c59d185431",
        "vacuum": "b12c5bc85e3931e3d36683327d70746e04e3fd450d003875b2a474abfd87aaed",
    }

    @pytest.mark.parametrize("sampling", sorted(DUMP_PINNED))
    def test_dump_trajectories_bytes_pinned(self, tmp_path, sampling):
        dump = tmp_path / "traj.csv"
        assert main(
            [
                "simulate", "--policy", "custom:0.37", "--initial", "phi:0.3",
                "--steps", "300", "--trajectories", "5", "--sampling", sampling,
                "--out", str(tmp_path / "ens.csv"), "--dump-trajectories", str(dump),
            ]
        ) == 0
        assert hashlib.sha256(dump.read_bytes()).hexdigest() == self.DUMP_PINNED[sampling]

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
            ["simulate", "--policy", "custom:10.5", "--steps", "5"],
            ["simulate", "--policy", "custom:nan", "--steps", "5"],
            ["figure", "--kind", "drift-field", "--policy", "custom:-10.5"],
        ],
    )
    def test_gain_out_of_range_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "x"
        assert main([*argv, "--out", str(out)]) == 2
        assert "custom gain must be finite with |g| <= 10.0" in capsys.readouterr().err
        assert not out.exists()

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
            # alpha * z overflows float64 in the kernel, so the angles go non-finite
            pytest.param("1e308", 2, marks=pytest.mark.filterwarnings("ignore::RuntimeWarning")),
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
            assert f"non-finite angles: alpha = {float(alpha):g}" in capsys.readouterr().err
            assert list(tmp_path.iterdir()) == []
        else:
            assert "nan" not in out.read_text()

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

    def test_unknown_key_exits_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("stepz=10\n")
        assert main(
            ["simulate", "--config", str(cfg), "--out", str(tmp_path / "a.csv")]
        ) == 2


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
            ["--alpha", "6", "--source", "vacuum", "--cutoff", "8"],
            # exp(-alpha^2/2) underflows to 0: exit 4 before any array is sized
            ["--alpha", "40"],
            ["--alpha", "1e200"],
            ["--source", "coherent:1e200,0"],
        ],
    )
    def test_cutoff_too_small_exits_4(self, tmp_path, flags):
        assert main(["oracle", *flags, "--out", str(tmp_path / "pmf.csv")]) == 4
        assert list(tmp_path.iterdir()) == []

    def test_negative_cutoff_exits_2(self, tmp_path, capsys):
        assert main(["oracle", "--cutoff", "-3", "--out", str(tmp_path / "pmf.csv")]) == 2
        assert "cutoff must be >= 0, got -3" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


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


class TestOutputsPinned:
    # sha256 of each output file; a changed byte is a format, model or RNG
    # change, never a refactoring
    CONFIG = (
        "policy=custom:0.5\ninitial=phi:1.0\nsampling=vacuum\n"
        "steps=40\ntrajectories=30\nseed=11\n"
    )
    CASES = {
        "simulate-json": (
            ["simulate", "--format", "json", "--sampling", "vacuum", "--policy", "compensate",
             "--steps", "40", "--trajectories", "30", "--seed", "4"],
            "c64a9cf7f2cbcd091d2ddea0459e58443d69bb515e549f7031f5d179531c4947",
        ),
        "simulate-config": (
            ["simulate", "--config", "{cfg}", "--trajectories", "25"],
            "1b9e6b9e9fcbc7967fd32b950c664530258cc686cd9b1fbf925db2533bd38262",
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
            "0cfa79842013ec748b8ab275fabe7e8bc2f853d1142b1fb7698652b0395c5cc6",
        ),
        "record-histogram-conditional": (
            ["figure", "--kind", "record-histogram", "--sampling", "conditional",
             "--initial", "dipole+", "--samples", "3000", "--seed", "9"],
            "b67202d42998801209c51881f6f39c06fde746ee1a6d09a40983dd16d5b3f6bc",
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


class TestImportCost:
    @pytest.mark.parametrize("module", ["homodyne_feedback.cli", "homodyne_feedback"])
    def test_import_loads_no_scipy(self, module):
        # scipy costs about a second per launch; only the code that uses it
        # (oracle arithmetic, drift field, validate) may import it
        src = str(Path(homodyne_feedback.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        code = (
            f"import sys, {module}; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True, text=True, check=True,
        )
        assert proc.stdout.strip() == "[]"

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
