import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import homodyne_feedback
from homodyne_feedback import validation
from homodyne_feedback.cli import CSV_HEADER, TRAJ_HEADER, main


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

    def test_seeded_runs_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(
                [
                    "simulate", "--seed", "7", "--steps", "50",
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

    def test_invalid_policy_exits_2(self, tmp_path):
        assert main(
            ["simulate", "--policy", "bogus", "--out", str(tmp_path / "x.csv")]
        ) == 2

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

    def test_cutoff_too_small_exits_4(self, tmp_path):
        assert main(
            [
                "oracle", "--alpha", "6", "--source", "vacuum",
                "--cutoff", "8", "--out", str(tmp_path / "pmf.csv"),
            ]
        ) == 4


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
