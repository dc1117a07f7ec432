"""Command-line front end: simulate, oracle, figure, validate.

Exit codes: 0 success, 1 validation failure, 2 invalid flags or config,
3 I/O failure, 4 Fock cutoff too small.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import feedback as fb
from .analysis import drift_field, histogram
from .bloch import BlochState, SimParams
from .engine import RunConfig, run_ensemble, run_trajectory
from .fock import CutoffError, SourceSpec, delta_n_pmf, gaussian_distance, skellam_pmf
from .measurement import SamplingMode, sample_records
from .streams import CounterStream
from .svgfig import decay_svg, drift_field_svg, histogram_svg

CSV_HEADER = "step,time,mean_sx,mean_sz,var_sx,var_sz,se_sx,se_sz"
TRAJ_HEADER = "traj,step,time,phi,sx,sz,delta_n,theta"


class FlagError(ValueError):
    """Invalid flag or config-file value."""


def parse_policy(text: str) -> fb.FeedbackPolicy:
    if text == "none":
        return fb.NO_FEEDBACK
    if text == "compensate":
        return fb.COMPENSATION
    if text == "invert":
        return fb.INVERSION
    if text.startswith("custom:"):
        try:
            return fb.FeedbackPolicy.custom(float(text[len("custom:"):]))
        except ValueError as exc:
            raise FlagError(f"bad custom gain in {text!r}: {exc}") from exc
    raise FlagError(f"unknown policy {text!r}")


def parse_initial(text: str) -> BlochState:
    named = {
        "excited": BlochState.excited,
        "ground": BlochState.ground,
        "dipole+": BlochState.dipole_plus,
        "dipole-": BlochState.dipole_minus,
    }
    if text in named:
        return named[text]()
    if text.startswith("phi:"):
        try:
            return BlochState(float(text[len("phi:"):]))
        except ValueError as exc:
            raise FlagError(f"bad initial angle in {text!r}: {exc}") from exc
    raise FlagError(f"unknown initial state {text!r}")


def parse_sampling(text: str) -> SamplingMode:
    try:
        return SamplingMode(text)
    except ValueError as exc:
        raise FlagError(f"unknown sampling mode {text!r}") from exc


def parse_source(text: str) -> SourceSpec:
    if text == "vacuum":
        return SourceSpec.vacuum()
    if text.startswith("coherent:"):
        parts = text[len("coherent:"):].split(",")
        if len(parts) != 2:
            raise FlagError(f"coherent source needs RE,IM: {text!r}")
        return SourceSpec.coherent(complex(float(parts[0]), float(parts[1])))
    if text.startswith("qubit:"):
        parts = text[len("qubit:"):].split(",")
        if len(parts) != 4:
            raise FlagError(f"qubit source needs C0RE,C0IM,C1RE,C1IM: {text!r}")
        v = [float(p) for p in parts]
        return SourceSpec.qubit(complex(v[0], v[1]), complex(v[2], v[3]))
    raise FlagError(f"unknown source {text!r}")


def read_config_file(path: str, known: set[str]) -> dict[str, str]:
    """Flat key=value config; '#' starts a comment; unknown keys are errors."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FlagError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise FlagError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value
    return values


def effective(args, spec: dict[str, tuple]):
    """Merge defaults, config-file values, and explicit flags (flags win)."""
    file_values = {}
    if getattr(args, "config", None):
        file_values = read_config_file(args.config, set(spec))
    out = {}
    for key, (conv, default) in spec.items():
        attr = key.replace("-", "_")
        flag_value = getattr(args, attr, None)
        if flag_value is not None:
            out[key] = flag_value
        elif key in file_values:
            out[key] = conv(file_values[key]) if conv else file_values[key]
        else:
            out[key] = default
    return out


def _fmt(x: float) -> str:
    return repr(float(x))


_SIM_SPEC = {
    "gamma": (float, 1.0),
    "tau": (float, 1e-3),
    "alpha": (float, 100.0),
    "policy": (str, "none"),
    "sampling": (str, "conditional"),
    "initial": (str, "excited"),
    "steps": (int, 1000),
    "trajectories": (int, 100),
    "seed": (int, 0),
    "format": (str, "csv"),
    "out": (str, None),
    "dump-trajectories": (str, None),
}


def _config_lines(values: dict) -> list[str]:
    # output paths are not simulation parameters; leaving them out keeps
    # identically-configured runs byte-identical regardless of destination
    skip = {"out", "dump-trajectories"}
    return [
        f"# {k}={values[k]}"
        for k in sorted(values)
        if k not in skip and values[k] is not None
    ]


def cmd_simulate(args) -> int:
    values = effective(args, _SIM_SPEC)
    if values["out"] is None:
        raise FlagError("--out is required")
    if values["format"] not in ("csv", "json"):
        raise FlagError(f"unknown format {values['format']!r}")
    config = RunConfig(
        params=SimParams(values["gamma"], values["tau"], values["alpha"]),
        policy=parse_policy(values["policy"]),
        mode=parse_sampling(values["sampling"]),
        initial=parse_initial(values["initial"]),
        n_steps=values["steps"],
        n_trajectories=values["trajectories"],
        seed=values["seed"],
    )
    result = run_ensemble(config)
    if values["format"] == "csv":
        lines = _config_lines(values)
        lines.append(CSV_HEADER)
        for k in range(len(result.time)):
            lines.append(
                ",".join(
                    [str(k), _fmt(result.time[k])]
                    + [
                        _fmt(col[k])
                        for col in (
                            result.mean_sx, result.mean_sz,
                            result.var_sx, result.var_sz,
                            result.stderr_sx, result.stderr_sz,
                        )
                    ]
                )
            )
        Path(values["out"]).write_text("\n".join(lines) + "\n")
    else:
        payload = {
            "config": {k: v for k, v in values.items() if v is not None},
            "seed": config.seed,
            "columns": {
                "step": list(range(len(result.time))),
                "time": result.time.tolist(),
                "mean_sx": result.mean_sx.tolist(),
                "mean_sz": result.mean_sz.tolist(),
                "var_sx": result.var_sx.tolist(),
                "var_sz": result.var_sz.tolist(),
                "se_sx": result.stderr_sx.tolist(),
                "se_sz": result.stderr_sz.tolist(),
            },
        }
        Path(values["out"]).write_text(json.dumps(payload, indent=2) + "\n")

    if values["dump-trajectories"]:
        lines = _config_lines(values)
        lines.append(TRAJ_HEADER)
        tau = config.params.tau
        for i in range(config.n_trajectories):
            for r in run_trajectory(config, i):
                # the dumped state is the post-step state, so its time stamp is
                # (step_index + 1) * tau, matching the ensemble CSV rows
                state = r.state_after
                lines.append(
                    ",".join(
                        [
                            str(i), str(r.step_index + 1), _fmt((r.step_index + 1) * tau),
                            _fmt(state.phi), _fmt(state.s_x), _fmt(state.s_z),
                            _fmt(r.delta_n), _fmt(r.theta),
                        ]
                    )
                )
        Path(values["dump-trajectories"]).write_text("\n".join(lines) + "\n")
    return 0


_ORACLE_SPEC = {
    "alpha": (float, 2.0),
    "source": (str, "vacuum"),
    "cutoff": (int, None),
    "out": (str, None),
}


def cmd_oracle(args) -> int:
    values = effective(args, _ORACLE_SPEC)
    if values["out"] is None:
        raise FlagError("--out is required")
    source = parse_source(values["source"])
    pmf = delta_n_pmf(values["alpha"], source, values["cutoff"])

    probs = pmf.probabilities
    nz = np.nonzero(probs)[0]
    lo, hi = (int(nz[0]), int(nz[-1])) if len(nz) else (0, len(probs) - 1)
    lines = _config_lines(values) + ["delta_n,probability"]
    for idx in range(lo, hi + 1):
        lines.append(f"{pmf.offset + idx},{_fmt(probs[idx])}")
    Path(values["out"]).write_text("\n".join(lines) + "\n")

    summary = {
        "mean": pmf.mean(),
        "variance": pmf.variance(),
        "tv_distance_vs_gaussian_model": (
            gaussian_distance(pmf, values["alpha"]) if values["alpha"] > 0 else None
        ),
    }
    if source.kind == "vacuum":
        mu = values["alpha"] ** 2 / 2.0
        ref = skellam_pmf(pmf.support(), mu, mu)
        summary["skellam_max_abs_err"] = float(np.max(np.abs(probs - ref)))
    summary_path = Path(values["out"]).with_suffix(".summary.json")
    summary_path.write_text(json.dumps(summary, indent=2) + "\n")
    return 0


_FIGURE_SPEC = {
    "kind": (str, "drift-field"),
    "gamma": (float, 1.0),
    "tau": (float, 1e-3),
    "alpha": (float, 100.0),
    "policy": (str, None),
    "sampling": (str, "vacuum"),
    "initial": (str, "excited"),
    "steps": (int, 1000),
    "trajectories": (int, 100),
    "samples": (int, 100_000),
    "bins": (int, 100),
    "seed": (int, 0),
    "grid": (int, 72),
    "out": (str, None),
}

_POLICY_LABEL = {
    "none": "No feedback",
    "compensate": "Compensation",
    "invert": "Inversion",
}


def cmd_figure(args) -> int:
    values = effective(args, _FIGURE_SPEC)
    if values["out"] is None:
        raise FlagError("--out is required")
    params = SimParams(values["gamma"], values["tau"], values["alpha"])
    kind = values["kind"]
    if kind == "drift-field":
        if values["policy"] is None:
            policies = ["none", "compensate", "invert"]
        else:
            policies = [values["policy"]]
        fields = [
            drift_field(params, fb.gain(parse_policy(p)), values["grid"])
            for p in policies
        ]
        labels = [
            _POLICY_LABEL.get(p, f"Custom gain {fb.gain(parse_policy(p)):g}")
            for p in policies
        ]
        svg = drift_field_svg(fields, labels)
    elif kind == "decay":
        config = RunConfig(
            params=params,
            policy=parse_policy(values["policy"] or "none"),
            mode=parse_sampling("conditional"),
            initial=parse_initial(values["initial"]),
            n_steps=values["steps"],
            n_trajectories=values["trajectories"],
            seed=values["seed"],
        )
        svg = decay_svg(run_ensemble(config))
    elif kind == "record-histogram":
        state = parse_initial(values["initial"])
        mode = parse_sampling(values["sampling"])
        rng = CounterStream(values["seed"], 0)
        records = sample_records(state, params, mode, rng, values["samples"])
        span = 5.0 * params.alpha
        hist = histogram(records, values["bins"], (-span, span))
        svg = histogram_svg(hist, params.alpha)
    else:
        raise FlagError(f"unknown figure kind {kind!r}")
    Path(values["out"]).write_text(svg)
    return 0


def cmd_validate(args) -> int:
    # imported here: the acceptance suite and its scipy dependency are
    # needed by this subcommand only
    from .validation import format_report, run_all

    results = run_all()
    print(format_report(results))
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdsim",
        description=(
            "Homodyne-detection back-action simulator for a single two-level "
            "atom, with feedback scenarios and an exact Fock-space oracle."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_flags(p, spec):
        p.add_argument("--config", help="flat key=value config file")
        for key, (conv, _default) in spec.items():
            p.add_argument(f"--{key}", type=conv if conv else str, default=None)

    p_sim = sub.add_parser("simulate", help="run an ensemble and write statistics")
    add_flags(p_sim, _SIM_SPEC)
    p_sim.set_defaults(func=cmd_simulate)

    p_oracle = sub.add_parser("oracle", help="exact photon-difference pmf")
    add_flags(p_oracle, _ORACLE_SPEC)
    p_oracle.set_defaults(func=cmd_oracle)

    p_fig = sub.add_parser("figure", help="emit an SVG figure")
    add_flags(p_fig, _FIGURE_SPEC)
    p_fig.set_defaults(func=cmd_figure)

    p_val = sub.add_parser("validate", help="run the acceptance suite")
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CutoffError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
