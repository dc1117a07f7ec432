"""Command-line front end: simulate, oracle, figure, validate.

Exit codes: 0 success, 1 validation failure, 2 invalid flags or config
or an output too large for memory, 3 I/O failure, 4 Fock amplitudes
underflow or lose norm (the oracle sizes its truncation from --alpha and
--source).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .analysis import drift_field
from .bloch import BlochState, SimParams
from .engine import BATCH_SIZE, RunConfig, check_gain, run_ensemble, run_trajectory_arrays
from .fock import CutoffError, SourceSpec, delta_n_pmf, gaussian_distance, skellam_pmf
from .measurement import SamplingMode, sample_records
from .streams import CounterStream
from .svgfig import decay_svg, drift_field_svg, histogram_svg

TRAJ_HEADER = "traj,step,time,phi,sx,sz,delta_n,theta"


class FlagError(ValueError):
    """Invalid flag or config-file value."""


# --policy name -> (feedback gain, drift-field panel label)
_POLICIES = {
    "none": (0.0, "No feedback"),
    "compensate": (1.0, "Compensation"),
    "invert": (2.0, "Inversion"),
}


def parse_policy(text: str) -> float:
    """Feedback gain named by a --policy value: none, compensate, invert or
    custom:G."""
    if text in _POLICIES:
        return _POLICIES[text][0]
    if text.startswith("custom:"):
        try:
            return check_gain(float(text[len("custom:"):]))
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
    """Merge defaults, config-file values, and explicit flags (flags win);
    every command writes to --out, so it is required."""
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
            out[key] = conv(file_values[key])
        else:
            out[key] = default
    if out["out"] is None:
        raise FlagError("--out is required")
    return out


# The parameters of one ensemble run: key -> (converter, default).
_RUN_SPEC = {
    "gamma": (float, 1.0),
    "tau": (float, 1e-3),
    "alpha": (float, 100.0),
    "policy": (str, "none"),
    "initial": (str, "excited"),
    "steps": (int, 1000),
    "trajectories": (int, 100),
    "seed": (int, 0),
}

# The JSON "config" block follows this key order.
_SIM_SPEC = {
    **_RUN_SPEC, "format": (str, "csv"), "out": (str, None), "dump-trajectories": (str, None),
}

# Stats columns after "step": output name -> EnsembleResult attribute.
_STATS_COLUMNS = {
    "time": "time", "mean_sx": "mean_sx", "mean_sz": "mean_sz", "var_sx": "var_sx",
    "var_sz": "var_sz", "se_sx": "stderr_sx", "se_sz": "stderr_sz",
}
CSV_HEADER = ",".join(["step", *_STATS_COLUMNS])


def _run_settings(values: dict) -> dict:
    # output paths are not simulation parameters; leaving them out keeps
    # identically-configured runs byte-identical regardless of destination.
    # Every simulation draws conditional records, recorded after the policy.
    settings = {}
    for k, v in values.items():
        if k not in ("out", "dump-trajectories"):
            settings[k] = v
        if k == "policy":
            settings["sampling"] = "conditional"
    return settings


def _write_csv(f, values: dict, header: str, rows) -> None:
    """Write the run settings as `# key=value` lines, the header, then each
    row's values as repr, the shortest text that reads a float back bit for bit."""
    f.writelines(f"# {k}={v}\n" for k, v in sorted(_run_settings(values).items()))
    f.write(header + "\n")
    f.writelines(",".join(map(repr, row)) + "\n" for row in rows)


# Peak bytes an output holds per element, from tracemalloc at small sizes
# (CPython 3.11, numpy 2.4).  A statistics row is the slope of `simulate`'s
# peak between 1,000 and 41,000 steps (10 trajectories): 313 B a step as
# CSV and 314 B as JSON, both streamed to the file.  A drift-field grid
# point costs 347 B a panel, the same slope of `figure --kind drift-field`.
# A record costs 8.3 B, the slope of `figure --kind record-histogram`
# between 100,000 and 2,100,000 samples of either law: the records
# themselves, since the sampler draws in the generator's fixed chunks.
_RECORD_BYTES, _BIN_BYTES, _SUM_BYTES, _ROW_BYTES, _DUMP_BYTES = 9, 410, 8, 315, 78
_GRID_BYTES = 348


def _check_fits(what: str, nbytes: int) -> None:
    """Refuse an output above physical memory before it is allocated (numpy
    allocates lazily, so memory would run out before any MemoryError)."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if nbytes > memory:
        raise MemoryError(f"{what} need ~{nbytes / 2**30:.3g} GiB of {memory / 2**30:.3g} GiB RAM")


def _run_config(values: dict) -> RunConfig:
    """The ensemble run that a command's run values describe, if its output fits memory."""
    config = RunConfig(
        params=SimParams(values["gamma"], values["tau"], values["alpha"]),
        gain=parse_policy(values["policy"]),
        initial=parse_initial(values["initial"]),
        n_steps=values["steps"],
        n_trajectories=values["trajectories"],
        seed=values["seed"],
    )
    batches = -(-config.n_trajectories // BATCH_SIZE)
    nbytes = (config.n_steps + 1) * (4 * batches * _SUM_BYTES + _ROW_BYTES)
    dumped = 3 * config.n_steps * _DUMP_BYTES if values.get("dump-trajectories") else 0
    _check_fits(f"{config.n_steps} steps x {config.n_trajectories} trajectories", nbytes + dumped)
    return config


def cmd_simulate(args) -> int:
    values = effective(args, _SIM_SPEC)
    if values["format"] not in ("csv", "json"):
        raise FlagError(f"unknown format {values['format']!r}")
    config = _run_config(values)
    result = run_ensemble(config)
    stats = {"step": list(range(len(result.time)))}
    stats |= {name: getattr(result, attr).tolist() for name, attr in _STATS_COLUMNS.items()}
    # written as encoded, never held as one whole text, so _ROW_BYTES bounds a step
    with open(values["out"], "w") as f:
        if values["format"] == "csv":
            _write_csv(f, values, CSV_HEADER, zip(*stats.values()))
        else:
            payload = {"config": _run_settings(values), "seed": config.seed, "columns": stats}
            json.dump(payload, f, indent=2)
            f.write("\n")

    if values["dump-trajectories"]:
        with open(values["dump-trajectories"], "w") as f:
            _write_csv(f, values, TRAJ_HEADER, _dump_rows(config))
    return 0


def _dump_rows(config: RunConfig):
    """The TRAJ_HEADER rows of every trajectory, one trajectory held at a time."""
    tau = config.params.tau
    for i in range(config.n_trajectories):
        dn, th, phi = run_trajectory_arrays(config, i)
        columns = (phi, np.sin(phi), np.cos(phi), dn, th)
        # the dumped state is the post-step state, so its time stamp is
        # (k + 1) * tau, matching the ensemble CSV rows
        for k, row in enumerate(zip(*(c.tolist() for c in columns)), 1):
            yield (i, k, k * tau, *row)


_ORACLE_SPEC = {
    "alpha": (float, 2.0),
    "source": (str, "vacuum"),
    "out": (str, None),
}


def cmd_oracle(args) -> int:
    values = effective(args, _ORACLE_SPEC)
    source = parse_source(values["source"])
    pmf = delta_n_pmf(values["alpha"], source)

    probs = pmf.probabilities
    nz = np.nonzero(probs)[0]
    lo, hi = int(nz[0]), int(nz[-1])  # the norm check has passed, so some bin is nonzero
    with open(values["out"], "w") as f:
        rows = enumerate(probs[lo : hi + 1].tolist(), pmf.offset + lo)
        _write_csv(f, values, "delta_n,probability", rows)

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


# Values a figure kind may read, key -> (converter, default).  With no --policy
# the drift field draws all three panels and the decay runs without feedback.
_FIGURE_VALUES = {
    **_RUN_SPEC, "policy": (str, None), "sampling": (str, "vacuum"),
    "samples": (int, 100_000), "bins": (int, 100), "grid": (int, 72),
}
_FIGURE_SPEC = {"kind": (str, "drift-field"), **_FIGURE_VALUES, "out": (str, None)}

# Figure kind -> the values it reads; every kind also takes --kind and --out.
_PARAMS = ("gamma", "tau", "alpha")
_FIGURE_KINDS = {
    "drift-field": (*_PARAMS, "policy", "grid"),
    "decay": (*_PARAMS, "policy", "initial", "steps", "trajectories", "seed"),
    "record-histogram": (*_PARAMS, "initial", "sampling", "seed", "samples", "bins"),
}


def cmd_figure(args) -> int:
    file_values = read_config_file(args.config, set(_FIGURE_SPEC)) if args.config else {}
    kind = file_values.get("kind", "drift-field") if args.kind is None else args.kind
    if kind not in _FIGURE_KINDS:
        raise FlagError(f"unknown figure kind {kind!r}")
    reads = _FIGURE_KINDS[kind]
    unread = [k for k in _FIGURE_VALUES if k not in reads and getattr(args, k) is not None]
    if unread:
        takes = ", ".join(f"--{k}" for k in reads)
        raise FlagError(f"figure --kind {kind} does not take --{unread[0]} (it takes {takes})")
    values = effective(args, {k: _FIGURE_SPEC[k] for k in ("kind", *reads, "out")})
    params = SimParams(values["gamma"], values["tau"], values["alpha"])
    if kind == "drift-field":
        policies = list(_POLICIES) if values["policy"] is None else [values["policy"]]
        gains = [parse_policy(p) for p in policies]
        nbytes = len(gains) * values["grid"] * _GRID_BYTES
        _check_fits(f"{len(gains)} panels x {values['grid']} angles", nbytes)
        fields = [drift_field(params, g, values["grid"]) for g in gains]
        labels = [
            _POLICIES[p][1] if p in _POLICIES else f"Custom gain {g:g}"
            for p, g in zip(policies, gains)
        ]
        svg = drift_field_svg(fields, labels)
    elif kind == "decay":
        policy = "none" if values["policy"] is None else values["policy"]
        svg = decay_svg(run_ensemble(_run_config({**values, "policy": policy})))
    else:  # record-histogram
        for key in ("samples", "bins"):
            if values[key] < 1:
                raise FlagError(f"{key} must be >= 1, got {values[key]}")
        nbytes = values["samples"] * _RECORD_BYTES + values["bins"] * _BIN_BYTES
        _check_fits(f"{values['samples']} records in {values['bins']} bins", nbytes)
        state = parse_initial(values["initial"])
        mode = parse_sampling(values["sampling"])
        # the bins span +-5 alpha; a finite width 10 alpha also bounds every
        # record, +-mu + alpha*z with mu < alpha and |z| < 9, so none overflows
        if not math.isfinite(10.0 * params.alpha):
            raise ValueError(
                f"non-finite histogram range: alpha = {params.alpha:g} overflows float64"
            )
        rng = CounterStream(values["seed"], 0)
        records = sample_records(state, params, mode, rng, values["samples"])
        svg = histogram_svg(records, values["bins"], params.alpha)
    Path(values["out"]).write_text(svg)
    return 0


def cmd_validate(args) -> int:
    # imported here: only this subcommand runs the acceptance suite; scipy
    # loads only when its oracle check reaches skellam_pmf's ive
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

    # built per call, so each parse binds the module's handlers as they are now
    commands = (
        ("simulate", "run an ensemble and write statistics", _SIM_SPEC, cmd_simulate),
        ("oracle", "exact photon-difference pmf", _ORACLE_SPEC, cmd_oracle),
        ("figure", "emit an SVG figure", _FIGURE_SPEC, cmd_figure),
        ("validate", "run the acceptance suite", {}, cmd_validate),
    )
    for name, help_text, spec, func in commands:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        if spec:
            p.add_argument("--config", help="flat key=value config file")
        for key, (conv, _default) in spec.items():
            p.add_argument(f"--{key}", type=conv, default=None)
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
    except (ValueError, TypeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
