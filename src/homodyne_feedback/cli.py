"""Command-line front end: simulate, oracle, figure, validate.

Exit codes: 0 success, 1 validation failure, 2 invalid flags or config
(an integer too large for a float among them) or an output too large for
memory, 3 I/O failure, 4 Fock amplitudes underflow or lose norm (the oracle
sizes its truncation from --alpha and --source).
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import os
import sys
from functools import partial
from pathlib import Path

import numpy as np

from .bloch import BlochState, SimParams
from .engine import (
    BATCH_SIZE, EnsembleResult, RunConfig, check_gain, run_ensemble, run_trajectory_arrays,
)
from .fock import CutoffError, SourceSpec, delta_n_pmf, gaussian_distance, skellam_pmf
from .measurement import SamplingMode, conditional_pdf, sample_records
from .streams import CounterStream

TRAJ_HEADER = "traj,step,time,phi,sx,sz,delta_n,theta"


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
            raise ValueError(f"bad custom gain in {text!r}: {exc}") from exc
    raise ValueError(f"unknown policy {text!r}")


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
            raise ValueError(f"bad initial angle in {text!r}: {exc}") from exc
    raise ValueError(f"unknown initial state {text!r}")


def _amplitudes(text: str, names: str) -> list[complex]:
    """The complex amplitudes of the --source value `kind:names`, each given
    as its real and imaginary part."""
    kind, _, values = text.partition(":")
    parts = values.split(",")
    if len(parts) != names.count(",") + 1:
        raise ValueError(f"{kind} source needs {names}: {text!r}")
    try:
        v = [float(p) for p in parts]
    except ValueError as exc:
        raise ValueError(f"bad source amplitude in {text!r}: {exc}") from exc
    return [complex(re, im) for re, im in zip(v[::2], v[1::2])]


def parse_source(text: str) -> SourceSpec:
    if text == "vacuum":
        return SourceSpec.vacuum()
    if text.startswith("coherent:"):
        return SourceSpec.coherent(*_amplitudes(text, "RE,IM"))
    if text.startswith("qubit:"):
        return SourceSpec.qubit(*_amplitudes(text, "C0RE,C0IM,C1RE,C1IM"))
    raise ValueError(f"unknown source {text!r}")


def read_config_file(path: str, known: set[str]) -> dict[str, tuple[int, str]]:
    """Flat key=value config, as each key's (line number, value); '#' starts
    a comment; unknown and repeated keys are errors."""
    values: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = (lineno, value)
    return values


def effective(args, spec: dict[str, tuple], file_values=None):
    """Merge defaults, config-file values, and explicit flags (flags win);
    every command writes to --out, so it is required.  file_values is the
    --config file as `read_config_file` gives it, read here when None."""
    if file_values is None:
        file_values = read_config_file(args.config, set(spec)) if args.config else {}
    # a file read for a wider spec (figure's union of kinds) may hold keys this one lacks
    for key, (lineno, _) in file_values.items():
        if key not in spec:
            raise ValueError(f"{args.config}:{lineno}: unknown key {key!r}")
    out = {}
    for key, (conv, default) in spec.items():
        flag_value = getattr(args, key.replace("-", "_"), None)
        where = f"--{key}" if flag_value is not None else f"{args.config}: bad value for {key!r}"
        try:
            if flag_value is not None:
                out[key] = flag_value
            else:
                out[key] = conv(file_values[key][1]) if key in file_values else default
            # counts size runs and outputs in floats; a seed has its own range check
            if conv is int and key != "seed" and abs(out[key]) > sys.float_info.max:
                raise ValueError("integer too large for a float")
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from exc
    if out["out"] is None:
        raise ValueError("--out is required")
    dump = out.get("dump-trajectories")
    if dump and os.path.realpath(dump) == os.path.realpath(out["out"]):
        raise ValueError(f"--out and --dump-trajectories name the same file: {dump!r}")
    _check_writable(out["out"], dump)
    return out


def _check_writable(*paths) -> None:
    """Raise, before any work, the error opening each path to write would."""
    for path in paths:
        if path is None:
            continue
        if not path or not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)


# A spec maps each key a command reads, as a flag and a config key, to its
# (converter, default).  Every simulation and figure kind reads these three.
_PARAMS = {"gamma": (float, 1.0), "tau": (float, 1e-3), "alpha": (float, 100.0)}

# The parameters of one ensemble run.
_RUN_SPEC = {
    **_PARAMS,
    "policy": (str, "none"),
    "initial": (str, "excited"),
    "steps": (int, 1000),
    "trajectories": (int, 100),
    "seed": (int, 0),
}

# Figure kind -> its spec, besides --kind and --out.  With no --policy the drift
# field draws all three panels; with no --initial the histogram, vacuum records.
# In this order the kinds' union lists its keys in --help order.
_FIGURE_KINDS = {
    "decay": _RUN_SPEC,
    "record-histogram": {
        **_PARAMS, "initial": (str, None), "seed": (int, 0), "samples": (int, 100_000),
        "bins": (int, 100),
    },
    "drift-field": {**_PARAMS, "policy": (str, None)},
}
_FIGURE_VALUES = {k: v for spec in _FIGURE_KINDS.values() for k, v in spec.items()}

# Command -> its spec; the JSON "config" block follows simulate's key order.
_SPECS = {
    "simulate": {
        **_RUN_SPEC, "format": (str, "csv"), "out": (str, None), "dump-trajectories": (str, None),
    },
    "oracle": {"alpha": (float, 2.0), "source": (str, "vacuum"), "out": (str, None)},
    "figure": {"kind": (str, "drift-field"), **_FIGURE_VALUES, "out": (str, None)},
    "validate": {},
}

# Stats columns after "step": EnsembleResult's fields, by name.
_STATS_COLUMNS = tuple(f.name for f in dataclasses.fields(EnsembleResult))
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


def _rows(columns):
    """The rows of equal-length arrays, converted to Python values 1,024 rows
    at a time, so no whole column is held as Python objects."""
    for k in range(0, len(columns[0]), 1024):
        yield from zip(*(c[k : k + 1024].tolist() for c in columns))


# Peak bytes an output holds per element, from tracemalloc at small sizes
# (CPython 3.11, numpy 2.4).  A statistics row is the slope of `simulate`'s
# peak between 2,000 and 42,000 steps (10 trajectories): 311 B a step as
# JSON, whose columns are lists, and 76 B as CSV, whose rows are converted a
# block at a time; both are streamed to the file.  A record costs 8.3 B, the
# slope of `figure --kind record-histogram` between 100,000 and 2,100,000
# samples of either law: the records themselves, since the sampler draws in
# the generator's fixed chunks.
_RECORD_BYTES, _BIN_BYTES, _SUM_BYTES, _ROW_BYTES, _DUMP_BYTES = 9, 410, 8, 315, 78


def _check_fits(what: str, nbytes: int) -> None:
    """Refuse an output above physical memory before it is allocated (numpy
    allocates lazily, so memory would run out before any MemoryError)."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if nbytes > memory:
        try:
            need = f"{nbytes / 2**30:.3g}"
        except OverflowError:  # an estimate beyond float range; Decimal formats any int
            from decimal import Decimal

            need = f"{Decimal(nbytes) / 2**30:.3g}"
        raise MemoryError(f"{what} need ~{need} GiB of {memory / 2**30:.3g} GiB RAM")


def _run_config(values: dict, params: SimParams) -> RunConfig:
    """The ensemble run that a command's run values describe, if its output fits memory."""
    config = RunConfig(
        params=params,
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
    values = effective(args, _SPECS["simulate"])
    if values["format"] not in ("csv", "json"):
        raise ValueError(f"unknown format {values['format']!r}")
    config = _run_config(values, SimParams(values["gamma"], values["tau"], values["alpha"]))
    result = run_ensemble(config)
    columns = [getattr(result, name) for name in _STATS_COLUMNS]
    # written as encoded, never held as one whole text, so _ROW_BYTES bounds a step
    with open(values["out"], "w") as f:
        if values["format"] == "csv":
            rows = ((k, *row) for k, row in enumerate(_rows(columns)))
            _write_csv(f, values, CSV_HEADER, rows)
        else:
            stats = {"step": list(range(len(result.time)))}
            stats |= {name: c.tolist() for name, c in zip(_STATS_COLUMNS, columns)}
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
        for k, row in enumerate(_rows(columns), 1):
            yield (i, k, k * tau, *row)


def cmd_oracle(args) -> int:
    values = effective(args, _SPECS["oracle"])
    summary_path = Path(values["out"]).with_suffix(".summary.json")
    _check_writable(str(summary_path))
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
    summary_path.write_text(json.dumps(summary, indent=2) + "\n")
    return 0


def cmd_figure(args) -> int:
    # imported here: only this subcommand draws figures
    from .analysis import drift_field
    from .svgfig import decay_svg, drift_field_svg, histogram_svg

    spec = _SPECS["figure"]
    file_values = read_config_file(args.config, set(spec)) if args.config else {}
    kind = file_values.get("kind", (0, "drift-field"))[1] if args.kind is None else args.kind
    if kind not in _FIGURE_KINDS:
        raise ValueError(f"unknown figure kind {kind!r}")
    reads = _FIGURE_KINDS[kind]
    unread = [k for k in _FIGURE_VALUES if k not in reads and getattr(args, k) is not None]
    if unread:
        takes = ", ".join(f"--{k}" for k in reads)
        raise ValueError(f"figure --kind {kind} does not take --{unread[0]} (it takes {takes})")
    values = effective(args, {"kind": spec["kind"], **reads, "out": spec["out"]}, file_values)
    params = SimParams(values["gamma"], values["tau"], values["alpha"])
    if kind == "drift-field":
        policies = list(_POLICIES) if values["policy"] is None else [values["policy"]]
        gains = [parse_policy(p) for p in policies]
        fields = [drift_field(params, g) for g in gains]
        labels = [
            _POLICIES[p][1] if p in _POLICIES else f"Custom gain {g:g}"
            for p, g in zip(policies, gains)
        ]
        svg = drift_field_svg(fields, labels)
    elif kind == "decay":
        svg = decay_svg(run_ensemble(_run_config(values, params)))
    else:  # record-histogram
        for key in ("samples", "bins"):
            if values[key] < 1:
                raise ValueError(f"{key} must be >= 1, got {values[key]}")
        nbytes = values["samples"] * _RECORD_BYTES + values["bins"] * _BIN_BYTES
        _check_fits(f"{values['samples']} records in {values['bins']} bins", nbytes)
        state = None if values["initial"] is None else parse_initial(values["initial"])
        mode = SamplingMode.VACUUM if state is None else SamplingMode.CONDITIONAL
        rng = CounterStream(values["seed"], 0)
        records = sample_records(state, params, mode, rng, values["samples"])
        # the law that drew the records; None is the vacuum law
        law = None if state is None else partial(conditional_pdf, state=state, params=params)
        svg = histogram_svg(records, values["bins"], params.alpha, law)
    Path(values["out"]).write_text(svg)
    return 0


def cmd_validate(args) -> int:
    # imported here: only this subcommand runs the acceptance suite
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
        ("simulate", "run an ensemble and write statistics", cmd_simulate),
        ("oracle", "exact photon-difference pmf", cmd_oracle),
        ("figure", "emit an SVG figure", cmd_figure),
        ("validate", "run the acceptance suite", cmd_validate),
    )
    for name, help_text, func in commands:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        if _SPECS[name]:
            p.add_argument("--config", help="flat key=value config file")
        for key, (conv, _default) in _SPECS[name].items():
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
    except (ValueError, TypeError, MemoryError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
