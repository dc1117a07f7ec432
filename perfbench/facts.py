"""Facts about the program under test, gathered outside the timed region.

Usage: python3 perfbench/facts.py WORK_DIR

Prints one JSON object: the engine constants the manifest records, the
computed sizes it compares with the caches, and the known-defect ledger with
each entry's current status.  A ledger entry names a defect the workloads
steer around; its probe reproduces the defect, and once a fix makes the
probe report "fixed" the entry should be deleted.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

from homodyne_feedback import cli, engine, fock

from workloads import (COHERENT_ALPHAS, COHERENT_BETA, ENSEMBLE_STEPS, ORACLE_ALPHAS,
                       WORDS_PER_STEP, case_name)


def _oracle(work: Path, *flags: str) -> tuple[int, str, dict]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(["oracle", *flags, "--out", str(work / "ledger.csv")])
    summary = work / "ledger.summary.json"
    return rc, err.getvalue().strip(), json.loads(summary.read_text()) if rc == 0 else {}


def _probe_alpha_40(work: Path) -> dict:
    rc, err, _ = _oracle(work, "--alpha", "40")
    return {
        "id": "oracle-alpha-40",
        "defect": "hdsim oracle --alpha 40 exits 4: coherent_amplitudes underflows "
        "exp(-alpha^2/2) to 0 beyond alpha~38.6 and reports leakage 1",
        "avoided_by": "the oracle sweep stops at alpha=30",
        "status": "present" if rc == 4 else "fixed",
        "observed": f"exit {rc}: {err}",
    }


def _probe_qubit_tv(work: Path) -> dict:
    rc, _, summary = _oracle(work, "--alpha", "4", "--source", "qubit:0.6,0,0.8,0")
    tv = summary.get("tv_distance_vs_gaussian_model")
    return {
        "id": "oracle-summary-tv",
        "defect": "the oracle summary compares qubit and coherent sources with the "
        "vacuum Gaussian, so their TV distance is meaningless",
        "avoided_by": "the oracle checks test only vacuum TV distances",
        "status": "present" if tv is not None and tv > 0.1 else "fixed",
        "observed": f"qubit(0.6, 0.8) alpha=4 TV = {tv!r}",
    }


def main() -> None:
    work = Path(sys.argv[1])
    b_cut = fock.default_cutoff(COHERENT_BETA)
    dims = {case_name("vacuum", a): fock.default_cutoff(a) + 1 for a in ORACLE_ALPHAS}
    dims |= {case_name("qubit", a): fock.default_cutoff(a) + 2 for a in ORACLE_ALPHAS}
    dims |= {case_name("coherent", a): fock.default_cutoff(a) + b_cut + 1 for a in COHERENT_ALPHAS}
    chunk = max(1, min(ENSEMBLE_STEPS, engine._WORD_BUDGET // engine.BATCH_SIZE))
    print(json.dumps({
        "batch_size": engine.BATCH_SIZE,
        "computed": {
            "note": "computed from array shapes, not measured",
            "rng_word_bytes_per_traj_step": 8 * WORDS_PER_STEP,
            "ensemble_chunk_steps": chunk,
            "rng_word_bytes_per_batch_chunk": 8 * WORDS_PER_STEP * chunk * engine.BATCH_SIZE,
            "fock_output_bytes": {c: 16 * d * d for c, d in dims.items()},
        },
        "ledger": [_probe_alpha_40(work), _probe_qubit_tv(work)],
    }))


if __name__ == "__main__":
    main()
