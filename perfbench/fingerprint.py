"""Behaviour fingerprints: what a run did, read back from its artifacts.

A fingerprint holds, per CLI call, the exit code and, per problem (one ``run``,
one ``mi-report``, or one row of a ``sweep``), the entangler sequence, the
per-step energies, ``n_ent``, convergence and the screening rates ``p_max`` /
``p_avg``.  ``sweep`` calls add every ``sweep.csv`` row and ``mi-report``
calls add each MI column's energy gap, ``p_max`` and Spearman correlation.

``compare`` checks sequences, counts and flags exactly and numbers within the
tolerances below; it names each failed problem with the first place its run
diverged from the record.

Fingerprints are per seed: which of two equal-descent entanglers wins a step
is settled by float noise that the seed moves, so the sequence (and, on
water, the energies after it) differ between seeds, as do the de-converged
DMRG columns of an MI report.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

ENERGY_TOL = 1e-8  # hartree
RATE_TOL = 1e-9  # screening rates p_max / p_avg
SPEARMAN_TOL = 1e-6


def _problem(tag: str, report_path: Path) -> dict:
    report = json.loads(report_path.read_text())
    return {
        "tag": tag,
        "n_ent": report["n_ent"],
        "converged": report["converged"],
        "stop_reason": report["stop_reason"],
        "words": [s["word"] for s in report["steps"]],
        "energies": [s["energy"] for s in report["steps"]],
        "p_max": report["p_max"],
        "p_avg": report["p_avg"],
    }


def extract(verb: str, out_dir: Path, exit_code: int) -> dict:
    """Fingerprint of one CLI call from its artifact directory.

    Raises OSError / KeyError / ValueError when an artifact is missing or
    malformed; the caller counts that as a failure of the call's problems.
    """
    fp: dict = {"exit": exit_code}
    if verb == "sweep":
        with (out_dir / "sweep.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        fp["sweep_rows"] = rows
        fp["problems"] = [_problem(r["tag"], out_dir / r["tag"] / "report.json") for r in rows]
    else:
        fp["problems"] = [_problem(verb, out_dir / "report.json")]
    if verb == "mi-report":
        mi = json.loads((out_dir / "mi_report.json").read_text())
        fp["mi_columns"] = {
            tag: {k: col[k] for k in ("energy_gap", "p_max", "spearman_vs_exact")}
            for tag, col in mi["columns"].items()
        }
    return fp


def problem_tags(call_fp: dict) -> list[str]:
    return [p["tag"] for p in call_fp["problems"]]


def _num_diff(a, b, tol: float) -> bool:
    """True when two optional numbers (None or '' for absent) differ beyond tol."""
    a = None if a in (None, "") else float(a)
    b = None if b in (None, "") else float(b)
    if a is None or b is None:
        return a is not b
    return abs(a - b) > tol


def _compare_problem(exp: dict, got: dict) -> str | None:
    for i, (we, wg) in enumerate(zip(exp["words"], got["words"]), start=1):
        if we != wg:
            return f"step {i}: entangler {wg!r}, expected {we!r}"
        ee, eg = exp["energies"][i - 1], got["energies"][i - 1]
        if abs(ee - eg) > ENERGY_TOL:
            return f"step {i}: energy {eg!r}, expected {ee!r} (tol {ENERGY_TOL:g} Ha)"
    for key in ("n_ent", "converged", "stop_reason"):
        if exp[key] != got[key]:
            return f"{key} {got[key]!r}, expected {exp[key]!r}"
    for key in ("p_max", "p_avg"):
        if _num_diff(exp[key], got[key], RATE_TOL):
            return f"{key} {got[key]!r}, expected {exp[key]!r} (tol {RATE_TOL:g})"
    return None


def _compare_row(exp: dict, got: dict) -> str | None:
    for key in ("tag", "n_ent", "converged", "error"):
        if exp[key] != got[key]:
            return f"sweep.csv {key} {got[key]!r}, expected {exp[key]!r}"
    for key in ("p_max", "p_avg"):
        if _num_diff(exp[key], got[key], RATE_TOL):
            return f"sweep.csv {key} {got[key]!r}, expected {exp[key]!r}"
    return None


def _compare_columns(exp: dict, got: dict) -> str | None:
    if list(exp) != list(got):
        return f"MI columns {list(got)}, expected {list(exp)}"
    tols = {"energy_gap": ENERGY_TOL, "p_max": RATE_TOL, "spearman_vs_exact": SPEARMAN_TOL}
    for tag, col in exp.items():
        for key, tol in tols.items():
            if _num_diff(col[key], got[tag][key], tol):
                return f"MI column {tag}: {key} {got[tag][key]!r}, expected {col[key]!r}"
    return None


def compare(expected: dict, got: dict) -> dict[str, str]:
    """{problem tag: first divergence} for every problem of the call that fails."""
    tags = problem_tags(expected)
    if got["exit"] != expected["exit"]:
        return {t: f"exit code {got['exit']}, expected {expected['exit']}" for t in tags}
    if problem_tags(got) != tags:
        return {t: f"problems {problem_tags(got)}, expected {tags}" for t in tags}
    failed = {}
    rows = zip(expected.get("sweep_rows", [None] * len(tags)), got.get("sweep_rows", [None] * len(tags)))
    for exp, gotp, (erow, grow) in zip(expected["problems"], got["problems"], rows):
        msg = _compare_problem(exp, gotp) or (erow and _compare_row(erow, grow))
        if msg:
            failed[exp["tag"]] = msg
    if "mi_columns" in expected:
        msg = _compare_columns(expected["mi_columns"], got.get("mi_columns", {}))
        if msg:
            failed.setdefault(tags[0], msg)
    return failed
