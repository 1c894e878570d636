"""Pipeline orchestration, artifacts, sweeps, MI reports, CLI surface."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import mivqe.cli
import mivqe.pipeline
from mivqe.adaptive import AdaptiveConfig, AdaptiveError
from mivqe.cli import main
from mivqe.config import ConfigError, MpsBackend, RunConfig, parse_config
from mivqe.pipeline import (
    PipelineError,
    encode_fcidump_to_text,
    mi_report,
    run_pipeline,
    sweep,
)
from mivqe.pauli import parse_pauli_factors, parse_pauli_sum
from mivqe.reference import MIMatrix
from mivqe.screening import pool_strengths

from conftest import FIXTURE_DIR
from helpers import pool_word, pool_words

LIH = str(FIXTURE_DIR / "lih_1.60.fcidump")
LIH_FAR = str(FIXTURE_DIR / "lih_2.40.fcidump")
POOL_DIGESTS = Path(__file__).with_name("pool_sha256.txt")
H2O10_MI = Path(__file__).with_name("h2o_1.80_jw_abab_mi.csv")


def lih_config(**kw):
    base = dict(fcidump=LIH, mapping="parity", grouping="aabb", seed=7)
    base.update(kw)
    return RunConfig(**base)


def test_run_pipeline_emits_report(tmp_path):
    cfg = lih_config(output=str(tmp_path / "run"))
    report, problem = run_pipeline(cfg)
    assert report.converged
    assert report.p_max is not None and report.p_avg is not None
    assert report.p_avg <= report.p_max

    out = tmp_path / "run"
    data = json.loads((out / "report.json").read_text())
    assert data["converged"] is True
    assert data["p_max"] == pytest.approx(report.p_max, rel=1e-9)
    assert data["n_ent"] == report.n_ent
    assert len(data["steps"]) == report.n_ent
    assert (out / "steps.csv").read_text().startswith("step,word,tau,")
    assert (out / "mi.csv").read_text().startswith("qubit,")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["input_checksums"]["fcidump"]
    assert manifest["tool"]["name"] == "mivqe"
    assert any(line.startswith("seed = 7") for line in manifest["config"])


def test_run_pipeline_deterministic_bytes(tmp_path):
    cfg = lih_config(output=str(tmp_path / "a"))
    run_pipeline(cfg)
    first = {
        name: (tmp_path / "a" / name).read_bytes()
        for name in ("report.json", "steps.csv", "mi.csv", "manifest.json")
    }
    run_pipeline(cfg)  # identical config and seed, same artifact dir
    for name, content in first.items():
        assert (tmp_path / "a" / name).read_bytes() == content


def fail_writes_midway(monkeypatch, name):
    """Make any file whose name holds name, opened for writing through Path.open,
    take half of its first write, then fail."""
    path_open = Path.open

    class HalfThenFail:
        def __init__(self, file):
            self.file = file

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.file.close()

        def write(self, text):
            self.file.write(text[: len(text) // 2])
            raise OSError("no space left on device")

        def writelines(self, blocks):
            for text in blocks:
                self.write(text)

    def open_half_then_fail(self, mode="r", *args, **kwargs):
        file = path_open(self, mode, *args, **kwargs)
        return HalfThenFail(file) if name in self.name and "w" in mode else file

    monkeypatch.setattr(Path, "open", open_half_then_fail)


def test_interrupted_artifact_write_leaves_no_partial_file(tmp_path, monkeypatch):
    cfg = lih_config(output=str(tmp_path / "run"))
    run_pipeline(cfg)
    out = tmp_path / "run"
    complete = {path.name: path.read_bytes() for path in out.iterdir()}
    fail_writes_midway(monkeypatch, "steps.csv")

    with pytest.raises(PipelineError, match="artifacts"):
        run_pipeline(cfg)
    # the rerun wrote report.json, then failed: the old manifest is gone and
    # steps.csv is still the old, complete file; no temporary file is left
    assert sorted(path.name for path in out.iterdir()) == ["mi.csv", "report.json", "steps.csv"]
    assert (out / "steps.csv").read_bytes() == complete["steps.csv"]

    fresh = tmp_path / "fresh"
    with pytest.raises(PipelineError, match="artifacts"):
        run_pipeline(lih_config(output=str(fresh)))
    assert sorted(path.name for path in fresh.iterdir()) == ["report.json"]


def test_cli_interrupted_pool_write_keeps_old_file(tmp_path, monkeypatch):
    pool_file = tmp_path / "pool.txt"
    pool_file.write_text("old\n")
    fail_writes_midway(monkeypatch, "pool.txt")
    with pytest.raises(OSError):
        main(["pool", "--n-qubits", "3", "--out", str(pool_file)])
    assert [path.name for path in tmp_path.iterdir()] == ["pool.txt"]
    assert pool_file.read_text() == "old\n"


def test_run_pipeline_screened_rerun_matches(tmp_path):
    full, _ = run_pipeline(lih_config())
    assert full.converged
    screened, problem = run_pipeline(lih_config(p_cut=full.p_max + 1e-9))
    assert full.words == screened.words
    assert problem.pool.provenance.startswith("screened")


def test_run_pipeline_empty_screen_errors():
    with pytest.raises(PipelineError) as err:
        run_pipeline(lih_config(p_cut=1e-6))
    assert err.value.stage == "screen"


def test_unreduced_baseline_percentiles():
    reduced, _ = run_pipeline(lih_config(baseline="reduced"))
    unreduced, problem = run_pipeline(lih_config(baseline="unreduced"))
    # same entangler sequence, but percentiles against the 6-qubit pool (2016)
    assert reduced.words == unreduced.words
    assert problem.baseline_pool_size == 2016
    assert unreduced.p_max != reduced.p_max


def test_unreduced_baseline_equals_brute_force_pool():
    """Support-table percentiles equal a count over the full 6-qubit pool."""
    from mivqe.pipeline import prepare_problem
    from mivqe.screening import generate_pool, support_strengths

    problem = prepare_problem(lih_config(baseline="unreduced"))
    n = problem.n_qubits_encoded
    removed = {q for q, _ in problem.removed_qubits}
    index_map = {q: i for i, q in enumerate(q for q in range(n) if q not in removed)}
    table = support_strengths(n, problem.mi.embedded(index_map, n))
    baseline = pool_strengths(generate_pool(n), table)
    assert len(baseline) == problem.baseline_pool_size == 2016
    strengths = pool_strengths(problem.pool, problem.strength_table)
    expected = np.array([np.count_nonzero(baseline >= c) for c in strengths]) / 2016
    assert np.array_equal(pool_strengths(problem.pool, problem.percentile_table), expected)


# Traced bytes of prepare_problem on 10-qubit water (perfbench's h2o10_scoring
# call): the peak, set by the Lanczos reference solve, measures ~6.7 MiB, and
# what the Problem keeps ~2.3 MiB. The pool is built after the solve; while
# its two uint16 masks (1 MiB each) were held through it the peak was ~8.7
# MiB, and with uint64 masks and a float64 strength per word ~16.4 MiB (kept
# ~12.4 MiB).
PREPARE_TRACED_PEAK = 8 * 2**20
PREPARE_TRACED_KEPT = 3 * 2**20


def test_prepare_problem_memory_on_10_qubit_water():
    """No array of pool length wider than 2 bytes: the pool is two uint16
    masks, and strengths and percentiles are 2^n support tables."""
    from mivqe.pipeline import prepare_problem

    cfg = RunConfig(fcidump=str(FIXTURE_DIR / "h2o_1.80.fcidump"),
                    mapping="jordan_wigner", grouping="abab")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        problem = prepare_problem(cfg)
        kept, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    n = problem.hamiltonian.n_qubits
    assert n == 10 and len(problem.pool) == 523_776
    arrays = [v for obj in (problem, problem.pool) for v in vars(obj).values()
              if isinstance(v, np.ndarray)]
    assert {a.dtype for a in arrays if len(a) == len(problem.pool)} == {np.dtype(np.uint16)}
    assert len(problem.strength_table) == len(problem.percentile_table) == 1 << n
    assert peak < PREPARE_TRACED_PEAK, f"peak {peak / 2**20:.1f} MiB"
    assert kept < PREPARE_TRACED_KEPT, f"kept {kept / 2**20:.1f} MiB"


def test_run_path_never_gathers_a_strength_per_pool_word(tmp_path, monkeypatch):
    """A screened run with its artifacts reads the support tables only for
    the words it needs; pool_strengths, one entry per word, is not called."""
    import mivqe.screening

    for module in (mivqe.screening, mivqe.pipeline):
        monkeypatch.setattr(module, "pool_strengths", _raise_value_error)
    out = tmp_path / "run"
    report, problem = run_pipeline(lih_config(p_cut=0.5, max_steps=2, output=str(out)))
    assert report.n_ent == 2 and len(problem.pool) < 120
    assert (out / "pool_screened.txt").is_file() and (out / "manifest.json").is_file()


def test_unreduced_baseline_builds_no_encoded_register_pool(monkeypatch):
    import mivqe.pipeline

    calls = []
    generate_pool = mivqe.pipeline.generate_pool

    def spy(n_qubits, *args):
        calls.append(n_qubits)
        return generate_pool(n_qubits, *args)

    monkeypatch.setattr(mivqe.pipeline, "generate_pool", spy)
    problem = mivqe.pipeline.prepare_problem(lih_config(baseline="unreduced"))
    assert problem.n_qubits_encoded == 6
    assert calls == [problem.hamiltonian.n_qubits] == [4]


ODD_Y_SUM = "qubits: 2\n1.0 Z0\n0.5 X0 X1\n0.2 Y0 Z1\n"


@pytest.mark.parametrize("reference", ["exact", "mps:chi=2,sweeps=2"])
def test_odd_y_sum_is_rejected_before_pool_and_lanczos(reference, tmp_path, monkeypatch):
    def refuse(name):
        def spy(*args, **kwargs):
            raise AssertionError(f"{name} ran before the even-Y check")
        return spy

    for name in ("generate_pool", "exact_ground_state", "mps_ground_state"):
        monkeypatch.setattr(mivqe.pipeline, name, refuse(name))
    path = tmp_path / "odd.pauli"
    path.write_text(ODD_Y_SUM)
    cfg = RunConfig(pauli_sum=str(path), reference=reference, seed=7)
    with pytest.raises(PipelineError) as err:
        mivqe.pipeline.prepare_problem(cfg)
    assert err.value.stage == "pool"
    assert "even-Y (real) Hamiltonian" in str(err.value)


def _z_tail_chain():
    """18 qubits: an XX chain with Z fields on qubits 0-9, Z-only qubits 10-17."""
    lines = ["qubits: 18"]
    lines += [f"1.0 X{q} X{q + 1}" for q in range(9)]
    lines += [f"0.{q + 1} Z{q}" for q in range(10)]
    lines += [f"0.5 Z{q}" for q in range(10, 18)]
    return "\n".join(lines) + "\n"


def test_sector_check_is_skipped_above_exact_limit(tmp_path, monkeypatch):
    """Reduction takes the sum to 10 qubits; the encoded register's 18 are
    beyond the exact backend, so the run skips the stationary-sector check
    and says so in report.json instead of failing after the pool is built."""
    sizes = []
    exact_ground_state = mivqe.pipeline.exact_ground_state

    def spy(H, *args, **kwargs):
        sizes.append(H.n_qubits)
        return exact_ground_state(H, *args, **kwargs)

    monkeypatch.setattr(mivqe.pipeline, "exact_ground_state", spy)
    path = tmp_path / "tail.pauli"
    path.write_text(_z_tail_chain())
    out = tmp_path / "run"
    code = main([
        "run", "--pauli-sum", str(path), "--max-steps", "1", "--output", str(out),
    ])
    assert code in (0, 2)
    assert sizes == [10]
    report = json.loads((out / "report.json").read_text())
    assert report["n_qubits_encoded"] == 18 and report["n_qubits"] == 10
    assert any(
        "sector check skipped" in w and "18 encoded qubits" in w for w in report["warnings"]
    )


def test_sector_check_is_skipped_above_entry_limit(tmp_path, monkeypatch):
    """The reduced sum fits the compiled-action limit but the encoded one
    does not: the run skips the stationary-sector check with a warning
    instead of compiling the encoded register's Hamiltonian."""
    from mivqe.pipeline import prepare_problem

    sizes = []
    exact_ground_state = mivqe.pipeline.exact_ground_state

    def spy(H, *args, **kwargs):
        sizes.append(H.n_qubits)
        return exact_ground_state(H, *args, **kwargs)

    monkeypatch.setattr(mivqe.pipeline, "exact_ground_state", spy)
    # a 3-qubit XX chain and three Z-only qubits: 3 terms x 2^3 = 24 entries
    # after reduction, 5 terms x 2^6 = 320 before; a limit of 100 splits them
    monkeypatch.setattr(mivqe.pipeline, "MAX_ACTION_ENTRIES", 100)
    text = "qubits: 6\n1.0 X0 X1\n1.0 X1 X2\n" + "".join(f"0.5 Z{q}\n" for q in range(3, 6))
    problem = prepare_problem(RunConfig(pauli_sum=_write(tmp_path / "tail.pauli", text)))
    assert problem.n_qubits_encoded == 6 and problem.hamiltonian.n_qubits == 3
    assert sizes == [3]
    assert any(
        "sector check skipped" in w and "100-entry limit" in w for w in problem.warnings
    )


def test_sector_check_solves_the_encoded_register_once(tmp_path, monkeypatch):
    """The check takes its energy from ground_energy, on the encoded
    register only; a skipped check calls no solver on it."""
    from mivqe.pipeline import prepare_problem

    sizes = []
    ground_energy = mivqe.pipeline.ground_energy

    def spy(H, *args, **kwargs):
        sizes.append(H.n_qubits)
        return ground_energy(H, *args, **kwargs)

    monkeypatch.setattr(mivqe.pipeline, "ground_energy", spy)
    problem = prepare_problem(lih_config())
    assert problem.n_qubits_encoded == 6 and problem.hamiltonian.n_qubits == 4
    assert sizes == [6]
    sizes.clear()
    monkeypatch.setattr(mivqe.pipeline, "MAX_ACTION_ENTRIES", 100)
    text = "qubits: 6\n1.0 X0 X1\n1.0 X1 X2\n" + "".join(f"0.5 Z{q}\n" for q in range(3, 6))
    problem = prepare_problem(RunConfig(pauli_sum=_write(tmp_path / "tail.pauli", text)))
    assert any("sector check skipped" in w for w in problem.warnings)
    assert sizes == []


def test_pauli_sum_input_descent_stall(tmp_path):
    text = encode_fcidump_to_text(lih_config())
    path = tmp_path / "lih.pauli"
    path.write_text(text)
    cfg = RunConfig(pauli_sum=str(path), mapping="parity", grouping="aabb", seed=7)
    report, problem = run_pipeline(cfg)
    # reference bits for imported sums default to |0...0>; exact reference
    # energy still comes from the Lanczos backend
    assert problem.reference_energy is not None


def test_screening_equivalence_boundary_case():
    """Screened reruns reproduce the full run only while the per-step
    max-descent word survives screening.

    The acceptance window is 30% of the current pool's best descent. When the
    best-descent word itself has a percentile above p_cut, the screened
    pool's window is wider relative to its own maximum and a stronger but
    previously-unacceptable word can win. Stretched LiH under parity/aabb is
    a reproducible instance; this test pins the mechanism so the behavior
    stays visible.
    """
    import numpy as np

    from mivqe.adaptive import run_adaptive, select_entangler
    from mivqe.pipeline import prepare_problem
    from mivqe.screening import (
        generate_pool,
        percentile_of_strengths,
        screen_pool,
        support_strengths,
    )

    from helpers import pool_scorer

    base = dict(fcidump=str(FIXTURE_DIR / "lih_2.40.fcidump"),
                mapping="parity", grouping="aabb", seed=7)
    full, problem = run_pipeline(RunConfig(**base))
    assert full.converged
    p_cut = full.p_max + 1e-9
    screened_report, _ = run_pipeline(RunConfig(**base, p_cut=p_cut))
    words_full = full.words
    words_scr = screened_report.words
    assert words_full != words_scr  # the documented boundary
    assert screened_report.converged  # the screened run still reaches accuracy

    diverge = next(i for i, (a, b) in enumerate(zip(words_full, words_scr)) if a != b)
    assert words_full[:diverge] == words_scr[:diverge]

    # replay to the divergent step and verify the mechanism: the full pool's
    # best-descent word must have been screened out there
    cfg_partial = RunConfig(**base, max_steps=diverge)
    partial = prepare_problem(cfg_partial)
    rep, ansatz = run_adaptive(
        partial.hamiltonian, partial.pool, partial.strength_table,
        partial.percentile_table, partial.reference_bits,
        cfg_partial.adaptive_config(), reference_energy=partial.reference_energy,
    )
    assert rep.words == words_full[:diverge]
    scorer = pool_scorer(partial.hamiltonian, partial.pool)
    descents, _, _ = scorer.scores(
        ansatz.prepare(), partial.strength_table, cfg_partial.descent_fraction
    )
    best = int(np.argmax(descents))
    assert partial.percentile_table[pool_word(partial.pool, best).support] > p_cut
    table = support_strengths(partial.hamiltonian.n_qubits, partial.mi)
    # the words screen_pool keeps: percentile within the register's pool <= p_cut
    pct = pool_strengths(partial.pool, percentile_of_strengths(table, table))
    scr_idx = np.flatnonzero(pct <= p_cut)
    screened = generate_pool(partial.hamiltonian.n_qubits, *screen_pool(table, p_cut))
    assert pool_words(screened) == tuple(pool_word(partial.pool, i) for i in scr_idx)
    assert descents[scr_idx].max() < descents.max()


def test_mps_reference_drives_screened_run(tmp_path):
    """The DMRG-MI route end to end: approximate MI screens the pool, the
    adaptive run proceeds on the screened pool, and the exact backend still
    judges convergence."""
    exact_report, _ = run_pipeline(lih_config())
    cfg = lih_config(reference="mps:chi=4,sweeps=16",
                     p_cut=exact_report.p_max + 1e-6,
                     output=str(tmp_path / "mps_run"))
    report, problem = run_pipeline(cfg)
    assert problem.mps_energy_gap is not None
    assert abs(problem.mps_energy_gap) < 1e-7  # chi=4 is exact for 4 qubits
    assert report.converged
    assert report.n_ent == exact_report.n_ent
    # 1e-14 MI noise may swap exactly-degenerate words, so compare the
    # chosen entanglers' strengths step by step instead of their identities
    _, exact_problem = run_pipeline(lih_config())
    exact_strength = exact_problem.strength_table
    for a, b in zip(report.steps, exact_report.steps):
        sa = exact_strength[a.x | a.z]
        sb = exact_strength[b.x | b.z]
        assert abs(sa - sb) < 1e-9
    data = json.loads((tmp_path / "mps_run" / "report.json").read_text())
    assert data["reference"]["note"] == "mps:chi=4,sweeps=16"
    assert data["reference"]["mps_energy_gap"] is not None
    assert (tmp_path / "mps_run" / "pool_screened.txt").exists()


def test_mi_import_drives_screening(tmp_path):
    # export MI from an exact run, re-import it: identical entangler choices
    exact_cfg = lih_config(output=str(tmp_path / "exact"))
    exact_report, problem = run_pipeline(exact_cfg)
    mi_path = tmp_path / "exact" / "mi.csv"
    import_cfg = lih_config(reference=f"mi:{mi_path}")
    import_report, import_problem = run_pipeline(import_cfg)
    assert exact_report.words == import_report.words
    # the exact backend still supplies the convergence reference
    assert import_problem.reference_energy == pytest.approx(
        problem.reference_energy, abs=1e-12
    )
    assert import_report.converged


def test_spin_penalty_preserved_singlet(tmp_path):
    plain, plain_problem = run_pipeline(lih_config())
    penalized, problem = run_pipeline(lih_config(spin_penalty=0.5))
    # the singlet HF determinant has <S^2> = 0, so the HF energy is unchanged
    assert penalized.hf_energy == pytest.approx(plain.hf_energy, abs=1e-10)
    # and the singlet ground state is penalty-invariant
    assert problem.reference_energy == pytest.approx(
        plain_problem.reference_energy, abs=1e-9
    )
    assert penalized.converged


def test_sector_warning_when_hf_sector_misses_ground(tmp_path):
    # Z0 stationary; reference bits 0 select the +1 sector while the true
    # ground state needs Z0 = -1
    text = "qubits: 2\n1.0 Z0\n0.5 X1\n"
    path = tmp_path / "bad_sector.pauli"
    path.write_text(text)
    cfg = RunConfig(pauli_sum=str(path), seed=3)
    report, problem = run_pipeline(cfg)
    assert problem.removed_qubits
    assert any("sector" in w for w in problem.warnings)


def test_encode_round_trip_spectrum():
    text = encode_fcidump_to_text(lih_config())
    H = parse_pauli_sum(text)
    assert H.n_qubits == 4
    from helpers import dense_sum

    from mivqe.fcidump import load_fcidump
    from mivqe.fermion import build_hamiltonian
    from mivqe.encodings import encode

    ints = load_fcidump(LIH)
    full = encode(build_hamiltonian(ints, "aabb"), "parity", 2 * ints.n_orbitals)
    e_red = np.linalg.eigvalsh(dense_sum(H)).min()
    e_full = np.linalg.eigvalsh(dense_sum(full)).min()
    assert abs(e_red - e_full) < 1e-10


def test_sweep_rows_match_single_runs(tmp_path):
    tagged = [
        ("lih_1.60", lih_config()),
        ("lih_2.40", lih_config(fcidump=LIH_FAR)),
    ]
    table = sweep(tagged, workers=1)
    lines = table.strip().splitlines()
    assert lines[0] == "tag,p_max,p_avg,n_ent,converged,error"
    assert len(lines) == 3
    single, _ = run_pipeline(lih_config())
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert row["tag"] == "lih_1.60"
    assert float(row["p_max"]) == pytest.approx(single.p_max, rel=1e-9)
    assert row["converged"] == "true"


def test_sweep_parallel_workers_match_serial():
    tagged = [
        ("lih_1.60", lih_config()),
        ("lih_2.40", lih_config(fcidump=LIH_FAR)),
    ]
    serial = sweep(tagged, workers=1)
    parallel = sweep(tagged, workers=2)
    assert parallel == serial


def test_sweep_isolates_failures():
    tagged = [
        ("good", lih_config()),
        ("bad", lih_config(fcidump=str(FIXTURE_DIR / "missing.fcidump"))),
    ]
    table = sweep(tagged, workers=1)
    lines = table.strip().splitlines()
    assert len(lines) == 3
    bad = lines[2].split(",")
    assert bad[0] == "bad"
    assert bad[4] == "false"
    assert bad[5] != ""


def test_sweep_quotes_an_error_that_holds_a_comma(tmp_path):
    """An H2 MI imported into the LiH run has the wrong qubit count, and the
    message that fails the run holds a comma: the row still reads back as
    the header's columns, and the CLI counts it as not converged."""
    h2 = str(FIXTURE_DIR / "h2_0.75.fcidump")
    run_pipeline(lih_config(fcidump=h2, output=str(tmp_path / "h2")))
    out = tmp_path / "sw"
    code = main([
        "sweep", "--reference", f"mi:{tmp_path / 'h2' / 'mi.csv'}", "--mapping", "parity",
        "--grouping", "aabb", "--output", str(out), h2, LIH,
    ])
    rows = list(csv.DictReader(io.StringIO((out / "sweep.csv").read_text())))
    header = ["tag", "p_max", "p_avg", "n_ent", "converged", "error"]
    assert [list(r) for r in rows] == [header, header]
    assert [r["converged"] for r in rows] == ["true", "false"]
    assert "imported MI is for 6 qubits, run needs 4" in rows[1]["error"]
    assert code == 2


def test_cli_sweep_keeps_a_hash_in_a_path(tmp_path):
    """sweep replaces the FCIDUMP and output of the flags' config and reads
    every other value as run does: a '#' in the MI path stays (a text round
    trip through parse_config cut the path there, and the row failed with
    "No such file or directory")."""
    h2 = str(FIXTURE_DIR / "h2_0.75.fcidump")
    report, _ = run_pipeline(lih_config(fcidump=h2, output=str(tmp_path / "a#b")))
    mi_path = tmp_path / "a#b" / "mi.csv"
    out = tmp_path / "sw"
    code = main([
        "sweep", "--reference", f"mi:{mi_path}", "--mapping", "parity", "--grouping", "aabb",
        "--seed", "7", "--output", str(out), h2,
    ])
    (row,) = csv.DictReader(io.StringIO((out / "sweep.csv").read_text()))
    assert row["error"] == ""
    assert row["p_max"] == f"{report.p_max:.12g}"
    assert row["n_ent"] == str(report.n_ent)
    assert code == 0
    manifest = json.loads((out / "h2_0.75" / "manifest.json").read_text())
    assert f"reference = mi:{mi_path}" in manifest["config"]
    assert manifest["input_checksums"]["mi"] == hashlib.sha256(mi_path.read_bytes()).hexdigest()


def test_mi_report_exact_vs_backends(tmp_path):
    cfg = lih_config(output=str(tmp_path / "mi"))
    out = mi_report(cfg, [MpsBackend(chi=4, sweeps=16), MpsBackend(chi=1, sweeps=2)])
    cols = out["columns"]
    big = cols["mps:chi=4,sweeps=16"]
    assert abs(big["energy_gap"]) < 1e-7
    assert big["spearman_vs_exact"] > 0.99

    # exact column must reproduce an independent exact run's percentile trace
    report, problem = run_pipeline(lih_config())
    assert cols["exact"]["percentiles"] == pytest.approx(
        [s.percentile for s in report.steps], abs=1e-12
    )

    # percentiles may hop across near-tied strengths; bound each shift by the
    # number of pool words whose strengths sit within the MI perturbation
    strengths = pool_strengths(problem.pool, problem.strength_table)
    chosen = report.words
    words = [str(w) for w in pool_words(problem.pool)]
    for i, word in enumerate(chosen):
        c = strengths[words.index(word)]
        slack = np.sum(np.abs(strengths - c) <= 1e-5) / len(strengths)
        diff = abs(big["percentiles"][i] - cols["exact"]["percentiles"][i])
        assert diff <= slack + 1e-9

    small = cols["mps:chi=1,sweeps=2"]
    assert small["energy_gap"] > 1e-6  # variational gap strictly positive
    assert (tmp_path / "mi" / "mi_compare.csv").exists()
    header = (tmp_path / "mi" / "mi_compare.csv").read_text().splitlines()[0]
    assert header.startswith("index,word,exact,")


@pytest.mark.parametrize("flags", [dict(p_cut=0.3), dict(baseline="unreduced")],
                         ids=["p_cut", "unreduced"])
def test_mi_report_columns_share_the_run_baseline(flags):
    """Each column counts percentiles against the run's baseline over the
    whole pool: a DMRG setting exact to ~1e-13 Ha reproduces the exact
    column under screening and under the unreduced baseline alike."""
    cfg = lih_config(fcidump=str(FIXTURE_DIR / "lih_2.00.fcidump"), max_steps=4, **flags)
    out = mi_report(cfg, [MpsBackend(chi=16, sweeps=8)])
    exact = out["columns"]["exact"]
    mps = out["columns"]["mps:chi=16,sweeps=8"]
    assert abs(mps["energy_gap"]) < 1e-12
    assert mps["spearman_vs_exact"] == 1.0
    assert mps["percentiles"] == pytest.approx(exact["percentiles"], abs=1e-9)
    assert mps["p_max"] == pytest.approx(exact["p_max"], abs=1e-9)


def test_mi_report_spearman_ranks_the_whole_pool_under_p_cut():
    """Spearman ranks the register's whole pool, as the percentiles count it:
    screening the run leaves it unchanged (it ranked only the 30 screened of
    the 120 words, 0.644379479418, before)."""
    lih = str(FIXTURE_DIR / "lih_2.00.fcidump")
    setting = MpsBackend(chi=2, sweeps=2)
    screened = mi_report(lih_config(fcidump=lih, max_steps=4, p_cut=0.3), [setting])
    full = mi_report(lih_config(fcidump=lih, max_steps=4), [setting])
    rho = screened["columns"][setting.tag()]["spearman_vs_exact"]
    assert rho == pytest.approx(0.991767968939, abs=1e-9)
    assert rho == full["columns"][setting.tag()]["spearman_vs_exact"]


def _spy_on_build_mpo(monkeypatch) -> list:
    """Every MPO built through mivqe.mps.build_mpo from now on, in order."""
    import mivqe.mps

    built = []
    build_mpo = mivqe.mps.build_mpo

    def spy(H):
        built.append(build_mpo(H))
        return built[-1]

    monkeypatch.setattr(mivqe.mps, "build_mpo", spy)
    return built


def test_mi_report_builds_one_mpo_for_all_settings(monkeypatch):
    built = _spy_on_build_mpo(monkeypatch)
    settings = [MpsBackend(chi=2, sweeps=1), MpsBackend(chi=2, sweeps=2), MpsBackend(chi=4, sweeps=1)]
    out = mi_report(lih_config(max_steps=1), settings)
    assert len(built) == 1
    assert set(out["columns"]) == {"exact"} | {s.tag() for s in settings}


def test_cli_mi_report_mps_failure_is_a_stage_error(tmp_path, monkeypatch, capsys):
    """A LAPACK error in the MPS ladder (the old MPO build's SVD raised one at
    14 qubits) exits 3 as the mi-report stage, not as a traceback, and
    leaves no mi_report.json, not even a stale one."""
    import mivqe.mps

    def fail(H):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(mivqe.mps, "build_mpo", fail)
    out = tmp_path / "mi"
    out.mkdir()
    (out / "mi_report.json").write_text("{}")
    code = main(["mi-report", "--fcidump", LIH, "--max-steps", "1", "--mps", "chi=2,sweeps=1",
                 "--output", str(out)])
    assert code == 3
    assert "stage 'mi-report' failed: SVD did not converge" in capsys.readouterr().err
    assert not (out / "mi_report.json").exists()


def test_mps_reference_run_builds_one_mpo(monkeypatch):
    """The MPS reference builds its MPO through the module attribute, so a
    wrapper on mivqe.mps.build_mpo (the benchmark tracer's) sees the build."""
    built = _spy_on_build_mpo(monkeypatch)
    _, problem = run_pipeline(lih_config(max_steps=1, reference="mps:chi=4,sweeps=3"))
    assert problem.reference_note == "mps:chi=4,sweeps=3"
    assert len(built) == 1
    assert built[0].n_sites == problem.hamiltonian.n_qubits


def test_config_file_parsing(tmp_path):
    text = (
        "fcidump = {}\n"
        "mapping = bk\n"
        "grouping = aabb\n"
        "p_cut = 0.5\n"
        "seed = 12\n"
        "# comment line\n"
        "reduce_stationary = false\n"
    ).format(LIH)
    cfg = parse_config(text)
    assert cfg.mapping == "bravyi_kitaev"
    assert cfg.p_cut == 0.5
    assert cfg.reduce_stationary is False
    cfg2 = parse_config(text, seed=99)
    assert cfg2.seed == 99


@pytest.mark.parametrize("paths", [
    dict(fcidump="dir#1/f.fcidump"),
    dict(fcidump="f.fcidump", reference="mi:/d/a#b/mi.csv"),
    dict(fcidump="f.fcidump", output="runs/#3", pauli_sum=None),
    dict(pauli_sum="a#b#c.txt", output="o#"),
], ids=["fcidump", "mi", "output", "pauli_sum"])
def test_config_text_reads_back_every_path(paths):
    """A '#' inside a path is no comment: a manifest's echoed config rebuilds
    the run (the reference read back as 'mi:/d/a', the fcidump as 'dir')."""
    cfg = RunConfig(**paths)
    assert parse_config(cfg.to_text()) == cfg


def test_config_comments_still_follow_a_space_or_start_a_line():
    cfg = parse_config(f"# header\nfcidump = {LIH}  # the LiH fixture\n  # indented\np_cut = 0.5 #x\n")
    assert (cfg.fcidump, cfg.p_cut) == (LIH, 0.5)


@pytest.mark.parametrize("key, value", [
    ("fcidump", "dir #1/f.fcidump"), ("fcidump", "dir\t#1"), ("pauli_sum", " f.txt"),
    ("output", "out "), ("fcidump", "a\nb"), ("output", "a\rb"),
    ("reference", "mi:/d/a #b/mi.csv"), ("reference", "mi:/d/mi.csv "),
])
def test_config_refuses_a_value_that_cannot_read_back(key, value):
    settings = {"fcidump": LIH, key: value}
    if key == "pauli_sum":
        settings["fcidump"] = None
    with pytest.raises(ConfigError, match="does not read back"):
        RunConfig(**settings)


def test_cli_refuses_a_path_that_cannot_read_back(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["run", "--fcidump", f"{LIH} #1", "--output", str(out)]) == 3
    assert "does not read back" in capsys.readouterr().err
    assert not out.exists()


def test_run_config_adaptive_defaults_are_adaptive_configs():
    defaults = {f.name: f.default for f in fields(RunConfig)}
    assert {f.name: defaults[f.name] for f in fields(AdaptiveConfig)} == {
        f.name: f.default for f in fields(AdaptiveConfig)
    }
    assert RunConfig(fcidump=LIH).adaptive_config() == AdaptiveConfig()


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        RunConfig()  # no Hamiltonian source
    with pytest.raises(ConfigError):
        RunConfig(fcidump="x", pauli_sum="y")
    with pytest.raises(ConfigError):
        RunConfig(fcidump="x", p_cut=1.5)
    with pytest.raises(ConfigError):
        RunConfig(fcidump="x", reference="guess")
    with pytest.raises(ConfigError):
        parse_config("fcidump = x\nbogus_key = 3\n")


def test_config_round_trip():
    cfg = lih_config(p_cut=0.25, spin_penalty=0.5)
    back = parse_config(cfg.to_text())
    assert back == cfg


def test_config_refuses_an_infinite_convergence_tol():
    # a tolerance no energy can miss would stop a run before its first step
    # and report it converged
    with pytest.raises(AdaptiveError, match="positive and finite"):
        AdaptiveConfig(convergence_tol=float("inf"))
    with pytest.raises(ConfigError, match="positive and finite"):
        lih_config(convergence_tol=float("inf"))
    with pytest.raises(ConfigError, match="positive and finite"):
        parse_config(f"fcidump = {LIH}\nconvergence_tol = inf\n")


def test_cli_sweep_runs_float_settings_as_run_does(tmp_path):
    """sweep rebuilds each problem's config from the echoed text, so a float
    setting with more than 12 significant digits must survive the echo: the
    sweep's run and a plain run agree byte for byte apart from the echoed
    output path."""
    settings = ["--mapping", "parity", "--grouping", "aabb", "--max-steps", "2",
                "--spin-penalty", "0.1234567890123456"]
    sweep_out, run_out = tmp_path / "sweep", tmp_path / "run"
    # two steps do not converge: both exit 2
    assert main(["sweep", *settings, "--output", str(sweep_out), LIH]) == 2
    assert main(["run", "--fcidump", LIH, *settings, "--output", str(run_out)]) == 2
    swept = sweep_out / Path(LIH).stem
    for name in ("steps.csv", "mi.csv"):
        assert (swept / name).read_bytes() == (run_out / name).read_bytes(), name
    for name in ("report.json", "manifest.json"):
        a, b = (json.loads((d / name).read_text()) for d in (swept, run_out))
        assert "spin_penalty = 0.1234567890123456" in b["config"]
        a["config"].remove(f"output = {swept}")
        b["config"].remove(f"output = {run_out}")
        assert a == b, name


RUN_KEYS = [
    "fcidump", "pauli_sum", "mapping", "grouping", "reduce_stationary", "p_cut",
    "reference", "descent_fraction", "spin_penalty", "max_steps", "convergence_tol",
    "baseline", "seed", "output",
]


def test_config_echo_holds_the_run_keys(tmp_path):
    assert [f.name for f in fields(RunConfig)] == RUN_KEYS
    out = tmp_path / "run"
    cfg = lih_config(p_cut=1.0, spin_penalty=0.5, max_steps=1, output=str(out))
    run_pipeline(cfg)
    set_keys = [key for key in RUN_KEYS if key != "pauli_sum"]
    for name in ("report.json", "manifest.json"):
        echo = json.loads((out / name).read_text())["config"]
        assert [line.split(" = ")[0] for line in echo] == set_keys, name


def _readme_default(cell: str):
    if cell.startswith("unset"):
        return None
    if cell.startswith("`"):
        text = cell.strip("`")
        return {"true": True, "false": False}.get(text, text)
    return float(cell)


def test_readme_settings_table_lists_every_run_key():
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| key | type | default | allowed |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        key, _, default = (cell.strip() for cell in line.strip("|").split("|")[:3])
        rows.append((key.strip("`"), _readme_default(default)))
    assert rows == [(f.name, f.default) for f in fields(RunConfig)]


@pytest.mark.parametrize("grouping", ["abab", "aabb"])
def test_register_holds_an_orbital_without_integrals(grouping, tmp_path):
    # orbital 4 has no FCIDUMP record: its two spin-orbitals still get qubits,
    # which reduction then drops as stationary
    text = (FIXTURE_DIR / "h2_0.75.fcidump").read_text()
    assert text.startswith("&FCI NORB=4,")
    path = _write(tmp_path / "h2_norb5.fcidump", text.replace("NORB=4,", "NORB=5,", 1))
    out = tmp_path / grouping
    code = main(["run", "--fcidump", path, "--grouping", grouping, "--max-steps", "1",
                 "--output", str(out)])
    assert code in (0, 2)
    report = json.loads((out / "report.json").read_text())
    assert report["n_qubits_encoded"] == 10
    assert report["n_qubits"] == 8


def test_cli_run_and_exit_codes(tmp_path, capsys):
    out = tmp_path / "cli_run"
    code = main([
        "run", "--fcidump", LIH, "--mapping", "parity", "--grouping", "aabb",
        "--output", str(out),
    ])
    assert code == 0
    assert (out / "report.json").exists()
    captured = capsys.readouterr()
    assert "converged=True" in captured.out

    # non-convergence: zero steps allowed but reference unreachable
    code = main([
        "run", "--fcidump", LIH, "--mapping", "parity", "--grouping", "aabb",
        "--max-steps", "0",
    ])
    assert code == 2

    code = main(["run", "--fcidump", str(FIXTURE_DIR / "nope.fcidump")])
    assert code == 3


def _write(path, text):
    path.write_text(text)
    return str(path)


# (flag, value) pairs outside a run setting's allowed range
BAD_SETTINGS = [
    ("--descent-fraction", "2"),
    ("--descent-fraction", "0"),
    ("--max-steps", "-1"),
    ("--convergence-tol", "-1"),
    ("--seed", "-1"),
    ("--convergence-tol", "nan"),
    ("--convergence-tol", "inf"),
    ("--spin-penalty", "nan"),
    ("--reference", "mps:chi=0,sweeps=2"),
]

BAD_INPUTS = {
    "mi_entry_above_one": lambda tmp: [
        "pool", "--n-qubits", "2",
        "--mi", _write(tmp / "mi.csv", "qubit,0,1\n0,0,2\n1,2,0\n"),
    ],
    "mi_non_numeric": lambda tmp: [
        "pool", "--n-qubits", "2",
        "--mi", _write(tmp / "mi.csv", "qubit,0,1\n0,0,x\n1,x,0\n"),
    ],
    "pool_zero_qubits": lambda tmp: ["pool", "--n-qubits", "0"],
    "pauli_sum_non_integer_qubits": lambda tmp: [
        "run", "--pauli-sum", _write(tmp / "bad.pauli", "qubits: abc\n1.0 Z0\n"),
    ],
    "pauli_sum_odd_y": lambda tmp: ["run", "--pauli-sum", _write(tmp / "odd.pauli", ODD_Y_SUM)],
    "mps_non_integer": lambda tmp: ["run", "--fcidump", LIH, "--reference", "mps:chi=x,sweeps=2"],
    "fcidump_non_integer_norb": lambda tmp: [
        "run", "--fcidump",
        _write(tmp / "bad.fcidump", "&FCI NORB=abc,NELEC=2,MS2=0,\n /\n0.1 0 0 0 0\n"),
    ],
    # usage errors: argparse rejects these
    "flag_unknown": lambda tmp: ["run", "--fcidump", LIH, "--bogus", "1"],
    "flag_bad_value": lambda tmp: ["sweep", "--workers", "x", LIH],
    "pool_non_integer_qubits": lambda tmp: ["pool", "--n-qubits", "x"],
    # basin hopping's settings are adaptive-module constants, not run keys
    "removed_hops_flag": lambda tmp: ["run", "--fcidump", LIH, "--hops", "3"],
    "removed_temperature_flag": lambda tmp: ["run", "--fcidump", LIH, "--temperature", "1"],
    "removed_local_tol_key": lambda tmp: [
        "run", "--config", _write(tmp / "run.cfg", f"fcidump = {LIH}\nlocal_tol = 1e-6\n"),
    ],
    "duplicate_config_key": lambda tmp: [
        "run", "--config", _write(tmp / "run.cfg", f"fcidump = {LIH}\nseed = 1\nseed = 2\n"),
    ],
    # run settings out of range, or of the wrong type
    "seed_non_integer": lambda tmp: ["run", "--fcidump", LIH, "--seed", "x"],
    **{
        f"{flag[2:]}_{value}": lambda tmp, flag=flag, value=value: [
            "run", "--fcidump", LIH, flag, value,
        ]
        for flag, value in BAD_SETTINGS
    },
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_cli_bad_input_exits_3_with_one_error_line(case, tmp_path, capsys):
    code = main(BAD_INPUTS[case](tmp_path))
    err = capsys.readouterr().err
    assert code == 3
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith(("error: ", "input error: "))


@pytest.mark.parametrize("nelec,ms2", [(-2, 0), (1, -3), (2, 1), (3, 0)])
def test_cli_fcidump_without_a_determinant_exits_3_at_parse(nelec, ms2, tmp_path, capsys):
    # NELEC and MS2 disagree: no count of alpha and beta electrons has both
    text = Path(LIH).read_text()
    assert "NELEC=2,MS2=0," in text
    path = _write(tmp_path / "spin.fcidump",
                  text.replace("NELEC=2,MS2=0,", f"NELEC={nelec},MS2={ms2},", 1))
    assert main(["run", "--fcidump", path, "--max-steps", "1"]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: stage 'parse' failed: ")


PARSE_REJECTED_INPUTS = {
    "fcidump_nan_core": ("fcidump", " 7.0556966532546395e-01 0 0 0 0", " nan 0 0 0 0"),
    "fcidump_nan_two_body": ("fcidump", " 3.8630508755500981e-01 2 2 2 2", " nan 2 2 2 2"),
    "fcidump_inf_core": ("fcidump", " 7.0556966532546395e-01 0 0 0 0", " inf 0 0 0 0"),
    "pauli_sum_nan": ("pauli-sum", None, "qubits: 2\nnan X0 X1\n0.5 Z0\n"),
    "pauli_sum_inf": ("pauli-sum", None, "qubits: 2\ninf X0 X1\n0.5 Z0\n"),
    "pauli_sum_qubits_above_limit": ("pauli-sum", None, "qubits: 1000000\n0.5 X0 X1\n"),
}


@pytest.mark.parametrize("case", sorted(PARSE_REJECTED_INPUTS))
def test_cli_non_finite_or_oversized_input_exits_3_at_parse(case, tmp_path, capsys):
    # NaN once vanished from H (abs(nan) > cutoff is False) and the run went
    # on; an unbounded qubits header once spent minutes before any size check
    kind, old, new = PARSE_REJECTED_INPUTS[case]
    if kind == "fcidump":
        text = (FIXTURE_DIR / "h2_0.75.fcidump").read_text()
        assert text.count(old + "\n") == 1
        text = text.replace(old + "\n", new + "\n")
    else:
        text = new
    path = _write(tmp_path / f"bad.{kind}", text)
    assert main(["run", f"--{kind}", path, "--max-steps", "1"]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: stage 'parse' failed: ")
    assert "non-finite" in err or "64-qubit limit" in err


def test_cli_pool_rejects_size_above_limit(monkeypatch, capsys):
    import mivqe.screening

    def unguarded(n_qubits, *args):
        raise AssertionError(f"generate_pool({n_qubits}) ran past the size guard")

    monkeypatch.setattr(mivqe.screening, "generate_pool", unguarded)
    assert main(["pool", "--n-qubits", "40"]) == 3
    assert "qubit pool limit" in capsys.readouterr().err


def _pool_must_not_run(monkeypatch):
    import mivqe.screening

    def unguarded(n_qubits, *args):
        raise AssertionError(f"generate_pool({n_qubits}) ran before the input checks")

    monkeypatch.setattr(mivqe.screening, "generate_pool", unguarded)


@pytest.mark.parametrize("flag,value", [("--report", "report.csv"), ("--p-cut", "0.5")],
                         ids=["report", "p_cut"])
def test_cli_pool_screening_flag_without_mi_exits_3_before_the_pool(
    flag, value, tmp_path, monkeypatch, capsys
):
    _pool_must_not_run(monkeypatch)
    monkeypatch.chdir(tmp_path)
    assert main(["pool", "--n-qubits", "3", flag, value]) == 3
    err = capsys.readouterr().err
    assert err == f"input error: {flag} requires --mi\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("p_cut,message", [
    ("0", "p_cut must lie in (0, 1]"),
    ("1.5", "p_cut must lie in (0, 1]"),
    ("nan", "p_cut must lie in (0, 1]"),
    ("1e-6", "leaves an empty pool (minimum achievable percentile is 7.64e-06)"),
], ids=["zero", "above_one", "nan", "below_minimum"])
def test_cli_pool_refuses_a_cut_before_the_pool(p_cut, message, tmp_path, monkeypatch, capsys):
    """A cut outside (0, 1], or below the smallest percentile any word has,
    is refused before any pool is built, and no file is written."""
    _pool_must_not_run(monkeypatch)
    out = tmp_path / "pool.txt"
    assert main(["pool", "--n-qubits", "10", "--mi", str(H2O10_MI), "--p-cut", p_cut,
                 "--report", str(tmp_path / "report.csv"), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and message in err
    assert list(tmp_path.iterdir()) == []


def test_cli_encode_refuses_a_directory_as_out_before_encoding(tmp_path, monkeypatch, capsys):
    reached = []
    monkeypatch.setattr(mivqe.cli, "encode_fcidump_to_text",
                        lambda *a, **kw: reached.append("encode") or "")
    out = tmp_path / "out"
    out.mkdir()
    assert main(["encode", "--fcidump", LIH, "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"input error: --out {out} is a directory, not a file\n"
    assert reached == [] and list(tmp_path.iterdir()) == [out]


@pytest.mark.parametrize("flag", ["--out", "--report"])
def test_cli_pool_refuses_a_directory_as_output_before_the_pool(flag, tmp_path, monkeypatch,
                                                                capsys):
    _pool_must_not_run(monkeypatch)
    out = tmp_path / "out"
    out.mkdir()
    argv = ["pool", "--n-qubits", "3", flag, str(out)]
    if flag == "--report":
        argv += ["--mi", str(H2O10_MI)]
    assert main(argv) == 3
    assert capsys.readouterr().err == f"input error: {flag} {out} is a directory, not a file\n"
    assert list(tmp_path.iterdir()) == [out]


def test_cli_sweep_refuses_a_file_as_output_before_any_problem(tmp_path, monkeypatch, capsys):
    reached = []
    monkeypatch.setattr(mivqe.pipeline, "load_fcidump",
                        lambda *a, **kw: reached.append("load_fcidump"))
    out = tmp_path / "sweep.csv"
    out.write_text("kept\n")
    assert main(["sweep", "--output", str(out), LIH]) == 3
    assert capsys.readouterr().err == f"input error: --output {out} is not a directory\n"
    assert reached == [] and out.read_text() == "kept\n"


def test_cli_write_errors_exit_3(tmp_path, capsys):
    """An output path through a file fails the write with exit 3 and one
    error line."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["pool", "--n-qubits", "3", "--out", str(blocker / "pool.txt")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "Not a directory" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("mi_qubits,n_qubits", [(4, 2), (2, 4)], ids=["mi4_pool2", "mi2_pool4"])
def test_cli_pool_refuses_an_mi_of_another_register(
    mi_qubits, n_qubits, tmp_path, monkeypatch, capsys
):
    """An MI CSV must be for the pool's register, as run requires of an
    imported MI; neither its top-left block nor a smaller matrix is used."""
    _pool_must_not_run(monkeypatch)
    mi = MIMatrix(np.full((mi_qubits, mi_qubits), 0.1) - 0.1 * np.eye(mi_qubits))
    path = _write(tmp_path / "mi.csv", mi.to_csv())
    assert main(["pool", "--n-qubits", str(n_qubits), "--mi", path,
                 "--report", str(tmp_path / "report.csv")]) == 3
    err = capsys.readouterr().err
    assert err == (f"input error: MI matrix is for {mi_qubits} qubits, "
                   f"the pool needs {n_qubits}\n")
    assert not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize("verb", ["pool", "run"])
@pytest.mark.parametrize("header", ["qubit,x,y", "qubit,1,0", "qubit,0,2", "qubit, 0, 1"])
def test_cli_mi_csv_refuses_columns_not_labelled_by_qubit(header, verb, tmp_path, capsys):
    """An MI CSV's columns are read in file order, so its header must label
    them 0, 1, ..., n-1 as MIMatrix.to_csv writes it: for pool --mi and for
    run --reference mi: alike."""
    mi = _write(tmp_path / "mi.csv", f"{header}\n0,0,0.5\n1,0.5,0\n")
    out = tmp_path / "out"
    argv = {
        "pool": ["pool", "--n-qubits", "2", "--mi", mi, "--report", str(out)],
        "run": ["run", "--pauli-sum",
                _write(tmp_path / "h.pauli", "qubits: 2\n0.5 Z0\n0.3 X0 X1\n-0.2 Z1\n"),
                "--reference", f"mi:{mi}", "--max-steps", "1", "--output", str(out)],
    }[verb]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "MI CSV must start with the header row 'qubit,0,1,...'" in err
    assert not out.exists()


def test_cli_fcidump_norb_above_limit_exits_3(tmp_path, monkeypatch, capsys):
    from types import SimpleNamespace

    import mivqe.fcidump

    def refuse(*args, **kwargs):
        raise AssertionError("integral tensors allocated past the NORB limit")

    monkeypatch.setattr(mivqe.fcidump, "np", SimpleNamespace(zeros=refuse))
    path = _write(tmp_path / "big.fcidump", "&FCI NORB=300,NELEC=2,MS2=0,\n /\n0.1 0 0 0 0\n")
    assert main(["run", "--fcidump", path]) == 3
    assert "32-orbital limit" in capsys.readouterr().err


def test_oversized_register_rejected_before_heavy_work(tmp_path, monkeypatch, capsys):
    import mivqe.pipeline

    reached = []
    monkeypatch.setattr(mivqe.pipeline, "exact_ground_state",
                        lambda *a, **kw: reached.append("exact_ground_state"))
    monkeypatch.setattr(mivqe.pipeline, "generate_pool",
                        lambda *a, **kw: reached.append("generate_pool"))
    # an XX chain: every qubit flips, so none is stationary and all 11 stay
    n = 11
    text = f"qubits: {n}\n" + "".join(f"1.0 X{q} X{q + 1}\n" for q in range(n - 1))
    code = main(["run", "--pauli-sum", _write(tmp_path / "chain.pauli", text)])
    assert code == 3
    assert "11 qubits after reduction" in capsys.readouterr().err
    assert reached == []


def test_hamiltonian_above_entry_limit_rejected_before_heavy_work(
    tmp_path, monkeypatch, capsys
):
    reached = []
    monkeypatch.setattr(mivqe.pipeline, "exact_ground_state",
                        lambda *a, **kw: reached.append("exact_ground_state"))
    monkeypatch.setattr(mivqe.pipeline, "generate_pool",
                        lambda *a, **kw: reached.append("generate_pool"))
    # 2 terms x 2^3 = 16 entries against a limit of 15
    monkeypatch.setattr(mivqe.pipeline, "MAX_ACTION_ENTRIES", 15)
    path = _write(tmp_path / "chain.pauli", "qubits: 3\n1.0 X0 X1\n1.0 X1 X2\n")
    with pytest.raises(PipelineError) as err:
        run_pipeline(RunConfig(pauli_sum=path))
    assert err.value.stage == "pool"
    assert main(["run", "--pauli-sum", path]) == 3
    assert "2 terms on 3 qubits exceed the 15-entry limit" in capsys.readouterr().err
    assert reached == []


@pytest.mark.parametrize("flag,value", BAD_SETTINGS)
def test_bad_run_setting_rejected_before_any_stage(flag, value, monkeypatch, capsys):
    reached = []
    for name in ("load_fcidump", "generate_pool", "exact_ground_state"):
        monkeypatch.setattr(mivqe.pipeline, name,
                            lambda *a, name=name, **kw: reached.append(name))
    assert main(["run", "--fcidump", LIH, flag, value]) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and flag[2:].replace("-", "_") in err
    assert reached == []


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["run", "--help"])
    assert exit_.value.code == 0
    assert "--descent-fraction" in capsys.readouterr().out


def test_every_run_key_has_help_text():
    assert [f.name for f in fields(RunConfig) if not f.metadata.get("help")] == []


@pytest.mark.parametrize("args", [["--max-st", "x"], ["--conv", "-1"]], ids=["max-st", "conv"])
def test_abbreviated_flag_is_a_usage_error(args, capsys):
    """A flag prefix is not taken as the full key: the config file refuses
    `conv = -1` as an unknown key, so the flag must fail as unknown too."""
    code = main(["run", "--fcidump", LIH, *args])
    err = capsys.readouterr().err
    assert code == 3
    assert err == f"error: mivqe: unrecognized arguments: {' '.join(args)}\n"


def test_duplicate_config_key_is_refused_and_flags_still_override():
    with pytest.raises(ConfigError, match="duplicate config key 'seed'"):
        parse_config(f"fcidump = {LIH}\nseed = 1\nseed = 2\n")
    assert parse_config(f"fcidump = {LIH}\nseed = 1\n", seed="2").seed == 2


SAMPLE_VALUES = ["x", "-1", "0", "0.5", "2", "true", "jw", "mps:chi=2,sweeps=1"]


@pytest.mark.parametrize("key", [f.name for f in fields(RunConfig)])
def test_flag_and_config_file_parse_alike(key, tmp_path, monkeypatch, capsys):
    seen = []

    def capture(cfg):
        seen.append(cfg)
        raise PipelineError("adapt", "stopped after parsing")

    monkeypatch.setattr(mivqe.cli, "run_pipeline", capture)
    base = [] if key == "fcidump" else ["--fcidump", LIH]
    base_text = "" if key == "fcidump" else f"fcidump = {LIH}\n"
    for value in SAMPLE_VALUES:
        seen.clear()
        flag_code = main(["run", *base, "--" + key.replace("_", "-"), value])
        flag_out = (list(seen), capsys.readouterr().err)
        seen.clear()
        path = _write(tmp_path / "run.cfg", f"{base_text}{key} = {value}\n")
        file_code = main(["run", "--config", path])
        file_out = (list(seen), capsys.readouterr().err)
        assert (flag_code, flag_out) == (file_code, file_out), (key, value)
        assert flag_code == 3


def test_sweep_caps_workers_at_config_count(monkeypatch):
    requested = []

    class SerialExecutor:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(mivqe.pipeline, "ProcessPoolExecutor", SerialExecutor)
    missing = str(FIXTURE_DIR / "missing.fcidump")
    tagged = [(tag, lih_config(fcidump=missing)) for tag in ("a", "b", "c")]
    table = sweep(tagged, workers=5000)
    assert requested == [3]
    assert len(table.strip().splitlines()) == 4
    sweep(tagged[:1], workers=5000)  # one config runs in-process
    assert requested == [3]


def _refuse_processes(*args, **kwargs):
    raise AssertionError("a worker process pool was started")


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_cli_sweep_rejects_workers_below_one(workers, monkeypatch, capsys):
    reached = []
    monkeypatch.setattr(mivqe.pipeline, "load_fcidump",
                        lambda *a, **kw: reached.append("load_fcidump"))
    monkeypatch.setattr(mivqe.pipeline, "ProcessPoolExecutor", _refuse_processes)
    assert main(["sweep", "--workers", workers, LIH]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and f"--workers: must be at least 1, got {workers}" in err
    assert reached == []


@pytest.mark.parametrize("workers", [0, -1])
def test_sweep_rejects_workers_below_one(workers, monkeypatch):
    reached = []
    monkeypatch.setattr(mivqe.pipeline, "load_fcidump",
                        lambda *a, **kw: reached.append("load_fcidump"))
    monkeypatch.setattr(mivqe.pipeline, "ProcessPoolExecutor", _refuse_processes)
    with pytest.raises(PipelineError) as err:
        sweep([("lih", lih_config())], workers=workers)
    assert err.value.stage == "sweep"
    assert f"workers must be at least 1, got {workers}" in str(err.value)
    assert reached == []


def test_cli_sweep_rejects_two_fcidumps_with_one_stem(tmp_path, monkeypatch, capsys):
    # both runs would write to <output>/lih_1.60 under the tag lih_1.60
    twin = tmp_path / "copy" / Path(LIH).name
    twin.parent.mkdir()
    twin.write_text(Path(LIH).read_text())
    reached = []
    monkeypatch.setattr(mivqe.pipeline, "load_fcidump",
                        lambda *a, **kw: reached.append("load_fcidump"))
    monkeypatch.setattr(mivqe.pipeline, "ProcessPoolExecutor", _refuse_processes)
    out = tmp_path / "out"
    assert main(["sweep", "--workers", "2", "--output", str(out), LIH, str(twin)]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: stage 'sweep' failed: duplicate tags ['lih_1.60']")
    assert reached == [] and not out.exists()


def test_sweep_rejects_duplicate_tags(monkeypatch):
    reached = []
    monkeypatch.setattr(mivqe.pipeline, "load_fcidump",
                        lambda *a, **kw: reached.append("load_fcidump"))
    monkeypatch.setattr(mivqe.pipeline, "ProcessPoolExecutor", _refuse_processes)
    far = lih_config(fcidump=LIH_FAR)
    with pytest.raises(PipelineError) as err:
        sweep([("lih", lih_config()), ("far", far), ("lih", far)], workers=2)
    assert err.value.stage == "sweep"
    assert "duplicate tags ['lih']" in str(err.value)
    assert reached == []


def _raise_value_error(*args, **kwargs):
    raise ValueError("injected")


STAGE_CALLEES = [
    ("parse", "load_fcidump"),
    ("encode", "build_hamiltonian"),
    ("reduce", "reduce_stationary_qubits"),
    ("pool", "generate_pool"),
    ("reference", "exact_ground_state"),
    ("reference", "ground_energy"),
    ("screen", "percentile_of_strengths"),
    ("adapt", "run_adaptive"),
    ("artifacts", "write_text_atomic"),
]


@pytest.mark.parametrize("stage,callee", STAGE_CALLEES)
def test_stage_errors_name_their_stage(stage, callee, tmp_path, monkeypatch):
    monkeypatch.setattr(mivqe.pipeline, callee, _raise_value_error)
    with pytest.raises(PipelineError) as err:
        run_pipeline(lih_config(max_steps=1, output=str(tmp_path / "run")))
    assert err.value.stage == stage
    assert str(err.value) == f"stage '{stage}' failed: injected"
    assert isinstance(err.value.__cause__, ValueError)


def test_pauli_sum_parse_error_names_parse_stage(tmp_path):
    path = _write(tmp_path / "bad.pauli", "qubits: abc\n1.0 Z0\n")
    with pytest.raises(PipelineError) as err:
        run_pipeline(RunConfig(pauli_sum=path))
    assert err.value.stage == "parse"


def test_cli_import_leaves_scipy_stats_out():
    code = "import sys, mivqe.cli; print('scipy.stats' in sys.modules)"
    src = str(Path(mivqe.cli.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"


def test_unreduced_baseline_register_limit_checked_first(tmp_path, monkeypatch, capsys):
    import mivqe.pipeline

    reached = []
    monkeypatch.setattr(mivqe.pipeline, "exact_ground_state",
                        lambda *a, **kw: reached.append("exact_ground_state"))
    monkeypatch.setattr(mivqe.pipeline, "generate_pool",
                        lambda *a, **kw: reached.append("generate_pool"))
    # a 3-qubit XX chain plus 15 Z-only qubits: the run register stays small,
    # the 18-qubit encoded register is past the baseline limit
    n = 18
    text = f"qubits: {n}\n1.0 X0 X1\n1.0 X1 X2\n" + "".join(f"0.5 Z{q}\n" for q in range(3, n))
    path = _write(tmp_path / "wide.pauli", text)
    code = main(["run", "--pauli-sum", path, "--baseline", "unreduced"])
    assert code == 3
    assert "18 encoded qubits exceed" in capsys.readouterr().err
    assert reached == []


def test_cli_encode_and_pool(tmp_path, capsys):
    out_file = tmp_path / "h.pauli"
    code = main([
        "encode", "--fcidump", LIH, "--mapping", "jw", "--out", str(out_file),
    ])
    assert code == 0
    H = parse_pauli_sum(out_file.read_text())
    assert H.n_qubits == 6

    pool_file = tmp_path / "pool.txt"
    code = main(["pool", "--n-qubits", "4", "--out", str(pool_file)])
    assert code == 0
    from helpers import pool_from_text

    pool = pool_from_text(pool_file.read_text())
    assert len(pool) == 120


def test_cli_encode_header_names_its_input(tmp_path, capsys):
    """A Pauli sum's header names its path and no mapping or grouping, which
    only shape an FCIDUMP's encoding (it read "encoded from None
    mapping=jordan_wigner grouping=abab"); the FCIDUMP header keeps its text."""
    path = _write(tmp_path / "h.pauli", "qubits: 3\n0.5 Z0\n0.3 X0 X1\n-0.2 Z2\n")
    assert main(["encode", "--pauli-sum", path]) == 0
    assert capsys.readouterr().out.splitlines()[:2] == [
        f"# read from {path} reduced=[2]", "qubits: 2"
    ]
    assert main(["encode", "--pauli-sum", path, "--reduce-stationary", "false"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == f"# read from {path} reduced=[]"
    assert main(["encode", "--fcidump", LIH, "--mapping", "jw"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        f"# encoded from {LIH} mapping=jordan_wigner grouping=abab reduced=[]"
    )


def test_pool_text_matches_recorded_digests(tmp_path):
    """pool --report, pool --out and a screened run's pool_screened.txt keep
    every byte recorded in pool_sha256.txt."""
    recorded = {}
    for line in POOL_DIGESTS.read_text().splitlines():
        if line and not line.startswith("#"):
            digest, name = line.split()
            recorded[name] = digest
    assert main(["pool", "--n-qubits", "10", "--mi", str(H2O10_MI), "--p-cut", "0.05",
                 "--report", str(tmp_path / "report.csv"),
                 "--out", str(tmp_path / "screened.txt")]) == 0
    assert main(["pool", "--n-qubits", "8", "--out", str(tmp_path / "pool8.txt")]) == 0
    assert main(["run", "--fcidump", LIH_FAR,
                 "--mapping", "parity", "--grouping", "aabb", "--p-cut", "0.3",
                 "--max-steps", "1", "--output", str(tmp_path / "lih")]) in (0, 2)
    files = {
        "pool_report_h2o10": "report.csv",
        "pool_out_h2o10": "screened.txt",
        "pool_out_8": "pool8.txt",
        "run_pool_screened_lih_2.40": "lih/pool_screened.txt",
    }
    digests = {
        name: hashlib.sha256((tmp_path / path).read_bytes()).hexdigest()
        for name, path in files.items()
    }
    assert digests == recorded


def _spy_on_pool_sizes(monkeypatch) -> list:
    """The length of every EntanglerPool built from now on, in order."""
    from mivqe.screening import EntanglerPool

    sizes = []
    post_init = EntanglerPool.__post_init__

    def spy(pool):
        post_init(pool)
        sizes.append(len(pool))

    monkeypatch.setattr(EntanglerPool, "__post_init__", spy)
    return sizes


def test_screened_pool_out_builds_only_the_screened_words(tmp_path, monkeypatch):
    """pool --p-cut --out without --report builds the 26,033 screened words
    of the 523,776-word pool and no larger pool, and writes the bytes
    pool_sha256.txt recorded for it."""
    sizes = _spy_on_pool_sizes(monkeypatch)
    out = tmp_path / "screened.txt"
    assert main(["pool", "--n-qubits", "10", "--mi", str(H2O10_MI), "--p-cut", "0.05",
                 "--out", str(out)]) == 0
    assert max(sizes) == sizes[0] == 26_033
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert f"{digest}  pool_out_h2o10" in POOL_DIGESTS.read_text().splitlines()


def test_screened_run_builds_only_the_screened_words(monkeypatch):
    from mivqe.screening import pool_size

    sizes = _spy_on_pool_sizes(monkeypatch)
    report, problem = run_pipeline(lih_config(p_cut=0.3, max_steps=1))
    assert sizes == [len(problem.pool)]
    assert len(problem.pool) < pool_size(problem.hamiltonian.n_qubits)


def test_unscreened_rerun_removes_the_screened_pool(tmp_path):
    """A run without p_cut into the directory of a screened run leaves no
    pool_screened.txt whose provenance contradicts report.json."""
    out = tmp_path / "run"
    run_pipeline(lih_config(p_cut=0.5, max_steps=1, output=str(out)))
    assert (out / "pool_screened.txt").read_text().startswith(
        "# pool provenance: screened(p_cut=0.5)\n"
    )
    run_pipeline(lih_config(max_steps=1, output=str(out)))
    report = json.loads((out / "report.json").read_text())
    assert report["pool"]["provenance"] == "stationary_reduced"
    assert sorted(path.name for path in out.iterdir()) == [
        "manifest.json", "mi.csv", "report.json", "steps.csv"
    ]


def test_mi_report_removes_an_earlier_ladders_mi_files(tmp_path):
    """Only this ladder's mi_mps_*.csv files are left beside mi_report.json."""
    out = tmp_path / "mi"
    mi_report(lih_config(max_steps=1, output=str(out)), [MpsBackend(chi=2, sweeps=2)])
    assert (out / "mi_mps_chi2_sweeps2.csv").is_file()
    report = mi_report(lih_config(max_steps=1, output=str(out)), [MpsBackend(chi=4, sweeps=2)])
    assert list(report["columns"]) == ["exact", "mps:chi=4,sweeps=2"]
    assert sorted(path.name for path in out.glob("mi_*.csv")) == [
        "mi_compare.csv", "mi_mps_chi4_sweeps2.csv"
    ]


def test_cli_sweep(tmp_path):
    out = tmp_path / "sw"
    code = main([
        "sweep", "--mapping", "parity", "--grouping", "aabb",
        "--output", str(out), LIH, LIH_FAR,
    ])
    assert code in (0, 2)
    table = (out / "sweep.csv").read_text()
    assert len(table.strip().splitlines()) == 3


def test_cli_mi_report(tmp_path, capsys):
    out = tmp_path / "mi_cli"
    code = main([
        "mi-report", "--fcidump", LIH, "--mapping", "parity", "--grouping", "aabb",
        "--mps", "chi=2,sweeps=3", "--output", str(out),
    ])
    assert code == 0
    assert (out / "mi_compare.csv").exists()
    assert (out / "mi_report.json").exists()
    captured = capsys.readouterr()
    assert "mps:chi=2,sweeps=3" in captured.out


def test_mi_compare_csv_reads_back_with_its_column_names(tmp_path):
    """Column names such as mps:chi=2,sweeps=2 hold commas: the header is
    quoted, so it reads back as one name per column and every row has as
    many fields (written unquoted, it split into 5 names over 4 fields)."""
    settings = [MpsBackend(chi=2, sweeps=2), MpsBackend(chi=4, sweeps=1)]
    out = mi_report(lih_config(max_steps=2, output=str(tmp_path / "mi")), settings)
    with open(tmp_path / "mi" / "mi_compare.csv", newline="") as f:
        reader = csv.DictReader(f)
        rows = list(reader)
    names = ["index", "word", "exact", "mps:chi=2,sweeps=2", "mps:chi=4,sweeps=1"]
    assert reader.fieldnames == names
    assert rows and [r["word"] for r in rows] == out["entanglers"]
    assert all(None not in r and len(r) == len(names) for r in rows)
    assert [float(r["mps:chi=4,sweeps=1"]) for r in rows] == (
        out["columns"]["mps:chi=4,sweeps=1"]["percentiles"]
    )


def test_step_words_reach_every_artifact_from_their_masks(tmp_path, monkeypatch):
    """A step holds its word as (x, z): steps.csv, report.json and
    mi_compare.csv each write the factor list that parses back to those
    masks, and the step's percentile is the percentile table at x | z."""
    runs = []
    run_pipeline = mivqe.pipeline.run_pipeline

    def spy(cfg):
        runs.append(run_pipeline(cfg))
        return runs[-1]

    monkeypatch.setattr(mivqe.pipeline, "run_pipeline", spy)
    out = tmp_path / "lih"
    mi_report(lih_config(fcidump=LIH_FAR, output=str(out)), [])
    ((report, problem),) = runs
    n = problem.hamiltonian.n_qubits
    data = json.loads((out / "report.json").read_text())
    with open(out / "steps.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    with open(out / "mi_compare.csv", newline="") as f:
        compare = list(csv.DictReader(f))
    assert report.n_ent > 1
    assert len(rows) == len(data["steps"]) == len(compare) == report.n_ent
    for s, row, step, entry in zip(report.steps, rows, data["steps"], compare):
        assert (s.x & s.z).bit_count() % 2 == 1  # an odd-Y pool word
        assert parse_pauli_factors(row["word"], n) == (s.x, s.z)
        assert parse_pauli_factors(step["word"], n) == (s.x, s.z)
        assert s.percentile == problem.percentile_table[s.x | s.z]
        assert entry["word"] == step["word"]
    assert [a["word"] for a in data["ansatz"]] == [step["word"] for step in data["steps"]]


def test_mi_report_refuses_a_repeated_setting_before_the_run(monkeypatch):
    """chi=02 is chi=2: one column would silently keep one of two DMRG runs."""
    monkeypatch.setattr(mivqe.pipeline, "run_pipeline",
                        lambda cfg: pytest.fail("the run started"))
    settings = [MpsBackend(2, 2), MpsBackend(4, 1), MpsBackend(2, 2)]
    with pytest.raises(PipelineError, match=r"settings \['mps:chi=2,sweeps=2'\] given more"):
        mi_report(lih_config(), settings)


def test_cli_mi_report_repeated_mps_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(mivqe.pipeline, "run_pipeline",
                        lambda cfg: pytest.fail("the run started"))
    out = tmp_path / "mi"
    assert main(["mi-report", "--fcidump", LIH, "--mps", "chi=2,sweeps=2",
                 "--mps", "chi=02,sweeps=2", "--output", str(out)]) == 3
    assert "given more than once" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("reference", ["mps:chi=1,sweeps=1", "mi:{tmp}/mi.csv"],
                         ids=["mps", "mi"])
def test_cli_mi_report_refuses_a_non_exact_reference(reference, tmp_path, monkeypatch, capsys):
    """Every column is measured against the exact MI of the first column; a
    run on another reference wrote its own MI under the key exact, with
    energy_gap 0.0 and spearman_vs_exact 1.0."""
    monkeypatch.setattr(mivqe.pipeline, "run_pipeline",
                        lambda cfg: pytest.fail("the run started"))
    reference = reference.format(tmp=tmp_path)
    out = tmp_path / "mi"
    assert main(["mi-report", "--fcidump", LIH, "--reference", reference,
                 "--mps", "chi=1,sweeps=1", "--output", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"error: stage 'mi-report' failed: the reference must be exact, got {reference!r}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("terms", ["", "1e-13 Z0\n-1e-13 X0 X1\n"], ids=["no_terms", "below_cutoff"])
def test_cli_empty_hamiltonian_exits_3_before_the_pool(terms, tmp_path, monkeypatch, capsys):
    """With no term left there is nothing to act with; the compiled action
    used to fail on a zero CSR row step (stage 'reference': division by zero)."""
    monkeypatch.setattr(mivqe.pipeline, "generate_pool",
                        lambda *a: pytest.fail("the pool was built"))
    path = _write(tmp_path / "empty.pauli", f"qubits: 2\n{terms}")
    assert main(["run", "--pauli-sum", path, "--reduce-stationary", "false",
                 "--output", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err == (
        "error: stage 'pool' failed: the Hamiltonian has no term above the 1e-12 "
        "coefficient cutoff\n"
    )


def test_mps_artifacts_do_not_depend_on_an_unset_thread_count(tmp_path):
    """mi-report at chi=8 (a 256-wide dense DMRG solve, whose eigh moves
    with the BLAS thread count) writes the same bytes with the thread
    variables removed as with them set to 1, since the package sets 1 when
    they are unset. On a one-core machine this test cannot fail."""
    src = str(Path(mivqe.cli.__file__).resolve().parents[1])
    fcidump = str(FIXTURE_DIR / "h2o_1.80.fcidump")
    code = "import sys; from mivqe.cli import main; sys.exit(main(sys.argv[1:]))"
    argv = ["mi-report", "--fcidump", fcidump, "--mapping", "parity", "--grouping", "aabb",
            "--spin-penalty", "0.5", "--max-steps", "2", "--mps", "chi=8,sweeps=8",
            "--seed", "7", "--output", "out"]
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    unset = {k: v for k, v in os.environ.items() if k not in threads}
    outputs = []
    for name, env in (("unset", unset), ("one", {**unset, **dict.fromkeys(threads, "1")})):
        (tmp_path / name).mkdir()
        subprocess.run([sys.executable, "-c", code, *argv], cwd=tmp_path / name, check=True,
                       capture_output=True, env={**env, "PYTHONPATH": src})
        out = tmp_path / name / "out"
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert "mi_mps_chi8_sweeps8.csv" in outputs[0]
    assert outputs[0] == outputs[1]
