"""End-to-end orchestration: parse -> build -> encode -> reduce -> pool size
checks -> reference/MI -> screen -> screened pool -> adaptive run -> artifacts.

Artifacts per run: report.json (full), steps.csv, mi.csv, pool file when
screening, and manifest.json with the config echo, input checksums and tool
version. All floating-point output is capped at 12 significant digits so
reruns with the same seed are byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, mps
from .adaptive import SCORER_MAX_QUBITS, RunReport, run_adaptive
from .config import MpsBackend, RunConfig, parse_reference
from .encodings import encode, hf_reference, reduce_stationary_qubits
from .fcidump import load_fcidump
from .fermion import build_hamiltonian, hf_occupations, s_squared_operator
from .mps import mps_ground_state
from .pauli import COEFF_CUTOFF, PauliSum, format_pauli_sum, parse_pauli_sum
from .reference import (
    EXACT_MAX_QUBITS,
    LanczosConvergenceError,
    MIMatrix,
    exact_ground_state,
    ground_energy,
    mutual_information,
)
from .screening import (
    EntanglerPool,
    generate_pool,
    percentile_of_strengths,
    pool_size,
    pool_spearman,
    pool_strengths,  # noqa: F401  off the run path; perfbench/tracer.py times it here
    screen_pool,
    support_strengths,
)
from .simulator import MAX_ACTION_ENTRIES, Ansatz, action_entries


class PipelineError(RuntimeError):
    def __init__(self, stage: str, cause: Exception | str):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage


@contextmanager
def _stage(name: str):
    """Report any error raised in the block as a PipelineError of stage name.

    A PipelineError passes through unchanged, keeping its own stage.
    """
    try:
        yield
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(name, exc) from exc


def _fmt(x: float) -> float:
    """Round through 12 significant digits for deterministic artifacts."""
    return float(f"{x:.12g}")


def _sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass
class Problem:
    """Everything the adaptive driver needs, assembled from a RunConfig."""

    config: RunConfig
    hamiltonian: PauliSum
    reference_bits: list[int]
    pool: EntanglerPool
    mi: MIMatrix
    # 2^n support tables, read by a word's support mask x | z: the run
    # register's strengths, and the percentiles against the baseline pool
    strength_table: np.ndarray
    percentile_table: np.ndarray
    reference_energy: float | None
    removed_qubits: list[tuple[int, int]]
    n_qubits_encoded: int
    reference_note: str
    # under baseline = unreduced with qubits removed: each run qubit's place
    # in the encoded register that the percentiles are counted on
    baseline_index_map: dict[int, int] | None = None
    mps_energy_gap: float | None = None
    warnings: list[str] | None = None

    @property
    def baseline_pool_size(self) -> int:
        lifted = self.baseline_index_map is not None
        return pool_size(self.n_qubits_encoded if lifted else self.hamiltonian.n_qubits)


def _support_tables(mi, n_qubits: int, n_encoded: int, baseline_index_map):
    """The run register's support table of mi and the baseline's (lifted or the same)."""
    table = support_strengths(n_qubits, mi)
    if baseline_index_map is None:
        return table, table
    return table, support_strengths(n_encoded, mi.embedded(baseline_index_map, n_encoded))


def _mps_mi(mpo: mps.MPO, backend: MpsBackend, seed: int, bits):
    """(energy, MI) of the MPO's DMRG ground state at the backend's chi and sweeps."""
    e_mps, state, _trace = mps_ground_state(
        mpo, chi=backend.chi, n_sweeps=backend.sweeps, seed=seed, init_bits=bits
    )
    return e_mps, mutual_information(state)


def _load_hamiltonian(cfg: RunConfig):
    """Returns (encoded PauliSum, reference bits, n encoded qubits)."""
    if cfg.fcidump is not None:
        with _stage("parse"):
            ints = load_fcidump(cfg.fcidump)
        with _stage("encode"):
            op = build_hamiltonian(ints, cfg.grouping)
            if cfg.spin_penalty is not None:
                op = op + cfg.spin_penalty * s_squared_operator(ints.n_orbitals, cfg.grouping)
            H = encode(op, cfg.mapping, 2 * ints.n_orbitals)
            occ = hf_occupations(
                ints.n_orbitals, ints.n_electrons, ints.ms2, cfg.grouping
            )
            bits = hf_reference(cfg.mapping, occ)
        return H, bits
    with _stage("parse"):
        H = parse_pauli_sum(Path(cfg.pauli_sum).read_text())
    # imported Hamiltonians start from |0...0> unless stationary bits say otherwise
    return H, [0] * H.n_qubits


def prepare_problem(cfg: RunConfig) -> Problem:
    H_full, bits_full = _load_hamiltonian(cfg)
    n_encoded = H_full.n_qubits

    if cfg.reduce_stationary:
        with _stage("reduce"):
            H, removed, index_map = reduce_stationary_qubits(H_full, bits_full)
        survivors = sorted(index_map, key=index_map.get)
        bits = [bits_full[q] for q in survivors]
    else:
        H, removed, index_map = H_full, [], {q: q for q in range(n_encoded)}
        bits = list(bits_full)

    if len(H) == 0:
        raise PipelineError(
            "pool", f"the Hamiltonian has no term above the {COEFF_CUTOFF:g} coefficient cutoff"
        )
    if H.n_qubits > SCORER_MAX_QUBITS:
        raise PipelineError(
            "pool",
            f"{H.n_qubits} qubits after reduction exceed the "
            f"{SCORER_MAX_QUBITS}-qubit limit of the pool scorer",
        )
    if (H.y % 2).any():
        raise PipelineError("pool", "pool scorer requires an even-Y (real) Hamiltonian")
    if action_entries(H) > MAX_ACTION_ENTRIES:
        raise PipelineError(
            "pool",
            f"{len(H)} terms on {H.n_qubits} qubits exceed the "
            f"{MAX_ACTION_ENTRIES}-entry limit of the compiled Hamiltonian",
        )
    baseline_index_map = index_map if cfg.baseline == "unreduced" and removed else None
    # the unreduced baseline's 2^n support table over the encoded register
    # is held to the exact backend's 2^n-amplitude limit
    if baseline_index_map is not None and n_encoded > EXACT_MAX_QUBITS:
        raise PipelineError(
            "pool",
            f"{n_encoded} encoded qubits exceed the {EXACT_MAX_QUBITS}-qubit "
            f"limit of the unreduced baseline",
        )
    warnings: list[str] = []
    # the stationary-sector check needs the encoded register's exact ground
    # energy, so it is skipped above the exact backend's limits
    check_sector = False
    if removed and n_encoded > EXACT_MAX_QUBITS:
        warnings.append(
            f"stationary-qubit sector check skipped: {n_encoded} encoded qubits exceed "
            f"the {EXACT_MAX_QUBITS}-qubit limit of the exact backend"
        )
    elif removed and action_entries(H_full) > MAX_ACTION_ENTRIES:
        warnings.append(
            f"stationary-qubit sector check skipped: {len(H_full)} terms on {n_encoded} "
            f"encoded qubits exceed the {MAX_ACTION_ENTRIES}-entry limit of the "
            f"compiled Hamiltonian"
        )
    else:
        check_sector = bool(removed)

    reference = parse_reference(cfg.reference)
    reference_energy = None
    reference_note = ""
    mps_gap = None
    with _stage("reference"):
        # the convergence reference is always the exact backend when it
        # converges; the MI source (exact / MPS / import) is independent
        try:
            reference_energy, exact_state = exact_ground_state(H, seed=cfg.seed)
        except LanczosConvergenceError as exc:
            warnings.append(f"exact reference unavailable: {exc}")
            exact_state = None
        if isinstance(reference, MpsBackend):
            # called through the module, as in mi_report, so that a wrapper
            # installed on mivqe.mps.build_mpo sees every build
            e_mps, mi = _mps_mi(mps.build_mpo(H), reference, cfg.seed, bits)
            if reference_energy is not None:
                mps_gap = e_mps - reference_energy
            reference_note = reference.tag()
        elif reference == "exact":
            if exact_state is None:
                raise PipelineError("reference", warnings[-1])
            mi = mutual_information(exact_state)
            reference_note = "exact"
        else:
            _, mi_path = reference
            mi = MIMatrix.from_csv(Path(mi_path).read_text())
            if mi.n_qubits != H.n_qubits:
                raise ValueError(
                    f"imported MI is for {mi.n_qubits} qubits, run needs {H.n_qubits}"
                )
            reference_note = f"mi import: {mi_path}"
            if reference_energy is None:
                reference_note += " (descent-stall convergence)"
        if check_sector and reference_energy is not None:
            # HF-sector sanity: the reduced ground energy must match the
            # full-register one, otherwise the ground state lives in another
            # stationary sector; only the energy is needed, so ARPACK gives
            # it on the merged H matrix
            e_full = ground_energy(H_full, seed=cfg.seed)
            if reference_energy - e_full > 1e-9:
                warnings.append(
                    f"stationary-qubit sector from the HF reference misses the "
                    f"true ground state: full-register ground {e_full:.12g} vs "
                    f"reduced-sector {reference_energy:.12g}"
                )

    with _stage("screen"):
        table, baseline = _support_tables(mi, H.n_qubits, n_encoded, baseline_index_map)
        percentile_table = percentile_of_strengths(table, baseline)
        if cfg.p_cut is not None:
            keep, provenance = screen_pool(table, cfg.p_cut)
        else:
            keep, provenance = None, "stationary_reduced" if removed else "original"
    with _stage("pool"):
        pool = generate_pool(H.n_qubits, keep, provenance)

    return Problem(
        config=cfg,
        hamiltonian=H,
        reference_bits=bits,
        pool=pool,
        mi=mi,
        strength_table=table,
        percentile_table=percentile_table,
        reference_energy=reference_energy,
        removed_qubits=removed,
        n_qubits_encoded=n_encoded,
        reference_note=reference_note,
        baseline_index_map=baseline_index_map,
        mps_energy_gap=mps_gap,
        warnings=warnings,
    )


def report_to_dict(problem: Problem, report: RunReport, ansatz: Ansatz) -> dict:
    cfg = problem.config
    words = report.words
    return {
        "tool": {"name": "mivqe", "version": __version__},
        "config": cfg.to_text().strip().splitlines(),
        "n_qubits_encoded": problem.n_qubits_encoded,
        "n_qubits": problem.hamiltonian.n_qubits,
        "removed_qubits": [[q, eig] for q, eig in problem.removed_qubits],
        "pool": {
            "provenance": problem.pool.provenance,
            "size": len(problem.pool),
            "baseline": cfg.baseline,
            "baseline_size": problem.baseline_pool_size,
        },
        "reference": {
            "note": problem.reference_note,
            "energy": None
            if problem.reference_energy is None
            else _fmt(problem.reference_energy),
            "mps_energy_gap": None
            if problem.mps_energy_gap is None
            else _fmt(problem.mps_energy_gap),
        },
        "warnings": list(problem.warnings or []),
        "hf_energy": _fmt(report.hf_energy),
        "final_energy": _fmt(report.final_energy),
        "converged": report.converged,
        "stop_reason": report.stop_reason,
        "n_ent": report.n_ent,
        "p_max": None if report.p_max is None else _fmt(report.p_max),
        "p_avg": None if report.p_avg is None else _fmt(report.p_avg),
        "steps": [
            {
                "step": s.step,
                "word": word,
                "tau": _fmt(s.tau),
                "energy": _fmt(s.energy),
                "descent": _fmt(s.descent),
                "percentile": _fmt(s.percentile),
                "acceptable_count": s.acceptable_count,
            }
            for s, word in zip(report.steps, words)
        ],
        "ansatz": [{"word": w, "tau": _fmt(t)} for w, t in zip(words, ansatz.parameters)],
    }


def steps_csv(report: RunReport) -> str:
    lines = ["step,word,tau,energy,descent,percentile,acceptable_count"]
    for s, word in zip(report.steps, report.words):
        lines.append(
            f"{s.step},{word},{s.tau:.12g},{s.energy:.12g},"
            f"{s.descent:.12g},{s.percentile:.12g},{s.acceptable_count}"
        )
    return "\n".join(lines) + "\n"


def _manifest(cfg: RunConfig) -> dict:
    checksums = {}
    for key in ("fcidump", "pauli_sum"):
        path = getattr(cfg, key)
        if path is not None:
            checksums[key] = _sha256(path)
    ref = parse_reference(cfg.reference)
    if isinstance(ref, tuple) and ref[0] == "mi":
        checksums["mi"] = _sha256(ref[1])
    return {
        "tool": {"name": "mivqe", "version": __version__},
        "config": cfg.to_text().strip().splitlines(),
        "input_checksums": checksums,
        "seed": cfg.seed,
    }


def write_text_atomic(path: Path, text: str | Iterable[str]) -> None:
    """Write text to path through a temporary file in the same directory.

    text is a string or its blocks in order. os.replace then swaps the file
    in, so path holds either its old content or all of text, never a partial
    write.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w") as f:
            f.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_json(path: Path, obj: dict) -> None:
    write_text_atomic(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def run_pipeline(cfg: RunConfig) -> tuple[RunReport, Problem]:
    problem = prepare_problem(cfg)
    with _stage("adapt"):
        report, ansatz = run_adaptive(
            problem.hamiltonian,
            problem.pool,
            problem.strength_table,
            problem.percentile_table,
            problem.reference_bits,
            cfg.adaptive_config(),
            reference_energy=problem.reference_energy,
        )

    if cfg.output is not None:
        with _stage("artifacts"):
            out = Path(cfg.output)
            out.mkdir(parents=True, exist_ok=True)
            # the manifest marks a complete artifact set: a previous run's
            # goes first (with its pool) and this run's is written last, so
            # an interrupted rerun cannot look complete
            for stale in ("manifest.json", "pool_screened.txt"):
                (out / stale).unlink(missing_ok=True)
            _write_json(out / "report.json", report_to_dict(problem, report, ansatz))
            write_text_atomic(out / "steps.csv", steps_csv(report))
            write_text_atomic(out / "mi.csv", problem.mi.to_csv())
            if cfg.p_cut is not None:
                write_text_atomic(out / "pool_screened.txt", problem.pool.to_text())
            _write_json(out / "manifest.json", _manifest(cfg))
    return report, problem


def _sweep_row(args):
    tag, cfg = args
    try:
        report, _problem = run_pipeline(cfg)
        return {
            "tag": tag,
            "p_max": "" if report.p_max is None else f"{report.p_max:.12g}",
            "p_avg": "" if report.p_avg is None else f"{report.p_avg:.12g}",
            "n_ent": str(report.n_ent),
            "converged": str(report.converged).lower(),
            "error": "",
        }
    except Exception as exc:  # a failed geometry must not abort the sweep
        return {
            "tag": tag,
            "p_max": "",
            "p_avg": "",
            "n_ent": "",
            "converged": "false",
            "error": str(exc).replace("\n", " ")[:200],
        }


def sweep(tagged_configs: list[tuple[str, RunConfig]], workers: int = 1) -> str:
    """Run independent configs and aggregate (tag, p_max, p_avg, N_ent, converged).

    The table is CSV: a field holding a comma or a quote (an error message,
    say) is quoted, so every row reads back as the header's six columns.
    Tags must be distinct: the CLI names each run's artifact directory by
    its tag (the FCIDUMP's file stem), so two runs must never share one.
    """
    if not tagged_configs:
        raise PipelineError("sweep", "no configs given")
    if workers < 1:
        raise PipelineError("sweep", f"workers must be at least 1, got {workers}")
    tags = [tag for tag, _ in tagged_configs]
    duplicates = sorted({tag for tag in tags if tags.count(tag) > 1})
    if duplicates:
        raise PipelineError("sweep", f"duplicate tags {duplicates}: each run needs a tag of its own")
    # a fork-started pool starts all max_workers processes at the first
    # submit, so never ask for more than there are configs
    workers = min(workers, len(tagged_configs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_row, tagged_configs))
    else:
        rows = [_sweep_row(tc) for tc in tagged_configs]
    table = io.StringIO()
    writer = csv.DictWriter(
        table, ("tag", "p_max", "p_avg", "n_ent", "converged", "error"), lineterminator="\n"
    )
    writer.writeheader()
    writer.writerows(rows)
    return table.getvalue()


def _mi_column(problem: Problem, mi, supports: list[int], exact=None):
    """One mi-report column of mi, built from support tables alone.

    Returns the column (the percentiles of the words on supports, counted as
    the run counts them, their p_max, and the Spearman rank correlation of
    the pool's strengths against exact) and the strength table it ranks.
    The correlation covers the run register's whole pool, also when the run
    screened it: each support stands for its odd-Y words. Strengths are
    rounded so that exactly degenerate strengths stay tied instead of being
    permuted by sub-1e-10 backend noise. exact is None for the exact column
    itself.
    """
    n = problem.hamiltonian.n_qubits
    table, baseline = _support_tables(
        mi, n, problem.n_qubits_encoded, problem.baseline_index_map
    )
    pct = percentile_of_strengths(table, baseline)[supports]
    strengths = np.round(table, 10)
    if exact is None:
        rho = 1.0
    else:
        rho = pool_spearman(exact, strengths, n)
        rho = None if rho is None else _fmt(rho)
    column = {
        "percentiles": [_fmt(p) for p in pct],
        "p_max": _fmt(pct.max()) if len(pct) else None,
        "spearman_vs_exact": rho,
    }
    return column, strengths


def mi_report(cfg: RunConfig, settings: list[MpsBackend]) -> dict:
    """De-convergence study: percentile traces of one run under degraded MI.

    Runs the adaptive construction once with the configured (exact by
    default) reference, then re-scores the adopted entanglers under each
    (chi, sweeps) MI estimate: achieved energy gap, per-entangler percentile
    trace, p_max lift, and the Spearman rank correlation of pool strengths.
    Every column counts percentiles as the run does, against the run's
    baseline, and ranks the whole pool, also when the run screened it.
    A setting given twice (by its tag), or a reference other than exact,
    is refused before the run: the first column is the exact MI, and the
    energy gaps and Spearman ranks are measured against it.
    """
    if cfg.reference != "exact":
        raise PipelineError(
            "mi-report", f"the reference must be exact, got {cfg.reference!r}"
        )
    tags = [setting.tag() for setting in settings]
    repeated = sorted({tag for tag in tags if tags.count(tag) > 1})
    if repeated:
        raise PipelineError("mi-report", f"MPS settings {repeated} given more than once")
    report, problem = run_pipeline(cfg)
    supports = [s.x | s.z for s in report.steps]
    exact_column, exact_strengths = _mi_column(problem, problem.mi, supports)
    columns = {"exact": {"energy_gap": 0.0, **exact_column}}
    mi_csvs = {}
    # a LAPACK or write error ends the verb as a stage error, not a traceback
    with _stage("mi-report"):
        if cfg.output is not None:
            # mi_report.json, written last, marks a complete set (as
            # manifest.json); it goes first, with an earlier ladder's MI files
            (Path(cfg.output) / "mi_report.json").unlink(missing_ok=True)
            for stale in Path(cfg.output).glob("mi_mps_*.csv"):
                stale.unlink()
        # one MPO serves every setting; called through the module so that a
        # wrapper installed on mivqe.mps.build_mpo sees the call
        mpo = mps.build_mpo(problem.hamiltonian) if settings else None
        for setting in settings:
            e_mps, mi_chi = _mps_mi(mpo, setting, cfg.seed, problem.reference_bits)
            column, _ = _mi_column(problem, mi_chi, supports, exact_strengths)
            gap = None if problem.reference_energy is None else _fmt(e_mps - problem.reference_energy)
            columns[setting.tag()] = {"energy_gap": gap, **column}
            mi_csvs[setting.tag()] = mi_chi.to_csv()

        out = {
            "n_ent": len(supports),
            "entanglers": report.words,
            "columns": columns,
        }
        if cfg.output is not None:
            out_dir = Path(cfg.output)
            out_dir.mkdir(parents=True, exist_ok=True)
            # column names such as mps:chi=2,sweeps=2 hold commas, so csv quotes them
            table = io.StringIO()
            writer = csv.writer(table, lineterminator="\n")
            writer.writerow(["index", "word", *columns])
            for i, word in enumerate(out["entanglers"]):
                writer.writerow(
                    [i + 1, word, *(f"{col['percentiles'][i]:.12g}" for col in columns.values())]
                )
            write_text_atomic(out_dir / "mi_compare.csv", table.getvalue())
            for tag, text in mi_csvs.items():
                safe = tag.replace(":", "_").replace(",", "_").replace("=", "")
                write_text_atomic(out_dir / f"mi_{safe}.csv", text)
            _write_json(out_dir / "mi_report.json", out)
    return out


def encode_fcidump_to_text(cfg: RunConfig) -> str:
    """The 'encode' verb: FCIDUMP or Pauli sum -> canonical Pauli-sum text
    (post-reduction). The header names the input; mapping and grouping
    shape only an FCIDUMP's encoding, so only its header gives them."""
    H, bits = _load_hamiltonian(cfg)
    removed = []
    if cfg.reduce_stationary:
        H, removed, _ = reduce_stationary_qubits(H, bits)
    if cfg.fcidump is not None:
        source = f"encoded from {cfg.fcidump} mapping={cfg.mapping} grouping={cfg.grouping}"
    else:
        source = f"read from {cfg.pauli_sum}"
    return format_pauli_sum(H, comment=f"{source} reduced={[q for q, _ in removed]}")
