"""Command-line surface.

Verbs: run (full pipeline), sweep (bond-length series), mi-report
(de-convergence comparison), encode (FCIDUMP -> Pauli text), pool
(generate/screen entangler pools). Exit codes: 0 success, 2 the run finished
without reaching convergence, 3 input error (a usage error, PipelineError or
any of INPUT_ERRORS).
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from dataclasses import fields, replace
from pathlib import Path

from .adaptive import SCORER_MAX_QUBITS, AdaptiveError
from .config import ConfigError, RunConfig, parse_config, parse_reference
from .encodings import EncodingError
from .fcidump import FcidumpError
from .fermion import FermionError
from .mps import MpsError
from .pauli import PauliError
from .pipeline import (
    PipelineError,
    encode_fcidump_to_text,
    mi_report,
    run_pipeline,
    sweep,
    write_text_atomic,
)
from .reference import ReferenceError
from .screening import ScreeningError
from .simulator import SimulatorError

EXIT_OK = 0
EXIT_NOT_CONVERGED = 2
EXIT_INPUT_ERROR = 3

# The package's error types: each reports an input or problem the package
# cannot work with, so the CLI turns it into one error line and exit 3; so
# does a path that names a missing file, or a file where a directory belongs
# or the reverse
INPUT_ERRORS = (
    AdaptiveError, ConfigError, EncodingError, FcidumpError, FermionError, MpsError,
    PauliError, ReferenceError, ScreeningError, SimulatorError, FileNotFoundError,
    FileExistsError, IsADirectoryError, NotADirectoryError,
)


class UsageError(Exception):
    """A command line argparse rejects: a bad flag value or an unknown flag."""


class _Parser(argparse.ArgumentParser):
    # no flag prefixes: an abbreviation would take a key a config file refuses.
    # add_subparsers makes every verb's parser a _Parser too
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    # argparse would print the usage and exit 2, the not-converged code
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _worker_count(text: str) -> int:
    """argparse type of --workers: an integer of at least 1."""
    try:
        workers = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if workers < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {workers}")
    return workers


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    """One string-valued flag per RunConfig key: parse_config types and checks it."""
    p.add_argument("--config", help="flat key=value config file; flags override it")
    for setting in fields(RunConfig):
        p.add_argument(
            "--" + setting.name.replace("_", "-"),
            dest=setting.name,
            help=setting.metadata.get("help"),
        )


def _config_from_args(args, **extra) -> RunConfig:
    text = ""
    if args.config:
        text = Path(args.config).read_text()
    overrides = {setting.name: getattr(args, setting.name) for setting in fields(RunConfig)}
    overrides.update(extra)
    return parse_config(text, **overrides)


def _refuse_directory(flag: str, path: str | None) -> None:
    """Refuse an output file path that names a directory, before any work."""
    if path is not None and Path(path).is_dir():
        raise ConfigError(f"{flag} {path} is a directory, not a file")


def _cmd_run(args) -> int:
    cfg = _config_from_args(args)
    report, problem = run_pipeline(cfg)
    ref = ("" if problem.reference_energy is None
           else f" reference={problem.reference_energy:.12g}")
    print(
        f"run: qubits={problem.hamiltonian.n_qubits} pool={len(problem.pool)}"
        f" steps={report.n_ent} final={report.final_energy:.12g}{ref}"
        f" converged={report.converged} ({report.stop_reason})"
    )
    if report.p_max is not None:
        print(f"screening rates: p_max={report.p_max:.12g} p_avg={report.p_avg:.12g}")
    for warning in problem.warnings or []:
        print(f"warning: {warning}", file=sys.stderr)
    if cfg.output:
        print(f"artifacts in {cfg.output}")
    return EXIT_OK if report.converged else EXIT_NOT_CONVERGED


def _cmd_sweep(args) -> int:
    base = _config_from_args(args, fcidump=args.fcidumps[0])
    # refused before any problem runs, not after all of them
    if base.output and Path(base.output).exists() and not Path(base.output).is_dir():
        raise ConfigError(f"--output {base.output} is not a directory")
    tagged = []
    for path in args.fcidumps:
        out = None
        if base.output:
            out = str(Path(base.output) / Path(path).stem)
        tag = Path(path).stem
        cfg = replace(base, fcidump=path, output=out)
        tagged.append((tag, cfg))
    table = sweep(tagged, workers=args.workers)
    if base.output:
        out_dir = Path(base.output)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_text_atomic(out_dir / "sweep.csv", table)
        print(f"wrote {out_dir / 'sweep.csv'}")
    print(table, end="")
    not_conv = sum(row["converged"] != "true" for row in csv.DictReader(io.StringIO(table)))
    return EXIT_NOT_CONVERGED if not_conv else EXIT_OK


def _cmd_mi_report(args) -> int:
    cfg = _config_from_args(args)
    settings = [parse_reference(f"mps:{spec}") for spec in args.mps or []]
    out = mi_report(cfg, settings)
    print(f"mi-report over {out['n_ent']} entanglers:")
    for tag, col in out["columns"].items():
        print(
            f"  {tag}: p_max={col['p_max']} energy_gap={col['energy_gap']}"
            f" spearman={col['spearman_vs_exact']}"
        )
    return EXIT_OK


def _cmd_encode(args) -> int:
    cfg = _config_from_args(args)
    _refuse_directory("--out", args.out)
    text = encode_fcidump_to_text(cfg)
    if args.out:
        write_text_atomic(Path(args.out), text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return EXIT_OK


def _cmd_pool(args) -> int:
    from .reference import MIMatrix
    from .screening import generate_pool, screen_pool, screening_report_csv, support_strengths

    if args.n_qubits > SCORER_MAX_QUBITS:
        raise ConfigError(
            f"--n-qubits {args.n_qubits} exceeds the {SCORER_MAX_QUBITS}-qubit pool limit"
        )
    # every input, the cut included, is checked before any pool is built
    _refuse_directory("--out", args.out)
    _refuse_directory("--report", args.report)
    keep, provenance = None, "original"
    if args.mi:
        table = support_strengths(args.n_qubits, MIMatrix.from_csv(Path(args.mi).read_text()))
        if args.p_cut is not None:
            keep, provenance = screen_pool(table, args.p_cut)
    else:
        for flag, value in (("--p-cut", args.p_cut), ("--report", args.report)):
            if value is not None:
                raise ConfigError(f"{flag} requires --mi")
    if args.report:
        report = screening_report_csv(generate_pool(args.n_qubits), table, args.p_cut)
        write_text_atomic(Path(args.report), report)
        print(f"wrote {args.report}")
    pool = generate_pool(args.n_qubits, keep, provenance)
    if args.out:
        write_text_atomic(Path(args.out), pool.to_text())
        print(f"wrote {args.out} ({len(pool)} words)")
    else:
        print(f"pool size: {len(pool)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mivqe",
        description="MI-assisted adaptive VQE on a classical simulator",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="full pipeline on one Hamiltonian")
    _add_config_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="series of runs, aggregate CSV")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("fcidumps", nargs="+", help="FCIDUMP files, one run each")
    p_sweep.add_argument("--workers", type=_worker_count, default=1,
                         help="worker processes, at least 1")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_mi = sub.add_parser("mi-report", help="MI de-convergence comparison")
    _add_config_flags(p_mi)
    p_mi.add_argument("--mps", action="append", metavar="chi=<n>,sweeps=<n>",
                      help="repeatable de-converged DMRG setting")
    p_mi.set_defaults(func=_cmd_mi_report)

    p_enc = sub.add_parser("encode", help="FCIDUMP -> canonical Pauli text")
    _add_config_flags(p_enc)
    p_enc.add_argument("--out", help="output path (stdout if omitted)")
    p_enc.set_defaults(func=_cmd_encode)

    p_pool = sub.add_parser("pool", help="generate/screen entangler pools")
    p_pool.add_argument("--n-qubits", dest="n_qubits", type=int, required=True)
    p_pool.add_argument("--mi", help="MI CSV for strengths")
    p_pool.add_argument("--p-cut", dest="p_cut", type=float)
    p_pool.add_argument("--out", help="pool text output path")
    p_pool.add_argument("--report", help="screening CSV output path")
    p_pool.set_defaults(func=_cmd_pool)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (UsageError, PipelineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
