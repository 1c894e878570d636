"""Benchmark driver: run one workload through ``mivqe.cli.main`` in-process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root (any working directory works; the script
moves to the root).  BLAS and OpenMP are pinned to one thread before numpy
loads.  The seed is forwarded as ``--seed`` to every CLI call (see
RECORDED_SEEDS for seeds without a fingerprint).  Every repetition writes its
artifacts to a fresh temporary directory under ``.bench_out/`` and checks
them against the recorded behaviour fingerprint for the seed
(``perfbench/fingerprints/<workload>.json``).

``--trace 0`` repeats the workload while another repetition fits in
``--seconds`` (default: ``run_seconds`` of BENCHMARK.json), re-runs its
set-up after each repetition and at the end until there are SETUP_SAMPLES
set-up samples, and reports the end-to-end metrics (medians).  ``--trace 1`` runs the workload untraced, once with spans around
every module boundary, then untraced again, and reports the per-layer metrics
and the tracing overhead.  ``--record`` stores the run's fingerprint for the
seed instead of checking it.  Human-readable lines come first; the last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 7  # prepare_problem passes per untraced run, at least
# Fingerprints are recorded for program seeds 0..10 and the held-out seed
# 1009; a benchmark seed without a record runs as program seed (seed mod 11).
RECORDED_SEEDS = 11

sys.path.insert(0, str(HERE))
import fingerprint  # noqa: E402
import host  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _load_mivqe():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "mivqe" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        raise SystemExit(f"perfbench: no mivqe sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import mivqe.cli
    import mivqe.pipeline

    if Path(mivqe.__file__).resolve().parent != src / "mivqe":
        raise SystemExit(f"perfbench: imported mivqe from {mivqe.__file__}, not {src}")
    return mivqe.cli, mivqe.pipeline


class Rep(NamedTuple):
    """One repetition: every CLI call of the workload and what it left behind."""

    wall: float  # s, all CLI calls
    fps: list  # per call: its fingerprint, or None when its artifacts are unreadable
    errors: list[str]


def run_rep(cli, pipeline, name: str, seed: int, cfgs: list | None = None) -> Rep:
    """Run the workload's calls once; the timed region covers only ``cli.main``.

    When ``cfgs`` is a list, the configs ``prepare_problem`` receives are
    appended to it.
    """
    prepare = pipeline.prepare_problem

    def recording_prepare(cfg):
        cfgs.append(cfg)
        return prepare(cfg)

    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="rep-", dir=OUT))
    results, errors = [], []
    if cfgs is not None:
        pipeline.prepare_problem = recording_prepare
    try:
        t0 = time.perf_counter()
        for i, argv in enumerate(workloads.calls(name)):
            out = tmp / f"call{i}"
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main([*argv, "--seed", str(seed), "--output", str(out)])
            except Exception as exc:  # a crash fails the call's problems, not the run
                code = None
                errors.append(f"call {i} raised {exc!r}")
            results.append((argv[0], out, code))
        wall = time.perf_counter() - t0
    finally:
        pipeline.prepare_problem = prepare
    fps = []
    for i, (verb, out, code) in enumerate(results):
        try:
            fps.append(fingerprint.extract(verb, out, code))
        except (OSError, KeyError, ValueError) as exc:
            fps.append(None)
            errors.append(f"call {i} artifacts unreadable: {exc!r}")
    shutil.rmtree(tmp, ignore_errors=True)
    return Rep(wall, fps, errors)


def check(rep: Rep, expected: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) of one repetition against the record."""
    attempted = failed = 0
    messages = list(rep.errors)
    for i, exp in enumerate(expected):
        tags = fingerprint.problem_tags(exp)
        attempted += len(tags)
        got = rep.fps[i] if i < len(rep.fps) else None
        if got is None:
            failed += len(tags)
            continue
        bad = fingerprint.compare(exp, got)
        failed += len(bad)
        messages += [f"call {i} problem {tag}: {msg}" for tag, msg in bad.items()]
    return attempted, failed, messages


def load_record(name: str) -> dict:
    path = HERE / "fingerprints" / f"{name}.json"
    return json.loads(path.read_text()) if path.exists() else {}


def save_record(name: str, seed: int, fps: list[dict]) -> None:
    record = load_record(name)
    record[str(seed)] = fps
    path = HERE / "fingerprints" / f"{name}.json"
    path.write_text(json.dumps(dict(sorted(record.items(), key=lambda kv: int(kv[0]))),
                               indent=1) + "\n")


def measure_untraced(cli, pipeline, name, seed, seconds) -> tuple[list[Rep], list[float]]:
    """Repetitions while another fits in ``seconds``, and the set-up samples.

    Every set-up sample is taken the same way: after a garbage collection,
    all the configs the first repetition prepared are prepared again, back
    to back.  One sample follows each repetition, so the samples span the
    run as the repetitions do, and the run ends with at least SETUP_SAMPLES.
    Set-up inside a repetition is not timed.
    """
    start = time.perf_counter()
    cfgs: list = []
    reps = [run_rep(cli, pipeline, name, seed, cfgs)]
    setups: list[float] = []
    while True:
        gc.collect()
        t = time.perf_counter()
        for cfg in cfgs:
            pipeline.prepare_problem(cfg)
        setups.append(time.perf_counter() - t)
        if time.perf_counter() - start + statistics.median(r.wall for r in reps) <= seconds:
            reps.append(run_rep(cli, pipeline, name, seed))
        elif len(setups) >= SETUP_SAMPLES:
            return reps, setups


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this seed's fingerprint instead of checking it")
    args = parser.parse_args(argv)

    cli, pipeline = _load_mivqe()
    os.chdir(ROOT)
    name, seed = args.workload, args.seed
    record = load_record(name)
    if not args.record and str(seed) not in record:
        seed = args.seed % RECORDED_SEEDS
    expected = record.get(str(seed))
    if expected is None and not args.record:
        print(f"perfbench: no fingerprint recorded for {name} seed {seed}", file=sys.stderr)
        return 2

    info = host.record()
    load_before = os.getloadavg()
    probe_before = host.speed_probe_ms()
    tracer = None
    setups: list[float] = []
    if args.trace:
        # untraced, traced, untraced: the first call's warm-up is not
        # charged to tracing, and the overhead rests on two untraced walls
        reps = [run_rep(cli, pipeline, name, seed)]
        tracer = Tracer()
        tracer.install()
        try:
            reps.append(run_rep(cli, pipeline, name, seed))
        finally:
            tracer.restore()
        reps.append(run_rep(cli, pipeline, name, seed))
    else:
        reps, setups = measure_untraced(cli, pipeline, name, seed, args.seconds)
    load_after = os.getloadavg()
    probe_after = host.speed_probe_ms()

    if args.record:
        save_record(name, seed, reps[0].fps)
        expected = reps[0].fps
    attempted = failed = 0
    messages: list[str] = []
    for rep in reps:
        a, f, m = check(rep, expected)
        attempted, failed, messages = attempted + a, failed + f, messages + m

    walls = [r.wall for r in reps]
    if args.trace:
        values = tracer.metrics()
        values["trace.overhead_s"] = walls[1] - statistics.median([walls[0], walls[2]])
        wanted = bench["per_layer"]
    else:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": host.peak_rss_mb(),
        }
        wanted = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"host: {json.dumps(info, sort_keys=True)}")
    print(f"load average: before {load_before} after {load_after}")
    print(f"host speed probe: before {probe_before:.1f} ms after {probe_after:.1f} ms")
    print(f"workload {name} seed {args.seed} (program seed {seed}): {len(reps)} repetition(s), wall "
          + ", ".join(f"{w:.3f}" for w in walls) + " s"
          + ("; set-up " + ", ".join(f"{s:.3f}" for s in setups) + " s" if setups else ""))
    for msg in messages:
        print(f"FINGERPRINT MISMATCH {name} seed {seed}: {msg}")
    for key, m in metrics.items():
        print(f"{key:32s} {m['value']:.6g} {m['unit']}")
    print(f"{'fail_frac':32s} {failed / attempted:.6g} ratio ({failed}/{attempted} problems)")
    if tracer is not None:
        print("self time by span (traced repetition):")
        for span_name, t in sorted(tracer.layer_self_times().items(), key=lambda kv: -kv[1]):
            print(f"  {span_name:28s} {t:9.3f} s  {100 * t / walls[1]:5.1f}%")
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}_seed{args.seed}_trace{args.trace}.json").write_text(json.dumps({
        "workload": name, "seed": args.seed, "program_seed": seed, "host": info,
        "load_average": {"before": load_before, "after": load_after},
        "speed_probe_ms": {"before": probe_before, "after": probe_after},
        "walls_s": walls, "setups_s": setups, "metrics": metrics,
        "attempted": attempted, "failed": failed, "mismatches": messages,
        "spans": tracer.spans if tracer else [],
    }, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
