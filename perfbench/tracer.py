"""Spans around the public functions at each ``mivqe`` module boundary.

``Tracer.install`` replaces those functions, from outside the package, with
wrappers that record a span (name, start, end, parent span, problem id) and
the counts the per-layer metrics need; ``Tracer.restore`` puts the originals
back.  The wrappers only observe: arguments and results pass through
unchanged, so a traced run must reproduce the untraced fingerprint.

Names are patched where they are looked up.  ``from .x import y`` binds ``y``
in the importing module, so e.g. Lanczos is patched as
``mivqe.pipeline.exact_ground_state`` and basin hopping as
``mivqe.adaptive.basinhopping``.
"""

from __future__ import annotations

import functools
import resource
import time
from collections import defaultdict

HOP_GAIN_TOL = 1e-12  # hartree; a hop is useful when it beats the best energy by more


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[dict] = []
        self._problem = 0
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, *, new_problem=False, rss_key=None, after=None):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if new_problem:
                self._problem += 1
            parent = self._stack[-1]["id"] if self._stack else None
            span = {"id": len(self.spans), "name": name, "parent": parent,
                    "problem": self._problem, "start": time.perf_counter()}
            self.spans.append(span)
            self._stack.append(span)
            rss0 = _maxrss_mb() if rss_key else 0.0
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if rss_key:
                self.counts[rss_key] += _maxrss_mb() - rss0
            if after:
                after(result, *args)
            return result

        return wrapped

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _span(self, owner, attr, name, **kw):
        self._patch(owner, attr, self._wrap(name, getattr(owner, attr), **kw))

    def install(self):
        import mivqe.adaptive as ad
        import mivqe.cli as cli
        import mivqe.mps as mps
        import mivqe.pipeline as pl
        import mivqe.reference as ref

        c = self.counts

        def count(key, value=1.0):
            c[key] += value

        self._span(cli, "run_pipeline", "pipeline.run", new_problem=True)
        self._span(pl, "run_pipeline", "pipeline.run", new_problem=True)
        self._span(cli, "mi_report", "pipeline.mi_report")
        self._span(pl, "prepare_problem", "pipeline.prepare",
                   after=lambda r, *a: count("encodings.n_terms", len(r.hamiltonian)))
        self._span(pl, "run_adaptive", "pipeline.adapt")
        self._span(pl, "load_fcidump", "fcidump.load")
        for attr in ("build_hamiltonian", "s_squared_operator"):
            self._span(pl, attr, "fermion.build")
        for attr in ("encode", "hf_reference"):
            self._span(pl, attr, "encodings.encode")
        self._span(pl, "reduce_stationary_qubits", "encodings.reduce")
        self._span(pl, "generate_pool", "screening.pool", rss_key="screening.pool_rss_mb",
                   after=lambda r, *a: count("screening.pool_words", len(r)))
        for attr in ("pool_strengths", "percentile_of_strengths", "screen_pool"):
            self._span(pl, attr, "screening.strengths")
        self._span(pl, "exact_ground_state", "reference.lanczos",
                   after=lambda r, *a: count("reference.lanczos_calls"))
        self._span(pl, "mutual_information", "reference.mi")
        self._span(pl, "mps_ground_state", "mps.dmrg",
                   after=lambda r, *a: count("mps.dmrg_sweeps", len(r[2])))
        self._span(mps, "build_mpo", "mps.mpo", after=lambda r, *a: c.__setitem__(
            "mps.mpo_max_bond", max([c["mps.mpo_max_bond"], *r.bond_dimensions()])))
        self._span(ad.PoolScorer, "__init__", "adaptive.scorer_init",
                   rss_key="adaptive.scorer_rss_mb")
        self._span(ad.PoolScorer, "scores", "adaptive.score", rss_key="adaptive.scorer_rss_mb",
                   after=lambda r, scorer, *a: count("adaptive.words_scored", len(scorer.px)))
        self._span(ad, "select_entangler", "adaptive.select")
        self._span(ad, "joint_optimize", "adaptive.reopt")

        compile_sum_action = ref.compile_sum_action

        def counted_compile(H):
            action, real_valued = compile_sum_action(H)

            def counted_action(v):
                count("reference.lanczos_matvecs")
                return action(v)

            return counted_action, real_valued

        self._patch(ref, "compile_sum_action", counted_compile)

        basinhopping = ad.basinhopping

        def observed_basinhopping(func, x0, *args, **kwargs):
            best = []

            # called once for the initial minimum, then once per hop; returns
            # None so basin hopping never stops early
            def callback(x, f, accept):
                if best:
                    count("adaptive.hops")
                    if f < best[0] - HOP_GAIN_TOL:
                        count("adaptive.hops_useful")
                    best[0] = min(best[0], f)
                else:
                    best.append(f)

            result = basinhopping(func, x0, *args, callback=callback, **kwargs)
            count("simulator.objective_evals", result.nfev)
            return result

        self._patch(ad, "basinhopping", observed_basinhopping)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the part its child spans cover."""
        children = defaultdict(list)
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]].append((s["start"], s["end"]))
        out = []
        for s in self.spans:
            covered, reach = 0.0, s["start"]
            for a, b in sorted(children[s["id"]]):
                a, b = max(a, reach), min(b, s["end"])
                if b > a:
                    covered += b - a
                    reach = b
            out.append(s["end"] - s["start"] - covered)
        return out

    def layer_self_times(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for s, t in zip(self.spans, self.self_times()):
            totals[s["name"]] += t
        return dict(totals)

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics, by the names BENCHMARK.json lists."""
        st = defaultdict(float, self.layer_self_times())
        total = defaultdict(float)
        n = defaultdict(int)
        for s in self.spans:
            total[s["name"]] += s["end"] - s["start"]
            n[s["name"]] += 1
        by_id = {s["id"]: s for s in self.spans}
        ladder_runs = sum(s["end"] - s["start"] for s in self.spans
                          if s["name"] == "pipeline.run" and s["parent"] is not None
                          and by_id[s["parent"]]["name"] == "pipeline.mi_report")
        c = self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        return {
            "fcidump.load_s": st["fcidump.load"],
            "fermion.build_s": st["fermion.build"],
            "encodings.encode_s": st["encodings.encode"],
            "encodings.reduce_s": st["encodings.reduce"],
            "encodings.n_terms": c["encodings.n_terms"],
            "screening.pool_s": st["screening.pool"],
            "screening.pool_words": c["screening.pool_words"],
            "screening.pool_rss_mb": c["screening.pool_rss_mb"],
            "screening.strengths_s": st["screening.strengths"],
            "reference.lanczos_s": st["reference.lanczos"],
            "reference.lanczos_calls": c["reference.lanczos_calls"],
            "reference.lanczos_matvecs": c["reference.lanczos_matvecs"],
            "reference.mi_s": st["reference.mi"],
            "mps.mpo_s": st["mps.mpo"],
            "mps.mpo_max_bond": c["mps.mpo_max_bond"],
            "mps.dmrg_s": st["mps.dmrg"],
            "mps.dmrg_sweeps": c["mps.dmrg_sweeps"],
            "adaptive.score_s": st["adaptive.score"],
            "adaptive.score_ms_per_step": 1e3 * ratio(st["adaptive.score"], n["adaptive.score"]),
            "adaptive.words_per_s": ratio(c["adaptive.words_scored"], st["adaptive.score"]),
            "adaptive.scorer_init_s": st["adaptive.scorer_init"],
            "adaptive.scorer_rss_mb": c["adaptive.scorer_rss_mb"],
            "adaptive.select_s": st["adaptive.select"],
            "adaptive.reopt_s": st["adaptive.reopt"],
            "adaptive.reopt_ms_per_step": 1e3 * ratio(st["adaptive.reopt"], n["adaptive.reopt"]),
            "adaptive.hops": c["adaptive.hops"],
            "adaptive.hop_useful_frac": ratio(c["adaptive.hops_useful"], c["adaptive.hops"]),
            "simulator.objective_evals": c["simulator.objective_evals"],
            "simulator.objective_ms": 1e3 * ratio(st["adaptive.reopt"], c["simulator.objective_evals"]),
            "pipeline.adapt_s": total["pipeline.adapt"],
            "pipeline.artifacts_s": total["pipeline.run"] - total["pipeline.prepare"] - total["pipeline.adapt"],
            "pipeline.mi_ladder_s": total["pipeline.mi_report"] - ladder_runs,
            "pipeline.problems": float(n["pipeline.run"]),
        }
