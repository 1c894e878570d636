"""Adaptive ansatz construction: per-step entangler trials, the 30%-descent
acceptance rule, joint basin-hopping reoptimization, and screening-rate stats.

Because every entangler generator P satisfies P^2 = I, the single-layer
energy is an exact sinusoid E(tau) = A + B cos 2tau + C sin 2tau, so a trial
costs three energy evaluations and no 1-D optimizer. The pool scorer below
goes one step further: two Walsh-Hadamard transforms per step give B and C
for every pool word at once (half a million words at 10 qubits), and the
few words near a selection boundary are recomputed by the exact term sum so
that float noise cannot reorder tied words.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.optimize import basinhopping

from .pauli import PauliSum, format_factor_lists
from .screening import EntanglerPool
from .simulator import Ansatz, compile_sum_action, energy_and_gradient

# Largest register the pool scorer (and so a run) accepts. A step holds the
# word table T and one transform table (8 bytes x 4^n each; while T is
# formed, its two factors instead), blocks of FWHT_BLOCK columns, the
# float64 B and C and about a dozen bytes more per word of the
# (4^n - 2^n)/2-word pool, and one refine block; the int32 word indices
# allow n <= 15.
SCORER_MAX_QUBITS = 10
# Columns per block of the scorer's Walsh-Hadamard transforms; a register of
# at most this many basis states is transformed as one block.
FWHT_BLOCK = 64
# Entries (terms x pool words) per block of the scorer's exact term sum; a
# block holds at least two words.
TERM_SUM_ENTRIES = 1 << 16
# Without a reference energy a run stops once each of the last
# DESCENT_FLOOR_WINDOW steps descended less than DESCENT_FLOOR hartree.
DESCENT_FLOOR = 1e-6
DESCENT_FLOOR_WINDOW = 3
# joint_optimize's basin hopping; BFGS_GTOL is its BFGS gradient tolerance
HOPS = 10
HOP_TEMPERATURE = 0.5
HOP_STEP = 1e-6
BFGS_GTOL = 1e-8


class AdaptiveError(RuntimeError):
    pass


class NoImprovingEntangler(AdaptiveError):
    """Every pool word has non-positive descent at the current state."""


@dataclass
class StepRecord:
    """One adopted word, as its (x, z) masks, and what its step achieved."""

    step: int
    x: int
    z: int
    tau: float
    energy: float
    descent: float
    percentile: float
    acceptable_count: int


@dataclass
class RunReport:
    """A run's steps and outcome; words formats every step's word at once."""

    n_qubits: int
    steps: list[StepRecord]
    converged: bool
    stop_reason: str
    reference_energy: float | None
    hf_energy: float
    final_energy: float

    @property
    def n_ent(self) -> int:
        return len(self.steps)

    @property
    def p_max(self) -> float | None:
        return max((s.percentile for s in self.steps), default=None)

    @property
    def p_avg(self) -> float | None:
        if not self.steps:
            return None
        return sum(s.percentile for s in self.steps) / len(self.steps)

    @property
    def energies(self) -> list[float]:
        return [s.energy for s in self.steps]

    @property
    def words(self) -> list[str]:
        """Each step's word as a factor list like ``"X0 Z2"``, in step order."""
        x, z = [s.x for s in self.steps], [s.z for s in self.steps]
        return format_factor_lists(self.n_qubits, x, z).tolist()


@dataclass(frozen=True)
class AdaptiveConfig:
    """The run settings the adaptive loop reads, named as in RunConfig.

    convergence_tol is in hartree against the reference energy.
    """

    descent_fraction: float = 0.3
    max_steps: int = 30
    convergence_tol: float = 1e-3
    seed: int = 7

    def __post_init__(self):
        # written so that NaN fails every check
        for ok, message in (
            (0.0 < self.descent_fraction <= 1.0, "descent_fraction must lie in (0, 1]"),
            (self.max_steps >= 0, "max_steps must be non-negative"),
            (0.0 < self.convergence_tol < np.inf, "convergence_tol must be positive and finite"),
            (self.seed >= 0, "seed must be non-negative"),
        ):
            if not ok:
                raise AdaptiveError(message)


def _tau_minimum(b, c, out=None):
    """Minimizing angle in (-pi/2, pi/2]: 2 tau = atan2(C, B) + pi.

    Written so the degenerate C = 0 case lands on +pi/2, independent of the
    sign of a floating-point zero. out, when given, may be b or c.
    """
    if out is None:
        out = np.empty(np.broadcast(b, c).shape)
    np.arctan2(c, b, out=out)
    np.multiply(0.5, out, out=out)
    np.add(out, np.pi / 2, out=out)
    np.subtract(out, np.pi, out=out, where=out > np.pi / 2)
    return out[()]


def _fwht(a: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform along the first axis; consumes its argument.

    Unnormalized, over a first axis of length 2^m:
    out[j, ...] = sum_k (-1)^{|j & k|} a[k, ...], by m butterfly levels,
    h = 1, 2, 4, ... in turn, each read from one buffer and written to the
    other. A level pairs whole rows, so on a 2-D input each numpy call runs
    over h * (row length) contiguous entries; along a last axis the early
    levels would run over h entries at a time, which costs up to 7x more.
    A C-contiguous float64 a is one of the two buffers and is overwritten,
    so pass a temporary; the result is returned in a or in the other buffer.
    """
    src = np.ascontiguousarray(a, dtype=np.float64)
    buffers = (np.empty_like(src), src)
    level = 0
    while 1 << level < len(src):
        shape = (len(src) >> (level + 1), 2, 1 << level, *src.shape[1:])
        dst = buffers[level % 2]
        s, d = src.reshape(shape), dst.reshape(shape)
        np.add(s[:, 0], s[:, 1], out=d[:, 0])
        np.subtract(s[:, 0], s[:, 1], out=d[:, 1])
        src = dst
        level += 1
    return src


def _fwht_columns(table: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """_fwht(table) for a square table that is zero outside its columns.

    Only those columns are transformed, FWHT_BLOCK at a time, in place; a
    column of zeros stays +0.0, and the columns of a first-axis transform
    are independent, so every entry keeps the bits of _fwht over the whole
    table. A table of at most FWHT_BLOCK rows is transformed whole, which
    consumes it (see _fwht); use the returned table.
    """
    if len(table) <= FWHT_BLOCK:
        return _fwht(table)
    for start in range(0, len(columns), FWHT_BLOCK):
        block = columns[start : start + FWHT_BLOCK]
        table[:, block] = _fwht(table[:, block])
    return table


def _fwht_rows(table: np.ndarray) -> None:
    """Replace the square table by _fwht(table.T).T, FWHT_BLOCK rows at a time.

    Each block of rows is copied transposed into a buffer, transformed along
    its first axis and written back transposed.
    """
    width = min(len(table), FWHT_BLOCK)
    for start in range(0, len(table), width):
        rows = table[start : start + width]
        rows[...] = _fwht(np.ascontiguousarray(rows.T)).T


def _hadamard_signs(d: int) -> np.ndarray:
    """The d x d Sylvester sign matrix (-1)^{|k & z|}, d a power of two.

    Built by doubling, S_2h = [[S_h, S_h], [S_h, -S_h]]: every entry is
    exactly +-1.0.
    """
    out = np.empty((d, d))
    out[0, 0] = 1.0
    h = 1
    while h < d:
        out[:h, h : 2 * h] = out[:h, :h]
        out[h : 2 * h, :h] = out[:h, :h]
        np.negative(out[:h, :h], out=out[h : 2 * h, h : 2 * h])
        h *= 2
    return out


def _xor_shifts(v: np.ndarray) -> np.ndarray:
    """The 2^m x 2^m table out[..., i, j] = v[..., i ^ j], with no index table.

    Row 0 is v; rows h..2h-1 are rows 0..h-1 with their column blocks of
    width h swapped, for h = 1, 2, 4, ..., since v[(i + h) ^ j] =
    v[i ^ (j ^ h)] for i < h. Every entry is a copy of an entry of v; the
    leading axes of v, if any, are carried along.
    """
    *lead, d = v.shape
    out = np.empty((*lead, d, d), dtype=v.dtype)
    out[..., 0, :] = v
    h = 1
    while h < d:
        shape = (*lead, h, d // (2 * h), 2, h)
        src = out[..., :h, :].reshape(shape)
        dst = out[..., h : 2 * h, :].reshape(shape)
        dst[..., 0, :] = src[..., 1, :]
        dst[..., 1, :] = src[..., 0, :]
        h *= 2
    return out


def _gather(table, x: np.ndarray, z: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The 2^n support table's entries of the words idx, read at x | z."""
    return np.asarray(table, dtype=float)[x[idx] | z[idx]]


class PoolScorer:
    """Sinusoid fits for every pool word against a frozen real state s.

    With the anticommuting part H_a of H against a word P, the trial energy
    is E(tau) = E0 - B + B cos 2tau + C sin 2tau, B = <H_a>, C = <i P H_a>.

    Transform path (every word): with f_i = c_i <P_i>, B_P = (E0 - G_P) / 2,
    where G is one length-4^n Walsh-Hadamard transform of f placed at
    (z_i << n) | x_i and read at (x_P << n) | z_P. C_P = +-T_sigma[x_P, z_P]
    (+ for y_P = 1 mod 4), where T_sigma[x, z] = sum_k (-1)^{|k & z|}
    sigma[k ^ x] s[k] and sigma = H s. Both transforms run in blocks of
    FWHT_BLOCK columns (see _fwht) into one 2^n x 2^n table, which holds G
    and then T_sigma as their transposes, so both are read at
    (z_P << n) | x_P. One step costs O(8^n) for the word table T below,
    which the exact path reads, plus O(4^n n) for the two transforms, plus
    O(terms x refined words) for the refine.

    Term-sum path (exact): B and C summed over the anticommuting terms in
    H's term order, reading T[x, z] = sum_k (-1)^{|k & z|} s[k ^ x] s[k].
    Given the strength table, scores() recomputes by this path every word whose
    transform descent lies within 2 * slack of a selection boundary, so
    select_entangler's choice, acceptable count and the chosen tau are the
    term-sum ones bit for bit; float noise at 1e-14 would otherwise reorder
    exactly tied words. This refine is the one rule that makes selection
    exact. slack = 1e-9 (1 + sum |c_i|) exceeds the transform's rounding
    error, (terms + 2^n + 2n) 2 eps sum |c_i|, a thousandfold, so a word
    outside every band lies on the same side of each boundary by either
    path: one that commutes with every term of H (exact descent 0) keeps a
    transform descent within slack of 0, is never acceptable and never wins.
    h_action is H's compiled product from compile_sum_action, which gives
    sigma. Per pool word the scorer keeps the pool's uint16 masks, an int32
    word index, a uint8 Y count and a bool C sign.
    """

    def __init__(self, H: PauliSum, pool: EntanglerPool, h_action):
        if H.n_qubits != pool.n_qubits:
            raise AdaptiveError("Hamiltonian and pool qubit counts differ")
        if H.n_qubits > SCORER_MAX_QUBITS:
            raise AdaptiveError(f"pool scorer limited to {SCORER_MAX_QUBITS} qubits")
        n = self.n = H.n_qubits
        self.coeffs, self.tx, self.tz, self.ty = H.coeffs, H.x, H.z, H.y
        if np.any(self.ty % 2):
            raise AdaptiveError("pool scorer requires an even-Y (real) Hamiltonian")
        self.px = pool.x
        self.pz = pool.z
        self.py = np.bitwise_count(pool.x & pool.z)
        if np.any(self.py % 2 == 0):
            raise AdaptiveError("pool words must have odd Y count")
        self.slack = 1e-9 * (1.0 + float(np.abs(self.coeffs).sum()))
        self._h_action = h_action
        # flat indices into 2^n x 2^n tables: terms at [x, z], pool words
        # at [z, x]; P anticommutes with P_i when |word_zx & term_slot_i| is
        # odd. Only the columns z of the terms hold an entry of f. The uint16
        # z is widened before its shift, which would overflow 16 bits.
        shift = np.uint64(n)
        self._term_slot = ((self.tx << shift) | self.tz).astype(np.intp)
        self._term_columns = np.unique(self.tz).astype(np.intp)
        self._word_zx = self.pz.astype(np.int32)
        self._word_zx <<= n
        self._word_zx |= self.px
        # C_P = -T_sigma[x_P, z_P] unless y_P = 1 mod 4
        self._c_negate = self.py % 4 != 1

    @staticmethod
    def _real(state: np.ndarray) -> np.ndarray:
        if np.abs(state.imag).max() > 1e-13:
            raise AdaptiveError(
                "frozen state has imaginary amplitudes; odd-Y layers preserve "
                "real states, so this indicates a non-real reference"
            )
        return state.real

    def _word_table(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """T[x, z] and f_i = c_i <P_i> for the Hamiltonian terms."""
        sk = _xor_shifts(s)
        np.multiply(sk, s, out=sk)  # [x, k] = s[x ^ k] s[k]
        T = sk @ _hadamard_signs(len(s))
        del sk
        # <P_i> = i^y_i T[x_i, z_i], and i^y_i is +-1 here (even y)
        term_signs = np.where(self.ty % 4 == 0, 1.0, -1.0)
        f = self.coeffs * (term_signs * T[self.tx.astype(np.intp), self.tz.astype(np.intp)])
        return T, f

    def _term_sum(
        self, T: np.ndarray, f: np.ndarray, idx: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(descents, taus) of the pool words idx by the exact term sum."""
        b = np.empty(len(idx))
        c = np.empty(len(idx))
        width = max(2, TERM_SUM_ENTRIES // max(len(self.coeffs), 1))
        for start in range(0, len(idx), width):
            cols = idx[start : start + width]
            # numpy sums a lone column pairwise but several columns term by
            # term; a duplicate keeps every word on the term-by-term order
            sel = np.resize(cols, max(len(cols), 2))
            px, pz, py = self.px[sel], self.pz[sel], self.py[sel]
            anti = (
                (
                    np.bitwise_count(self.tx[:, None] & pz[None, :])
                    + np.bitwise_count(self.tz[:, None] & px[None, :])
                )
                & np.uint64(1)
            ).astype(bool)
            bb = np.where(anti, f[:, None], 0.0).sum(axis=0)
            # <P_i P> = i^{y_i + y_P + 2|z_i & x_P|} T[x_i^x_P, z_i^z_P];
            # the exponent is odd here, so -i * <P_i P> = +-T[...]
            pc = np.bitwise_count(self.tz[:, None] & px[None, :]).astype(np.int64)
            exponent = (self.ty[:, None] + py[None, :] + 2 * pc) % 4
            signs = np.where(exponent == 1, 1.0, -1.0)
            gx = (self.tx[:, None] ^ px[None, :]).astype(np.intp)
            gz = (self.tz[:, None] ^ pz[None, :]).astype(np.intp)
            cc = np.where(anti, self.coeffs[:, None] * signs * T[gx, gz], 0.0).sum(axis=0)
            b[start : start + len(cols)] = bb[: len(cols)]
            c[start : start + len(cols)] = cc[: len(cols)]
        # E(0) - E_min = B + sqrt(B^2 + C^2)
        return b + np.hypot(b, c), _tau_minimum(b, c)

    def scores(
        self,
        state: np.ndarray,
        strength_table: np.ndarray,
        descent_fraction: float,
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """(descents, tau_stars, e0) for every pool word.

        Transform values, except that the words which can change
        select_entangler(descents, pool, strength_table, descent_fraction)
        are recomputed by the term sum, in two stages:
        1. words within 2 slack of the max descent or of the acceptance
           threshold, which makes the max and the acceptable set exact;
        2. the acceptable words of the top strength within 2 slack of that
           group's max descent, which makes the winner and its tau exact.
        Near convergence, once the max descent is below about 7 slack, every
        word of (near-)zero descent lies in the stage-1 band; at an
        eigenstate of H that is every pool word, and the step costs about
        what the full term sum does.
        """
        s = self._real(state)
        T, f = self._word_table(s)
        e0 = float(f.sum())
        d = 1 << self.n
        # G = the 4^n transform of f placed at [x_i, z_i]: its levels over x
        # (the first axis, only the columns that hold a term) and then over
        # z (along each row), which leaves the table as G's transpose
        table = np.zeros((d, d))
        table.ravel()[self._term_slot] = f
        table = _fwht_columns(table, self._term_columns)
        _fwht_rows(table)
        b = table.ravel()[self._word_zx]
        np.subtract(e0, b, out=b)
        np.multiply(0.5, b, out=b)
        # T_sigma[z, x]: [k, x] = sigma[k ^ x] s[k] transformed over k, one
        # block of columns x = x0 + t (t < width) at a time, into the same
        # table. With k = q * width + r, k ^ x = (q ^ q0) * width + (r ^ t),
        # so the block's rows q * width + r are the rows (q ^ q0, r) of the
        # XOR table of each width-entry row of sigma.
        width = min(d, FWHT_BLOCK)
        shifts = _xor_shifts(self._h_action(s).reshape(d // width, width))
        q = np.arange(d // width)
        for start in range(0, d, width):
            block = shifts[q ^ (start // width)].reshape(d, width)
            np.multiply(block, s[:, None], out=block)
            table[:, start : start + width] = _fwht(block)
        del shifts
        c = table.ravel()[self._word_zx]
        del table  # of the 4^n-entry tables only T is kept, for the refine
        np.negative(c, out=c, where=self._c_negate)
        # descents = b + hypot(b, c) into b, taus into c
        h = np.hypot(b, c)
        descents, taus = b, _tau_minimum(b, c, out=c)
        np.add(b, h, out=descents)
        del h

        band = 2.0 * self.slack

        def refine(idx):
            descents[idx], taus[idx] = self._term_sum(T, f, idx)

        top = descents.max()
        near = np.subtract(descents, descent_fraction * top)
        np.abs(near, out=near)
        refine(np.flatnonzero((descents >= top - band) | (near <= band)))
        del near
        top = descents.max()
        if top > 0.0:
            acceptable = np.flatnonzero(descents >= descent_fraction * top)
            strengths = _gather(strength_table, self.px, self.pz, acceptable)
            group = acceptable[strengths == strengths.max()]
            refine(group[descents[group] >= descents[group].max() - band])
        return descents, taus, e0


def select_entangler(
    descents: np.ndarray,
    pool: EntanglerPool,
    strength_table: np.ndarray,
    descent_fraction: float,
) -> tuple[int, int]:
    """Index of the chosen word and the acceptable-set size.

    Acceptable words reach the descent fraction of the best descent; among
    them the largest correlation strength wins, ties broken by larger
    descent, then by canonical (pool) order. descents run parallel to the
    pool; strength_table is the 2^n support table of strengths, read only
    for the acceptable words.

    PoolScorer.scores makes exact the words near this rule's boundaries (the
    max, the >= threshold, the top-strength group and its descent tie-break);
    a change to the rule must change that refine with it, or the choice can
    stop being the term-sum one.
    """
    descents = np.asarray(descents, dtype=float)
    max_descent = descents.max()
    if max_descent <= 0.0:
        raise NoImprovingEntangler("all descents are non-positive")
    acceptable = np.flatnonzero(descents >= descent_fraction * max_descent)
    strengths = _gather(strength_table, pool.x, pool.z, acceptable)
    order = np.lexsort((acceptable, -descents[acceptable], -strengths))
    return int(acceptable[order[0]]), int(len(acceptable))


def joint_optimize(
    ansatz: Ansatz,
    h_action,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float]:
    """Basin-hopping reoptimization of all layer parameters.

    A quasi-Newton descent with the analytic adjoint gradient runs from the
    incoming parameters, then HOPS uniform perturbations of magnitude
    HOP_STEP with Metropolis acceptance at HOP_TEMPERATURE. The best
    energy found is returned and never exceeds the incoming energy.
    h_action is the compiled H product from compile_sum_action.
    """
    if len(ansatz) == 0:
        raise AdaptiveError("joint optimization needs at least one layer")
    objective = partial(energy_and_gradient, ansatz, h_action)

    x0 = np.array(ansatz.parameters, dtype=float)
    e_in = objective(x0)[0]
    result = basinhopping(
        objective,
        x0,
        niter=HOPS,
        T=HOP_TEMPERATURE,
        stepsize=HOP_STEP,
        minimizer_kwargs={
            "method": "BFGS",
            "jac": True,
            "options": {"gtol": BFGS_GTOL},
        },
        rng=rng,
    )
    if result.fun > e_in:
        return x0, e_in
    return np.asarray(result.x, dtype=float), float(result.fun)


def run_adaptive(
    H: PauliSum,
    pool: EntanglerPool,
    strength_table: np.ndarray,
    percentile_table: np.ndarray,
    reference_bits,
    config: AdaptiveConfig,
    reference_energy: float | None = None,
) -> tuple[RunReport, Ansatz]:
    """Adaptive construction loop: score, select, append, jointly reoptimize.

    Both tables are 2^n support tables, read by a word's support mask
    x | z, so the run holds no float per pool word outside a scoring step.
    strength_table holds the strengths that rank the acceptable words of
    each step. percentile_table holds the percentiles the caller counted
    against the declared baseline pool; each adopted word reads its entry,
    and these feed the p_max / p_avg screening rates. H is compiled once,
    here, for the HF energy, the scorer and every reoptimization.
    """
    for name, table in (("strength", strength_table), ("percentile", percentile_table)):
        if len(table) != 1 << pool.n_qubits:
            raise AdaptiveError(
                f"a {pool.n_qubits}-qubit pool needs a 2^{pool.n_qubits}-entry {name} table"
            )
    h_action, _ = compile_sum_action(H)
    scorer = PoolScorer(H, pool, h_action)
    ansatz = Ansatz(H.n_qubits, list(reference_bits))
    state = ansatz.reference_state()
    hf_energy = float(np.vdot(state, h_action(state)).real)
    energy = hf_energy

    def is_converged(e: float) -> bool:
        return reference_energy is not None and abs(e - reference_energy) <= config.convergence_tol

    steps: list[StepRecord] = []
    converged = False
    stop_reason = "max_steps"
    if is_converged(energy):
        converged, stop_reason = True, "reference state within tolerance"
    else:
        recent_descents: list[float] = []
        for step in range(1, config.max_steps + 1):
            descents, taus, e0 = scorer.scores(state, strength_table, config.descent_fraction)
            if abs(e0 - energy) > 1e-8:
                raise AdaptiveError(
                    f"scorer energy {e0} disagrees with tracked energy {energy}"
                )
            try:
                chosen, acceptable_count = select_entangler(
                    descents, pool, strength_table, config.descent_fraction
                )
            except NoImprovingEntangler:
                stop_reason = "no improving entangler"
                converged = is_converged(energy) if reference_energy is not None else True
                break
            x, z = int(pool.x[chosen]), int(pool.z[chosen])
            ansatz = ansatz.with_layer(x, z, float(taus[chosen]))
            rng = np.random.default_rng(np.random.SeedSequence((config.seed, step)))
            params, e_new = joint_optimize(ansatz, h_action, rng)
            ansatz = ansatz.with_parameters(params)
            descent_achieved = energy - e_new
            steps.append(
                StepRecord(
                    step=step,
                    x=x,
                    z=z,
                    tau=float(params[-1]),
                    energy=e_new,
                    descent=descent_achieved,
                    percentile=float(percentile_table[x | z]),
                    acceptable_count=acceptable_count,
                )
            )
            energy = e_new
            state = ansatz.prepare()
            if is_converged(energy):
                converged, stop_reason = True, "chemical accuracy reached"
                break
            if reference_energy is None:
                recent_descents.append(descent_achieved)
                window = recent_descents[-DESCENT_FLOOR_WINDOW:]
                if len(window) == DESCENT_FLOOR_WINDOW and max(window) < DESCENT_FLOOR:
                    converged, stop_reason = True, "descent stalled"
                    break

    report = RunReport(
        n_qubits=H.n_qubits,
        steps=steps,
        converged=converged,
        stop_reason=stop_reason,
        reference_energy=reference_energy,
        hf_energy=hf_energy,
        final_energy=energy,
    )
    return report, ansatz
