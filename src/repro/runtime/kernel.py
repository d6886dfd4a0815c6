"""Batched, vectorized evaluation kernel for the PM search loops.

Every power-management policy in the repro — SAnn's annealing probes
and quench sweeps, ExhaustiveSearch's combination enumeration,
LinOpt's correction/refill trials, Foxton*'s victim descent — funnels
through system evaluations of candidate DVFS operating points, and
the serial path (:func:`repro.runtime.evaluation.evaluate_levels`)
runs a Python per-core leakage loop inside the damped thermal fixed
point for every single candidate. That per-candidate Python overhead,
not the floating-point math, is the wall-clock bottleneck of the
SAnn/exhaustive validation runs (the paper's Table 4 gap).

:class:`EvalKernel` is precomputed once per (chip, workload,
assignment, phase multipliers): it packs the per-core V/f tables and
the per-level IPC / dynamic-power values into contiguous arrays,
holds direct references to every core's leakage cell state, and
evaluates ``B`` candidate operating points simultaneously — the
leakage-temperature fixed point runs in lockstep across candidates
with per-column convergence masks, so each candidate sees exactly the
serial iteration schedule and the results are **bitwise identical**
to the serial loop (tests/test_kernel.py property-tests this).

Bitwise equality is engineered, not hoped for:

* elementwise work is broadcast through the *same* expression trees
  the serial path uses (:func:`repro.power.leakage.leakage_factor` is
  called directly with column-shaped operands — IEEE elementwise ops
  are value-deterministic under broadcasting);
* reductions whose summation order is implementation-defined (the
  per-core ``weights @ factors`` dot, the LU triangular solves) are
  kept in exactly the serial form, one contiguous-row call per
  candidate — BLAS ``dgemv`` and LAPACK multi-RHS ``getrs`` produce
  different per-column rounding than their single-vector
  counterparts, so they are deliberately avoided (see DESIGN.md §13);
  the per-L2-block ``np.mean`` numerator is one
  ``np.add.reduce(..., axis=1)`` per block, numpy's pairwise sum
  along each contiguous row — bitwise the serial per-row sum
  (property-tested in tests/test_kernel.py);
* converged candidates are frozen and compacted out of the working
  set, so a candidate's iterate sequence never depends on its batch
  neighbours.

The kernel reports into the process-global
:data:`repro.runtime.evaluation.EVALUATION_COUNTER` (every candidate
counts as one full evaluation) and into a per-instance
:class:`KernelStats` that policies surface through
``PmResult.stats`` and the BENCH_*.json emitters.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..chip import ChipProfile
from ..config import BOLTZMANN_EV, T_REF_K
from ..power.leakage import DIBL_COEFF, subthreshold_slope_factor
from ..power.scaling import L2_DYNAMIC_FRACTION, L2_VDD
from ..thermal.hotspot import (
    DAMPING,
    DEFAULT_TOLERANCE_K,
    MAX_ITERATIONS,
    RUNAWAY_TEMP_K,
    ThermalRunawayError,
)
from ..workloads import Workload
from .evaluation import EVALUATION_COUNTER, Assignment, SystemState

# Cells per internal fixed-point slab: keeps the (rows, total_cells)
# working matrices inside the L2 cache (16 x ~2.5k cells x 8 B = 320 kB
# per matrix). A slab holds as many rows as fit the budget: 10-16
# candidates of 4-8 threads on a 20-core die, ~170-190 fleet rows of
# ~210-240 cells. Purely execution-shaping — rows are independent, so
# results do not depend on it.
_SLAB_CELLS = 16 * 2500


def _slab_rows(n_cells: int) -> int:
    """Rows per fixed-point slab for rows of ``n_cells`` cells."""
    return max(1, _SLAB_CELLS // max(1, n_cells))


def _scalar_pow_prefactor(temps_cols: np.ndarray,
                          vdd_cols: np.ndarray) -> np.ndarray:
    """Per-(row, occupied block) scalar leakage prefactor.

    ``vdd * (t / Tref) ** 2`` computed with the serial path's *scalar*
    semantics: the square goes through libm ``pow()`` (what a 0-d
    ``** 2`` resolves to), which differs from every numpy array square
    by 1 ulp for rare inputs — the one place scalar and array float
    paths genuinely diverge. The division and multiply are
    single-rounded IEEE ops, identical either way, so only the ``pow``
    needs the scalar loop — a few dozen scalars per row, not one per
    cell. Shared by the candidate-batched and die-batched kernels.
    """
    ratio = temps_cols / T_REF_K
    sq = np.array([math.pow(x, 2.0) for x in ratio.ravel().tolist()])
    return vdd_cols * sq.reshape(ratio.shape)


def _leakage_factors_inplace(vth: np.ndarray, t: np.ndarray,
                             dib: np.ndarray, pref: np.ndarray,
                             tmp: np.ndarray, n_slope: float,
                             vth_temp_coeff: float) -> np.ndarray:
    """Leakage factor over a row x cell matrix, in place.

    Evaluates the exact expression tree of
    :func:`repro.power.leakage.leakage_factor` — same operations, same
    associativity, constants hoisted by the caller — as a chain of
    in-place ufuncs over preallocated scratch (``tmp``); ``t`` is
    destroyed, ``dib`` is the hoisted DIBL term
    ``DIBL_COEFF * (vdd - vdd_nominal)`` and ``pref`` the per-cell
    gather of :func:`_scalar_pow_prefactor`. The only deviations from
    the source expression are commuted multiplication/addition
    operands, which IEEE-754 guarantees bit-identical, so entry
    ``[b, c]`` is bit-for-bit the serial scalar result for row ``b``
    (property-tested in tests/test_kernel.py and tests/test_fleet.py).
    ``vth`` may be one shared cell row (candidate batching) or one row
    per die (fleet batching) — broadcasting is value-deterministic
    either way. Returns ``tmp``.
    """
    np.subtract(t, T_REF_K, out=tmp)
    np.multiply(tmp, vth_temp_coeff, out=tmp)
    np.add(tmp, vth, out=tmp)
    np.subtract(tmp, dib, out=tmp)          # tmp = vth_eff
    np.multiply(t, BOLTZMANN_EV, out=t)
    np.multiply(t, n_slope, out=t)          # t = n_slope * v_t
    np.negative(tmp, out=tmp)
    np.divide(tmp, t, out=tmp)
    np.exp(tmp, out=tmp)
    np.multiply(tmp, pref, out=tmp)
    return tmp


class KernelStats:
    """Per-kernel observability counters.

    Mirrors the process-global counter for one kernel instance so a
    policy can report exactly the work *it* did. All quantities are
    cumulative over the kernel's lifetime.
    """

    __slots__ = ("evaluations", "batch_calls", "fixed_point_iterations",
                 "wall_s", "batch_size_hist")

    def __init__(self) -> None:
        self.evaluations = 0
        self.batch_calls = 0
        self.fixed_point_iterations = 0
        self.wall_s = 0.0
        self.batch_size_hist: Dict[int, int] = {}

    def record(self, batch_size: int, iterations: int,
               wall_s: float) -> None:
        self.evaluations += batch_size
        self.batch_calls += 1
        self.fixed_point_iterations += iterations
        self.wall_s += wall_s
        self.batch_size_hist[batch_size] = (
            self.batch_size_hist.get(batch_size, 0) + 1)

    @property
    def max_batch(self) -> int:
        return max(self.batch_size_hist) if self.batch_size_hist else 0

    def as_result_stats(self) -> Dict[str, float]:
        """Scalar view merged into ``PmResult.stats`` (floats only)."""
        mean_batch = (self.evaluations / self.batch_calls
                      if self.batch_calls else 0.0)
        return {
            "kernel_evaluations": float(self.evaluations),
            "kernel_batches": float(self.batch_calls),
            "kernel_batch_max": float(self.max_batch),
            "kernel_batch_mean": float(mean_batch),
            "kernel_fp_iterations": float(self.fixed_point_iterations),
            "kernel_wall_s": float(self.wall_s),
        }


class EvalKernel:
    """Batched system evaluation for one (chip, workload, assignment).

    Precomputes everything that does not depend on the candidate
    levels — per-level voltages/frequencies/IPCs/dynamic powers, the
    L2 area-share vector, leakage cell state references — then
    :meth:`evaluate_levels_batch` evaluates a whole matrix of level
    candidates with the per-candidate Python overhead amortised over
    the batch.

    Args:
        chip: Characterised die.
        workload: The threads (``workload[i]`` runs on
            ``assignment.core_of[i]``).
        assignment: Thread-to-core mapping.
        ipc_multipliers: Optional per-thread phase IPC multipliers.
        ceff_multipliers: Optional per-thread phase power multipliers.
    """

    def __init__(
        self,
        chip: ChipProfile,
        workload: Workload,
        assignment: Assignment,
        ipc_multipliers: Optional[Sequence[float]] = None,
        ceff_multipliers: Optional[Sequence[float]] = None,
    ) -> None:
        n = assignment.n_threads
        if workload.n_threads != n:
            raise ValueError("workload and assignment sizes differ")
        if max(assignment.core_of) >= chip.n_cores:
            raise ValueError("assignment references a core beyond the die")
        ipc_mult = (np.ones(n) if ipc_multipliers is None
                    else np.asarray(ipc_multipliers, dtype=float))
        ceff_mult = (np.ones(n) if ceff_multipliers is None
                     else np.asarray(ceff_multipliers, dtype=float))
        if ipc_mult.shape != (n,) or ceff_mult.shape != (n,):
            raise ValueError("need one multiplier per thread")

        self.chip = chip
        self.workload = workload
        self.assignment = assignment
        self.stats = KernelStats()
        self._tech = chip.tech
        self._thermal = chip.thermal
        self._n = n
        self._core_of = np.asarray(assignment.core_of, dtype=int)
        self._n_cores = chip.n_cores
        self._n_blocks = chip.thermal.n_blocks

        # Per-thread, per-level lookup tables. Each entry is computed
        # with the exact scalar expression the serial path uses, so a
        # table lookup is bit-for-bit the serial computation.
        self._n_levels = np.array(
            [chip.cores[c].vf_table.n_levels for c in assignment.core_of])
        max_levels = int(self._n_levels.max())
        self._volts_tab = np.zeros((n, max_levels))
        self._freqs_tab = np.zeros((n, max_levels))
        self._ipc_tab = np.zeros((n, max_levels))
        self._dyn_tab = np.zeros((n, max_levels))
        for i, core in enumerate(assignment.core_of):
            table = chip.cores[core].vf_table
            for lv in range(table.n_levels):
                v = table.voltages[lv]
                f = table.freqs[lv]
                self._volts_tab[i, lv] = v
                self._freqs_tab[i, lv] = f
                self._ipc_tab[i, lv] = workload[i].ipc_at(f) * ipc_mult[i]
                self._dyn_tab[i, lv] = (workload[i].ceff * ceff_mult[i]
                                        * v ** 2 * f)

        # Leakage state: (vth cells, normalised weights, calibration)
        # per active thread, plus the shared L2's per-block state.
        self._leak_cells = [chip.cores[c].leakage.cell_vth
                            for c in assignment.core_of]
        self._leak_weights = [chip.cores[c].leakage.cell_weights
                              for c in assignment.core_of]
        self._leak_calib = [chip.cores[c].leakage.calibration
                            for c in assignment.core_of]
        l2 = chip.l2_leakage
        self._l2_vth = l2.block_vth
        self._l2_share = l2.block_share
        self._l2_calib = l2.calibration
        if len(self._l2_vth) != self._n_blocks - self._n_cores:
            raise ValueError("L2 leakage blocks do not match the "
                             "thermal network")
        self._l2_dyn_share = chip.floorplan.l2_area_share

        # Constants of the leakage-factor expression, hoisted so the
        # inner loop can evaluate the *identical* expression tree as
        # :func:`repro.power.leakage.leakage_factor` without its
        # per-call validation/dispatch overhead (the single hottest
        # cost of the serial path). tests/test_kernel.py property-tests
        # that this mirror stays bitwise-faithful to the original.
        self._n_slope = subthreshold_slope_factor(chip.tech)
        self._vth_temp_coeff = chip.tech.vth_temp_coeff
        self._vdd_nominal = chip.tech.vdd_nominal

        # Concatenated cell row: every leakage cell of every active
        # core and every L2 block, packed into one contiguous vector so
        # each fixed-point iteration runs ONE broadcast expression over
        # a (B, total_cells) matrix instead of one per block — ufunc
        # dispatch, not floating-point math, dominates small batches.
        # ``_cell_vsrc`` maps each cell to its supply column (thread
        # index, or the appended L2_VDD column) and ``_cell_block`` to
        # its thermal block, so per-cell (vdd, T) operand matrices are
        # single gathers. Reductions never cross segment boundaries:
        # each thread/block reduces its own contiguous slice, which is
        # bitwise-identical to reducing a standalone row.
        parts = list(self._leak_cells) + list(self._l2_vth)
        sizes = [p.size for p in parts]
        bounds = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
        self._cells_row = np.concatenate(parts)
        n_cells = self._cells_row.size
        self._core_segs = [(int(bounds[i]), int(bounds[i + 1]))
                           for i in range(n)]
        self._l2_segs = [(int(bounds[n + j]), int(bounds[n + j + 1]))
                         for j in range(len(self._l2_vth))]
        self._n_core_cells = int(bounds[n])
        cell_vsrc = np.empty(n_cells, dtype=int)
        cell_block = np.empty(n_cells, dtype=int)
        for i, (s0, s1) in enumerate(self._core_segs):
            cell_vsrc[s0:s1] = i
            cell_block[s0:s1] = assignment.core_of[i]
        for j, (s0, s1) in enumerate(self._l2_segs):
            cell_vsrc[s0:s1] = n
            cell_block[s0:s1] = self._n_cores + j
        self._cell_block = cell_block

        # The leakage prefactor ``vdd * (t / Tref) ** 2`` is shared by
        # every cell of a block, and the serial path computes it with
        # *scalar* semantics: a 0-d ``t / Tref`` yields an np.float64
        # whose ``** 2`` goes through libm ``pow()``, which disagrees
        # with the array paths (``x ** 2`` / ``np.square`` / ``x * x``
        # — all the correctly-rounded product) by 1 ulp for ~0.1% of
        # inputs. The kernel therefore computes one scalar prefactor
        # per (candidate, occupied block) via ``math.pow`` — bitwise
        # the same libm call — and gathers it per cell. ``_pow_cols``
        # lists the occupied thermal blocks, ``_cell_powcol`` maps each
        # cell to its column in that compact matrix, ``_powcol_vsrc``
        # maps each column to its supply (thread index, or the appended
        # L2_VDD column).
        used = sorted(set(cell_block.tolist()))
        self._pow_cols = np.array(used, dtype=int)
        col_of = {blk: k for k, blk in enumerate(used)}
        self._cell_powcol = np.array(
            [col_of[blk] for blk in cell_block.tolist()], dtype=int)
        powcol_vsrc = np.empty(len(used), dtype=int)
        for c in range(n_cells):
            powcol_vsrc[self._cell_powcol[c]] = cell_vsrc[c]
        self._powcol_vsrc = powcol_vsrc

    # ------------------------------------------------------------------
    def evaluate_levels(self, levels: Sequence[int]) -> SystemState:
        """Single-candidate convenience wrapper (batch of one)."""
        return self.evaluate_levels_batch([list(levels)])[0]

    def evaluate_levels_batch(
        self, levels_matrix: Sequence[Sequence[int]],
        errors: str = "raise",
    ) -> List[SystemState]:
        """Evaluate ``B`` candidate level vectors in one pass.

        Args:
            levels_matrix: ``(B, n_threads)`` integer array-like; row
                ``b`` is one candidate assignment of per-thread DVFS
                levels.
            errors: ``"raise"`` (default) re-raises the exception of
                the lowest-index failing row — exactly what a serial
                in-order scan of the rows would raise first (all the
                fixed-point error messages are static, so which row
                trips first inside the lockstep iteration cannot leak
                into the raised error). ``"isolate"`` instead returns
                the exception *object* in that row's slot, so
                speculative callers can batch candidates a serial
                search might never have evaluated without a divergent
                speculation aborting the real ones.

        Returns:
            One converged :class:`SystemState` per row, in row order —
            element ``b`` is bitwise-identical to
            ``evaluate_levels(chip, workload, assignment,
            levels_matrix[b])`` (including, under ``"isolate"``, which
            rows raise and with what message).
        """
        if errors not in ("raise", "isolate"):
            raise ValueError("errors must be 'raise' or 'isolate'")
        start = time.perf_counter()
        levels = np.asarray(levels_matrix, dtype=int)
        if levels.ndim == 1:
            levels = levels[None, :]
        if levels.ndim != 2 or (levels.size and levels.shape[1] != self._n):
            raise ValueError("need one level per thread")
        n_rows = levels.shape[0]
        if n_rows == 0:
            return []
        bad = (levels < 0) | (levels >= self._n_levels[None, :])
        if bad.any():
            b, i = np.argwhere(bad)[0]
            raise ValueError(
                f"level {levels[b, i]} out of range for core "
                f"{self._core_of[i]}")

        # Past the cell budget the (rows, total_cells) working matrices
        # outgrow the L2 cache and per-candidate cost climbs ~60%, so
        # oversized batches are processed in cache-sized slabs.
        # Candidates are fully independent (each runs its own serial
        # iteration schedule), so slabbing cannot change any result.
        out: List[SystemState] = []
        total_iters = 0
        step = _slab_rows(self._cells_row.size)
        for c0 in range(0, n_rows, step):
            states, iters = self._eval_rows(levels[c0:c0 + step])
            out.extend(states)
            total_iters += iters

        wall = time.perf_counter() - start
        self.stats.record(n_rows, total_iters, wall)
        EVALUATION_COUNTER.record_batch(n_rows, total_iters, wall)
        if errors == "raise":
            for item in out:
                if isinstance(item, Exception):
                    raise item
        return out

    def _eval_rows(self, levels: np.ndarray):
        """Evaluate one cache-sized chunk of validated level rows."""
        n_rows = levels.shape[0]
        thread_ix = np.arange(self._n)[None, :]
        volts = self._volts_tab[thread_ix, levels]
        freqs = self._freqs_tab[thread_ix, levels]
        ipcs = self._ipc_tab[thread_ix, levels]
        core_dyn = self._dyn_tab[thread_ix, levels]

        block_dyn = np.zeros((n_rows, self._n_blocks))
        block_dyn[:, self._core_of] = core_dyn
        l2_dyn_total = L2_DYNAMIC_FRACTION * core_dyn.sum(axis=1)
        block_dyn[:, self._n_cores:] = (l2_dyn_total[:, None]
                                        * self._l2_dyn_share[None, :])

        # np.take (not fancy indexing) so the per-cell operand matrices
        # are C-contiguous: fancy indexing along axis 1 returns
        # Fortran-ordered results, which would propagate to the factor
        # matrix and silently flip the row reductions from contiguous
        # BLAS ddot to strided ddot — a *different* summation order.
        volts_ext = np.concatenate(
            [volts, np.full((n_rows, 1), L2_VDD)], axis=1)
        vdd_cols = np.take(volts_ext, self._powcol_vsrc, axis=1)
        # The DIBL term only depends on the candidate's supplies, not
        # on temperature — hoist it out of the fixed-point iterations
        # (computed per block, then gathered per cell; exact ops, so
        # identical to the serial per-cell broadcast).
        dib_cols = DIBL_COEFF * (vdd_cols - self._vdd_nominal)
        dib_full = np.take(dib_cols, self._cell_powcol, axis=1)
        temps, powers, iters, row_errors = self._fixed_point(
            block_dyn, vdd_cols, dib_full)
        # Failed rows hold uninitialised temperatures; park them at the
        # ambient so the shared final recompute stays well-defined (the
        # garbage results are replaced by the exception objects below,
        # and every surviving row is untouched — candidates are
        # independent).
        for b, err in enumerate(row_errors):
            if err is not None:
                temps[b] = self._thermal.ambient_k

        if np.any(temps <= 0):
            raise ValueError("temperature must be positive kelvin")
        dot = np.dot
        cc = self._n_core_cells
        pref_cols = self._pref_cols(
            np.take(temps, self._pow_cols, axis=1), vdd_cols)
        pref = np.take(pref_cols, self._cell_powcol[:cc], axis=1)
        tgat = np.take(temps, self._cell_block[:cc], axis=1)
        factors = self._factors(self._cells_row[:cc], tgat,
                                dib_full[:, :cc], pref,
                                np.empty_like(tgat))
        core_leak = np.empty((n_rows, self._n))
        for i in range(self._n):
            s0, s1 = self._core_segs[i]
            weights = self._leak_weights[i]
            vals = np.empty(n_rows)
            for b in range(n_rows):
                vals[b] = dot(weights, factors[b, s0:s1])
            core_leak[:, i] = self._leak_calib[i] * vals

        out: List = []
        for b in range(n_rows):
            if row_errors[b] is not None:
                out.append(row_errors[b])
                continue
            l2_power = float(powers[b, self._n_cores:].sum())
            total = float(core_dyn[b].sum() + core_leak[b].sum()) + l2_power
            out.append(SystemState(
                voltages=volts[b].copy(),
                freqs=freqs[b].copy(),
                ipcs=ipcs[b].copy(),
                core_dynamic=core_dyn[b].copy(),
                core_leakage=core_leak[b].copy(),
                block_temps=temps[b].copy(),
                l2_power=l2_power,
                total_power=total,
            ))
        return out, int(iters.sum())

    # ------------------------------------------------------------------
    def _pref_cols(self, temps_cols: np.ndarray,
                   vdd_cols: np.ndarray) -> np.ndarray:
        """Per-(candidate, occupied block) scalar leakage prefactor.

        ``vdd * (t / Tref) ** 2`` computed with the serial path's
        *scalar* semantics: the square goes through libm ``pow()``
        (what a 0-d ``** 2`` resolves to), which differs from every
        numpy array square by 1 ulp for rare inputs — the one place
        scalar and array float paths genuinely diverge. The division
        and multiply are single-rounded IEEE ops, identical either
        way, so only the ``pow`` needs the scalar loop — a few dozen
        scalars per candidate, not one per cell.
        """
        return _scalar_pow_prefactor(temps_cols, vdd_cols)

    def _factors(self, vth: np.ndarray, t: np.ndarray, dib: np.ndarray,
                 pref: np.ndarray, tmp: np.ndarray) -> np.ndarray:
        """Leakage factor over a candidate x cell matrix, in place.

        Evaluates the exact expression tree of
        :func:`repro.power.leakage.leakage_factor` — same operations,
        same associativity, constants hoisted at construction — as a
        chain of in-place ufuncs over preallocated ``(A, cells)``
        scratch (``tmp``); ``t`` is destroyed, ``dib`` is the hoisted
        DIBL term ``DIBL_COEFF * (vdd - vdd_nominal)`` and ``pref``
        the per-cell gather of :meth:`_pref_cols`. The only
        deviations from the source expression are commuted
        multiplication/addition operands, which IEEE-754 guarantees
        bit-identical, so entry ``[b, c]`` is bit-for-bit the serial
        scalar result for candidate ``b`` (property-tested in
        tests/test_kernel.py). Returns ``tmp``.
        """
        return _leakage_factors_inplace(vth, t, dib, pref, tmp,
                                        self._n_slope,
                                        self._vth_temp_coeff)

    def _leakage_matrix(self, temps: np.ndarray, vdd_cols: np.ndarray,
                        dib: np.ndarray, tgat: np.ndarray,
                        tmp: np.ndarray, pref: np.ndarray) -> np.ndarray:
        """Per-candidate per-block leakage power (bitwise-serial).

        The elementwise leakage factor is evaluated in ONE broadcast
        :meth:`_factors` call over the whole ``(active, total_cells)``
        packed cell row; reductions whose summation order matters stay
        in exactly the serial form — one contiguous-slice ``dot`` per
        candidate for cores (BLAS ``dgemv`` rounds differently than
        per-row ``ddot``), one row-wise pairwise sum per L2 block
        (``np.add.reduce`` along contiguous rows sums each row exactly
        as the serial ``np.mean`` does) — matching
        ``CoreLeakageModel.power`` / ``L2LeakageModel.power_per_block``.
        """
        if np.any(temps <= 0):
            raise ValueError("temperature must be positive kelvin")
        n_active = temps.shape[0]
        dot = np.dot
        pref_cols = self._pref_cols(
            np.take(temps, self._pow_cols, axis=1), vdd_cols)
        np.take(pref_cols, self._cell_powcol, axis=1, out=pref)
        np.take(temps, self._cell_block, axis=1, out=tgat)
        factors = self._factors(self._cells_row, tgat, dib, pref, tmp)
        leak = np.zeros((n_active, self._n_blocks))
        for i in range(self._n):
            s0, s1 = self._core_segs[i]
            weights = self._leak_weights[i]
            vals = np.empty(n_active)
            for b in range(n_active):
                vals[b] = dot(weights, factors[b, s0:s1])
            leak[:, self._core_of[i]] = self._leak_calib[i] * vals
        for j, (s0, s1) in enumerate(self._l2_segs):
            sums = np.add.reduce(factors[:, s0:s1], axis=1)
            leak[:, self._n_cores + j] = (
                (self._l2_calib * self._l2_share[j]) * (sums / (s1 - s0)))
        return leak

    def _fixed_point(self, block_dyn: np.ndarray, vdd_cols: np.ndarray,
                     dib_full: np.ndarray):
        """Lockstep leakage-temperature fixed point with column masks.

        Every candidate starts from the ambient temperature and takes
        exactly the damped iteration sequence of
        :func:`repro.thermal.solve_with_leakage`; candidates that
        converge are frozen (their temperatures stop updating) and
        compacted out of the working set, so survivors never feel
        their finished neighbours. A candidate that diverges is
        likewise compacted out, with the exception the serial path
        would have raised (same type, same message) recorded in its
        ``row_errors`` slot — its batch neighbours run to completion
        untouched.
        """
        n_rows = block_dyn.shape[0]
        out_temps = np.empty((n_rows, self._n_blocks))
        out_powers = np.empty((n_rows, self._n_blocks))
        out_iters = np.zeros(n_rows, dtype=int)
        row_errors: List[Optional[Exception]] = [None] * n_rows

        # Scratch for the leakage evaluation, allocated once per chunk
        # and reused every iteration (prefix-sliced as the active set
        # shrinks) — the iteration loop itself allocates nothing big.
        n_cells = self._cells_row.size
        tgat = np.empty((n_rows, n_cells))
        tmp = np.empty((n_rows, n_cells))
        pref = np.empty((n_rows, n_cells))

        orig = np.arange(n_rows)
        work_temps = np.full((n_rows, self._n_blocks),
                             self._thermal.ambient_k)
        work_dyn = block_dyn
        work_vdd = vdd_cols
        work_dib = dib_full

        for iteration in range(1, MAX_ITERATIONS + 1):

            def fail(bad: np.ndarray, make_error) -> bool:
                """Record errors for ``bad`` rows, compact them away.

                Returns True when no active rows remain.
                """
                nonlocal orig, work_temps, work_dyn, work_vdd, work_dib
                for r in orig[bad]:
                    row_errors[r] = make_error()
                    out_iters[r] = iteration
                keep = ~bad
                orig = orig[keep]
                work_temps = work_temps[keep]
                work_dyn = work_dyn[keep]
                work_vdd = work_vdd[keep]
                work_dib = work_dib[keep]
                return orig.size == 0

            # A non-positive iterate would raise inside the serial
            # leakage_factor call of this iteration.
            bad = (work_temps <= 0).any(axis=1)
            if bad.any() and fail(bad, lambda: ValueError(
                    "temperature must be positive kelvin")):
                return out_temps, out_powers, out_iters, row_errors
            a = work_temps.shape[0]
            leak = self._leakage_matrix(work_temps, work_vdd, work_dib,
                                        tgat[:a], tmp[:a], pref[:a])
            total = work_dyn + leak
            bad = ~np.isfinite(total).all(axis=1)
            if bad.any():
                keep = ~bad
                kept_total = total[keep]
                if fail(bad, lambda: ThermalRunawayError(
                        "leakage diverged before the temperature did")):
                    return out_temps, out_powers, out_iters, row_errors
                total = kept_total
            solved = self._thermal.solve_many(total)
            new_temps = DAMPING * solved + (1.0 - DAMPING) * work_temps
            bad = new_temps.max(axis=1) > RUNAWAY_TEMP_K
            if bad.any():
                keep = ~bad
                kept_total = total[keep]
                kept_new = new_temps[keep]
                if fail(bad, lambda: ThermalRunawayError(
                        f"block temperature exceeded {RUNAWAY_TEMP_K} K: "
                        "the leakage-temperature loop gain is above unity "
                        "for these power/cooling parameters")):
                    return out_temps, out_powers, out_iters, row_errors
                total = kept_total
                new_temps = kept_new
            delta = np.abs(new_temps - work_temps).max(axis=1)
            converged = delta < DEFAULT_TOLERANCE_K
            if converged.any():
                done = orig[converged]
                out_temps[done] = new_temps[converged]
                out_powers[done] = total[converged]
                out_iters[done] = iteration
                keep = ~converged
                orig = orig[keep]
                if orig.size == 0:
                    return out_temps, out_powers, out_iters, row_errors
                work_temps = new_temps[keep]
                work_dyn = work_dyn[keep]
                work_vdd = work_vdd[keep]
                work_dib = work_dib[keep]
            else:
                work_temps = new_temps
        for r in orig:
            row_errors[r] = RuntimeError(
                "leakage-temperature iteration did not converge "
                f"within {MAX_ITERATIONS} iterations (thermal runaway?)")
            out_iters[r] = MAX_ITERATIONS
        return out_temps, out_powers, out_iters, row_errors


class FleetEvalKernel:
    """Die-batched system evaluation: one decision, many variation maps.

    The dual of :class:`EvalKernel`: where that class batches *many
    candidate decisions on one die*, this one batches *one decision
    across many dies* — the Monte-Carlo axis of the paper's per-die
    results (Figs 4/5, Table 5), where every sampled variation map is
    evaluated at the same operating point and only the statistics over
    the fleet matter. The leakage/IPC/Ceff lookup tables and the
    packed leakage-cell row gain a leading *row* axis, and the
    leakage-temperature fixed point runs in lockstep across rows with
    per-row convergence masks and compaction, so each row's iterate
    sequence is exactly the serial
    :func:`repro.runtime.evaluation.evaluate_levels` schedule on its
    die and the results are **bitwise identical** to the per-die
    serial loop (tests/test_fleet.py property-tests this).

    Rows are (workload, die) pairs in workload-major order: with ``W``
    workloads over ``D`` dies, row ``w * D + k`` runs ``workloads[w]``
    on ``chips[k]``. A single :class:`Workload` is ``W = 1`` (one row
    per die); several same-shaped workloads let one kernel cover a
    whole per-app sweep (the Figure 4(a) analysis) in one fixed point.

    All dies must come off the same design: identical
    :class:`~repro.config.TechParams` and
    :class:`~repro.config.ArchConfig`, hence identical floorplans,
    thermal networks, V/f-table level grids and variation-cell layouts
    — only the *values* (per-die binned frequencies, Vth maps,
    calibrations) differ. The thermal solve uses ``chips[0]``'s
    network; networks built from the same floorplan factor the same
    matrix, so the shared solve is bit-for-bit each die's own.

    Args:
        chips: The fleet ('s current slab) of characterised dies.
        workload: The threads (``workload[i]`` runs on
            ``assignment.core_of[i]`` of every die), or a sequence of
            such workloads, each run on every die.
        assignment: Thread-to-core mapping, shared by all rows.
        ipc_multipliers: Optional per-thread phase IPC multipliers.
        ceff_multipliers: Optional per-thread phase power multipliers.
    """

    def __init__(
        self,
        chips: Sequence[ChipProfile],
        workload: Union[Workload, Sequence[Workload]],
        assignment: Assignment,
        ipc_multipliers: Optional[Sequence[float]] = None,
        ceff_multipliers: Optional[Sequence[float]] = None,
    ) -> None:
        if not chips:
            raise ValueError("fleet must contain at least one die")
        first = chips[0]
        for chip in chips:
            if chip.tech != first.tech or chip.arch != first.arch:
                raise ValueError(
                    "fleet dies must share TechParams and ArchConfig")
            if chip.thermal.n_blocks != first.thermal.n_blocks:
                raise ValueError("fleet dies must share the thermal "
                                 "network shape")
        workloads = ((workload,) if isinstance(workload, Workload)
                     else tuple(workload))
        if not workloads:
            raise ValueError("need at least one workload")
        n = assignment.n_threads
        if any(wl.n_threads != n for wl in workloads):
            raise ValueError("workload and assignment sizes differ")
        if max(assignment.core_of) >= first.n_cores:
            raise ValueError("assignment references a core beyond the die")
        ipc_mult = (np.ones(n) if ipc_multipliers is None
                    else np.asarray(ipc_multipliers, dtype=float))
        ceff_mult = (np.ones(n) if ceff_multipliers is None
                     else np.asarray(ceff_multipliers, dtype=float))
        if ipc_mult.shape != (n,) or ceff_mult.shape != (n,):
            raise ValueError("need one multiplier per thread")

        d = len(chips)
        self.chips = list(chips)
        self.workloads = workloads
        self.assignment = assignment
        self.stats = KernelStats()
        self._tech = first.tech
        self._thermal = first.thermal
        self._n = n
        self._d = d
        self._rows = len(workloads) * d
        self._die_of = np.tile(np.arange(d), len(workloads))
        self._core_of = np.asarray(assignment.core_of, dtype=int)
        self._n_cores = first.n_cores
        self._n_blocks = first.thermal.n_blocks

        # Per-(die, thread, level) V/f tables, then per-(row, thread,
        # level) IPC and dynamic power as array expressions over dies
        # with the serial scalar path's operands in its order — IEEE
        # elementwise ops are value-deterministic, so every entry is
        # bit-for-bit the serial computation.
        self._n_levels = np.array(
            [first.cores[c].vf_table.n_levels for c in assignment.core_of])
        max_levels = int(self._n_levels.max())
        self._volts_tab = np.zeros((d, n, max_levels))
        self._freqs_tab = np.zeros((d, n, max_levels))
        for k, chip in enumerate(chips):
            for i, c in enumerate(assignment.core_of):
                table = chip.cores[c].vf_table
                if table.n_levels != self._n_levels[i]:
                    raise ValueError("fleet dies must share the DVFS "
                                     "level grid")
                self._volts_tab[k, i, :table.n_levels] = table.voltages
                self._freqs_tab[k, i, :table.n_levels] = table.freqs
        # The serial ``v ** 2`` is a scalar libm pow() (see
        # _scalar_pow_prefactor): one math.pow per (die, level)
        # voltage, shared by every workload's rows.
        vsq = np.array([math.pow(v, 2.0) for v in
                        self._volts_tab.ravel().tolist()]
                       ).reshape(self._volts_tab.shape)
        ipc_tab = np.zeros((len(workloads), d, n, max_levels))
        dyn_tab = np.zeros((len(workloads), d, n, max_levels))
        for w, wl in enumerate(workloads):
            for i, app in enumerate(wl):
                nl = int(self._n_levels[i])
                f = self._freqs_tab[:, i, :nl]
                # AppProfile.ipc_at, elementwise (frequencies from a
                # VFTable are validated positive).
                ipc_tab[w, :, i, :nl] = (
                    1.0 / (app.cpi_core + app.mem_seconds_per_instr * f)
                    * ipc_mult[i])
                dyn_tab[w, :, i, :nl] = (app.ceff * ceff_mult[i]
                                         * vsq[:, i, :nl] * f)
        self._ipc_tab = ipc_tab.reshape(self._rows, n, max_levels)
        self._dyn_tab = dyn_tab.reshape(self._rows, n, max_levels)

        # Packed leakage state: the same concatenated cell row as
        # EvalKernel, but one row PER DIE — per-die Vth maps, weights
        # and calibrations are the whole point of the fleet axis.
        # Segment boundaries must agree across dies (same floorplan
        # => same cell counts), so the per-cell bookkeeping vectors
        # stay shared.
        ref_parts = ([first.cores[c].leakage.cell_vth
                      for c in assignment.core_of]
                     + list(first.l2_leakage.block_vth))
        sizes = [p.size for p in ref_parts]
        bounds = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
        n_cells = int(bounds[-1])
        n_l2 = len(first.l2_leakage.block_vth)
        if n_l2 != self._n_blocks - self._n_cores:
            raise ValueError("L2 leakage blocks do not match the "
                             "thermal network")
        self._core_segs = [(int(bounds[i]), int(bounds[i + 1]))
                           for i in range(n)]
        self._l2_segs = [(int(bounds[n + j]), int(bounds[n + j + 1]))
                         for j in range(n_l2)]
        self._n_core_cells = int(bounds[n])
        self._cells_mat = np.empty((d, n_cells))
        self._w_mat = np.zeros((d, self._n_core_cells))
        self._calib_mat = np.empty((d, n))
        self._l2_calib = np.empty(d)
        self._l2_share_mat = np.empty((d, n_l2))
        self._l2_dyn_share = first.floorplan.l2_area_share
        for k, chip in enumerate(chips):
            parts = ([chip.cores[c].leakage.cell_vth
                      for c in assignment.core_of]
                     + list(chip.l2_leakage.block_vth))
            if [p.size for p in parts] != sizes:
                raise ValueError("fleet dies must share the variation-"
                                 "cell layout")
            self._cells_mat[k] = np.concatenate(parts)
            for i, c in enumerate(assignment.core_of):
                s0, s1 = self._core_segs[i]
                self._w_mat[k, s0:s1] = chip.cores[c].leakage.cell_weights
                self._calib_mat[k, i] = chip.cores[c].leakage.calibration
            self._l2_calib[k] = chip.l2_leakage.calibration
            self._l2_share_mat[k] = chip.l2_leakage.block_share
            if not np.array_equal(chip.floorplan.l2_area_share,
                                  self._l2_dyn_share):
                raise ValueError("fleet dies must share the floorplan")

        cell_vsrc = np.empty(n_cells, dtype=int)
        cell_block = np.empty(n_cells, dtype=int)
        for i, (s0, s1) in enumerate(self._core_segs):
            cell_vsrc[s0:s1] = i
            cell_block[s0:s1] = assignment.core_of[i]
        for j, (s0, s1) in enumerate(self._l2_segs):
            cell_vsrc[s0:s1] = n
            cell_block[s0:s1] = self._n_cores + j
        self._cell_block = cell_block
        used = sorted(set(cell_block.tolist()))
        self._pow_cols = np.array(used, dtype=int)
        col_of = {blk: k for k, blk in enumerate(used)}
        self._cell_powcol = np.array(
            [col_of[blk] for blk in cell_block.tolist()], dtype=int)
        powcol_vsrc = np.empty(len(used), dtype=int)
        for c in range(n_cells):
            powcol_vsrc[self._cell_powcol[c]] = cell_vsrc[c]
        self._powcol_vsrc = powcol_vsrc

        self._n_slope = subthreshold_slope_factor(first.tech)
        self._vth_temp_coeff = first.tech.vth_temp_coeff
        self._vdd_nominal = first.tech.vdd_nominal

    @property
    def n_dies(self) -> int:
        return self._d

    @property
    def n_rows(self) -> int:
        """(workload, die) rows: ``len(workloads) * n_dies``."""
        return self._rows

    # ------------------------------------------------------------------
    def evaluate_levels_fleet(
        self, levels: Sequence[int],
        errors: str = "raise",
    ) -> List[SystemState]:
        """Evaluate one decision on every row of the fleet.

        Args:
            levels: ``(n_threads,)`` per-thread DVFS levels applied to
                every row (the fleet's shared decision), or a
                ``(n_rows, n_threads)`` matrix with one row per
                (workload, die) row.
            errors: ``"raise"`` (default) re-raises the exception of
                the lowest-index failing row — exactly what a serial
                in-order scan of the rows would raise first.
                ``"isolate"`` returns the exception *object* in that
                row's slot instead, so campaign drivers can record the
                failure and keep streaming the rest of the fleet.

        Returns:
            One converged :class:`SystemState` per row, in row order —
            element ``w * n_dies + k`` is bitwise-identical to
            ``evaluate_levels(chips[k], workloads[w], assignment,
            levels[w * n_dies + k])``.
        """
        if errors not in ("raise", "isolate"):
            raise ValueError("errors must be 'raise' or 'isolate'")
        start = time.perf_counter()
        lv = np.asarray(levels, dtype=int)
        if lv.ndim == 1:
            lv = np.broadcast_to(lv[None, :], (self._rows, lv.size)).copy()
        if lv.shape != (self._rows, self._n):
            raise ValueError("need one level per thread (optionally "
                             "one row per (workload, die) row)")
        bad = (lv < 0) | (lv >= self._n_levels[None, :])
        if bad.any():
            b, i = np.argwhere(bad)[0]
            raise ValueError(
                f"level {lv[b, i]} out of range for core "
                f"{self._core_of[i]}")

        out: List[SystemState] = []
        total_iters = 0
        step = _slab_rows(self._cells_mat.shape[1])
        for c0 in range(0, self._rows, step):
            c1 = min(c0 + step, self._rows)
            states, iters = self._eval_slab(c0, c1, lv[c0:c1])
            out.extend(states)
            total_iters += iters

        wall = time.perf_counter() - start
        self.stats.record(self._rows, total_iters, wall)
        EVALUATION_COUNTER.record_batch(self._rows, total_iters, wall)
        if errors == "raise":
            for item in out:
                if isinstance(item, Exception):
                    raise item
        return out

    def evaluate_max_levels_fleet(self,
                                  errors: str = "raise",
                                  ) -> List[SystemState]:
        """Every row at its cores' top operating points (NUniFreq)."""
        return self.evaluate_levels_fleet(self._n_levels - 1,
                                          errors=errors)

    def _eval_slab(self, c0: int, c1: int, levels: np.ndarray):
        """Evaluate one cache-sized slab of rows ``c0:c1``."""
        n_rows = c1 - c0
        rows = np.arange(c0, c1)[:, None]
        dies = self._die_of[c0:c1]
        # Per-(row, thread) gathers from the (die|row, thread, level)
        # tables; ascontiguousarray for the same reason EvalKernel
        # uses np.take — downstream row reductions must see
        # C-contiguous rows so BLAS takes the contiguous-ddot path.
        ix_t = np.arange(self._n)[None, :]
        volts = np.ascontiguousarray(
            self._volts_tab[dies[:, None], ix_t, levels])
        freqs = np.ascontiguousarray(
            self._freqs_tab[dies[:, None], ix_t, levels])
        ipcs = np.ascontiguousarray(self._ipc_tab[rows, ix_t, levels])
        core_dyn = np.ascontiguousarray(self._dyn_tab[rows, ix_t, levels])

        block_dyn = np.zeros((n_rows, self._n_blocks))
        block_dyn[:, self._core_of] = core_dyn
        l2_dyn_total = L2_DYNAMIC_FRACTION * core_dyn.sum(axis=1)
        block_dyn[:, self._n_cores:] = (l2_dyn_total[:, None]
                                        * self._l2_dyn_share[None, :])

        volts_ext = np.concatenate(
            [volts, np.full((n_rows, 1), L2_VDD)], axis=1)
        vdd_cols = np.take(volts_ext, self._powcol_vsrc, axis=1)
        dib_cols = DIBL_COEFF * (vdd_cols - self._vdd_nominal)
        dib_full = np.take(dib_cols, self._cell_powcol, axis=1)
        cells = np.take(self._cells_mat, dies, axis=0)
        temps, powers, iters, row_errors = self._fixed_point(
            dies, cells, block_dyn, vdd_cols, dib_full)
        # Failed rows hold garbage: park them so the shared recompute
        # and row sums stay finite (their slots become exceptions).
        for b, err in enumerate(row_errors):
            if err is not None:
                temps[b] = self._thermal.ambient_k
                powers[b] = 0.0

        if np.any(temps <= 0):
            raise ValueError("temperature must be positive kelvin")
        dot = np.dot
        cc = self._n_core_cells
        pref_cols = _scalar_pow_prefactor(
            np.take(temps, self._pow_cols, axis=1), vdd_cols)
        pref = np.take(pref_cols, self._cell_powcol[:cc], axis=1)
        tgat = np.take(temps, self._cell_block[:cc], axis=1)
        factors = _leakage_factors_inplace(
            cells[:, :cc], tgat, dib_full[:, :cc], pref,
            np.empty_like(tgat), self._n_slope, self._vth_temp_coeff)
        weights = np.take(self._w_mat, dies, axis=0)
        core_leak = np.empty((n_rows, self._n))
        for i in range(self._n):
            s0, s1 = self._core_segs[i]
            vals = np.empty(n_rows)
            for b in range(n_rows):
                vals[b] = dot(weights[b, s0:s1], factors[b, s0:s1])
            core_leak[:, i] = self._calib_mat[dies, i] * vals
        # Row-wise sums along contiguous rows are bitwise the serial
        # per-state ``.sum()`` calls (the L2 reduction's property).
        l2_powers = np.add.reduce(powers[:, self._n_cores:], axis=1)
        totals = (np.add.reduce(core_dyn, axis=1)
                  + np.add.reduce(core_leak, axis=1))

        out: List = []
        for b in range(n_rows):
            if row_errors[b] is not None:
                out.append(row_errors[b])
                continue
            l2_power = float(l2_powers[b])
            total = float(totals[b]) + l2_power
            out.append(SystemState(
                voltages=volts[b].copy(),
                freqs=freqs[b].copy(),
                ipcs=ipcs[b].copy(),
                core_dynamic=core_dyn[b].copy(),
                core_leakage=core_leak[b].copy(),
                block_temps=temps[b].copy(),
                l2_power=l2_power,
                total_power=total,
            ))
        return out, int(iters.sum())

    # ------------------------------------------------------------------
    def _leakage_matrix(self, dies: np.ndarray, temps: np.ndarray,
                        vdd_cols: np.ndarray, dib: np.ndarray,
                        cells: np.ndarray, tgat: np.ndarray,
                        tmp: np.ndarray, pref: np.ndarray) -> np.ndarray:
        """Per-row per-block leakage power (bitwise-serial).

        ``dies`` maps each active working row to its die, so compacted
        survivors keep reading *their own* weights and calibrations
        (gathered once per call). Reduction forms exactly mirror
        ``CoreLeakageModel.power`` / ``L2LeakageModel.power_per_block``
        — one contiguous-slice ``dot`` per row per core, one row-wise
        pairwise sum per L2 segment, never a batched BLAS call (see
        DESIGN.md §13/§17).
        """
        if np.any(temps <= 0):
            raise ValueError("temperature must be positive kelvin")
        n_active = temps.shape[0]
        dot = np.dot
        pref_cols = _scalar_pow_prefactor(
            np.take(temps, self._pow_cols, axis=1), vdd_cols)
        np.take(pref_cols, self._cell_powcol, axis=1, out=pref)
        np.take(temps, self._cell_block, axis=1, out=tgat)
        factors = _leakage_factors_inplace(
            cells, tgat, dib, pref, tmp,
            self._n_slope, self._vth_temp_coeff)
        weights = np.take(self._w_mat, dies, axis=0)
        leak = np.zeros((n_active, self._n_blocks))
        for i in range(self._n):
            s0, s1 = self._core_segs[i]
            vals = np.empty(n_active)
            for b in range(n_active):
                vals[b] = dot(weights[b, s0:s1], factors[b, s0:s1])
            leak[:, self._core_of[i]] = self._calib_mat[dies, i] * vals
        l2_calib = self._l2_calib[dies]
        for j, (s0, s1) in enumerate(self._l2_segs):
            sums = np.add.reduce(factors[:, s0:s1], axis=1)
            leak[:, self._n_cores + j] = (
                (l2_calib * self._l2_share_mat[dies, j]) * (sums / (s1 - s0)))
        return leak

    def _fixed_point(self, dies: np.ndarray, cells: np.ndarray,
                     block_dyn: np.ndarray, vdd_cols: np.ndarray,
                     dib_full: np.ndarray):
        """Lockstep leakage-temperature fixed point across rows.

        Identical control flow to :meth:`EvalKernel._fixed_point` —
        per-row convergence masks, freezing, compaction, error parity
        — with the per-row cell matrix compacted alongside the other
        row state so a surviving row never feels its finished or
        failed fleet neighbours.
        """
        n_rows = block_dyn.shape[0]
        out_temps = np.empty((n_rows, self._n_blocks))
        out_powers = np.empty((n_rows, self._n_blocks))
        out_iters = np.zeros(n_rows, dtype=int)
        row_errors: List[Optional[Exception]] = [None] * n_rows

        n_cells = cells.shape[1]
        tgat = np.empty((n_rows, n_cells))
        tmp = np.empty((n_rows, n_cells))
        pref = np.empty((n_rows, n_cells))

        orig = np.arange(n_rows)
        work_temps = np.full((n_rows, self._n_blocks),
                             self._thermal.ambient_k)
        work_dyn = block_dyn
        work_vdd = vdd_cols
        work_dib = dib_full
        work_cells = cells

        for iteration in range(1, MAX_ITERATIONS + 1):

            def fail(bad: np.ndarray, make_error) -> bool:
                """Record errors for ``bad`` rows, compact them away."""
                nonlocal orig, work_temps, work_dyn, work_vdd
                nonlocal work_dib, work_cells
                for r in orig[bad]:
                    row_errors[r] = make_error()
                    out_iters[r] = iteration
                keep = ~bad
                orig = orig[keep]
                work_temps = work_temps[keep]
                work_dyn = work_dyn[keep]
                work_vdd = work_vdd[keep]
                work_dib = work_dib[keep]
                work_cells = work_cells[keep]
                return orig.size == 0

            bad = (work_temps <= 0).any(axis=1)
            if bad.any() and fail(bad, lambda: ValueError(
                    "temperature must be positive kelvin")):
                return out_temps, out_powers, out_iters, row_errors
            a = work_temps.shape[0]
            leak = self._leakage_matrix(
                dies[orig], work_temps, work_vdd, work_dib, work_cells,
                tgat[:a], tmp[:a], pref[:a])
            total = work_dyn + leak
            bad = ~np.isfinite(total).all(axis=1)
            if bad.any():
                keep = ~bad
                kept_total = total[keep]
                if fail(bad, lambda: ThermalRunawayError(
                        "leakage diverged before the temperature did")):
                    return out_temps, out_powers, out_iters, row_errors
                total = kept_total
            solved = self._thermal.solve_many(total)
            new_temps = DAMPING * solved + (1.0 - DAMPING) * work_temps
            bad = new_temps.max(axis=1) > RUNAWAY_TEMP_K
            if bad.any():
                keep = ~bad
                kept_total = total[keep]
                kept_new = new_temps[keep]
                if fail(bad, lambda: ThermalRunawayError(
                        f"block temperature exceeded {RUNAWAY_TEMP_K} K: "
                        "the leakage-temperature loop gain is above unity "
                        "for these power/cooling parameters")):
                    return out_temps, out_powers, out_iters, row_errors
                total = kept_total
                new_temps = kept_new
            delta = np.abs(new_temps - work_temps).max(axis=1)
            converged = delta < DEFAULT_TOLERANCE_K
            if converged.any():
                done = orig[converged]
                out_temps[done] = new_temps[converged]
                out_powers[done] = total[converged]
                out_iters[done] = iteration
                keep = ~converged
                orig = orig[keep]
                if orig.size == 0:
                    return out_temps, out_powers, out_iters, row_errors
                work_temps = new_temps[keep]
                work_dyn = work_dyn[keep]
                work_vdd = work_vdd[keep]
                work_dib = work_dib[keep]
                work_cells = work_cells[keep]
            else:
                work_temps = new_temps
        for r in orig:
            row_errors[r] = RuntimeError(
                "leakage-temperature iteration did not converge "
                f"within {MAX_ITERATIONS} iterations (thermal runaway?)")
            out_iters[r] = MAX_ITERATIONS
        return out_temps, out_powers, out_iters, row_errors
