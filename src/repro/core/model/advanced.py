"""Numeric backend for the advanced work-division analysis (§5.2).

The analysis pictures a *bottom-up* execution (Figure 2): after the
split level, the CPU owns an ``α`` fraction of the subproblems and the
GPU the remaining ``1 − α``.  Both race upward from the leaves; the
CPU stays saturated until its fraction narrows to ``p`` subproblems at
level ``L = log_a(p/α)`` — taking time ``T_c(α)`` — and the GPU climbs
as far as it can in exactly that time, reaching level ``y(α)``.  The
fraction ``α*`` maximizes the work ``W_g`` the GPU completes.

Instead of enumerating the paper's three saturation cases we build the
GPU's cumulative time curve ``G(j)`` level by level — each level is
individually charged its saturated or unsaturated duration — and invert
the piecewise-linear curve.  The case structure emerges; the closed
forms of §5.2.2 (see :mod:`repro.core.model.closedform`) agree with
this backend on the balanced family, which the test suite checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.model.brent import minimize_bounded
from repro.core.model.context import ModelContext
from repro.errors import ModelError
from repro.util.intmath import log_base


@dataclass(frozen=True)
class AdvancedSolution:
    """An optimized advanced-schedule operating point."""

    alpha: float  # CPU fraction of subproblems
    y: float  # level (from the top) the GPU reaches
    tc: float  # duration of the concurrent bottom phase
    gpu_work: float  # ops completed by the GPU in that phase
    gpu_share: float  # gpu_work / total sequential work
    saturated_at_y: bool  # was the GPU saturated when it stopped?


class AdvancedModel:
    """Evaluate T_c, y(α) and W_g(α) for one (algorithm, n, HPU)."""

    def __init__(self, ctx: ModelContext) -> None:
        self.ctx = ctx
        if not ctx.params.gpu_beats_cpu:
            raise ModelError(
                "the advanced analysis assumes γ·g > p (§3.2); got "
                f"γ·g = {ctx.params.gpu_throughput:.3g} <= p = {ctx.params.p}"
            )
        # Lazily-built per-context arrays (level tasks/cost in the
        # descending evaluation order, prefix sums of level work) plus
        # single-slot per-α caches: optimize() evaluates the curves at
        # hundreds of α values and solution_at() revisits the winning α
        # three times — all on identical inputs.
        self._desc = None
        self._tc_cache: Tuple[float, float] = (float("nan"), 0.0)
        self._curve_cache = (float("nan"), None, None)

    def _arrays(self):
        """(tasks, cost, work-prefix, 0..k) in descending-level order.

        Index ``m`` of the first two corresponds to level ``j = k-1-m``
        (the order both :meth:`tc` and :meth:`_gpu_curves` walk levels);
        ``acc[m]`` is the leaf work plus the work of the ``m`` highest
        levels, accumulated left to right exactly like the scalar loop
        (``np.cumsum`` adds sequentially, so the sums are bit-equal).
        """
        cached = self._desc
        if cached is None:
            ctx = self.ctx
            lt = np.array(ctx.level_tasks[::-1], dtype=float)
            lc = np.array(ctx.level_cost[::-1], dtype=float)
            work = np.empty(ctx.k + 1)
            work[0] = ctx.num_leaves * ctx.leaf_cost
            np.multiply(lt, lc, out=work[1:])
            cached = self._desc = (
                lt, lc, np.cumsum(work), np.arange(ctx.k + 1, dtype=float)
            )
        return cached

    # ------------------------------------------------------------------
    # CPU side
    # ------------------------------------------------------------------
    def alpha_min(self) -> float:
        """Smallest admissible α: the CPU must start with ≥ p leaves."""
        return min(1.0, self.ctx.params.p / self.ctx.num_leaves)

    def cpu_stop_level(self, alpha: float) -> float:
        """``L = log_a(p/α)``: where the CPU fraction narrows to p tasks."""
        self._check_alpha(alpha)
        level = log_base(self.ctx.params.p / alpha, self.ctx.a)
        return min(max(level, 0.0), float(self.ctx.k))

    def tc(self, alpha: float) -> float:
        """Time for the CPU to climb from the leaves to ``L`` (§5.2.1).

        ``(α/p) · (leaf work + Σ_{i≥L} a^i f(n/b^i))``, with the
        partial topmost level interpolated linearly.  Evaluated from
        the precomputed work prefix sums: the full levels ``k-1 .. ⌈L⌉``
        are ``acc[k - ⌈L⌉]`` (same additions, same order as the scalar
        descending loop), and the one partial level below contributes
        its ``⌈L⌉ - L`` fraction last — bit-equal to summing level by
        level.
        """
        self._check_alpha(alpha)
        cached = self._tc_cache
        if cached[0] == alpha:
            return cached[1]
        ctx = self.ctx
        L = self.cpu_stop_level(alpha)
        k = ctx.k
        lt, lc, acc, _ = self._arrays()
        ceil_L = math.ceil(L)
        total = acc[k - ceil_L]
        if ceil_L >= 1:
            # partial level j = ⌈L⌉ - 1 (index k - ⌈L⌉ in descending
            # order): fraction (j + 1 - L); zero when L is integral,
            # matching the scalar loop's explicit `work * 0.0` add.
            m = k - ceil_L
            total = total + lt[m] * lc[m] * (ceil_L - L)
        value = float(alpha * total / ctx.params.p)
        self._tc_cache = (alpha, value)
        return value

    # ------------------------------------------------------------------
    # GPU side
    # ------------------------------------------------------------------
    def _gpu_curves(self, alpha: float) -> Tuple[np.ndarray, np.ndarray]:
        """Cumulative bottom-up GPU (time, work) at integer stop levels.

        Returns arrays ``G`` and ``V`` of length ``k + 1`` where index
        ``j`` is the time/work for the GPU to execute the leaves plus
        all internal levels ``i >= j`` of its ``1 − α`` fraction.
        ``G[k]`` is the leaf batch alone; ``G[0]`` the whole subtree.
        """
        cached = self._curve_cache
        if cached[0] == alpha:
            return cached[1], cached[2]
        ctx = self.ctx
        share = 1.0 - alpha
        g, gamma = ctx.params.g, ctx.params.gamma
        k = ctx.k
        lt, lc, _, _ = self._arrays()  # descending order: j = k-1 .. 0
        leaf_tasks = share * ctx.num_leaves
        # Accumulate bottom-up (leaf term first, then levels k-1 .. 0,
        # the same per-term arithmetic and addition order as the scalar
        # recurrence) and flip, so index j reads ascending.
        gbuf = np.empty(k + 1)
        vbuf = np.empty(k + 1)
        gbuf[0] = max(leaf_tasks / g, 1.0) * ctx.leaf_cost / gamma
        vbuf[0] = leaf_tasks * ctx.leaf_cost
        tasks = share * lt
        gbuf[1:] = np.maximum(tasks / g, 1.0) * lc / gamma
        vbuf[1:] = tasks * lc
        G = np.cumsum(gbuf)[::-1]
        V = np.cumsum(vbuf)[::-1]
        self._curve_cache = (alpha, G, V)
        return G, V

    def solve_y(self, alpha: float) -> float:
        """The level the GPU reaches in time ``T_c(α)`` (solves Tg = Tc)."""
        self._check_alpha(alpha)
        target = self.tc(alpha)
        G, _ = self._gpu_curves(alpha)
        return self._invert_curve(G, target)

    def gpu_work(self, alpha: float) -> float:
        """``W_g(α)``: ops the GPU completes during the bottom phase."""
        self._check_alpha(alpha)
        target = self.tc(alpha)
        G, V = self._gpu_curves(alpha)
        k = self.ctx.k
        if target <= G[k]:
            # GPU cannot even finish its leaf batch in time; it completes
            # a proportional share of it.
            return V[k] * target / G[k]
        y = self._invert_curve(G, target)
        return float(np.interp(y, self._arrays()[3], V))

    def _works_on_grid(self, alphas: np.ndarray) -> np.ndarray:
        """:meth:`gpu_work` across a grid of α, batching the curves.

        The per-α curve construction is hoisted into one matrix pass:
        every element undergoes the exact elementwise operations of
        :meth:`_gpu_curves` and ``np.cumsum(axis=1)`` accumulates each
        row sequentially, so row ``i`` is bit-equal to
        ``_gpu_curves(alphas[i])``.  The inversion/interpolation tail
        reuses the scalar helpers on row views.  Callers guarantee every
        α is admissible (tc still validates).
        """
        ctx = self.ctx
        k = ctx.k
        g, gamma = ctx.params.g, ctx.params.gamma
        lt, lc, acc, _ = self._arrays()
        shares = 1.0 - alphas
        n = len(alphas)
        gbuf = np.empty((n, k + 1))
        vbuf = np.empty((n, k + 1))
        leaf_tasks = shares * ctx.num_leaves
        gbuf[:, 0] = np.maximum(leaf_tasks / g, 1.0) * ctx.leaf_cost / gamma
        vbuf[:, 0] = leaf_tasks * ctx.leaf_cost
        tasks = shares[:, None] * lt
        gbuf[:, 1:] = np.maximum(tasks / g, 1.0) * lc / gamma
        vbuf[:, 1:] = tasks * lc
        Gm = np.cumsum(gbuf, axis=1)[:, ::-1]
        Vm = np.cumsum(vbuf, axis=1)[:, ::-1]
        # T_c per α: the closed form of tc(), vectorized.  math.ceil
        # and np.ceil agree exactly on these levels; the partial term
        # keeps the scalar association (lt·lc)·(⌈L⌉ − L) and is added
        # last, and alphas·totals/p matches the scalar (α·total)/p.
        Ls = np.empty(n)
        for i in range(n):
            Ls[i] = self.cpu_stop_level(float(alphas[i]))
        ceils = np.ceil(Ls)
        idx = k - ceils.astype(np.int64)
        totals = acc[idx]
        partial = ceils >= 1.0
        pm = idx[partial]
        totals[partial] = (
            totals[partial] + lt[pm] * lc[pm] * (ceils[partial] - Ls[partial])
        )
        targets = alphas * totals / ctx.params.p
        works = np.empty(n)
        Gk = Gm[:, k]  # leaf-batch-only time, == gbuf[:, 0]
        leaf = targets <= Gk
        if leaf.any():
            works[leaf] = Vm[leaf, k] * targets[leaf] / Gk[leaf]
        rest = np.nonzero(~leaf)[0]
        if len(rest):
            Gr = Gm[rest]
            Vr = Vm[rest]
            tr = targets[rest]
            # _invert_curve, vectorized: on the strictly decreasing G
            # the bracketing segment index is the number of curve points
            # with G >= target minus one, clamped to [0, k-1] — exactly
            # what the scalar searchsorted computes.
            j = np.count_nonzero(Gr >= tr[:, None], axis=1) - 1
            np.clip(j, 0, k - 1, out=j)
            rows = np.arange(len(rest))
            g_hi = Gr[rows, j]
            g_lo = Gr[rows, j + 1]
            ys = j + (g_hi - tr) / (g_hi - g_lo)
            top = tr >= Gr[:, 0]
            if top.any():
                ys[top] = 0.0  # the scalar early-out for target >= G(0)
            # np.interp on xp = 0..k with unit spacing: slope is
            # ΔV / 1.0 (an exact identity division) and an exact grid
            # hit (frac == 0) reduces to V[j] since slope·0.0 adds +0.0.
            # targets in this branch exceed G[k], so ys < k strictly
            # and the right edge never triggers.
            jj = np.floor(ys).astype(np.int64)
            np.clip(jj, 0, k - 1, out=jj)
            frac = ys - jj
            v_lo = Vr[rows, jj]
            works[rest] = (Vr[rows, jj + 1] - v_lo) / 1.0 * frac + v_lo
        return works

    def saturated_at(self, alpha: float, y: float) -> bool:
        """Whether the GPU is saturated at (real) level ``y``."""
        level = min(int(math.floor(y)), self.ctx.k - 1)
        tasks = (1.0 - alpha) * self.ctx.level_tasks[max(level, 0)]
        return tasks >= self.ctx.params.g

    # ------------------------------------------------------------------
    def _invert_curve(self, G: np.ndarray, target: float) -> float:
        """Solve ``G(y) = target`` on the piecewise-linear decreasing G."""
        k = self.ctx.k
        if target >= G[0]:
            return 0.0
        if target <= G[k]:
            return float(k)
        # G is strictly decreasing in j; find the bracketing segment.
        j = int(np.searchsorted(-G, -target, side="right")) - 1
        j = min(max(j, 0), k - 1)
        g_hi, g_lo = G[j], G[j + 1]
        if g_hi == g_lo:  # pragma: no cover - levels always cost > 0
            return float(j)
        frac = (g_hi - target) / (g_hi - g_lo)
        return float(j + frac)

    def _check_alpha(self, alpha: float) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ModelError(f"alpha must be in (0, 1], got {alpha!r}")
        if alpha < self.alpha_min() - 1e-12:
            raise ModelError(
                f"alpha={alpha!r} leaves the CPU fewer than p="
                f"{self.ctx.params.p} leaf tasks (alpha_min="
                f"{self.alpha_min():.3g})"
            )

    # ------------------------------------------------------------------
    # optimization (§5.2.1: maximize W_g over α)
    # ------------------------------------------------------------------
    def optimize(self, grid: int = 512) -> AdvancedSolution:
        """Find ``α*`` maximizing the GPU work ``W_g(α)``.

        A dense deterministic grid scan locates the basin (W_g is
        piecewise smooth but kinked where the active saturation case
        changes), then the in-tree bounded Brent minimizer
        (:func:`repro.core.model.brent.minimize_bounded`, a float-exact
        port of SciPy's ``minimize_scalar(method="bounded")``) polishes
        it within the two neighbouring grid cells.
        """
        lo = self.alpha_min()
        hi = 1.0
        if lo >= hi:
            # Degenerate: fewer leaves than CPU cores; nothing to offload.
            return self.solution_at(1.0)
        alphas = np.linspace(lo, hi, grid)
        works = self._works_on_grid(alphas)
        best = int(works.argmax())
        bracket_lo = alphas[max(best - 1, 0)]
        bracket_hi = alphas[min(best + 1, grid - 1)]
        x, fx = minimize_bounded(
            lambda al: -self.gpu_work(float(al)),
            bracket_lo,
            bracket_hi,
            xatol=1e-6,
        )
        alpha_star = float(x)
        if -fx < works[best]:  # polish made it worse: keep grid point
            alpha_star = float(alphas[best])
        return self.solution_at(alpha_star)

    def solution_at(self, alpha: float) -> AdvancedSolution:
        """Assemble the full solution record at a given α."""
        y = self.solve_y(alpha)
        wg = self.gpu_work(alpha)
        return AdvancedSolution(
            alpha=alpha,
            y=y,
            tc=self.tc(alpha),
            gpu_work=wg,
            gpu_share=wg / self.ctx.total_work(),
            saturated_at_y=self.saturated_at(alpha, y),
        )

    # ------------------------------------------------------------------
    # sweep helpers (Figure 3)
    # ------------------------------------------------------------------
    def sweep(self, alphas: List[float]) -> List[AdvancedSolution]:
        """Evaluate the model across a list of α values."""
        return [self.solution_at(float(al)) for al in alphas]
