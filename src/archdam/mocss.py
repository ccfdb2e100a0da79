"""Multi-objective charged system search.

Charged particles (candidate designs) move under rank-gated Coulomb-like
attraction; the mutually non-dominated designs found along the way are
kept in a bounded charged memory (CM) pruned by objective-space crowding.
The optimizer works in per-variable normalized [0, 1] coordinates;
positions are denormalized only for evaluation.

Loop structure per iteration:
  1. competition: the worst-ranked CPs are reseeded near uniformly drawn
     CM members, jittered per variable by the decaying repair bandwidth
     (INFEASIBLE_JITTER while nothing feasible is known) so coincident
     particles (which exert no force on each other) cannot freeze the
     population (classic CSS elitism; replace_fraction 0 disables it),
  2. charges from the current population's per-objective best/worst,
  3. pairwise forces, attraction gated by constrained Pareto rank (ties
     attract with probability 1/2) and sign-flipped to repulsion with
     probability 1 - attraction_prob,
  4. movement, ka rising and kv falling over the run (Kaveh & Talatahari 2010),
  5. per-variable harmony repair of out-of-bounds entries: with
     probability cmcr copy the variable from a random CM member, then
     with probability par step it toward the same variable of a random
     rank-1 CP (step capped by a bandwidth decaying to PAR_STEP_MIN);
     otherwise redraw uniformly.
  6. evaluation, re-ranking, and CM update with crowding-based deletion
     that never removes a per-objective extreme member.

The CM is never empty, so steps 1 and 5 always have members to draw
from: the first CM is the update of an empty one by the n >= 2 initial
CPs, every update keeps the rank-1 rows of a non-empty union, and the
prune stops at archive_capacity >= 1.

Bookkeeping: ranking, the CM update and the prune run every iteration,
so each avoids quadratic rework, and per-row Python where an array pass
gives the same bits. pareto_rank handles exactly two objectives: it
sorts the feasible rows into fronts in one sweep in (f1, f2) order, with
a bisection over the fronts per row, O(n log n) in all (Jensen 2003).
The CM update takes only the first front, a running minimum in that
order, compares designs only among its rows that share an objective row,
and passes that order on. On the first front the weighted rows form a
chain whose closest pairs are adjacent, so the prune deletes off one
heap of adjacent gaps, each deletion pushing the one gap it opens. The
log sums the hypervolume's slabs over the CM in the order the prune
returns, without sorting it again. The force step takes its distances
from the Gram matrix and its sums from one matrix product, and computes
the inverse-square branch only when some pair lies outside the radius.

Randomness: a single seeded numpy Generator, consumed in a fixed order
each iteration - replacement member picks and their jitter, the
attraction-sign matrix, the rank-tie coin flips, the two per-CP movement
factors, then six repair blocks with one draw per out-of-bounds entry
each, entries in row-major (particle, variable) order: the fresh uniform
value, the CM-copy coin, the CM member index, the pitch-adjust coin, the
rank-1 CP index and the step fraction. The number of repair draws
depends on how many entries violated, not on which. Identical seeds
reproduce identical runs only with identical inputs, which is the
determinism contract.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import NamedTuple

import numpy as np

from .config import MocssConfig

__all__ = ["MocssConfig", "MocssResult", "NonFiniteError", "pareto_rank", "run_mocss"]


PAR_STEP_MIN = 1e-4  # the floor of the repair bandwidth, in normalized coordinates
INFEASIBLE_JITTER = 0.1  # the reseeding jitter while no feasible design is known


class NonFiniteError(ValueError):
    """An objective or violation handed to the ranking is not finite."""


class MocssResult(NamedTuple):
    """The final CM of a run: its designs in physical units, their
    objectives and violations, one progress-log entry per iteration
    (iteration 0 first) and the number of evaluations made."""

    positions: np.ndarray
    objectives: np.ndarray
    violations: np.ndarray
    log: list
    n_evaluations: int


def _front_ranks(F: np.ndarray) -> np.ndarray:
    """Plain Pareto front index per row of an (n, 2) array (minimization),
    by one sweep in (f1, f2) order (Jensen 2003).

    Every row that dominates a row comes before it in the sweep. Within a
    front, f2 falls as f1 rises, so the front's last member holds its
    smallest f2 and dominates a row exactly when some member does: when
    its (f2, f1) is lexicographically smaller. Those keys increase from
    front to front, so a row joins the first front whose key is not
    smaller than its own, found by bisection, or opens a new one;
    identical rows share a front.
    """
    order = np.lexsort((F[:, 1], F[:, 0]))
    last = []  # (f2, f1) of each front's last member
    swept = []
    for key in zip(F[order, 1].tolist(), F[order, 0].tolist()):
        k = bisect_left(last, key)
        if k == len(last):
            last.append(key)
        else:
            last[k] = key
        swept.append(k + 1)
    ranks = np.empty(len(F), dtype=int)
    ranks[order] = swept
    return ranks


def pareto_rank(F: np.ndarray, violations=None) -> np.ndarray:
    """Constrained non-dominated front index per row, 1 = non-dominated.

    Feasible rows dominate infeasible ones; among infeasible rows, lower
    total violation dominates; among feasible rows, plain Pareto
    dominance on the two objective values (minimization). So the feasible
    rows take the first fronts, and each distinct violation value is one
    further front. Raises NonFiniteError on a non-finite objective or
    violation, and ValueError on any number of objective columns other
    than two.
    """
    F = np.atleast_2d(np.asarray(F, dtype=float))
    if F.shape[1] != 2:
        raise ValueError(f"pareto_rank: needs two objective columns, got {F.shape[1]}")
    n = len(F)
    viol = np.zeros(n) if violations is None else np.asarray(violations, dtype=float)
    bad = ~(np.isfinite(F[:, 0]) & np.isfinite(F[:, 1]) & np.isfinite(viol))
    if bad.any():
        raise NonFiniteError(f"pareto_rank: row {int(np.argmax(bad))} has a non-finite "
                             "objective or violation")
    feas = viol == 0.0
    if feas.all():
        return _front_ranks(F)
    ranks = np.zeros(n, dtype=int)
    ranks[feas] = _front_ranks(F[feas])
    _, level = np.unique(viol[~feas], return_inverse=True)
    ranks[~feas] = ranks.max(initial=0) + 1 + level
    return ranks


def _prune_archive(X, F, viol, capacity, order):
    """Drop closest pairs in weighted objective space (two objectives, as
    pareto_rank requires) until within capacity, never deleting a
    per-objective extreme member (the first row of each minimum). Of the
    closest pairs, the one whose lower row index is least, then the
    higher, is broken: its higher row goes unless it is an extreme.
    order is the (f1, f2) order of the rows passed in (row indices);
    returns the kept rows, then their objective rows in that order.

    In that order the first weighted coordinate is monotone. Where the
    second is too (the first front), the rows form a chain along which
    distance, even as rounded, only grows outward: a closest pair is
    adjacent, or spans a run of adjacent gaps all equal to the least.
    Deletions then come off one heap of adjacent gaps keyed (distance,
    lower row, higher row); each pushes the gap it opens, and an entry
    whose rows are no longer adjacent is stale. Only while another gap
    equals the least does the popped row look further out for a partner
    of lower index. Other sets take the least entry of the alive rows'
    distance matrix, row-major.
    """
    n = len(F)
    if n <= capacity:
        return X, F, viol, F[order]
    # the objectives weighted 1 and worst f2 / worst f1
    worst1, worst2 = F.max(axis=0).tolist()
    W = F * [1.0, worst2 / worst1 if worst1 != 0.0 else 1.0]
    Wo = W[order]
    step = Wo[1:] - Wo[:-1]
    keep = np.ones(n, dtype=bool)
    if (step[:, 1] <= 0.0).all() or (step[:, 1] >= 0.0).all():
        import heapq  # here, so that runs whose CM stays within capacity never load it

        step *= step
        gap = np.sqrt(step[:, 0] + step[:, 1]).tolist()
        # each row's neighbours along the chain; row n stands for the far
        # side of either end
        nxt, prv = [n] * (n + 1), [n] * (n + 1)
        heap = []
        o = order.tolist()
        for a, b, g in zip(o, o[1:], gap):
            nxt[a], prv[b] = b, a
            heap.append((g, a, b) if a < b else (g, b, a))
        heapq.heapify(heap)
        w0, w1 = W.T.tolist()

        def dist(a, b):
            dx, dy = w0[a] - w0[b], w1[a] - w1[b]
            return math.sqrt(dx * dx + dy * dy)

        def pair():
            d, i, j = heapq.heappop(heap)
            while nxt[i] != j and nxt[j] != i:
                d, i, j = heapq.heappop(heap)
            if heap and heap[0][0] == d:  # another gap is d: i may have partners further out
                top = d, i, j
                for link in (nxt, prv):
                    p = link[i]
                    while p < n and dist(i, p) == d:
                        j, p = min(j, p), link[p]
                if j != top[2]:  # the popped pair stays
                    heapq.heappush(heap, top)
            return i, j

        def drop(k):
            p, s = prv[k], nxt[k]
            nxt[p], prv[s], nxt[k], prv[k] = s, p, -1, -1
            if p < n and s < n:
                heapq.heappush(heap, (dist(p, s), min(p, s), max(p, s)))
    else:
        D = W[:, None] - W[None]
        D *= D
        D = np.sqrt(D[..., 0] + D[..., 1])
        np.fill_diagonal(D, math.inf)

        def pair():
            sub = np.flatnonzero(keep)
            return sub[list(divmod(int(D[np.ix_(sub, sub)].argmin()), len(sub)))].tolist()

        def drop(k):
            pass

    extremes = set(F.argmin(axis=0).tolist())
    for _ in range(n - capacity):
        i, j = pair()
        kill = j if j not in extremes else (i if i not in extremes else j)
        keep[kill] = False
        drop(kill)
        if kill in extremes:
            sub = np.flatnonzero(keep)
            extremes = set(sub[F[sub].argmin(axis=0)].tolist())
    return X[keep], F[keep], viol[keep], F[order[keep[order]]]


def _slab_sum(pts: np.ndarray, ref) -> float:
    """Area dominated by the rows of pts inside the corner ref, rows in
    (f1, f2) order with f2 never rising: a slab per row from its f1 to the
    next (a repeated row's is 0 wide) or the corner's, summed strictly left
    to right by cumsum, independent of numpy's pairwise sum."""
    pts = pts[(pts[:, 0] < ref[0]) & (pts[:, 1] < ref[1])]
    if len(pts) == 0:
        return 0.0
    right = np.append(pts[1:, 0], ref[0])
    terms = (right - pts[:, 0]) * (ref[1] - pts[:, 1])
    return float(np.cumsum(terms)[-1])


def _first_front(F, V):
    """The rows with pareto_rank(F, V) == 1, as indices in (f1, f2) order:
    the rows of least violation if none is feasible, else each feasible
    row whose f2 lies below every f2 before it, or whose identical
    predecessor is kept."""
    feas = V == 0.0
    if not feas.any():
        idx = np.flatnonzero(V == V.min())
        return idx[np.lexsort((F[idx, 1], F[idx, 0]))]
    idx = np.flatnonzero(feas)
    idx = idx[np.lexsort((F[idx, 1], F[idx, 0]))]
    f1, f2 = F[idx].T
    keep = np.empty(len(idx), dtype=bool)
    keep[0] = True
    np.less(f2[1:], np.minimum.accumulate(f2)[:-1], out=keep[1:])
    same = (f1[1:] == f1[:-1]) & (f2[1:] == f2[:-1])
    if same.any():  # a repeated row takes the verdict of the first of its run
        starts = np.concatenate(([True], ~same))
        keep = keep[np.flatnonzero(starts)[np.cumsum(starts) - 1]]
    return idx[keep]


def _archive_update(aX, aF, aV, cX, cF, cV, capacity):
    """The CM after adding the candidates: the first front of the union,
    each repeated design once (its first occurrence), pruned to capacity;
    with its (f1, f2) order, as _prune_archive returns it.

    Exact duplicates add nothing and would flood the archive once the
    competition step starts cloning members back into the population.
    A repeated design carries the same objective row and violation, since
    run_mocss evaluates lo + X * span row by row, so all its copies are
    on the first front or none is, and only kept rows that share (f1, f2)
    with another kept row need their design compared. Those are keyed on
    their bytes (+ 0.0 makes -0.0 equal to 0.0).
    """
    X = np.concatenate((aX, cX))
    F = np.concatenate((aF, cF))
    V = np.concatenate((aV, cV))
    idx = _first_front(F, V)
    keep = np.zeros(len(F), dtype=bool)
    keep[idx] = True
    f1, f2 = F[idx, 0], F[idx, 1]
    tie = (f1[1:] == f1[:-1]) & (f2[1:] == f2[:-1])
    if tie.any():
        tied = np.zeros(len(F), dtype=bool)
        tied[idx[1:][tie]] = tied[idx[:-1][tie]] = True
        rows = X[tied] + 0.0
        keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
        _, first = np.unique(keys, return_index=True)
        keep &= ~tied
        keep[np.flatnonzero(tied)[first]] = True
        idx = idx[keep[idx]]
    order = (np.cumsum(keep) - 1)[idx]
    return _prune_archive(X[keep], F[keep], V[keep], capacity, order)


def _forces(X, q, gate, radius):
    """Resultant force on each CP: force_j = sum_i gate[j, i] * mag_ji *
    (X_i - X_j), with mag_ji = q_i r_ji / a^3 inside the radius a and
    q_i / r_ji^2 outside it.

    Distances come from the Gram matrix and the sum from one matrix
    product, so no (n, n, d) array is built. A coincident pair's distance
    comes out 0 or at the Gram rounding floor (about 1e-8 |X|), where the
    linear branch scales its pull down to rounding noise; the radius must
    stay well above that floor. The linear branch is computed everywhere,
    and the inverse-square one only where some pair lies outside the
    radius and only at those pairs, so it never divides by zero.
    """
    w = X @ X.T  # the Gram matrix, then the weights mag * gate in place
    r = np.add.outer(w.diagonal(), w.diagonal())
    r -= np.multiply(w, 2.0, out=w)
    np.sqrt(np.maximum(r, 0.0, out=r), out=r)
    np.multiply(q, r, out=w)
    w /= radius**3
    if r.max() >= radius:  # the inverse-square branch, at the pairs outside only
        far = r >= radius
        np.divide(q, np.square(r, out=r), out=w, where=far)
    w *= gate
    return w @ X - w.sum(axis=1)[:, None] * X


def _repair(X, members, leaders, bw, cmcr, par, rng):
    """Harmony repair of the entries of X outside [0, 1], in place.

    Each such entry, with probability cmcr, copies its variable from a
    random CM member and then, with probability par, steps toward the same
    variable of a random leader (rank-1 CP) by at most bw times a uniform
    fraction, clipped to [0, 1]; otherwise it is redrawn uniformly. Six
    blocks of one draw per entry (row-major order) are taken in a fixed
    order, used or not, so the draws depend only on how many entries
    violated.
    """
    rows, cols = np.nonzero((X < 0.0) | (X > 1.0))
    m = len(rows)
    fresh = rng.random(m)
    copy = rng.random(m) < cmcr
    v = members[rng.integers(len(members), size=m), cols]
    adjust = rng.random(m) < par
    target = leaders[rng.integers(len(leaders), size=m), cols]
    lim = bw * rng.random(m)
    v = np.where(adjust, v + np.clip(target - v, -lim, lim), v)
    X[rows, cols] = np.where(copy, np.clip(v, 0.0, 1.0), fresh)


def run_mocss(problem, config: MocssConfig, hook=None, hv_reference=None) -> MocssResult:
    """Run the optimizer against any problem exposing bounds and
    evaluate_batch(X) -> (objectives, violations).

    hook, when given, is called as hook(iteration, objectives, violations)
    with the archive state after every iteration. hv_reference overrides
    the problem's hypervolume corner for the progress log.
    """
    lo, hi = problem.bounds
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    d = len(lo)
    span = hi - lo
    if hv_reference is None:
        hv_reference = getattr(problem, "hv_reference", None)
    ref = None if hv_reference is None else np.asarray(hv_reference, dtype=float)

    rng = np.random.default_rng(config.seed)
    n = config.n_cps
    cap = config.archive_capacity

    X = rng.random((n, d))
    V = np.zeros((n, d))
    F, viol = problem.evaluate_batch(lo + X * span)
    n_evals = n
    ranks = pareto_rank(F, viol)
    aX, aF, aV, aFo = _archive_update(X[:0], F[:0], viol[:0], X, F, viol, cap)

    log = []

    def _record(it):
        entry = {"iter": it, "archive_size": len(aF)}
        if aV[0] == 0.0:  # a first front: all of the CM is feasible or none is
            entry["fit1_min"] = float(aF[:, 0].min())
            entry["fit2_min"] = float(aF[:, 1].min())
            entry["hypervolume"] = None if ref is None else _slab_sum(aFo, ref)
        else:
            entry["fit1_min"] = entry["fit2_min"] = entry["hypervolume"] = None
        log.append(entry)
        if hook is not None:
            hook(it, aF.copy(), aV.copy())

    _record(0)

    for it in range(1, config.iterations + 1):
        t = it / config.iterations
        ka = 0.5 * config.ka * (1.0 + t)
        kv = 0.5 * config.kv * (1.0 - t)
        bw = config.par_step0 * (1.0 - t) + PAR_STEP_MIN

        # competition step: worst-ranked CPs are reseeded near CM members.
        # While the memory holds no feasible design the search is global:
        # the jitter stays wide and twice as many CPs are reseeded. Once
        # feasibility is found the jitter drops to the decaying repair
        # bandwidth, so the front densifies by small feasible steps.
        feasible_found = (aV == 0.0).any()
        n_rep = int(config.replace_fraction * n)
        if not feasible_found:
            n_rep = min(n, 2 * n_rep)
        if n_rep > 0:
            scale = bw if feasible_found else INFEASIBLE_JITTER
            worst = np.argsort(-ranks, kind="stable")[:n_rep]
            pick = rng.integers(len(aX), size=n_rep)
            jitter = rng.uniform(-scale, scale, size=(n_rep, d))
            X[worst] = np.clip(aX[pick] + jitter, 0.0, 1.0)
            V[worst] = 0.0
            F[worst], viol[worst] = problem.evaluate_batch(lo + X[worst] * span)
            n_evals += n_rep
            ranks = pareto_rank(F, viol)

        # charges: product of per-objective normalized qualities
        q = np.ones(n)
        for f, best, worst_v in zip(F.T, F.min(axis=0), F.max(axis=0)):
            if worst_v != best:
                q *= (f - worst_v) / (best - worst_v)

        pos = rng.random((n, n)) < config.attraction_prob
        ties = rng.random((n, n)) < 0.5
        attract = (ranks[None, :] < ranks[:, None]) | ((ranks[None, :] == ranks[:, None]) & ties)
        np.fill_diagonal(attract, False)
        gate = np.subtract(attract & pos, attract & ~pos, dtype=float)
        force = _forces(X, q, gate, config.radius)

        rnd1 = rng.random(n)[:, None]
        rnd2 = rng.random(n)[:, None]
        X_new = rnd1 * ka * force + rnd2 * kv * V + X
        _repair(X_new, aX, X[ranks == 1], bw, config.cmcr, config.par, rng)

        V = X_new - X
        X = X_new
        F, viol = problem.evaluate_batch(lo + X * span)
        n_evals += n
        ranks = pareto_rank(F, viol)

        first = ranks == 1
        aX, aF, aV, aFo = _archive_update(aX, aF, aV, X[first], F[first], viol[first], cap)
        _record(it)

    return MocssResult(
        positions=lo + aX * span,
        objectives=aF.copy(),
        violations=aV.copy(),
        log=log,
        n_evaluations=n_evals,
    )
