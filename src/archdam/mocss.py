"""Multi-objective charged system search.

Charged particles (candidate designs) move under rank-gated Coulomb-like
attraction; the mutually non-dominated designs found along the way are
kept in a bounded charged memory (CM) pruned by objective-space crowding.
The optimizer works in per-variable normalized [0, 1] coordinates;
positions are denormalized only for evaluation.

Loop structure per iteration:
  1. competition: the worst-ranked CPs are reseeded near uniformly drawn
     CM members, jittered per variable by the decaying repair bandwidth
     so coincident particles (which exert no force on each other) cannot
     freeze the population (classic CSS elitism; replace_fraction 0
     disables it),
  2. charges from the current population's per-objective best/worst,
  3. pairwise forces, attraction gated by constrained Pareto rank (ties
     attract with probability 1/2) and sign-flipped to repulsion with
     probability 1 - attraction_prob,
  4. movement with scheduled acceleration/velocity coefficients,
  5. per-variable harmony repair of out-of-bounds entries: with
     probability cmcr copy the variable from a random CM member, then
     with probability par step it toward the same variable of a random
     rank-1 CP (step capped by a decaying bandwidth); otherwise redraw
     uniformly.
  6. evaluation, re-ranking, and CM update with crowding-based deletion
     that never removes a per-objective extreme member.

The CM is never empty, so steps 1 and 5 always have members to draw
from: the initial front of n >= 2 CPs is non-empty, every update keeps
the rank-1 rows of a non-empty union, and the prune stops at
archive_capacity >= 1.

Bookkeeping: ranking, the CM update and the prune run every iteration,
so each avoids quadratic rework, and per-row Python where an array pass
gives the same bits. pareto_rank handles exactly two objectives: it
sorts the feasible rows into fronts in one sweep in (f1, f2) order, with
a bisection over the fronts per row, O(n log n) in all (Jensen 2003).
The CM update takes only the first front, a running minimum in that
order, and compares designs only among its rows that share an objective
row. The CM prune keeps each row's nearest neighbour along a linked list
in weighted-objective order: on a mutually non-dominated set one
vectorised pass over the gaps between adjacent rows finds it, and a walk
settles rows with equal gaps. Deletions come off a heap, and each
rescans only the rows whose neighbour it removed, found through reverse
pointers. The force step takes its distances from the Gram matrix and
its sums from one matrix product, and computes the inverse-square branch
only when some pair lies outside the radius.

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
from dataclasses import dataclass

import numpy as np

__all__ = ["MocssConfig", "MocssResult", "NonFiniteError", "pareto_rank", "run_mocss"]


class NonFiniteError(ValueError):
    """An objective or violation handed to the ranking is not finite."""


@dataclass
class MocssConfig:
    n_cps: int = 100
    iterations: int = 200
    archive_capacity: int = 100
    ka: float = 2.0
    kv: float = 2.0
    schedule: bool = True  # False uses ka/kv as plain constants
    radius: float = 1.0
    alpha: float = 1.0
    cmcr: float = 0.98
    par: float = 0.5
    par_step0: float = 0.02
    par_step_min: float = 1e-4
    attraction_prob: float = 0.8
    replace_fraction: float = 0.3
    infeasible_jitter: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.n_cps < 2:
            raise ValueError("need at least two charged particles")
        if self.iterations < 0:
            raise ValueError("iterations must be non-negative")
        if self.archive_capacity < 1:
            raise ValueError("archive capacity must be positive")
        if not 0.0 <= self.cmcr <= 1.0 or not 0.0 <= self.par <= 1.0:
            raise ValueError("cmcr and par must lie in [0, 1]")
        if self.radius <= 0:
            raise ValueError("interaction radius must be positive")
        if not 0.0 <= self.replace_fraction <= 1.0:
            raise ValueError("replace_fraction must lie in [0, 1]")


@dataclass
class MocssResult:
    positions: np.ndarray  # archive member designs, physical units
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


def _deletion_weights(F: np.ndarray, alpha: float) -> np.ndarray:
    """Per-objective weights for the crowding distance: u_1 = alpha and
    u_k = u_{k-1} * fitworst_k / fitworst_{k-1} over the current union."""
    worst = F.max(axis=0)
    u = np.empty(F.shape[1])
    u[0] = alpha
    for k in range(1, len(u)):
        u[k] = u[k - 1] * (worst[k] / worst[k - 1]) if worst[k - 1] != 0.0 else u[k - 1]
    return u


def _extremes(F, alive):
    """First alive row index of each per-objective minimum."""
    sub = np.flatnonzero(alive)
    return {int(sub[F[sub, k].argmin()]) for k in range(F.shape[1])}


def _prune_archive(X, F, viol, capacity, alpha):
    """Drop closest pairs in weighted objective space (two objectives, as
    pareto_rank requires) until within capacity, never deleting a
    per-objective extreme member.

    Each row keeps its nearest alive neighbour (the lowest index on ties)
    and that distance; the pair to break is the first row with the least
    such distance and its neighbour. A search walks outward both ways
    along the rows linked in (w0, w1) order. Where w1 is monotone in that
    order (any mutually non-dominated set), distance only grows outward,
    so it stops at the first farther row; elsewhere, once sqrt(dx * dx)
    alone exceeds the best. On a monotone set the first search of each
    row is one vectorised pass over the gaps between adjacent rows: the
    nearer of its two adjacent rows, unless the row two out on a side is
    no farther than the adjacent one, where the walk decides. Deletions
    come off a heap keyed (distance, row), whose stale entries are
    skipped; a deletion unlinks its row and rescans only the rows whose
    neighbour it was.
    """
    n = len(F)
    if n <= capacity:
        return X, F, viol
    import heapq  # here, so that runs whose CM stays within capacity never load it

    W = F * _deletion_weights(F, alpha)
    order = np.lexsort((W[:, 1], W[:, 0]))
    Wo = W[order]
    step = np.diff(Wo[:, 1])
    monotone = bool((step <= 0.0).all() or (step >= 0.0).all())
    w0, w1, row = W[:, 0].tolist(), W[:, 1].tolist(), order.tolist()
    pos = np.argsort(order).tolist()
    prev, succ = [n, *range(n - 1), n], [*range(1, n + 1), n]  # slot n: either end

    def nearest(i):
        best, near = math.inf, n
        for link in (prev, succ):
            p = link[pos[i]]
            while p < n:
                j = row[p]
                dx, dy = w0[i] - w0[j], w1[i] - w1[j]
                d = math.sqrt(dx * dx + dy * dy)
                if d < best or (d == best and j < near):
                    best, near = d, j
                elif (d if monotone else math.sqrt(dx * dx)) > best:
                    break
                p = link[p]
        return best, near

    if monotone:
        # the walk's distances from each position in (w0, w1) order to
        # the rows one and two places on, with an infinite gap at each end
        gap = np.full(n + 1, math.inf)
        gap[1:n] = _distances(Wo[1:], Wo[:-1])
        two = _distances(Wo[2:], Wo[:-2])
        side = np.full(n + 2, n)
        side[1:-1] = order
        left, right, jl, jr = gap[:-1], gap[1:], side[:-2], side[2:]
        take = (right < left) | ((right == left) & (jr < jl))
        nd, nn = np.empty(n), np.empty(n, dtype=np.intp)
        nd[order] = np.where(take, right, left)
        nn[order] = np.where(take, jr, jl)
        nd, nn = nd.tolist(), nn.tolist()
        walk = np.zeros(n, dtype=bool)
        walk[2:] = two == left[2:]
        walk[:-2] |= two == right[:-2]
        for i in order[walk].tolist():
            nd[i], nn[i] = nearest(i)
    else:
        nd, nn = map(list, zip(*map(nearest, range(n))))

    # each alive row's current heap entry; an entry popped that is not its
    # row's current one is stale
    entry = list(zip(nd, range(n)))
    heap = entry.copy()
    heapq.heapify(heap)
    watchers = [[] for _ in range(n + 1)]  # the rows whose nearest neighbour each row is
    for s, j in enumerate(nn):
        watchers[j].append(s)
    alive = [True] * n
    extremes = _extremes(F, alive)
    for _ in range(n - capacity):
        top = heapq.heappop(heap)
        while top is not entry[top[1]]:
            top = heapq.heappop(heap)
        i = top[1]
        j = nn[i]
        kill = j if j not in extremes else (i if i not in extremes else j)
        alive[kill], entry[kill] = False, None
        p = pos[kill]
        succ[prev[p]], prev[succ[p]] = succ[p], prev[p]
        for s in watchers[kill]:
            if nn[s] == kill and alive[s]:
                d, nn[s] = nearest(s)
                watchers[nn[s]].append(s)
                entry[s] = (d, s)
                heapq.heappush(heap, entry[s])
        if kill in extremes:
            extremes = _extremes(F, alive)
    alive = np.array(alive)
    return X[alive], F[alive], viol[alive]


def _distances(A, B):
    """Row-wise sqrt(dx * dx + dy * dy) of two (m, 2) arrays, rounded as
    math.sqrt rounds it on Python floats."""
    dx, dy = A[:, 0] - B[:, 0], A[:, 1] - B[:, 1]
    return np.sqrt(dx * dx + dy * dy)


def _first_front(F, V):
    """pareto_rank(F, V) == 1 alone: the rows of least violation if none is
    feasible, else each feasible row whose f2 lies below every f2 before
    it in (f1, f2) order, or whose identical predecessor is kept."""
    feas = V == 0.0
    if not feas.any():
        return V == V.min()
    idx = np.flatnonzero(feas)[np.lexsort((F[feas, 1], F[feas, 0]))]
    f1, f2 = F[idx, 0], F[idx, 1]
    before = np.minimum.accumulate(np.concatenate(([np.inf], f2[:-1])))
    starts = np.concatenate(([True], (f1[1:] != f1[:-1]) | (f2[1:] != f2[:-1])))
    keep = np.zeros(len(F), dtype=bool)
    keep[idx] = (f2 < before)[np.flatnonzero(starts)[np.cumsum(starts) - 1]]
    return keep


def _archive_update(aX, aF, aV, cX, cF, cV, capacity, alpha):
    """The CM after adding the candidates: the first front of the union,
    each repeated design once (its first occurrence), pruned to capacity.

    Exact duplicates add nothing and would flood the archive once the
    competition step starts cloning members back into the population.
    A repeated design carries the same objective row and violation, since
    run_mocss evaluates lo + X * span row by row, so all its copies are
    on the first front or none is, and only kept rows that share (f1, f2)
    with another kept row need their design compared. Those are keyed on
    their bytes (+ 0.0 makes -0.0 equal to 0.0).
    """
    X = np.vstack([aX, cX])
    F = np.vstack([aF, cF])
    V = np.concatenate([aV, cV])
    keep = _first_front(F, V)
    X, F, V = X[keep], F[keep], V[keep]
    order = np.lexsort((F[:, 1], F[:, 0]))
    f1, f2 = F[order, 0], F[order, 1]
    tie = (f1[1:] == f1[:-1]) & (f2[1:] == f2[:-1])
    if tie.any():
        tied = np.zeros(len(F), dtype=bool)
        tied[order[1:][tie]] = tied[order[:-1][tie]] = True
        rows = X[tied] + 0.0
        keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
        _, first = np.unique(keys, return_index=True)
        keep = ~tied
        keep[np.flatnonzero(tied)[first]] = True
        X, F, V = X[keep], F[keep], V[keep]
    return _prune_archive(X, F, V, capacity, alpha)


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
    from .benchmarks import hypervolume2d

    lo, hi = problem.bounds
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    d = len(lo)
    span = hi - lo
    if hv_reference is None:
        hv_reference = getattr(problem, "hv_reference", None)

    rng = np.random.default_rng(config.seed)
    n = config.n_cps
    cap = config.archive_capacity

    X = rng.random((n, d))
    V = np.zeros((n, d))
    F, viol = problem.evaluate_batch(lo + X * span)
    n_evals = n
    ranks = pareto_rank(F, viol)

    first = ranks == 1
    aX, aF, aV = _prune_archive(
        X[first].copy(), F[first].copy(), viol[first].copy(), cap, config.alpha
    )

    log = []

    def _record(it):
        feas = aV == 0.0
        entry = {"iter": it, "archive_size": int(len(aF))}
        if feas.any():
            entry["fit1_min"] = float(aF[feas, 0].min())
            entry["fit2_min"] = float(aF[feas, 1].min())
            if hv_reference is not None:
                entry["hypervolume"] = hypervolume2d(aF[feas], hv_reference, strict=False)
            else:
                entry["hypervolume"] = None
        else:
            entry["fit1_min"] = None
            entry["fit2_min"] = None
            entry["hypervolume"] = None
        log.append(entry)
        if hook is not None:
            hook(it, aF.copy(), aV.copy())

    _record(0)

    for it in range(1, config.iterations + 1):
        t = it / config.iterations
        ka = 0.5 * config.ka * (1.0 + t) if config.schedule else config.ka
        kv = 0.5 * config.kv * (1.0 - t) if config.schedule else config.kv
        bw = config.par_step0 * (1.0 - t) + config.par_step_min

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
            scale = bw if feasible_found else config.infeasible_jitter
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
        for k in range(F.shape[1]):
            best, worst_v = F[:, k].min(), F[:, k].max()
            if worst_v != best:
                q *= (F[:, k] - worst_v) / (best - worst_v)

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
        aX, aF, aV = _archive_update(
            aX, aF, aV, X[first], F[first], viol[first], cap, config.alpha
        )
        _record(it)

    return MocssResult(
        positions=lo + aX * span,
        objectives=aF.copy(),
        violations=aV.copy(),
        log=log,
        n_evaluations=n_evals,
    )
