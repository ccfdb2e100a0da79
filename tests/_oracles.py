"""Independent reference implementations used to check shipped numerics.

Everything here is deliberately slow and literal: brute-force dominance
ranks, the archive prune that rescans every alive pair per deletion,
the pairwise force sum over explicit difference vectors and the force
step with one masked pass per branch, grid-sum and loop hypervolume,
Monte Carlo volume, the tensor-product Gauss-Legendre volume rule and
the volume by Simpson's rule across the valley, the closed-form
calibration stress states for the failure criterion, the Lagrange basis
in product form, the exact rational Lagrange interpolant with its slope,
the barycentric interpolant for one design, the stress grid's rows one
at a time, the dam evaluator one design at a time, the four-pass
criterion (one masked pass per stress domain) with its meridian
polynomials, and the scalar forms of the criterion (sorting, domain,
margin) and of the tournament (one duel, one win ratio).
"""

import math
from fractions import Fraction

import numpy as np

from archdam.mtdm import UndefinedSetError
from archdam.stress_model import GRAVITY
from archdam.willam_warnke import EvaluationError, criterion_values, hydrostatic_validity


def brute_force_rank(F, violations=None):
    """O(n^2) constrained non-dominated sorting, the definition verbatim."""
    F = np.atleast_2d(np.asarray(F, dtype=float))
    n = len(F)
    viol = np.zeros(n) if violations is None else np.asarray(violations, float)

    def dominates(i, j):
        fi, fj = viol[i] == 0.0, viol[j] == 0.0
        if fi and not fj:
            return True
        if not fi and fj:
            return False
        if not fi and not fj:
            return viol[i] < viol[j]
        return bool(np.all(F[i] <= F[j]) and np.any(F[i] < F[j]))

    ranks = np.zeros(n, dtype=int)
    remaining = set(range(n))
    r = 1
    while remaining:
        front = [
            j for j in remaining
            if not any(dominates(i, j) for i in remaining if i != j)
        ]
        for j in front:
            ranks[j] = r
        remaining -= set(front)
        r += 1
    return ranks


def prune_reference(X, F, viol, capacity):
    """Drop closest pairs in weighted objective space until within
    capacity, never deleting a per-objective extreme member. Literal
    form: every deletion takes the alive submatrix afresh and its
    row-major argmin."""
    if len(F) <= capacity:
        return X, F, viol
    # weights 1 and fitworst_2 / fitworst_1 (1 if fitworst_1 is 0)
    worst = F.max(axis=0)
    W = F * np.array([1.0, worst[1] / worst[0] if worst[0] != 0.0 else 1.0])
    D = np.linalg.norm(W[:, None, :] - W[None, :, :], axis=2)
    np.fill_diagonal(D, np.inf)
    alive = np.ones(len(F), dtype=bool)
    n_alive = len(F)
    while n_alive > capacity:
        sub = np.where(alive)[0]
        extremes = {int(sub[F[sub, k].argmin()]) for k in range(F.shape[1])}
        Ds = D[np.ix_(sub, sub)]
        i_s, j_s = np.unravel_index(np.argmin(Ds), Ds.shape)
        i, j = int(sub[i_s]), int(sub[j_s])
        kill = j if j not in extremes else (i if i not in extremes else j)
        alive[kill] = False
        n_alive -= 1
    return X[alive], F[alive], viol[alive]


def force_reference(X, q, gate, radius):
    """Resultant force on each CP from explicit (n, n, d) difference
    vectors: force_j = sum_i gate[j, i] * mag_ji * (X_i - X_j), with
    mag_ji = q_i r / a^3 inside the radius a and q_i / r^2 outside."""
    diff = X[None, :, :] - X[:, None, :]  # diff[j, i] = X_i - X_j
    r = np.linalg.norm(diff, axis=2)
    np.fill_diagonal(r, 1.0)
    a = radius
    # coincident particles (r = 0) take the linear branch, but both
    # branches are evaluated, so keep the inverse-square divisor off zero
    r_safe = np.where(r == 0.0, 1.0, r)
    mag = np.where(r < a, q[None, :] * r / a**3, q[None, :] / r_safe**2)
    return np.einsum("ji,jid->jd", mag * gate, diff)


def forces_masked(X, q, gate, radius):
    """The Gram-matrix force step with each branch written by a masked
    ufunc only where it applies, so neither divides by zero: the same
    operations in the same order as archdam.mocss._forces, which must
    agree with it bit for bit."""
    w = X @ X.T
    r = np.add.outer(w.diagonal(), w.diagonal())
    r -= np.multiply(w, 2.0, out=w)
    np.sqrt(np.maximum(r, 0.0, out=r), out=r)
    near = r < radius
    np.divide(np.multiply(q, r, out=w, where=near), radius**3, out=w, where=near)
    np.divide(q, np.square(r, out=r), out=w, where=~near)
    w *= gate
    return w @ X - w.sum(axis=1)[:, None] * X


def hypervolume_reference(front, reference):
    """Dominated area of a 2-objective front below the reference corner,
    by a loop over the non-dominated points in (f1, f2) order: one slab
    per point, added left to right. Points outside the corner are
    dropped."""
    front = np.atleast_2d(np.asarray(front, dtype=float))
    ref = np.asarray(reference, dtype=float)
    F = front[np.all(front < ref, axis=1)]
    if len(F) == 0:
        return 0.0
    keep = []
    best_f2 = np.inf
    for i in np.lexsort((F[:, 1], F[:, 0])):
        if F[i, 1] < best_f2:
            keep.append(i)
            best_f2 = F[i, 1]
    pts = F[keep]
    hv = 0.0
    for i, (f1, f2) in enumerate(pts):
        nxt = pts[i + 1, 0] if i + 1 < len(pts) else ref[0]
        hv += (min(nxt, ref[0]) - f1) * (ref[1] - f2)
    return float(hv)


def grid_hypervolume(front, reference, resolution=1e-3):
    """Dominated-area estimate by counting grid cells, 2 objectives."""
    front = np.atleast_2d(np.asarray(front, dtype=float))
    rx, ry = reference
    xs = np.arange(0.0, rx, resolution) + resolution / 2.0
    ys = np.arange(0.0, ry, resolution) + resolution / 2.0
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    covered = np.zeros(gx.shape, dtype=bool)
    for fx, fy in front:
        covered |= (gx >= fx) & (gy >= fy)
    return covered.sum() * resolution * resolution


def section_interpolants(design, h):
    """The per-design interpolants of tc, ru and rd of one design of 20
    values, over the six levels of a dam of height h."""
    levels = np.linspace(0.0, h, 6)
    return tuple(LagrangeInterpolant(levels, design[k:k + 6]) for k in (2, 8, 14))


def depth_rule(h, order):
    """The Gauss-Legendre depths and weights of `order` points on [0, h]."""
    t, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * h + 0.5 * h * t, 0.5 * h * w


def mc_volume(design, canyon, n_samples, seed=0, chunk=100_000):
    """Monte Carlo estimate of the concrete volume over the clipped canyon
    for one design of 20 values, with the faces of the parabolic arch
    (y_u = x^2 / 2ru + g, y_d = x^2 / 2rd + g + tc) taken from the
    per-design interpolant."""
    gamma, beta = design[0], design[1]
    h = canyon.h
    tc, ru, rd = section_interpolants(design, h)
    rng = np.random.default_rng(seed)
    wc = canyon.w_crest
    total = 0.0
    done = 0
    while done < n_samples:
        m = min(chunk, n_samples - done)
        x = rng.uniform(-wc, wc, m)
        z = rng.uniform(0.0, h, m)
        inside = np.abs(x) <= canyon.half_width(z)
        if inside.any():
            x, z = x[inside], z[inside]
            g = gamma * z**2 / (2.0 * beta * h) - gamma * z
            y_u = x**2 / (2.0 * ru(z)) + g
            y_d = x**2 / (2.0 * rd(z)) + g + tc(z)
            total += float(np.abs(y_d - y_u).sum())
        done += m
    area = 2.0 * wc * h
    return area * total / n_samples


def gauss_legendre_volume(canyon, order, design):
    """The volume of one design of 20 values by the tensor-product
    Gauss-Legendre rule of `order` points in depth and `order` across the
    valley at each depth, on the point values |thickness|: the rule the
    evaluator used before it integrated across the valley in closed form.
    Exact to rounding where the thickness keeps its sign over a section;
    off by up to a few 1e-4 where the faces cross, as its integrand has a
    kink there."""
    h = canyon.h
    tc, ru, rd = section_interpolants(design, h)
    zq, wz = depth_rule(h, order)
    t, w = np.polynomial.legendre.leggauss(order)
    half = canyon.half_width(zq)[:, None]
    xq, wx = half * t, half * w
    thick = np.abs(tc(zq)[:, None] + xq**2 / 2.0
                   * (1.0 / rd(zq)[:, None] - 1.0 / ru(zq)[:, None]))
    return float(np.einsum("ij,ij,i->", thick, wx, wz))


def closed_form_volume(canyon, order, tc, ru, rd):
    """The volume of one design from its tc, ru and rd interpolants: the
    Gauss-Legendre depths and weights of `order` points over the height,
    and at each depth the section area |2 G(w)|, G(x) = tc x + a x^3 / 6
    with a = 1/rd - 1/ru, split at the crossing x0 where tc and the
    abutment thickness have opposite signs, G(x0) = 2 tc x0 / 3. One
    depth at a time, in the operation order of
    archdam.geometry.VolumeQuadrature, whose every bit it must match."""
    h = canyon.h
    zq, wz = depth_rule(h, order)
    half = canyon.half_width(zq)
    w2_6, w2_2 = half**2 / 6.0, half**2 / 2.0
    a = 1.0 / rd(zq) - 1.0 / ru(zq)
    tcq = tc(zq)
    # section areas over 2 w
    mean = np.empty(order)
    for i in range(order):
        mean[i] = a[i] * w2_6[i] + tcq[i]
        edge = a[i] * w2_2[i] + tcq[i]
        if tcq[i] * edge < 0.0:
            g0 = np.sqrt(tcq[i] / (tcq[i] - edge)) * (tcq[i] * (2.0 / 3.0))
            mean[i] = abs(mean[i] - g0) + abs(g0)
        else:
            mean[i] = abs(mean[i])
    return float(np.einsum("i,i->", mean, 2.0 * half * wz))


def faces_cross(canyon, order, design):
    """True where the faces of one design of 20 values cross at one of the
    `order` Gauss-Legendre depths: the thickness tc + a x^2 / 2 is
    extreme at the crown and at the abutments, so it changes sign across
    the valley where those two have strictly opposite signs."""
    h = canyon.h
    tc, ru, rd = section_interpolants(design, h)
    zq, _ = depth_rule(h, order)
    crown = tc(zq)
    abutment = crown + canyon.half_width(zq) ** 2 / 2.0 * (1.0 / rd(zq) - 1.0 / ru(zq))
    return bool(np.any(((crown > 0.0) & (abutment < 0.0)) | ((crown < 0.0) & (abutment > 0.0))))


def dense_volume(canyon, order, design, n=20_000):
    """The volume of one design of 20 values with the Gauss-Legendre
    depths and weights of `order` points, and at each depth composite
    Simpson on n intervals of |y_d - y_u| across the valley, the faces
    y_u = x^2 / 2ru + g and y_d = x^2 / 2rd + g + tc taken from the
    per-design interpolants."""
    if n % 2:
        raise ValueError("Simpson's rule needs an even interval count")
    gamma, beta, h = design[0], design[1], canyon.h
    tc, ru, rd = section_interpolants(design, h)
    zq, wz = depth_rule(h, order)
    simpson = np.ones(n + 1)
    simpson[1:-1:2], simpson[2:-1:2] = 4.0, 2.0
    total = 0.0
    for z, weight, half, tz, uz, dz in zip(zq, wz, canyon.half_width(zq), tc(zq), ru(zq), rd(zq)):
        x = np.linspace(-half, half, n + 1)
        g = gamma * z**2 / (2.0 * beta * h) - gamma * z
        gap = np.abs((x**2 / (2.0 * dz) + g + tz) - (x**2 / (2.0 * uz) + g))
        total += weight * (2.0 * half / n) / 3.0 * float((simpson * gap).sum())
    return total


def calibration_states(strength):
    """The five strength-test states as sorted principal stresses, MPa.

    Uniaxial tension, equibiaxial compression, and the confined
    tensile-meridian state pin the first meridian; uniaxial compression
    and the confined compressive-meridian state pin the second.
    """
    ft, fc = strength.f_t, strength.f_c
    fcb, f1, f2 = strength.f_cb, strength.f_1, strength.f_2
    sha = strength.sigma_h_a
    return np.array([
        [ft, 0.0, 0.0],
        [0.0, -fcb, -fcb],
        [-sha, -sha - f1, -sha - f1],
        [0.0, 0.0, -fc],
        [-sha, -sha, -sha - f2],
    ])


def spearman(a, b):
    """Rank correlation, no tie correction (inputs are continuous)."""
    ra = np.argsort(np.argsort(a)).astype(float)
    rb = np.argsort(np.argsort(b)).astype(float)
    ra -= ra.mean()
    rb -= rb.mean()
    return float((ra * rb).sum() / np.sqrt((ra * ra).sum() * (rb * rb).sum()))


def random_population(rng, max_points=30, n_objectives=2):
    """Random objective set with duplicate rows and infeasible members."""
    n = int(rng.integers(2, max_points + 1))
    F = rng.random((n, n_objectives))
    # duplicate a few rows to exercise tie handling
    n_dup = int(rng.integers(0, max(1, n // 3) + 1))
    if n_dup:
        src = rng.integers(0, n, n_dup)
        dst = rng.integers(0, n, n_dup)
        F[dst] = F[src]
    viol = np.where(rng.random(n) < 0.3, rng.random(n), 0.0)
    return F, viol


def lagrange_basis(z, i, nodes):
    """i-th Lagrange basis polynomial (1-based level index) over the level
    depths nodes at depth z, in product form."""
    n = len(nodes)
    if not 1 <= i <= n:
        raise IndexError(f"level index {i} outside 1..{n}")
    z = np.asarray(z, dtype=float)
    num = np.ones_like(z)
    den = 1.0
    zi = nodes[i - 1]
    for m in range(n):
        if m == i - 1:
            continue
        num = num * (z - nodes[m])
        den *= zi - nodes[m]
    return num / den


def exact_lagrange(levels, F, z):
    """Values and slopes of the Lagrange interpolants of the node rows F,
    shape (r, len(levels)), at depths z, each shape (r, len(z)): worked in
    exact rational arithmetic on the float inputs and rounded once. The
    basis is l_j(z) = prod_{k != j} (z - x_k) / (x_j - x_k), and l_j'(z)
    sums, over the levels i != j, the same product without its factor for
    x_i; F = np.eye(len(levels)) gives the basis itself."""
    x = [Fraction(v) for v in levels]
    rows = [[Fraction(v) for v in row] for row in np.atleast_2d(F)]
    n = len(x)
    values = np.empty((len(rows), len(z)))
    slopes = np.empty((len(rows), len(z)))
    for col, zf in enumerate(z):
        d = [Fraction(zf) - xk for xk in x]
        basis, slope_basis = [], []
        for j in range(n):
            others = [k for k in range(n) if k != j]
            den = math.prod(x[j] - x[k] for k in others)
            basis.append(math.prod(d[k] for k in others) / den)
            slope_basis.append(sum(math.prod(d[k] for k in others if k != i)
                                   for i in others) / den)
        for r, row in enumerate(rows):
            values[r, col] = float(sum(f * b for f, b in zip(row, basis)))
            slopes[r, col] = float(sum(f * b for f, b in zip(row, slope_basis)))
    return values, slopes


class LagrangeInterpolant:
    """Barycentric Lagrange interpolant with derivative, exact at the nodes:
    the per-design interpolant the evaluator used before it was batched."""

    def __init__(self, nodes, values):
        self.x = np.asarray(nodes, dtype=float)
        self.f = np.asarray(values, dtype=float)
        d = self.x[:, None] - self.x[None, :]
        np.fill_diagonal(d, 1.0)
        self.w = 1.0 / d.prod(axis=1)
        D = (self.w[None, :] / self.w[:, None]) / d
        np.fill_diagonal(D, 0.0)
        np.fill_diagonal(D, -D.sum(axis=1))
        self._D = D
        self._span = float(self.x[-1] - self.x[0])

    def _masks(self, z):
        dz = z[:, None] - self.x[None, :]
        hit = np.abs(dz) <= 1e-12 * max(self._span, 1.0)
        return dz, hit, hit.any(axis=1)

    def __call__(self, z):
        z = np.atleast_1d(np.asarray(z, dtype=float))
        dz, hit, at_node = self._masks(z)
        out = np.empty_like(z)
        out[at_node] = self.f[hit[at_node].argmax(axis=1)]
        off = ~at_node
        r = self.w[None, :] / dz[off]
        out[off] = (r * self.f[None, :]).sum(axis=1) / r.sum(axis=1)
        return out

    def derivative(self, z):
        z = np.atleast_1d(np.asarray(z, dtype=float))
        dz, hit, at_node = self._masks(z)
        out = np.empty_like(z)
        out[at_node] = self._D[hit[at_node].argmax(axis=1)] @ self.f
        off = ~at_node
        r = self.w[None, :] / dz[off]
        p = (r * self.f[None, :]).sum(axis=1) / r.sum(axis=1)
        num = (self.w[None, :] * (p[:, None] - self.f[None, :]) / dz[off] ** 2).sum(axis=1)
        out[off] = num / r.sum(axis=1)
        return out


def sample_points(canyon):
    """The stress grid's rows (z, face), one at a time: the upstream face,
    then the downstream one; on each, six evenly spaced depths from the
    crest to the canyon's height h (the control levels)."""
    rows = [(z, face) for face in ("up", "down") for z in np.linspace(0.0, canyon.h, 6)]
    z, face = zip(*rows)
    return np.array(z), np.array(face)


def evaluate_rowwise(problem, X):
    """The dam evaluation one design at a time, as it was before batching:
    one interpolant per section property and design, fresh quadrature
    depths per volume (closed_form_volume), stresses at every grid row,
    a Python loop over the designs. A design with a non-positive radius at
    one of 101 depths ("radius") or a non-positive compressive meridian
    ("meridian") gets the penalty objectives and violation + 1; a
    non-positive thickness at a grid row raises, since the problem's
    bounds admit none. Returns
    (F, violation, the degenerate kinds, with None for a design that is
    not, and the validity warnings: the count of (row, load case) states
    outside the hydrostatic validity range, 0 for a degenerate design)."""
    X = np.atleast_2d(np.asarray(X, dtype=float)).reshape(-1, 20)
    canyon, h = problem.canyon, problem.canyon.h
    F = np.empty((len(X), 2))
    viol = np.empty(len(X))
    kinds = [None] * len(X)
    warnings = np.zeros(len(X), dtype=int)
    for i, x in enumerate(X):
        if np.any(x < problem.lower - 1e-9) or np.any(x > problem.upper + 1e-9):
            raise ValueError("design outside variable bounds")
        gamma, beta = x[0], x[1]
        tc, ru, rd = section_interpolants(x, h)
        F[i] = problem.penalty_fit1, problem.penalty_fit2

        order_cons = x[14:20] / x[8:14] - 1.0
        zs = np.linspace(0.0, h, 101)
        if np.min(ru(zs)) <= 0.0 or np.min(rd(zs)) <= 0.0:
            viol[i] = float(np.maximum(order_cons, 0.0).sum()) + 1.0
            kinds[i] = "radius"
            continue

        cons = np.empty(9)
        cons[:6] = order_cons
        zs = np.linspace(0.0, h, 50)
        s_u = gamma * zs / (beta * h) - gamma
        s_d = s_u + tc.derivative(zs)
        cons[6] = np.max(np.abs(s_u)) / problem.gamma_allow - 1.0
        cons[7] = np.max(np.abs(s_d)) / problem.gamma_allow - 1.0
        phi = np.degrees(2.0 * np.arctan(canyon.half_width(zs) / ru(zs)))
        cons[8] = np.max(np.maximum(90.0 - phi, phi - 130.0)) / 130.0
        violation = float(np.maximum(cons, 0.0).sum())

        fit1 = closed_form_volume(canyon, problem.quadrature_order, tc, ru, rd)

        z, face = sample_points(canyon)
        tz, rz = tc(z), ru(z)
        if np.min(tz) <= 0.0 or np.min(rz) <= 0.0:
            raise ValueError("non-positive thickness or radius at a grid row")
        states = surrogate_states(tz, rz, z, face, h, problem.load_cases, problem.moment_share)
        try:
            margins = criterion_values(states, problem.strength, problem.coeffs)[0]
        except EvaluationError:  # non-positive compressive meridian
            viol[i] = violation + 1.0
            kinds[i] = "meridian"
            continue
        F[i] = fit1, float(margins.max())
        viol[i] = violation
        warnings[i] = int((~hydrostatic_validity(states, problem.strength)).sum())
    return F, viol, kinds, warnings


def surrogate_states(tc, ru, z, face, h, load_cases, moment_share):
    """The stress surrogate computed one load case at a time from the
    physical formulas, with np.sort doing the ordering: sorted states of
    shape (n_points, n_cases, 3) from tc and ru at points of depth z on
    face "up" or "down"."""
    up = face == "up"
    states = np.empty((len(z), len(load_cases), 3))
    for k, lc in enumerate(load_cases):
        rho_w_g = lc.water_density * GRAVITY
        water = lc.kind != "gravity"
        z_w = np.maximum(0.0, z - lc.water_level) if water else np.zeros_like(z)
        p = rho_w_g * z_w
        if lc.kind == "pseudo_seismic":
            h_w = max(0.0, h - lc.water_level)
            p = p + 0.875 * lc.seismic_coefficient * rho_w_g * np.sqrt(h_w * z_w)
        hoop = -p * ru / tc / 1e6
        weight = -lc.concrete_density * GRAVITY * z / 1e6
        bend = moment_share * rho_w_g * z_w**3 / tc**2 / 1e6
        vertical = weight + np.where(up, bend, -bend)
        comp = np.stack([hoop, vertical, np.zeros_like(hoop)], axis=-1)
        states[:, k, :] = np.sort(comp, axis=-1)[:, ::-1]
    return states


def meridian_r1(coeffs, xi):
    """The tensile meridian r1 = a0 + a1 xi + a2 xi^2 of fitted coefficients."""
    return coeffs.a[0] + coeffs.a[1] * xi + coeffs.a[2] * xi**2


def meridian_r2(coeffs, xi):
    """The compressive meridian r2 = b0 + b1 xi + b2 xi^2 of fitted coefficients."""
    return coeffs.b[0] + coeffs.b[1] * xi + coeffs.b[2] * xi**2


def _cos_eta(s1, s2, s3):
    dev = (s1 - s2) ** 2 + (s2 - s3) ** 2 + (s3 - s1) ** 2
    num = 2.0 * s1 - s2 - s3
    den = math.sqrt(2.0) * np.sqrt(dev)
    # hydrostatic axis: 0/0, defined as the tensile meridian
    return np.where(den == 0.0, 1.0, num / np.where(den == 0.0, 1.0, den))


def _meridian(r1, r2, cos_eta):
    """Elliptic blend between the tensile (r1) and compressive (r2) meridians."""
    c2 = cos_eta * cos_eta
    dd = r2 * r2 - r1 * r1
    disc = 4.0 * dd * c2 + 5.0 * r1 * r1 - 4.0 * r1 * r2
    den = 4.0 * dd * c2 + (r2 - 2.0 * r1) ** 2
    return (2.0 * r2 * dd * cos_eta + r2 * (2.0 * r1 - r2) * np.sqrt(np.maximum(disc, 0.0))) / den


def criterion_four_pass(states, strength, coeffs, strict=True):
    """The criterion as four masked passes, one per stress domain, each
    gathering its states and scattering F/f_c, S and the domain code
    back: (margin, F_over_fc, S, domain_code), the three arrays of
    willam_warnke.criterion_values and the codes of
    willam_warnke.domain_codes."""
    s = np.asarray(states, dtype=float)
    s1, s2, s3 = s[..., 0], s[..., 1], s[..., 2]
    fc, ft, sf = strength.f_c, strength.f_t, strength.s_f

    ttt = s3 >= 0.0
    ttc = ~ttt & (s2 > 0.0)
    tcc = ~ttt & ~ttc & (s1 > 0.0)
    ccc = ~(ttt | ttc | tcc)

    f_over = np.zeros_like(s1)
    s_term = np.zeros_like(s1)
    dom = np.zeros(s1.shape, dtype=np.int8)

    if np.any(ccc):
        a1, a2v, a3 = s1[ccc], s2[ccc], s3[ccc]
        xi = (a1 + a2v + a3) / (3.0 * fc)
        r1 = meridian_r1(coeffs, xi)
        r2 = meridian_r2(coeffs, xi)
        S = _meridian(r1, r2, _cos_eta(a1, a2v, a3))
        bad = S <= 0.0
        if np.any(bad):
            if strict:
                raise EvaluationError("non-positive compressive meridian value")
            S = np.where(bad, np.nan, S)
        F = np.sqrt(((a1 - a2v) ** 2 + (a2v - a3) ** 2 + (a3 - a1) ** 2) / 15.0)
        f_over[ccc] = F / fc
        s_term[ccc] = S
        dom[ccc] = 0

    if np.any(tcc):
        a1, a2v, a3 = s1[tcc], s2[tcc], s3[tcc]
        # mean of the two compressive components, normalized by f_c so the
        # meridian abscissa stays dimensionless
        chi = (a2v + a3) / (3.0 * fc)
        p1 = meridian_r1(coeffs, chi)
        p2 = meridian_r2(coeffs, chi)
        S = (1.0 - a1 / ft) * _meridian(p1, p2, _cos_eta(a1, a2v, a3))
        F = np.sqrt(((a2v - a3) ** 2 + a2v**2 + a3**2) / 15.0)
        f_over[tcc] = F / fc
        s_term[tcc] = S
        dom[tcc] = 1

    if np.any(ttc):
        # per-component margins share S; the worst is the largest tension
        S = (ft / fc) * (1.0 + s3[ttc] / fc)
        f_over[ttc] = np.maximum(s1[ttc], s2[ttc]) / fc
        s_term[ttc] = S
        dom[ttc] = 2

    if np.any(ttt):
        f_over[ttt] = np.maximum(np.maximum(s1[ttt], s2[ttt]), s3[ttt]) / fc
        s_term[ttt] = ft / fc
        dom[ttt] = 3

    return f_over - s_term / sf, f_over, s_term, dom


def sort_principal(sigma):
    """Sort stresses descending so sigma1 >= sigma2 >= sigma3."""
    s = np.sort(np.asarray(sigma, dtype=float), axis=-1)
    return s[..., ::-1]


def classify_domain(sigma) -> str:
    """Domain of a sorted state; boundary ties go to the more tensile domain."""
    s1, s2, s3 = (float(v) for v in np.asarray(sigma, dtype=float))
    if s3 >= 0.0:
        return "TTT"
    if s2 > 0.0:
        return "TTC"
    if s1 > 0.0:
        return "TCC"
    return "CCC"


def criterion_value(sigma, strength, coeffs) -> float:
    """Scalar criterion margin for one sorted principal stress state."""
    m = criterion_values(np.asarray(sigma, dtype=float).reshape(1, 3), strength, coeffs)[0]
    return float(m[0])


def tournament_t(a, b, objective: int) -> int:
    """1 when alternative a strictly beats b in the given objective.

    Minimization throughout: a wins iff fit(b) - fit(a) > 0. Ties score 0
    for both orderings.
    """
    fa = float(np.asarray(a, dtype=float).reshape(-1)[objective])
    fb = float(np.asarray(b, dtype=float).reshape(-1)[objective])
    return 1 if fb - fa > 0.0 else 0


def tournament_T(index: int, F, objective: int) -> float:
    """Win ratio of alternative ``index`` against the rest of the set.

    F holds one row of objective values per alternative. Requires at
    least two alternatives; a singleton set has no opponents.
    """
    F = np.atleast_2d(np.asarray(F, dtype=float))
    n = F.shape[0]
    if n < 2:
        raise UndefinedSetError("tournament ratio needs at least 2 alternatives")
    if not 0 <= index < n:
        raise IndexError(f"alternative index {index} outside 0..{n - 1}")
    col = F[:, objective]
    wins = int((col > col[index]).sum())
    return wins / (n - 1)
