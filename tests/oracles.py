"""Slow reference implementations the test suite trusts over the package.

Everything here is written for clarity, not speed: exhaustive enumeration,
dense algebra, nested loops. Tests compare the fast production code against
these, so none of them may import from csmooth beyond plain data types.
"""
from __future__ import annotations

import itertools

import numpy as np


def qp_patch_oracle(costs: np.ndarray, total: float, rho: float):
    """Exact solution of  min (rho/2)||g||^2 + costs' g  s.t. sum g = total, g >= 0.

    Enumerates every candidate support S: on S the KKT stationarity gives
    g_j = (nu - c_j)/rho with nu set by the sum constraint, off S the
    multiplier check mu_j = c_j - nu >= 0 must hold. Returns (g, objective).
    """
    c = np.asarray(costs, dtype=float).ravel()
    k = c.size
    if total == 0:
        return np.zeros(k), 0.0
    best = None
    for size in range(1, k + 1):
        for support in itertools.combinations(range(k), size):
            s = list(support)
            nu = (rho * total + c[s].sum()) / size
            g = np.zeros(k)
            g[s] = (nu - c[s]) / rho
            if (g[s] < -1e-12).any():
                continue
            off = np.setdiff1d(np.arange(k), s)
            if off.size and (c[off] - nu < -1e-12).any():
                continue
            obj = 0.5 * rho * float(g @ g) + float(c @ g)
            if best is None or obj < best[1] - 1e-15:
                best = (g, obj)
    assert best is not None, "no KKT point found; the QP is always feasible"
    return best


def voronoi_oracle(centers: np.ndarray, sites: np.ndarray, tie_tol: float):
    """Nearest site of every cell by brute force, one cell at a time.

    Returns (owner, n_tied): the lowest index among the sites nearest to
    cell j, and how many sites are that near.
    """
    n = centers.shape[0]
    owner = np.zeros(n, dtype=np.int64)
    n_tied = np.zeros(n, dtype=np.int64)
    for j in range(n):
        d2 = ((sites - centers[j]) ** 2).sum(axis=1)
        tied = np.flatnonzero(d2 <= d2.min() + tie_tol)
        owner[j], n_tied[j] = tied.min(), tied.size
    return owner, n_tied


def sample_stations_oracle(values: np.ndarray, m: int, seed: int) -> np.ndarray:
    """Sorted cells of m weighted draws without replacement, one cumsum per draw.

    Each draw takes a fresh running sum of the remaining positive weights
    and deletes the drawn cell from them; a uniform that rounds up to the
    total takes the last remaining cell.
    """
    v = np.asarray(values, dtype=float)
    positive = np.flatnonzero(v > 0)
    weights = v[positive].copy()
    rng = np.random.default_rng(seed)
    chosen = []
    for _ in range(m):
        cum = np.cumsum(weights)
        u = rng.random() * cum[-1]
        j = min(int(np.searchsorted(cum, u, side="right")), weights.size - 1)
        chosen.append(positive[j])
        positive = np.delete(positive, j)
        weights = np.delete(weights, j)
    return np.sort(np.array(chosen, dtype=np.int64))


def tri_mass_oracle(coords: np.ndarray) -> np.ndarray:
    """Element mass matrix by exact quadrature of barycentric products.

    integral over T of psi_a psi_b equals area/6 when a == b and area/12
    otherwise, for linear elements on any triangle.
    """
    a, b, c = coords
    area = 0.5 * abs((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))
    m = np.full((3, 3), area / 12.0)
    np.fill_diagonal(m, area / 6.0)
    return m


def tri_stiffness_oracle(coords: np.ndarray) -> np.ndarray:
    """Element stiffness matrix from explicitly fitted basis gradients."""
    grads = np.stack([plane_gradient(coords, np.eye(3)[i]) for i in range(3)])
    a, b, c = coords
    area = 0.5 * abs((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))
    return area * (grads @ grads.T)


def plane_gradient(coords: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Gradient of the plane through three (x, y, value) points."""
    a = np.column_stack([coords, np.ones(3)])
    sol = np.linalg.solve(a, values)
    return sol[:2]


def roughness_oracle(vertices, triangles, coeffs) -> float:
    """Sum over interior edges of |e| * (jump of normal derivative)^2.

    Rebuilt from scratch: per-triangle plane gradients, edges found by
    counting shared vertex pairs, jump dotted with the unit edge normal.
    """
    tri_grad = np.array([
        plane_gradient(vertices[t], np.asarray(coeffs)[t]) for t in triangles
    ])
    owners: dict[tuple[int, int], list[int]] = {}
    for ti, t in enumerate(triangles):
        for a, b in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])):
            owners.setdefault((min(a, b), max(a, b)), []).append(ti)
    total = 0.0
    for (a, b), ts in owners.items():
        if len(ts) != 2:
            continue
        evec = vertices[b] - vertices[a]
        length = float(np.hypot(*evec))
        unit_normal = np.array([evec[1], -evec[0]]) / length
        jump = (tri_grad[ts[0]] - tri_grad[ts[1]]) @ unit_normal
        total += length * jump * jump
    return total


def dense_ssr_oracle(
    psi: np.ndarray,
    jump: np.ndarray,
    edge_length: np.ndarray,
    h: np.ndarray,
    lam: float,
    weight: float,
):
    """Dense solve of the penalized least-squares stationarity system.

    Unknowns (c, d) satisfy
        [ weight psi'psi   lam J' ] [c]   [ weight psi' h ]
        [ lam J           -lam M_E] [d] = [ 0             ]
    with M_E = diag(edge_length). Solved by one dense np.linalg.solve.
    """
    n_v = psi.shape[1]
    n_e = jump.shape[0]
    top = np.hstack([weight * psi.T @ psi, lam * jump.T])
    bottom = np.hstack([lam * jump, -lam * np.diag(edge_length)])
    full = np.vstack([top, bottom])
    rhs = np.concatenate([weight * psi.T @ h, np.zeros(n_e)])
    x = np.linalg.solve(full, rhs)
    return x[:n_v], x[n_v:]


def dense_ssr_cov_oracle(
    psi: np.ndarray,
    jump: np.ndarray,
    edge_length: np.ndarray,
    w: np.ndarray,
    h: np.ndarray,
    lam: float,
    weight: float,
):
    """Joint dense solve with covariates: unknowns (c, beta), then d.

    Eliminating d = M_E^{-1} J c turns the penalty into
    lam c' J' M_E^{-1} J c, and joint stationarity in (c, beta) reads

        [ weight psi'psi + lam J'M_E^{-1}J   weight psi'W ] [c   ]   [ weight psi'h ]
        [ W'psi                              W'W          ] [beta] = [ W'h          ]

    (the beta row is divided through by weight). Returns (c, d, beta).
    """
    n_v = psi.shape[1]
    pen = lam * jump.T @ np.diag(1.0 / edge_length) @ jump
    top = np.hstack([weight * psi.T @ psi + pen, weight * psi.T @ w])
    bottom = np.hstack([w.T @ psi, w.T @ w])
    full = np.vstack([top, bottom])
    rhs = np.concatenate([weight * psi.T @ h, w.T @ h])
    x = np.linalg.solve(full, rhs)
    c, beta = x[:n_v], x[n_v:]
    d = np.diag(1.0 / edge_length) @ jump @ c
    return c, d, beta


def dense_f_update_oracle(
    psi: np.ndarray,
    jump: np.ndarray,
    edge_length: np.ndarray,
    g: np.ndarray,
    dual: np.ndarray,
    rho: float,
    lam: float,
):
    """Reference f-step: fit to g + dual/rho with data weight rho/2."""
    target = g + dual / rho
    return dense_ssr_oracle(psi, jump, edge_length, target, lam, rho / 2.0)


def constrained_qp_field_oracle(patches, costs, totals, rho):
    """Full g-step assembled patch by patch from the small QP oracle."""
    g = np.zeros(len(costs))
    for patch, total in zip(patches, totals):
        if len(patch) == 0:
            continue
        sol, _ = qp_patch_oracle(np.asarray(costs)[patch], total, rho)
        g[np.asarray(patch)] = sol
    return g


def css_admm_oracle(
    psi: np.ndarray,
    jump: np.ndarray,
    edge_length: np.ndarray,
    patches,
    totals: np.ndarray,
    lam: float,
    rho: float,
    sweeps: int,
    w: np.ndarray | None = None,
    alpha: float = 1.0,
):
    """The css ADMM loop written out sweep by sweep from the dense oracles,
    in the unscaled textbook form with over-relaxation alpha (Boyd et al.
    2011, section 3.4.3).

    ``patches`` lists the cells of each patch; the start spreads each total
    evenly over its patch, and the g-step enforces it there. Each sweep:

        g      <- patchwise QP with costs dual - rho f   (constrained_qp_field_oracle)
        r      =  alpha g + (1 - alpha) f
        f      <- fit to r + dual/rho, data weight rho/2 (dense_ssr_oracle, or
                  dense_ssr_cov_oracle with covariates w: f = psi c + w beta)
        primal =  ||g - f||,  dual residual = rho ||g - g_prev||
        dual   <- dual + rho (r - f)
        objective = lam d' M_E d + dual' (g - f) + (rho/2) ||g - f||^2

    Returns (g, f, primal residuals, dual residuals, objectives).
    """
    totals = np.asarray(totals, dtype=float)
    g = np.zeros(psi.shape[0])
    for patch, total in zip(patches, totals):
        g[patch] = total / len(patch)
    f = g.copy()
    dual = np.zeros_like(g)
    primal, dual_res, objective = [], [], []
    for _ in range(sweeps):
        g_prev = g
        g = constrained_qp_field_oracle(patches, dual - rho * f, totals, rho)
        r = alpha * g + (1.0 - alpha) * f
        target = r + dual / rho
        if w is None:
            c, d = dense_ssr_oracle(psi, jump, edge_length, target, lam, rho / 2.0)
            f = psi @ c
        else:
            c, d, beta = dense_ssr_cov_oracle(psi, jump, edge_length, w, target, lam, rho / 2.0)
            f = psi @ c + w @ beta
        gap = g - f
        primal.append(np.sqrt(np.sum(gap ** 2)))
        dual_res.append(rho * np.sqrt(np.sum((g - g_prev) ** 2)))
        dual = dual + rho * (r - f)
        objective.append(lam * np.sum(edge_length * d ** 2) + dual @ gap
                         + 0.5 * rho * np.sum(gap ** 2))
    return g, f, np.array(primal), np.array(dual_res), np.array(objective)
