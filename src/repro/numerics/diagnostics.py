"""Conditioning and convergence diagnostics for the numerical back-ends.

The trust layer (:mod:`repro.ir.guards`) attaches a small dictionary of
quality measurements to every registry solve: residual norms, condition
estimates, uniformization truncation mass, conservation defects.  This
module owns the measurements themselves — each is a pure function of
the generator / stoichiometry / result arrays, cheap relative to the
solve it describes, and safe on degenerate inputs (it *reports*, never
raises; deciding whether a number is acceptable is the sentinels' job).

Everything here sits below :mod:`repro.ir` in the import layering:
``ir -> numerics`` only.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.engine.metrics import get_registry
from repro.numerics.lu import factorize
from repro.numerics.poisson import poisson_truncation_point

__all__ = [
    "CONDITION_ESTIMATE_LIMIT",
    "steady_residual",
    "norm1",
    "condition_estimate",
    "simplex_defect",
    "monotonicity_defect",
    "truncation_diagnostics",
    "conservation_laws",
    "conservation_defect",
]

#: When :func:`condition_estimate` has to factorize the replaced
#: steady-state system itself (no LU handed in), it skips systems above
#: this state count: the factorization would cost as much as a solve.
CONDITION_ESTIMATE_LIMIT = 5000

#: Hager-Higham iterations after the first (LAPACK ``xLACN2``'s ITMAX).
_NORM1_ITERATIONS = 4


def steady_residual(Q: sp.spmatrix, pi: np.ndarray) -> float:
    """Max-norm residual ``‖pi @ Q‖∞`` of a claimed equilibrium vector.

    This is the one number that cannot lie: whatever a solver reports
    about its own convergence, the true defect of ``pi @ Q = 0`` is a
    single sparse mat-vec away.
    """
    pi = np.asarray(pi, dtype=np.float64)
    r = pi @ sp.csr_matrix(Q, dtype=np.float64)
    r = np.asarray(r).ravel()
    return float(np.abs(r).max()) if r.size else 0.0


def norm1(A: sp.spmatrix) -> float:
    """Exact 1-norm ``‖A‖₁`` of a sparse matrix: its largest absolute
    column sum."""
    return float(abs(A).sum(axis=0).max())


def condition_estimate(Q: sp.spmatrix, lu=None, A=None) -> float | None:
    """1-norm condition number ``kappa_1(A) = ‖A‖₁ ‖A⁻¹‖₁`` of the
    replaced steady-state system.

    ``A`` is the normalization-replaced transpose of ``Q`` that the
    direct steady solvers factorize — the matrix whose conditioning
    governs how many digits of the solve survive.  ``‖A‖₁`` is exact
    (:func:`norm1`); ``‖A⁻¹‖₁`` is the deterministic Hager-Higham
    estimate of :func:`_inverse_norm1`, a handful of solves with ``A``'s
    LU factors.  ``A⁻¹`` is never formed.

    Pass the solver's own factorization as ``lu`` (a SuperLU object of
    ``A``) to read the estimate from it, and ``A`` itself when it is
    already built, so nothing is rebuilt; without ``lu`` the function
    factorizes ``A`` itself, counted as
    ``ir.trust.condition_factorizations``, and only up to
    :data:`CONDITION_ESTIMATE_LIMIT` states.

    Returns ``None`` when the system is tiny (order < 2), too large to
    factorize here, singular, or the estimate is not finite.
    """
    if A is None:
        from repro.numerics.steady import _replaced_system

        Q = sp.csr_matrix(Q, dtype=np.float64)
        if Q.shape[0] < 2:
            return None
        A, _b = _replaced_system(Q)
    n = A.shape[0]
    if n < 2:
        return None
    if lu is None:
        if n > CONDITION_ESTIMATE_LIMIT:
            return None
        get_registry().increment("ir.trust.condition_factorizations")
        try:
            lu = factorize(A)
        except RuntimeError:
            return None
    kappa = norm1(A) * _inverse_norm1(lu)
    return kappa if np.isfinite(kappa) else None


def _inverse_norm1(lu) -> float:
    """Estimate ``‖A⁻¹‖₁`` from the sparse LU factors ``lu`` of ``A``
    (a SuperLU object), solving with ``A`` and with ``A^T``.

    Hager's method as refined by Higham (LAPACK ``xLACN2``): a gradient
    ascent of ``‖A⁻¹ x‖₁`` over the unit ball of the 1-norm, started
    from the uniform vector, then checked against Higham's alternating
    test vector.  Every step is deterministic — unlike
    ``scipy.sparse.linalg.onenormest``, which draws random starting
    vectors from the global NumPy generator — so the same matrix always
    gives the same estimate and no caller's random stream moves.  Each
    value is ``‖A⁻¹ x‖₁`` for some ``‖x‖₁ = 1``, so the estimate is a
    lower bound, almost always within a small factor of the truth; at
    most eleven solves.
    """
    n = lu.shape[0]
    solve = lu.solve
    y = solve(np.full(n, 1.0 / n))
    est = float(np.abs(y).sum())
    signs = np.where(y >= 0.0, 1.0, -1.0)
    j = int(np.argmax(np.abs(solve(signs, trans="T"))))
    for _ in range(_NORM1_ITERATIONS):
        unit = np.zeros(n)
        unit[j] = 1.0
        y = solve(unit)
        previous, est = est, float(np.abs(y).sum())
        new_signs = np.where(y >= 0.0, 1.0, -1.0)
        if est <= previous or np.array_equal(new_signs, signs):
            est = max(est, previous)
            break
        signs = new_signs
        z = np.abs(solve(signs, trans="T"))
        last, j = j, int(np.argmax(z))
        if z[last] == z[j]:
            break
    alternating = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    alternating *= 1.0 + np.arange(n) / (n - 1)
    return max(est, 2.0 * float(np.abs(solve(alternating)).sum()) / (3.0 * n))


def simplex_defect(pi: np.ndarray) -> dict:
    """How far a claimed probability vector sits off the simplex.

    Returns ``{"min": most negative entry (0 if none), "mass_error":
    |sum - 1|, "finite": all entries finite}``.
    """
    pi = np.asarray(pi, dtype=np.float64)
    finite = bool(np.isfinite(pi).all())
    if not finite or pi.size == 0:
        return {"min": float("nan"), "mass_error": float("nan"), "finite": finite}
    return {
        "min": float(min(pi.min(), 0.0)),
        "mass_error": float(abs(pi.sum() - 1.0)),
        "finite": True,
    }


def monotonicity_defect(cdf: np.ndarray) -> float:
    """Largest decrease between consecutive CDF samples (0 if monotone)."""
    cdf = np.asarray(cdf, dtype=np.float64)
    if cdf.size < 2:
        return 0.0
    drops = -np.diff(cdf)
    worst = float(drops.max())
    return worst if worst > 0.0 else 0.0


def truncation_diagnostics(
    Q: sp.spmatrix, t_max: float, epsilon: float = 1e-12
) -> dict:
    """Uniformization truncation summary for a horizon ``t_max``.

    Reports the uniformization rate ``lambda``, the Poisson mean
    ``lambda * t_max``, the truncation point ``K`` actually used by the
    shared weight computation, and the mass bound ``epsilon`` the
    truncation guarantees (weights are renormalized, so the *retained*
    error is at most ``epsilon``).
    """
    Q = sp.csr_matrix(Q, dtype=np.float64)
    lam = float(np.abs(Q.diagonal()).max()) if Q.shape[0] else 0.0
    m = lam * max(float(t_max), 0.0)
    k = poisson_truncation_point(m, epsilon) if m > 0 else 0
    return {
        "uniformization_rate": lam,
        "poisson_mean": m,
        "truncation_k": int(k),
        "truncation_mass": float(epsilon),
    }


def conservation_laws(N: np.ndarray, atol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis of the left null space of a stoichiometry matrix.

    Rows ``w`` satisfy ``w @ N = 0``: the linear combinations
    ``w @ x(t)`` every trajectory of the network — stochastic or fluid —
    must hold constant.  Shape ``(n_laws, n_species)``; empty when the
    network conserves nothing (or ``N`` is empty).
    """
    N = np.asarray(N, dtype=np.float64)
    if N.size == 0:
        return np.empty((0, N.shape[0] if N.ndim == 2 else 0))
    import scipy.linalg

    W = scipy.linalg.null_space(N.T, rcond=atol)
    return W.T


def conservation_defect(
    W: np.ndarray, counts: np.ndarray, reference: np.ndarray
) -> float:
    """Worst drift of the conserved sums ``W @ x`` along a trajectory.

    ``counts`` has shape ``(n_times, n_species)``; ``reference`` is the
    state the sums are measured against (normally the initial state).
    Returns 0.0 when there are no conservation laws.
    """
    if W.size == 0:
        return 0.0
    expected = W @ np.asarray(reference, dtype=np.float64)
    along = np.asarray(counts, dtype=np.float64) @ W.T
    if along.size == 0:
        return 0.0
    drift = np.abs(along - expected[None, :])
    return float(drift.max())
