"""The one sparse LU factorization behind every direct solve.

Steady-state systems, hitting-time systems and CSL unbounded-until
systems all factorize a sparse matrix shaped by a CTMC generator with
SuperLU.  Their cost is decided by the fill-in of ``L + U``, and that is
decided by the column ordering, so the ordering is chosen here, once.

Following W. J. Stewart (*Introduction to the Numerical Solution of
Markov Chains*, 1994), direct methods on Markov chains need a
fill-reducing ordering of the nearly structurally symmetric matrices
that generators produce.  SuperLU's default, COLAMD, orders the columns
of ``A`` alone; minimum degree on the structure of ``A^T + A`` matches
these matrices far better.  On the 2,048-state PC-LAN replaced systems
(27k nonzeros) it keeps ``L + U`` at 0.87M nonzeros against COLAMD's
2.7-2.8M, and factorize-plus-solve falls from 660-910 ms to 110-120 ms
(2-vCPU Intel Xeon).
"""

from __future__ import annotations

import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = ["ORDERING", "factorize"]

#: SuperLU column ordering for every factorization in the library.
ORDERING = "MMD_AT_PLUS_A"


def factorize(A: sp.spmatrix) -> spla.SuperLU:
    """Sparse LU of the square matrix ``A`` under :data:`ORDERING`.

    Raises
    ------
    RuntimeError
        SuperLU's signal that ``A`` is exactly singular.
    """
    return spla.splu(sp.csc_matrix(A), permc_spec=ORDERING)
