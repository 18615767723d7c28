"""Constraint-structure hashing and RHS-family detection for LP families.

Two LPs *share structure* when they differ only in right-hand sides and
variable bounds: same column count, same objective vector, same constraint
matrices (sparsity pattern and coefficients).  Adjacent points of a
degraded-fabric or bandwidth sweep are exactly this shape — the MCF
constraint matrix encodes the topology and commodities, while link
bandwidth / degradation scale enter only through capacity right-hand
sides.

:func:`structure_hash` digests that invariant part of an assembled
:class:`~repro.core.solver.LPBuilder` so the batched family solver
(:mod:`repro.perf.batch`) can recognize family members.
:func:`uniform_rhs_scale` detects the even stronger case
— the whole RHS vector scaled by one positive factor — where LP
homogeneity gives the next optimum as a scalar multiple of the previous
one, with no solver call at all.
"""

from __future__ import annotations

import hashlib
from typing import Optional

import numpy as np

__all__ = ["structure_hash", "rhs_vector", "uniform_rhs_scale",
           "scaling_safe_bounds"]


def _digest_matrix(digest, matrix) -> None:
    """Feed one CSR constraint matrix (or None) into ``digest``."""
    if matrix is None:
        digest.update(b"none")
        return
    digest.update(np.asarray(matrix.shape, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(matrix.indptr).tobytes())
    digest.update(np.ascontiguousarray(matrix.indices).tobytes())
    digest.update(np.ascontiguousarray(matrix.data).tobytes())


def structure_hash(builder) -> str:
    """Digest of an assembled LP minus its RHS and variable bounds.

    Covers the objective vector and both constraint matrices (shape,
    sparsity, coefficient values); excludes ``b_ub``/``b_eq``/``bounds``.
    Two builders with equal hashes therefore describe the same polytope
    family, differing only in right-hand sides and bounds.  ``to_arrays``
    canonicalizes the CSR
    deterministically, so equal LPs hash equal across builds.
    """
    c, a_ub, _, a_eq, _, _ = builder.to_arrays()
    digest = hashlib.sha256()
    digest.update(np.int64(len(c)).tobytes())
    digest.update(np.ascontiguousarray(c).tobytes())
    _digest_matrix(digest, a_ub)
    _digest_matrix(digest, a_eq)
    return digest.hexdigest()


def rhs_vector(builder) -> np.ndarray:
    """The concatenated ``b_ub``/``b_eq`` right-hand-side vector."""
    _, _, b_ub, _, b_eq, _ = builder.to_arrays()
    parts = [np.asarray(b, dtype=float)
             for b in (b_ub, b_eq) if b is not None]
    if not parts:
        return np.zeros(0)
    return np.concatenate(parts) if len(parts) > 1 else parts[0]


def uniform_rhs_scale(base: np.ndarray, other: np.ndarray,
                      rtol: float = 1e-12) -> Optional[float]:
    """The positive scalar ``s`` with ``other == s * base``, or None.

    Zeros must map to zeros (conservation and demand rows keep rhs 0 at
    every scale); the nonzero entries must share one ratio to ``rtol``.
    Returns 1.0 for two all-zero vectors.
    """
    if base.shape != other.shape:
        return None
    nonzero = base != 0.0
    if not np.array_equal(nonzero, other != 0.0):
        return None
    if not nonzero.any():
        return 1.0
    ratios = other[nonzero] / base[nonzero]
    scale = float(ratios[0])
    if not np.isfinite(scale) or scale <= 0.0:
        return None
    if not np.allclose(ratios, scale, rtol=rtol, atol=0.0):
        return None
    return scale


def scaling_safe_bounds(builder) -> bool:
    """True when every variable is bounded ``[0, inf)``.

    LP homogeneity — ``x* -> s * x*`` under ``b -> s * b`` — needs the
    feasible cone itself to be scale-invariant, which finite nonzero
    variable bounds would break.  All MCF formulations in this repo use
    nonnegative unbounded flow variables, so the shortcut applies.
    """
    *_, bounds = builder.to_arrays()
    return bool(np.all(bounds[:, 0] == 0.0) & np.all(np.isinf(bounds[:, 1])))
