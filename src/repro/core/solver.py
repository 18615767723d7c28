"""Sparse LP construction helpers.

All MCF variants in :mod:`repro.core` are assembled as sparse constraint
matrices.  Solving is delegated to :mod:`repro.engine.backends` (HiGHS via
:func:`scipy.optimize.linprog`).  The paper uses MOSEK;
the LP optima are solver independent, so HiGHS preserves every result that
depends on optimal values (only absolute solve times differ, and Fig. 7 is
about *scaling*, which is preserved).

:class:`LPBuilder` has one construction style: variable blocks.
:meth:`~LPBuilder.add_variable_block` reserves a whole ndarray of variables
at once (a scalar such as the concurrent flow ``F`` is a block of size 1),
and :meth:`~LPBuilder.add_le_block` / :meth:`~LPBuilder.add_eq_block` ingest
constraints as COO triplet arrays, so the large MCF formulations are
assembled with a handful of numpy operations instead of per-row Python
calls.  Solved values are read back per block with :meth:`LPSolution.block`,
and the duals of a named ``<=`` row block with :meth:`LPSolution.dual`.

The LP is accumulated in COO form, which keeps construction vectorizable and
avoids densifying what are extremely sparse matrices (a link-based MCF on N
nodes and E edges has ~N^2*E variables but only a handful of nonzeros per
row).  :meth:`~LPBuilder.to_arrays` canonicalizes the COO triplets
deterministically (sorted by (row, col), duplicates summed) so two builds of
the same LP produce bit-identical CSR matrices, and :meth:`~LPBuilder.digest`
hashes those arrays: the engine keys LP solutions by the LP they solve.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

__all__ = ["LPBuilder", "LPSolution", "SolverError"]

_EMPTY_EQ_TOL = 1e-12


class SolverError(RuntimeError):
    """Raised when the LP solver fails to find an optimal solution."""


@dataclass(frozen=True)
class _Block:
    """A contiguous range of columns registered as one named variable block."""

    name: str
    start: int
    shape: Tuple[int, ...]
    lb: object            # float scalar or flat ndarray of length size
    ub: object            # float scalar (inf for unbounded) or flat ndarray
    objective: object     # float scalar or flat ndarray

    @property
    def size(self) -> int:
        return int(np.prod(self.shape)) if self.shape else 1


class LPSolution:
    """Result of an LP solve, backed by the flat solution vector.

    The solution holds the solver's ``x`` vector and materializes per-block
    views lazily: :meth:`block` returns the value ndarray of a variable
    block, shaped like the block.

    Attributes
    ----------
    objective:
        Optimal objective value in the *builder's* sense (i.e. negated back if
        the builder was maximizing).
    info:
        Engine bookkeeping attached by :meth:`repro.engine.Engine.solve`:
        cache status (``hit`` / ``miss`` / ``bypass``), backend name, LP
        dimensions and assembly/solve timings.  Empty when the builder is
        solved directly.
    duals:
        Row duals of the builder's named ``<=`` row blocks (see
        :meth:`dual`).
    """

    def __init__(self, objective: float,
                 info: Optional[Dict[str, object]] = None,
                 x: Optional[np.ndarray] = None,
                 blocks: Optional[Dict[str, object]] = None,
                 duals: Optional[Dict[str, np.ndarray]] = None) -> None:
        self.objective = objective
        self.info: Dict[str, object] = {} if info is None else info
        self.duals: Dict[str, np.ndarray] = {} if duals is None else duals
        self._x = x
        # Block storage: name -> (start, shape) view into x, or a dense
        # ndarray (memoized view).
        self._blocks: Dict[str, object] = {} if blocks is None else blocks

    # ------------------------------------------------------------------ #
    def block_names(self) -> List[str]:
        """Names of the variable blocks this solution carries."""
        return sorted(self._blocks)

    def block(self, name: str) -> np.ndarray:
        """Value ndarray of variable block ``name``, shaped like the block."""
        entry = self._blocks.get(name)
        if entry is None:
            raise KeyError(f"solution has no variable block {name!r}; "
                           f"available: {self.block_names()}")
        if isinstance(entry, np.ndarray):
            return entry
        start, shape = entry
        size = int(np.prod(shape)) if shape else 1
        dense = np.asarray(self._x[start:start + size]).reshape(shape)
        self._blocks[name] = dense
        return dense

    def dual(self, name: str) -> np.ndarray:
        """Shadow prices of the named ``<=`` row block, one per rhs entry.

        Each entry is the sensitivity of :attr:`objective` (in the builder's
        sense) to that row's right-hand side; rows dropped as vacuous read 0.
        """
        if name not in self.duals:
            raise KeyError(f"solution has no duals for row block {name!r}; "
                           f"available: {sorted(self.duals)}")
        return self.duals[name]

    # ------------------------------------------------------------------ #
    def clone(self, info: Optional[Dict[str, object]] = None) -> "LPSolution":
        """Shallow copy, optionally swapping ``info`` (cache-hit bookkeeping)."""
        return LPSolution(objective=self.objective,
                          info=dict(self.info) if info is None else info,
                          x=self._x, blocks=dict(self._blocks),
                          duals=dict(self.duals))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"LPSolution(objective={self.objective!r}, "
                f"blocks={self.block_names()}, info={self.info!r})")


def _as_bound_array(value: object, shape: Tuple[int, ...], default: float,
                    what: str) -> object:
    """Normalize a scalar-or-array block bound/objective spec."""
    if value is None:
        return default
    if np.isscalar(value):
        return float(value)
    arr = np.broadcast_to(np.asarray(value, dtype=float), shape).ravel()
    if not np.all(np.isfinite(arr) | np.isinf(arr)):
        raise ValueError(f"non-finite {what} entries in block spec")
    return np.array(arr)  # own the memory (broadcast_to returns a view)


class LPBuilder:
    """Incremental sparse LP builder over named variable blocks.

    Variables are referenced by the integer column indices returned from
    :meth:`add_variable_block`.  Constraints are ``sum(coeff * var) <= rhs``
    (:meth:`add_le_block`), ``>= rhs`` (:meth:`add_ge_block`) or ``== rhs``
    (:meth:`add_eq_block`).  The objective is a linear form given per block;
    the backend solves it with ``maximize=True`` or ``False``.
    """

    def __init__(self) -> None:
        self._blocks: Dict[str, _Block] = {}
        self._ncols = 0
        self._ub_rhs: List[float] = []
        self._eq_rhs: List[float] = []
        # Block COO chunks: (rows, cols, vals) ndarray triplets with absolute
        # row numbers, concatenated lazily in to_arrays().
        self._ub_chunks: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._eq_chunks: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        # Named <= row blocks: name -> (first row, kept local rows, rhs length).
        self._ub_names: Dict[str, Tuple[int, np.ndarray, int]] = {}
        self._arrays_cache = None

    # ------------------------------------------------------------------ #
    # Variables
    # ------------------------------------------------------------------ #
    def add_variable_block(self, name: str, shape: Union[int, Sequence[int]],
                           lb: object = 0.0, ub: object = None,
                           objective: object = 0.0) -> np.ndarray:
        """Reserve a contiguous block of variables and return its index array.

        Parameters
        ----------
        name:
            Block name, unique per builder; the solved values are retrieved
            with ``solution.block(name)`` shaped like the block.
        shape:
            Int or tuple of ints — the logical shape of the block.
        lb / ub / objective:
            Scalars or arrays broadcastable to ``shape``.  ``ub=None`` means
            unbounded above.

        Returns
        -------
        numpy.ndarray
            Column indices of the block's variables, shaped ``shape`` — use
            fancy indexing / ``ravel()`` on it to produce the ``cols`` arrays
            of :meth:`add_le_block` / :meth:`add_eq_block`.
        """
        if name in self._blocks:
            raise ValueError(f"variable block {name!r} already registered")
        if isinstance(shape, (int, np.integer)):
            shape = (int(shape),)
        else:
            shape = tuple(int(s) for s in shape)
        if any(s < 0 for s in shape):
            raise ValueError(f"negative dimension in block shape {shape}")
        block = _Block(name=name, start=self._ncols, shape=shape,
                       lb=_as_bound_array(lb, shape, 0.0, "lower bound"),
                       ub=_as_bound_array(ub, shape, np.inf, "upper bound"),
                       objective=_as_bound_array(objective, shape, 0.0, "objective"))
        self._blocks[name] = block
        self._ncols += block.size
        self._arrays_cache = None
        return np.arange(block.start, block.start + block.size,
                         dtype=np.int64).reshape(shape)

    # ------------------------------------------------------------------ #
    # Constraints
    # ------------------------------------------------------------------ #
    def _coerce_triplets(self, rows, cols, vals, rhs):
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        vals = np.asarray(vals, dtype=float).ravel()
        rhs = np.atleast_1d(np.asarray(rhs, dtype=float)).ravel()
        if not (len(rows) == len(cols) == len(vals)):
            raise ValueError(
                f"COO triplet length mismatch: {len(rows)} rows, "
                f"{len(cols)} cols, {len(vals)} vals")
        if len(rows):
            if rows.min() < 0 or rows.max() >= len(rhs):
                raise ValueError("block constraint row index outside rhs range")
            if cols.min() < 0 or cols.max() >= self._ncols:
                raise ValueError("block constraint column index outside "
                                 "registered variables")
        return rows, cols, vals, rhs

    def _add_block(self, rows, cols, vals, rhs, equality: bool,
                   name: Optional[str] = None) -> None:
        rows, cols, vals, rhs = self._coerce_triplets(rows, cols, vals, rhs)
        if name is not None:
            if name in self._ub_names:
                raise ValueError(f"row block {name!r} already registered")
            total = len(rhs)
        nz = vals != 0.0
        if not nz.all():
            rows, cols, vals = rows[nz], cols[nz], vals[nz]
        # Vacuous rows (no nonzero entries) are dropped unless the empty
        # constraint is itself infeasible.
        occupied = np.bincount(rows, minlength=len(rhs)) > 0
        if not occupied.all():
            empty_rhs = rhs[~occupied]
            if equality:
                if np.any(np.abs(empty_rhs) > _EMPTY_EQ_TOL):
                    raise ValueError("infeasible empty equality constraint")
            elif np.any(empty_rhs < 0):
                raise ValueError("infeasible empty constraint 0 <= negative rhs")
            renumber = np.cumsum(occupied) - 1
            rows = renumber[rows]
            rhs = rhs[occupied]
        rhs_list = self._eq_rhs if equality else self._ub_rhs
        if name is not None:
            self._ub_names[name] = (len(rhs_list), np.flatnonzero(occupied), total)
        if not len(rhs):
            return
        chunks = self._eq_chunks if equality else self._ub_chunks
        chunks.append((rows + len(rhs_list), cols, vals))
        rhs_list.extend(rhs.tolist())
        self._arrays_cache = None

    def add_le_block(self, rows, cols, vals, rhs, name: Optional[str] = None) -> None:
        """Add a batch of ``<=`` constraints from COO triplet arrays.

        ``rows`` indexes into ``rhs`` (one constraint per rhs entry, local to
        this call), ``cols`` are global column indices (from the index arrays
        returned by :meth:`add_variable_block`), ``vals`` the coefficients.
        Zero coefficients are dropped; rows left with no entries are dropped
        as vacuous (raising if the empty constraint ``0 <= rhs`` is
        infeasible).  Repeated ``(row, col)`` entries are summed
        deterministically in :meth:`to_arrays`.  A ``name`` registers the
        batch as a row block whose duals the solution exposes through
        :meth:`LPSolution.dual`.
        """
        self._add_block(rows, cols, vals, rhs, equality=False, name=name)

    def add_ge_block(self, rows, cols, vals, rhs) -> None:
        """Add a batch of ``>=`` constraints (stored negated as ``<=``)."""
        rows, cols, vals, rhs = self._coerce_triplets(rows, cols, vals, rhs)
        self._add_block(rows, cols, -vals, -rhs, equality=False)

    def add_eq_block(self, rows, cols, vals, rhs) -> None:
        """Add a batch of ``==`` constraints from COO triplet arrays."""
        self._add_block(rows, cols, vals, rhs, equality=True)

    def add_compressed_block(self, key_parts, col_parts, val_parts,
                             equality: bool = False, rhs=None) -> np.ndarray:
        """Add constraints whose rows are identified by arbitrary integer keys.

        The workhorse of the vectorized MCF assemblers: each constraint
        family arrives as parallel lists of (row-key, column, value) array
        parts — e.g. the +1 outflow and -1 inflow halves of a flow-balance
        family keyed by ``commodity * N + node``.  The parts are
        concatenated, the used keys compressed to consecutive row ids (in
        ascending key order), and the batch added as one ``<=`` (default) or
        ``==`` call.

        ``rhs`` may be None (zeros), a callable mapping the unique key array
        to an rhs array (for key-dependent right-hand sides), or an array
        aligned with the compressed rows.  Returns the unique key array.
        """
        keys = np.concatenate([np.asarray(k, dtype=np.int64) for k in key_parts])
        cols = np.concatenate([np.asarray(c, dtype=np.int64) for c in col_parts])
        vals = np.concatenate([np.asarray(v, dtype=float) for v in val_parts])
        uniq, rows = np.unique(keys, return_inverse=True)
        if rhs is None:
            rhs_arr = np.zeros(len(uniq))
        elif callable(rhs):
            rhs_arr = rhs(uniq)
        else:
            rhs_arr = rhs
        add = self.add_eq_block if equality else self.add_le_block
        add(rows, cols, vals, rhs_arr)
        return uniq

    # ------------------------------------------------------------------ #
    @property
    def num_variables(self) -> int:
        return self._ncols

    @property
    def num_constraints(self) -> int:
        return len(self._ub_rhs) + len(self._eq_rhs)

    def block_index(self, name: str) -> np.ndarray:
        """Column index array of a registered block (same as the one returned
        by :meth:`add_variable_block`)."""
        block = self._blocks[name]
        return np.arange(block.start, block.start + block.size,
                         dtype=np.int64).reshape(block.shape)

    def block_names(self) -> List[str]:
        return sorted(self._blocks)

    # ------------------------------------------------------------------ #
    @staticmethod
    def _dedupe_coo(rows, cols, vals):
        """Canonicalize COO triplets: sort by (row, col), sum duplicates.

        scipy's ``tocsr`` also sums duplicates, but its summation order
        depends on the input ordering; sorting first makes the assembled
        matrix (data array included) bit-identical across equivalent builds.
        """
        if not len(rows):
            return rows, cols, vals
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        boundary = np.empty(len(rows), dtype=bool)
        boundary[0] = True
        np.logical_or(rows[1:] != rows[:-1], cols[1:] != cols[:-1],
                      out=boundary[1:])
        starts = np.flatnonzero(boundary)
        if len(starts) != len(rows):
            vals = np.add.reduceat(vals, starts)
            rows, cols = rows[starts], cols[starts]
        return rows, cols, vals

    def _csr(self, chunks, rhs, n):
        """One constraint family as canonical CSR plus its rhs (None if empty)."""
        if not rhs:
            return None, None
        rows, cols, vals = self._dedupe_coo(
            *(np.concatenate(part) for part in zip(*chunks)))
        return sp.csr_matrix((vals, (rows, cols)), shape=(len(rhs), n)), np.asarray(rhs)

    def to_arrays(self):
        """Assemble the LP into scipy-ready arrays (memoized until mutated).

        Returns ``(c, A_ub, b_ub, A_eq, b_eq, bounds)`` with the objective in
        *minimization* sense (the backend negates for maximization), the
        constraint matrices in canonical CSR form (None when a block is
        empty), and ``bounds`` as an ``(n, 2)`` float array using ``inf`` for
        unbounded entries.
        """
        if self._arrays_cache is not None:
            return self._arrays_cache
        n = self.num_variables
        c = np.zeros(n)
        lb = np.zeros(n)
        ub = np.full(n, np.inf)
        for block in self._blocks.values():
            stop = block.start + block.size
            lb[block.start:stop] = block.lb
            ub[block.start:stop] = block.ub
            c[block.start:stop] = block.objective

        a_ub, b_ub = self._csr(self._ub_chunks, self._ub_rhs, n)
        a_eq, b_eq = self._csr(self._eq_chunks, self._eq_rhs, n)
        bounds = np.column_stack([lb, ub])
        self._arrays_cache = (c, a_ub, b_ub, a_eq, b_eq, bounds)
        return self._arrays_cache

    def digest(self) -> str:
        """Content digest of the assembled LP and of how its solution reads back.

        A blake2b over :meth:`to_arrays` (each array's dtype, shape and
        bytes; a CSR matrix as its shape, indptr, indices and data), the
        variable-block layout and the named row blocks.  Two builders share
        a digest only if they pose the same LP and read its solution back
        through the same blocks, so the engine keys solutions by it.
        """
        h = hashlib.blake2b(digest_size=32)

        def feed(arr: np.ndarray) -> None:
            arr = np.ascontiguousarray(arr)
            h.update(f"{arr.dtype.str}{arr.shape}".encode())
            h.update(arr)

        for part in self.to_arrays():
            if part is None:
                h.update(b"none")
            elif sp.issparse(part):
                h.update(f"csr{part.shape}".encode())
                for arr in (part.indptr, part.indices, part.data):
                    feed(arr)
            else:
                feed(part)
        h.update(repr([(b.name, b.start, b.shape)
                       for b in self._blocks.values()]).encode())
        for name, (start, kept, total) in self._ub_names.items():
            h.update(repr((name, start, total)).encode())
            feed(kept)
        return h.hexdigest()

    def make_solution(self, x, objective: float,
                      ub_duals: Optional[np.ndarray] = None) -> LPSolution:
        """Wrap a solver's ``x`` vector as an array-backed :class:`LPSolution`.

        Variable blocks stay addressable through :meth:`LPSolution.block`.
        Nothing is copied or materialized eagerly.  ``ub_duals`` (one shadow
        price per assembled ``<=`` row, in the builder's objective sense)
        is sliced into the named row blocks' :meth:`LPSolution.dual` arrays.
        """
        blocks = {name: (b.start, b.shape) for name, b in self._blocks.items()}
        duals: Dict[str, np.ndarray] = {}
        if ub_duals is not None:
            for name, (start, kept, total) in self._ub_names.items():
                dual = np.zeros(total)
                dual[kept] = ub_duals[start:start + len(kept)]
                duals[name] = dual
        return LPSolution(objective=objective, x=np.asarray(x, dtype=float),
                          blocks=blocks, duals=duals)
