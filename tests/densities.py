"""State and dense density-matrix helpers that only the tests need.

``qtss.qsim`` reduces sparse states straight to the registers it keeps and
never needs a spectrum, a comparison or a dense matrix of a whole reduced
state, nor a comparison of two sparse states branch by branch, so these
operations on a :class:`~qtss.qsim.SparseState` or a
:class:`~qtss.qsim.DensityMatrix` live here, as oracles for the tests.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from qtss.qsim import MATCH_TOL, DensityMatrix, SparseState


def branch_dict(state: SparseState) -> dict[tuple[int, ...], complex]:
    """The state as a map from label digits to amplitude."""
    return {tuple(int(d) for d in row): complex(a) for row, a in zip(state.labels, state.amps)}


def states_allclose(a: SparseState, b: SparseState, tol: float = MATCH_TOL) -> bool:
    """Branch-by-branch amplitude comparison (no global-phase slack)."""
    if a.q != b.q or a.num_registers != b.num_registers:
        return False
    mine, theirs = branch_dict(a), branch_dict(b)
    for lbl in mine.keys() | theirs.keys():
        if abs(mine.get(lbl, 0.0) - theirs.get(lbl, 0.0)) > tol:
            return False
    return True


def density(q: int, num_registers: int, matrix) -> DensityMatrix:
    """The reduced state with the given dense matrix, every index occupied.

    Only the trace is checked, as for every reduced state; the matrix must
    be Hermitian and ``q**num_registers`` square.
    """
    matrix = np.array(matrix, dtype=np.complex128)
    assert matrix.shape == (q**num_registers,) * 2, matrix.shape
    diagonal = matrix.diagonal().real.copy()
    np.fill_diagonal(matrix, 0.0)
    return DensityMatrix._reduced(q, num_registers, diagonal, np.arange(len(diagonal)), matrix)


def allclose(rho: DensityMatrix, sigma: DensityMatrix, tol: float = MATCH_TOL) -> bool:
    """Same registers, and dense matrices equal entry by entry within ``tol``."""
    return (
        rho.q == sigma.q
        and rho.num_registers == sigma.num_registers
        and bool(np.allclose(rho.matrix, sigma.matrix, atol=tol, rtol=0.0))
    )


def forbid_dense(monkeypatch) -> None:
    """Make reading any dense density matrix fail the test."""

    def dense(rho):
        raise AssertionError("a dense density matrix was built")

    monkeypatch.setattr(DensityMatrix, "matrix", property(dense))


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Half the sum of the absolute eigenvalues of the dense ``rho - sigma``."""
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(rho.matrix - sigma.matrix))))


def eigenvalues(rho: DensityMatrix, psd_tol: float = MATCH_TOL) -> np.ndarray:
    """Ascending real spectrum; checks positivity within ``psd_tol``."""
    vals = np.linalg.eigvalsh(rho.matrix)
    if vals.size and vals[0] < -psd_tol:
        raise ValueError(f"density matrix has negative eigenvalue {vals[0]}")
    return vals


def partial_trace(rho: DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Trace out all but the given positions (relative to this matrix)."""
    keep = [int(p) for p in keep]
    t = rho.num_registers
    for p in keep:
        if not 0 <= p < t:
            raise IndexError(f"position {p} out of range")
    if len(set(keep)) != len(keep):
        raise ValueError("duplicate positions")
    tensor_form = rho.matrix.reshape((rho.q,) * (2 * t))
    drop = [p for p in range(t) if p not in keep]
    for offset, p in enumerate(sorted(drop)):
        axis = p - offset
        tensor_form = np.trace(tensor_form, axis1=axis, axis2=axis + tensor_form.ndim // 2)
    # Axes now follow the kept positions in ascending order; reorder.
    ascending = sorted(keep)
    perm = [ascending.index(p) for p in keep]
    kd = len(keep)
    tensor_form = tensor_form.transpose(tuple(perm) + tuple(kd + i for i in perm))
    dim = rho.q**kd
    return density(rho.q, kd, tensor_form.reshape(dim, dim))
