"""Generalized inverses of square matrices: Drazin, core-EP, and the m-fold
weak group inverse, each certified on construction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import (
    DEFAULT_TOL,
    CertificationError,
    DimensionError,
    ToleranceConfig,
    _judge,
    as_matrix,
    index_of,
    matrix_power,
    mp_inverse,
    projector_onto,
    rank_of,
)

__all__ = ["SquareInverseResult", "drazin", "core_ep", "m_wgi"]


@dataclass(frozen=True)
class SquareInverseResult:
    """Computed inverse with the index that was used and the raw residuals of
    the defining equations."""

    value: np.ndarray
    index_used: int
    residuals: dict


def _square(S) -> np.ndarray:
    S = as_matrix(S)
    if S.shape[0] != S.shape[1]:
        raise DimensionError(f"expected a square matrix, got {S.shape}")
    return S


def _certify(kind: str, checks: dict, tol: ToleranceConfig) -> dict:
    """Decide every check and return {label: residual}; raise on the worst
    failing one.

    checks: label -> (residual matrices, reference matrices), each judged once
    by `_judge`: a pass proved by the Frobenius bound records that bound, any
    other check its exact spectral residual.
    """
    residuals = {}
    worst = None
    for label, (terms, refs) in checks.items():
        residual, ok = _judge(terms, refs, tol)
        residuals[label] = residual
        if not ok and (worst is None or residual > worst[1]):
            worst = (label, residual)
    if worst is not None:
        raise CertificationError(
            f"{kind}: equation {worst[0]!r} has residual {worst[1]:.3e} beyond tolerance"
        )
    return residuals


def _eq(lhs, rhs) -> tuple:
    return ((lhs - rhs,), (rhs,))


# The public functions decide the index, build the factors a kernel takes and
# call it; a WeightedPair holds both indices and its factors and calls the
# kernels directly.


def drazin(S, tol: ToleranceConfig = DEFAULT_TOL) -> SquareInverseResult:
    """Drazin inverse through the power representation S^k (S^(2k+1))^+ S^k."""
    S = _square(S)
    return _drazin(S, index_of(S, tol), tol)


def _drazin(S: np.ndarray, k: int, tol: ToleranceConfig) -> SquareInverseResult:
    Sk = matrix_power(S, k)
    X = Sk @ mp_inverse(matrix_power(S, 2 * k + 1), tol) @ Sk
    residuals = _certify(
        "drazin",
        {
            "outer": _eq(X @ S @ X, X),
            "commute": _eq(S @ X, X @ S),
            "power": _eq(matrix_power(S, k + 1) @ X, Sk),
        },
        tol,
    )
    return SquareInverseResult(value=X, index_used=k, residuals=residuals)


def core_ep(S, tol: ToleranceConfig = DEFAULT_TOL) -> SquareInverseResult:
    """Core-EP inverse S^D S^k (S^k)^+; its range and null space both come
    from S^k."""
    S = _square(S)
    k = index_of(S, tol)
    P = projector_onto(matrix_power(S, k), tol)
    return _core_ep(S, k, _drazin(S, k, tol).value, P, tol)


def _core_ep(
    S: np.ndarray, k: int, Sd: np.ndarray, P: np.ndarray, tol: ToleranceConfig
) -> SquareInverseResult:
    # Sd is the certified Drazin inverse of S, P the projector onto R(S^k).
    Sk = matrix_power(S, k)
    X = Sd @ P
    residuals = _certify(
        "core_ep",
        {
            "outer": _eq(X @ S @ X, X),
            "projector": _eq(S @ X, P),
            "range equality": ((X - P @ X, Sk - projector_onto(X, tol) @ Sk), (X, Sk)),
        },
        tol,
    )
    # defensive: the construction already forces rank(X) = rank(S^k)
    if rank_of(X, tol) != rank_of(Sk, tol):
        raise CertificationError("core_ep: rank differs from rank(S^k)")
    return SquareInverseResult(value=X, index_used=k, residuals=residuals)


def m_wgi(S, m: int, tol: ToleranceConfig = DEFAULT_TOL) -> SquareInverseResult:
    """m-fold weak group inverse (S^core-EP)^(m+1) S^m.

    m = 1 is the weak group inverse; large m approaches the Drazin inverse.
    """
    S = _square(S)
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    k = index_of(S, tol)
    P = projector_onto(matrix_power(S, k), tol)
    C = _core_ep(S, k, _drazin(S, k, tol).value, P, tol).value
    return _m_wgi(S, m, k, C, P, tol)


def _m_wgi(
    S: np.ndarray, m: int, k: int, C: np.ndarray, P: np.ndarray, tol: ToleranceConfig
) -> SquareInverseResult:
    # C is the certified core-EP inverse of S, P the projector onto R(S^k).
    X = matrix_power(C, m + 1) @ matrix_power(S, m)
    residuals = _certify(
        "m_wgi",
        {
            "outer": _eq(X @ S @ X, X),
            "product": _eq(S @ X, matrix_power(C, m) @ matrix_power(S, m)),
            "range": ((X - P @ X,), (X,)),
        },
        tol,
    )
    return SquareInverseResult(value=X, index_used=k, residuals=residuals)
