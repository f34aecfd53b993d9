"""Generalized inverses of square matrices: Drazin, core-EP, and the m-fold
weak group inverse, each certified on construction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import (
    DEFAULT_TOL,
    ToleranceConfig,
    _certify,
    _Row,
    _staircase,
    _Staircase,
    matrix_power,
)

__all__ = ["SquareInverseResult", "drazin", "core_ep", "m_wgi"]


@dataclass(frozen=True)
class SquareInverseResult:
    """Computed inverse with the index that was used and the raw residuals of
    the defining equations."""

    value: np.ndarray
    index_used: int
    residuals: dict


# The kernels take a staircase form (matcore), which keeps S: the public
# functions factor S, a WeightedPair keeps the forms of BW and WB.


def drazin(S, tol: ToleranceConfig = DEFAULT_TOL) -> SquareInverseResult:
    """Drazin inverse U [[T^-1, X12], [0, 0]] U^* of the staircase form
    S = U [[T, S12], [0, N]] U^*, X12 = sum_(j<k) T^-(j+2) S12 N^j (Meyer and
    Rose)."""
    return _drazin(_staircase(S, tol), tol)


def _drazin_checks(S: np.ndarray, X: np.ndarray, k: int) -> dict:
    """The defining equations of X = S^D for S of index k."""
    Sk = matrix_power(S, k)
    return {
        "outer": _Row(X @ S @ X, X),
        "commute": _Row(S @ X, X @ S),
        "power": _Row(S @ Sk @ X, Sk),
    }


def _drazin(form: _Staircase, tol: ToleranceConfig) -> SquareInverseResult:
    q, Ti, core = form.q, form.T_inv, form.core
    X12 = np.zeros_like(core[:q, q:])
    for _ in range(form.k):  # Horner's scheme
        X12 = Ti @ (Ti @ core[:q, q:] + X12 @ core[q:, q:])
    X = form.U[:, :q] @ np.concatenate((Ti, X12), axis=1) @ form.U.conj().T
    residuals = _certify("drazin", _drazin_checks(form.S, X, form.k), tol)
    return SquareInverseResult(value=X, index_used=form.k, residuals=residuals)


def core_ep(S, tol: ToleranceConfig = DEFAULT_TOL) -> SquareInverseResult:
    """Core-EP inverse U1 T^-1 U1^* of the staircase form, U1 the leading q
    columns of U: its range and null space both come from S^k."""
    return _core_ep(_staircase(S, tol), tol)


def _core_ep_checks(form: _Staircase, X: np.ndarray) -> dict:
    """The rows that fix X = S^core-EP, with P = U1 U1^* the projector onto
    R(S^k): X S X = X, S X = P and X = P X.

    The projector and range rows fix X uniquely. S X = P forces rank X >= q
    and X = P X, R(X) inside R(S^k), forces rank X <= q, so R(X) = R(S^k).
    Two solutions differ by a D with S D = 0 and R(D) inside R(S^k), which
    meets N(S) only in 0 at k the index, so D = 0: X is the core-EP inverse,
    the unique solution of S X = P with R(X) inside R(S^k)."""
    S, P = form.S, form.P
    return {
        "outer": _Row(X @ S @ X, X),
        "projector": _Row(S @ X, P),
        "range": _Row(X, P @ X, X),
    }


def _core_ep(form: _Staircase, tol: ToleranceConfig) -> SquareInverseResult:
    U1 = form.U[:, : form.q]
    X = U1 @ form.T_inv @ U1.conj().T
    residuals = _certify("core_ep", _core_ep_checks(form, X), tol)
    return SquareInverseResult(value=X, index_used=form.k, residuals=residuals)


def m_wgi(S, m: int, tol: ToleranceConfig = DEFAULT_TOL) -> SquareInverseResult:
    """m-fold weak group inverse (S^core-EP)^(m+1) S^m.

    m = 1 is the weak group inverse; large m approaches the Drazin inverse.
    """
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    form = _staircase(S, tol)
    return _m_wgi(form, m, _core_ep(form, tol).value, tol)


def _m_wgi(form: _Staircase, m: int, C: np.ndarray, tol: ToleranceConfig) -> SquareInverseResult:
    # C is the certified core-EP inverse of S
    S = form.S
    Sm = matrix_power(S, m)
    X = matrix_power(C, m + 1) @ Sm
    residuals = _certify(
        "m_wgi",
        {
            "outer": _Row(X @ S @ X, X),
            "product": _Row(S @ X, matrix_power(C, m) @ Sm),
            "range": _Row(X, form.P @ X, X),
        },
        tol,
    )
    return SquareInverseResult(value=X, index_used=form.k, residuals=residuals)
