"""Seeded test matrices whose generalized inverses are known from their blocks.

Every input is a unitary similarity of a block upper-triangular core

    S = U [[T, S12], [0, Nil]] U^*,   T invertible, Nil nilpotent,

so the Drazin inverse follows from the blocks (Meyer and Rose):

    S^D = U [[T^-1, X12], [0, 0]] U^*,  X12 = sum_j T^-(j+2) S12 Nil^j,

and, because U is unitary, this is also the core-EP decomposition of S, whose
core-EP inverse is U [[T^-1, 0], [0, 0]] U^* (H. Wang, LAA 508, 2016). The
weighted pairs use the same blocks for B W and W B. Only Moore-Penrose
inverses come from ``np.linalg.pinv``, with an explicit cutoff far from every
singular value the constructions produce.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PINV_RTOL = 1e-10


def unitary(rng: np.random.Generator, n: int, complex_entries: bool) -> np.ndarray:
    """Haar-distributed unitary (or orthogonal) factor of order n."""
    Z = rng.standard_normal((n, n))
    if complex_entries:
        Z = Z + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R)
    return Q * (d / np.abs(d))


def well_conditioned(
    rng: np.random.Generator, n: int, complex_entries: bool, low=0.5, high=1.5
) -> np.ndarray:
    """Invertible block with singular values drawn from [low, high]."""
    U = unitary(rng, n, complex_entries)
    V = unitary(rng, n, complex_entries)
    return (U * rng.uniform(low, high, size=n)) @ V.conj().T


def gaussian(rng: np.random.Generator, shape, complex_entries: bool) -> np.ndarray:
    G = rng.standard_normal(shape)
    if complex_entries:
        G = G + 1j * rng.standard_normal(shape)
    return G


def shift(t: int) -> np.ndarray:
    """Nilpotent Jordan block of order t (ones on the superdiagonal)."""
    J = np.zeros((t, t))
    if t > 1:
        J[np.arange(t - 1), np.arange(1, t)] = 1.0
    return J


def nilpotent_index(Nil: np.ndarray) -> int:
    """Index of an exactly nilpotent block built from shifts (entries are
    small integers, so the powers are exact)."""
    t = Nil.shape[0]
    P = np.eye(t)
    for k in range(t + 1):
        if not P.any():
            return k
        P = P @ Nil
    raise ValueError("block is not nilpotent")


def core_blocks_inverses(core: np.ndarray, q: int) -> tuple:
    """Drazin and core-EP inverses of [[T, S12], [0, Nil]] with T of order q."""
    n = core.shape[0]
    T, S12, Nil = core[:q, :q], core[:q, q:], core[q:, q:]
    drz = np.zeros((n, n), dtype=complex)
    cep = np.zeros((n, n), dtype=complex)
    if q:
        Tinv = np.linalg.inv(T)
        X12 = np.zeros(S12.shape, dtype=complex)
        left = Tinv @ Tinv
        right = np.eye(n - q)
        for _ in range(n - q):
            X12 += left @ S12 @ right
            left = left @ Tinv
            right = right @ Nil
        drz[:q, :q] = Tinv
        drz[:q, q:] = X12
        cep[:q, :q] = Tinv
    return drz, cep


def pinv(A: np.ndarray) -> np.ndarray:
    return np.linalg.pinv(A, rtol=PINV_RTOL)


def range_projector(A: np.ndarray) -> np.ndarray:
    return A @ pinv(A)


@dataclass
class SquareTruth:
    """S = U core U^* with its core, constructed index, Drazin, core-EP and
    Moore-Penrose inverses."""

    S: np.ndarray
    core: np.ndarray
    index: int
    drazin: np.ndarray
    core_ep: np.ndarray
    pinv: np.ndarray


def square_case(U: np.ndarray, core: np.ndarray, q: int) -> SquareTruth:
    drz, cep = core_blocks_inverses(core, q)
    Uh = U.conj().T
    S = U @ core @ Uh
    return SquareTruth(
        S=S,
        core=core,
        index=nilpotent_index(core[q:, q:]),
        drazin=U @ drz @ Uh,
        core_ep=U @ cep @ Uh,
        pinv=pinv(S),
    )


@dataclass
class PairTruth:
    """B (m x n) and W (n x m) with ind(BW) = ind(WB) = index, the unitary
    M of B W = M [[T, S12], [0, Nil]] M^* with T of order q, and the inverses
    the references need."""

    B: np.ndarray
    W: np.ndarray
    index: int
    q: int
    M: np.ndarray
    bw_drazin: np.ndarray
    wb_core_ep: np.ndarray
    B_pinv: np.ndarray


def weighted_case(
    rng: np.random.Generator,
    m: int,
    n: int,
    index: int,
    complex_entries: bool = True,
    coupling: float = 0.5,
) -> PairTruth:
    """B = M Bc N^*, W = N Wc M^* with block upper-triangular Bc, Wc whose
    trailing blocks are a shift of order `index` and the matching identity."""
    t = index
    q = min(m, n) - t
    if t < 1 or q < 1 or m - q < t or n - q < t:
        raise ValueError(f"cannot realize index {t} in a {m} x {n} pair")
    M = unitary(rng, m, complex_entries)
    N = unitary(rng, n, complex_entries)
    Bc = np.zeros((m, n), dtype=complex)
    Wc = np.zeros((n, m), dtype=complex)
    Bc[:q, :q] = well_conditioned(rng, q, complex_entries)
    Wc[:q, :q] = well_conditioned(rng, q, complex_entries)
    Bc[:q, q:] = coupling * gaussian(rng, (q, n - q), complex_entries)
    Wc[:q, q:] = coupling * gaussian(rng, (q, m - q), complex_entries)
    Bc[q : q + t, q : q + t] = shift(t)
    Wc[q : q + t, q : q + t] = np.eye(t)
    bw = square_case(M, Bc @ Wc, q)
    wb = square_case(N, Wc @ Bc, q)
    if bw.index != t or wb.index != t:
        raise AssertionError("construction produced the wrong index")
    B = M @ Bc @ N.conj().T
    return PairTruth(
        B=B,
        W=N @ Wc @ M.conj().T,
        index=t,
        q=q,
        M=M,
        bw_drazin=bw.drazin,
        wb_core_ep=wb.core_ep,
        B_pinv=pinv(B),
    )
