"""Reference fixtures and seeded random instance generators.

The two fixed fixtures are small integer matrices whose weighted inverses are
known in closed form; the random generators produce pairs with a prescribed
index by conjugating block-triangular cores with orthogonal factors.
"""

from __future__ import annotations

import numpy as np

from .matcore import (
    DEFAULT_TOL,
    GenerationError,
    ToleranceConfig,
    WeightedPair,
    weighted_pair,
)

__all__ = [
    "ex1_pair",
    "ex1_member",
    "ex1_weak_mpd",
    "ex2_matrices",
    "ex2_member",
    "random_orthogonal",
    "random_well_conditioned",
    "random_pair",
    "random_square_with_index",
    "commuting_products",
    "rol_matrices",
]

# 5 x 4 matrix of index 3 under the companion weight below.
_A1 = np.array(
    [
        [1, 1, 0, 1],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
        [0, 0, 0, 0],
    ],
    dtype=float,
)

_W1 = np.array(
    [
        [1, 0, 0, 0, 1],
        [0, 0, 1, 0, 0],
        [0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0],
    ],
    dtype=float,
)

# Order-law fixture: three 5 x 4 matrices sharing one rank-one weight.
_A2 = np.array(
    [
        [1, 1, 1, 1],
        [0, 0, 1, 0],
        [0, 1, 0, 1],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
    ],
    dtype=float,
)

_B2 = np.array(
    [
        [1, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
    ],
    dtype=float,
)

_C2 = np.array(
    [
        [1, 1, 0, 1],
        [0, 1, 1, 0],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
    ],
    dtype=float,
)

_W2 = np.array(
    [
        [1, 1, 0, 1, 1],
        [0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0],
    ],
    dtype=float,
)


def ex1_pair(tol: ToleranceConfig = DEFAULT_TOL) -> WeightedPair:
    """The 5 x 4 / 4 x 5 fixture pair; both products have index 3."""
    return weighted_pair(_A1, _W1, tol)


def ex1_member(x1: float, x2: float) -> np.ndarray:
    """Rank-one member of the fixture's left solution family: the inverses of
    the family all share first row (1, x1, 0, x2), all other rows zero; real
    unless x1 or x2 is complex."""
    X = np.zeros((5, 4), dtype=np.result_type(float, x1, x2))
    X[0, 0] = 1.0
    X[0, 1] = x1
    X[0, 3] = x2
    return X


def ex1_weak_mpd(x1: float) -> np.ndarray:
    """Closed form of the fixture's weak MPD inverse: first row (1, 0, x1, 0, 1),
    real unless x1 is complex."""
    Y = np.zeros((4, 5), dtype=np.result_type(float, x1))
    Y[0, 0] = 1.0
    Y[0, 2] = x1
    Y[0, 4] = 1.0
    return Y


def ex2_matrices() -> tuple:
    """Copies of the order-law fixture (A, B, C, W)."""
    return _A2.copy(), _B2.copy(), _C2.copy(), _W2.copy()


def ex2_member(row) -> np.ndarray:
    """5 x 4 matrix whose first row is `row`, all other rows zero.

    The order-law fixture's solution families all consist of exactly these
    matrices with leading entry 1. Real unless an entry of `row` is complex.
    """
    row = np.asarray(row).ravel()
    if row.shape != (4,):
        raise ValueError(f"expected 4 first-row entries, got {row.shape}")
    X = np.zeros((5, 4), dtype=np.result_type(float, row))
    X[0, :] = row
    return X


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish orthogonal factor with a deterministic sign convention."""
    if n == 0:
        return np.zeros((0, 0))
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diagonal(R) + (np.diagonal(R) == 0.0))


def random_well_conditioned(
    rng: np.random.Generator, n: int, low: float = 0.5, high: float = 1.5
) -> np.ndarray:
    """Invertible factor with singular values drawn from [low, high]."""
    if n == 0:
        return np.zeros((0, 0))
    U = random_orthogonal(rng, n)
    V = random_orthogonal(rng, n)
    return U @ np.diag(rng.uniform(low, high, size=n)) @ V.T


def _shift(t: int) -> np.ndarray:
    # nilpotent single Jordan block of size t (ones on the superdiagonal)
    J = np.zeros((t, t))
    if t > 1:
        J[np.arange(t - 1), np.arange(1, t)] = 1.0
    return J


def random_pair(
    m: int,
    n: int,
    index: int,
    seed,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> WeightedPair:
    """Seeded pair with ind(BW) = ind(WB) = index.

    Both products are built around an invertible leading block of size
    q = min(m, n) - index and a shift block of size `index`, so the index is
    exact by construction; a failed post-check raises GenerationError.
    """
    if m < 1 or n < 1:
        raise ValueError("dimensions must be positive")
    if index < 0:
        raise ValueError("index must be nonnegative")
    rng = np.random.default_rng(seed)
    t = index
    if t == 0:
        if m != n:
            raise GenerationError("index 0 forces invertible products, so m must equal n")
        B = random_well_conditioned(rng, m)
        W = random_well_conditioned(rng, m)
        return weighted_pair(B, W, tol)
    q = min(m, n) - t
    if q < 1 or m - q < t or n - q < t:
        raise GenerationError(
            f"cannot realize index {t} inside dimensions ({m}, {n})"
        )
    M = random_orthogonal(rng, m)
    N = random_orthogonal(rng, n)
    B1 = random_well_conditioned(rng, q)
    W1 = random_well_conditioned(rng, q)
    B2 = 0.5 * rng.standard_normal((q, n - q))
    W2 = 0.5 * rng.standard_normal((q, m - q))
    B3 = np.zeros((m - q, n - q))
    B3[:t, :t] = _shift(t)
    W3 = np.zeros((n - q, m - q))
    W3[:t, :t] = np.eye(t)

    Bcore = np.zeros((m, n))
    Bcore[:q, :q] = B1
    Bcore[:q, q:] = B2
    Bcore[q:, q:] = B3
    Wcore = np.zeros((n, m))
    Wcore[:q, :q] = W1
    Wcore[:q, q:] = W2
    Wcore[q:, q:] = W3

    pair = weighted_pair(M @ Bcore @ N.T, N @ Wcore @ M.T, tol)
    if pair.k_bw != t or pair.k_wb != t:
        raise GenerationError(
            f"generated pair has indices ({pair.k_bw}, {pair.k_wb}), wanted {t}"
        )
    return pair


def random_square_with_index(
    n: int, index: int, seed, tol: ToleranceConfig = DEFAULT_TOL
) -> np.ndarray:
    """Seeded square matrix with the prescribed index."""
    if n < 1:
        raise ValueError("dimension must be positive")
    if index < 0 or index > n:
        raise ValueError(f"index must lie in [0, {n}]")
    rng = np.random.default_rng(seed)
    t = index
    if t == 0:
        return random_well_conditioned(rng, n)
    if n - t < 1 and t != n:
        raise GenerationError(f"cannot realize index {t} in dimension {n}")
    core = np.zeros((n, n))
    g = n - t
    core[:g, :g] = random_well_conditioned(rng, g)
    core[:g, g:] = 0.5 * rng.standard_normal((g, t))
    core[g:, g:] = _shift(t)
    Q = random_orthogonal(rng, n)
    return Q @ core @ Q.T


# the size of the shift block in the core T0 of both order-law generators
_NILPOTENT_SIZE = 2


def commuting_products(m: int, n: int, seed, count: int = 2) -> tuple:
    """Weight W plus `count` matrices A_i whose products A_i W all commute.

    Every A_i W is a polynomial p_i(T0) of one shared core T0 (padded by
    zeros), with p_i(x) = x (c0 + c1 x) and c0 bounded away from zero, so the
    products commute exactly and each index equals the shift size.
    Returns (W, [A_1, ..., A_count]).
    """
    if m < 3 or n < 3:
        raise ValueError("need m, n >= 3 to fit an invertible part and a shift")
    rng = np.random.default_rng(seed)
    r = min(m, n) - 1
    t = min(_NILPOTENT_SIZE, r - 1)
    if t < 1:
        raise GenerationError(f"no room for a nilpotent part inside rank {r}")
    g = r - t
    G = random_well_conditioned(rng, g, low=0.4, high=1.1)
    T0 = np.zeros((r, r))
    T0[:g, :g] = G
    T0[g:, g:] = _shift(t)
    W1 = random_well_conditioned(rng, r)
    W1_inv = np.linalg.inv(W1)
    M = random_orthogonal(rng, m)
    N = random_orthogonal(rng, n)

    Wcore = np.zeros((n, m))
    Wcore[:r, :r] = W1
    W = N @ Wcore @ M.T

    mats = []
    for _ in range(count):
        c0 = rng.choice([-1.0, 1.0]) * rng.uniform(0.6, 1.4)
        c1 = rng.uniform(-0.3, 0.3)
        p = T0 @ (c0 * np.eye(r) + c1 * T0)
        Acore = np.zeros((m, n))
        Acore[:r, :r] = p @ W1_inv
        Acore[:r, r:] = 0.3 * rng.standard_normal((r, n - r))
        mats.append(M @ Acore @ N.T)
    return W, mats


def rol_matrices(n: int, seed) -> tuple:
    """Square reverse-order-law instance: invertible weight W, B = T0 W^-1,
    and invertible A = p(T0) W^-1 with p(0) != 0, so A W and B W commute.

    Returns (W, A, B).
    """
    if n < 3:
        raise ValueError("need n >= 3")
    rng = np.random.default_rng(seed)
    t = min(_NILPOTENT_SIZE, n - 1)
    g = n - t
    T0 = np.zeros((n, n))
    T0[:g, :g] = random_well_conditioned(rng, g, low=0.4, high=1.1)
    T0[g:, g:] = _shift(t)
    W = random_well_conditioned(rng, n)
    W_inv = np.linalg.inv(W)
    c0 = rng.choice([-1.0, 1.0]) * rng.uniform(0.6, 1.4)
    c1 = rng.uniform(-0.3, 0.3)
    A = (c0 * np.eye(n) + c1 * T0) @ W_inv
    B = T0 @ W_inv
    return W, A, B
