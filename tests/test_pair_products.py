"""The products a WeightedPair keeps for the catalog constructors.

A product of pair factors alone (B, W, B^+, the kernels, nested certified
values) is formed once per pair and read from the pair's memo; the value is
still formed by its last product, and every certificate row is still
evaluated, on every call. So an error that reaches a value or a row through
a cached product is still refused: planting a copy of any such entry moved by
1e-6 relative must make every constructor that reads it raise."""

import numpy as np
import pytest

from wginv._gen import random_pair
from wginv.matcore import CertificationError, ToleranceConfig, WeightedPair
from wginv.winv import CATALOG, PARAMETRIZED_KINDS, compute_kind

# the products the catalog constructors keep on a pair (and on its dual)
PRODUCTS = {
    "((BW)^D)^2",
    "B ((WB)^D)^2",
    "B (WB)^core-EP",
    "W B W",
    "(CW)^(m+1) (BW)^(m-1)",
    "(CW)^m (BW)^(m-1) B",
    "B (WB)^wgi P",
    "B^+ B",
    "B^+ B W B^core-EP,W",
    "W B^core-EP,W W B",
    "W B^wgi,W W B",
    "W B^D,W W",
    "B W B^D,W W",
}

# what else a catalog call keeps: powers, forms, factors, kernels and the
# certified values that other constructors compose
FACTORS = {
    "BW^",
    "WB^",
    "staircase",
    "B^+",
    "B^+ BW^",
    "(BW)^D",
    "(WB)^D",
    "(WB)^core-EP",
    "w_drazin",
    "w_core_ep",
    "w_m_wgi",
}

CALLS = [
    (kind, m) for kind in sorted(CATALOG) for m in ((1, 2) if kind in PARAMETRIZED_KINDS else (1,))
]


def _call(pair, kind, m):
    return compute_kind(pair, kind, m=m)


def _fresh():
    return random_pair(7, 6, 2, 5)


def _reads(monkeypatch, kind, m) -> set:
    """(side, key) of every product a warm call reads, side "pair" or "dual"."""
    pair = _fresh()
    _call(pair, kind, m)
    sides = {id(pair._memo): "pair", id(pair.H._memo): "dual"}
    reads = set()
    cached = WeightedPair._cached

    def recording(self, key, build):
        if key[0] in PRODUCTS:
            reads.add((sides[id(self._memo)], key))
        return cached(self, key, build)

    monkeypatch.setattr(WeightedPair, "_cached", recording)
    _call(pair, kind, m)
    monkeypatch.setattr(WeightedPair, "_cached", cached)
    return reads


def _perturbed(A: np.ndarray) -> np.ndarray:
    rng = np.random.default_rng(5)
    E = rng.standard_normal(A.shape) + 1j * rng.standard_normal(A.shape)
    moved = A + 1e-6 * np.linalg.norm(A) * E / np.linalg.norm(E)
    moved.flags.writeable = False
    return moved


@pytest.mark.parametrize("kind, m", CALLS)
def test_a_perturbed_product_is_refused_by_every_reader(monkeypatch, kind, m):
    reads = _reads(monkeypatch, kind, m)
    for side, key in sorted(reads):
        pair = _fresh()
        _call(pair, kind, m)
        memo = pair._memo if side == "pair" else pair.H._memo
        memo[key] = _perturbed(memo[key])
        with pytest.raises(CertificationError):
            _call(pair, kind, m)


def test_every_product_has_a_reader_and_every_entry_is_listed(monkeypatch):
    read = {key[0] for kind, m in CALLS for _, key in _reads(monkeypatch, kind, m)}
    assert read == PRODUCTS
    pair = _fresh()
    for kind, m in CALLS:
        _call(pair, kind, m)
    kept = {key[0] for key in pair._memo} | {key[0] for key in pair.H._memo}
    assert kept <= PRODUCTS | FACTORS
    assert PRODUCTS <= kept


@pytest.mark.parametrize("kind, m", CALLS)
def test_warm_calls_read_the_products_and_match_the_cold_call(kind, m):
    pair = _fresh()
    cold = _call(pair, kind, m)
    keys = set(pair._memo), set(pair.H._memo)
    warm = _call(pair, kind, m)
    assert (set(pair._memo), set(pair.H._memo)) == keys  # nothing new is kept
    assert warm.value.tobytes() == cold.value.tobytes()
    assert repr(warm.residuals) == repr(cold.residuals)
    assert warm.value is not cold.value  # the value is formed on every call
    assert warm.value.flags.writeable


def test_products_that_do_not_depend_on_the_tolerance_are_kept_once():
    pair = _fresh()
    compute_kind(pair, "w-core-ep")
    compute_kind(pair, "w-core-ep", tol=ToleranceConfig(residual_atol=1e-7))
    assert [key for key in pair._memo if key[0] == "W B W"] == [("W B W",)]
    assert len([key for key in pair._memo if key[0] == "B (WB)^core-EP"]) == 2

