"""The products a WeightedPair keeps for the catalog constructors.

A product of pair factors alone (B, W, B^+, the kernels, nested certified
values) that a value is formed from is formed once per pair and read from the
pair's memo; the value is still formed by its last product, and every
certificate row is still evaluated, on every call. So an error that reaches a
value through a cached product is still refused: planting a copy of any such
entry moved by 1e-6 relative must make every constructor that reads it raise,
above the probe gate with the message of the formed rows."""

import math

import numpy as np
import pytest

from wginv import matcore
from wginv._gen import random_pair
from wginv.matcore import CertificationError, ToleranceConfig, WeightedPair
from wginv.winv import CATALOG, PARAMETRIZED_KINDS, compute_kind

# the products the catalog constructors keep on a pair (and on its dual)
PRODUCTS = {
    "((BW)^D)^2",
    "B (WB)^core-EP",
    "(CW)^(m+1) (BW)^(m-1)",
    "B^+ B",
    "B^+ B W B^core-EP,W",
    "W B^core-EP,W W B",
    "W B^wgi,W W B",
    "W B^D,W W",
    # the certified kernel (WB)^wgi(m) that w_m_weak_core's product row reads
    "(WB)^wgi",
}

# what else a catalog call keeps: powers, forms, factors, kernels and the
# certified values that other constructors compose
FACTORS = {
    "BW^",
    "WB^",
    "staircase",
    # the staircase form's projector onto the stabilized power, whose probe
    # images the pair keeps
    "projector",
    "B^+",
    "B^+ BW^",
    "(BW)^D",
    "(WB)^D",
    # a dual's record that the adjoint of the pair's kernel passed its
    # certificate: the residuals, no array
    "(BW)^D certified",
    "(WB)^D certified",
    "(WB)^core-EP",
    # the probe blocks that the rows of a pair above the probe gate are judged on
    "probe",
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


def _probed():  # min(m, n) at the probe gate or above
    return random_pair(40, 36, 2, 5)


def _reads(monkeypatch, kind, m, fresh=_fresh) -> set:
    """(side, key) of every product a warm call reads, side "pair" or "dual"."""
    pair = fresh()
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


def _refusal(kind, m, side, key, fresh=_fresh) -> str:
    """The message of a warm call on a pair whose product `key` is perturbed."""
    pair = fresh()
    _call(pair, kind, m)
    memo = pair._memo if side == "pair" else pair.H._memo
    memo[key] = _perturbed(memo[key])
    with pytest.raises(CertificationError) as refused:
        _call(pair, kind, m)
    return str(refused.value)


@pytest.mark.parametrize("kind, m", CALLS)
def test_a_perturbed_product_is_refused_by_every_reader(monkeypatch, kind, m):
    for side, key in sorted(_reads(monkeypatch, kind, m)):
        _refusal(kind, m, side, key)


@pytest.mark.parametrize("kind, m", CALLS)
def test_above_the_probe_gate_a_refusal_names_the_formed_rows_residual(monkeypatch, kind, m):
    # a row the probe does not pass is formed and judged exactly, so every
    # refusal, and its message, is the one of the formed rows alone
    reads = sorted(_reads(monkeypatch, kind, m, _probed))
    assert reads
    probed = [_refusal(kind, m, *read, _probed) for read in reads]
    monkeypatch.setattr(matcore, "_PROBE_GATE", math.inf)
    assert probed == [_refusal(kind, m, *read, _probed) for read in reads]


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


def test_products_are_kept_once_per_pair_and_powers_once():
    # a pair has one tolerance, so each product has one key; the same B and W
    # built at another tolerance are another pair, with a memo of its own
    pair = _fresh()
    compute_kind(pair, "w-core-ep")
    compute_kind(pair, "w-core-ep")
    assert [key for key in pair._memo if key[0] == "WB^"] == [("WB^", 1)]
    assert [key for key in pair._memo if key[0] == "B (WB)^core-EP"] == [("B (WB)^core-EP",)]
    other = random_pair(7, 6, 2, 5, ToleranceConfig(residual_atol=1e-7))
    compute_kind(other, "w-core-ep")
    assert other._memo["B (WB)^core-EP",] is not pair._memo["B (WB)^core-EP",]



def _planted_refusal(key) -> tuple:
    """(whether the entry `key` had a probe image, the message of a warm
    `w_drazin` on a `_probed` pair whose entry is replaced by a perturbed
    copy). The copy is planted in the memo, not stored by `_cached`, so the
    pair does not hold it: its images are formed on every call."""
    pair = _probed()
    _call(pair, "w-drazin", 1)
    held, kept = pair._memo[key], pair._images
    imaged = any(isinstance(k, tuple) and k[0] == id(held) for k in kept)
    pair._memo[key] = _perturbed(held)
    with pytest.raises(CertificationError) as refused:
        _call(pair, "w-drazin", 1)
    assert id(pair._memo[key]) not in kept
    return imaged, str(refused.value)


# (BW)^k, which the power row of w_drazin reads as its rhs, and the Drazin
# kernel (WB)^D of its dual-agreement row: both have kept probe images
@pytest.mark.parametrize("key", [("BW^", 2), ("(WB)^D",)], ids=["BW^k", "(WB)^D"])
def test_a_planted_entry_with_a_probe_image_is_refused_as_the_formed_rows_refuse_it(
    monkeypatch, key
):
    imaged, probed = _planted_refusal(key)
    assert imaged
    monkeypatch.setattr(matcore, "_PROBE_GATE", math.inf)
    assert probed == _planted_refusal(key)[1]
