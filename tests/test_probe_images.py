"""Probe images kept on a pair (matcore._applied, WeightedPair._images).

Above the probe gate each certificate applies its rows to the pair's probe
block, and the image of every chain made of arrays the pair holds alone (B,
W, what its memo stores) is kept on the pair: a warm call forms only the
images of its own per-call arrays, each once per certificate. The solution
family's power equation reads the pair alone, so it is certified once per
pair and tolerance. None of this may move a bit of a value or a residual."""

import copy

import numpy as np
import pytest

from wginv import matcore, winv
from wginv._gen import random_pair
from wginv.winv import (
    CATALOG,
    compute_kind,
    mrwwd_family,
    mrwwd_right_family,
    weak_dmp,
    weak_mpd,
)


def _pair():  # min(m, n) above the probe gate
    return random_pair(80, 72, 2, 3)


def _family_ops(pair, P) -> list:
    """A left and a right family member, each with its weak inverse."""
    X, Z = mrwwd_family(pair).member(P), mrwwd_right_family(pair).member(P)
    return [weak_mpd(pair, X), weak_dmp(pair, Z)]


def _round(pair, P) -> list:
    """The nine catalog kinds (m = 2 for the m-fold ones) and `_family_ops`."""
    kinds = [compute_kind(pair, kind, m=2) for kind in sorted(CATALOG)]
    return kinds + _family_ops(pair, P)


def _free(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((80, 72)) + 1j * rng.standard_normal((80, 72))


def _images(pair) -> dict:
    """{(id(A), id(G)): A @ G}: the probe images the pair keeps."""
    return {
        key: image
        for key, image in pair._images.items()
        if isinstance(key, tuple) and isinstance(key[0], int)
    }


def test_a_warm_round_adds_no_image_and_certifies_no_family(monkeypatch):
    pair = _pair()
    _round(pair, _free(0))
    kept = len(_images(pair)), len(_images(pair.H))
    assert all(kept)
    certified = []
    certify = winv._certify

    def recording(kind, *args, **kwargs):
        certified.append(kind)
        return certify(kind, *args, **kwargs)

    monkeypatch.setattr(winv, "_certify", recording)
    _round(pair, _free(1))
    assert certified and "mrwwd_family" not in certified
    assert (len(_images(pair)), len(_images(pair.H))) == kept
    for seed in range(2, 52):  # fresh free parameters on both families
        _family_ops(pair, _free(seed))
    assert (len(_images(pair)), len(_images(pair.H))) == kept


def _counting(monkeypatch) -> list:
    """The keys of the thin products `matcore._applied` forms from now on."""
    formed = []
    applied = matcore._applied

    def counting(factor, G, images, kept):
        key = (id(factor), id(G))
        if isinstance(factor, np.ndarray) and key not in images and key not in kept:
            formed.append(key)
        return applied(factor, G, images, kept)

    monkeypatch.setattr(matcore, "_applied", counting)
    return formed


def test_a_warm_round_forms_only_the_images_of_its_own_arrays(monkeypatch):
    # the stabilized staircase projectors are memo entries, so their images
    # are kept too, and the dual's twin keeps the images of what it builds on
    # the pair: a warm round forms 59 thin products, 62 when the twin kept
    # one factor's chain of three for itself, 66 when w_core_ep's projector
    # row and w_m_weak_core's chain applied P_WB anew on each call
    pair = _pair()
    _round(pair, _free(0))
    formed = _counting(monkeypatch)
    _round(pair, _free(1))
    assert len(formed) == 59


def test_a_projector_below_the_index_keeps_its_images(monkeypatch):
    # w_m_weak_core(m) reads the projector onto R((WB)^m); below the index it
    # is a memo entry as the stabilized one is, so a warm call at m = 1 forms
    # the 5 thin products it forms at m = 2 (8 when it was formed anew)
    pair = _pair()
    assert pair.k_wb == 2
    _round(pair, _free(0))
    counts = []
    for m in (1, 2):
        winv.w_m_weak_core(pair, m)
        with monkeypatch.context() as patch:
            formed = _counting(patch)
            winv.w_m_weak_core(pair, m)
        counts.append(len(formed))
    assert counts == [5, 5]


@pytest.mark.parametrize("side", ["pair", "dual"])
def test_every_image_is_keyed_by_arrays_the_pair_holds(side):
    pair = _pair()
    for seed in range(3):
        _round(pair, _free(seed))
    owner = pair if side == "pair" else pair.H
    held = {id(owner.B), id(owner.W)}
    held |= {id(v) for v in owner._memo.values() if isinstance(v, np.ndarray)}
    images = _images(owner)
    blocks = {
        id(G) for key, G in owner._images.items() if isinstance(key, tuple) and key[0] == "probe"
    }
    inputs = blocks | {id(image) for image in images.values()}
    for a, g in images:
        # the array is held, so its id is not reused while it keys an image
        assert a in held and a in owner._images and g in inputs


def _calls(pair) -> list:
    """The nine kinds (m = 2) and both weak inverses, on one member each."""
    P = _free(0)
    X, Z = mrwwd_family(pair).member(P), mrwwd_right_family(pair).member(P)
    kinds = [lambda kind=kind: compute_kind(pair, kind, m=2) for kind in sorted(CATALOG)]
    return kinds + [lambda: weak_mpd(pair, X), lambda: weak_dmp(pair, Z)]


def test_warm_calls_keep_every_bit_of_the_cold_ones():
    # cold: each call the first on a fresh pair, so it reads no kept image
    cold = [_calls(_pair())[i]() for i in range(len(CATALOG) + 2)]
    calls = _calls(_pair())
    for _ in range(3):  # the first, second and third call on one pair
        results = [call() for call in calls]
        assert [repr(r.residuals) for r in results] == [repr(r.residuals) for r in cold]
        assert [r.value.tobytes() for r in results] == [r.value.tobytes() for r in cold]


def test_the_duals_twin_shares_the_pairs_arrays_and_memo():
    pair = _pair()
    assert pair.H._primal.B is pair.B and pair.H._primal.W is pair.W
    assert pair.H.H._memo is pair._memo


def test_a_copied_pair_keeps_no_image_of_the_pair():
    # images are keyed by ids, which a copy does not keep: it draws its own
    pair = _pair()
    cold = [call() for call in _calls(pair)]
    copied = copy.deepcopy(pair)
    assert not _images(copied) and not _images(copied.H)
    warm = [call() for call in _calls(copied)]
    assert [repr(r.residuals) for r in warm] == [repr(r.residuals) for r in cold]
