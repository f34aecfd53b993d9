"""Certificate rows of a pair with min(m, n) >= 32, judged on a block G of
four complex Gaussian probes (matcore._probe): a row passes when 100 e, with
e = ||R G||_F / 2, is within residual_atol * (1 + ||F G||_F / ||G||_F).

A row whose spectral residual reaches the spectral test's threshold passes
only if chi^2_8 < 8e-4 (probability 1.1e-15); one far inside it always
passes. Values are formed as below the gate, and residuals repeat bit for
bit, since G is seeded from the pair's bytes."""

import math

import numpy as np
import pytest

from wginv import matcore
from wginv._gen import random_pair
from wginv.matcore import DEFAULT_TOL, WeightedPair, _probe, _Row
from wginv.winv import CATALOG, PARAMETRIZED_KINDS, compute_kind

D = 40
SEEDS = 10_000


def _unitary(rng, d: int) -> np.ndarray:
    Z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return np.linalg.qr(Z)[0]


# How the planted row states its reference F: as its rhs (F + R = F), as
# its lhs, the range-row form (F = F - R, judged against F), or as a third
# matrix, the zero-row form (R = 0, judged against F).
FORMS = {
    "rhs": lambda F, R: _Row(F + R, F),
    "lhs": lambda F, R: _Row(F, F - R, F),
    "zero": lambda F, R: _Row(R, np.zeros_like(R), F),
}


def _planted(scale: float, rank_one: bool, form: str) -> _Row:
    """A row with residual R and reference F, stated in `form`, with
    ||F||_2 = 3 and every singular value of F equal, so ||F G||_F / ||G||_F
    = ||F||_2, and ||R||_2 = scale times the spectral test's threshold
    residual_atol * (1 + ||F||_2)."""
    rng = np.random.default_rng(3)
    F = 3.0 * _unitary(rng, D)
    if rank_one:
        u, v = _unitary(rng, D)[:, 0], _unitary(rng, D)[:, 0]
        R = np.outer(u, v.conj())
    else:
        R = _unitary(rng, D)
    R *= scale * DEFAULT_TOL.residual_atol * (1.0 + 3.0)
    return FORMS[form](F, R)


@pytest.fixture(scope="module")
def blocks() -> list:
    """The probe blocks of SEEDS pairs, each seeded from its own bytes."""
    ones = np.ones((1, D))
    return [
        WeightedPair(np.full((D, 1), seed), ones, 0, 0)._probe_block(D) for seed in range(SEEDS)
    ]


@pytest.mark.parametrize("rank_one", [True, False], ids=["rank-one", "full-rank"])
@pytest.mark.parametrize("scale", [1.0, 10.0, 100.0])
def test_a_residual_at_the_threshold_or_above_is_never_passed(blocks, scale, rank_one):
    for form in FORMS:
        row = _planted(scale, rank_one, form)
        assert not any(_probe(row, G, DEFAULT_TOL) is not None for G in blocks), form


@pytest.mark.parametrize("rank_one", [True, False], ids=["rank-one", "full-rank"])
def test_a_residual_far_inside_the_threshold_is_always_passed(blocks, rank_one):
    for form in FORMS:
        row = _planted(1e-3, rank_one, form)
        assert all(_probe(row, G, DEFAULT_TOL) is not None for G in blocks), form


def test_one_probe_block_per_pair_of_unit_variance(blocks):
    G = np.stack(blocks)
    assert G.shape == (SEEDS, D, matcore._PROBE_COLUMNS)
    assert abs(np.mean(np.abs(G) ** 2) - 1.0) < 0.01
    pair = random_pair(40, 36, 2, 5)
    G = pair._probe_block(40)
    assert not G.flags.writeable
    # a row with fewer columns reads the leading rows, and the dual the pair's
    assert pair._probe_block(36).base is G.base and np.array_equal(pair._probe_block(36), G[:36])
    assert pair.H._probe_block(40).base is G.base
    assert [key for key in pair._memo if key[0] == "probe"] == [("probe",)]
    assert not any(key[0] == "probe" for key in pair.H._memo)


CALLS = [
    (kind, m) for kind in sorted(CATALOG) for m in ((1, 2) if kind in PARAMETRIZED_KINDS else (1,))
]


def _catalog(pair) -> list:
    return [compute_kind(pair, kind, m=m) for kind, m in CALLS]


def test_probed_rows_repeat_bit_for_bit_and_keep_the_values(monkeypatch):
    pair = random_pair(40, 36, 2, 5)
    cold, warm = _catalog(pair), _catalog(pair)
    again = _catalog(random_pair(40, 36, 2, 5))
    for results in (warm, again):
        assert [repr(r.residuals) for r in results] == [repr(r.residuals) for r in cold]
    monkeypatch.setattr(matcore, "_PROBE_GATE", math.inf)
    formed = _catalog(random_pair(40, 36, 2, 5))
    for probed, dense in zip(cold, formed):
        assert probed.value.tobytes() == dense.value.tobytes()
        # every row passed on the probe: each residual is 100 e, well inside
        # the threshold, and none is the formed rows' Frobenius bound
        assert probed.residuals.keys() == dense.residuals.keys()
        for label, residual in probed.residuals.items():
            assert residual != dense.residuals[label]
            assert residual <= DEFAULT_TOL.residual_atol
