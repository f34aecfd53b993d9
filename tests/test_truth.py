"""Truth tests: index_of, drazin, core_ep, w_drazin and w_mpd against
matrices whose inverses are known from their blocks.

Every input is S = U [[T, C], [0, J]] U^* from the benchmark's construction
(perfbench/construct.py, imported read-only): U a Haar unitary, J the shift of
order t (so the index of S is t), T invertible of order q = n - t with
singular values spread geometrically over a condition number kappa(T), and a
coupling block C of spectral norm `coupling`. The weighted inverses run on
B = S V^* and W = V for a Haar unitary V, so BW = S, WB = V^* S V, and
B^(D,W) = S^D V^* and the weighted MPD inverse V S^+ S S^D follow from S.
A draw without complex entries has a real core and real U and V, so S, B
and W are real and the library works in real arithmetic; the others are
complex.

Each call must either refuse with CertificationError or return the
constructed index and a value within C_BOUND * kappa^2 * u in relative
Frobenius error, u the unit roundoff. kappa is kappa(T) on the scale of S,
||S||_2 ||T^-1||_2, which is kappa(T) itself when neither C nor J is larger
than T. index_of certifies nothing, so its index must always be right.

Two limits keep the constructed index and inverse the ones a rank decision
at rank_rtol can see:

- S itself must have its constructed rank with a margin: ||S|| / sigma_r(S)
  <= KAPPA_MAX, sigma_r the smallest nonzero singular value. Above that the
  matrix is within the rank cutoff of one with another index, and another
  answer is not a fault.
- T may sit below the shift's scale (singular values under ||J|| = 1) only
  for t <= 2. For larger t the separation of T from J decays like
  sigma_min(T)^(t-1), so roundoff of order u ||S|| moves the core-nilpotent
  split, and the inverse, by far more than kappa^2 u: that is the
  conditioning of the problem, which no algorithm avoids.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import construct as cx  # noqa: E402
import workloads  # noqa: E402

from wginv import core_ep, drazin, index_of, w_drazin, w_mpd, weighted_pair  # noqa: E402
from wginv.matcore import CertificationError  # noqa: E402

UNIT_ROUNDOFF = np.finfo(float).eps / 2
# The largest error / (kappa^2 u) over 24,000 draws of the strategy below was
# 8.7e3 (w_mpd at n = 8, t = 7); the bound leaves a factor of 11 above it.
C_BOUND = 1e5
KAPPA_MAX = 1e8


def square_truth(n, t, log_kappa, position, coupling, complex_entries, rng):
    """S of order n and index t with kappa(T) = 10^log_kappa; T's singular
    values run from kappa^-position to kappa^(1 - position); real, with a
    real core, unless complex_entries."""
    q = n - t
    core = np.zeros((n, n), dtype=complex if complex_entries else float)
    if q:
        kappa = 10.0**log_kappa if q > 1 else 1.0
        s = np.geomspace(kappa ** (1.0 - position), kappa ** (-position), q)
        T = (cx.unitary(rng, q, complex_entries) * s) @ cx.unitary(rng, q, complex_entries).conj().T
        core[:q, :q] = T
        if coupling:
            G = cx.gaussian(rng, (q, t), complex_entries)
            core[:q, q:] = coupling * G / np.linalg.norm(G, 2)
    core[q:, q:] = cx.shift(t)
    return cx.square_case(cx.unitary(rng, n, complex_entries), core, q)


def kappa_on_scale(truth) -> float:
    """||S||_2 ||T^-1||_2, or 1 for a nilpotent S, whose inverses are zero."""
    q = truth.S.shape[0] - truth.index
    if not q:
        return 1.0
    return np.linalg.norm(truth.S, 2) * np.linalg.norm(np.linalg.inv(truth.core[:q, :q]), 2)


def rank_margin(truth) -> float:
    """||S|| / sigma_r(S), r the constructed rank q + t - 1."""
    s = np.linalg.svd(truth.S, compute_uv=False)
    r = s.size - 1  # the shift of order t has rank t - 1
    return s[0] / s[r - 1] if r else 1.0


def judge(truth, V, kappa) -> None:
    """Every outcome of the five functions on S (and on B = S V^*, W = V)."""
    S, t = truth.S, truth.index
    assert index_of(S) == t
    B = S @ V.conj().T
    runs = {
        "drazin": (lambda: drazin(S), truth.drazin),
        "core_ep": (lambda: core_ep(S), truth.core_ep),
        "w_drazin": (lambda: w_drazin(weighted_pair(B, V)), truth.drazin @ V.conj().T),
        "w_mpd": (lambda: w_mpd(weighted_pair(B, V)), V @ truth.pinv @ S @ truth.drazin),
    }
    bound = C_BOUND * kappa**2 * UNIT_ROUNDOFF
    for name, (run, ref) in runs.items():
        try:
            result = run()
        except CertificationError:
            continue
        assert result.index_used == t, name
        err = workloads.rel_error(result.value, ref)
        assert err <= bound, (name, err, bound)


@st.composite
def square_truths(draw):
    n = draw(st.integers(1, 8))
    t = draw(st.integers(1, n))
    log_kappa = draw(st.floats(0.0, 8.0))
    position = draw(st.floats(0.0, 1.0)) if t <= 2 else 0.0
    coupling = draw(st.one_of(st.just(0.0), st.floats(-2.0, 3.0).map(lambda e: 10.0**e)))
    complex_entries = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    truth = square_truth(n, t, log_kappa, position, coupling, complex_entries, rng)
    kappa = kappa_on_scale(truth)
    assume(kappa <= KAPPA_MAX and rank_margin(truth) <= KAPPA_MAX)
    return truth, cx.unitary(rng, n, complex_entries), kappa


@seed(20261018)
@settings(max_examples=200, deadline=None)
@given(case=square_truths())
def test_every_function_is_refused_or_right(case):
    judge(*case)


def _baseline_case(e: float, coupling: float = 0.0):
    """S = Q [[D, C], [0, J2]] Q^* with D = diag(1, 2, 3, e)."""
    rng = np.random.default_rng(5)
    core = np.zeros((6, 6), dtype=complex)
    core[:4, :4] = np.diag([1.0, 2.0, 3.0, e])
    if coupling:
        G = rng.standard_normal((4, 2))
        core[:4, 4:] = coupling * G / np.linalg.norm(G, 2)
    core[4:, 4:] = cx.shift(2)
    return cx.square_case(cx.unitary(rng, 6, False), core, 4)


EXPLICIT = {
    **{f"baseline e={e:g}": _baseline_case(e) for e in (1e-2, 1e-3, 1e-4, 1e-6)},
    "baseline coupling=1e3": _baseline_case(1.0, 1e3),
    **{f"edge {name}": truth for name, truth, faults in workloads.edge_cases(
        np.random.default_rng(1)) if faults},
}


@pytest.mark.parametrize("name", sorted(EXPLICIT))
def test_explicit_cases_are_refused_or_right(name):
    truth = EXPLICIT[name]
    V = cx.unitary(np.random.default_rng(2), truth.S.shape[0], True)
    judge(truth, V, kappa_on_scale(truth))
