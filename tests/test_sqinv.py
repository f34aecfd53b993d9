import numpy as np
import pytest

from wginv import matcore, sqinv, winv
from wginv.matcore import (
    CertificationError,
    ToleranceConfig,
    _certify,
    _frobenius_pass,
    _Row,
    index_of,
    spectral_norm,
    weighted_pair,
)
from wginv.sqinv import core_ep, drazin, m_wgi
from wginv.winv import w_core_ep, w_drazin, w_m_weak_core, w_mpd
from wginv._gen import random_pair, random_square_with_index

# S is idempotent-like (S^2 = S), so its Drazin inverse is S itself and the
# core-EP inverse is the projector onto its range.
S_IDEM = np.array([[1.0, 1.0], [0.0, 0.0]])

# index-2 upper triangular with hand-computed Drazin inverse
J = np.array([[2.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
J_DRAZIN = np.array([[0.5, 0.25, 0.125], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


def test_drazin_oracles():
    res = drazin(S_IDEM)
    assert res.index_used == 1
    assert np.allclose(res.value, S_IDEM, atol=1e-12)

    res = drazin(J)
    assert res.index_used == 2
    assert np.allclose(res.value, J_DRAZIN, atol=1e-12)

    A = np.array([[2.0, 1.0], [1.0, 1.0]])
    assert np.allclose(drazin(A).value, np.linalg.inv(A), atol=1e-12)

    N = np.eye(3, k=1)
    assert np.allclose(drazin(N).value, 0.0, atol=1e-14)


def test_drazin_defining_equations_random():
    for i in range(20):
        rng = np.random.default_rng([41, i])
        n = int(rng.integers(3, 8))
        t = int(rng.integers(0, min(3, n - 1) + 1))
        A = random_square_with_index(n, t, rng)
        k = index_of(A)
        assert k == t
        D = drazin(A).value
        scale = 1.0 + spectral_norm(A) ** (k + 1)
        assert spectral_norm(D @ A @ D - D) <= 1e-9 * (1.0 + spectral_norm(D))
        assert spectral_norm(A @ D - D @ A) <= 1e-9 * scale
        Ak = np.linalg.matrix_power(A, k)
        assert spectral_norm(Ak @ A @ D - Ak) <= 1e-9 * scale


def test_core_ep_oracle_and_projector_property():
    res = core_ep(S_IDEM)
    assert np.allclose(res.value, [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)
    for i in range(10):
        rng = np.random.default_rng([43, i])
        A = random_square_with_index(5, 2, rng)
        C = core_ep(A).value
        # outer inverse whose product with A is an orthogonal projector
        assert spectral_norm(C @ A @ C - C) <= 1e-9 * (1.0 + spectral_norm(C))
        P = A @ C
        assert spectral_norm(P - P.conj().T) <= 1e-9 * (1.0 + spectral_norm(P))
        assert spectral_norm(P @ P - P) <= 1e-9 * (1.0 + spectral_norm(P))


def test_m_wgi_values_and_m_validation():
    assert np.allclose(m_wgi(S_IDEM, 1).value, S_IDEM, atol=1e-12)
    assert np.allclose(m_wgi(S_IDEM, 2).value, S_IDEM, atol=1e-12)
    with pytest.raises(ValueError):
        m_wgi(S_IDEM, 0)


def test_square_input_required():
    with pytest.raises(Exception):
        drazin(np.ones((2, 3)))


def test_certification_failure_reports_worst_condition():
    # a certification failure must name the offending equation, which we can
    # force with tolerances too tight for honest floating point
    from wginv.matcore import ToleranceConfig

    rng = np.random.default_rng(7)
    A = random_square_with_index(6, 2, rng)
    tight = ToleranceConfig(rank_rtol=1e-10, residual_atol=1e-300)
    with pytest.raises(CertificationError):
        drazin(A, tight)


# ---------------------------------------------------------------------------
# _certify: a Frobenius bound decides a pass without an SVD; every other check
# is decided, and reported, on exact spectral norms.

ATOL = ToleranceConfig().residual_atol


@pytest.fixture
def spectral_calls(monkeypatch):
    calls = []

    def counting(A):
        calls.append(np.shape(A))
        return spectral_norm(A)

    monkeypatch.setattr(matcore, "spectral_norm", counting)
    return calls


def test_certify_undecided_band_passes_on_exact_norms(spectral_calls):
    # ||cI||_2 = c sits on the threshold, ||cI||_F = 2c is above it: the bound
    # cannot decide, so the exact fallback must, and it passes
    n, c = 4, ATOL
    zero = np.zeros((n, n))
    residuals = _certify("band", {"eq": _Row(c * np.eye(n), zero)}, ToleranceConfig())
    assert residuals == {"eq": spectral_norm(c * np.eye(n))}
    # decided by the residual's SVD alone: a residual within residual_atol
    # passes whatever the reference is, so its norm is not taken
    assert spectral_calls == [(n, n)]


def test_certify_just_above_threshold_reports_exact_residual(spectral_calls):
    n, c = 4, 1.001 * ATOL
    with pytest.raises(CertificationError) as info:
        _certify("above", {"eq": _Row(c * np.eye(n), np.zeros((n, n)))}, ToleranceConfig())
    message = str(info.value)
    assert f"{spectral_norm(c * np.eye(n)):.3e}" in message  # 1.001e-08, the spectral norm
    assert f"{np.linalg.norm(c * np.eye(n)):.3e}" not in message  # not the 2.002e-08 bound


def test_certify_bound_decided_pass_is_not_judged_again(spectral_calls):
    # each check is judged once, against its own reference: a residual that
    # the bound passes against a large reference stays a pass beside a check
    # whose reference is tiny
    n = 5
    big = 1e4 * np.eye(n)
    R_big = np.full((n, n), 1e-6 / n)  # Frobenius 1e-6, spectral 1e-6
    tiny = np.full((n, n), 1e-3)
    R_tiny = np.full((n, n), 1e-12)
    zero = np.zeros((n, n))
    residuals = _certify(
        "trap", {"big": _Row(R_big, zero, big), "tiny": _Row(R_tiny, zero, tiny)}, ToleranceConfig()
    )
    assert residuals["big"] == pytest.approx(1e-6)
    assert residuals["big"] > ATOL * (1.0 + spectral_norm(tiny))
    assert not spectral_calls  # both decided by the bound


def _coupled_drazin_case(seed: int, coupling: float):
    """S = U [[D, C], [0, J2]] U^T with D of eigenvalues 0.6 .. 1.4, a coupling
    block C of spectral norm `coupling`, and its Drazin inverse from the
    blocks: U [[D^-1, D^-2 C + D^-3 C J2], [0, 0]] U^T."""
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    V = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    D = (V * np.array([0.6, 0.8, 1.1, 1.4])) @ V.T
    C = rng.standard_normal((4, 2))
    C *= coupling / spectral_norm(C)
    J2 = np.eye(2, k=1)
    core = np.zeros((6, 6))
    core[:4, :4], core[:4, 4:], core[4:, 4:] = D, C, J2
    Di = np.linalg.inv(D)
    drz = np.zeros((6, 6))
    drz[:4, :4], drz[:4, 4:] = Di, Di @ Di @ C + Di @ Di @ Di @ C @ J2
    return U @ core @ U.T, U @ drz @ U.T


@pytest.mark.parametrize("seed", range(4))
def test_strongly_coupled_weighted_drazin_stays_certified(seed):
    # regression: judging a bound-decided pass a second time, against another
    # reference, turned this passing case into a CertificationError
    S, truth = _coupled_drazin_case(seed, 1e2)
    pair = weighted_pair(S, np.eye(6))
    assert pair.k_bw == 2
    value = w_drazin(pair).value
    assert spectral_norm(value - truth) <= 1e-8 * spectral_norm(truth)


def test_tight_tolerance_still_raises_everywhere():
    tight = ToleranceConfig(rank_rtol=1e-10, residual_atol=1e-300)
    A = random_square_with_index(6, 2, np.random.default_rng(7))
    for build in (lambda: drazin(A, tight), lambda: core_ep(A, tight), lambda: m_wgi(A, 2, tight)):
        with pytest.raises(CertificationError):
            build()
    pair = random_pair(7, 6, 2, 5, tight)
    for build in (
        lambda: w_drazin(pair),
        lambda: w_mpd(pair),
        lambda: w_core_ep(pair),
        lambda: w_m_weak_core(pair, 2),
    ):
        with pytest.raises(CertificationError):
            build()


def test_frobenius_bound_leaves_extreme_scales_to_exact_norms():
    tol = ToleranceConfig()
    small = np.full((3, 3), 1e-12)
    assert _frobenius_pass(small, np.eye(3), tol) == pytest.approx(3e-12)
    # an overflowed reference is no licence to pass
    huge = np.full((3, 3), 1e160)
    assert _frobenius_pass(np.full((3, 3), 1e150), huge, tol) is None
    # below the floor the squares of entries underflow
    tiny_tol = ToleranceConfig(residual_atol=1e-300)
    assert _frobenius_pass(np.zeros((3, 3)), np.eye(3), tiny_tol) is None


def test_spectral_norm_matches_two_norm_bitwise():
    rng = np.random.default_rng(11)
    for _ in range(200):
        m, n = (int(v) for v in rng.integers(1, 12, size=2))
        A = rng.standard_normal((m, n))
        if rng.integers(2):
            A = A + 1j * rng.standard_normal((m, n))
        # spectral_norm works in A's own dtype: real for a real A
        assert spectral_norm(A) == float(np.linalg.norm(A, 2))
    assert spectral_norm(np.zeros((0, 3))) == 0.0


# The core-EP certificates keep the rows that fix the value (see
# sqinv._core_ep_checks and winv._w_core_ep_checks): the projector row forces
# rank >= q and the range row rank <= q. Each wrong value below is refused by
# them with no SVD of the value.


def _unit(rng, shape):
    E = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return E / np.linalg.norm(E)


def _wrong_values(X, U1, null_vector, rng) -> dict:
    """name -> (value, the row that refuses it, the row that passes it): X
    perturbed by 1e-6 relative; X with one direction of its range dropped
    (rank q - 1, inside the range), which only the projector row sees; and X
    plus a rank-one term along a null vector of the product that lies outside
    R(S^k) (rank q + 1, the same product), which only the range row sees."""
    lower = U1[:, :-1]
    w = _unit(rng, X.shape[1])
    return {
        "perturbed": (X + 1e-6 * np.linalg.norm(X) * _unit(rng, X.shape), None, None),
        "rank-deficient": (lower @ lower.conj().T @ X, "projector", "range"),
        "out of range": (X + np.linalg.norm(X) * np.outer(null_vector, w), "range", "projector"),
    }


def _refused_by(kind, checks, failing, passing):
    """The certificate refuses; the named rows fail and pass on their own."""
    with pytest.raises(CertificationError, match=f"^{kind}: check "):
        _certify(kind, checks, matcore.DEFAULT_TOL)
    if failing is not None:
        for label, ok in ((failing, False), (passing, True)):
            assert matcore._verdicts({label: checks[label]}, matcore.DEFAULT_TOL)[0][2] is ok


def test_core_ep_rows_refuse_wrong_values():
    rng = np.random.default_rng(5)
    S = random_square_with_index(6, 2, rng)
    form = matcore._staircase(S, matcore.DEFAULT_TOL)
    X = core_ep(S).value
    U1 = form.U[:, : form.q]
    null_vector = np.linalg.svd(S)[2][-1].conj()  # S v = 0 and v is outside R(S^k)
    assert np.linalg.norm(S @ null_vector) < 1e-12
    _certify("core_ep", sqinv._core_ep_checks(form, X), matcore.DEFAULT_TOL)
    for wrong, failing, passing in _wrong_values(X, U1, null_vector, rng).values():
        _refused_by("core_ep", sqinv._core_ep_checks(form, wrong), failing, passing)


def test_w_core_ep_rows_refuse_wrong_values():
    rng = np.random.default_rng(6)
    pair = random_pair(7, 6, 2, 5)
    tol = matcore.DEFAULT_TOL
    val = w_core_ep(pair).value
    form = pair._staircase_of("BW")
    U1 = form.U[:, : form.q]
    WBW = pair.W @ pair.B @ pair.W
    null_vector = np.linalg.svd(WBW)[2][-1].conj()  # W B W v = 0, v outside R((BW)^k)
    assert np.linalg.norm(WBW @ null_vector) < 1e-12
    _certify("w_core_ep", winv._w_core_ep_checks(pair, val), tol)
    for wrong, failing, passing in _wrong_values(val, U1, null_vector, rng).values():
        _refused_by("w_core_ep", winv._w_core_ep_checks(pair, wrong), failing, passing)
