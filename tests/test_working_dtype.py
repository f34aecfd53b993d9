"""One working dtype per problem: float64 when every input is real,
complex128 otherwise, decided where the input enters (`as_matrix`,
`weighted_pair`, `parse_matrix_text`) and followed by every kernel. A real
pair's values, memo and certificates stay real; only its probe block is
complex, so that a probed row fails to see a wrong value with the same
probability as on a complex pair."""

import ast
from pathlib import Path

import numpy as np
import pytest

import wginv
from wginv._gen import random_pair, random_square_with_index
from wginv.cli import parse_matrix_text
from wginv.matcore import as_matrix, weighted_pair
from wginv.winv import (
    CATALOG,
    compute_kind,
    mrwwd_family,
    mrwwd_right_family,
    weak_dmp,
    weak_mpd,
)

SOURCES = sorted(Path(wginv.__file__).parent.glob("*.py"))
# (module, function) where a cast to complex is the design: the matrix text
# has an imaginary part
COMPLEX_CASTS = {("cli.py", "parse_matrix_text")}


def _complex(node) -> bool:
    """Whether an expression names a complex dtype: complex, np.complex128, ..."""
    if isinstance(node, ast.Name):
        return node.id == "complex"
    return isinstance(node, ast.Attribute) and node.attr.startswith(("complex", "cdouble"))


def complex_casts(source: str) -> list:
    """[(function, line)] of every `dtype=complex` keyword and every
    `.astype(complex)` in the source, by the function that holds it."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            dtype = [kw.value for kw in node.keywords if kw.arg == "dtype"]
            if isinstance(node.func, ast.Attribute) and node.func.attr == "astype":
                dtype += node.args[:1]
            if any(_complex(value) for value in dtype):
                found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_no_kernel_casts_to_complex():
    casts = [
        (path.name, function, line)
        for path in SOURCES
        for function, line in complex_casts(path.read_text(encoding="utf-8"))
        if (path.name, function) not in COMPLEX_CASTS
    ]
    assert casts == []


def test_the_scan_sees_each_form_of_a_cast():
    source = (
        "def f(A, n):\n"
        "    I = np.eye(n, dtype=complex)\n"
        "    Z = np.zeros((n, n), dtype=np.complex128)\n"
        "    return np.asarray(A, dtype=complex) + A.astype(complex) + I + Z\n"
    )
    assert complex_casts(source) == [("f", 2), ("f", 3), ("f", 4), ("f", 4)]
    assert complex_casts("def g(A):\n    return A.astype(np.float64)\n") == []


def _free(shape) -> np.ndarray:
    return np.random.default_rng(13).standard_normal(shape)


def _values(pair) -> dict:
    """kind (m = 2 for the m-fold kinds) -> value, with both weak inverses of
    real family members."""
    values = {kind: compute_kind(pair, kind, m=2).value for kind in sorted(CATALOG)}
    shape = (pair.m, pair.n)
    values["weak_mpd"] = weak_mpd(pair, mrwwd_family(pair).member(_free(shape))).value
    values["weak_dmp"] = weak_dmp(pair, mrwwd_right_family(pair).member(_free(shape))).value
    return values


def _memo_arrays(pair) -> dict:
    """Every array in the pair's memo and its dual's, but the probe block."""
    return {
        (side, key): value
        for side, owner in (("pair", pair), ("dual", pair.H))
        for key, value in owner._memo.items()
        if isinstance(value, np.ndarray) and key != ("probe",)
    }


# one pair below the probe gate and one above it
@pytest.mark.parametrize("shape", [(7, 6, 2, 5), (40, 36, 2, 3)])
def test_a_real_pair_computes_in_real_arithmetic(shape):
    pair = random_pair(*shape)
    assert pair.B.dtype == pair.W.dtype == np.float64
    values = _values(pair)
    assert {name: value.dtype for name, value in values.items()} == {
        name: np.dtype(np.float64) for name in values
    }
    memo = _memo_arrays(pair)
    assert memo and all(value.dtype == np.float64 for value in memo.values())


def test_a_complex_input_with_a_real_identity_weight_makes_a_complex_pair():
    S = random_square_with_index(6, 2, 3) * (1.0 + 0.5j)
    pair = weighted_pair(S, np.eye(6))
    assert pair.B.dtype == pair.W.dtype == np.complex128
    assert compute_kind(pair, "w-drazin").value.dtype == np.complex128


def test_a_complex_member_of_a_real_pair_gives_a_complex_value():
    pair = random_pair(7, 6, 2, 5)
    X = mrwwd_family(pair).member(_free((7, 6)) * (1.0 - 2.0j))
    assert X.dtype == np.complex128
    assert weak_mpd(pair, X).value.dtype == np.complex128


def test_as_matrix_keeps_a_working_dtype_without_a_copy():
    for dtype in (np.float64, np.complex128):
        A = np.ones((2, 3), dtype=dtype)
        assert as_matrix(A) is A
    casts = {
        np.int64: np.float64,
        np.bool_: np.float64,
        np.float32: np.float64,
        np.complex64: np.complex128,
    }
    for given, working in casts.items():
        assert as_matrix(np.ones((2, 2), dtype=given)).dtype == working
    assert as_matrix([[1, 2], [3, 4]]).dtype == np.float64
    assert as_matrix([[1, 2j]]).dtype == np.complex128


def test_matrix_text_is_real_unless_an_entry_has_an_imaginary_part():
    real = parse_matrix_text("2 2\n1 -2.5\n0 3e2\n")
    assert real.dtype == np.float64 and real.flags.c_contiguous
    assert np.array_equal(real, [[1.0, -2.5], [0.0, 300.0]])
    assert parse_matrix_text("1 2\n1+0i 2\n").dtype == np.float64
    mixed = parse_matrix_text("1 2\n1 2-0.5i\n")
    assert mixed.dtype == np.complex128 and mixed[0, 1] == 2 - 0.5j
