import json
from pathlib import Path

import numpy as np
import pytest

import wginv
from wginv._gen import ex1_pair, ex2_matrices
from wginv.cli import (
    REGISTRY,
    SUITE_BATTERIES,
    format_matrix,
    load_matrix,
    main,
    parse_matrix_text,
    save_matrix,
)

DATA = Path(wginv.__file__).parent / "data"


def test_matrix_text_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    A = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    A[0, 0] = 2.0  # real entry stays real in the text form
    path = tmp_path / "a.mat"
    save_matrix(path, A)
    back = load_matrix(path)
    assert np.array_equal(back, A.astype(complex))


def test_matrix_text_parses_plain_integers():
    A = parse_matrix_text("2 2\n1 -2\n3.5e0 .25\n")
    assert np.array_equal(A, np.array([[1, -2], [3.5, 0.25]], dtype=complex))


def test_matrix_text_parses_complex_entries():
    A = parse_matrix_text("1 2  1.5+2i  -1-0.5i")
    assert A[0, 0] == 1.5 + 2j
    assert A[0, 1] == -1 - 0.5j


@pytest.mark.parametrize(
    "text",
    [
        "",  # no header
        "2 2 1 2 3",  # wrong entry count
        "1 1 abc",  # bad entry
        "-1 2",  # negative dims
        "x y 1 2",  # non-integer header
        "1 1 1+2j",  # wrong imaginary suffix
    ],
)
def test_matrix_text_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_matrix_text(text)


def test_shipped_fixture_files_match_builtins():
    pair = ex1_pair()
    assert np.array_equal(load_matrix(DATA / "a1.mat"), pair.B)
    assert np.array_equal(load_matrix(DATA / "w1.mat"), pair.W)
    A, B, C, W = ex2_matrices()
    assert np.array_equal(load_matrix(DATA / "a2.mat"), A)
    assert np.array_equal(load_matrix(DATA / "b2.mat"), B)
    assert np.array_equal(load_matrix(DATA / "c2.mat"), C)
    assert np.array_equal(load_matrix(DATA / "w2.mat"), W)
    assert np.array_equal(load_matrix(DATA / "i3.mat"), np.eye(3))


def test_registry_covers_every_documented_id():
    assert len(REGISTRY) == 33
    assert "thm2.1" in REGISTRY and "mateq-triple" in REGISTRY
    assert len(SUITE_BATTERIES) == 9
    names = [name for name, _ in SUITE_BATTERIES]
    assert len(set(names)) == len(names)


def test_compute_mp_matches_numpy(tmp_path):
    rng = np.random.default_rng(4)
    B = rng.standard_normal((4, 6))
    b_path = tmp_path / "b.mat"
    out = tmp_path / "out.mat"
    save_matrix(b_path, B)
    code = main(["compute", "mp", str(b_path), "--out", str(out)])
    assert code == 0
    got = load_matrix(out)
    assert np.allclose(got, np.linalg.pinv(B), atol=1e-10)


def test_compute_weighted_kind_round_trip(tmp_path):
    out = tmp_path / "out.mat"
    code = main(
        ["compute", "w-drazin", str(DATA / "a1.mat"), str(DATA / "w1.mat"), "--out", str(out)]
    )
    assert code == 0
    from wginv.winv import w_drazin

    assert np.allclose(load_matrix(out), w_drazin(ex1_pair()).value, atol=1e-10)


def test_compute_weak_mpd_needs_member(tmp_path):
    code = main(["compute", "weak-mpd", str(DATA / "a1.mat"), str(DATA / "w1.mat")])
    assert code == 1


def test_compute_weak_mpd_rejects_non_member(tmp_path):
    member = tmp_path / "member.mat"
    save_matrix(member, np.zeros((5, 4)))
    code = main(
        [
            "compute",
            "weak-mpd",
            str(DATA / "a1.mat"),
            str(DATA / "w1.mat"),
            "--member",
            str(member),
        ]
    )
    assert code == 3


def test_compute_missing_weight_file_is_usage_error():
    code = main(["compute", "w-drazin", str(DATA / "a1.mat")])
    assert code == 1


def test_unknown_theorem_id_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "thm9.9", "--fixture", "ex1"])
    assert exc.value.code == 1


def test_verify_document_structure(tmp_path):
    out = tmp_path / "doc.json"
    code = main(["verify", "thm2.1", "--fixture", "ex1", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["theorem_id"] == "thm2.1"
    assert doc["overall"] is True
    assert doc["seed"] == 0
    assert doc["fixtures_used"] == ["ex1"]
    assert len(doc["conditions"]) == 7
    for cond in doc["conditions"]:
        assert set(cond) >= {"label", "residual", "pass"}
        float(cond["residual"])  # residuals serialize as full-precision text
        assert "e" in cond["residual"]
    assert {"rank_rtol", "residual_atol"} <= set(doc["tolerances"])


def test_verify_output_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code = main(["verify", "thm3.19", "--random", "--seed", "7", "--out", str(path)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_trials_emits_array_with_stepped_seeds(tmp_path):
    out = tmp_path / "docs.json"
    code = main(
        ["verify", "thm3.3", "--random", "--seed", "5", "--trials", "3", "--out", str(out)]
    )
    assert code == 0
    docs = json.loads(out.read_text())
    assert [d["seed"] for d in docs] == [5, 6, 7]
    assert all(d["overall"] for d in docs)


def test_verify_fixture_failure_exits_2(tmp_path):
    # the integer fixture genuinely violates two hypotheses of this law; the
    # report carries the failing flags and the run signals it
    out = tmp_path / "doc.json"
    code = main(["verify", "thm3.30", "--fixture", "ex2", "--out", str(out)])
    assert code == 2
    doc = json.loads(out.read_text())
    assert doc["overall"] is False


def test_verify_infeasible_generation_exits_3(tmp_path):
    # alpha too large to ever satisfy the norm bounds
    out = tmp_path / "doc.json"
    code = main(
        ["verify", "thm3.17", "--fixture", "ex1", "--alpha", "1e9", "--out", str(out)]
    )
    assert code == 3
    doc = json.loads(out.read_text())
    assert "error" in doc and doc["fixtures_used"] == []


def test_every_registered_runner_passes_once(tmp_path):
    # one fixture-path run per registry entry; the one law whose fixture
    # genuinely fails its hypotheses is expected to signal that
    for theorem_id in REGISTRY:
        out = tmp_path / "doc.json"
        code = main(["verify", theorem_id, "--out", str(out)])
        want = 2 if theorem_id == "thm3.30" else 0
        assert code == want, theorem_id


def test_stdout_path(capsys):
    code = main(["verify", "thm2.8", "--fixture", "ex2"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["theorem_id"] == "thm2.8"


@pytest.mark.parametrize("theorem_id", sorted(REGISTRY))
def test_verify_runs_only_on_listed_instances(theorem_id, capsys):
    instances, _ = REGISTRY[theorem_id]
    main(["verify", theorem_id])
    doc = json.loads(capsys.readouterr().out)
    assert doc["fixtures_used"] == [instances[0]]
    (unlisted,) = {"ex1", "ex2"} - set(instances)
    code = main(["verify", theorem_id, "--fixture", unlisted])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert f"{theorem_id} runs on {' or '.join(instances)}, not {unlisted}" in err


def test_verify_random_overrides_fixture(capsys):
    code = main(["verify", "thm2.1", "--random", "--fixture", "ex2", "--seed", "3"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["fixtures_used"] == ["random"]


def test_rol_law_runs_on_ex2_when_asked(capsys):
    # the fixture breaks two hypotheses of the law, as for thm3.30
    code = main(["verify", "thm3.30-rol", "--fixture", "ex2"])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["fixtures_used"] == ["ex2"]


def test_verify_has_no_fold_parameter():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "thm2.1", "--m", "2"])
    assert exc.value.code == 1


def test_successive_main_calls_share_no_state(capsys):
    # the parser is built once per process; each call parses from its defaults
    assert main(["verify", "thm2.1", "--random", "--seed", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 3
    assert main(["verify", "thm2.1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["seed"] == 0
    assert doc["fixtures_used"] == ["ex1"]


def test_usage_error_exits_1_on_every_call(capsys):
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "thm2.1", "--no-such-flag"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err
