"""End-to-end tests of the command-line interface."""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitons import jsonio
from unitons.cli import main
from unitons.loops import LoopMat
from unitons.weierstrass import veronese_solution


def run(capsys, *argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def veronese_file(tmp_path, n):
    path = tmp_path / f"veronese{n}.json"
    path.write_text(jsonio.dumps(jsonio.spec_record(veronese_solution(n))) + "\n")
    return str(path)


# -- tables --------------------------------------------------------------------


def test_tables_groups_rows(capsys):
    code, out, _ = run(capsys, "tables", "groups")
    assert code == 0
    rows = {r["group"]: r for r in json.loads(out)["rows"]}
    assert len(rows) == 9
    assert rows["SU_n"]["samples"] == [[n, n - 1] for n in range(2, 9)]
    assert rows["SO_{2n+1}"]["samples"] == [[n, 2 * n - 1] for n in range(2, 7)]
    assert rows["Sp_n"]["samples"] == [[n, 2 * n - 1] for n in range(2, 7)]
    assert rows["SO_{2n}"]["samples"] == [[n, 2 * n - 3] for n in range(3, 8)]
    for name, value in [("G_2", 5), ("F_4", 11), ("E_6", 11), ("E_7", 17), ("E_8", 29)]:
        assert rows[name]["samples"][0][1] == value


def test_tables_symmetric_projective_plane(capsys):
    code, out, _ = run(capsys, "tables", "symmetric", "--type", "A", "--rank", "2")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 4
    named = [r for r in payload["rows"] if "Gr_1(C^3)" in r["names"]]
    assert named and max(r["height"] for r in named) == 2


def test_tables_symmetric_bad_rank_is_input_error(capsys):
    code, _, err = run(capsys, "tables", "symmetric", "--type", "G", "--rank", "3")
    assert code == 2 and "error" in err


# -- build / demo ----------------------------------------------------------------


def test_build_u3_from_free_file(tmp_path, capsys):
    free = tmp_path / "free.json"
    free.write_text(json.dumps({"c1_0[1,2]": {"num": ["0", "1"], "den": ["1"]},
                                "c1_0[2,3]": "1"}))
    code, out, _ = run(capsys, "build", "--n", "3", "--exponents", "2,1,0",
                       "--free", str(free))
    assert code == 0
    spec = jsonio.parse_spec(json.loads(out))
    assert spec.exponents == (2, 1, 0)
    from unitons.verify import check_extended

    assert check_extended(spec).passed


def test_build_output_is_byte_identical(tmp_path, capsys):
    free = tmp_path / "free.json"
    free.write_text(json.dumps({"c1_0[1,2]": "1/2"}))
    args = ("build", "--n", "2", "--exponents", "1,0", "--free", str(free))
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_demo_veronese_writes_file(tmp_path, capsys):
    out_path = tmp_path / "sol.json"
    code, out, _ = run(capsys, "demo", "veronese", "--n", "3", "--out", str(out_path))
    assert code == 0 and out == ""
    spec = jsonio.parse_spec(json.loads(out_path.read_text()))
    assert spec == veronese_solution(3)


# -- verify ------------------------------------------------------------------------


def test_verify_veronese_passes(tmp_path, capsys):
    code, out, _ = run(capsys, "verify", veronese_file(tmp_path, 2))
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    names = [r["context"] for r in payload["reports"]]
    assert len(names) == 2  # extended + superhorizontal for a lambda-free potential
    assert payload["harmonicity"]["residual"] <= payload["harmonicity"]["tolerance"]
    assert payload["uniton_numbers"]["ad_width"] == 1


def test_verify_reads_stdin_pipeline(tmp_path, capsys, monkeypatch):
    _, demo_out, _ = run(capsys, "demo", "veronese", "--n", "4")
    code, out, _ = run(capsys, "verify", stdin_text=demo_out, monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_rejects_bad_schema(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2}')
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 2 and "missing key" in err


def test_verify_fails_on_corrupted_solution(tmp_path, capsys):
    rec = jsonio.spec_record(veronese_solution(3))
    zero = {"num": [], "den": ["1"]}
    rec["slots"]["c2_0"] = [
        [zero, zero, {"num": ["0", "0", "1"], "den": ["1"]}],
        [zero, zero, zero],
        [zero, zero, zero],
    ]
    bad = tmp_path / "corrupt.json"
    bad.write_text(jsonio.dumps(rec))
    code, out, _ = run(capsys, "verify", str(bad))
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    assert any(not r["passed"] for r in payload["reports"])


def test_verify_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "verify", "/no/such/file.json")
    assert code == 2 and "cannot read" in err


# -- map / flow / factor --------------------------------------------------------------


def test_map_veronese2_is_an_involution(tmp_path, capsys):
    code, out, _ = run(capsys, "map", veronese_file(tmp_path, 2), "--z", "0.3,0.2")
    assert code == 0
    payload = json.loads(out)
    phi = np.array([[complex(re, im) for re, im in row] for row in payload["matrix"]])
    assert payload["unitarity_residual"] <= 1e-8
    assert np.linalg.norm(phi @ phi - np.eye(2)) <= 1e-8


def test_flow_veronese3_energy_is_constant(tmp_path, capsys):
    code, out, _ = run(capsys, "flow", veronese_file(tmp_path, 3),
                       "--z", "0.5,0.0", "--t", "0,1,2")
    assert code == 0
    payload = json.loads(out)
    energies = [s["energy"] for s in payload["steps"]]
    assert all(abs(e - 5.0) <= 1e-6 for e in energies)
    assert abs(payload["limit"]["energy"] - 5.0) <= 1e-6


def test_factor_veronese4_three_factors(tmp_path, capsys):
    code, out, _ = run(capsys, "factor", veronese_file(tmp_path, 4), "--z", "0.4,-0.3")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 3
    assert payload["reassembly_residual"] <= 1e-8
    for rec in payload["factors"]:
        assert rec["lo"] == 0 and len(rec["coeffs"]) == 2


# -- cell / big-cell --------------------------------------------------------------------


def test_cell_identity_loop_gives_zero_exponents(tmp_path, capsys):
    path = tmp_path / "id.json"
    path.write_text(jsonio.dumps(jsonio.loop_record(LoopMat.identity(3))))
    code, out, _ = run(capsys, "cell", str(path))
    assert code == 0
    assert json.loads(out)["exponents"] == [0, 0, 0]


def test_cell_recovers_construction_exponents(tmp_path, capsys):
    code, out, _ = run(capsys, "cell", veronese_file(tmp_path, 3))
    assert code == 0
    assert json.loads(out)["exponents"] == [2, 1, 0]


def test_cell_numeric_loop_is_input_error(tmp_path, capsys):
    loop = LoopMat.numeric([np.eye(2)], lo=0)
    path = tmp_path / "num.json"
    path.write_text(jsonio.dumps(jsonio.loop_record(loop)))
    code, _, err = run(capsys, "cell", str(path))
    assert code == 2 and "ExactKindUnsupported" in err


def test_big_cell_reports_derivative_matrix(tmp_path, capsys):
    code, out, _ = run(capsys, "big-cell", veronese_file(tmp_path, 2))
    assert code == 0
    payload = json.loads(out)
    assert payload["in_big_cell_form"] is True
    assert payload["V"][0][1]["num"], "upper slot should carry the derivative"
    assert payload["V"][1][0] == {"num": [], "den": ["1"]}


def test_big_cell_failure_exits_one(tmp_path, capsys):
    rec = jsonio.spec_record(veronese_solution(2))
    rec["strict_grading"] = False
    rec["slots"]["c1_0"] = [["0", "0"], ["0", {"num": ["0", "1"], "den": ["1"]}]]
    path = tmp_path / "offgrade.json"
    path.write_text(jsonio.dumps(rec))
    code, out, _ = run(capsys, "big-cell", str(path))
    assert code == 1
    payload = json.loads(out)
    assert payload["in_big_cell_form"] is False and "grade" in payload["reason"]


# -- argument handling ---------------------------------------------------------------------


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["conjugate"])
    assert exc.value.code == 2


def test_bad_point_is_input_error(tmp_path, capsys):
    code, _, err = run(capsys, "map", veronese_file(tmp_path, 2), "--z", "nope")
    assert code == 2 and "RE,IM" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("map", "--z", "nan,0"),
        ("factor", "--z", "inf,0"),
        ("flow", "--z", "0.1,0", "--t", "0,nan"),
        ("verify", "--h", "0"),
        ("verify", "--h", "inf"),
        ("verify", "--grid", "nan,1"),
    ],
)
def test_nonfinite_input_is_one_line_input_error(tmp_path, capsys, argv):
    code, out, err = run(capsys, argv[0], veronese_file(tmp_path, 2), *argv[1:])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_point_is_typed_error(tmp_path, capsys):
    code, _, err = run(capsys, "map", veronese_file(tmp_path, 3), "--z", "1e200,0")
    assert code == 2 and "PoleAtZ" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--grid", ";"),
        ("verify", "--grid", ""),
        ("verify", "--tol", "inf"),
        ("verify", "--tol", "nan"),
        ("verify", "--tol", "0"),
        ("flow", "--z", "0.1,0", "--t", ""),
        ("flow", "--z", "0.1,0", "--t", ","),
        ("flow", "--z", "0.1,0", "--t=-1e308"),
    ],
)
def test_empty_or_out_of_range_input_is_input_error(tmp_path, capsys, argv):
    code, out, err = run(capsys, argv[0], veronese_file(tmp_path, 2), *argv[1:])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# -- exit-code contract under fuzzed arguments -----------------------------------------------

_TOKENS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "0", "1e-9", "", " ", "x"]),
    st.sampled_from(["0.3", "-0.25", "0.05", "1e-3"]),
)
# empty tokens joined with "," give stray commas
_LISTS = st.one_of(
    st.tuples(_TOKENS, _TOKENS).map(",".join),
    st.lists(_TOKENS, max_size=3).map(",".join),
)
_GRIDS = st.lists(_LISTS, max_size=2).map(";".join)


@pytest.fixture(scope="module")
def veronese2_path(tmp_path_factory):
    return veronese_file(tmp_path_factory.mktemp("fuzz"), 2)


def _argv_for(command, draw):
    if command == "verify":
        flags = {"grid": draw(_GRIDS), "h": draw(_TOKENS), "tol": draw(_TOKENS)}
    elif command == "flow":
        flags = {"z": draw(_LISTS), "t": draw(_LISTS)}
    else:
        flags = {"z": draw(_LISTS)}
    # verify has defaults for every flag; the other commands require theirs
    given_flags = [name for name in sorted(flags) if command != "verify" or draw(st.booleans())]
    return [f"--{name}={flags[name]}" for name in given_flags]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=60)
@given(command=st.sampled_from(["verify", "map", "flow", "factor"]), data=st.data())
def test_fuzzed_arguments_keep_exit_code_contract(veronese2_path, command, data):
    argv = [command, veronese2_path] + _argv_for(command, data.draw)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argument list
            code = exc.code
    assert code in (0, 1, 2), argv
    if code != 2:
        payload = json.loads(out.getvalue())
        assert code == 0 or payload["passed"] is False, argv
    assert "Traceback" not in err.getvalue(), argv
