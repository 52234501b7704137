"""End-to-end tests of the command-line interface."""

import contextlib
import copy
import hashlib
import io
import json
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import flag_unitarize, seeded_free_poly, twistor_value
from unitons import cli, factorization, jsonio, weierstrass
from unitons.cli import main
from unitons.factorization import bruhat_cell, cstar_flow, energy
from unitons.loops import LoopMat
from unitons.scalars import RatFun
from unitons.verify import uniton_number_report
from unitons.weierstrass import (
    ExtendedSolutionSpec,
    assemble_loop,
    build_from_free_functions,
    even_grassmannian_build,
    veronese_solution,
)


def _call(argv):
    """Exit code, stdout and stderr of one CLI call, outside of capsys."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects the argument list
            code = exc.code
    return code, out.getvalue(), err.getvalue()


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


def test_tables_symmetric_rank_is_capped_before_any_work(capsys, monkeypatch):
    # the survey has 2^rank records, and the Cartan matrix rank^2 entries
    def refuse(*args):
        raise AssertionError("root system built past the rank cap")

    with monkeypatch.context() as m:
        m.setattr(cli, "build_root_system", refuse)
        code, out, err = run(capsys, "tables", "symmetric", "--type", "A", "--rank", "9")
    assert code == 2 and out == ""
    assert err == "error: --rank must be at most 8, got 9\n"
    code, out, _ = run(capsys, "tables", "symmetric", "--type", "E", "--rank", "8")
    assert code == 0 and json.loads(out)["rank"] == 8


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


def test_verify_passes_the_lambda_dependent_u3_build(tmp_path):
    flags, free = _BUILDS["u3"]
    free_path, spec_path = tmp_path / "free.json", tmp_path / "u3.json"
    free_path.write_text(json.dumps(free))
    assert _call(["build", *flags, "--free", str(free_path), "--out", str(spec_path)])[0] == 0
    code, out, err = _call(["verify", str(spec_path)])
    assert code == 0, err
    harmonicity = json.loads(out)["harmonicity"]
    assert harmonicity["passed"] is True and harmonicity["residual"] <= 1e-8


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


def test_verify_veronese5_verdicts_hold_on_the_qr_split(tmp_path):
    # the same verdicts as the SVD split gave (its residual read 4.4e-9)
    code, out, err = _call(["verify", veronese_file(tmp_path, 5)])
    assert code == 0, err
    payload = json.loads(out)
    assert payload["passed"] is True
    assert [r["passed"] for r in payload["reports"]] == [True, True]
    harmonicity = payload["harmonicity"]
    assert harmonicity["passed"] is True
    assert harmonicity["residual"] <= harmonicity["tolerance"]


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


def _build_file(tmp_path, name):
    flags, free = _BUILDS[name]
    free_path, spec_path = tmp_path / f"free_{name}.json", tmp_path / f"{name}.json"
    free_path.write_text(json.dumps(free))
    assert _call(["build", *flags, "--free", str(free_path), "--out", str(spec_path)])[0] == 0
    return str(spec_path)


def test_flow_past_the_split_bound_is_one_line_error(tmp_path):
    # the U_3 build flows to t = -25 by its uniton chain, at energy 3; its
    # bare copy (exponents stripped) is peeled to the same loop at t = -20.
    # `flow` reads specs only, so its one-line refusal is pinned on the U_4
    # build at t = -15, where the trim drops the lambda^0 block and the
    # circle pass finds the loop singular
    path = _build_file(tmp_path, "u3")
    code, out, err = _call(["flow", path, "--z=0.3,0.1", "--t=-20,-25"])
    assert code == 0 and err == ""
    steps = json.loads(out)["steps"]
    assert all(abs(step["energy"] - 3.0) <= 1e-9 for step in steps)
    loop = assemble_loop(cli._load_spec(path))
    peel = cstar_flow(LoopMat("exact", loop.n, loop.lo, loop.coeffs), -20.0, complex(0.3, 0.1))
    assert abs(energy(peel) - 3.0) <= 1e-9
    chain = np.array([[[complex(*e) for e in row] for row in m] for m in steps[0]["loop"]["coeffs"]])
    assert (peel.lo, peel.hi) == (steps[0]["loop"]["lo"], len(chain) - 1)
    assert np.abs(peel.coeffs - chain).max() <= 1e-14
    code, out, err = _call(["flow", _build_file(tmp_path, "u4"), "--z=0.3,0.1", "--t=-15"])
    assert code == 2 and out == ""
    assert err.startswith("error: SingularOnCircle: ") and err.count("\n") == 1, err


def test_flow_of_the_u4_builds_reaches_t_minus_10(tmp_path):
    # the U_4 and even (3,2,1,0) builds split by their uniton chains at
    # t = -10, where the generator split was refused; the energy has climbed
    # to 10 there
    for name in ("u4", "even"):
        code, out, err = _call(["flow", _build_file(tmp_path, name), "--z=0.3,0.1", "--t=-10"])
        assert code == 0, err
        assert abs(json.loads(out)["steps"][0]["energy"] - 10.0) <= 1e-6, name


def test_flow_trimmed_past_the_lowest_block_takes_the_circle_verdict(tmp_path):
    # at t = -30 the trim drops the U_3 loop's lambda^0 block, so the split
    # reads m off the circle, whose SVD finds the loop singular
    code, out, err = _call(["flow", _build_file(tmp_path, "u3"), "--z=0.3,0.1", "--t=-30"])
    assert code == 2 and out == ""
    assert err.startswith("error: SingularOnCircle: ") and err.count("\n") == 1, err


def test_flow_at_negative_time_prints_no_noise_blocks(tmp_path, capsys):
    # the unitary factor of the U_3 build has powers 0..2 at every t; the
    # split multiplies its r = 2 uniton factors pi_j + lambda (I - pi_j), so
    # no rounding noise above lambda^2 reaches the printed loop
    code, out, _ = run(capsys, "flow", _build_file(tmp_path, "u3"), "--z=0.5,0.0", "--t=-5,0,5")
    assert code == 0
    for step in json.loads(out)["steps"]:
        assert step["loop"]["lo"] == 0 and len(step["loop"]["coeffs"]) == 3


def test_factor_veronese4_three_factors(tmp_path, capsys):
    code, out, _ = run(capsys, "factor", veronese_file(tmp_path, 4), "--z", "0.4,-0.3")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 3
    assert payload["reassembly_residual"] <= 1e-8
    for rec in payload["factors"]:
        assert rec["lo"] == 0 and len(rec["coeffs"]) == 2


def test_map_far_from_unitary_is_one_line_error(tmp_path):
    # the lambda-dependent even (3,2,1,0) build at z = 1000 splits by its
    # uniton chain and prints the flag oracle's value to rounding.  Every
    # map value is a product of reflections 2 pi - I, or Q diag(+-1) Q*, so
    # the map-value guard is safety code that
    # test_harmonic_map_far_from_unitary_is_refused reaches with a routine
    # that returns a non-projection
    path = _build_file(tmp_path, "even")
    code, out, err = _call(["map", path, "--z=1000,0"])
    assert code == 0 and err == ""
    phi = np.array([[complex(*entry) for entry in row] for row in json.loads(out)["matrix"]])
    u_ref, _ = flag_unitarize(assemble_loop(cli._load_spec(path)).at_z(1000))
    assert np.abs(phi - u_ref.to_numeric().evaluate(-1.0)).max() <= 1e-13
    # Veronese 5 at z = 30 splits by the flag of exp C, 4.7e-16 from unitary
    code, out, err = _call(["map", veronese_file(tmp_path, 5), "--z=30,0"])
    assert code == 0 and err == ""
    assert json.loads(out)["unitarity_residual"] <= 1e-9


def test_map_veronese5_far_out_prints_the_oracle_value(tmp_path):
    # the flag of exp C reads the exact value to rounding at z = 1000, where
    # a generator split's value is 9.9e-8 from unitary and refused
    code, out, err = _call(["map", veronese_file(tmp_path, 5), "--z=1000,0"])
    assert code == 0 and err == ""
    phi = np.array([[complex(*entry) for entry in row] for row in json.loads(out)["matrix"]])
    u_ref, _ = flag_unitarize(weierstrass.assemble_loop(veronese_solution(5)).at_z(1000))
    assert np.abs(phi - u_ref.to_numeric().evaluate(-1.0)).max() <= 1e-14


def test_factor_lambda_free_specs_prints_two_blocks_per_factor(tmp_path):
    # the factors are read off the uniton chain as pi + lambda (1 - pi), so
    # no rounding-noise block reaches them: a generator split left one at
    # Veronese 5 z = 30, and the chained partial splits left three or four
    # blocks on the lambda-dependent U_4 and even builds there
    z, one = RatFun.x(), RatFun.one()
    specs = {
        "even110": even_grassmannian_build(3, (1, 1, 0), [z, one]),
        "even2110": even_grassmannian_build(4, (2, 1, 1, 0), [z, z * z, one, -z]),
    }
    # a lambda-free spec's factors and unitary factor come from one QR of
    # exp C, where the chain read a reassembly residual of 4.0e-9 at
    # Veronese 14 and 1.8e-12 at Veronese 9
    paths = [veronese_file(tmp_path, n) for n in (5, 9, 14)]
    paths += [_build_file(tmp_path, n) for n in ("u3", "u4", "even")]
    for name, spec in specs.items():
        paths.append(str(tmp_path / f"{name}.json"))
        (tmp_path / f"{name}.json").write_text(jsonio.dumps(jsonio.spec_record(spec)) + "\n")
    for path in paths:
        code, out, err = _call(["factor", path, "--z=30,0"])
        assert code == 0, err
        payload = json.loads(out)
        assert payload["count"] > 0
        assert payload["reassembly_residual"] <= 1e-13, path
        for rec in payload["factors"]:
            assert (rec["lo"], len(rec["coeffs"])) == (0, 2), path


def test_factor_far_out_multiplies_to_the_oracle_value(tmp_path):
    # `factor` splits the raw stack it reads the factors off, so no trim
    # drops a column's lowest block: on the trimmed loop the split took the
    # circle pass and exited 2 with SingularOnCircle at these points
    v5, u4 = veronese_file(tmp_path, 5), _build_file(tmp_path, "u4")
    exact = twistor_value(veronese_solution(5), 10**6)
    u_ref, _ = flag_unitarize(weierstrass.assemble_loop(cli._load_spec(u4)).at_z(3000))
    cases = [
        (v5, 10**6, np.array([[complex(x.const_value()) for x in row] for row in exact])),
        (u4, 3000, u_ref.to_numeric().evaluate(-1.0)),
    ]
    for path, z, want in cases:
        code, out, err = _call(["factor", path, f"--z={z},0"])
        assert code == 0 and err == "", err
        payload = json.loads(out)
        assert payload["reassembly_residual"] <= 1e-13, path
        value = np.eye(len(want))
        for rec in payload["factors"]:
            blocks = [np.array([[complex(*e) for e in row] for row in c]) for c in rec["coeffs"]]
            value = value @ sum((-1) ** (rec["lo"] + i) * b for i, b in enumerate(blocks))
        assert np.abs(value - want).max() <= 1e-12, path


def test_u1_spec_builds_and_factors_into_no_factors(tmp_path):
    spec_path = tmp_path / "s1.json"
    code, _, err = _call(["build", "--n", "1", "--exponents", "0", "--out", str(spec_path)])
    assert code == 0, err
    assert json.loads(spec_path.read_text())["exponents"] == [0]
    code, out, err = _call(["factor", str(spec_path), "--z=0.1,0"])
    assert code == 0, err
    payload = json.loads(out)
    assert payload["count"] == 0 and payload["factors"] == []


_POLE_BUILD = (("--n", "3", "--exponents", "2,1,0"),
               {"c1_0[1,2]": {"num": ["0", "1"], "den": ["1"]},
                "c1_0[2,3]": {"num": ["1"], "den": ["1", "2", "1"]},
                "c2_1[1,3]": {"num": ["0", "1"], "den": ["1"]}})


def test_every_spec_split_takes_the_qr_branch(tmp_path, monkeypatch):
    # each loop these commands split is built from a spec: a lambda-free one
    # splits by one QR of exp C, and any other by the QRs of its uniton
    # chain, so no circle pass (whose det FFT would run) and no SVD runs
    paths = [veronese_file(tmp_path, n) for n in range(2, 9)]
    builds = [(name, _BUILDS[name]) for name in ("u3", "u4", "even")]
    builds += [("pole", _POLE_BUILD), ("u1", (("--n", "1", "--exponents", "0"), {}))]
    for name, (flags, free) in builds:
        free_path, spec_path = tmp_path / f"free_{name}.json", tmp_path / f"{name}.json"
        free_path.write_text(json.dumps(free))
        code, _, err = _call(["build", *flags, "--free", str(free_path), "--out", str(spec_path)])
        assert code == 0, err
        paths.append(str(spec_path))

    def refuse(*args, **kwargs):
        raise AssertionError("a spec-built loop ran the circle pass or the SVD")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(np.fft, "fft", refuse)
    commands = [["map", "--z=0.3,0.1"], ["factor", "--z=0.3,0.1"], ["verify"]]
    commands += [["flow", "--z=0.3,0.1", f"--t={t}"] for t in (-10, -5, -1, 0, 0.5, 2, 7)]
    for path in paths:
        for command, *flags in commands:
            code, _, err = _call([command, path, *flags])
            assert code == 0, (command, path, flags, err)


def _count_exp_builds(monkeypatch):
    """Record every exp C built, wherever exp_nilpotent is looked up."""
    calls = []
    original = weierstrass.exp_nilpotent

    def counted(c):
        calls.append(c)
        return original(c)

    for module in (weierstrass, factorization, cli):
        monkeypatch.setattr(module, "exp_nilpotent", counted, raising=False)
    return calls


@pytest.mark.parametrize(
    "argv, builds",
    [
        (["factor", "--z=0.3,0.1"], 1),  # one exp C for the whole chain
        (["flow", "--z=0.3,0.1", "--t=0,0.5,1"], 1),  # the limit is exp C at lambda = 0
    ],
)
def test_one_exp_c_per_command(tmp_path, monkeypatch, capsys, argv, builds):
    path = veronese_file(tmp_path, 5)
    calls = _count_exp_builds(monkeypatch)
    code, _, _ = run(capsys, argv[0], path, *argv[1:])
    assert code == 0 and len(calls) == builds


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
    code, out, err = run(capsys, "cell", str(path))
    assert code == 2 and out == ""
    assert err == f"error: {path}: kind must be 'exact', got 'numeric'\n", err


def test_cell_nonmonomial_determinant_names_true_powers(tmp_path, capsys):
    path = tmp_path / "lo.json"
    path.write_text('{"kind":"exact","n":2,"lo":-1,'
                    '"coeffs":[[["1","0"],["0","1"]],[["1","0"],["0","0"]]]}')
    code, out, err = run(capsys, "cell", str(path))
    assert code == 2 and out == ""
    assert "NonMonomialDeterminant" in err and "lambda powers [-2, -1];" in err


def test_cell_bool_lo_is_input_error(tmp_path, capsys):
    path = tmp_path / "lo.json"
    path.write_text('{"kind":"exact","n":2,"lo":true,"coeffs":[[["1","0"],["0","1"]]]}')
    code, out, err = run(capsys, "cell", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


def _off_grade_records():
    """Spec files off the grading that `build` keeps: Veronese 4's slots under
    exponents (1,1,1,0), where C stays strictly upper triangular; Veronese 2
    with a strictly lower c1_0, nilpotent but not upper triangular; and
    Veronese 2 with z on the diagonal of c1_0, not nilpotent."""
    z = {"num": ["0", "1"], "den": ["1"]}
    flat = jsonio.spec_record(veronese_solution(4))
    flat["exponents"] = [1, 1, 1, 0]
    lower = jsonio.spec_record(veronese_solution(2))
    lower["slots"]["c1_0"] = [["0", "0"], [z, "0"]]
    diagonal = jsonio.spec_record(veronese_solution(2))
    diagonal["slots"]["c1_0"] = [["0", "0"], ["0", z]]
    return {"flat1110": flat, "lower": lower}, diagonal


def _suite_spec_files(tmp_path):
    """A file for every spec the suite builds: Veronese 2-8, the seeded U_3 and
    U_4 builds of test_verify, the three even builds, the CLI builds and the
    nilpotent off-grade files."""
    z, one = RatFun.x(), RatFun.one()
    specs = {f"veronese{n}": veronese_solution(n) for n in range(2, 9)}
    for seed in (1, 2, 3, 31, 9001):
        rng = random.Random(seed)
        for n, exps, count in ((4, (3, 2, 1, 0), 6), (3, (2, 1, 0), 3)):
            free = [seeded_free_poly(rng, 1 + k % 3) for k in range(count)]
            specs[f"seed{seed}_u{n}"] = build_from_free_functions(n, exps, free)
    specs["even110"] = even_grassmannian_build(3, (1, 1, 0), [z, one])
    specs["even2110"] = even_grassmannian_build(4, (2, 1, 1, 0), [z, z * z, one, -z])
    specs["even3210"] = even_grassmannian_build(4, (3, 2, 1, 0), [z, z * z, one + one, z])
    records = {name: jsonio.spec_record(spec) for name, spec in specs.items()}
    records.update(_off_grade_records()[0])
    paths = []
    for name, rec in records.items():
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(jsonio.dumps(rec) + "\n")
    builds = dict(_BUILDS, pole=_POLE_BUILD, u1=(("--n", "1", "--exponents", "0"), {}))
    for name, (flags, free) in builds.items():
        free_path = tmp_path / f"free_{name}.json"
        free_path.write_text(json.dumps(free))
        paths.append(tmp_path / f"build_{name}.json")
        code, _, err = _call(["build", *flags, "--free", str(free_path), "--out", str(paths[-1])])
        assert code == 0, err
    return paths


def test_cell_of_a_spec_is_the_smith_cell_of_its_loop(tmp_path):
    # exp C is a unit, so cell prints the exponents without a Smith reduction;
    # pinned against the reduction of the assembled loop
    for path in _suite_spec_files(tmp_path):
        spec = jsonio.parse_spec(json.loads(path.read_text()))
        expected = bruhat_cell(assemble_loop(spec)).exponents
        code, out, err = _call(["cell", str(path)])
        assert (code, err) == (0, ""), (path, err)
        assert out == jsonio.dumps({"exponents": list(expected)}) + "\n", path


def test_cell_of_a_spec_whose_c_is_not_nilpotent_is_one_line_error(tmp_path):
    path = tmp_path / "diagonal.json"
    path.write_text(jsonio.dumps(_off_grade_records()[1]))
    code, out, err = _call(["cell", str(path)])
    assert (code, out) == (2, "")
    assert err == "error: NotNilpotent: matrix is not nilpotent\n", err


def test_verify_reports_the_library_uniton_numbers(tmp_path):
    # verify sums the exp C series once for its loop and the report; pinned
    # against uniton_number_report on every spec file and on C = lambda z E_31
    # under (2, 1, 0), whose width 4 = hi Psi + hi Psi^-1 is not its height
    c = [[RatFun.zero()] * 3 for _ in range(3)]
    c[2][0] = RatFun.x()
    offgrade = ExtendedSolutionSpec(3, (2, 1, 0), {(1, 2): c})
    paths = _suite_spec_files(tmp_path)
    paths.append(tmp_path / "offgrade.json")
    paths[-1].write_text(jsonio.dumps(jsonio.spec_record(offgrade)))
    for path in paths:
        spec = jsonio.parse_spec(json.loads(path.read_text()))
        code, out, err = _call(["verify", str(path)])
        assert (code, err) == (0, ""), (path, err)
        expected = jsonio.uniton_numbers_record(uniton_number_report(spec))
        assert json.loads(out)["uniton_numbers"] == expected, path
    assert expected["ad_width"] == 4


def test_big_cell_reports_derivative_matrix(tmp_path, capsys):
    code, out, _ = run(capsys, "big-cell", veronese_file(tmp_path, 2))
    assert code == 0
    payload = json.loads(out)
    assert payload["in_big_cell_form"] is True
    assert payload["V"][0][1]["num"], "upper slot should carry the derivative"
    assert payload["V"][1][0] == {"num": [], "den": ["1"]}


def test_big_cell_failure_exits_one(tmp_path, capsys):
    rec = jsonio.spec_record(veronese_solution(2))
    rec["slots"]["c1_0"] = [["0", "0"], ["0", {"num": ["0", "1"], "den": ["1"]}]]
    path = tmp_path / "offgrade.json"
    path.write_text(jsonio.dumps(rec))
    code, out, _ = run(capsys, "big-cell", str(path))
    assert code == 1
    payload = json.loads(out)
    assert payload["in_big_cell_form"] is False and "grade" in payload["reason"]


def test_spec_with_strict_grading_key_is_input_error(tmp_path, capsys):
    # the key no longer exists, so it is refused like any other unknown key
    rec = jsonio.spec_record(veronese_solution(2))
    rec["strict_grading"] = True
    path = tmp_path / "old.json"
    path.write_text(jsonio.dumps(rec))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and out == ""
    assert err == f"error: {path}: unknown keys ['strict_grading']\n", err


# -- argument handling ---------------------------------------------------------------------


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["conjugate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("target", ["missing/out.json", "."])
def test_unwritable_out_is_one_line_input_error(tmp_path, monkeypatch, target):
    # a missing directory, and a directory in place of the file
    monkeypatch.chdir(tmp_path)
    code, out, err = _call(["demo", "veronese", "--n", "2", "--out", target])
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1, err


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


def test_step_below_float_resolution_is_input_error(tmp_path, capsys):
    # at h = 1e-300 every stencil point rounds onto its node, where the
    # residual of any map would read 0
    code, out, err = run(capsys, "verify", veronese_file(tmp_path, 3), "--h", "1e-300")
    assert code == 2 and out == ""
    assert err.startswith("error: StepBelowResolution: ") and err.count("\n") == 1
    assert "grid node (0.3+0.2j)" in err and "h = 1e-300" in err


def test_overflowing_point_is_typed_error(tmp_path, capsys):
    path = veronese_file(tmp_path, 3)
    for argv in [
        ("map", "--z", "1e200,0"),
        ("flow", "--z=0,-1e200", "--t", "0"),
        ("factor", "--z", "1e200,0"),
        ("verify", "--grid", "1e308,0"),
        ("verify", "--h", "1e308"),
        ("verify", "--grid", "999999.9995,0"),  # the point is in range, its stencil is not
    ]:
        code, out, err = run(capsys, argv[0], path, *argv[1:])
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "outside the input range |RE|, |IM| <= 1e+06" in err, err


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
        ("flow", "--z", "0.1,0", "--t", "0,50.5"),
        ("demo", "veronese", "--n", "66"),  # exponents past the JSON input limit
    ],
)
def test_empty_or_out_of_range_input_is_input_error(tmp_path, capsys, argv):
    if argv[0] != "demo":
        argv = (argv[0], veronese_file(tmp_path, 2), *argv[1:])
    code, out, err = run(capsys, *argv)
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


def _assert_contract(argv, code, out, err):
    """0: JSON out, 1: JSON with a failed verdict, 2: one `error:` line; no
    other stderr."""
    assert code in (0, 1, 2), argv
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    else:
        assert err == "", (argv, err)
        payload = json.loads(out)
        assert code == 0 or payload["passed"] is False, argv


@settings(max_examples=60)
@given(command=st.sampled_from(["verify", "map", "flow", "factor"]), data=st.data())
def test_fuzzed_arguments_keep_exit_code_contract(veronese2_path, command, data):
    argv = [command, veronese2_path] + _argv_for(command, data.draw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would be printed to stderr
        code, out, err = _call(argv)
    if err.startswith("usage: "):  # argparse rejected a value: usage, then one error line
        lines = err.splitlines()
        assert code == 2 and ": error: " in lines[-1], (argv, err)
        assert not any("error" in line for line in lines[:-1]), (argv, err)
    else:
        _assert_contract(argv, code, out, err)


# -- exit-code contract under fuzzed JSON files ----------------------------------------------

_ZB = {"num": [], "den": ["1"]}  # the zero entry
_Z = {"num": ["0", "1"], "den": ["1"]}  # the entry z
_BASE_DOCS = {
    "spec": {"n": 2, "exponents": [1, 0], "even_only": False,
             "slots": {"c1_0": [[_ZB, _Z], [_ZB, _ZB]]}},
    "free": {"c1_0[1,2]": _Z},
    "exact-loop": {"kind": "exact", "n": 2, "lo": 0,
                   "coeffs": [[["1", _Z], ["0", "0"]], [["0", "0"], ["0", "1"]]]},
    "numeric-loop": {"kind": "numeric", "n": 2, "lo": 0,
                     "coeffs": [[[[1, 0], [0.3, 0.1]], [[0, 0], [0, 0]]],
                                [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]]},
}
_COMMANDS = {
    "spec": [["cell"], ["big-cell"], ["map", "--z=0.3,0.1"], ["factor", "--z=0.3,0.1"],
             ["flow", "--z=0.3,0.1", "--t=1"], ["verify", "--grid=0.3,0.1"]],
    "free": [["build", "--n", "2", "--exponents", "1,0", "--free"]],
    "exact-loop": [["cell"]],
    "numeric-loop": [["cell"]],
}
_HUGE = "1" + "0" * 400  # an exact rational far past the float range
_JSON_VALUES = st.sampled_from([
    None, True, 0, -1, 2**70, 1e308, -1e308, float("nan"), float("inf"),
    "", "x", "1/0", "1e308", _HUGE, "1/" + _HUGE, "9" * 5000, "0+1i", "-3/4",
    [], {}, [[]], [1e308, 1e308], [float("nan"), 0], [2000, 0], [10**9, 0], [65, 0], [1, 1],
    {"num": [], "den": []}, {"num": ["1"], "den": ["0"]}, {"num": ["1"]},
    {"num": ["0", _HUGE], "den": ["1"]}, {"num": ["1"], "den": [_HUGE, "1"]},
])


def _paths(obj, prefix=()):
    yield prefix
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _replaced(obj, path, value):
    if not path:
        return value
    obj = copy.deepcopy(obj)
    _at(obj, path[:-1])[path[-1]] = value
    return obj


# leaves: exact scalars and numeric parts, many of them valid, so that the
# fuzzed file often parses and reaches the exact and numeric lanes
_LEAF_VALUES = st.sampled_from([
    "0", "1", "-3/4", "0+1i", "2-1/2i", "1/" + _HUGE, _HUGE, "-" + _HUGE + "i",
    "9" * 5000, "1/0", "1e308", "x", "", 0, 0.5, -2, 1e6, 1e7, 1e308, float("nan"),
])


def _fuzzed_text(kind, draw):
    base = _BASE_DOCS[kind]
    how = draw(st.sampled_from(["leaf", "leaf", "replace", "replace", "duplicate", "nest",
                                "truncate"]))
    if how == "leaf":
        doc = base
        leaves = [p for p in _paths(base) if not isinstance(_at(base, p), (dict, list))]
        for _ in range(draw(st.integers(1, 3))):
            doc = _replaced(doc, draw(st.sampled_from(leaves)), draw(_LEAF_VALUES))
        return json.dumps(doc)
    if how == "replace":
        doc = base
        for _ in range(draw(st.integers(1, 2))):
            path = draw(st.sampled_from(list(_paths(doc))))
            doc = _replaced(doc, path, draw(_JSON_VALUES))
        return json.dumps(doc)
    text = json.dumps(base)
    if how == "duplicate":  # repeat the first key of the top-level object
        key = next(iter(base))
        return "{" + json.dumps(key) + ":" + json.dumps(base[key]) + "," + text[1:]
    if how == "nest":
        depth = draw(st.sampled_from([1, 50, 100_000]))
        return "[" * depth + text + "]" * depth
    return text[: draw(st.integers(0, len(text) - 1))]


@settings(max_examples=80)
@given(kind=st.sampled_from(sorted(_BASE_DOCS)), data=st.data())
def test_fuzzed_json_files_keep_exit_code_contract(tmp_path_factory, kind, data):
    path = tmp_path_factory.mktemp("json") / f"{kind}.json"
    path.write_text(_fuzzed_text(kind, data.draw))
    argv = data.draw(st.sampled_from(_COMMANDS[kind])) + [str(path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would be printed to stderr
        code, out, err = _call(argv)
    _assert_contract(argv, code, out, err)


@pytest.mark.parametrize(
    "argv, text",
    [
        (["verify"], "[" * 100_000 + "]" * 100_000),
        (["verify"], '{"n":2,"n":2,"exponents":[1,0],"even_only":false,"slots":{}}'),
        (["verify"], '{"n":2,"exponents":[2000,0],"even_only":false,"slots":{}}'),
        (["cell"], '{"n":2,"exponents":[1000000000,0],"even_only":false,"slots":{}}'),
        (["cell"], '{"kind":"numeric","n":1,"lo":0,"coeffs":[[[[1e308,1e308]]]]}'),
        (["map", "--z=0.3,0.1"], json.dumps(_replaced(
            _BASE_DOCS["spec"], ("slots", "c1_0", 0, 1, "num", 1), _HUGE))),
    ],
    ids=["deep-nesting", "duplicate-key", "exponent-2000", "exponent-1e9",
         "numeric-1e308", "rational-1e400"],
)
def test_hostile_json_file_is_input_error(tmp_path, argv, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _call(argv + [str(path)])
    assert code == 2 and out == "", err
    assert err.startswith("error: ") and err.count("\n") == 1, err


# -- pinned exact-lane bytes ------------------------------------------------------------------
# sha256 of exact-lane outputs as recorded before the uniton number was read off
# degrees and the Bruhat cell off the Smith diagonal; those of the `large` build,
# before Gaussian rationals became integer triples; those of the bare loops,
# before polynomial results skipped the coercion and gcds of the constructors.
# The outputs hold only strings and integers, so the digests hold on every
# platform and Python version.


def _poly(*coeffs):
    return {"num": [str(c) for c in coeffs], "den": ["1"]}


_BUILDS = {
    "u3": (("--n", "3", "--exponents", "2,1,0"),
           {"c1_0[1,2]": _poly(0, 1), "c1_0[2,3]": _poly(1, 1), "c2_1[1,3]": _poly(0, 1)}),
    "u4": (("--n", "4", "--exponents", "3,2,1,0"),
           {"c1_0[1,2]": _poly(0, 1), "c1_0[2,3]": _poly(0, 0, 1), "c1_0[3,4]": _poly(1, 1),
            "c2_1[1,3]": _poly(0, 2), "c2_1[2,4]": _poly(0, 0, 3), "c3_2[1,4]": "5"}),
    "even": (("--n", "4", "--exponents", "3,2,1,0", "--even"),
             {"c1_0[1,2]": _poly(0, 1), "c1_0[2,3]": _poly(0, 0, 1), "c1_0[3,4]": "2",
              "c3_2[1,4]": _poly(0, 1)}),
    # entries whose numerators and denominators outgrow a machine word once
    # the builder multiplies them
    "large": (("--n", "3", "--exponents", "2,1,0"),
              {"c1_0[1,2]": _poly(0, "123456789/987654321+5/7i"),
               "c1_0[2,3]": _poly("3/1000003", 1), "c2_1[1,3]": _poly(0, 1)}),
}
_SYMMETRIC_RANKS = {"A": 3, "B": 3, "C": 3, "D": 4, "E": 6, "F": 4, "G": 2}
# bare loops for `cell`: U diag(lambda^k) V with U, V products of shears
# I + c lambda^p E_ab, each (a, b, p, c), as the benchmark dresses them
_DRESSED = {
    "dressed3": (3, (2, 1, 0), [(0, 1, 1, "2"), (1, 2, 2, "-1+1i")],
                 [(1, 0, 0, "1-1i"), (2, 1, 3, "2")]),
    "dressed4": (4, (3, 1, 1, 0), [(1, 2, 1, "1"), (2, 3, 2, "-2"), (0, 3, 1, "1i")],
                 [(2, 1, 0, "-1"), (3, 2, 3, "1+1i"), (1, 0, 2, "2")]),
}
# [[lambda^2, lambda], [f lambda^2, 1 + f lambda]] with f = 2z / (2 + 2z) written
# as it stands, not in canonical form: det = lambda^2
_F = {"num": ["0", "2"], "den": ["2", "2"]}
_ZFRAC = {"kind": "exact", "n": 2, "lo": 0,
          "coeffs": [[["0", "0"], ["0", "1"]], [["0", "1"], ["0", _F]], [["1", "0"], [_F, "0"]]]}


def _shears(n, shears):
    loop = LoopMat.identity(n)
    for a, b, p, c in shears:
        blocks = [[["1" if i == j else "0" for j in range(n)] for i in range(n)]]
        blocks += [[["0"] * n for _ in range(n)] for _ in range(p)]
        blocks[p][a][b] = c
        loop = loop @ jsonio.parse_loop({"kind": "exact", "n": n, "lo": 0, "coeffs": blocks})
    return loop


def _exact_lane_outputs(workdir):
    """Output text of each pinned command: stdout, led by the exit code where
    it can be 1; for verify, only its exact sections."""
    texts = {}
    specs = {}
    for n in (2, 3, 4, 5):
        _, texts[f"demo veronese {n}"], _ = _call(["demo", "veronese", "--n", str(n)])
        specs[f"veronese{n}"] = texts[f"demo veronese {n}"]
    for name, (flags, free) in _BUILDS.items():
        free_path = workdir / f"free_{name}.json"
        free_path.write_text(json.dumps(free))
        _, texts[f"build {name}"], _ = _call(["build", *flags, "--free", str(free_path)])
        specs[name] = texts[f"build {name}"]
    for name, text in specs.items():
        path = workdir / f"{name}.json"
        path.write_text(text)
        for command in ("cell", "big-cell"):
            code, out, _ = _call([command, str(path)])
            texts[f"{command} {name}"] = f"{code}\n{out}"
        _, out, _ = _call(["verify", str(path)])
        payload = json.loads(out)
        texts[f"verify {name}"] = json.dumps(
            {key: payload[key] for key in ("reports", "uniton_numbers")}, sort_keys=True
        )
    loops = {name: jsonio.loop_record(_shears(n, left) @ LoopMat.diag_powers(ks) @ _shears(n, right))
             for name, (n, ks, left, right) in _DRESSED.items()}
    loops["zfrac"] = _ZFRAC
    for name, rec in loops.items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(rec))
        code, out, _ = _call(["cell", str(path)])
        texts[f"cell {name}"] = f"{code}\n{out}"
    _, texts["tables groups"], _ = _call(["tables", "groups"])
    for letter, rank in _SYMMETRIC_RANKS.items():
        argv = ["tables", "symmetric", "--type", letter, "--rank", str(rank)]
        _, texts[f"tables symmetric {letter}"], _ = _call(argv)
    return texts


_EXACT_DIGESTS = {
    "demo veronese 2": "22f6aff5f211cb8c078190d85bebafb3c3b0be1f7fe99869d378a749bbc5783c",
    "demo veronese 3": "91815cf8b37041dad2d4c0910e9621845f7dd513775182120bbc9c920137c854",
    "demo veronese 4": "4fd168a874f65a13b4373d643b10d55826c6b401c95fd08371f5262428426b4e",
    "demo veronese 5": "e8bf0be9ee51dd033bc624179c14299dc448781e93dbd8b6d5efa0d40b95347b",
    "build u3": "57dc9558e7d0f923bae85c6d421d8c7619c981000e8c2ca33a8598399bac003e",
    "build u4": "2e7fc56202972b30abd3c6cb085c5b6dcac7c26c00fee834a4d85c5610345cc2",
    "build even": "28853d0b376c27a150faeb8f43810ed1ac88491c72de71ef0285ba2c2ed34682",
    "cell veronese2": "6ff6bc4dbd028335daab6804b8139a2d634dfe7109bc4b15c10dd45a1df7df14",
    "big-cell veronese2": "54d1d8e6878585e0854ab1af1d8302124b09a9990cf5e4a8c748c3939882372a",
    "verify veronese2": "c00df8e21f733e2d5cf78fbb15c026883b6051338d2bff0378a383ffa0409531",
    "cell veronese3": "a27737f13b00dca6b3d67034ebd6aef132216a47c924d062b0fba788ca32c445",
    "big-cell veronese3": "5942e598c4f443f8357b35845cdcc3ccd2ec056a7b94c74dac2e4a6abc0e1079",
    "verify veronese3": "466053a54cc61aa103b56559f159a54ee6d1f026a7cafa2e340246ef412f331a",
    "cell veronese4": "cab1197c6a33b80be7958b48aed7064d8dd99b2e1353887f6debc66646821e32",
    "big-cell veronese4": "313fbb0bc0fbea81ac5c2a77115498cb291ab75d66b53cd4fed93dc02f235664",
    "verify veronese4": "2ccfd21452ec0821aa8cae390cb8f6e72391d294312a27c03f34215f3324c3f0",
    "cell veronese5": "970a69d9ae0ef429938257fe3674fc32d02abb0c92593106d5e373c6c1e44cd1",
    "big-cell veronese5": "2d96965d9e821c4b75b5038e9f86920406e17c30b8b17fe53f771d1c8300385f",
    "verify veronese5": "776791f30e46e72ef51cb409105e451cf5bdac751f4a186d1ccd50eb2ff24089",
    "cell u3": "a27737f13b00dca6b3d67034ebd6aef132216a47c924d062b0fba788ca32c445",
    "big-cell u3": "da0ef51511302ca7cbec5e5509de688e1a4fdc9e2c72da5dd149d149dc9228cd",
    "verify u3": "b28ec1a5a133f52fc8a7e4e094b5e60ce222e487a581d730ab4f101c9005afdf",
    "cell u4": "cab1197c6a33b80be7958b48aed7064d8dd99b2e1353887f6debc66646821e32",
    "big-cell u4": "68c1900deecc101da138a4a46687b229a175b46f23035910d8b51e5f86a031f4",
    "verify u4": "d2a736feb9d431598546b28874cf73ce429e604e1749cfe249d7df0d8134387d",
    "cell even": "cab1197c6a33b80be7958b48aed7064d8dd99b2e1353887f6debc66646821e32",
    "big-cell even": "16845c0b0905fcb88f29f1da0b5da92ea7c874f67a2908d4a656db0cb53dafc1",
    "verify even": "90012998296184fdfb7b4f5416ae398ee9427c99b56c64b35936f866a8637547",
    "build large": "9c19a49fdbca8ffec009fbe52cb222f71fd385f8982f09fdb6b5d19dd68cf74a",
    "cell large": "a27737f13b00dca6b3d67034ebd6aef132216a47c924d062b0fba788ca32c445",
    "big-cell large": "022098bc71def6d9a67f996037b8a5c67585e87404b2502fa434d13391a503a8",
    "verify large": "b28ec1a5a133f52fc8a7e4e094b5e60ce222e487a581d730ab4f101c9005afdf",
    "cell dressed3": "a27737f13b00dca6b3d67034ebd6aef132216a47c924d062b0fba788ca32c445",
    "cell dressed4": "01569df17040681b9de004163585cedc779a04491bf7ec1acd898812a629a3d5",
    "cell zfrac": "631fa541039001023ed54f9e6343f43a336aa045da92eb7a93f935256a1e4178",
    "tables groups": "7154e4345c6a7a2b078d36dbb515a26f794d649c34e8aa17ef5632aafb5c0fa5",
    "tables symmetric A": "16568377a31d84b60034946608b93c1fe4cb5c746ae8464f9cca4497c8cf7dcd",
    "tables symmetric B": "5022e946b00c272e57ddde057cf180ad7dfabdbed2cd74dd932049a20372b219",
    "tables symmetric C": "8869bd56150e7919ec38befb358a0a934502b1e2b5e00e9063d03a7aca81431f",
    "tables symmetric D": "7615f74c4823191cec4b5599460f358cdd2c1f7cf58cda9a72452197db196a8b",
    "tables symmetric E": "c67c25f75c4741944a908aa0fc729afcef474ad8c1025ddb51a4a8932728579b",
    "tables symmetric F": "ce6ea30250ef1128e90ef7a130b43fafe3e4d93cf169a91171e7e4ef61001b66",
    "tables symmetric G": "85ab4e786c1f04f4cd04731faa741b49c397061fa8ec4e2bee811618f9c34460",
}


def test_exact_lane_outputs_match_pinned_digests(tmp_path):
    digests = {
        key: hashlib.sha256(text.encode("utf-8")).hexdigest()
        for key, text in _exact_lane_outputs(tmp_path).items()
    }
    assert digests == _EXACT_DIGESTS
