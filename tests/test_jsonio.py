"""Round-trip and determinism tests for the JSON records."""

import numpy as np
import pytest

from oracles import ratfun_reference
from unitons import jsonio
from unitons.errors import SchemaError
from unitons.scalars import GaussianRational, Poly, RatFun
from unitons.loops import LoopMat
from unitons.weierstrass import build_from_free_functions, veronese_solution


Z = RatFun.x()


def poly(*coeffs):
    return RatFun(Poly([GaussianRational(c) for c in coeffs]))


def u4_spec():
    return build_from_free_functions(
        4, (3, 2, 1, 0), [poly(0, 1, 2), poly(1, 1), poly(0, 0, 3), Z, poly(2), poly(0, 1)]
    )


# -- serializer -------------------------------------------------------------


def test_dumps_is_compact_and_ordered():
    text = jsonio.dumps({"b": [1, True, None], "a": "x"})
    assert text == '{"b":[1,true,null],"a":"x"}'


def test_dumps_floats_use_17_significant_digits():
    assert jsonio.dumps(0.1) == "0.10000000000000001"
    assert jsonio.dumps(1.0) == "1"
    assert jsonio.dumps(-0.0) == "0"
    assert float(jsonio.dumps(1 / 3)) == 1 / 3


def test_dumps_rejects_non_finite():
    with pytest.raises(ValueError):
        jsonio.dumps(float("nan"))


def test_loads_rejects_bad_text():
    with pytest.raises(SchemaError):
        jsonio.loads("{not json")


# -- scalars and rational functions ------------------------------------------


def test_scalar_round_trip():
    for text in ["3/4", "-3/4+1/2i", "0+1i", "0-2i", "5"]:
        assert str(jsonio.parse_scalar(text)) == text


def test_ratfun_record_round_trip():
    f = RatFun(Poly([1, 0, 2]), Poly([GaussianRational(1, 2), GaussianRational(1)]))
    rec = jsonio.ratfun_record(f)
    assert jsonio.parse_ratfun(rec) == f
    assert jsonio.dumps(jsonio.ratfun_record(jsonio.parse_ratfun(rec))) == jsonio.dumps(rec)


def test_ratfun_constant_shorthand():
    assert jsonio.parse_ratfun("1/2") == RatFun(GaussianRational.from_string("1/2"))


def test_ratfun_zero_has_empty_numerator():
    rec = jsonio.ratfun_record(RatFun.zero())
    assert rec == {"num": [], "den": ["1"]}
    assert jsonio.parse_ratfun(rec).is_zero()


def test_ratfun_rejects_zero_denominator():
    with pytest.raises(SchemaError):
        jsonio.parse_ratfun({"num": ["1"], "den": []})


@pytest.mark.parametrize("text", ["1/0", "0/0", "1+1/0i", "3/0i"])
def test_scalar_with_zero_denominator_names_the_problem(text):
    with pytest.raises(SchemaError, match=r"^f\.den\[0\]: zero denominator in '.*'$"):
        jsonio.parse_scalar(text, "f.den[0]")


@pytest.mark.parametrize("num", [
    ["1", "2"], ["0", "1/2+3i", "0"], ["0/3", "5", "0/3", "0"], ["0", "0/3"], [], ["-7/2i"],
])
@pytest.mark.parametrize("den", [["1"], ["2"], ["1/3-1i", "0"], ["0", "1"], ["1", "2", "1"]])
def test_parsed_ratfun_matches_the_public_constructors_and_the_reference(num, den):
    got = jsonio.parse_ratfun({"num": num, "den": den})
    p, q = (Poly([GaussianRational.from_string(s) for s in part]) for part in (num, den))
    expected = RatFun(p, q)
    assert (got.num, got.den) == (expected.num, expected.den) == ratfun_reference(p, q)
    assert got.den.lead() == GaussianRational(1)
    assert not got.num.coeffs or not got.num.coeffs[-1].is_zero()


@pytest.mark.parametrize("bad, message", [
    ("x", "cannot parse Gaussian rational 'x'"),
    (3, "expected a string, got int"),
    ("1/0", "zero denominator in '1/0'"),
    (None, "expected a string, got NoneType"),
])
@pytest.mark.parametrize("part", ["num", "den"])
def test_bad_coefficient_error_names_its_index(bad, message, part):
    rec = {"num": ["1", "2", "3"], "den": ["1", "0", "1"]}
    rec[part][2] = bad
    with pytest.raises(SchemaError) as info:
        jsonio.parse_ratfun(rec, "loop.coeffs[0][1][0]")
    text = str(info.value)
    assert text == f"loop.coeffs[0][1][0].{part}[2]: {message}" and "\n" not in text


def test_duplicate_key_names_the_first_repeat():
    with pytest.raises(SchemaError, match=r"^invalid JSON: duplicate key 'b'$"):
        jsonio.loads('{"a": 1, "b": 2, "c": {"d": 1}, "b": 3, "a": 4}')
    assert jsonio.loads('{"a": {"a": 1}, "b": [{"a": 2}]}') == {"a": {"a": 1}, "b": [{"a": 2}]}


def test_ratfun_rejects_unknown_keys():
    with pytest.raises(SchemaError):
        jsonio.parse_ratfun({"num": ["1"], "den": ["1"], "extra": 3})


# -- loops -------------------------------------------------------------------


def test_exact_loop_round_trip():
    loop = LoopMat.diag_powers((2, 0)).shift(-1)
    rec = jsonio.loop_record(loop)
    back = jsonio.parse_loop(rec)
    assert back == loop
    assert jsonio.dumps(jsonio.loop_record(back)) == jsonio.dumps(rec)


def test_loop_schema_errors():
    good = jsonio.loop_record(LoopMat.identity(2))
    bad_kind = dict(good, kind="fuzzy")
    with pytest.raises(SchemaError):
        jsonio.parse_loop(bad_kind)
    with pytest.raises(SchemaError):
        jsonio.parse_loop({"kind": "exact", "n": 2, "lo": 0})
    short_row = dict(good, coeffs=[[["1"], ["0", "1"]]])
    with pytest.raises(SchemaError):
        jsonio.parse_loop(short_row)


def test_numeric_entries_must_be_pairs():
    # numeric loops are written as [re, im] pairs, but loop files are exact:
    # a numeric one is refused, well-formed or not
    written = jsonio.loop_record(LoopMat.numeric([np.array([[1 + 2j, 0], [0.5, -0.25j]])], lo=-1))
    assert written == {"kind": "numeric", "n": 2, "lo": -1,
                       "coeffs": [[[[1.0, 2.0], [0.0, 0.0]], [[0.5, 0.0], [0.0, -0.25]]]]}
    for rec in (written, {"kind": "numeric", "n": 1, "lo": 0, "coeffs": [[[1.0]]]}):
        with pytest.raises(SchemaError, match="kind must be 'exact', got 'numeric'"):
            jsonio.parse_loop(rec)


# -- solution specs -----------------------------------------------------------


def test_spec_round_trip_identical():
    for spec in [u4_spec(), veronese_solution(3)]:
        rec = jsonio.spec_record(spec)
        back = jsonio.parse_spec(rec)
        assert back == spec
        assert jsonio.dumps(jsonio.spec_record(back)) == jsonio.dumps(rec)


def test_spec_record_is_deterministic():
    a = jsonio.dumps(jsonio.spec_record(u4_spec()))
    b = jsonio.dumps(jsonio.spec_record(u4_spec()))
    assert a == b


def test_spec_slot_names_are_graded():
    rec = jsonio.spec_record(u4_spec())
    assert "c1_0" in rec["slots"] and "c3_1" in rec["slots"]


def test_spec_schema_errors():
    rec = jsonio.spec_record(veronese_solution(2))
    bad = dict(rec, exponents=[0, 1])
    with pytest.raises(SchemaError):
        jsonio.parse_spec(bad)
    with pytest.raises(SchemaError):
        jsonio.parse_spec(dict(rec, extra=1))
    weird = dict(rec, slots={"d1_0": rec["slots"]["c1_0"]})
    with pytest.raises(SchemaError):
        jsonio.parse_spec(weird)
    upside_down = dict(rec, slots={"c0_1": rec["slots"]["c1_0"]})
    with pytest.raises(SchemaError):
        jsonio.parse_spec(upside_down)


def test_spec_rejects_out_of_range_slot():
    rec = jsonio.spec_record(veronese_solution(2))
    rec = dict(rec, slots=dict(rec["slots"], c5_2=rec["slots"]["c1_0"]))
    with pytest.raises(SchemaError):
        jsonio.parse_spec(rec)


# -- free-function files -------------------------------------------------------


def test_free_missing_keys_default_to_zero():
    values = jsonio.parse_free({}, (1, 0))
    assert len(values) == 1 and values[0].is_zero()


def test_free_rejects_unknown_keys():
    with pytest.raises(SchemaError):
        jsonio.parse_free({"c9_7[1,2]": "1"}, (1, 0))


# -- reports -------------------------------------------------------------------


def test_report_record_shape():
    from unitons.verify import check_extended

    rec = jsonio.report_record(check_extended(u4_spec()))
    assert rec["passed"] is True
    assert all(set(c) == {"name", "passed", "evidence"} for c in rec["checks"])
