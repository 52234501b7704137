"""Deterministic JSON records for loops, solution specs, and reports.

Every writer emits keys in a fixed order and floats with 17 significant
digits, so identical objects always produce byte-identical text.  Exact
scalars travel as strings like "3/4" or "-1/2+2/3i"; rational functions
as {"num": [...], "den": [...]} coefficient lists in increasing degree.
"""

import json

from .errors import SchemaError
from .scalars import GaussianRational, Poly, RatFun
from .loops import LoopMat
from .weierstrass import ExtendedSolutionSpec, free_slot_layout


# ---------------------------------------------------------------------------
# serializer


def _fmt_float(x):
    x = float(x)
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return format(x, ".17g")


def _write(obj, out):
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_fmt_float(obj))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for k, item in enumerate(obj):
            if k:
                out.append(",")
            _write(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for k, key in enumerate(obj):
            if k:
                out.append(",")
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, got {key!r}")
            out.append(json.dumps(key))
            out.append(":")
            _write(obj[key], out)
        out.append("}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def dumps(obj):
    """Compact deterministic JSON text (keys in insertion order)."""
    out = []
    _write(obj, out)
    return "".join(out)


def loads(text):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaError(f"invalid JSON: {exc}") from None


# ---------------------------------------------------------------------------
# schema helpers


def _expect(cond, where, msg):
    if not cond:
        raise SchemaError(f"{where}: {msg}")


def _get(obj, key, where, kind=None):
    _expect(isinstance(obj, dict), where, f"expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise SchemaError(f"{where}: missing key {key!r}")
    val = obj[key]
    if kind is not None and not isinstance(val, kind):
        name = kind.__name__ if isinstance(kind, type) else "/".join(t.__name__ for t in kind)
        raise SchemaError(f"{where}.{key}: expected {name}, got {type(val).__name__}")
    return val


def _no_extra_keys(obj, allowed, where):
    extra = sorted(set(obj) - set(allowed))
    _expect(not extra, where, f"unknown keys {extra}")


# ---------------------------------------------------------------------------
# scalars and rational functions


def parse_scalar(text, where="scalar"):
    _expect(isinstance(text, str), where, f"expected a string, got {type(text).__name__}")
    try:
        return GaussianRational.from_string(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"{where}: {exc}") from None


def _poly_strs(p):
    return [str(p[k]) for k in range(p.degree + 1)] if not p.is_zero() else []


def ratfun_record(f):
    f = f if isinstance(f, RatFun) else RatFun(f)
    return {"num": _poly_strs(f.num), "den": _poly_strs(f.den)}


def parse_ratfun(obj, where="ratfun"):
    if isinstance(obj, str):  # constant shorthand
        return RatFun(parse_scalar(obj, where))
    _no_extra_keys(obj if isinstance(obj, dict) else {}, ("num", "den"), where)
    num = _get(obj, "num", where, list)
    den = _get(obj, "den", where, list)
    num = Poly([parse_scalar(s, f"{where}.num[{k}]") for k, s in enumerate(num)])
    den = Poly([parse_scalar(s, f"{where}.den[{k}]") for k, s in enumerate(den)])
    _expect(not den.is_zero(), where, "zero denominator")
    return RatFun(num, den)


# ---------------------------------------------------------------------------
# loops


def loop_record(loop):
    rec = {"kind": loop.kind, "n": loop.n, "lo": loop.lo}
    if loop.kind == "exact":
        rec["coeffs"] = [
            [[ratfun_record(e) for e in row] for row in c] for c in loop.coeffs
        ]
    else:
        rec["coeffs"] = [
            [[[float(e.real), float(e.imag)] for e in row] for row in c]
            for c in loop.coeffs
        ]
    return rec


def _parse_numeric_entry(obj, where):
    _expect(
        isinstance(obj, list) and len(obj) == 2,
        where,
        "numeric entries are [re, im] pairs",
    )
    re, im = obj
    _expect(
        isinstance(re, (int, float)) and isinstance(im, (int, float)),
        where,
        "numeric entries are [re, im] pairs",
    )
    return complex(re, im)


def parse_loop(obj, where="loop"):
    _no_extra_keys(obj if isinstance(obj, dict) else {}, ("kind", "n", "lo", "coeffs"), where)
    kind = _get(obj, "kind", where, str)
    _expect(kind in ("exact", "numeric"), where, f"kind must be 'exact' or 'numeric', got {kind!r}")
    n = _get(obj, "n", where, int)
    _expect(isinstance(n, int) and not isinstance(n, bool) and n >= 1, where, "n must be a positive integer")
    lo = _get(obj, "lo", where, int)
    coeffs_obj = _get(obj, "coeffs", where, list)
    _expect(len(coeffs_obj) >= 1, where, "coeffs must be non-empty")
    coeffs = []
    for k, mat in enumerate(coeffs_obj):
        cw = f"{where}.coeffs[{k}]"
        coeffs.append(_parse_matrix(mat, n, cw, numeric=(kind == "numeric")))
    if kind == "numeric":
        return LoopMat.numeric(coeffs, lo)
    return LoopMat.exact(coeffs, lo)


def _parse_matrix(mat, n, where, numeric=False):
    _expect(isinstance(mat, list) and len(mat) == n, where, f"expected {n} rows")
    rows = []
    for a, row in enumerate(mat):
        _expect(isinstance(row, list) and len(row) == n, f"{where}[{a}]", f"expected {n} entries")
        if numeric:
            rows.append([_parse_numeric_entry(e, f"{where}[{a}][{b}]") for b, e in enumerate(row)])
        else:
            rows.append([parse_ratfun(e, f"{where}[{a}][{b}]") for b, e in enumerate(row)])
    return rows


# ---------------------------------------------------------------------------
# solution specs


def _slot_name(i, j):
    return f"c{j}_{i}"


def _parse_slot_name(name, where):
    body = name[1:] if name.startswith("c") else None
    parts = body.split("_") if body else []
    if len(parts) == 2 and all(p.isdigit() for p in parts):
        j, i = int(parts[0]), int(parts[1])
        if i < j:
            return i, j
    raise SchemaError(f"{where}: bad slot name {name!r} (expected 'c<j>_<i>' with j > i)")


def spec_record(spec):
    rec = {
        "n": spec.n,
        "exponents": list(spec.exponents),
        "even_only": spec.even_only,
        "strict_grading": spec.strict_grading,
    }
    slots = {}
    for i, j in sorted(spec.c_slots):
        m = spec.c_slots[(i, j)]
        slots[_slot_name(i, j)] = [[ratfun_record(e) for e in row] for row in m]
    rec["slots"] = slots
    return rec


def parse_spec(obj, where="spec"):
    _no_extra_keys(
        obj if isinstance(obj, dict) else {},
        ("n", "exponents", "even_only", "strict_grading", "slots"),
        where,
    )
    n = _get(obj, "n", where, int)
    _expect(isinstance(n, int) and not isinstance(n, bool) and n >= 1, where, "n must be a positive integer")
    exponents = _get(obj, "exponents", where, list)
    _expect(
        len(exponents) == n
        and all(isinstance(k, int) and not isinstance(k, bool) for k in exponents),
        where,
        f"exponents must be {n} integers",
    )
    _expect(
        all(exponents[a] >= exponents[a + 1] for a in range(n - 1)) and exponents[-1] == 0,
        where,
        "exponents must be non-increasing and end at 0",
    )
    even_only = _get(obj, "even_only", where, bool)
    strict = _get(obj, "strict_grading", where, bool)
    slots_obj = _get(obj, "slots", where, dict)
    r = exponents[0]
    slots = {}
    for name in slots_obj:
        sw = f"{where}.slots[{name!r}]"
        i, j = _parse_slot_name(name, sw)
        _expect(0 <= i and j <= r, sw, f"slot powers out of range for height {r}")
        slots[(i, j)] = _parse_matrix(slots_obj[name], n, sw)
    return ExtendedSolutionSpec(
        n=n,
        exponents=tuple(exponents),
        c_slots=slots,
        even_only=even_only,
        strict_grading=strict,
    )


# ---------------------------------------------------------------------------
# free-function files: {"c1_0[1,2]": ratfun, ...} with 1-based positions


def free_record(spec):
    rec = {}
    for i, pos in free_slot_layout(spec.exponents, spec.even_only):
        m = spec.c_slots.get((i, i + 1))
        for a, b in pos:
            entry = m[a][b] if m is not None else RatFun.zero()
            rec[f"{_slot_name(i, i + 1)}[{a + 1},{b + 1}]"] = ratfun_record(entry)
    return rec


def parse_free(obj, exponents, even_only=False, where="free"):
    _expect(isinstance(obj, dict), where, f"expected an object, got {type(obj).__name__}")
    layout = free_slot_layout(exponents, even_only)
    allowed = {}
    values = []
    for i, pos in layout:
        for a, b in pos:
            key = f"{_slot_name(i, i + 1)}[{a + 1},{b + 1}]"
            allowed[key] = len(values)
            values.append(RatFun.zero())
    extra = sorted(set(obj) - set(allowed))
    _expect(not extra, where, f"unknown keys {extra} (allowed: {sorted(allowed)})")
    for key in obj:
        values[allowed[key]] = parse_ratfun(obj[key], f"{where}[{key!r}]")
    return values


# ---------------------------------------------------------------------------
# reports


def report_record(report):
    return {
        "context": report.context,
        "passed": report.passed,
        "checks": [
            {"name": c.name, "passed": c.passed, "evidence": c.evidence}
            for c in report.checks
        ],
    }


def uniton_numbers_record(numbers):
    return {
        "ad_width": numbers.ad_width,
        "group_bound": numbers.group_bound,
        "height": numbers.height,
        "canonical_bound": numbers.canonical_bound,
        "attains_height": numbers.attains_height,
        "within_group_bound": numbers.within_group_bound,
    }
