"""Command-line front end.

Subcommands
    tables groups            max uniton numbers for the compact simple groups
    tables symmetric         survey of canonical elements for one Dynkin type
    build                    solve the shape conditions for given free data
    demo veronese            a built-in family of extended solutions
    verify                   run the verification suite on a solution file
    map                      evaluate the harmonic map at a point
    flow                     deform a solution along the scaling flow
    factor                   split the unitary frame into projector factors
    cell                     Birkhoff exponents of an exact loop or of a spec
    big-cell                 check the potential's normal form, report V

All output is deterministic JSON on stdout (or --out FILE).  Exit codes:
0 success, 1 a verification verdict failed, 2 bad input.
"""

import argparse
import math
import sys

from . import jsonio
from .errors import NotInBigCellForm, SchemaError, UnitonsError
from .factorization import (
    big_cell_check,
    bruhat_cell,
    cstar_flow,
    energy,
    flow_limit,
    harmonic_map_at,
    uniton_factorize,
)
from .loops import CompiledLoop, LoopMat
from .roots import build_root_system, group_max_uniton, symmetric_space_survey
from .verify import (
    _spec_numbers,
    check_extended,
    check_superhorizontal,
    check_T_invariant,
    harmonicity_residual,
    map_sampler,
)
from .weierstrass import (
    _assemble_with_inverse,
    assemble_numeric,
    build_from_free_functions,
    even_grassmannian_build,
    exp_nilpotent,
    veronese_solution,
)


# ---------------------------------------------------------------------------
# small input helpers

# input range: each --z, and each --grid point out to its stencil's +-2h, lies in
# |RE|, |IM| <= MAX_COORD; each flow time in |t| <= MAX_TIME, past which
# exp(-|t|) < 2e-22 adds nothing (exp(700) overflows a degree-one loop's norms)
MAX_COORD = 1e6
MAX_TIME = 50.0


def _parse_floats(text, expected="comma-separated numbers"):
    try:
        values = [float(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise SchemaError(f"expected {expected}, got {text!r}") from None
    if not all(math.isfinite(v) for v in values):
        raise SchemaError(f"expected {expected} with finite values, got {text!r}")
    return values


def _check_coords(reach, where):
    if not all(abs(c) <= MAX_COORD for c in reach):
        raise SchemaError(f"{where} is outside the input range |RE|, |IM| <= {MAX_COORD:g}")


def _parse_point(text):
    parts = _parse_floats(text, "a point 'RE,IM'")
    if len(parts) != 2 or text.count(",") != 1:
        raise SchemaError(f"expected a point 'RE,IM', got {text!r}")
    _check_coords(parts, f"point {text!r}")
    return complex(*parts)


def _parse_grid(text):
    return [_parse_point(p) for p in text.split(";") if p.strip()]


def _parse_exponents(text):
    try:
        ks = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise SchemaError(f"expected comma-separated integers, got {text!r}") from None
    if max(ks) > jsonio.MAX_EXPONENT:
        raise SchemaError(f"exponents must be at most {jsonio.MAX_EXPONENT}, got {text!r}")
    return ks


def _read_json(path):
    if path == "-":
        return jsonio.loads(sys.stdin.read())
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return jsonio.loads(fh.read())
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc.strerror or exc}") from None


def _load_spec(path):
    return jsonio.parse_spec(_read_json(path), where=path if path != "-" else "stdin")


def _complex_pair(w):
    return [float(w.real), float(w.imag)]


def _numeric_matrix(m):
    return [[_complex_pair(e) for e in row] for row in m]


def _emit(payload, out_path):
    text = jsonio.dumps(payload) + "\n"
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise SchemaError(f"cannot write {out_path}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# tables

# the survey has 2^rank records; 8 is the rank of E_8, the largest in `tables groups`
MAX_RANK = 8


_GROUP_ROWS = (
    ("SU_n", "A", "n-1", lambda n: n - 1, range(2, 9)),
    ("SO_{2n+1}", "B", "2n-1", lambda n: n, range(2, 7)),
    ("Sp_n", "C", "2n-1", lambda n: n, range(2, 7)),
    ("SO_{2n}", "D", "2n-3", lambda n: n, range(3, 8)),
    ("G_2", "G", "5", lambda n: 2, (2,)),
    ("F_4", "F", "11", lambda n: 4, (4,)),
    ("E_6", "E", "11", lambda n: 6, (6,)),
    ("E_7", "E", "17", lambda n: 7, (7,)),
    ("E_8", "E", "29", lambda n: 8, (8,)),
)


def cmd_tables_groups(args):
    rows = []
    for group, letter, formula, to_rank, params in _GROUP_ROWS:
        samples = []
        for n in params:
            rs = build_root_system(letter, to_rank(n))
            samples.append([n, group_max_uniton(rs)])
        rows.append({"group": group, "type": letter, "formula": formula, "samples": samples})
    _emit({"rows": rows}, args.out)
    return 0


def cmd_tables_symmetric(args):
    if args.rank > MAX_RANK:
        raise SchemaError(f"--rank must be at most {MAX_RANK}, got {args.rank}")
    rs = build_root_system(args.type, args.rank)
    rows = []
    for rec in symmetric_space_survey(rs):
        rows.append(
            {
                "marks": list(rec.marks),
                "components": list(rec.components),
                "center_dim": rec.center_dim,
                "height": rec.height,
                "names": list(rec.names),
            }
        )
    _emit({"type": args.type, "rank": args.rank, "rows": rows}, args.out)
    return 0


# ---------------------------------------------------------------------------
# construction


def cmd_build(args):
    exponents = _parse_exponents(args.exponents)
    free_obj = _read_json(args.free) if args.free else {}
    free = jsonio.parse_free(free_obj, exponents, even_only=args.even,
                             where=args.free or "free")
    if args.even:
        spec = even_grassmannian_build(args.n, exponents, free)
    else:
        spec = build_from_free_functions(args.n, exponents, free)
    _emit(jsonio.spec_record(spec), args.out)
    return 0


def cmd_demo_veronese(args):
    # the exponents are n-1, ..., 0, and a spec must read back
    if args.n > jsonio.MAX_EXPONENT + 1:
        raise SchemaError(f"--n must be at most {jsonio.MAX_EXPONENT + 1}, got {args.n}")
    _emit(jsonio.spec_record(veronese_solution(args.n)), args.out)
    return 0


# ---------------------------------------------------------------------------
# verification


DEFAULT_GRID = ((0.3, 0.2), (-0.4, 0.5), (0.1, -0.6), (-0.2, -0.3))


def cmd_verify(args):
    if not (math.isfinite(args.h) and args.h > 0):
        raise SchemaError(f"--h must be a finite step > 0, got {args.h!r}")
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise SchemaError(f"--tol must be a finite threshold > 0, got {args.tol!r}")
    grid = [complex(*p) for p in DEFAULT_GRID] if args.grid is None else _parse_grid(args.grid)
    if not grid:
        raise SchemaError(f"--grid must name at least one point, got {args.grid!r}")
    for w in grid:
        reach = (abs(w.real) + 2 * args.h, abs(w.imag) + 2 * args.h)
        _check_coords(reach, f"grid point {_complex_pair(w)} +- 2h (h = {args.h!r})")
    spec = _load_spec(args.solution)
    reports = [check_extended(spec)]
    loop, inverse = _assemble_with_inverse(spec)

    lambda_free = all(i == 0 for i, _ in spec.c_slots)
    if lambda_free:
        reports.append(check_superhorizontal(spec))
    if spec.even_only:
        reports.append(check_T_invariant(loop.based()))

    numbers = _spec_numbers(spec, loop, inverse)

    sampler = map_sampler(loop)
    residual = harmonicity_residual(sampler, grid, h=args.h)
    harm_ok = residual <= args.tol

    passed = all(r.passed for r in reports) and harm_ok
    payload = {
        "context": f"extended solution, n={spec.n}, exponents={list(spec.exponents)}",
        "passed": passed,
        "reports": [jsonio.report_record(r) for r in reports],
        "uniton_numbers": jsonio.uniton_numbers_record(numbers),
        "harmonicity": {
            "grid": [_complex_pair(w) for w in grid],
            "h": args.h,
            "residual": residual,
            "tolerance": args.tol,
            "passed": harm_ok,
        },
    }
    _emit(payload, args.out)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# evaluation, flow, factorization


def cmd_map(args):
    import numpy as np

    spec = _load_spec(args.solution)
    z = _parse_point(args.z)
    phi = harmonic_map_at(spec, z)
    residual = float(np.linalg.norm(phi @ phi.conj().T - np.eye(spec.n)))
    payload = {
        "z": _complex_pair(z),
        "n": spec.n,
        "matrix": _numeric_matrix(phi),
        "unitarity_residual": residual,
    }
    _emit(payload, args.out)
    return 0


def cmd_flow(args):
    spec = _load_spec(args.solution)
    z = _parse_point(args.z)
    times = _parse_floats(args.t)
    if not times:
        raise SchemaError(f"--t must name at least one time, got {args.t!r}")
    if not all(abs(t) <= MAX_TIME for t in times):
        raise SchemaError(f"--t {args.t!r} is outside the input range |t| <= {MAX_TIME:g}")
    # Psi = exp(C) gamma and its limit exp(C_0) gamma from one evaluation of
    # exp C: C has no negative powers, so exp C_0 is exp C at lambda = 0
    exp_c = CompiledLoop(exp_nilpotent(spec.c_lambda())).values([z])[0]
    psi = assemble_numeric(exp_c, spec.exponents)
    steps = []
    for t in times:
        loop = cstar_flow(psi, t, z)
        steps.append({"t": t, "energy": energy(loop), "loop": jsonio.loop_record(loop)})
    limit = flow_limit(spec)
    limit_loop = cstar_flow(assemble_numeric(exp_c[:1], spec.exponents), 0.0, z)
    payload = {
        "z": _complex_pair(z),
        "steps": steps,
        "limit": {
            "spec": jsonio.spec_record(limit),
            "energy": energy(limit_loop),
            "loop": jsonio.loop_record(limit_loop),
        },
    }
    _emit(payload, args.out)
    return 0


def cmd_factor(args):
    spec = _load_spec(args.solution)
    z = _parse_point(args.z)
    factors, full = uniton_factorize(spec, z)
    prod = LoopMat.identity(spec.n, kind="numeric")
    for q in factors:
        prod = prod @ q
    residual = (prod - full).max_coeff_norm()
    payload = {
        "z": _complex_pair(z),
        "count": len(factors),
        "factors": [jsonio.loop_record(q) for q in factors],
        "reassembly_residual": residual,
    }
    _emit(payload, args.out)
    return 0


def cmd_cell(args):
    obj = _read_json(args.loop)
    if isinstance(obj, dict) and "slots" in obj:
        target = jsonio.parse_spec(obj, where=args.loop)
    else:
        target = jsonio.parse_loop(obj, where=args.loop)
    _emit({"exponents": list(bruhat_cell(target).exponents)}, args.out)
    return 0


def cmd_big_cell(args):
    spec = _load_spec(args.solution)
    try:
        data = big_cell_check(spec)
    except NotInBigCellForm as exc:
        _emit({"in_big_cell_form": False, "reason": str(exc)}, args.out)
        return 1
    v = [[jsonio.ratfun_record(e) for e in row] for row in data.V]
    _emit({"in_big_cell_form": True, "V": v}, args.out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="unitons",
        description="harmonic maps into unitary groups via extended solutions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tables = sub.add_parser("tables", help="reference tables")
    tsub = tables.add_subparsers(dest="table", required=True)
    tg = tsub.add_parser("groups", help="max uniton numbers of the simple groups")
    tg.add_argument("--out")
    tg.set_defaults(func=cmd_tables_groups)
    ts = tsub.add_parser("symmetric", help="canonical-element survey for one type")
    ts.add_argument("--type", required=True, choices=("A", "B", "C", "D", "E", "F", "G"))
    ts.add_argument("--rank", required=True, type=int)
    ts.add_argument("--out")
    ts.set_defaults(func=cmd_tables_symmetric)

    build = sub.add_parser("build", help="solve the shape conditions for free data")
    build.add_argument("--n", required=True, type=int)
    build.add_argument("--exponents", required=True, help="comma-separated, e.g. 3,2,1,0")
    build.add_argument("--free", help="JSON file of free entries, keys like 'c1_0[1,2]'")
    build.add_argument("--even", action="store_true", help="restrict to even slots")
    build.add_argument("--out")
    build.set_defaults(func=cmd_build)

    demo = sub.add_parser("demo", help="built-in example solutions")
    dsub = demo.add_subparsers(dest="example", required=True)
    dv = dsub.add_parser("veronese", help="the rational normal curve family")
    dv.add_argument("--n", required=True, type=int)
    dv.add_argument("--out")
    dv.set_defaults(func=cmd_demo_veronese)

    verify = sub.add_parser("verify", help="run the verification suite")
    verify.add_argument("solution", nargs="?", default="-", help="solution file, or - for stdin")
    verify.add_argument("--grid", help="semicolon-separated points 'RE,IM;RE,IM'")
    verify.add_argument("--h", type=float, default=1e-3, help="finite-difference step")
    verify.add_argument("--tol", type=float, default=1e-5, help="harmonicity threshold")
    verify.add_argument("--out")
    verify.set_defaults(func=cmd_verify)

    mp = sub.add_parser("map", help="evaluate the harmonic map at a point")
    mp.add_argument("solution")
    mp.add_argument("--z", required=True, help="point 'RE,IM'")
    mp.add_argument("--out")
    mp.set_defaults(func=cmd_map)

    flow = sub.add_parser("flow", help="scaling flow toward the homomorphism limit")
    flow.add_argument("solution")
    flow.add_argument("--z", required=True, help="point 'RE,IM'")
    flow.add_argument("--t", required=True, help="comma-separated times")
    flow.add_argument("--out")
    flow.set_defaults(func=cmd_flow)

    factor = sub.add_parser("factor", help="projector factorization of the frame")
    factor.add_argument("solution")
    factor.add_argument("--z", required=True, help="point 'RE,IM'")
    factor.add_argument("--out")
    factor.set_defaults(func=cmd_factor)

    cell = sub.add_parser("cell", help="Birkhoff exponents of an exact loop")
    cell.add_argument("loop", help="loop or solution JSON file")
    cell.add_argument("--out")
    cell.set_defaults(func=cmd_cell)

    big = sub.add_parser("big-cell", help="normal-form check, reports the derivative matrix")
    big.add_argument("solution")
    big.add_argument("--out")
    big.set_defaults(func=cmd_big_cell)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except UnitonsError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
