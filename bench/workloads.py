"""Seeded inputs, ops and outside correctness checks for the three workloads.

An op is one call into a public entry point of `unitons`: either
`unitons.cli.main([...])` in-process, with stdout captured, or a named
library function.  `build_ops(workload, seed, workdir)` generates every input
from the seed alone, writes the JSON files the CLI ops read into `workdir`,
and returns one cycle of ops.  The timed phase repeats that cycle whole, so
every run of a workload does the same mix of work whatever its length.

Each op carries its own check.  The checks read the program's output with
numpy and the stdlib only; they never call `unitons` again.  A check may
also read the first-cycle output of another op of the cycle (`factor`
reads the `map` matrix at the same spec and z).

Known defect, kept visible on purpose: at the `verify` defaults
(h = 1e-3, tol = 1e-5) the finite-difference harmonicity residual of the
lambda-dependent builds (seeded U_3 and U_4, and the U_3 build of demo 03)
often sits above tol: 1.9e-6 to 2.9e-2 at the nodes of seeds 1-60 and 9001,
so 3 to 6 of the 14 ops fail per seed.  It falls by 4 when h is halved and
does not move with the truncation order: step error, not factorization.
Those `harmonic-grid` ops are counted in `failed`.  Only that verdict, with
a residual no larger than DEFECT_CEILING, is excused as the known defect; an
exception, a changed output or a larger residual on the same ops makes a run
incorrect like any other failure.  A fix to `verify` shows up as fewer
failures.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
from fractions import Fraction

import numpy as np
from unitons import cli, jsonio, verify

# the verify defaults; harmonic-grid uses them for every spec
VERIFY_H = 1e-3
VERIFY_TOL = 1e-5
# largest harmonicity residual excused as the known h^2 step error: twice
# the largest seen (4.5e-2 over 516 nodes), and 5x below the smallest seen
# on maps that are not harmonic (0.56)
DEFECT_CEILING = 0.1
# harmonic-grid nodes lie in the square |Re z|, |Im z| <= NODE_SPAN
NODE_SPAN = 0.7
# numeric checks on map / flow / factor output
NUMERIC_TOL = 1e-8
CIRCLE_SAMPLES = 64

# fixed builds as (label, n, exponents, free entries), entries named in
# NAMED_POLYS or integer constants: the lambda-free even builds of the
# acceptance suite (criterion 09), and the generic U_3 build of demo 03
EVEN_BUILDS = (
    ("even110", 3, (1, 1, 0), ("z", "1")),
    ("even2110", 4, (2, 1, 1, 0), ("z", "z^2", "1", "-z")),
    ("even3210", 4, (3, 2, 1, 0), ("z", "z^2", "2", "z")),
)
DEMO03_BUILD = ("U3demo", 3, (2, 1, 0), ("z", "1+z", "z"))
NAMED_POLYS = {
    "z": [(0, 0), (1, 0)],
    "-z": [(0, 0), (-1, 0)],
    "1+z": [(1, 0), (1, 0)],
    "z^2": [(0, 0), (0, 0), (1, 0)],
}
VERONESE_N = (2, 3, 4, 5)
# map-flow-factor: |z| and flow time of spec j are MFF_RADII[j % 3], MFF_TIMES[j % 3]
MFF_RADII = (0.3, 0.5, 0.7)
MFF_TIMES = (0.5, 1.5, 2.5)
# exact-cells: dressed homomorphisms per cycle
DRESSED_LOOPS = 9


class Op:
    """One call into `unitons` and the outside check of its result.

    `run()` returns the op's output as text.  `check(text, peers)` returns
    None when the output is right and a one-line reason otherwise; `peers`
    maps each label of the cycle to that op's first-cycle output.
    `known_defect`, when set, takes an output that failed its check and
    tells whether the failure is the known defect.
    """

    __slots__ = ("label", "run", "check", "known_defect")

    def __init__(self, label, run, check, known_defect=None):
        self.label = label
        self.run = run
        self.check = check
        self.known_defect = known_defect


def digest(texts):
    """Hex sha256 of a sequence of op outputs, in order."""
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# exact input generation (no unitons objects: the program sees only JSON or
# objects it parsed itself)


def _gauss_str(re_part, im_part):
    """Canonical text of re + im*i, as unitons prints Gaussian rationals."""
    re_part, im_part = Fraction(re_part), Fraction(im_part)
    if im_part == 0:
        return str(re_part)
    sign = "+" if im_part >= 0 else "-"
    return f"{re_part}{sign}{abs(im_part)}i"


def _poly_record(coeffs):
    """{"num": [...], "den": ["1"]} with trailing zeros trimmed."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == (0, 0):
        coeffs.pop()
    return {"num": [_gauss_str(*c) for c in coeffs], "den": ["1"]}


def random_free_poly(rng, deg):
    """Random polynomial of the given degree with small Gaussian-rational
    coefficients (those of acceptance criterion 03), as a record.

    The degree is fixed by the caller and the leading coefficient is nonzero,
    so a seed changes the values of the inputs but not how much work they
    make.
    """
    def coeff():
        return (Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                Fraction(rng.randint(-3, 3), rng.randint(1, 2)))

    coeffs = [coeff() for _ in range(deg)]
    lead = coeff()
    while lead == (0, 0):
        lead = coeff()
    return _poly_record(coeffs + [lead])


def _named_record(text):
    return _poly_record(NAMED_POLYS.get(text) or [(int(text), 0)])


def grade_layout(exponents, even_only=False):
    """Free-data keys 'c<i+1>_<i>[a,b]' (1-based) in slot order."""
    n = len(exponents)
    keys = []
    for i in range(exponents[0]):
        if even_only and i % 2 == 1:
            continue
        for a in range(n):
            for b in range(n):
                if exponents[a] - exponents[b] == i + 1:
                    keys.append(f"c{i + 1}_{i}[{a + 1},{b + 1}]")
    return keys


def seeded_builds(seed, count=1):
    """Free data of `count` seeded lambda-dependent U_4 and U_3 builds each.

    Free entry k of a build has degree 1 + k mod 3, the degrees acceptance
    criterion 03 draws from, pinned per slot.
    """
    rng = random.Random(seed)
    out = []
    for copy in range(count):
        for n, exps in ((4, (3, 2, 1, 0)), (3, (2, 1, 0))):
            keys = grade_layout(exps)
            free = {key: random_free_poly(rng, 1 + k % 3) for k, key in enumerate(keys)}
            label = f"U{n}" + (f"_{copy}" if count > 1 else "")
            out.append({"label": label, "n": n, "exponents": exps, "even": False, "free": free})
    return out


def fixed_builds(table, even):
    out = []
    for label, n, exps, entries in table:
        keys = grade_layout(exps, even_only=even)
        free = {k: _named_record(t) for k, t in zip(keys, entries)}
        out.append({"label": label, "n": n, "exponents": exps, "even": even, "free": free})
    return out


def _unimodular_blocks(rng, n, shears):
    """Product of elementary lambda-shears I + c lambda^k E_ab, one per
    (a, b, k) in `shears` (the shears of acceptance criterion 07), as a
    Laurent matrix {power: n x n Gaussian integers (re, im)}; the seed picks
    each nonzero c."""
    loop = {0: [[(int(i == j), 0) for j in range(n)] for i in range(n)]}
    for a, b, k in shears:
        c = (0, 0)
        while c == (0, 0):
            c = (rng.randint(-2, 2), rng.randint(-1, 1))
        shear = {0: [[(int(i == j), 0) for j in range(n)] for i in range(n)]}
        shear.setdefault(k, [[(0, 0)] * n for _ in range(n)])[a][b] = c
        loop = _laurent_mul(loop, shear, n)
    return loop


def _laurent_mul(x, y, n):
    out = {}
    for p, a in x.items():
        for q, b in y.items():
            m = out.setdefault(p + q, [[(0, 0)] * n for _ in range(n)])
            for i in range(n):
                for j in range(n):
                    re_acc, im_acc = m[i][j]
                    for t in range(n):
                        u, v = a[i][t], b[t][j]
                        re_acc += u[0] * v[0] - u[1] * v[1]
                        im_acc += u[0] * v[1] + u[1] * v[0]
                    m[i][j] = (re_acc, im_acc)
    return out


def dressed_homomorphism(rng, j):
    """Loop JSON of U diag(lambda^k) V with unimodular U, V, and the planted k.

    The size, the planted exponents and the shear positions and powers follow
    from the index j; the seed picks the shear coefficients.
    """
    n = 2 + j % 3
    ks = [0]
    for i in range(n - 1):
        ks.append(ks[-1] + 1 + (i + j) % 2)
    ks = tuple(sorted(ks, reverse=True))
    left = _unimodular_blocks(rng, n, [(j % n, (j + 1) % n, 1), ((j + 1) % n, (j + 2) % n, 2)])
    diag = {}
    for i, k in enumerate(ks):
        m = diag.setdefault(k, [[(0, 0)] * n for _ in range(n)])
        m[i][i] = (1, 0)
    right = _unimodular_blocks(rng, n, [((j + 1) % n, j % n, 0), ((j + 2) % n, (j + 1) % n, 3)])
    loop = _laurent_mul(_laurent_mul(left, diag, n), right, n)
    powers = [p for p, m in loop.items() if any(e != (0, 0) for row in m for e in row)]
    lo, hi = min(powers), max(powers)
    zero = [[(0, 0)] * n for _ in range(n)]
    coeffs = [
        [[_poly_record([e]) for e in row] for row in loop.get(p, zero)]
        for p in range(lo, hi + 1)
    ]
    return {"kind": "exact", "n": n, "lo": lo, "coeffs": coeffs}, ks


def _rng_point(rng):
    """Uniform point of the square |Re z|, |Im z| <= NODE_SPAN."""
    return complex(round(rng.uniform(-NODE_SPAN, NODE_SPAN), 6),
                   round(rng.uniform(-NODE_SPAN, NODE_SPAN), 6))


def _rng_circle_point(rng, radius):
    """Point of the given modulus at a seeded angle.  Adaptive truncation
    depends on |z|, so pinning the modulus keeps the work of an op steady."""
    w = radius * np.exp(2j * np.pi * rng.random())
    return complex(round(w.real, 6), round(w.imag, 6))


def _point_arg(z):
    # "--z=RE,IM": a leading minus sign would otherwise read as an option
    return f"--z={z.real!r},{z.imag!r}"


# ---------------------------------------------------------------------------
# running the CLI in-process


def run_cli(argv):
    """(exit code, stdout) of `unitons.cli.main(argv)` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refusing the arguments
            code = exc.code
    return code, out.getvalue()


def _cli_payload(result):
    """(payload, None) from a CLI op's output, or (None, reason)."""
    if not isinstance(result, str):
        return None, "raised"
    code, _, text = result.partition("\n")
    if code != "0":
        return None, f"exit code {code}"
    try:
        return json.loads(text), None
    except ValueError:
        return None, "stdout is not JSON"


def _cli_op(label, argv, check_payload, peer=None):
    """A CLI op; with `peer`, check_payload also gets that op's payload."""
    def run():
        code, text = run_cli(argv)
        return f"{code}\n{text}"

    def check(result, peers):
        payload, why = _cli_payload(result)
        if why is not None:
            return why
        if peer is None:
            return check_payload(payload)
        peer_payload, why = _cli_payload(peers.get(peer))
        if why is not None:
            return f"{peer}: {why}"
        return check_payload(payload, peer_payload)

    return Op(label, run, check)


# ---------------------------------------------------------------------------
# numeric checks, from the emitted JSON with numpy only


def _matrix(rows):
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def _loop_values(rec, lams):
    """Values of a numeric loop record at the given lambdas."""
    coeffs = [_matrix(m) for m in rec["coeffs"]]
    return [
        sum(c * lam ** (rec["lo"] + k) for k, c in enumerate(coeffs)) for lam in lams
    ]


def _circle():
    return np.exp(2j * np.pi * np.arange(CIRCLE_SAMPLES) / CIRCLE_SAMPLES)


def check_map(payload, n):
    phi = _matrix(payload["matrix"])
    if phi.shape != (n, n):
        return f"matrix shape {phi.shape}"
    err = float(np.linalg.norm(phi @ phi.conj().T - np.eye(n)))
    return None if err <= NUMERIC_TOL else f"|phi phi* - I| = {err:.3e}"


def check_flow(payload, n):
    steps = payload["steps"]
    if len(steps) != 1:
        return f"{len(steps)} flow steps, expected 1"
    rec = steps[0]["loop"]
    if rec["kind"] != "numeric" or rec["n"] != n:
        return "step loop is not a numeric n x n loop"
    worst = max(
        float(np.linalg.norm(v @ v.conj().T - np.eye(n))) for v in _loop_values(rec, _circle())
    )
    if not worst <= NUMERIC_TOL:
        return f"step loop unitarity residual {worst:.3e}"
    at_one = float(np.linalg.norm(_loop_values(rec, [1.0])[0] - np.eye(n)))
    return None if at_one <= NUMERIC_TOL else f"|loop(1) - I| = {at_one:.3e}"


def check_factor(payload, n, map_payload):
    """Each factor is pi + lambda(1 - pi), and their product at lambda = -1
    is the harmonic map the `map` op printed for the same spec and z."""
    factors = payload["factors"]
    if len(factors) != payload["count"] or not factors:
        return "factor count mismatch"
    for idx, rec in enumerate(factors):
        coeffs = {rec["lo"] + k: _matrix(m) for k, m in enumerate(rec["coeffs"])}
        pi = coeffs.get(0, np.zeros((n, n)))
        rest = coeffs.get(1, np.zeros((n, n)))
        stray = max(
            (float(np.linalg.norm(m)) for p, m in coeffs.items() if p not in (0, 1)),
            default=0.0,
        )
        errs = (
            stray,
            float(np.linalg.norm(pi - pi.conj().T)),
            float(np.linalg.norm(pi @ pi - pi)),
            float(np.linalg.norm(pi + rest - np.eye(n))),
        )
        if not max(errs) <= NUMERIC_TOL:
            return f"factor {idx} is not pi + lambda(1 - pi): errors {errs}"
    prod = np.eye(n, dtype=complex)
    for rec in factors:
        prod = prod @ _loop_values(rec, [-1.0])[0]
    resid = float(np.linalg.norm(prod - _matrix(map_payload["matrix"])))
    return None if resid <= NUMERIC_TOL else f"|product(-1) - map| = {resid:.3e}"


# ---------------------------------------------------------------------------
# exact checks


_RAT = r"-?\d+(?:/\d+)?"
_GAUSS = re.compile(rf"^(?P<re>{_RAT})(?:(?P<sign>[+-])(?P<im>\d+(?:/\d+)?)i)?$")


def _gauss_value(text):
    m = _GAUSS.match(text)
    if not m:
        raise ValueError(f"not a Gaussian rational: {text!r}")
    im = Fraction(m.group("im")) if m.group("im") else Fraction(0)
    return Fraction(m.group("re")), -im if m.group("sign") == "-" else im


def _same_ratfun(a, b):
    """Records equal as (num, den) coefficient lists of Gaussian rationals."""
    return all(
        [_gauss_value(s) for s in a[key]] == [_gauss_value(s) for s in b[key]]
        for key in ("num", "den")
    )


def check_build(payload, build):
    if payload["n"] != build["n"] or tuple(payload["exponents"]) != build["exponents"]:
        return "built spec has the wrong shape"
    if payload["even_only"] != build["even"]:
        return "even_only flag not carried"
    for key, want in build["free"].items():
        slot, pos = key.split("[")
        a, b = (int(x) - 1 for x in pos.rstrip("]").split(","))
        mats = payload["slots"].get(slot)
        got = mats[a][b] if mats is not None else {"num": [], "den": ["1"]}
        if not _same_ratfun(got, want):
            return f"free entry {key} not carried into the spec"
    return None


# ---------------------------------------------------------------------------
# the three workloads


def _write_json(workdir, name, obj):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def _build_argv(b, free_path):
    argv = ["build", "--n", str(b["n"]), "--exponents", ",".join(map(str, b["exponents"])),
            "--free", free_path]
    return argv + ["--even"] if b["even"] else argv


def _build_specs(workdir, builds):
    """CLI-build each free-data set once; [(build, free path, spec path, spec)]."""
    out = []
    for b in builds:
        free_path = _write_json(workdir, f"free_{b['label']}.json", b["free"])
        spec_path = os.path.join(workdir, f"spec_{b['label']}.json")
        code, _ = run_cli(_build_argv(b, free_path) + ["--out", spec_path])
        if code != 0:
            raise RuntimeError(f"set-up build of {b['label']} exited {code}")
        with open(spec_path, encoding="utf-8") as fh:
            spec = jsonio.parse_spec(jsonio.loads(fh.read()), where=spec_path)
        out.append((b, free_path, spec_path, spec))
    return out


def _veronese_specs(workdir):
    out = []
    for n in VERONESE_N:
        path = os.path.join(workdir, f"spec_veronese{n}.json")
        code, _ = run_cli(["demo", "veronese", "--n", str(n), "--out", path])
        if code != 0:
            raise RuntimeError(f"set-up demo veronese {n} exited {code}")
        with open(path, encoding="utf-8") as fh:
            spec = jsonio.parse_spec(jsonio.loads(fh.read()), where=path)
        out.append((f"veronese{n}", path, spec))
    return out


def harmonic_grid_ops(seed, workdir):
    """verify.harmonicity_residual(verify.map_sampler(spec), [node]) per op.

    Seven specs, so that the median op falls inside one spec's cluster of
    op times rather than on the gap between two.
    """
    rng = random.Random(seed + 1)
    specs = [(label, spec, False) for label, _, spec in _veronese_specs(workdir)]
    builds = seeded_builds(seed) + fixed_builds([DEMO03_BUILD], even=False)
    specs += [(b["label"], spec, True) for b, _, _, spec in _build_specs(workdir, builds)]
    ops = []
    for label, spec, lam_dependent in specs:
        sampler = verify.map_sampler(spec)
        for _ in range(2):
            node = _rng_point(rng)

            def run(sampler=sampler, node=node):
                return repr(verify.harmonicity_residual(sampler, [node], h=VERIFY_H))

            def check(text, peers):
                r = float(text)
                return None if r <= VERIFY_TOL else f"residual {r:.3e} > {VERIFY_TOL:g}"

            def step_error(text):
                return float(text) <= DEFECT_CEILING

            ops.append(Op(f"harmonic/{label}@{node}", run, check,
                          known_defect=step_error if lam_dependent else None))
    return ops


def map_flow_factor_ops(seed, workdir):
    """CLI map, flow --t <t> and factor on every spec file at a seeded z.

    Spec j is evaluated at |z| = MFF_RADII[j mod 3] and flowed to about
    t = MFF_TIMES[j mod 3]; the seed picks the angle of z and a small shift of t.
    """
    rng = random.Random(seed + 2)
    specs = [(label, path, spec.n) for label, path, spec in _veronese_specs(workdir)]
    builds = seeded_builds(seed, count=2) + fixed_builds(EVEN_BUILDS, even=True)
    specs += [(b["label"], path, b["n"]) for b, _, path, _ in _build_specs(workdir, builds)]
    ops = []
    for j, (label, path, n) in enumerate(specs):
        z = _point_arg(_rng_circle_point(rng, MFF_RADII[j % 3]))
        t = f"--t={round(MFF_TIMES[j % 3] + rng.uniform(-0.1, 0.1), 6)!r}"
        ops.append(_cli_op(f"map/{label}", ["map", path, z],
                           lambda p, n=n: check_map(p, n)))
        ops.append(_cli_op(f"flow/{label}", ["flow", path, z, t],
                           lambda p, n=n: check_flow(p, n)))
        ops.append(_cli_op(f"factor/{label}", ["factor", path, z],
                           lambda p, m, n=n: check_factor(p, n, m), peer=f"map/{label}"))
    return ops


def exact_cells_ops(seed, workdir):
    """CLI build / big-cell / cell, cell on dressed homomorphisms, and the
    exact half of verify (check_extended, uniton_number_report)."""
    rng = random.Random(seed + 3)
    ops = []
    builds = seeded_builds(seed, count=2) + fixed_builds(EVEN_BUILDS, even=True)
    for b, free_path, spec_path, spec in _build_specs(workdir, builds):
        label = b["label"]
        exps = list(b["exponents"])
        ops.append(_cli_op(f"build/{label}", _build_argv(b, free_path),
                           lambda p, b=b: check_build(p, b)))
        ops.append(_cli_op(
            f"big-cell/{label}", ["big-cell", spec_path],
            lambda p: None if p.get("in_big_cell_form") is True else "not in big-cell form"))
        ops.append(_cli_op(
            f"cell/{label}", ["cell", spec_path],
            lambda p, e=exps: None if p["exponents"] == e else f"cell {p['exponents']} != {e}"))

        def run_ext(spec=spec):
            rep = verify.check_extended(spec)
            return json.dumps([rep.passed] + [[c.name, c.passed] for c in rep.checks])

        ops.append(Op(f"check_extended/{label}", run_ext,
                      lambda t, _: None if json.loads(t)[0] is True else "extended conditions fail"))

        def run_numbers(spec=spec):
            return repr(verify.uniton_number_report(spec).ad_width)

        ops.append(Op(f"uniton_numbers/{label}", run_numbers,
                      lambda t, _, h=exps[0]: None if int(t) == h else f"ad_width {t} != height {h}"))
    for k in range(DRESSED_LOOPS):
        loop, ks = dressed_homomorphism(rng, k)
        path = _write_json(workdir, f"dressed_{k}.json", loop)
        ops.append(_cli_op(
            f"cell/dressed{k}", ["cell", path],
            lambda p, e=list(ks): None if p["exponents"] == e else f"cell {p['exponents']} != {e}"))
    return ops


BUILDERS = {
    "harmonic-grid": harmonic_grid_ops,
    "map-flow-factor": map_flow_factor_ops,
    "exact-cells": exact_cells_ops,
}


def build_ops(workload, seed, workdir):
    return BUILDERS[workload](seed, workdir)
