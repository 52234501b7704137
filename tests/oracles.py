"""Independent exact-arithmetic references used only by the tests.

The flag unitarizer below splits an invertible exact loop into its based
unitary factor and a disc-holomorphic factor by peeling one affine projector
per step: the image of the lowest lambda coefficient determines the next
projector, and the peel lowers the determinant winding, so the process stops.
It shares no code path with the production Toeplitz routine, which is the
point: the two routes must agree on their overlap.
"""

from unitons import exactmat
from unitons.errors import ExactKindUnsupported
from unitons.loops import LoopMat
from unitons.scalars import RatFun


def column_space_basis(m):
    """Basis of the column span of an exact matrix, as a list of columns."""
    n = len(m)
    basis = []  # list of (pivot_index, column) with column normalized at pivot
    for j in range(n):
        col = [m[i][j] for i in range(n)]
        for piv, vec in basis:
            if not col[piv].is_zero():
                f = col[piv]
                col = [c - f * v for c, v in zip(col, vec)]
        piv = next((i for i, c in enumerate(col) if not c.is_zero()), None)
        if piv is None:
            continue
        inv = RatFun.one() / col[piv]
        basis.append((piv, [c * inv for c in col]))
    return [vec for _, vec in basis]


def flag_unitarize(psi: LoopMat):
    """Exact Iwasawa split of a z-free exact loop.

    Returns (unitary, plus): unitary is a product of projector factors
    pi + lambda*(1 - pi) times a lambda power, takes the value I at
    lambda = 1, and plus has powers >= 0 with invertible constant term.
    psi == unitary @ plus exactly.
    """
    if psi.kind != "exact":
        raise ExactKindUnsupported("flag unitarizer needs an exact loop")
    n = psi.n
    winding, _ = psi.det_lambda()  # validates invertibility on the circle
    work = psi
    shift = work.lo
    if shift:
        work = work.shift(-shift)
    unitary = LoopMat.identity(n).shift(shift)
    budget = winding - n * shift  # each peel removes at least one power
    steps = 0
    while True:
        cols = column_space_basis(work.coeff(work.lo))
        if len(cols) == n:
            break
        pi = exactmat.projector_const(cols)
        pi_perp = exactmat.mat_sub(exactmat.eye(n), pi)
        factor = LoopMat("exact", n, 0, [pi, pi_perp])
        # (pi + lambda pi_perp)^-1 = pi + lambda^-1 pi_perp; the lambda^-1
        # term annihilates the old constant coefficient, so powers stay >= 0
        inv = LoopMat("exact", n, -1, [pi_perp, pi])
        unitary = unitary @ factor
        work = inv @ work
        steps += 1
        assert steps <= budget, "projector peeling failed to terminate"
    return unitary, work


def ad_width_by_conjugation(loop: LoopMat) -> int:
    """Largest |k| over the nonzero lambda^k coefficients of L E_jr L^-1.

    Entry (i,s) of L E_jr L^-1 is L_ij (L^-1)_rs, so running over every
    elementary matrix E_jr reaches every entry of Ad L; the width is read
    off n^2 exact loop products.
    """
    n = loop.n
    inv = loop.inverse()
    width = 0
    for j in range(n):
        for r in range(n):
            e = exactmat.zeros(n)
            e[j][r] = RatFun.one()
            image = loop @ LoopMat("exact", n, 0, [e]) @ inv
            width = max(width, abs(image.lo), abs(image.hi))
    return width
