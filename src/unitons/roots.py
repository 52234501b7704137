"""Root-system combinatorics for the compact simple Lie types.

Positive roots are generated from the Cartan matrix by the standard
closure algorithm and stored as coefficient vectors over the simple
roots.  Root levels, height bounds and the inner-symmetric-space survey
are all computed from that table.  Marks vectors are coefficients of an element of the
integer coweight lattice on the dual fundamental basis, so a root
alpha = sum m_i alpha_i pairs with xi as sum m_i xi_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import InvalidType, UnrecognizedSubsystem

_POSITIVE_COUNTS = {
    "A": lambda l: l * (l + 1) // 2,
    "B": lambda l: l * l,
    "C": lambda l: l * l,
    "D": lambda l: l * (l - 1),
    "E": {6: 36, 7: 63, 8: 120}.get,
    "F": {4: 24}.get,
    "G": {2: 6}.get,
}

_RANK_OK = {
    "A": lambda l: l >= 1,
    "B": lambda l: l >= 2,
    "C": lambda l: l >= 2,
    "D": lambda l: l >= 3,
    "E": lambda l: l in (6, 7, 8),
    "F": lambda l: l == 4,
    "G": lambda l: l == 2,
}


def cartan_matrix(type_letter, rank):
    """Cartan matrix with entry [i][j] = <alpha_i, alpha_j-check>."""
    t, l = type_letter, rank
    if t not in _RANK_OK or not _RANK_OK[t](l):
        raise InvalidType(f"no simple root system of type {t} rank {l}")
    a = [[2 if i == j else 0 for j in range(l)] for i in range(l)]

    def chain(i, j):
        a[i][j] = a[j][i] = -1

    if t in ("A", "B", "C"):
        for i in range(l - 1):
            chain(i, i + 1)
        if t == "B" and l >= 2:  # alpha_l short
            a[l - 2][l - 1] = -2
        if t == "C" and l >= 2:  # alpha_l long
            a[l - 1][l - 2] = -2
    elif t == "D":
        for i in range(l - 2):
            chain(i, i + 1)
        chain(l - 3, l - 1)
    elif t == "E":
        # node 2 hangs off node 4 of the chain 1-3-4-5-6-(7)-(8)
        edges = [(1, 3), (3, 4), (2, 4), (4, 5), (5, 6)]
        if l >= 7:
            edges.append((6, 7))
        if l == 8:
            edges.append((7, 8))
        for i, j in edges:
            chain(i - 1, j - 1)
    elif t == "F":
        chain(0, 1)
        chain(2, 3)
        a[1][2], a[2][1] = -2, -1  # alpha_3, alpha_4 short
    elif t == "G":
        a[0][1], a[1][0] = -1, -3  # alpha_1 short
    return tuple(tuple(row) for row in a)


def _close_positive_roots(cartan):
    l = len(cartan)
    simple = [tuple(1 if k == i else 0 for k in range(l)) for i in range(l)]
    roots = set(simple)
    layer = list(simple)
    while layer:
        nxt = set()
        for beta in layer:
            for j in range(l):
                q = 0
                probe = list(beta)
                while True:
                    probe[j] -= 1
                    if probe[j] < 0 or tuple(probe) not in roots:
                        break
                    q += 1
                pairing = sum(beta[k] * cartan[k][j] for k in range(l))
                if q - pairing > 0:
                    up = list(beta)
                    up[j] += 1
                    nxt.add(tuple(up))
        nxt -= roots
        roots |= nxt
        layer = sorted(nxt)
    return sorted(roots, key=lambda r: (sum(r), r))


def _simple_norms(cartan):
    """Squared norms (alpha_i, alpha_i) up to one overall scale."""
    l = len(cartan)
    d = [None] * l
    d[0] = Fraction(2)
    pending = [0]
    while pending:
        i = pending.pop()
        for j in range(l):
            if j != i and cartan[i][j] != 0 and d[j] is None:
                d[j] = d[i] * Fraction(cartan[j][i], cartan[i][j])
                pending.append(j)
    scale = Fraction(2) / min(d)
    return tuple(x * scale for x in d)


@dataclass(frozen=True)
class RootSystem:
    type: str
    rank: int
    cartan: tuple
    positive_roots: tuple
    highest_root: tuple
    simple_norms: tuple

    def inner(self, a, b):
        """Invariant inner product of two coefficient vectors."""
        total = Fraction(0)
        for i in range(self.rank):
            if a[i] == 0:
                continue
            for j in range(self.rank):
                if b[j] != 0:
                    total += a[i] * b[j] * self.cartan[i][j] * self.simple_norms[j] / 2
        return total

    def __repr__(self):
        return f"RootSystem({self.type}{self.rank})"


def build_root_system(type_letter, rank):
    cartan = cartan_matrix(type_letter, rank)
    pos = _close_positive_roots(cartan)
    expected = _POSITIVE_COUNTS[type_letter](rank)
    if len(pos) != expected:
        raise InvalidType(
            f"{type_letter}{rank}: closure produced {len(pos)} roots, expected {expected}"
        )
    highest = pos[-1]
    for r in pos:
        if any(r[i] > highest[i] for i in range(rank)):
            raise InvalidType(f"{type_letter}{rank}: no dominating highest root")
    return RootSystem(
        type=type_letter,
        rank=rank,
        cartan=cartan,
        positive_roots=tuple(pos),
        highest_root=highest,
        simple_norms=_simple_norms(cartan),
    )


# -- marks arithmetic ---------------------------------------------------------

def _check_marks(rs, marks):
    marks = tuple(int(m) for m in marks)
    if len(marks) != rs.rank:
        raise InvalidType(f"expected {rs.rank} marks, got {len(marks)}")
    if any(m < 0 for m in marks):
        raise InvalidType("marks must be non-negative")
    return marks


def level(root, marks):
    return sum(m * x for m, x in zip(root, marks))


def height_of(rs, marks):
    """Largest root level: r(xi) = max over positive roots of alpha(xi)."""
    marks = _check_marks(rs, marks)
    return max(level(r, marks) for r in rs.positive_roots)


def group_max_uniton(rs):
    """Sum of highest-root coefficients: the uniton-number bound for the group."""
    return sum(rs.highest_root)


# -- U_n bridge ---------------------------------------------------------------

def marks_from_exponents(exponents):
    """A_(n-1) marks from a non-increasing U_n exponent vector ending in 0;
    the lone exponent (0,) of U_1 has none."""
    k = tuple(int(x) for x in exponents)
    if not k or k[-1] != 0 or any(k[i] < k[i + 1] for i in range(len(k) - 1)):
        raise InvalidType("exponents must be non-increasing and end in 0")
    return tuple(k[i] - k[i + 1] for i in range(len(k) - 1))


# -- even-part classification and the symmetric-space survey -------------------

def _classify_component(rs, simples):
    """Dynkin label of an indecomposable simple system inside rs, read off
    its rank, its number of positive roots and how many simple roots are
    short.  The letter order keeps D3 as A3; C2 has one short root, so B2."""
    k = len(simples)
    norms = [rs.inner(b, b) for b in simples]
    cartan = [[int(2 * rs.inner(a, b) / nb) for b, nb in zip(simples, norms)] for a in simples]
    count = len(_close_positive_roots(cartan))
    short = sum(1 for x in norms if x < max(norms))
    letters = "ADE" if short == 0 else ("BG" if short == 1 else "CF")
    for t in letters:
        if _RANK_OK[t](k) and _POSITIVE_COUNTS[t](k) == count:
            return f"{t}{k}"
    raise UnrecognizedSubsystem(f"rank {k}, {count} positive roots, {short} short simple roots")


@dataclass(frozen=True)
class SurveyRecord:
    marks: tuple
    components: tuple  # sorted Dynkin labels of the even subalgebra
    center_dim: int
    height: int
    names: tuple  # classical names of the symmetric space, may be empty


def _even_simple_system(rs, marks):
    """Even positive roots that are not a sum of two even positive roots.

    Each root is coded as one integer, its coefficients the digits in a
    radix above twice the largest coefficient: adding two codes carries no
    digit, so the code of a sum of roots is the sum of their codes."""
    even = [r for r in rs.positive_roots if level(r, marks) % 2 == 0]
    radix = 2 * max(max(r) for r in rs.positive_roots) + 1
    codes = [sum(c * radix**i for i, c in enumerate(r)) for r in even]
    sums = {x + y for k, x in enumerate(codes) for y in codes[k:]}
    return [r for r, c in zip(even, codes) if c not in sums]


def _split_components(rs, simples):
    unvisited = set(range(len(simples)))
    comps = []
    while unvisited:
        stack = [min(unvisited)]
        comp = set()
        while stack:
            i = stack.pop()
            if i in comp:
                continue
            comp.add(i)
            for j in unvisited:
                if j not in comp and rs.inner(simples[i], simples[j]) != 0:
                    stack.append(j)
        unvisited -= comp
        comps.append([simples[i] for i in sorted(comp)])
    return comps


def _classical_names(rs, marks):
    t, l = rs.type, rs.rank
    if t == "A":
        n = l + 1
        m = sum(1 for k in range(n) if sum(marks[k:]) % 2 == 1)
        m = min(m, n - m)
        return (f"Gr_{m}(C^{n})",) if m else ()
    if t == "B":
        n = l
        a = sum(1 for k in range(n) if sum(marks[k:]) % 2 == 1)
        m = min(2 * a, 2 * n + 1 - 2 * a)
        return (f"Gr_{m}(R^{2 * n + 1})",) if a else ()
    if t == "C":
        n = l
        if marks[-1] % 2 == 1:
            return (f"Sp_{n}/U_{n}",)
        a = sum(1 for k in range(n) if sum(marks[k : n - 1]) % 2 == 1)
        m = min(a, n - a)
        return (f"Gr_{m}(H^{n})",) if m else ()
    if t == "D":
        n = l
        if (marks[-2] + marks[-1]) % 2 == 1:
            return (f"SO_{2 * n}/U_{n}",)
        half = (marks[-2] + marks[-1]) // 2
        eps = [sum(marks[k : n - 2]) + half for k in range(n - 2)]
        eps += [half, (marks[-1] - marks[-2]) // 2]
        a = sum(1 for e in eps if e % 2 == 1)
        m = min(2 * a, 2 * n - 2 * a)
        return (f"Gr_{m}(R^{2 * n})",) if a else ()
    return ()


def symmetric_space_survey(rs):
    """One record per canonical element: the even subalgebra's component
    labels and center dimension, plus the height of the element."""
    records = []
    for marks in product((0, 1), repeat=rs.rank):
        simples = _even_simple_system(rs, marks)
        labels = sorted(
            _classify_component(rs, comp) for comp in _split_components(rs, simples)
        )
        records.append(
            SurveyRecord(
                marks=marks,
                components=tuple(labels),
                center_dim=rs.rank - len(simples),
                height=height_of(rs, marks),
                names=_classical_names(rs, marks),
            )
        )
    return records
