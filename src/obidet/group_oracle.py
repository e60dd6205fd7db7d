"""Exact rational points of the orthogonal group and evaluation certificates.

Points come from the Cayley transform (I + A)^-1 (I - A) of J-skew matrices
A = J B with small random rational entries.  The denominators of B are
cleared first, so the transform is one fraction-free Gauss-Jordan solve
over the integers, with J applied as a row permutation, and each point is
built from its integer form G = d g, Gamma = d^2 gamma.  Reflections and
dilations are column maps on G: a negative-determinant point negates the 0
column (odd n) or swaps the 1b and 1 columns (even n), and a similitude
point by c = a/b scales every column (odd n) or the barred ones (even n)
by a, the others by b, and d by b.  Each point, a similitude point too, is
built and checked as a GroupPoint once, checked as G^t J G = Gamma J with
Gamma != 0 (det(G)^2 = Gamma^n follows from the form); its determinant is
one Bareiss elimination on G, which each constructor compares with the
component it built.  The rational matrix of a point is built from G only
for callers that read it.
Functions, bideterminant terms and combinations, are evaluated by one
integer kernel: integer_value(point) of a function of degree m is d^m
times its value, its coefficients times minors of G (cached on the point;
a small one expands from cached ones of one order less) and powers of
Gamma.  verify_on_group checks identities on these values;
evaluation_rank ranks them, each lifted by d^(r - m) to the largest
degree r in play, so the evaluation matrix is the rational one with the
column of each point scaled by the unit d^r.
A point has an image in GO(n, F_p) when p divides neither d nor Gamma
(GroupPoint.has_image).  A prime-field batch keeps the points with an
image whose residue matrices are new, drawing lazily until it holds
enough of them; the values of a Z[1/2]-polynomial function at such a
point reduce to its values at the residue point, so F_p values and ranks
are residues of exact values.
One loop, _rank, ranks for evaluation_rank and matrix_rank: it adds the
columns one at a time to one echelon modulo a prime and stops at full
rank; the column that fills the rank is counted, not kept, since nothing
is reduced by it.  Over Q that prime is 2^61 - 1, and a full rank modulo
it is full over Q; a rank short after the last column is computed by
fraction-free Bareiss elimination over the integers.  Over F_p it is the
rank of the residues.
The basis suite certifies independence one torus-weight block at a time:
every standard element is a weight vector for the diagonal torus acting on
both sides (and for the dilations in GO mode), and distinct characters are
linearly independent over an infinite field, so the rank of the elements
is the sum of the ranks of their weight blocks.  A batch holds (largest
block + 6) points, drawn as they are first read.  Each block is ranked
by its own evaluation_rank call over the batch, at the shortest prefix
that fills it, or at the whole batch if none does, so one echelon is
alive at a time.  Over F_p this holds over the algebraic closure, so full
block ranks prove more than one full-matrix rank could.  Since
[S:T](g^t) = [T:S](g) and g^t is a point of the group too, a block whose
transpose twin, of the swapped weight, was ranked full is full as well,
and is not ranked.  Spanning
residuals are checked at batch 0's first 10 points, or at 10 of their
own when batch 0 asks for fewer.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass

from .tableaux import (
    DomainError,
    Letter,
    Tableau,
    _bar_positions,
    _letters,
    conjugate,
    enumerate_on_standard,
    partitions_of,
    torus_weight,
)
from .polyring import (
    CoeffDomain,
    LetterMatrix,
    QQ,
    _bareiss,
    rational,
)
from .gl_straighten import BidetTerm, single_term
from .on_straighten import GO, ON, _require_mode, on_straighten


# GroupPoint.minor expands minors up to this order from cached ones of one
# order less and runs Bareiss above it.  Cold, at n = 8 (CPython 3.11, one
# Xeon core), an order-3 minor takes 20 us by expansion against 24 us by
# Bareiss, an order-4 one 47 us against 35 us; at n = 12 an order-12 minor
# takes 36 ms (4,095 cached sub-minors) against 0.5 ms.
_EXPANSION_ORDER = 3


class GroupPoint:
    """An exact matrix g with g^t J g = gamma J; det^2 = gamma^n.

    A point is built from its integer form: an integer matrix G = d g, the
    denominator d and Gamma = d^2 gamma (default d^2, a point of O(n)),
    an integer because G^t J G = Gamma J.  The gcd of d and the entries of
    G is divided out, so d is the lcm of the entry denominators of g.  The
    form is checked as G^t J G = Gamma J with Gamma != 0: a similitude is
    invertible, and det(G)^2 = Gamma^n follows from the form.  The point
    caches the integer minors of G it is asked for; the rational matrix g
    is built from G only when it is first read.
    """

    __slots__ = ("n", "gamma_value", "det_value", "denominator", "integer_gamma",
                 "_integer_rows", "_index", "_minors", "_matrix")

    def __init__(self, integer_matrix: LetterMatrix, denominator: int = 1,
                 integer_gamma: int | None = None):
        n, rows, d = integer_matrix.n, integer_matrix.rows, denominator
        gamma = d * d if integer_gamma is None else integer_gamma
        if type(d) is not int or type(gamma) is not int or not d or any(
                type(x) is not int for row in rows for x in row):
            raise DomainError("a point needs an int matrix, a nonzero int d and an int Gamma")
        k = math.gcd(d, *itertools.chain.from_iterable(rows))
        if d < 0:
            k = -k
        if k != 1:
            rows = tuple(tuple(x // k for x in row) for row in rows)
            d //= k
            gamma, rest = divmod(gamma, k * k)
            if rest:  # G^t J G is divisible by k^2
                raise DomainError("matrix does not satisfy the similitude relation")
        # J permutes rows by bar: column b of J G is column b of G read in bar
        # order.  G^t J G is symmetric, so its entries on and above the
        # diagonal decide the form, and the check stops at the first wrong one
        bar = _bar_positions(n)
        cols = tuple(zip(*rows))
        jg_cols = tuple(zip(*(rows[i] for i in bar)))
        if any(sum(map(operator.mul, cols[a], jg_cols[b])) != (gamma if b == bar[a] else 0)
               for a in range(n) for b in range(a, n)):
            raise DomainError("matrix does not satisfy the similitude relation")
        if not gamma:
            raise DomainError("a similitude factor of 0 is no similitude: the matrix is singular")
        det = _bareiss(rows)[1]
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "gamma_value", rational(gamma, d * d))
        object.__setattr__(self, "det_value", rational(det, d ** n))
        object.__setattr__(self, "denominator", d)
        object.__setattr__(self, "integer_gamma", gamma)
        object.__setattr__(self, "_integer_rows", rows)
        object.__setattr__(self, "_index", integer_matrix._index)
        object.__setattr__(self, "_minors", {})
        object.__setattr__(self, "_matrix", None)

    @classmethod
    def from_matrix(cls, matrix: LetterMatrix, gamma_value=1) -> "GroupPoint":
        """The point of a rational matrix g with this gamma: its cleared form d g."""
        d = math.lcm(*(x.denominator for row in matrix.rows for x in row))
        gamma = rational(gamma_value) * d * d
        if gamma.denominator != 1:
            raise DomainError("matrix does not satisfy the similitude relation")
        rows = ((x.numerator * (d // x.denominator) for x in row) for row in matrix.rows)
        return cls(LetterMatrix(matrix.n, rows), d, int(gamma))

    def __setattr__(self, name, value):
        raise AttributeError("GroupPoint is immutable")

    def __reduce__(self):
        """Rebuild through the constructor: the form is checked again, with no cached minors."""
        return GroupPoint, (LetterMatrix(self.n, self._integer_rows), self.denominator,
                            self.integer_gamma)

    @property
    def matrix(self) -> LetterMatrix:
        """The rational matrix g = G / d."""
        if self._matrix is None:
            d = self.denominator
            object.__setattr__(self, "_matrix", LetterMatrix(
                self.n, ((rational(x, d) for x in row) for row in self._integer_rows)))
        return self._matrix

    def entry(self, i: Letter, j: Letter):
        return self.matrix.entry(i, j)

    def minor(self, rows: tuple, cols: tuple) -> int:
        """The minor of G on these row and column letters: d^k times that of g.

        Letters may come unsorted or repeated; the minor is the determinant
        of the submatrix in the order given.  Up to _EXPANSION_ORDER it is
        the Laplace expansion along the first row through the cached minors
        of one order less; above it, one Bareiss elimination.
        """
        key = (rows, cols)
        value = self._minors.get(key)
        if value is None:
            index, g = self._index, self._integer_rows
            k = len(rows)
            if k > _EXPANSION_ORDER:
                value = _bareiss([[g[index[r]][index[c]] for c in cols] for r in rows])[1]
            elif k == 1:
                value = g[index[rows[0]]][index[cols[0]]]
            elif not k:
                value = 1
            else:
                top, rest, value = g[index[rows[0]]], rows[1:], 0
                for i, c in enumerate(cols):
                    x = top[index[c]]
                    if x:
                        x *= self.minor(rest, cols[:i] + cols[i + 1:])
                        value += -x if i % 2 else x
            self._minors[key] = value
        return value

    def minor_product(self, left_cols, right_cols) -> int:
        """The product of the minors of G on these pairs of letter columns."""
        value = 1
        for cs, ct in zip(left_cols, right_cols):
            value *= self.minor(cs, ct)
            if not value:
                break
        return value

    def has_image(self, p: int) -> bool:
        """Whether p divides neither d nor Gamma: then G / d mod p lies in GO(n, F_p)."""
        return bool(self.denominator % p and self.integer_gamma % p)

    def reduce_mod(self, domain: CoeffDomain) -> "tuple[tuple[int, ...], ...] | None":
        """The residue rows G d^-1 over a prime field, or None when the point has no image."""
        if not domain.is_prime_field:
            raise DomainError("reduction targets a prime field")
        p = domain.p
        if not self.has_image(p):
            return None
        inv = pow(self.denominator, -1, p)
        return tuple(tuple(x * inv % p for x in row) for row in self._integer_rows)


_CAYLEY_TRIES = 64


def _cayley(n: int, seed: int, spread: int) -> tuple[list[list[int]], int]:
    """Cayley transform (I + A)^-1 (I - A) of A = J B, B random skew: det 1.

    The transform is X / det M for the integers X and det M it returns:
    with D the lcm of the denominators of B, M = D I + J (D B) and
    N = D I - J (D B) are integer matrices, and M X = (det M) N.
    """
    if n < 3:
        raise DomainError("need n >= 3")
    rng = random.Random(seed)
    bar = _bar_positions(n)
    above = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for _ in range(_CAYLEY_TRIES):
        draws = [(rng.randint(-spread, spread), rng.randint(1, spread)) for _ in above]
        lcm = math.lcm(*(den for _, den in draws))
        b = [[0] * n for _ in range(n)]
        for (i, j), (num, den) in zip(above, draws):
            b[i][j] = num * (lcm // den)
            b[j][i] = -b[i][j]
        # J B is J-skew: (JB)^t J + J (JB) = -B J J + B = 0; J permutes rows by
        # bar, so the rows of D I + J (D B) are those of D B in bar order
        i_plus = [b[i] for i in bar]
        i_minus = [[-x for x in row] for row in i_plus]
        for r in range(n):
            i_plus[r][r] += lcm
            i_minus[r][r] += lcm
        solved = _fraction_free_solve(i_plus, i_minus)
        if solved is not None:
            return solved
    raise DomainError(f"could not draw an invertible Cayley point after {_CAYLEY_TRIES} tries")


def _component_rows(n: int, seed: int, component: str, spread: int):
    """Integer rows X and d of a Cayley point of the chosen component, g = X / d."""
    if component not in ("PLUS", "MINUS"):
        raise DomainError(f"component must be PLUS or MINUS, got {component!r}")
    rows, det = _cayley(n, seed, spread)
    if component == "MINUS":
        # g times a reflection: negate the 0 column (the last letter) for odd n,
        # swap the 1b and 1 columns (the first two letters) for even n
        rows = [r[:-1] + [-r[-1]] if n % 2 else [r[1], r[0]] + r[2:] for r in rows]
    return rows, det


def _checked_det(point: GroupPoint, det) -> GroupPoint:
    if point.det_value != det:
        raise AssertionError(f"a point with determinant {point.det_value}, expected {det}")
    return point


def random_on_point(n: int, seed: int, component: str = "PLUS", spread: int = 2) -> GroupPoint:
    """A point of the chosen determinant component of the orthogonal group."""
    rows, d = _component_rows(n, seed, component, spread)
    return _checked_det(GroupPoint(LetterMatrix(n, rows), d), 1 if component == "PLUS" else -1)


def random_go_point(n: int, seed: int, c, spread: int = 2) -> GroupPoint:
    """A similitude point; gamma is c for even n and c^2 for odd n.

    It is the O(n) point of seed + 1 (its component drawn from seed) times
    a dilation, built and checked as one point: for odd n, c times every
    column; for even n, c times the barred columns, so that c = a/b scales
    those columns of the integer rows by a, the rest by b, and d by b.
    """
    c = rational(c)
    if not c:
        raise DomainError("the similitude scale must be nonzero")
    rng = random.Random(seed)
    component = "PLUS" if rng.random() < 0.5 else "MINUS"
    rows, d = _component_rows(n, seed + 1, component, spread)
    a, b = c.numerator, c.denominator
    scaled = [n % 2 or x.barred for x in _letters(n)]
    rows = ((a * x if s else b * x for x, s in zip(r, scaled)) for r in rows)
    gamma = d * d * (a * a if n % 2 else a * b)
    point = GroupPoint(LetterMatrix(n, rows), d * b, gamma)
    return _checked_det(point, (1 if component == "PLUS" else -1) * c ** (n if n % 2 else n // 2))


def _draws(n: int, count: int, seed: int, spread: int):
    """Distinct orthogonal points in draw order; count sets only the spread.

    The first two are MINUS points, then the components alternate.  The skew
    parameter space is small for small n and spread, so the spread grows with
    the requested count and duplicate matrices are redrawn.
    """
    if n < 3:  # the spread rule below would never end for n < 2
        raise DomainError("need n >= 3")
    while (spread * spread) ** (n * (n - 1) // 2) < 64 * count * count:
        spread += 1
    seen = set()
    for i in itertools.count():
        k = len(seen)
        component = "MINUS" if k < 2 else ("PLUS" if k % 2 == 0 else "MINUS")
        candidate = random_on_point(n, seed * 7919 + i, component, spread)
        key = candidate.denominator, candidate._integer_rows
        if key not in seen:
            seen.add(key)
            yield candidate


def standard_points(n: int, count: int, seed: int = 0) -> list[GroupPoint]:
    """A deterministic batch of distinct orthogonal points, both components."""
    return list(itertools.islice(_draws(n, count, seed, spread=2), count))


def verify_on_group(f, points, domain: CoeffDomain = QQ) -> bool:
    """True when f vanishes at every point; over F_p, when every value reduces to 0.

    The values are f.integer_value(point), d^m f(point) with m the degree
    of f: d is a unit over Q and, at a point with an image, over F_p.  A
    point has no image in GO(n, F_p) when p divides its d or its Gamma
    (GroupPoint.has_image), so the check fails there.
    """
    p = domain.p   # None over Q and Z[1/2]
    return all((p is None or point.has_image(p))
               and domain.reduce_rational(f.integer_value(point)) == 0 for point in points)


# ---------------------------------------------------------------------------
# rank of evaluation matrices
# ---------------------------------------------------------------------------

def bareiss_rank(rows) -> int:
    """Exact rank of an integer matrix."""
    return _bareiss(rows)[0]


def _fraction_free_solve(a, b) -> "tuple[list[list[int]], int] | None":
    """Integers x and det a with a x = (det a) b, or None if a is singular.

    Fraction-free Gauss-Jordan (Bareiss, Montante) on [a | b]: each step
    updates every row but the pivot row by (lead x - head y) // prev,
    and the division is exact because every entry is a minor of [a | b]
    with its rows permuted.  A finished column is dropped, so the rows end
    as the right block, and the last pivot, signed by the row swaps, is
    det a.
    """
    rows = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    prev = sign = 1
    for col in range(len(rows)):
        pivot = next((r for r in range(col, len(rows)) if rows[r][0]), None)
        if pivot is None:
            return None
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            sign = -sign
        top = rows[col]
        lead, tail = top[0], top[1:]
        rows = [tail if r is top else [(lead * x - r[0] * y) // prev
                                       for x, y in zip(r[1:], tail)]
                for r in rows]
        prev = lead
    if sign < 0:
        rows, prev = [[-x for x in r] for r in rows], -prev
    return rows, prev


# the rank modulo this prime falls short of the rank over Q only when the
# prime divides every nonzero minor of the largest order; then the full-rank
# certificate fails and Bareiss decides
_RANK_PRIME = (1 << 61) - 1


class _Echelon:
    """The span of integer vectors modulo a prime p, in echelon form, one vector at a time.

    A vector is reduced by the kept ones in the order they were kept; what
    is left, if nonzero modulo p, raises the rank and is kept from its
    first nonzero entry (its pivot) on, scaled so the pivot is 1.  A kept
    vector is zero before its pivot and at every earlier pivot, so each
    reduction touches only the tail from its pivot and undoes none of the
    earlier ones.  Entries are taken modulo p only where a pivot entry is
    read, up to the new pivot, and once when the vector is kept: the
    integers in between stay congruent, and subtracting is cheaper than
    dividing.  The vector that fills a rank, which nothing reduces
    afterwards, is counted, not kept.
    """

    __slots__ = ("p", "kept", "rank")

    def __init__(self, p: int):
        self.p, self.kept, self.rank = p, [], 0

    def add(self, vector, last: bool = False) -> None:
        """Reduce vector; if it raises the rank, count it, and keep it unless last."""
        p = self.p
        x = list(vector)
        for i, tail in self.kept:
            f = x[i] % p
            if f:
                x[i:] = [a - f * b for a, b in zip(x[i:], tail)]
        for i, v in enumerate(x):
            v %= p
            if v:
                break
        else:
            return
        self.rank += 1
        if not last:
            inv = pow(v, -1, p)
            self.kept.append((i, [a * inv % p for a in x[i:]]))


def _integer_column(values, domain: CoeffDomain) -> list:
    """Values at one point as integers of the same rank.

    Over F_p each value becomes its residue; over Q the column is scaled by
    the lcm of its denominators.  Evaluations at one point share
    denominator structure, so column multipliers stay small where row
    multipliers blow up, and column scaling by nonzero rationals preserves
    the rank.
    """
    if all(type(x) is int for x in values):
        return values
    if domain.is_prime_field:
        values = [x if type(x) is int else domain.reduce_rational(x) for x in values]
        if None in values:
            raise DomainError(f"a value is not integral at {domain.p}")
        return values
    m = math.lcm(*(x.denominator for x in values))
    return [int(x * m) for x in values]


def _rank(columns, full: int, domain: CoeffDomain, again) -> int:
    """The rank of integer columns, at most full, read one at a time up to full rank.

    The columns go into one echelon modulo p over F_p, where that is the
    rank, or modulo _RANK_PRIME over Q, where a full rank modulo it is
    exact; a Q rank still short after the last column is
    bareiss_rank(again()), the columns built again.
    """
    prime = domain.is_prime_field
    echelon = _Echelon(domain.p if prime else _RANK_PRIME)
    for column in columns if full else ():
        echelon.add(column, echelon.rank == full - 1)
        if echelon.rank == full:
            return full
    if prime or echelon.rank == full:
        return echelon.rank
    return bareiss_rank(again())


def matrix_rank(rows, domain: CoeffDomain = QQ) -> int:
    """Exact rank.  Over F_p it is the rank of the residues.

    Each column is made integral by _integer_column and the columns are
    ranked by _rank, full at min(rows, columns): only a rank short of it
    modulo _RANK_PRIME falls back to Bareiss elimination over Q.
    """
    columns = [_integer_column(list(c), domain) for c in zip(*rows)]
    full = min(len(columns), len(columns[0])) if columns else 0
    return _rank(columns, full, domain, lambda: columns)


def evaluation_rank(functions, points, domain: CoeffDomain = QQ) -> int:
    """Rank of the functions-by-points evaluation matrix over the exact field.

    The matrix holds d^r f(point), r the largest degree of the functions:
    the rational matrix with the column of each point scaled by its d^r,
    a unit over Q and, at a point with a residue image, over F_p.  Each
    function's value d^m f(point), m its degree, is lifted by d^(r - m).
    The points are read one at a time by _rank, up to the one that makes
    the rank full; over F_p a point without an image (has_image) is refused
    when read, and a rank short over Q is decided by Bareiss at the points read.
    """
    degrees = [f.degree() for f in functions]
    top = max(degrees, default=0)
    lifts = [top - m for m in degrees]
    prime = domain.is_prime_field
    read = []

    def column(point):
        d = point.denominator
        return _integer_column([f.integer_value(point) * d ** k if k else f.integer_value(point)
                                for f, k in zip(functions, lifts)], domain)

    def columns():
        for point in points:
            if prime and not point.has_image(domain.p):
                raise DomainError(f"a point has no image over F_{domain.p}")
            read.append(point)
            yield column(point)

    return _rank(columns(), len(functions), domain, lambda: [column(p) for p in read])


# ---------------------------------------------------------------------------
# the desk-scale basis suite
# ---------------------------------------------------------------------------

def standard_basis_elements(n: int, r_max: int, mode: str = ON,
                            degree_exact: bool = False) -> list[BidetTerm]:
    """Standard bideterminant basis terms up to (or exactly at) degree r_max.

    In GO mode the elements of exact degree r are gamma^k [S:T] with
    2k + |shape| = r; the orthogonal mode lists plain [S:T] of all degrees
    up to the cap, including the empty-shape constant.
    """
    return _block_terms(_standard_blocks(n, r_max, mode, degree_exact))


def _standard_blocks(n: int, r_max: int, mode: str, degree_exact: bool = False):
    """The basis as blocks (k, tableaux), lazily: the pairs gamma^k [S:T] of one shape.

    Each shape is enumerated once, when its first block is read, however
    many gamma levels it appears at.
    """
    _require_mode(mode)
    if r_max < 0:
        raise DomainError(f"degree must be >= 0, got {r_max}")
    by_shape = {(): [Tableau(())]}
    for r in [r_max] if degree_exact else range(r_max + 1):
        for k in range(r // 2 + 1) if mode == GO else (0,):
            for shape in partitions_of(r - 2 * k, max_rows=n):
                if shape not in by_shape:
                    by_shape[shape] = list(enumerate_on_standard(shape, n))
                yield k, by_shape[shape]


def _block_terms(blocks) -> list[BidetTerm]:
    return [BidetTerm(1, k, s, t) for k, tableaux in blocks for s in tableaux for t in tableaux]


def _weight_blocks(elements, n: int, mode: str) -> dict[tuple, list[BidetTerm]]:
    """The elements grouped by weight: (wt S, wt T), and the degree in GO mode.

    The diagonal matrices t of O(n) give [S:T](t X s) = chi_S(t) chi_T(s)
    [S:T](X), and in GO mode the dilation c I scales gamma^k [S:T] by
    c^(2k + |shape|); so each block is one weight space of the torus.  The
    blocks are keyed by that weight.
    """
    weight_of, weights = {}, {}
    for e in elements:
        for t in (e.left, e.right):
            if t not in weight_of:
                weight_of[t] = torus_weight(t, n)
        key = (weight_of[e.left], weight_of[e.right])
        weights.setdefault(key + (e.degree(),) if mode == GO else key, []).append(e)
    return weights


def _twin_sources(blocks: dict[tuple, list[BidetTerm]]) -> list[int | None]:
    """For each block, the position of an earlier block it is the transpose of, or None.

    The twin of the block of weight (mu, nu) is the block of weight (nu, mu),
    of the same degree in GO mode.  A block counts as the transpose of its
    twin only when the two have the same size and its elements are exactly
    the twin's with S and T swapped.  A rank is inferred from a full twin
    only, which repeats no element, so comparing sets compares the blocks.
    """
    position = {key: i for i, key in enumerate(blocks)}
    values = list(blocks.values())
    sources = []
    for i, (key, block) in enumerate(blocks.items()):
        j = position.get((key[1], key[0]) + key[2:], i)
        twin = values[j]
        sources.append(j if j < i and len(block) == len(twin) and (
            {(e.coef, e.gamma_pow, e.left, e.right) for e in block}
            == {(e.coef, e.gamma_pow, e.right, e.left) for e in twin}) else None)
    return sources


def _pair_shapes(n: int, max_size: int) -> list:
    """The shapes _random_nonstandard_pair draws from: sizes 1 to max_size, at most n rows."""
    return [sh for r in range(1, max_size + 1) for sh in partitions_of(r, max_rows=n)]


def _random_nonstandard_pair(n: int, shapes: list, rng: random.Random):
    """A random same-shape pair of column-increasing tableaux, of a shape from shapes."""
    letters = _letters(n)
    shape = rng.choice(shapes)
    conj = conjugate(shape)

    def random_tableau():
        cols = []
        for length in conj:
            cols.append(sorted(rng.sample(letters, length)))
        return Tableau.from_columns(cols)

    return random_tableau(), random_tableau()


@dataclass
class SuiteReport:
    lines: list
    passed: bool
    undecided: bool = False     # no check failed, but the F_p points could not decide

    def text(self) -> str:
        verdict = "PASS" if self.passed else "UNDECIDED" if self.undecided else "FAIL"
        return "\n".join(self.lines + [verdict])


_SPANNING_SAMPLES = 5
_SPANNING_POINTS = 10


def basis_suite(n: int, r_max: int, mode: str = ON, num_points: int | None = None,
                domain: CoeffDomain = QQ, seed: int = 1, cap: int = 800) -> SuiteReport:
    """Independence (rank = count in each of two batches) and spanning checks.

    Independence is certified one torus-weight block at a time.  The
    diagonal torus acts on both sides, and each element gamma^k [S:T] is a
    weight vector of weight (wt S, wt T), and of its degree under the
    dilations in GO mode.  Distinct characters are linearly independent over
    an infinite field, so the elements are independent exactly when each
    block is, and the rank is the sum of the block ranks.  Each batch holds
    num_points points (default: the largest block plus 6), drawn as they
    are first read.  Each block is ranked by one evaluation_rank call over
    the batch, which reads it up to the point that fills the block; a
    retry redraws and re-ranks only the short blocks.  So a batch draws
    only the points some block reads: all of them only for a short block,
    for a retry, or when a prime-field batch may hold the whole group.  A
    batch passes only when its rank is the count of standard elements.  A
    short batch names its short blocks and the largest of them.  Spanning
    residuals are checked at the first 10 points of batch 0's own
    draw (not a retry's), or at 10 of their own if batch 0 asks for fewer.
    The standard tableaux are enumerated one shape at a time, and a suite
    is refused at the first shape that takes the element count past the
    cap, before any element is built.

    The transpose tau: g -> g^t maps O(n) and GO(n) to themselves, since
    g^t = gamma J g^-1 J, and keeps gamma; it sends [S:T] to [T:S] and the
    block of weight (mu, nu) to that of (nu, mu), of the same degree.  So
    the evaluation matrix of a block at the points g^t is its twin's at the
    points g, over Q and over the algebraic closure of F_p alike, and a
    block is independent exactly when its twin is.  A block whose twin is
    full is taken as full without an evaluation; a rank is inferred from a
    full one only, and only when the twin's elements are exactly the
    block's with S and T swapped (_twin_sources).  A twin short at the
    batch is ranked at the same batch, and retries re-rank every short
    block.

    Over F_p a short rank leaves the batch undecided rather than failed: the
    functions may be dependent on the finite group O(n, F_p), which says
    nothing about their independence over an infinite field.  The split
    holds over the algebraic closure of F_p, so full block ranks prove
    independence there.  A batch whose first draw holds all of O(n, F_p)
    has nothing new to draw: it takes no retries, and as batch 0 it skips
    batch 1.
    """
    if mode == GO and domain.is_prime_field:
        raise DomainError("similitude mode runs over the rationals only")
    blocks, count = [], 0
    for k, tableaux in _standard_blocks(n, r_max, mode):
        blocks.append((k, tableaux))
        count += len(tableaux) ** 2
        if count > cap:
            return SuiteReport(
                [f"refused: at least {count} standard elements exceed the cap {cap}"], False)
    by_weight = _weight_blocks(_block_terms(blocks), n, mode)
    weight_blocks, sources = list(by_weight.values()), _twin_sources(by_weight)
    lines = []
    ok = True
    want_points = num_points or (max(map(len, weight_blocks)) + 6)

    undecided = False
    for batch in (0, 1):
        points = _Batch(_suite_draws(n, want_points, seed + 31 * batch, mode, domain))
        if batch == 0:
            first = points
        # each block reads the batch up to the point that fills it, so a
        # block is short exactly when the whole batch cannot certify it.  A
        # block whose transpose twin is full is certified too: its evaluation
        # matrix at the group points g^t is the twin's at the points g
        block_ranks = []
        for b, j in zip(weight_blocks, sources):
            full = j is not None and block_ranks[j] == len(b)
            block_ranks.append(len(b) if full else evaluation_rank(b, points, domain))
        short = [i for i, b in enumerate(weight_blocks) if block_ranks[i] < len(b)]
        # a draw that holds all of O(n, F_p) is the whole group: a retry
        # could only redraw the same residues, and a second batch too.  Only
        # a batch that asks for that many points can hold them
        order = _orthogonal_group_order(n, domain.p) if domain.is_prime_field else 0
        whole = 0 < order <= want_points and points.count() == order
        retries, asked = 0, want_points
        # a batch short of the points it asked for found no new residues, so
        # a retry could only redraw the same ones
        while short and not whole and retries < 3 and points.count() >= asked:
            retries += 1
            asked = want_points + 8 * retries
            points = _Batch(_suite_draws(n, asked, seed + 31 * batch + 101 * retries, mode,
                                         domain, spread=2 + retries))
            for i in short:
                block_ranks[i] = max(block_ranks[i],
                                     evaluation_rank(weight_blocks[i], points, domain))
            short = [i for i in short if block_ranks[i] < len(weight_blocks[i])]
        undecided_mark = " undecided" if short and domain.is_prime_field else ""
        rank = sum(block_ranks)
        lines.append(f"independence rank={rank} expected={count}{undecided_mark}")
        if short:
            lines.append(f"short blocks={len(short)} of {len(weight_blocks)} "
                         f"(largest {max(len(weight_blocks[i]) for i in short)})")
        if undecided_mark:
            undecided = True
        elif short or rank != count:
            # full blocks that hold more or fewer elements than the count
            # certify no basis either
            ok = False
        if batch == 0 and whole:
            lines.append(f"batch 1 skipped: batch 0 holds all {order} points "
                         f"of O({n}, F_{domain.p})")
            break

    rng = random.Random(seed + 999)
    points = (list(itertools.islice(first, _SPANNING_POINTS)) if want_points >= _SPANNING_POINTS
              else _suite_points(n, _SPANNING_POINTS, seed + 500, mode, domain))
    shapes = _pair_shapes(n, max(1, min(r_max, 4)))
    zero_count = 0
    for _ in range(_SPANNING_SAMPLES):
        s, t = _random_nonstandard_pair(n, shapes, rng)
        residual = single_term(s, t) - on_straighten(s, t, mode, n, domain)
        zero_count += verify_on_group(residual, points, domain)
    lines.append(f"spanning residuals_zero={zero_count}/{_SPANNING_SAMPLES}")
    if zero_count != _SPANNING_SAMPLES:
        ok = False
    return SuiteReport(lines, ok and not undecided, ok and undecided)


def _orthogonal_group_order(n: int, p: int) -> int:
    """The order of O(n, F_p) for the split form J and an odd prime p."""
    m = n // 2
    order = 2 * p ** (m * m if n % 2 else m * (m - 1))
    for i in range(1, m + n % 2):
        order *= p ** (2 * i) - 1
    if n % 2 == 0:
        order *= p ** m - 1
    return order


def _suite_points(n: int, count: int, seed: int, mode: str,
                  domain: CoeffDomain) -> list[GroupPoint]:
    """A batch of at most count suite points: GO points with gamma != 1 in GO mode."""
    _require_mode(mode)
    return list(_suite_draws(n, count, seed, mode, domain))


def _suite_draws(n: int, count: int, seed: int, mode: str, domain: CoeffDomain,
                 spread: int = 2):
    """The points of _suite_points in draw order, each drawn when it is read."""
    if mode == GO:
        rng = random.Random(seed)
        i = 0
        while count > 0:
            c = rational(rng.randint(2, 5 + spread), rng.randint(1, 3))
            if c != 1:
                yield random_go_point(n, seed + 13 * i, c, spread)
                count -= 1
            i += 1
        return
    if not domain.is_prime_field:
        yield from itertools.islice(_draws(n, count, seed, spread), count)
        return
    # residues repeat: many rational points collapse to one residue matrix,
    # so draw widely and keep the points whose residues are new, until the
    # batch is full or holds every element of the finite group
    full = min(count, _orthogonal_group_order(n, domain.p))
    seen = set()
    for attempt in range(8):
        size = (2 + 2 * attempt) * count
        draws = _draws(n, size, seed + 1009 * attempt, spread + attempt)
        for p in itertools.islice(draws, size):
            residues = p.reduce_mod(domain)
            if residues is None or residues in seen:
                continue
            seen.add(residues)
            yield p
            if len(seen) == full:
                return


class _Batch:
    """Suite points, each drawn once, when first read; every iteration starts at the first."""

    __slots__ = ("_draws", "_drawn")

    def __init__(self, draws):
        self._draws, self._drawn = draws, []

    def __iter__(self):
        drawn = self._drawn
        yield from drawn
        for point in self._draws:
            drawn.append(point)
            yield point

    def count(self) -> int:
        """How many points the batch holds; it is drawn to its end."""
        return sum(1 for _ in self)
