"""Exact sparse polynomials in the matrix entries X(i, j), i, j in the alphabet.

Coefficients live in one of three exact domains: the rationals, the dyadic
rationals (denominator a power of two), or a prime field of odd order.  The
prime field is no number type of its own: CoeffDomain.reduce_rational maps
an exact rational to its canonical residue, a plain int in [0, p).
Determinants of submatrices of the generic matrix X, bideterminants, the
full determinant and the similitude form gamma are all built here, together
with exact evaluation at concrete matrices: a determinant is one
fraction-free Bareiss elimination over the integers (_bareiss, which group
points use too) once each row is cleared of its denominators.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .tableaux import DomainError, Letter, Tableau, _letter_index, _letters

rational = Fraction


def is_dyadic(x) -> bool:
    """True if x is a rational with denominator a power of two."""
    den = x.denominator
    return den & (den - 1) == 0


# ---------------------------------------------------------------------------
# coefficient domains
# ---------------------------------------------------------------------------

class CoeffDomain:
    """One of the supported exact coefficient domains."""

    def __init__(self, name: str, p: int | None = None):
        if name not in ("q", "zhalf", "fp"):
            raise DomainError(f"unknown coefficient domain {name!r}")
        if name == "fp":
            if p is None or p < 3 or p % 2 == 0 or not _is_prime(p):
                raise DomainError(f"prime field needs an odd prime, got {p}")
        self.name = name
        self.p = p

    def __repr__(self):
        return f"CoeffDomain({self.name!r}{'' if self.p is None else f', p={self.p}'})"

    def __eq__(self, other):
        return isinstance(other, CoeffDomain) and (self.name, self.p) == (other.name, other.p)

    def __hash__(self):
        return hash((self.name, self.p))

    @property
    def is_prime_field(self) -> bool:
        return self.name == "fp"

    def reduce_rational(self, x):
        """Image of an exact rational in this domain, or None if undefined.

        Over F_p the image is the canonical residue in [0, p), a plain int;
        it is undefined when p divides the denominator.
        """
        if not self.is_prime_field:
            return rational(x)
        num, den = x.numerator, x.denominator
        if den % self.p == 0:
            return None
        return num * pow(den, -1, self.p) % self.p

    def validate(self, x) -> bool:
        """Membership check: dyadic for Z[1/2], a canonical residue for F_p."""
        if self.is_prime_field:
            return isinstance(x, int) and 0 <= x < self.p
        if self.name == "zhalf":
            return is_dyadic(x)
        return True

    @classmethod
    def parse(cls, text: str) -> "CoeffDomain":
        text = text.strip().lower()
        if text == "q":
            return cls("q")
        if text == "zhalf":
            return cls("zhalf")
        if text.startswith("f") and text[1:].isdecimal():
            if len(text[1:].lstrip("0")) > 20:   # 2^64 has 20 digits
                raise DomainError("a prime field modulus must be below 2^64")
            return cls("fp", int(text[1:]))
        raise DomainError(f"bad coefficient domain {text!r}")


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin with the prime bases up to 37; p >= 2^64 is refused.

    These bases are exact below 3.18 * 10^23, so no composite below 2^64 passes.
    """
    if p >= 1 << 64:
        raise DomainError("a prime field modulus must be below 2^64")
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if p < 2 or p in bases:
        return p in bases
    if any(p % b == 0 for b in bases):
        return False
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


QQ = CoeffDomain("q")
ZHALF = CoeffDomain("zhalf")


def GF(p: int) -> CoeffDomain:
    return CoeffDomain("fp", p)


# ---------------------------------------------------------------------------
# exact square matrices indexed by the alphabet
# ---------------------------------------------------------------------------

class LetterMatrix:
    """A square matrix whose rows and columns are indexed by alphabet letters."""

    __slots__ = ("n", "rows", "_index")

    def __init__(self, n: int, rows):
        index = _letter_index(n)
        rows = tuple(tuple(r) for r in rows)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise DomainError(f"need an {n} x {n} matrix")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_index", index)

    def __setattr__(self, name, value):
        raise AttributeError("LetterMatrix is immutable")

    def __reduce__(self):
        return LetterMatrix, (self.n, self.rows)

    def entry(self, i: Letter, j: Letter):
        return self.rows[self._index[i]][self._index[j]]

    def __matmul__(self, other: "LetterMatrix") -> "LetterMatrix":
        if self.n != other.n:
            raise DomainError("size mismatch")
        bt = tuple(zip(*other.rows))
        return LetterMatrix(
            self.n,
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in bt)
                for row in self.rows
            ),
        )

    def __eq__(self, other):
        return isinstance(other, LetterMatrix) and self.n == other.n and self.rows == other.rows

    def __repr__(self):
        return f"LetterMatrix({self.n}, {self.rows!r})"

    @classmethod
    def identity(cls, n: int) -> "LetterMatrix":
        one, zero = rational(1), rational(0)
        return cls(n, tuple(
            tuple(one if i == j else zero for j in range(n)) for i in range(n)
        ))

    @classmethod
    def diagonal(cls, n: int, values) -> "LetterMatrix":
        values = list(values)
        zero = values[0] * 0
        return cls(n, tuple(
            tuple(values[i] if i == j else zero for j in range(n)) for i in range(n)
        ))


def det_rows(rows) -> object:
    """Exact determinant of a small dense matrix (list of rows) of rationals.

    Each row is cleared of its denominators and the integer matrix goes to
    the Bareiss kernel, so int entries give an int.
    """
    int_rows, den = [], 1
    for row in rows:
        d = math.lcm(*(x.denominator for x in row))
        int_rows.append([x.numerator * (d // x.denominator) for x in row])
        den *= d
    det = _bareiss(int_rows)[1]
    return det if den == 1 else rational(det, den)


def _bareiss(rows) -> tuple[int, int]:
    """Fraction-free Bareiss elimination over the integers: rank and determinant.

    Pivots are chosen smallest in absolute value to slow entry growth;
    all divisions are exact by the Bareiss identity.  Each pivot is the
    leading minor of its order of the row-swapped matrix, so the last one,
    signed by the swaps, is the determinant of a square matrix of full rank;
    any other square matrix has determinant 0.
    """
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return 0, 1
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    prev = 1
    sign = 1
    row = 0
    for col in range(n_cols):
        pivot = None
        for r in range(row, n_rows):
            if m[r][col] and (pivot is None or abs(m[r][col]) < abs(m[pivot][col])):
                pivot = r
        if pivot is None:
            continue
        if pivot != row:
            m[row], m[pivot] = m[pivot], m[row]
            sign = -sign
        lead = m[row][col]
        for r in range(row + 1, n_rows):
            head = m[r][col]
            if head:
                m[r] = [(lead * a - head * b) // prev
                        for a, b in zip(m[r], m[row])]
                m[r][col] = 0
            else:
                m[r] = [(lead * a) // prev for a in m[r]]
        prev = lead
        rank += 1
        row += 1
        if row == n_rows:
            break
    return rank, sign * prev if rank == n_rows == n_cols else 0


# ---------------------------------------------------------------------------
# sparse polynomials
# ---------------------------------------------------------------------------

Var = tuple[Letter, Letter]
Monomial = tuple[tuple[Var, int], ...]


def _mono_degree(mono: Monomial) -> int:
    return sum(e for _, e in mono)


def _mono_key(mono: Monomial):
    # graded lexicographic on the fixed variable order
    return (_mono_degree(mono), mono)


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    exps: dict[Var, int] = dict(m1)
    for v, e in m2:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


class Polynomial:
    """A sparse polynomial in the variables X(i, j); structural equality."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        object.__setattr__(self, "terms", {m: c for m, c in terms.items() if c})

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        return Polynomial, (self.terms,)

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls({})

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls({(): c})

    @classmethod
    def variable(cls, i: Letter, j: Letter, coeff=1) -> "Polynomial":
        return cls({(((i, j), 1),): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Polynomial(out)

    def __neg__(self):
        return Polynomial({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        out: dict[Monomial, object] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                s = out.get(m, 0) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return Polynomial(out)

    def scale(self, c) -> "Polynomial":
        if not c:
            return Polynomial.zero()
        return Polynomial({m: c * v for m, v in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(_mono_degree(m) for m in self.terms)

    def evaluate(self, point):
        """Ring homomorphism X(i, j) -> point entry; point has .entry(i, j)."""
        total = None
        for mono, coeff in self.terms.items():
            val = coeff
            for (i, j), e in mono:
                entry = point.entry(i, j)
                for _ in range(e):
                    val = val * entry
            total = val if total is None else total + val
        if total is None:
            return 0
        return total

    def serialize(self) -> str:
        """One term per line, graded-lex order, letters in text encoding."""
        if not self.terms:
            return "0"
        lines = []
        for mono in sorted(self.terms, key=_mono_key):
            coeff = self.terms[mono]
            factors = [str(coeff)]
            for (i, j), e in mono:
                var = f"X({i},{j})"
                factors.append(var if e == 1 else f"{var}^{e}")
            lines.append(" * ".join(factors))
        return "\n".join(lines)

    def __repr__(self):
        return f"Polynomial<{len(self.terms)} terms>"


# ---------------------------------------------------------------------------
# minors and bideterminants
# ---------------------------------------------------------------------------

def inversion_sign(seq) -> int:
    """(-1) to the number of inversions of a sequence of distinct values."""
    sign = 1
    for a, b in itertools.combinations(seq, 2):
        if a > b:
            sign = -sign
    return sign


def minor(rows, cols) -> Polynomial:
    """Determinant of the submatrix of X with the given row/column letters.

    Rows and columns are ordered lists; swapping two of them flips the sign,
    and a repeated letter gives the zero polynomial.  The Leibniz sum has one
    monomial per permutation of the columns, signed by its inversions.
    """
    rows, cols = list(rows), list(cols)
    if len(rows) != len(cols):
        raise DomainError("minor needs equally many row and column letters")
    if len(set(rows)) < len(rows) or len(set(cols)) < len(cols):
        return Polynomial.zero()
    return Polynomial({
        tuple(sorted(((r, cols[j]), 1) for r, j in zip(rows, perm))): inversion_sign(perm)
        for perm in itertools.permutations(range(len(cols)))
    })


def bideterminant(s: Tableau, t: Tableau) -> Polynomial:
    """Product over columns of the minors [S_i : T_i]; degree = |shape|."""
    if s.shape != t.shape:
        raise DomainError("bideterminant needs equal shapes")
    result = Polynomial.constant(1)
    for cs, ct in zip(s.columns(), t.columns()):
        result = result * minor(cs, ct)
    return result


def det_poly(n: int) -> Polynomial:
    """The full n x n determinant of X."""
    letters = _letters(n)
    return minor(letters, letters)


def gamma_poly(n: int) -> Polynomial:
    """The similitude factor: sum over i of X(i, 1) X(bar i, 1b)."""
    letters = _letters(n)
    one = Letter(1)
    total = Polynomial.zero()
    for i in letters:
        total = total + Polynomial.variable(i, one) * Polynomial.variable(i.bar(), one.bar())
    return total


# -- numeric (non-symbolic) evaluation of minors and bideterminants ---------

def eval_minor(rows, cols, point):
    """Exact value of the minor at a concrete matrix, without expanding it."""
    rows, cols = list(rows), list(cols)
    if len(rows) != len(cols):
        raise DomainError("minor needs equally many row and column letters")
    if len(set(rows)) < len(rows) or len(set(cols)) < len(cols):
        return 0
    if not rows:
        return 1
    return det_rows([[point.entry(r, c) for c in cols] for r in rows])


def eval_bideterminant(s: Tableau, t: Tableau, point):
    if s.shape != t.shape:
        raise DomainError("bideterminant needs equal shapes")
    return eval_columns_product(s.columns(), t.columns(), point)


def eval_columns_product(left_cols, right_cols, point):
    """Value of a product of column minors given as raw column lists."""
    value = None
    for cs, ct in zip(left_cols, right_cols):
        v = eval_minor(cs, ct, point)
        if not v:
            return v
        value = v if value is None else value * v
    return 1 if value is None else value
