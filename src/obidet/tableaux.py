"""Barred alphabet, partitions, Young tableaux and the standardness predicates.

The alphabet of size n is the ordered set

    1b < 1 < 2b < 2 < ... < mb < m         (n even, m = n // 2)
    1b < 1 < 2b < 2 < ... < mb < m < 0     (n odd)

where ``kb`` denotes the barred letter and ``0`` is the extra letter used
for odd n.  A letter is its int code: 2k for kb, 2k + 1 for k, and one odd
sentinel above every other code for 0, so letters order, compare and hash
as ints and bar is the low bit.  Tableaux are left justified arrays of
letters stored as their columns, the form every rewrite works on; all the
GL(n)- and O(n)-standardness checks live here.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass


class DomainError(ValueError):
    """Raised when an operation is applied outside its stated domain."""


# ---------------------------------------------------------------------------
# letters
# ---------------------------------------------------------------------------

_INDEX_BOUND = 1 << 61
_ZERO_CODE = 1 << 62 | 1      # odd, and above the code of every index below the bound


class Letter(int):
    """A letter of the barred alphabet: k, kb (barred), or 0.

    The letter is its int code, 2k for kb and 2k + 1 for k; the zero letter
    has the odd code _ZERO_CODE, which sits above every other code, matching
    its position at the end of the ordered alphabet.  No code is 0, so every
    letter is truthy.
    """

    __slots__ = ()

    def __new__(cls, index: int, barred: bool = False):
        if index < 0:
            raise DomainError(f"letter index must be >= 0, got {index}")
        if index >= _INDEX_BOUND:
            raise DomainError(f"letter index must be below 2^61, got {index}")
        if index == 0:
            if barred:
                raise DomainError("the zero letter has no barred companion")
            return int.__new__(cls, _ZERO_CODE)
        return int.__new__(cls, 2 * index + (not barred))

    @property
    def index(self) -> int:
        return 0 if self == _ZERO_CODE else self >> 1

    @property
    def barred(self) -> bool:
        return not self & 1

    @property
    def key(self) -> int:
        return int(self)

    def bar(self) -> "Letter":
        """The involution kb <-> k; fixes 0."""
        if self == _ZERO_CODE:
            return self
        return int.__new__(Letter, self ^ 1)

    def __getnewargs__(self):
        # copy and pickle rebuild a letter from its index, not from its code
        return self.index, self.barred

    def __str__(self):
        index = self.index
        if index == 0:
            return "0"
        return f"{index}b" if self.barred else f"{index}"

    def __repr__(self):
        return f"Letter({str(self)!r})"

    @classmethod
    def parse(cls, token: str) -> "Letter":
        token = token.strip()
        if not token:
            raise DomainError("empty letter token")
        if token == "0":
            return cls(0)
        barred = token.endswith("b")
        body = token[:-1] if barred else token
        # ASCII digits without a leading zero: the text format round-trips
        if not (body.isascii() and body.isdigit()) or body.startswith("0"):
            raise DomainError(f"bad letter token {token!r}")
        return cls(int(body), barred)


ZERO = Letter(0)


class _LetterText(dict):
    """The text of each letter code formatted so far: the table of Tableau.format."""

    def __missing__(self, code):
        text = self[code] = str(code)
        return text


_TEXT = _LetterText()


def alphabet(n: int) -> list[Letter]:
    """The ordered alphabet for dimension n (n >= 3)."""
    if n < 3:
        raise DomainError(f"alphabet requires n >= 3, got {n}")
    return list(_letters(n))


@functools.cache
def _letters(n: int) -> tuple[Letter, ...]:
    # internal variant that also admits n in {1, 2} for GL-only work; built once per n
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    m = n // 2
    out: list[Letter] = []
    for k in range(1, m + 1):
        out.append(Letter(k, barred=True))
        out.append(Letter(k))
    if n % 2 == 1:
        out.append(ZERO)
    return tuple(out)


@functools.cache
def _letter_index(n: int) -> dict:
    """Letter -> position in _letters(n): one dict per n, shared by its readers, never written."""
    return {x: i for i, x in enumerate(_letters(n))}


def _bar_positions(n: int) -> list[int]:
    """The position in _letters(n) of each letter's bar: kb and k swap, 0 stays last."""
    return [i ^ 1 for i in range(n - n % 2)] + [n - 1] * (n % 2)


def letter_in_alphabet(letter: Letter, n: int) -> bool:
    m = n // 2
    if letter.index == 0:
        return n % 2 == 1
    return 1 <= letter.index <= m


# ---------------------------------------------------------------------------
# partitions (weakly decreasing tuples of positive ints)
# ---------------------------------------------------------------------------

Shape = tuple[int, ...]


def check_shape(parts) -> Shape:
    parts = tuple(parts)
    for p in parts:
        if not isinstance(p, int) or p <= 0:
            raise DomainError(f"partition parts must be positive ints: {parts}")
    for a, b in zip(parts, parts[1:]):
        if a < b:
            raise DomainError(f"parts must be weakly decreasing: {parts}")
    return parts


def conjugate(shape: Shape) -> Shape:
    """Column lengths of the Young diagram."""
    shape = check_shape(shape)
    if not shape:
        return ()
    return tuple(sum(1 for p in shape if p >= i) for i in range(1, shape[0] + 1))


def column_shape(heights) -> Shape:
    """The shape with these column lengths, which must weakly decrease.

    One pass from the right: the rows below the next column's height and
    down to this column's height have this column's number as their length.
    """
    shape: list[int] = []
    below = 0
    for width in range(len(heights), 0, -1):
        h = heights[width - 1]
        if h < below:
            raise DomainError(f"column lengths must be weakly decreasing: {list(heights)}")
        shape += [width] * (h - below)
        below = h
    return tuple(shape)


def dominance_le(lam: Shape, mu: Shape) -> bool:
    """lam is dominated by mu (prefix sums of lam never exceed mu's)."""
    lam, mu = check_shape(lam), check_shape(mu)
    if sum(lam) != sum(mu):
        raise DomainError("dominance compares partitions of equal size")
    total_l = total_m = 0
    for i in range(max(len(lam), len(mu))):
        total_l += lam[i] if i < len(lam) else 0
        total_m += mu[i] if i < len(mu) else 0
        if total_l > total_m:
            return False
    return True


def dominance_lt(lam: Shape, mu: Shape) -> bool:
    return lam != mu and dominance_le(lam, mu)


def shape_key(shape: Shape):
    """Sort key for the total order on shapes: size first, then lex on parts.

    Lex refines dominance on partitions of equal size (at the first part
    where two equal-size partitions differ the dominated one is smaller),
    so this is a total refinement of size-then-dominance.
    """
    return (sum(shape), shape)


def shape_order_lt(lam: Shape, mu: Shape) -> bool:
    return shape_key(check_shape(lam)) < shape_key(check_shape(mu))


def partitions_of(r: int, max_rows: int | None = None):
    """All partitions of r (weakly decreasing), optionally with bounded length."""
    def rec(remaining, bound, length):
        if remaining == 0:
            yield ()
            return
        if max_rows is not None and length >= max_rows:
            return
        for first in range(min(remaining, bound), 0, -1):
            for rest in rec(remaining - first, first, length + 1):
                yield (first,) + rest
    yield from rec(r, r, 0)


# ---------------------------------------------------------------------------
# tableaux
# ---------------------------------------------------------------------------

class Tableau:
    """An immutable filled Young diagram, stored as its columns (left justified)."""

    __slots__ = ("_cols", "shape", "size", "_hash")

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        shape = tuple(map(len, rows))
        heights = conjugate(shape)
        self._store(tuple(tuple(row[j] for row in rows[:h]) for j, h in enumerate(heights)),
                    shape)

    @classmethod
    def from_columns(cls, cols) -> "Tableau":
        cols = tuple(filter(None, map(tuple, cols)))
        t = object.__new__(cls)
        t._store(cols, column_shape(tuple(map(len, cols))))
        return t

    def _store(self, cols, shape):
        for col in cols:
            for x in col:
                if not isinstance(x, Letter):
                    raise DomainError(f"tableau entries must be letters, got {x!r}")
        object.__setattr__(self, "_cols", cols)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "size", sum(shape))
        object.__setattr__(self, "_hash", hash(cols))

    def __setattr__(self, name, value):
        raise AttributeError("Tableau is immutable")

    def __reduce__(self):
        return Tableau.from_columns, (self._cols,)

    # -- structure --------------------------------------------------------

    def columns(self) -> tuple[tuple[Letter, ...], ...]:
        return self._cols

    @property
    def rows(self) -> tuple[tuple[Letter, ...], ...]:
        cols = self._cols
        return tuple(tuple(c[i] for c in cols[:width]) for i, width in enumerate(self.shape))

    # -- text format: rows joined by ';', entries by spaces -----------------

    def format(self) -> str:
        cols = self._cols
        return "; ".join(" ".join([_TEXT[col[i]] for col in cols[:width]])
                         for i, width in enumerate(self.shape)) or "-"

    @classmethod
    def parse(cls, text: str) -> "Tableau":
        text = text.strip()
        if text == "-" or text == "":
            return cls(())
        rows = []
        for chunk in text.split(";"):
            tokens = chunk.split()
            if not tokens:
                raise DomainError(f"empty row in tableau text {text!r}")
            rows.append([Letter.parse(t) for t in tokens])
        return cls(rows)

    def __str__(self):
        return self.format()

    def __repr__(self):
        return f"Tableau({self.format()!r})"

    def __eq__(self, other):
        return isinstance(other, Tableau) and self._cols == other._cols

    def __hash__(self):
        return self._hash

    # -- the order used for straightening ----------------------------------

    def prec_key(self):
        """Lexicographic key realizing the tableau order.

        Columns are compared from the right-most inward, entries from the
        top down, so the first difference between two keys sits in the
        right-most differing column at its top-most differing entry.
        """
        return self._cols[::-1]


def tableau_prec_cmp(t1: Tableau, t2: Tableau) -> int:
    """-1, 0, 1 comparison in the straightening order (same shape only)."""
    if t1.shape != t2.shape:
        raise DomainError("tableau order compares equal shapes only")
    k1, k2 = t1.prec_key(), t2.prec_key()
    return -1 if k1 < k2 else (1 if k1 > k2 else 0)


# ---------------------------------------------------------------------------
# standardness
# ---------------------------------------------------------------------------

def _columns_increasing(cols) -> bool:
    return all(all(map(operator.lt, col, col[1:])) for col in cols)


def row_violation_column(cols) -> int | None:
    """Leftmost column c (0-based) with an entry above its right neighbour, or None.

    The tableau is given by its column tuples; its rows are weakly
    increasing exactly when there is none.
    """
    for c in range(len(cols) - 1):
        if any(map(operator.gt, cols[c], cols[c + 1])):
            return c
    return None


def is_gl_standard(t: Tableau, n: int) -> bool:
    """At most n rows, rows weakly increasing, columns strictly increasing."""
    return _gl_standard(t.columns(), n)


def _gl_standard(cols, n: int) -> bool:
    return ((not cols or len(cols[0]) <= n) and row_violation_column(cols) is None
            and _columns_increasing(cols))


@dataclass(frozen=True)
class Violation:
    kind: str                 # GL | COLSUM | OS1 | OS2 | OS3
    witness: int              # the index i (0 for GL/COLSUM; a straightening
                              # rule's GL verdict holds the 1-based column)
    column: int = 0           # 1-based column b for OS3, else 0


@dataclass(frozen=True)
class ONStandardReport:
    standard: bool
    violations: tuple[Violation, ...]
    alpha: tuple[int, ...]
    beta: tuple[int, ...]


def _last_index(col1, col2, m: int) -> int:
    """The last index i at which columns 1 and 2 can violate a condition.

    Past the largest index in columns 1 and 2, alpha and beta are constant;
    OS1 needs 2i < a + b <= |c1| + |c2|, and OS2 and OS3 need a + b = 2i.
    """
    return min(m, max(max((x >> 1 for x in col1 + col2 if x != _ZERO_CODE), default=0),
                      (len(col1) + len(col2)) // 2))


def column_violations(cols, n: int):
    """The O(n)-standardness violations of a tableau given by its column tuples.

    They come lazily, in dispatch priority: GL (and nothing after it), then
    COLSUM, then the OS conditions at increasing witness index (at one index
    at most one of OS1, OS2 and OS3 applies, and OS3 witnesses scan columns
    left to right).  alpha_i and beta_i, the entries <= i in columns 1 and 2,
    are counted as the scan goes, so the first violation costs no n/2 work.
    """
    if not _gl_standard(cols, n):
        yield Violation("GL", 0)
    else:
        yield from orthogonal_violations(cols, n)


def orthogonal_violations(cols, n: int):
    """column_violations of a GL-standard tableau, which has no GL violation."""
    col1 = cols[0] if len(cols) >= 1 else ()
    col2 = cols[1] if len(cols) >= 2 else ()
    if len(col1) + len(col2) > n:
        yield Violation("COLSUM", 0)

    a = b = 0
    for i in range(1, _last_index(col1, col2, n // 2) + 1):
        top, bar = 2 * i + 1, 2 * i          # the codes of the letters i and ib
        # the columns increase, so the counts move down them
        while a < len(col1) and col1[a] <= top:
            a += 1
        while b < len(col2) and col2[b] <= top:
            b += 1
        if a + b > 2 * i:
            yield Violation("OS1", i)
        elif a + b == 2 * i and a > b:
            # positions are 1-based in the classical statement; a > b >= 1
            # entries counted, so both index into their columns
            if (b >= 1 and col1[a - 1] == top and col2[b - 1] == bar
                    and not (a >= 2 and col1[a - 2] == bar)):
                yield Violation("OS2", i)
        elif a + b == 2 * i and len(col1) >= i and col1[i - 1] == bar:
            # a == b: the pair must sit in row i, barred letter in column 1,
            # and no bar i above the i in its column b
            for col_b, col in enumerate(cols[1:], start=2):
                if len(col) < i:
                    break
                if col[i - 1] == top and bar not in col[:i - 1]:
                    yield Violation("OS3", i, col_b)


def on_standard_report(t: Tableau, n: int) -> ONStandardReport:
    """Full report of the orthogonal standardness conditions.

    alpha[i-1] and beta[i-1] count the entries <= i in columns 1 and 2.
    The violations are those of column_violations, in dispatch priority.
    """
    m = n // 2
    cols = t.columns()
    col1 = cols[0] if len(cols) >= 1 else ()
    col2 = cols[1] if len(cols) >= 2 else ()
    last = _last_index(col1, col2, m)
    tops = [Letter(i) for i in range(1, last + 1)]
    alpha = tuple(sum(1 for x in col1 if x <= top) for top in tops)
    beta = tuple(sum(1 for x in col2 if x <= top) for top in tops)
    alpha += (alpha[-1] if alpha else 0,) * (m - last)
    beta += (beta[-1] if beta else 0,) * (m - last)
    violations = tuple(column_violations(cols, n))
    return ONStandardReport(not violations, violations, alpha, beta)


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def torus_weight(t: Tableau, n: int) -> tuple[int, ...]:
    """The weight of the tableau's letters under the diagonal torus of O(n).

    Entry i - 1 counts the letters i minus the letters ib; for odd n a last
    entry holds the parity of the number of 0 letters, the exponent of the
    sign at 0.  The diagonal matrix D with t_i at i, 1/t_i at ib and a sign
    at 0 lies in O(n); with this tableau as S, [S:T](D X) is [S:T](X) times
    the monomial in the t_i and the sign with these exponents.  This is the
    dense view of sparse_torus_weight.
    """
    exponents, zeros = sparse_torus_weight(t.columns())
    return (tuple(exponents.get(i, 0) for i in range(1, n // 2 + 1))
            + (zeros,) * (n % 2))


def sparse_torus_weight(cols) -> tuple[dict[int, int], int]:
    """torus_weight of the letters in these columns, without the n/2 zeros.

    Returns the nonzero exponents by index and the parity of the 0 letters.
    It reads the letter codes: index code >> 1, and the low bit set for an
    unbarred letter.
    """
    exponents: dict[int, int] = {}
    zeros = 0
    for col in cols:
        for x in col:
            if x == _ZERO_CODE:
                zeros ^= 1
            else:
                i = x >> 1
                exponents[i] = exponents.get(i, 0) + (x & 1) * 2 - 1
    return {i: e for i, e in exponents.items() if e}, zeros


def basic_tableau(shape: Shape, n: int) -> Tableau:
    """Row k filled with the k-th smallest letter of the alphabet."""
    shape = check_shape(shape)
    letters = _letters(n)
    if len(shape) > n:
        raise DomainError(f"shape {shape} has more than {n} rows")
    return Tableau(tuple((letters[k],) * shape[k] for k in range(len(shape))))


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def enumerate_gl_standard(shape: Shape, n: int):
    """All GL(n)-standard tableaux of the given shape, in no particular order.

    Each column is an increasing choice of letters, kept when every entry is
    at least its left neighbour.
    """
    heights = conjugate(shape)
    letters = _letters(n)

    def fill(cols):
        if len(cols) == len(heights):
            yield Tableau.from_columns(cols)
            return
        left = cols[-1] if cols else ()
        for col in itertools.combinations(letters, heights[len(cols)]):
            if all(x >= y for x, y in zip(col, left)):
                yield from fill(cols + (col,))

    yield from fill(())


def enumerate_on_standard(shape: Shape, n: int):
    """All O(n)-standard tableaux of the given shape, in increasing tableau order."""
    conj = conjugate(shape)
    if sum(conj[:2]) > n:
        return
    found = [t for t in enumerate_gl_standard(shape, n)
             if next(orthogonal_violations(t.columns(), n), None) is None]
    found.sort(key=Tableau.prec_key)
    yield from found


def all_fillings(shape: Shape, n: int):
    """Every filling of the shape by alphabet letters (test oracle helper)."""
    shape = check_shape(shape)
    letters = _letters(n)
    cells = sum(shape)
    for combo in itertools.product(letters, repeat=cells):
        rows, k = [], 0
        for r in shape:
            rows.append(combo[k:k + r])
            k += r
        yield Tableau(rows)
