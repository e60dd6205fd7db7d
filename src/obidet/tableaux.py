"""Barred alphabet, partitions, Young tableaux and the standardness predicates.

The alphabet of size n is the ordered set

    1b < 1 < 2b < 2 < ... < mb < m         (n even, m = n // 2)
    1b < 1 < 2b < 2 < ... < mb < m < 0     (n odd)

where ``kb`` denotes the barred letter and ``0`` is the extra letter used
for odd n.  Tableaux are left justified arrays of letters; all the
GL(n)- and O(n)-standardness checks live here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import total_ordering


class DomainError(ValueError):
    """Raised when an operation is applied outside its stated domain."""


# ---------------------------------------------------------------------------
# letters
# ---------------------------------------------------------------------------

@total_ordering
class Letter:
    """A letter of the barred alphabet: k, kb (barred), or 0.

    The zero letter compares greater than every barred/unbarred letter,
    matching its position at the end of the ordered alphabet.
    """

    __slots__ = ("index", "barred", "_key")

    def __init__(self, index: int, barred: bool = False):
        if index < 0:
            raise DomainError(f"letter index must be >= 0, got {index}")
        if index == 0 and barred:
            raise DomainError("the zero letter has no barred companion")
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "barred", barred)
        if index == 0:
            key = (1, 0)
        else:
            key = (0, 2 * index - 2 if barred else 2 * index - 1)
        object.__setattr__(self, "_key", key)

    def __setattr__(self, name, value):
        raise AttributeError("Letter is immutable")

    def bar(self) -> "Letter":
        """The involution kb <-> k; fixes 0."""
        if self.index == 0:
            return self
        return Letter(self.index, not self.barred)

    @property
    def key(self):
        return self._key

    def __eq__(self, other):
        return isinstance(other, Letter) and self._key == other._key

    def __lt__(self, other):
        if not isinstance(other, Letter):
            return NotImplemented
        return self._key < other._key

    def __hash__(self):
        return hash(self._key)

    def __str__(self):
        if self.index == 0:
            return "0"
        return f"{self.index}b" if self.barred else f"{self.index}"

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


def alphabet(n: int) -> list[Letter]:
    """The ordered alphabet for dimension n (n >= 3)."""
    if n < 3:
        raise DomainError(f"alphabet requires n >= 3, got {n}")
    return _letters(n)


def _letters(n: int) -> list[Letter]:
    # internal variant that also admits n in {1, 2} for GL-only work
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    m = n // 2
    out: list[Letter] = []
    for k in range(1, m + 1):
        out.append(Letter(k, barred=True))
        out.append(Letter(k))
    if n % 2 == 1:
        out.append(ZERO)
    return out


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
    """An immutable filled Young diagram (rows of letters, left justified)."""

    __slots__ = ("rows", "shape", "_cols", "_hash")

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        for row in rows:
            for x in row:
                if not isinstance(x, Letter):
                    raise DomainError(f"tableau entries must be letters, got {x!r}")
        shape = tuple(len(r) for r in rows)
        check_shape(shape)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "_cols", None)
        object.__setattr__(self, "_hash", hash(rows))

    def __setattr__(self, name, value):
        raise AttributeError("Tableau is immutable")

    # -- structure --------------------------------------------------------

    @property
    def size(self) -> int:
        return sum(self.shape)

    @property
    def num_cols(self) -> int:
        return self.shape[0] if self.shape else 0

    def columns(self) -> tuple[tuple[Letter, ...], ...]:
        cols = self._cols
        if cols is None:
            width = self.num_cols
            cols = tuple(
                tuple(row[j] for row in self.rows if len(row) > j)
                for j in range(width)
            )
            object.__setattr__(self, "_cols", cols)
        return cols

    def column(self, j: int) -> tuple[Letter, ...]:
        return self.columns()[j]

    def entry(self, i: int, j: int) -> Letter:
        """0-based entry access."""
        return self.rows[i][j]

    @classmethod
    def from_columns(cls, cols) -> "Tableau":
        cols = [tuple(c) for c in cols if len(c) > 0]
        if not cols:
            return cls(())
        lengths = [len(c) for c in cols]
        for a, b in zip(lengths, lengths[1:]):
            if a < b:
                raise DomainError(f"column lengths must be weakly decreasing: {lengths}")
        rows = []
        for i in range(lengths[0]):
            rows.append(tuple(c[i] for c in cols if len(c) > i))
        return cls(rows)

    # -- text format: rows joined by ';', entries by spaces -----------------

    def format(self) -> str:
        if not self.rows:
            return "-"
        return "; ".join(" ".join(str(x) for x in row) for row in self.rows)

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
        return isinstance(other, Tableau) and self.rows == other.rows

    def __hash__(self):
        return self._hash

    # -- the order used for straightening ----------------------------------

    def prec_key(self):
        """Lexicographic key realizing the tableau order.

        Columns are compared from the right-most inward, entries from the
        top down, so the first difference between two keys sits in the
        right-most differing column at its top-most differing entry.
        """
        return tuple(
            tuple(x.key for x in col) for col in reversed(self.columns())
        )


def tableau_prec_cmp(t1: Tableau, t2: Tableau) -> int:
    """-1, 0, 1 comparison in the straightening order (same shape only)."""
    if t1.shape != t2.shape:
        raise DomainError("tableau order compares equal shapes only")
    k1, k2 = t1.prec_key(), t2.prec_key()
    return -1 if k1 < k2 else (1 if k1 > k2 else 0)


# ---------------------------------------------------------------------------
# standardness
# ---------------------------------------------------------------------------

def is_column_increasing(t: Tableau) -> bool:
    return all(
        all(a < b for a, b in zip(col, col[1:])) for col in t.columns()
    )


def is_gl_standard(t: Tableau, n: int) -> bool:
    """At most n rows, rows weakly increasing, columns strictly increasing."""
    if len(t.shape) > n:
        return False
    for row in t.rows:
        if any(a > b for a, b in zip(row, row[1:])):
            return False
    return is_column_increasing(t)


@dataclass(frozen=True)
class Violation:
    kind: str                 # GL | COLSUM | OS1 | OS2 | OS3
    witness: int              # the index i (0 for GL/COLSUM)
    column: int = 0           # 1-based column b for OS3, else 0


@dataclass(frozen=True)
class ONStandardReport:
    standard: bool
    violations: tuple[Violation, ...]
    alpha: tuple[int, ...]
    beta: tuple[int, ...]


def on_standard_report(t: Tableau, n: int) -> ONStandardReport:
    """Full report of the orthogonal standardness conditions.

    alpha[i-1] and beta[i-1] count the entries <= i in columns 1 and 2.
    Violations are ordered by dispatch priority: GL, then COLSUM, then the
    OS conditions at increasing witness index (OS1 before OS2 before OS3
    at equal index, and OS3 witnesses scan columns left to right).
    """
    m = n // 2
    cols = t.columns()
    col1 = cols[0] if len(cols) >= 1 else ()
    col2 = cols[1] if len(cols) >= 2 else ()

    alpha = tuple(sum(1 for x in col1 if x <= Letter(i)) for i in range(1, m + 1))
    beta = tuple(sum(1 for x in col2 if x <= Letter(i)) for i in range(1, m + 1))

    violations: list[Violation] = []
    if not is_gl_standard(t, n):
        violations.append(Violation("GL", 0))
        return ONStandardReport(False, tuple(violations), alpha, beta)

    conj = conjugate(t.shape)
    colsum = (conj[0] if len(conj) >= 1 else 0) + (conj[1] if len(conj) >= 2 else 0)
    if colsum > n:
        violations.append(Violation("COLSUM", 0))

    os_violations: list[Violation] = []
    for i in range(1, m + 1):
        a, b = alpha[i - 1], beta[i - 1]
        letter = Letter(i)
        if a + b > 2 * i:
            os_violations.append(Violation("OS1", i))
            continue
        if a + b == 2 * i and a > b:
            # positions are 1-based in the classical statement
            if (
                a >= 1
                and len(col1) >= a
                and col1[a - 1] == letter
                and b >= 1
                and len(col2) >= b
                and col2[b - 1] == letter.bar()
            ):
                protected = a >= 2 and col1[a - 2] == letter.bar()
                if not protected:
                    os_violations.append(Violation("OS2", i))
            continue
        if a + b == 2 * i and a == b:
            # the pair must sit in row i, barred letter in column 1
            if len(t.rows) >= i and len(t.rows[i - 1]) >= 1 and t.rows[i - 1][0] == letter.bar():
                for col_b in range(2, len(t.rows[i - 1]) + 1):
                    if t.rows[i - 1][col_b - 1] == letter:
                        above = any(
                            t.rows[r][col_b - 1] == letter.bar() for r in range(i - 1)
                            if len(t.rows[r]) >= col_b
                        )
                        if not above:
                            os_violations.append(Violation("OS3", i, col_b))

    os_violations.sort(key=lambda v: (v.witness, {"OS1": 0, "OS2": 1, "OS3": 2}[v.kind], v.column))
    violations.extend(os_violations)
    return ONStandardReport(not violations, tuple(violations), alpha, beta)


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def torus_weight(t: Tableau, n: int) -> tuple[int, ...]:
    """The weight of the tableau's letters under the diagonal torus of O(n).

    Entry i - 1 counts the letters i minus the letters ib; for odd n a last
    entry holds the parity of the number of 0 letters, the exponent of the
    sign at 0.  The diagonal matrix D with t_i at i, 1/t_i at ib and a sign
    at 0 lies in O(n); with this tableau as S, [S:T](D X) is [S:T](X) times
    the monomial in the t_i and the sign with these exponents.
    """
    m = n // 2
    weight = [0] * (m + n % 2)
    for row in t.rows:
        for x in row:
            if x.index == 0:
                weight[m] ^= 1
            else:
                weight[x.index - 1] += -1 if x.barred else 1
    return tuple(weight)


def basic_tableau(shape: Shape, n: int) -> Tableau:
    """Row k filled with the k-th smallest letter of the alphabet."""
    shape = check_shape(shape)
    letters = _letters(n)
    if len(shape) > n:
        raise DomainError(f"shape {shape} has more than {n} rows")
    return Tableau(tuple((letters[k],) * shape[k] for k in range(len(shape))))


def delete_pair(t: Tableau, letter: Letter) -> Tableau:
    """Remove letter from column 1 and its bar from column 2 of a 2-column tableau."""
    cols = t.columns()
    if len(cols) != 2:
        raise DomainError("delete_pair needs a two-column tableau")
    c1, c2 = list(cols[0]), list(cols[1])
    if letter not in c1 or letter.bar() not in c2:
        raise DomainError(f"pair {letter},{letter.bar()} does not occur in {t.format()!r}")
    c1.remove(letter)
    c2.remove(letter.bar())
    return Tableau.from_columns([c1, c2])


def occurring_pairs(t: Tableau) -> list[Letter]:
    """Letters i with i in column 1 and bar(i) in column 2 (two-column t)."""
    cols = t.columns()
    c1 = set(cols[0]) if len(cols) >= 1 else set()
    c2 = set(cols[1]) if len(cols) >= 2 else set()
    return sorted((x for x in c1 if x.bar() in c2), key=lambda x: x.key)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def enumerate_gl_standard(shape: Shape, n: int):
    """All GL(n)-standard tableaux of the given shape, in no particular order."""
    shape = check_shape(shape)
    if len(shape) > n:
        return
    letters = _letters(n)
    cells = [(i, j) for i, r in enumerate(shape) for j in range(r)]
    grid: list[list[Letter | None]] = [[None] * r for r in shape]

    def fill(pos: int):
        if pos == len(cells):
            yield Tableau(tuple(tuple(row) for row in grid))
            return
        i, j = cells[pos]
        for letter in letters:
            if j > 0 and letter < grid[i][j - 1]:
                continue
            if i > 0 and len(grid[i - 1]) > j and letter <= grid[i - 1][j]:
                continue
            grid[i][j] = letter
            yield from fill(pos + 1)
            grid[i][j] = None

    yield from fill(0)


def enumerate_on_standard(shape: Shape, n: int):
    """All O(n)-standard tableaux of the given shape, in increasing tableau order."""
    shape = check_shape(shape)
    conj = conjugate(shape)
    colsum = (conj[0] if len(conj) >= 1 else 0) + (conj[1] if len(conj) >= 2 else 0)
    if colsum > n:
        return
    found = [t for t in enumerate_gl_standard(shape, n)
             if on_standard_report(t, n).standard]
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
