"""Two-column straightening of bideterminants and the full GL(n) rewrite.

Everything here is an identity in the polynomial ring itself (no group
relation is used): a bideterminant with a row violation is rewritten via
a double Laplace expansion of an auxiliary matrix into higher terms of the
same shape plus terms whose columns are strictly more unbalanced.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .tableaux import (
    DomainError,
    Letter,
    Tableau,
    is_column_increasing,
    letter_in_alphabet,
    row_violation_column,
    shape_key,
    tableau_prec_cmp,
)
from . import polyring
from .polyring import CoeffDomain, Polynomial, QQ


class CapExceeded(RuntimeError):
    """Raised when a straightening run expands more distinct terms than its fuel."""


# ---------------------------------------------------------------------------
# terms and combinations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BidetTerm:
    """coef * gamma^gamma_pow * [left : right]."""

    coef: object
    gamma_pow: int
    left: Tableau
    right: Tableau

    def __post_init__(self):
        if self.left.shape != self.right.shape:
            raise DomainError("term tableaux must share a shape")
        if self.gamma_pow < 0:
            raise DomainError("gamma power must be nonnegative")

    def key(self):
        return (self.gamma_pow, self.left, self.right)

    def sort_key(self):
        return (
            shape_key(self.left.shape),
            self.left.prec_key(),
            self.right.prec_key(),
            self.gamma_pow,
        )

    def degree(self) -> int:
        """2 gamma_pow + |shape|: gamma is quadratic in the entries."""
        return 2 * self.gamma_pow + self.left.size

    def scaled_value(self, point, degree: int):
        """d^degree times the value at a group point g = G/d; degree >= self.degree().

        coef * minors(G) * Gamma^gamma_pow is d^m times the value, m the
        degree of the term, so d^(degree - m) lifts it to the given degree.
        """
        minors = point.minor_product(self.left.columns(), self.right.columns())
        return (self.coef * minors * point.integer_gamma ** self.gamma_pow
                * point.denominator ** (degree - self.degree()))

    def evaluate(self, point, gamma_value=None):
        """The value at a group point, with gamma from the point unless given.

        It is minors(G) / d^|shape| times gamma^gamma_pow; with the point's
        gamma, that is scaled_value over d^m.
        """
        minors = point.minor_product(self.left.columns(), self.right.columns())
        v = polyring.rational(self.coef * minors, point.denominator ** self.left.size)
        if self.gamma_pow:
            v *= (point.gamma_value if gamma_value is None else gamma_value) ** self.gamma_pow
        return v


class Combination:
    """A canonically merged linear combination of bideterminant terms."""

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        merged: dict = {}
        for term in terms:
            if not term.coef:
                continue
            k = term.key()
            if k in merged:
                s = merged[k].coef + term.coef
                if s:
                    merged[k] = BidetTerm(s, *k)
                else:
                    del merged[k]
            else:
                merged[k] = term
        object.__setattr__(self, "_terms", merged)

    def __setattr__(self, name, value):
        raise AttributeError("Combination is immutable")

    def terms(self) -> list[BidetTerm]:
        return sorted(self._terms.values(), key=BidetTerm.sort_key)

    def __iter__(self):
        return iter(self.terms())

    def __len__(self):
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: "Combination") -> "Combination":
        return Combination(list(self._terms.values()) + list(other._terms.values()))

    def __sub__(self, other: "Combination") -> "Combination":
        return self + other.scale(-1)

    def scale(self, c) -> "Combination":
        return Combination(
            BidetTerm(t.coef * c, t.gamma_pow, t.left, t.right)
            for t in self._terms.values()
        )

    def __eq__(self, other):
        if not isinstance(other, Combination):
            return NotImplemented
        return {k: t.coef for k, t in self._terms.items()} == {
            k: t.coef for k, t in other._terms.items()
        }

    def __repr__(self):
        return f"Combination<{len(self._terms)} terms>"

    def coefficient(self, left: Tableau, right: Tableau, gamma_pow: int = 0):
        t = self._terms.get((gamma_pow, left, right))
        return t.coef if t else 0

    def symbolic_poly(self, n: int) -> Polynomial:
        """The combination expanded in the polynomial ring (gamma included)."""
        gamma = polyring.gamma_poly(n)
        total = Polynomial.zero()
        for t in self.terms():
            p = polyring.bideterminant(t.left, t.right).scale(t.coef)
            for _ in range(t.gamma_pow):
                p = p * gamma
            total = total + p
        return total

    def degree(self) -> int:
        """The largest term degree; -1 for the zero combination."""
        return max((t.degree() for t in self._terms.values()), default=-1)

    def scaled_value(self, point, degree: int):
        """d^degree times the value at a group point; see BidetTerm.scaled_value."""
        return sum(t.scaled_value(point, degree) for t in self._terms.values())

    def evaluate(self, point, gamma_value=None):
        return sum(t.evaluate(point, gamma_value) for t in self._terms.values())

    # -- line-oriented certificate format -----------------------------------

    def certificate(self) -> str:
        lines = []
        for t in self.terms():
            lines.append(f"{t.coef}\t{t.gamma_pow}\t{t.left.format()}\t{t.right.format()}")
        return "\n".join(lines)

    @classmethod
    def parse_certificate(cls, text: str, domain: CoeffDomain = QQ) -> "Combination":
        terms = []
        for line in text.strip().splitlines():
            if not line.strip():
                continue
            coef_text, gpow_text, left_text, right_text = line.split("\t")
            terms.append(BidetTerm(
                polyring.rational(coef_text), int(gpow_text),
                Tableau.parse(left_text), Tableau.parse(right_text)
            ))
        return cls(terms).reduce(domain)

    def reduce(self, domain: CoeffDomain) -> "Combination":
        """The image of an exact rational combination over a coefficient domain.

        Straightening computes over Z[1/2]; this base change is where the
        domain comes in.  Terms whose image is zero merge away.  Over F_p the
        coefficients are canonical residues (plain ints), so arithmetic on a
        reduced combination must be followed by another reduce.
        """
        out = []
        for t in self._terms.values():
            c = domain.reduce_rational(t.coef)
            if c is None or not domain.validate(c):
                raise AssertionError(f"coefficient {t.coef} left the domain")
            out.append(BidetTerm(c, t.gamma_pow, t.left, t.right))
        return Combination(out)


def single_term(left: Tableau, right: Tableau, coef=1, gamma_pow: int = 0) -> Combination:
    return Combination([BidetTerm(coef, gamma_pow, left, right)])


# ---------------------------------------------------------------------------
# column sorting with signs
# ---------------------------------------------------------------------------

def inversion_sign(seq) -> int:
    """(-1) to the number of inversions of a sequence of distinct values."""
    sign = 1
    for a, b in itertools.combinations(seq, 2):
        if a > b:
            sign = -sign
    return sign


def sort_letters(entries) -> tuple[int, tuple[Letter, ...]]:
    """Sort a column, returning (sign, sorted); sign 0 on a repeated letter."""
    entries = tuple(entries)
    if len(set(entries)) < len(entries):
        return 0, ()
    return inversion_sign(entries), tuple(sorted(entries))


def normalize_pair(left_cols, right_cols) -> tuple[int, Tableau | None, Tableau | None]:
    """Sort entries (with signs) and arrange columns into a partition shape.

    Column pairs move together; reordering whole columns is sign free since
    a bideterminant is a product of per-column minors.  Empty columns are
    dropped.  Returns sign 0 when some column has a repeated letter.
    """
    pairs = [(tuple(a), tuple(b)) for a, b in zip(left_cols, right_cols)]
    if any(len(a) != len(b) for a, b in pairs):
        raise DomainError("left and right columns must pair up in length")
    sign = 1
    sorted_pairs = []
    for a, b in pairs:
        if a:
            sign_a, sa = sort_letters(a)
            sign_b, sb = sort_letters(b)
            sign *= sign_a * sign_b
            if not sign:
                return 0, None, None
            sorted_pairs.append((sa, sb))
    sorted_pairs.sort(key=lambda p: -len(p[0]))
    return (
        sign,
        Tableau.from_columns([p[0] for p in sorted_pairs]),
        Tableau.from_columns([p[1] for p in sorted_pairs]),
    )


# ---------------------------------------------------------------------------
# the two-column rewrite
# ---------------------------------------------------------------------------

def first_row_violation(s: Tableau) -> int | None:
    """1-based first row where column 1 exceeds column 2, or None."""
    cols = s.columns()
    if len(cols) < 2:
        return None
    for r, (a, b) in enumerate(zip(cols[0], cols[1]), start=1):
        if a > b:
            return r
    return None


def _laplace_col_sign(row_set, k: int) -> int:
    total = sum(row_set) + k * (k + 1) // 2
    return -1 if total % 2 else 1


def two_column_straighten(s: Tableau, t: Tableau):
    """Rewrite [S:T], S two-column with a row violation, as head + drop.

    head holds the same-shape terms (all strictly above S in the tableau
    order, with signs only); drop holds the column-rebalanced remainder.
    The identity [S:T] = head + drop is exact in the polynomial ring.
    """
    if s.shape != t.shape:
        raise DomainError("shape mismatch")
    cols_s, cols_t = s.columns(), t.columns()
    if len(cols_s) != 2:
        raise DomainError("two-column tableaux required")
    if not (is_column_increasing(s) and is_column_increasing(t)):
        raise DomainError("columns must be strictly increasing")
    viol = first_row_violation(s)
    if viol is None:
        raise DomainError("left tableau has no row violation")

    s1, s2 = cols_s
    t1, t2 = cols_t
    k, ell = len(s1), len(s2)
    tv = viol

    # auxiliary-matrix row labels: 1..k carry the first column of S,
    # k+1..k+ell the second; columns 1..k carry T's first column, the rest
    # its second.  Rows above the violation are zeroed on the right block,
    # rows below it (in the second group) on the left block.
    def row_label(h: int) -> Letter:
        return s1[h - 1] if h <= k else s2[h - k - 1]

    def col_label(h: int) -> Letter:
        return t1[h - 1] if h <= k else t2[h - k - 1]

    forced = list(range(1, tv))                      # must sit in the left minor
    free = list(range(tv, k + 1)) + list(range(k + 1, k + tv + 1))
    # (free rows: first-column rows tv..k and second-column rows 1..tv)

    head_terms: list[BidetTerm] = []
    base_sign = None
    for chosen in itertools.combinations(free, k - tv + 1):
        rows_in = sorted(forced + list(chosen))
        rows_out = sorted(set(range(1, k + ell + 1)) - set(rows_in))
        eps = _laplace_col_sign(rows_in, k)
        u_col1 = [row_label(h) for h in rows_in]
        u_col2 = [row_label(h) for h in rows_out]
        if u_col1 == list(s1) and u_col2 == list(s2):
            base_sign = eps
            continue
        sign, left, right = normalize_pair([u_col1, u_col2], [t1, t2])
        if sign == 0:
            continue
        # solving for [S:T] negates the other column-expansion terms
        head_terms.append(BidetTerm(-eps * sign, 0, left, right))
    if base_sign != 1:
        raise AssertionError("expansion lost the original bideterminant")
    head = Combination(head_terms)

    exp_rows = list(range(1, tv)) + list(range(k + tv + 1, k + ell + 1))
    row_sum = sum(exp_rows)
    drop_terms: list[BidetTerm] = []
    for c1 in itertools.combinations(range(1, k + 1), tv - 1):
        for c2 in itertools.combinations(range(k + 1, k + ell + 1), ell - tv):
            cols_in = list(c1) + list(c2)
            cols_out = sorted(set(range(1, k + ell + 1)) - set(cols_in))
            delta = -1 if (row_sum + sum(cols_in)) % 2 else 1
            big_left = [row_label(h) for h in range(tv, k + 1)] + \
                       [row_label(h) for h in range(k + 1, k + tv + 1)]
            big_right = [col_label(h) for h in cols_out]
            small1_left = [row_label(h) for h in range(1, tv)]
            small1_right = [col_label(h) for h in c1]
            small2_left = [row_label(h) for h in range(k + tv + 1, k + ell + 1)]
            small2_right = [col_label(h) for h in c2]
            sign, left, right = normalize_pair(
                [big_left, small1_left, small2_left],
                [big_right, small1_right, small2_right],
            )
            if sign == 0:
                continue
            drop_terms.append(BidetTerm(delta * sign, 0, left, right))
    drop = Combination(drop_terms)
    return viol, head, drop


# ---------------------------------------------------------------------------
# the straightening engine and full GL straightening
# ---------------------------------------------------------------------------

def splice_block(left: Tableau, right: Tableau, i: int, j: int,
                 rewrite, check) -> list[BidetTerm]:
    """Rewrite columns i < j of [left : right] as a two-column pair.

    rewrite(s, t) gives the terms of the two-column pair; check(left,
    new_left) is the rule's measure check on each spliced term.  A term that
    keeps both column lengths goes back to columns i and j, which keeps the
    tableau order comparison local to the block; any other term's columns
    are inserted at i, since a bideterminant is a product of column minors
    and normalize_pair sorts the columns by length.  The terms come back
    unmerged: splicing the terms of a merged pair back is injective.
    """
    left_cols, right_cols = left.columns(), right.columns()
    lengths = (len(left_cols[i]), len(left_cols[j]))

    def put_back(cols, block):
        rest = [c for k, c in enumerate(cols) if k not in (i, j)]
        if tuple(len(c) for c in block) == lengths:
            rest.insert(i, block[0])
            rest.insert(j, block[1])
            return rest
        return rest[:i] + list(block) + rest[i:]

    out = []
    for term in rewrite(Tableau.from_columns([left_cols[i], left_cols[j]]),
                        Tableau.from_columns([right_cols[i], right_cols[j]])):
        sign, new_left, new_right = normalize_pair(
            put_back(left_cols, term.left.columns()),
            put_back(right_cols, term.right.columns()))
        if sign == 0:
            continue
        check(left, new_left)
        out.append(BidetTerm(term.coef * sign, term.gamma_pow, new_left, new_right))
    return out


def _two_column_rewrite(s: Tableau, t: Tableau) -> Combination:
    _, head, drop = two_column_straighten(s, t)
    return head + drop


def mead_step(left: Tableau, right: Tableau, c: int) -> list[BidetTerm]:
    """Apply the two-column rewrite to columns (c, c+1) and reassemble."""
    return splice_block(left, right, c, c + 1, _two_column_rewrite, _check_gl_measure)


def _column_profile(t: Tableau):
    return tuple(sorted((len(c) for c in t.columns()), reverse=True))


def _check_gl_measure(old: Tableau, new: Tableau):
    """Each rewrite must unbalance columns or raise the worked side."""
    po, pn = _column_profile(old), _column_profile(new)
    if pn != po:
        if pn <= po:
            raise AssertionError("rewrite did not increase the column profile")
        return
    if tableau_prec_cmp(old, new) != -1:
        raise AssertionError("same-shape rewrite did not move up in tableau order")


def gl_left_step(left: Tableau, right: Tableau):
    """The two-column rewrite at the left side's first column violation.

    Returns ("GL", column, terms) with the terms at unit coefficient, or
    None when the left side is GL-standard.
    """
    c = row_violation_column(left)
    if c is None:
        return None
    return "GL", c + 1, mead_step(left, right, c)


def on_right(step, left: Tableau, right: Tableau, *args):
    """Apply a left-side rewrite step to the right side of [left : right].

    [S:T](g) = [T:S](g^t), and transposition preserves GL, O and GO, so
    the step runs on the swapped pair and its terms are swapped back.
    """
    out = step(right, left, *args)
    if out is None:
        return None
    kind, witness, produced = out
    return kind, witness, [BidetTerm(x.coef, x.gamma_pow, x.right, x.left)
                           for x in produced]


def _gl_rule(left: Tableau, right: Tableau):
    return gl_left_step(left, right) or on_right(gl_left_step, left, right)


def run_straightening(s: Tableau, t: Tableau, rule, fuel: int,
                      trace: list | None = None) -> Combination:
    """Rewrite [S:T] by a rule until only standard terms remain.

    rule(left, right) is None for a standard pair, else (kind, witness,
    terms): one rewrite at unit coefficient, gamma_pow holding each term's
    gamma step.  Each distinct pair is expanded once, depth first; the
    coefficients, one per gamma power, then flow to the standard leaves in
    reverse postorder.  The rules' coefficients are integers and dyadic
    rationals, so the result is exact over Z[1/2].  fuel bounds the number
    of distinct pairs; trace, when given, gets (kind, witness, term count)
    for each pair expanded.
    """
    sign, left, right = normalize_pair(s.columns(), t.columns())
    if sign == 0:
        return Combination()
    root = (left, right)
    edges: dict = {}          # pair -> [(coef, dgamma, child)], None when standard
    postorder: list = []
    open_pairs: set = set()   # expanded but not finished: the current path
    stack = [(root, False)]
    while stack:
        pair, finished = stack.pop()
        if finished:
            open_pairs.discard(pair)
            postorder.append(pair)
            continue
        if pair in open_pairs:
            raise AssertionError("rewrite returned to a term it was expanding")
        if pair in edges:
            continue
        if len(edges) >= fuel:
            raise CapExceeded("straightening fuel exhausted")
        step = rule(*pair)
        if step is not None and trace is not None:
            trace.append((step[0], step[1], len(step[2])))
        edges[pair] = None if step is None else [
            (x.coef, x.gamma_pow, (x.left, x.right)) for x in step[2]]
        open_pairs.add(pair)
        stack.append((pair, True))
        stack.extend((child, False) for _, _, child in edges[pair] or ())

    weights = {root: {0: sign}}
    done: list[BidetTerm] = []
    for pair in reversed(postorder):
        weight = {g: c for g, c in weights.pop(pair, {}).items() if c}
        if not weight:
            continue
        if edges[pair] is None:
            done.extend(BidetTerm(c, g, *pair) for g, c in weight.items())
            continue
        for coef, dgamma, child in edges[pair]:
            target = weights.setdefault(child, {})
            for g, c in weight.items():
                k = g + dgamma
                target[k] = target[k] + c * coef if k in target else c * coef
    return Combination(done)


def gl_straighten(s: Tableau, t: Tableau, n: int, fuel: int = 200000,
                  trace: list | None = None) -> Combination:
    """Express [S:T] in the basis of GL(n)-standard bideterminants.

    The result is an exact identity in the polynomial ring; coefficients
    are sums of signs, hence integers valid over any coefficient ring.
    Each term keeps the letters of each input side.
    """
    if len(s.shape) > n or len(t.shape) > n:
        raise DomainError(f"more than {n} rows")
    for col in (*s.columns(), *t.columns()):
        for x in col:
            if not letter_in_alphabet(x, n):
                raise DomainError(f"letter {x} outside the alphabet of size {n}")
    out = run_straightening(s, t, _gl_rule, fuel, trace)
    # the full diagonal torus acts on both sides: each keeps its letters
    content = (_content(s), _content(t))
    for term in out:
        if len(term.left.shape) > n:
            # a strictly increasing column longer than the alphabet is zero,
            # so only row counts beyond n with short columns could survive;
            # those cannot appear since columns are sorted
            raise AssertionError("unreachable: standard tableau with too many rows")
        if (_content(term.left), _content(term.right)) != content:
            raise AssertionError("output term changed the letter content")
    return out


def _content(t: Tableau) -> list:
    """The letter multiset of a tableau, as a sorted list."""
    return sorted(x for col in t.columns() for x in col)


# ---------------------------------------------------------------------------
# the one-switch expansion
# ---------------------------------------------------------------------------

def one_switch_expand(s: Tableau, t: Tableau, row: int) -> Combination:
    """Expansion of [S*:T] - [S:T] where S* swaps the pair (bar i, i) in a row.

    S must be GL-standard with bar(i) in column 1 and i in column 2 of the
    given 1-based row.  The result is the same-shape tail (all terms above
    S* in the tableau order) plus the column-rebalanced remainder.
    """
    cols = s.columns()
    if len(cols) != 2:
        raise DomainError("two-column tableau required")
    if not (len(cols[0]) >= row and len(cols[1]) >= row):
        raise DomainError("row out of range")
    a, b = cols[0][row - 1], cols[1][row - 1]
    if not a.barred or a.bar() != b:
        raise DomainError("row must contain the pair (bar i, i)")
    c1 = list(cols[0])
    c2 = list(cols[1])
    c1[row - 1], c2[row - 1] = b, a
    star = Tableau.from_columns([c1, c2])
    if not is_column_increasing(star):
        raise DomainError("switched tableau is not column increasing")
    _, head, drop = two_column_straighten(star, t)
    base = head.coefficient(s, t)
    if base != 1:
        raise AssertionError("lowest term of the switch expansion is not [S:T]")
    return (head + drop) - single_term(s, t)
