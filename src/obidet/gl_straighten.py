"""Two-column straightening of bideterminants and the full GL(n) rewrite.

Everything here is an identity in the polynomial ring itself (no group
relation is used): a bideterminant with a row violation is rewritten via
a double Laplace expansion of an auxiliary matrix into higher terms of the
same shape plus terms whose columns are strictly more unbalanced.

The kernels and the engine work on column tuples: a pair is the
(left columns, right columns) of normal_columns, the engine works on such
pairs in canonical order (_canonical): only standard leaves become
Tableaux.  One rewrite rule, Rule, serves GL, O and GO: each
straightening call checks its input (_check_input) and builds one, and
the mode plugs in its orthogonal scan and repair terms (none in GL
mode).  The rule is the one splice site: every rewrite returns normalized
blocks, and splice_block puts them back in canonical order with no letter
sorting.  It computes each term's key in the one pair measure,
_measure_key, once, checks it against the key the pair left the engine's
heap with (_check_measure), and hands it back with the term, so the
engine pushes the term's pair with that key.  The rule holds the call's
standardness verdicts.  A GL step rewrites a two-column block to its GL
normal form in one rule call (_normal_form): the block straightened until
both of its sides are GL-standard.  Both that normal form and the
one-step two-column rewrite (_two_column_rewrite) depend only on the
order pattern of the block's letters, so each is computed once per
process, the first time it is asked for, in one table keyed on ranks that
holds no letter (_template).  Its entries (_Template) hold precompiled
relabellers, one itemgetter per column, that relabel them for every
block of that pattern; the getters of a side are shared between the
entries that hold it (_getters, the one other process-wide table, which
also holds no letter).  Both are read through one rank-key lookup
(_template_terms).  A normal form is built by the engine's own heap
loop (_heap_pass) on the rank block with the one-step rule (_StepRule),
so every one-step child is measure-checked; two_column_straighten and
mead_step read the one-step rewrite (_template_rewrite).  term_order is
the one order of output terms.  A term is (coef, left columns, right
columns), a spliced one (coef, pair, key): its gamma power is not carried
but read off its size drop where column tuples become BidetTerms
(_bidet_terms), and the measure rejects an odd drop.  The coefficients
lie in Z[1/2], and the engine computes on ints: each weight is an int
over one power of two per pass (_heap_pass).  two_column_straighten,
mead_step and normalize_pair are thin adapters that take and give
tableaux, the first two over the one-step templates.  One output check
(_check_output) serves GL, O and GO.  verify_gl checks a GL identity in
the polynomial ring itself.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import operator
import random
from dataclasses import dataclass

from .tableaux import (
    DomainError,
    Letter,
    Tableau,
    Violation,
    _gl_standard,
    column_shape,
    letter_in_alphabet,
    orthogonal_violations,
    row_violation_column,
    shape_key,
    sparse_torus_weight,
)
from . import polyring
from .polyring import CoeffDomain, Polynomial, QQ, inversion_sign


class CapExceeded(RuntimeError):
    """Raised when a straightening run needs more rule calls than its fuel."""


# the default fuel of every straightening call, in rule calls: rewrite steps and standard
# leaves; it bounds the call's own pass and, apart, each normal form the call builds
FUEL = 200000


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
        return term_order(self.left.columns(), self.right.columns(), self.gamma_pow)

    def degree(self) -> int:
        """2 gamma_pow + |shape|: gamma is quadratic in the entries."""
        return 2 * self.gamma_pow + self.left.size

    def integer_value(self, point):
        """coef * minors(G) * Gamma^gamma_pow: d^m times the value at g = G/d, m the degree."""
        minors = point.minor_product(self.left.columns(), self.right.columns())
        return self.coef * minors * point.integer_gamma ** self.gamma_pow


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

    def __reduce__(self):
        return Combination, (tuple(self._terms.values()),)

    def terms(self) -> list[BidetTerm]:
        return sorted(self._terms.values(), key=BidetTerm.sort_key)

    def __iter__(self):
        return iter(self.terms())

    def unsorted(self):
        """The terms in merge order, for callers that need no order."""
        return self._terms.values()

    def __len__(self):
        return len(self._terms)

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

    def symbolic_poly(self, n: int) -> Polynomial:
        """The combination expanded in the polynomial ring (gamma included)."""
        gamma = None
        total = Polynomial.zero()
        for t in self.terms():
            p = polyring.bideterminant(t.left, t.right).scale(t.coef)
            for _ in range(t.gamma_pow):
                gamma = gamma or polyring.gamma_poly(n)
                p = p * gamma
            total = total + p
        return total

    def degree(self) -> int:
        """The largest term degree; -1 for the zero combination."""
        return max((t.degree() for t in self._terms.values()), default=-1)

    def integer_value(self, point):
        """d^m times the value at a group point, m the degree.

        One sum: with L the lcm of the coefficient denominators, it is the
        sum of L coef * minors(G) * Gamma^k * d^(m - deg) over the terms,
        divided once by L.  A term of degree deg is d^deg times its value at
        g = G/d, and d^(m - deg) lifts it to the degree of the combination.
        """
        return self._value_sum(point, point.integer_gamma, 1)

    def evaluate(self, point, gamma_value=None):
        """The value at a group point, with gamma from the point unless given.

        It is the sum of integer_value divided once by L d^m; a given gamma
        enters that sum as Gamma = gamma d^2.
        """
        d = point.denominator
        gamma = point.integer_gamma
        if gamma_value is not None:
            # an integral Gamma, as at the point's own gamma, keeps the sum in ints
            gamma = polyring.rational(gamma_value) * d * d
            if gamma.denominator == 1:
                gamma = gamma.numerator
        return self._value_sum(point, gamma, d)

    def _value_sum(self, point, gamma, base: int):
        """The one integer sum of integer_value and evaluate at this Gamma, over L base^m."""
        if not self._terms:
            return 0
        d, m = point.denominator, self.degree()
        lcm = math.lcm(*(t.coef.denominator for t in self._terms.values()))
        total = sum(
            t.coef.numerator * (lcm // t.coef.denominator)
            * point.minor_product(t.left.columns(), t.right.columns())
            * gamma ** t.gamma_pow * d ** (m - t.degree())
            for t in self._terms.values())
        den = lcm * base ** m
        return total if den == 1 else polyring.rational(total, den)

    # -- line-oriented certificate format -----------------------------------

    def certificate(self) -> str:
        text = {}   # each distinct tableau is formatted once
        lines = []
        for t in self.terms():
            left = text.get(t.left) or text.setdefault(t.left, t.left.format())
            right = text.get(t.right) or text.setdefault(t.right, t.right.format())
            lines.append(f"{t.coef}\t{t.gamma_pow}\t{left}\t{right}")
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
        return Combination(BidetTerm(_in_domain(t.coef, domain), t.gamma_pow, t.left, t.right)
                           for t in self._terms.values())


def _in_domain(coef, domain: CoeffDomain):
    """The image of an exact rational coefficient in a domain, which must hold it."""
    c = domain.reduce_rational(coef)
    if c is None or not domain.validate(c):
        raise AssertionError(f"coefficient {coef} left the domain")
    return c


def single_term(left: Tableau, right: Tableau, coef=1, gamma_pow: int = 0) -> Combination:
    return Combination([BidetTerm(coef, gamma_pow, left, right)])


def term_order(left, right, gamma_pow: int = 0):
    """The order of terms on column tuples: shape, left and right tableau order, gamma power."""
    return shape_key(column_shape(tuple(map(len, left)))), left[::-1], right[::-1], gamma_pow


# ---------------------------------------------------------------------------
# column sorting with signs
# ---------------------------------------------------------------------------

def sort_letters(entries) -> tuple[int, tuple[Letter, ...]]:
    """Sort a column, returning (sign, sorted); sign 0 on a repeated letter.

    A column that is already strictly increasing comes back as it is, with
    no inversion count.
    """
    entries = tuple(entries)
    if all(map(operator.lt, entries, entries[1:])):
        return 1, entries
    ordered = tuple(sorted(set(entries)))
    if len(ordered) < len(entries):
        return 0, ()
    return inversion_sign(entries), ordered


def normal_columns(left_cols, right_cols):
    """Sort entries (with signs) and arrange column pairs into a partition shape.

    Column pairs move together; reordering whole columns is sign free since
    a bideterminant is a product of per-column minors.  Empty columns are
    dropped.  Returns (sign, left columns, right columns) as tuples of
    tuples, or (0, None, None) when some column has a repeated letter.
    """
    sign = 1
    sorted_pairs = []
    for a, b in zip(left_cols, right_cols):
        if len(a) != len(b):
            raise DomainError("left and right columns must pair up in length")
        if a and sign:
            sign_a, a = sort_letters(a)
            sign_b, b = sort_letters(b)
            sign *= sign_a * sign_b
            sorted_pairs.append((a, b))
    if not sign:
        return 0, None, None
    sorted_pairs.sort(key=lambda p: -len(p[0]))
    left, right = zip(*sorted_pairs) if sorted_pairs else ((), ())
    return sign, left, right


def normalize_pair(left_cols, right_cols) -> tuple[int, Tableau | None, Tableau | None]:
    """normal_columns as a pair of tableaux: (sign, left, right), sign 0 on a repeat."""
    sign, left, right = normal_columns(left_cols, right_cols)
    if not sign:
        return 0, None, None
    return sign, Tableau.from_columns(left), Tableau.from_columns(right)


# ---------------------------------------------------------------------------
# the two-column rewrite
# ---------------------------------------------------------------------------

def _add_term(terms: dict, key, coef):
    """Merge coef into terms[key] as Combination merges: zero sums drop out."""
    total = terms.get(key, 0) + coef
    if total:
        terms[key] = total
    else:
        terms.pop(key, None)


def _two_column_rewrite(s_cols, t_cols) -> list:
    """The two-column rewrite of [S:T] on raw columns: (coef, left columns, right columns).

    S = (s1, s2) and T = (t1, t2) are column tuples of a two-column pair
    whose left side has a row violation; the rewrite expands at its first
    violated row.  The terms are merged, with nonzero coefficients, the head
    and drop of two_column_straighten in one list: head terms keep the
    column lengths of S and drop terms have a longer first column, so no
    block is in both.  Every block is normalized, as splice_block requires:
    it comes from normal_columns.
    """
    if tuple(map(len, s_cols)) != tuple(map(len, t_cols)):
        raise DomainError("shape mismatch")
    if len(s_cols) != 2:
        raise DomainError("two-column tableaux required")
    if not all(a < b for col in (*s_cols, *t_cols) for a, b in zip(col, col[1:])):
        raise DomainError("columns must be strictly increasing")
    (s1, s2), (t1, t2) = s_cols, t_cols
    tv = next((r for r, (a, b) in enumerate(zip(s1, s2), start=1) if a > b), None)
    if tv is None:
        raise DomainError("left tableau has no row violation")

    k, ell = len(s1), len(s2)
    # auxiliary-matrix rows 0..k-1 carry the first column of S, k..k+ell-1
    # the second; its columns carry T's columns the same way.  Rows above
    # the violation are zeroed on the right block, rows below it (in the
    # second group) on the left block.
    rows, cols = s1 + s2, t1 + t2
    all_rows = range(k + ell)
    forced = tuple(range(tv - 1))                  # must sit in the left minor
    # free rows: first-column rows tv..k and second-column rows 1..tv (1-based)
    free = range(tv - 1, k + tv)

    # the Laplace column sign is the parity of the 1-based rows_in and k(k+1)/2
    offset = k + k * (k + 1) // 2
    terms: dict = {}
    base_sign = None
    for chosen in itertools.combinations(free, k - tv + 1):
        rows_in = forced + chosen
        inside = set(rows_in)
        eps = -1 if (offset + sum(rows_in)) % 2 else 1
        u_col1 = tuple(rows[h] for h in rows_in)
        u_col2 = tuple(rows[h] for h in all_rows if h not in inside)
        if u_col1 == s1 and u_col2 == s2:
            base_sign = eps
            continue
        sign, left, right = normal_columns((u_col1, u_col2), t_cols)
        if sign:
            # solving for [S:T] negates the other column-expansion terms
            _add_term(terms, (left, right), -eps * sign)
    if base_sign != 1:
        raise AssertionError("expansion lost the original bideterminant")

    # the drop expands rows 1..tv-1 and k+tv+1..k+ell (1-based) against
    # ell - 1 chosen columns, and keeps the other rows in one big minor; its
    # sign is the parity of those rows and the 1-based chosen columns
    offset = (tv - 1) * tv // 2 + sum(range(k + tv + 1, k + ell + 1)) + ell - 1
    block_left = (rows[tv - 1:k + tv], s1[:tv - 1], s2[tv:])
    for c1 in itertools.combinations(range(k), tv - 1):
        for c2 in itertools.combinations(range(k, k + ell), ell - tv):
            cols_in = set(c1 + c2)
            delta = -1 if (offset + sum(c1) + sum(c2)) % 2 else 1
            sign, left, right = normal_columns(block_left, (
                tuple(cols[h] for h in all_rows if h not in cols_in),
                tuple(cols[h] for h in c1),
                tuple(cols[h] for h in c2)))
            if sign:
                _add_term(terms, (left, right), delta * sign)
    return [(coef, left, right) for (left, right), coef in terms.items()]


def _bidet_terms(terms, size: int) -> list[BidetTerm]:
    """Terms (coef, left, right) of a pair of this size as BidetTerms: 2k boxes less is gamma^k."""
    return [BidetTerm(coef, (size - sum(map(len, left))) // 2, Tableau.from_columns(left),
                      Tableau.from_columns(right)) for coef, left, right in terms]


def two_column_straighten(s: Tableau, t: Tableau):
    """Rewrite [S:T], S two-column with a row violation, as head + drop.

    head holds the same-shape terms (all strictly above S in the tableau
    order, with signs only); drop holds the column-rebalanced remainder.
    The identity [S:T] = head + drop is exact in the polynomial ring.  The
    terms are the one-step rewrite of the template table (_template_rewrite).
    Returns (first violated row, head, drop).
    """
    s_cols, t_cols = s.columns(), t.columns()
    if len(s_cols) != 2 or s.shape != t.shape:
        raise DomainError("two-column tableaux of one shape required")
    terms = _template_rewrite(s_cols, t_cols)
    lengths = tuple(map(len, s_cols))
    head = [x for x in terms if tuple(map(len, x[1])) == lengths]
    drop = [x for x in terms if tuple(map(len, x[1])) != lengths]
    viol = next(r for r, (a, b) in enumerate(zip(*s_cols), start=1) if a > b)
    return viol, Combination(_bidet_terms(head, s.size)), Combination(_bidet_terms(drop, s.size))


# ---------------------------------------------------------------------------
# the straightening engine and full GL straightening
# ---------------------------------------------------------------------------

def _canonical(pairs):
    """Column pairs sorted by (-length, left column, right column), unzipped: the engine's key.

    Column minors commute, so the order is sign free.
    """
    pairs = sorted(pairs, key=lambda p: (-len(p[0]), p))
    return tuple(zip(*pairs)) if pairs else ((), ())


def splice_block(left_cols, right_cols, key, i: int, j: int, rewrite) -> list:
    """Rewrite columns i < j of the canonical column pair [left : right] as a two-column pair.

    key is the pair's measure key (_measure_key).  rewrite(s_cols, t_cols)
    gives the terms of the two-column pair as (coef, left columns, right
    columns).  Every block a rewrite returns is normalized (strictly
    increasing columns, lengths that do not increase, none empty), so
    splicing needs no sorting of letters and no sign: the block's column
    pairs and the rest go through _canonical.  Each term's key is computed
    here, once, and must rise above key (_check_measure).  The terms come
    back unmerged, as (coef, (left columns, right columns), term key).
    """
    rest = [p for k, p in enumerate(zip(left_cols, right_cols)) if k != i and k != j]
    out = []
    for coef, block_left, block_right in rewrite(
            (left_cols[i], left_cols[j]), (right_cols[i], right_cols[j])):
        child = _canonical([*rest, *zip(block_left, block_right)])
        child_key = _measure_key(child)
        _check_measure(key, child_key)
        out.append((coef, child, child_key))
    return out


def _measure_key(pair):
    """The well-founded measure of straightening on a pair (left columns, right columns).

    Every rewrite term has a larger key than its pair: the size falls by an
    even number (two entries per gamma), or it stays and the column profile
    rises, or that stays and (left key, right key) rises, a key being the
    reversed column tuple (the tableau order).  Sorting an equal-length run
    ascending maximises the reversed key over the arrangements of that run.
    So a same-shape left rewrite raises the canonical left side:
    canon(L*) >= L* > L = canon(L).  A same-shape right rewrite keeps the
    left multiset, so the canonical left is the same tuple and the right
    moves only within ties of equal left columns, which can only raise the
    right key.  The key determines the pair, so no two pairs tie.
    """
    left, right = pair
    profile = tuple(map(len, left))
    return -sum(profile), profile, left[::-1], right[::-1]


def _check_measure(old, new):
    """A rewrite term's key must rise above its pair's key, and a size drop must be even."""
    if new[0] > old[0]:
        if (new[0] - old[0]) % 2:
            raise AssertionError("rewrite dropped the size by an odd number")
    elif not old < new:
        raise AssertionError("same-shape rewrite did not move up in tableau order"
                             if new[1] == old[1] else
                             "rewrite changed the shape without falling in measure")


def _template_terms(s_cols, t_cols, read):
    """The terms read(entry) of the table entry of a two-column block's rank key, in its letters.

    A rewrite of the block only compares and equates letters, the left
    ones with left ones and the right ones with right ones.  So its terms on
    [S:T] are its terms on the ranks of the letters among the distinct
    letters of each side, relabelled back by each column's getter on its
    side's sorted letters; the relabelling is monotone and injective, so it
    keeps every merge, sign, standardness verdict and the order of the terms.
    """
    (s1, s2), (t1, t2) = s_cols, t_cols
    lefts = tuple(sorted({*s1, *s2}))
    rights = tuple(sorted({*t1, *t2}))
    left_rank = dict(zip(lefts, itertools.count())).__getitem__
    right_rank = dict(zip(rights, itertools.count())).__getitem__
    entry = _template(((tuple(map(left_rank, s1)), tuple(map(left_rank, s2))),
                       (tuple(map(right_rank, t1)), tuple(map(right_rank, t2)))))
    return [(coef, tuple([g(lefts) for g in left]), tuple([g(rights) for g in right]))
            for coef, left, right in read(entry)]


def _template_rewrite(s_cols, t_cols):
    """_two_column_rewrite through the one-step rewrite of the block's rank key (_template)."""
    return _template_terms(s_cols, t_cols, lambda entry: entry.step)


def _normal_form(fuel: int, s_cols, t_cols):
    """The GL normal form of a two-column block with a row violation on either side.

    The terms are the block's bideterminant straightened until both sides
    are GL-standard, the normal form of its rank key (_Template.normal_form,
    whose build, when the table has none, fuel bounds) relabelled back;
    every block is normalized, as splice_block requires.
    """
    return _template_terms(s_cols, t_cols, lambda entry: entry.normal_form(fuel))


def _relabellers(terms):
    """Terms (coef, left columns, right columns) on ranks as (coef, left getters, right getters)."""
    return tuple((coef, _getters(left), _getters(right)) for coef, left, right in terms)


@functools.cache
def _getters(cols):
    """The getters of a side's rank columns, shared by every table entry that holds that side.

    Each getter is an operator.itemgetter that picks its column's letters
    from the sorted letters of its side; a one-rank column's getter takes a
    slice, so it too gives a tuple.  The sides are few (64 distinct ones in
    the 264 entries that 300 straighten_deep rounds fill), so sharing them
    keeps the table small.
    """
    return tuple(operator.itemgetter(*c) if len(c) > 1 else
                 operator.itemgetter(slice(c[0], c[0] + 1)) for c in cols)


class _Template:
    """The table entry of a rank key: its one-step rewrite, and its block's GL normal form.

    Each is computed the first time it is asked for.  step, for a key with
    a left row violation, is the two-column rewrite of the key
    (_two_column_rewrite), which every one-step rewrite of a block reads
    (_template_rewrite).  normal, for a key with a row violation on either
    side, is the block's bideterminant straightened until both sides are
    GL-standard: what a GL step of the engine splices; it is None until
    normal_form builds it.  Both are tuples of (coef, left relabellers,
    right relabellers) (_relabellers).
    """

    def __init__(self, key):
        self.key = key
        self.normal = None

    @functools.cached_property
    def step(self):
        return _relabellers(_two_column_rewrite(*self.key))

    def normal_form(self, fuel: int):
        """normal, built on first use by the engine's own heap loop with the one-step rule.

        The build runs _heap_pass on the rank block with the one-step GL
        rule (_StepRule): the left side is straightened first, then the
        right side by transposition, and every one-step child is
        measure-checked by splice_block, so a wrong template raises, it
        cannot recurse or hang.  fuel, the fuel of the straightening call
        that asks first, bounds the build's rule calls; a build that runs
        out raises CapExceeded and stores nothing.
        """
        if self.normal is None:
            leaves = _heap_pass(_canonical(zip(*self.key)), 1, _StepRule(), fuel)
            self.normal = _relabellers((coef, *pair) for pair, coef in leaves.items())
        return self.normal


@functools.cache
def _template(key):
    """The entry of a rank key, for the process: the key holds no letter, n, mode or domain.

    The one table of both rewrites of a rank key (_Template): the one-step
    rewrite and the block's GL normal form, which is what a GL step of the
    engine splices.
    """
    return _Template(key)


def mead_step(left: Tableau, right: Tableau, c: int) -> list[BidetTerm]:
    """Apply the two-column rewrite to columns (c, c+1) and reassemble in canonical order."""
    pair = left.columns(), right.columns()
    return _bidet_terms(((coef, *child) for coef, child, _ in splice_block(
        *pair, _measure_key(pair), c, c + 1, _template_rewrite)), left.size)


class Rule:
    """The rewrite rule of one straightening call: rule(left, right, key) for run_straightening.

    A side's verdict is its first row violation, Violation("GL", c) with c
    the 1-based column, or else the mode's plug-in verdict scan(cols): in O
    and GO mode the first orthogonal violation of the GL-standard side, and
    none in GL mode, which has no plug-in.  The rule rewrites GL on the
    left, GL on the right, then repairs the left and the right: the repairs
    need GL-standard input.  A GL violation at column c, of either side, is
    rewritten on columns c and c + 1 to the block's GL normal form
    (_normal_form): the two-column block straightened until both of its
    sides are GL-standard, spliced in one step.  A plug-in verdict is
    rewritten on columns 1 and b, with b the column of an OS3 pair row and 2
    otherwise; repair(verdict, s_cols, t_cols) gives the terms of that
    two-column block.  splice_block always works in the pair's own
    orientation: a right plug-in verdict's repair sees (right block, left
    block), as [S:T](g) = [T:S](g^t) and transposition preserves GL, O and
    GO, and its terms are swapped back (_swapped).  One call builds one
    rule, which holds the call's verdicts, one per column tuple, and the
    call's fuel, which bounds each normal form the rule builds; the
    templates are process-wide.
    """

    def __init__(self, scan=None, repair=None, fuel: int = FUEL):
        self.scan, self.repair, self.fuel = scan, repair, fuel
        self.verdicts: dict = {}

    def verdict(self, cols):
        """The first violation of a column tuple, or None when it is standard."""
        try:
            return self.verdicts[cols]
        except KeyError:
            c = row_violation_column(cols)
            v = self.verdicts[cols] = (Violation("GL", c + 1) if c is not None
                                       else self.scan and self.scan(cols))
            return v

    def __call__(self, left, right, key):
        vl = self.verdict(left)
        if vl is None or vl.kind != "GL":
            vr = self.verdict(right)
            if vr is not None and (vr.kind == "GL" or vl is None):
                return vr.kind, vr.witness, splice_block(left, right, key, *self._block(vr, True))
        return vl and (vl.kind, vl.witness,
                       splice_block(left, right, key, *self._block(vl, False)))

    def _block(self, v, right: bool):
        """The columns i < j a verdict of the left or right side names, and the block's rewrite."""
        if v.kind == "GL":
            return v.witness - 1, v.witness, functools.partial(_normal_form, self.fuel)
        repair = functools.partial(self.repair, v)
        return 0, (v.column if v.kind == "OS3" else 2) - 1, _swapped(repair) if right else repair


class _StepRule(Rule):
    """The GL rule with one two-column rewrite per call: the rule that builds a normal form."""

    def _block(self, v, right: bool):
        rewrite = _template_rewrite
        return v.witness - 1, v.witness, _swapped(rewrite) if right else rewrite


def _swapped(rewrite):
    """A right side's block rewrite: rewrite of (right block, left block), terms swapped back."""
    return lambda s_cols, t_cols: [(coef, s, t) for coef, t, s in rewrite(t_cols, s_cols)]


def run_straightening(s: Tableau, t: Tableau, rule, fuel: int,
                      trace: list | None = None) -> Combination:
    """Rewrite [S:T] by a rule until only standard terms remain.

    The heap loop (_heap_pass) runs on the canonical column pair of [S:T],
    and only its standard leaves become tableaux, with the gamma power of
    their size drop from the root (_bidet_terms).  With the engine's rule, a
    GL step rewrites a two-column block to its GL normal form in one rule
    call (Rule).
    """
    sign, left, right = normal_columns(s.columns(), t.columns())
    if sign == 0:
        return Combination()
    leaves = _heap_pass(_canonical(zip(left, right)), sign, rule, fuel, trace)
    return Combination(_bidet_terms(((w, *pair) for pair, w in leaves.items()), s.size))


def _heap_pass(root, coef, rule, fuel: int, trace: list | None = None) -> dict:
    """The standard leaves of coef times a canonical column pair: {pair: coefficient}.

    The pairs are canonical column tuples (_canonical), of letters or of
    plain ints.  rule(left, right, key), with key the pair's measure key
    (_measure_key), is None for a standard pair, else (kind, witness,
    terms): one rewrite at unit coefficient, with terms (coef, (left
    columns, right columns), term key) and coefficients in Z[1/2].  Each
    term's key is computed once, where it is checked against key
    (splice_block), and the pair is pushed on a heap with it.  The pairs
    leave the heap in increasing measure, after every pair that rewrites to
    them, so each leaves with its final coefficient: it is expanded once, or
    never when that is 0.  A key determines its pair, so a term handed back
    with another pair's key, a stale one, is caught as it leaves: that key
    leaves twice, and the second time it is not above the last key taken.
    No graph is stored.  Every pending and leaf weight is an int w standing
    for w / 2^exp, with one exponent for the whole pass, starting at 0: a
    coefficient a / 2^h adds weight * a / 2^h, and only when that division
    is not exact are all weights doubled and exp raised by one.  The leaves
    become rationals once at the end, and stay ints when exp is 0, as it
    always is in GL mode.  fuel bounds the number of rule calls of this
    pass; a normal form the rule builds is a pass of its own, which the
    rule bounds with its own fuel (Rule) and does not trace.  trace, when
    given, gets (kind, witness, term count) for each pair rewritten.
    """
    weights = {root: coef}
    heap = [(_measure_key(root), root)]
    last = ()                 # the key that left the heap last; () is below every key
    leaves = {}
    exp = 0
    while heap:
        key, pair = heapq.heappop(heap)
        if not last < key:
            raise AssertionError("rewrite did not rise in the measure")
        last = key
        weight = weights.pop(pair)
        if not weight:
            continue
        if fuel <= 0:
            raise CapExceeded("straightening fuel exhausted")
        fuel -= 1
        step = rule(*pair, key)
        if step is None:
            leaves[pair] = weight
            continue
        if trace is not None:
            trace.append((step[0], step[1], len(step[2])))
        for coef, child, child_key in step[2]:
            if type(coef) is int:
                add = weight * coef
            else:
                num, den = coef.numerator, coef.denominator
                if den & (den - 1):
                    raise AssertionError(f"rewrite coefficient {coef} left Z[1/2]")
                while weight * num % den:
                    exp += 1
                    weight *= 2
                    for held in (weights, leaves):
                        for k in held:
                            held[k] *= 2
                add = weight * num // den
            held = weights.get(child)
            if held is None:
                heapq.heappush(heap, (child_key, child))
                weights[child] = add
            else:
                weights[child] = held + add
    if exp:
        leaves = {pair: polyring.rational(w, 2 ** exp) for pair, w in leaves.items()}
    return leaves


def _check_input(s: Tableau, t: Tableau, n: int):
    """The input check of both straightening calls: one shape, at most n rows, alphabet(n)."""
    if len(s.shape) > n or len(t.shape) > n:
        raise DomainError(f"more than {n} rows")
    if s.shape != t.shape:
        raise DomainError("shape mismatch")
    for col in (*s.columns(), *t.columns()):
        for x in col:
            if not letter_in_alphabet(x, n):
                raise DomainError(f"letter {x} outside the alphabet of size {n}")


def gl_straighten(s: Tableau, t: Tableau, n: int, fuel: int = FUEL,
                  trace: list | None = None) -> Combination:
    """Express [S:T] in the basis of GL(n)-standard bideterminants.

    The result is an exact identity in the polynomial ring; coefficients
    are sums of signs, hence integers valid over any coefficient ring.
    Each term keeps the letters of each input side.
    """
    _check_input(s, t, n)
    out = run_straightening(s, t, Rule(fuel=fuel), fuel, trace)
    _check_output(out, s, t, n)
    return out


def _check_output(out: Combination, s: Tableau, t: Tableau, n: int, orthogonal: bool = False):
    """Each distinct side of the output is standard and keeps its input side's invariant.

    The scan is fresh, not the rule's verdicts, which made each leaf a leaf.
    Every rewrite is an identity of torus weight vectors, so the invariant is
    the letter content in GL and the O(n) torus weight in O and GO (orthogonal).
    """
    invariant, name = ((sparse_torus_weight, "torus weight") if orthogonal
                       else (_content, "letter content"))
    terms = out.unsorted()
    for side, tableaux in ((s, dict.fromkeys(x.left for x in terms)),
                           (t, dict.fromkeys(x.right for x in terms))):
        want = invariant(side.columns())
        for tab in tableaux:
            cols = tab.columns()
            if not _gl_standard(cols, n) or (
                    orthogonal and next(orthogonal_violations(cols, n), None) is not None):
                raise AssertionError("non-standard tableau in output")
            if invariant(cols) != want:
                raise AssertionError(f"output term changed the {name}")


# the largest expansion verify_gl proves by polynomial equality, in monomials
GL_SYMBOLIC_MONOMIALS = 20000


def verify_gl(comb: Combination, n: int, num_points: int, seed: int = 1) -> tuple[str, bool]:
    """Whether a gamma-free combination over alphabet(n) is zero in Z[X], where GL identities hold.

    No group relation may be used: points of O(n) cannot see an error that
    lies in the ideal of O(n).  When the expansion has at most
    GL_SYMBOLIC_MONOMIALS monomials (a column of length k has k! of them)
    it is compared with the zero polynomial, which proves the identity.
    Otherwise it is evaluated at num_points seeded integer matrices with
    entries of absolute value at most 2^30 (Schwartz-Zippel: a nonzero
    combination of degree r vanishes at one with probability at most
    r / 2^31).  Only the letters of the combination index the matrices.
    Returns ("polynomial" or "point", whether the check held).
    """
    if any(t.gamma_pow for t in comb):
        raise DomainError("GL identities carry no gamma")
    monomials = sum(math.prod(math.factorial(len(c)) for c in t.left.columns()) for t in comb)
    if monomials <= GL_SYMBOLIC_MONOMIALS:
        return "polynomial", comb.symbolic_poly(n).is_zero()
    letters = {x for t in comb for side in (t.left, t.right) for col in side.columns()
               for x in col}
    # the smallest alphabet holding the letters; the zero letter makes it odd
    size = 2 * max(x.index for x in letters) + (Letter(0) in letters)
    rng = random.Random(seed)
    bound = 2 ** 30
    for _ in range(num_points):
        matrix = polyring.LetterMatrix(size, [
            [rng.randint(-bound, bound) for _ in range(size)] for _ in range(size)])
        if sum(t.coef * polyring.eval_columns_product(t.left.columns(), t.right.columns(), matrix)
               for t in comb):
            return "point", False
    return "point", True


def _content(cols) -> list:
    """The letter multiset of a tableau's columns, as a sorted list."""
    return sorted(itertools.chain.from_iterable(cols))
