"""Straightening as functions on the orthogonal group and its similitudes.

The key tool is a family of relation sums: summing a bideterminant over
stacked rows (i, bar i) with the index running over the alphabet minus a
small excluded set collapses, on the group, to signed lower-degree terms
obtained by deleting paired letters from the right tableau; relation_rhs
gives them as a Combination, with gamma^d on the terms with d pairs deleted.
The three replacement identities repair the orthogonal standardness
conditions with the stacked sum (a replacement term is a stacked term with
its rows permuted), the complementary-minor identity repairs the column
condition, and the driver recurses to a combination of standard terms.
on_straighten runs the engine's one rule (gl_straighten.Rule) and only
plugs in the orthogonal part: the scan of a GL-standard tableau for its
first violation (tableaux.orthogonal_violations) and the terms of its
repair; the rule splices them on the columns the violation names and
checks them against its one measure.  All four repairs are one kernel on
column tuples, _repair_terms, which takes the violation the rule found;
fix_os1/2/3, reduce_tall_shape and relation_rhs are its adapters on
tableaux.

The rules work on the similitude group GO(n): each degree-d collapse
deletes d pairs for gamma^d and the column reduction trades det^2 for
gamma^n, so 2 * gamma_pow + |shape| is the input's size, and the terms
carry no gamma power: it is read off the size drop (_bidet_terms).  O(n)
is the subgroup where gamma = 1, so ON mode is GO mode with every gamma
power set to 0 at the end; by the grading, no two terms merge when it is.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .tableaux import (
    DomainError,
    Letter,
    Tableau,
    _letter_index,
    _letters,
    conjugate,
    on_standard_report,
    orthogonal_violations,
)
from .gl_straighten import (
    FUEL,
    BidetTerm,
    Combination,
    Rule,
    _add_term,
    _bidet_terms,
    _check_input,
    _check_output,
    _in_domain,
    _switch_terms,
    normal_columns,
    run_straightening,
    sort_letters,
)
from .polyring import CoeffDomain, QQ, ZHALF, inversion_sign, rational


ON = "ON"
GO = "GO"


# ---------------------------------------------------------------------------
# relation sums
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RelationSpec:
    """A stacked-row sum: a pairs (i, bar i) atop s0, against the fixed t."""

    s0_col1: tuple[Letter, ...]
    s0_col2: tuple[Letter, ...]
    t: Tableau
    a: int
    excluded: frozenset[Letter]
    n: int

    def __post_init__(self):
        if self.a <= 0:
            raise DomainError("need a positive number of stacked rows")
        if len(self.excluded) >= self.a:
            raise DomainError("the excluded set must be smaller than the stack")
        cols = self.t.columns()
        if len(cols) > 2:
            raise DomainError("relation sums use two-column right tableaux")
        t2 = len(cols[1]) if len(cols) == 2 else 0
        if self.a > t2:
            raise DomainError("stack exceeds the second column of the right tableau")
        shape_left = (self.a + len(self.s0_col1), self.a + len(self.s0_col2))
        t1 = len(cols[0]) if cols else 0
        if shape_left != (t1, t2):
            raise DomainError("stacked shape must match the right tableau")


def _stacked_columns(letters, s0_col1, s0_col2):
    """Raw column lists for the stack of the given letters atop s0."""
    return tuple(letters) + s0_col1, tuple(x.bar() for x in letters) + s0_col2


def _mode_and_domain(comb: Combination, mode: str, domain: CoeffDomain) -> Combination:
    """A combination on GO(n) over Z[1/2] on GO(n), or on O(n) in ON mode, over a domain.

    One pass builds one Combination.  O(n) is where gamma = 1; the grading
    keeps terms of equal tableaux at one gamma power, so setting the powers
    to 0 merges no terms.  Each coefficient is mapped as Combination.reduce
    maps it (_in_domain).
    """
    keep_gamma = mode == GO
    return Combination(BidetTerm(_in_domain(x.coef, domain), x.gamma_pow if keep_gamma else 0,
                                 x.left, x.right) for x in comb.unsorted())


def _selection_sign(total: int, front: list[int]) -> int:
    """Sign of the permutation moving the listed positions to the front."""
    return inversion_sign(list(front) + [i for i in range(total) if i not in front])


def _pair_sign(c1, c2, pairs) -> int:
    """Cofactor sign of deleting the pairs (x in c1, bar x in c2) from the columns c1 and c2.

    The pairs are listed in alphabet order, which is their order down the
    increasing c1: the sign moves them to the front of both columns in
    that order.
    """
    return (_selection_sign(len(c1), [c1.index(x) for x in pairs])
            * _selection_sign(len(c2), [c2.index(x.bar()) for x in pairs]))


def relation_rhs(spec: RelationSpec) -> Combination:
    """The collapsed form of the relation sum: gamma^d times the terms with d pairs deleted."""
    return Combination(_bidet_terms(_collapsed_terms(
        spec.s0_col1, spec.s0_col2, spec.t.columns(), spec.a, spec.excluded), spec.t.size))


def _collapsed_terms(s0_col1, s0_col2, t_cols, a: int, excluded):
    """relation_rhs on column tuples: (coef, left, right) normalized, unmerged.

    t_cols are the two columns of the right tableau; a term with d pairs
    deleted is 2d smaller than the sum, which gives it gamma^d.
    """
    t1, t2 = t_cols
    pairs = sorted(x for x in t1 if x.bar() in t2)
    allowed = sorted(excluded)
    # the excluded set is smaller than the stack, so at least one pair goes
    for d in range(a - len(allowed), a + 1):
        base_sign = -1 if (a - d) % 2 else 1
        for combo in itertools.combinations(pairs, d):
            bars = {x.bar() for x in combo}
            right_cols = (tuple(x for x in t1 if x not in combo),
                          tuple(x for x in t2 if x not in bars))
            sign = base_sign * _pair_sign(t1, t2, combo)
            for stack in itertools.combinations(allowed, a - d):
                sorting, left, right = normal_columns(
                    _stacked_columns(stack, s0_col1, s0_col2), right_cols)
                if sorting:
                    yield sign * sorting, left, right


def relation_lhs_terms(spec: RelationSpec):
    """The raw sum side: one stacked column pair per increasing tuple."""
    letters = [x for x in _letters(spec.n) if x not in spec.excluded]
    for tup in itertools.combinations(letters, spec.a):
        yield _stacked_columns(tup, spec.s0_col1, spec.s0_col2)


def verify_relation(spec: RelationSpec, points) -> bool:
    """Exact check that the sum collapses as claimed at each group point.

    The sum side is built from the raw stacked columns, without sorting,
    and the residual sum - relation_rhs(spec) must have integer value 0.
    """
    lhs = Combination(BidetTerm(1, 0, Tableau.from_columns(cols), spec.t)
                      for cols in relation_lhs_terms(spec))
    residual = lhs - relation_rhs(spec)
    return all(residual.integer_value(point) == 0 for point in points)


# ---------------------------------------------------------------------------
# one-column complements and the column condition
# ---------------------------------------------------------------------------

def one_column_complement(s_col, t_col, n: int):
    """Rewrite a single-column bideterminant through its complement.

    Returns (sign, s_bar, t_bar) with [S:T] = sign * det * [s_bar : t_bar]
    as functions on the orthogonal group; on similitudes the right side
    additionally carries gamma^(k - n).  The sign comes from the
    complementary-minor identity for the inverse g^{-1} = J g^t J.
    """
    s_col, t_col = list(s_col), list(t_col)
    if len(s_col) != len(t_col):
        raise DomainError("columns must have equal length")
    if len(set(s_col)) < len(s_col) or len(set(t_col)) < len(t_col):
        raise DomainError("columns must not repeat letters")
    position = _letter_index(n)
    for x in s_col + t_col:
        if x not in position:
            raise DomainError(f"letter {x} is not in the alphabet of size {n}")
    sign_s, s_sorted = sort_letters(s_col)
    sign_t, t_sorted = sort_letters(t_col)

    def complement(sorted_col):
        # both complements hold n - k letters, so 0-based positions give the same parity
        inside = set(sorted_col)
        comp = [x for x in position if x not in inside]
        bar_sign, bars_sorted = sort_letters([x.bar() for x in comp])
        return sum(position[x] for x in comp), bar_sign, bars_sorted

    pos_s, bar_sign_s, s_bar = complement(s_sorted)
    pos_t, bar_sign_t, t_bar = complement(t_sorted)
    eps = sign_s * sign_t * bar_sign_s * bar_sign_t
    if (pos_s + pos_t) % 2:
        eps = -eps
    return eps, s_bar, t_bar


def reduce_tall_shape(s: Tableau, t: Tableau, mode: str, n: int) -> BidetTerm:
    """Trade a two-column pair with overlong columns for its complements.

    Requires conj[0] + conj[1] > n.  The det^2 factor disappears on the
    orthogonal group and becomes gamma^n on similitudes, so in GO mode the
    output carries gamma_pow = conj[0] + conj[1] - n.
    """
    _require_mode(mode)
    if s.shape != t.shape:
        raise DomainError("shape mismatch")
    if len(s.columns()) != 2:
        raise DomainError("two-column tableaux required")
    conj = conjugate(s.shape)
    if conj[0] + conj[1] <= n:
        raise DomainError("column condition already holds")
    (term,) = _bidet_terms(_repair_terms("COLSUM", 0, s.columns(), t.columns(), n), s.size)
    return term if mode == GO else BidetTerm(term.coef, 0, term.left, term.right)


# ---------------------------------------------------------------------------
# the replacement machinery behind the three standardness repairs
# ---------------------------------------------------------------------------

def _pair_context(c1, c2, j: int, dropped: Letter | None):
    """The replacement sum of S = (c1, c2) at index j as a stacked relation sum.

    Returns (pairs, excluded, sign, s0_col1, s0_col2): the stack of pairs
    atop s0 is S with its rows permuted, and each in-place term of the
    replacement sum is sign times its stacked term.
    """
    small = _letters(2 * j)          # the letters up to j
    in1, in2 = set(c1), set(c2)
    pairs = tuple(x for x in small if x in in1 and x.bar() in in2)
    if not pairs:
        raise DomainError("no replaceable pairs below the witness index")
    excluded = {x for x in small if x not in in1 and x.bar() not in in2}
    if dropped is not None:
        if dropped not in excluded:
            raise DomainError(f"{dropped} is not among the absent letters")
        excluded.discard(dropped)
    if len(excluded) >= len(pairs):
        raise DomainError("replacement sum needs more pairs than exclusions")
    bars = {x.bar() for x in pairs}
    sign = _pair_sign(c1, c2, pairs)
    s0_col1 = tuple(x for x in c1 if x not in pairs)
    s0_col2 = tuple(x for x in c2 if x not in bars)
    return pairs, excluded, sign, s0_col1, s0_col2


def _repair_terms(kind: str, j: int, s_cols, t_cols, n: int) -> list:
    """The COLSUM, OS1, OS2 or OS3 repair of the two-column pair [S:T] on GO(n).

    S and T are given by their (two) column tuples, and S has the violation
    of this kind at index j, as found by the caller; nothing is rescanned.
    The terms come as (coef, left columns, right columns), merged, with
    coefficients in Z[1/2].  Every block is normalized, as splice_block
    requires: strictly increasing columns, lengths that do not increase,
    and no empty column.

    COLSUM trades both columns for their complements.  The other three solve
    the replacement sum: [S:T] + lam = sign * relation_rhs, with lam the
    other same-shape stacked terms.  They differ in the absent letter the
    sum leaves out (none, bar j, j) and in the switch step that solves OS3.
    """
    (s1, s2), (t1, t2) = s_cols, t_cols
    if kind == "COLSUM":
        e1, s1_bar, t1_bar = one_column_complement(s1, t1, n)
        e2, s2_bar, t2_bar = one_column_complement(s2, t2, n)
        return [(e1 * e2, tuple(filter(None, (s2_bar, s1_bar))),
                 tuple(filter(None, (t2_bar, t1_bar))))]

    dropped = {"OS1": None, "OS2": Letter(j).bar(), "OS3": Letter(j)}[kind]
    pairs, excluded, sign, s0_col1, s0_col2 = _pair_context(s1, s2, j, dropped)
    terms: dict = {}
    # -lam; a stacked letter already in s0 repeats, so its terms vanish
    letters = [x for x in _letters(n) if x not in excluded
               and x not in s0_col1 and x.bar() not in s0_col2]
    identity_seen = False
    for stack in itertools.combinations(letters, len(pairs)):
        if stack == pairs:
            identity_seen = True
            continue
        # the stack's columns have S's lengths and T is normalized, so
        # normal_columns would reorder nothing: sorting the two is enough
        c1, c2 = _stacked_columns(stack, s0_col1, s0_col2)
        sign1, c1 = sort_letters(c1)
        sign2, c2 = sort_letters(c2)
        if sign1 and sign2:
            _add_term(terms, ((c1, c2), t_cols), -sign * sign1 * sign2)
    if not identity_seen:
        raise AssertionError("replacement sum lost the identity term")
    for coef, left, right in _collapsed_terms(s0_col1, s0_col2, t_cols, len(pairs), excluded):
        _add_term(terms, (left, right), sign * coef)

    if kind == "OS3":
        # the switched tableau: the row of (bar j, j) with the pair reversed
        star, switch = _switch_terms(s_cols, t_cols, s1.index(Letter(j).bar()) + 1)
        # every collapsed term is smaller than S, so the terms of S's size are -lam
        if terms.get((star, t_cols)) != -1:
            raise AssertionError("replacement sum lost the switched term")
        # [S:T] + [S*:T] + s3 = sign * rhs  and  [S*:T] - [S:T] = switch
        # combine to 2 [S:T] = sign * rhs - s3 - switch, with s3 = lam - [S*:T]
        _add_term(terms, (star, t_cols), 1)
        for key, coef in switch.items():
            _add_term(terms, key, -coef)
        terms = {key: rational(coef, 2) for key, coef in terms.items()}

    for coef in terms.values():
        if not ZHALF.validate(coef):
            raise AssertionError(f"coefficient {coef} left the domain")
    return [(coef, left, right) for (left, right), coef in terms.items()]


def _repair(s: Tableau, t: Tableau, kind: str, j: int, n: int | None) -> Combination:
    """The OS1, OS2 or OS3 repair of a two-column pair at index j, on GO(n) over Z[1/2]."""
    n = _require_n(n)
    if not any(v.kind == kind and v.witness == j and (kind != "OS3" or v.column == 2)
               for v in on_standard_report(s, n).violations):
        what = {"OS1": "count", "OS2": "protection", "OS3": "pair-row"}[kind]
        raise DomainError(f"no {what} violation at index {j}")
    if s.shape != t.shape or len(s.columns()) != 2:
        raise DomainError("two-column tableaux of one shape required")
    return Combination(_bidet_terms(_repair_terms(kind, j, s.columns(), t.columns(), n),
                                    s.size))


def fix_os1(s: Tableau, t: Tableau, j: int, mode: str = ON,
            n: int | None = None, domain: CoeffDomain = QQ) -> Combination:
    """Repair a count violation (more than 2j small entries in the columns)."""
    _require_mode(mode)
    return _mode_and_domain(_repair(s, t, "OS1", j, n), mode, domain)


def fix_os2(s: Tableau, t: Tableau, j: int, mode: str = ON,
            n: int | None = None, domain: CoeffDomain = QQ) -> Combination:
    """Repair an unprotected entry in the first column (strict count case)."""
    _require_mode(mode)
    return _mode_and_domain(_repair(s, t, "OS2", j, n), mode, domain)


def fix_os3(s: Tableau, t: Tableau, j: int, mode: str = ON,
            n: int | None = None, domain: CoeffDomain = QQ) -> Combination:
    """Repair an unprotected pair row (equal count case); needs 1/2."""
    _require_mode(mode)
    return _mode_and_domain(_repair(s, t, "OS3", j, n), mode, domain)


def _require_mode(mode):
    if mode not in (ON, GO):
        raise DomainError(f"unknown mode {mode!r}")


def _require_n(n):
    if n is None:
        raise DomainError("the alphabet size n is required")
    if n < 3:
        raise DomainError("orthogonal work needs n >= 3")
    return n


# ---------------------------------------------------------------------------
# the full driver
# ---------------------------------------------------------------------------

def on_straighten(s: Tableau, t: Tableau, mode: str = ON, n: int | None = None,
                  domain: CoeffDomain = QQ, fuel: int = FUEL,
                  trace: list | None = None) -> Combination:
    """Express [S:T] on the group in the standard-bideterminant basis.

    The output is a combination with every left and right tableau standard;
    in GO mode the terms carry gamma powers with 2 * gamma_pow + |shape|
    equal to the input degree, and each term keeps the input's torus
    weight on both sides.  Identity holds as functions on the group.
    The rewrite runs on GO(n) over Z[1/2]; the result is restricted to O(n)
    in ON mode and mapped to the domain once.
    """
    n = _require_n(n)
    _require_mode(mode)
    _check_input(s, t, n)
    # the plug-in: each GL-standard tableau's first orthogonal violation,
    # from a scan that builds nothing of size n, and its repair over Z[1/2]
    rule = Rule(lambda cols: next(orthogonal_violations(cols, n), None),
                lambda v, s_cols, t_cols: _repair_terms(v.kind, v.witness, s_cols, t_cols, n),
                fuel)
    out = _mode_and_domain(run_straightening(s, t, rule, fuel, trace), mode, domain)
    _check_output(out, s, t, n, orthogonal=True)
    return out

