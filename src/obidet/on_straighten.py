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

The rules work on the similitude group GO(n): each degree-d collapse
carries a factor gamma^d and the column reduction trades det^2 for gamma^n,
so every rewrite keeps 2 * gamma_pow + |shape| fixed.  O(n) is the subgroup
where gamma = 1, so ON mode is GO mode with every gamma power set to 0 at
the end; by the grading, no two terms merge when it is.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .tableaux import (
    DomainError,
    Letter,
    Tableau,
    _letters,
    conjugate,
    delete_pair,
    letter_in_alphabet,
    on_standard_report,
    occurring_pairs,
    tableau_prec_cmp,
    torus_weight,
)
from .gl_straighten import (
    BidetTerm,
    Combination,
    _column_profile,
    _gl_rule,
    inversion_sign,
    normalize_pair,
    on_right,
    one_switch_expand,
    run_straightening,
    single_term,
    sort_letters,
    splice_block,
)
from .polyring import CoeffDomain, QQ, ZHALF, rational


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

    def stacked_columns(self, letters):
        """Raw column lists for the stack of the given letters atop s0."""
        col1 = tuple(letters) + self.s0_col1
        col2 = tuple(x.bar() for x in letters) + self.s0_col2
        return col1, col2


def _at_mode(comb: Combination, mode: str) -> Combination:
    """A combination on GO(n) as functions on GO(n), or on O(n) in ON mode.

    O(n) is where gamma = 1; the grading keeps terms of equal tableaux at one
    gamma power, so setting the powers to 0 merges no terms.
    """
    if mode == GO:
        return comb
    return Combination(BidetTerm(x.coef, 0, x.left, x.right) for x in comb)


def _pair_deletion_sign(t: Tableau, pair_set) -> int:
    """Cofactor sign of deleting the pairs from the two columns.

    Fixing each deleted letter at its column position contributes the usual
    cofactor parity; the first-column positions are taken in increasing
    order, so the partner positions additionally contribute their inversion
    count.  (The sign is +1 exactly when the pairs sit at aligned positions,
    which is the only case exercised by the usual textbook displays.)
    """
    cols = t.columns()
    c1, c2 = list(cols[0]), list(cols[1])
    ordered = sorted(pair_set, key=lambda x: c1.index(x))
    p_positions = [c1.index(x) + 1 for x in ordered]
    q_positions = [c2.index(x.bar()) + 1 for x in ordered]
    total = sum(p_positions) + sum(q_positions)
    return (-1 if total % 2 else 1) * inversion_sign(q_positions)


def relation_rhs(spec: RelationSpec) -> Combination:
    """The collapsed form of the relation sum: gamma^d times the terms with d pairs deleted."""
    pairs = occurring_pairs(spec.t)
    allowed = sorted(spec.excluded)
    terms = []
    # the excluded set is smaller than the stack, so at least one pair goes
    for d in range(spec.a - len(allowed), spec.a + 1):
        base_sign = -1 if (spec.a - d) % 2 else 1
        for combo in itertools.combinations(pairs, d):
            right_cols = delete_pair(spec.t, *combo).columns()
            sign = base_sign * _pair_deletion_sign(spec.t, combo)
            for stack in itertools.combinations(allowed, spec.a - d):
                sorting, left, right = normalize_pair(spec.stacked_columns(stack), right_cols)
                if sorting:
                    terms.append(BidetTerm(sign * sorting, d, left, right))
    return Combination(terms)


def relation_lhs_terms(spec: RelationSpec):
    """The raw sum side: one stacked column pair per increasing tuple."""
    letters = [x for x in _letters(spec.n) if x not in spec.excluded]
    for tup in itertools.combinations(letters, spec.a):
        yield spec.stacked_columns(tup)


def verify_relation(spec: RelationSpec, points) -> bool:
    """Exact check that the sum collapses as claimed at each group point.

    The sum side is evaluated from the raw stacked columns, without sorting,
    by the point's integer minors: both sides are compared as d^r times
    their values, r the largest degree in play.
    """
    rhs = relation_rhs(spec)
    t_cols = spec.t.columns()
    lhs = list(relation_lhs_terms(spec))
    r = max(spec.t.size, rhs.degree())
    return all(
        sum(point.minor_product(left_cols, t_cols) for left_cols in lhs)
        * point.denominator ** (r - spec.t.size) == rhs.scaled_value(point, r)
        for point in points)


# ---------------------------------------------------------------------------
# one-column complements and the column condition
# ---------------------------------------------------------------------------

def _selection_sign(total: int, front: list[int]) -> int:
    """Sign of the permutation moving the listed positions to the front."""
    return inversion_sign(list(front) + [i for i in range(total) if i not in set(front)])


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
    letters = _letters(n)
    for x in s_col + t_col:
        if x not in letters:
            raise DomainError(f"letter {x} is not in the alphabet of size {n}")
    sign_s, s_sorted = sort_letters(s_col)
    sign_t, t_sorted = sort_letters(t_col)
    position = {x: i + 1 for i, x in enumerate(letters)}

    def complement(sorted_col):
        inside = set(sorted_col)
        comp = [x for x in letters if x not in inside]
        pos_sum = sum(position[x] for x in comp)
        bars = [x.bar() for x in comp]
        bar_sign, bars_sorted = sort_letters(bars)
        return comp, pos_sum, bar_sign, bars_sorted

    _, pos_s, bar_sign_s, s_bar = complement(s_sorted)
    _, pos_t, bar_sign_t, t_bar = complement(t_sorted)
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
    cols_s, cols_t = s.columns(), t.columns()
    if len(cols_s) != 2:
        raise DomainError("two-column tableaux required")
    conj = conjugate(s.shape)
    if conj[0] + conj[1] <= n:
        raise DomainError("column condition already holds")
    e1, s1_bar, t1_bar = one_column_complement(cols_s[0], cols_t[0], n)
    e2, s2_bar, t2_bar = one_column_complement(cols_s[1], cols_t[1], n)
    left = Tableau.from_columns([s2_bar, s1_bar])
    right = Tableau.from_columns([t2_bar, t1_bar])
    gamma_pow = conj[0] + conj[1] - n if mode == GO else 0
    return BidetTerm(e1 * e2, gamma_pow, left, right)


# ---------------------------------------------------------------------------
# the replacement machinery behind the three standardness repairs
# ---------------------------------------------------------------------------

def _pair_context(s: Tableau, t: Tableau, n: int, j: int,
                  drop_from_excluded: Letter | None):
    """The replacement sum of S at index j as a relation sum against t.

    Returns (spec, pairs, sign): each in-place term of the replacement sum
    is sign times its stacked term in spec, whose rows it permutes.
    """
    cols = s.columns()
    c1 = list(cols[0]) if cols else []
    c2 = list(cols[1]) if len(cols) > 1 else []
    top = Letter(j)
    small = [x for x in _letters(n) if x <= top]
    in1, in2 = set(c1), set(c2)
    pairs = [x for x in small if x in in1 and x.bar() in in2]
    if not pairs:
        raise DomainError("no replaceable pairs below the witness index")
    excluded = {x for x in small if x not in in1 and x.bar() not in in2}
    if drop_from_excluded is not None:
        if drop_from_excluded not in excluded:
            raise DomainError(f"{drop_from_excluded} is not among the absent letters")
        excluded.discard(drop_from_excluded)
    if len(excluded) >= len(pairs):
        raise DomainError("replacement sum needs more pairs than exclusions")
    col1_positions = sorted(c1.index(x) for x in pairs)
    # pair values increase down the strictly increasing first column
    ordered_values = tuple(c1[p] for p in col1_positions)
    col2_positions = [c2.index(x.bar()) for x in ordered_values]
    sign = _selection_sign(len(c1), col1_positions) * _selection_sign(len(c2), col2_positions)
    s0_col1 = tuple(x for i, x in enumerate(c1) if i not in set(col1_positions))
    s0_col2 = tuple(x for i, x in enumerate(c2) if i not in set(col2_positions))
    spec = RelationSpec(s0_col1, s0_col2, t, len(pairs), frozenset(excluded), n)
    return spec, ordered_values, sign


def _replacement_fix(s: Tableau, t: Tableau, n: int, j: int,
                     drop_from_excluded: Letter | None):
    """Solve the replacement sum for [S:T].

    The in-place sum is sign times the stacked relation sum, so
    [S:T] + lam = sign * relation_rhs, where lam holds the other same-shape
    terms.  Returns ([S:T] on the group, lam).
    """
    spec, pairs, sign = _pair_context(s, t, n, j, drop_from_excluded)
    lam_terms = []
    identity_seen = False
    for left_cols in relation_lhs_terms(spec):
        if left_cols[0][:spec.a] == pairs:
            identity_seen = True
            continue
        sorting, left, right = normalize_pair(left_cols, t.columns())
        if sorting:
            lam_terms.append(BidetTerm(sign * sorting, 0, left, right))
    if not identity_seen:
        raise AssertionError("replacement sum lost the identity term")
    lam = Combination(lam_terms)
    return relation_rhs(spec).scale(sign) - lam, lam


def _repair(s: Tableau, t: Tableau, kind: str, j: int, n: int | None,
            domain: CoeffDomain) -> Combination:
    """The OS1, OS2 or OS3 repair of a two-column pair at index j, on GO(n).

    The three differ in the violation they need, in the absent letter the
    replacement sum leaves out (none, bar j, j) and in the switch step that
    solves OS3.
    """
    n = _require_n(n)
    if not any(v.kind == kind and v.witness == j and (kind != "OS3" or v.column == 2)
               for v in on_standard_report(s, n).violations):
        what = {"OS1": "count", "OS2": "protection", "OS3": "pair-row"}[kind]
        raise DomainError(f"no {what} violation at index {j}")
    dropped = {"OS1": None, "OS2": Letter(j).bar(), "OS3": Letter(j)}[kind]
    out, lam = _replacement_fix(s, t, n, j, dropped)
    if kind != "OS3":
        return out.reduce(domain)

    # the switched tableau: the row of (bar j, j) with the pair reversed
    cols = s.columns()
    row = cols[0].index(Letter(j).bar()) + 1
    if cols[1][row - 1] != Letter(j):
        raise AssertionError("pair row lost")
    switch = one_switch_expand(s, t, row)

    c1 = list(cols[0])
    c2 = list(cols[1])
    c1[row - 1], c2[row - 1] = Letter(j), Letter(j).bar()
    star = Tableau.from_columns([c1, c2])
    if lam.coefficient(star, t) != 1:
        raise AssertionError("replacement sum lost the switched term")

    # [S:T] + [S*:T] + s3 = sign * rhs  and  [S*:T] - [S:T] = switch
    # combine to 2 [S:T] = sign * rhs - s3 - switch, with s3 = lam - [S*:T]
    doubled = out + single_term(star, t) - switch
    return doubled.scale(rational(1, 2)).reduce(domain)


def fix_os1(s: Tableau, t: Tableau, j: int, mode: str = ON,
            n: int | None = None, domain: CoeffDomain = QQ) -> Combination:
    """Repair a count violation (more than 2j small entries in the columns)."""
    _require_mode(mode)
    return _at_mode(_repair(s, t, "OS1", j, n, domain), mode)


def fix_os2(s: Tableau, t: Tableau, j: int, mode: str = ON,
            n: int | None = None, domain: CoeffDomain = QQ) -> Combination:
    """Repair an unprotected entry in the first column (strict count case)."""
    _require_mode(mode)
    return _at_mode(_repair(s, t, "OS2", j, n, domain), mode)


def fix_os3(s: Tableau, t: Tableau, j: int, mode: str = ON,
            n: int | None = None, domain: CoeffDomain = QQ) -> Combination:
    """Repair an unprotected pair row (equal count case); needs 1/2."""
    _require_mode(mode)
    return _at_mode(_repair(s, t, "OS3", j, n, domain), mode)


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
                  domain: CoeffDomain = QQ, fuel: int = 500000,
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
    if len(s.shape) > n or len(t.shape) > n:
        raise DomainError(f"more than {n} rows")
    if s.shape != t.shape:
        raise DomainError("shape mismatch")
    for col in (*s.columns(), *t.columns()):
        for x in col:
            if not letter_in_alphabet(x, n):
                raise DomainError(f"letter {x} outside the alphabet of size {n}")

    # one standardness verdict per tableau for this call; a verdict is the
    # first violation only, since a report holds two n/2-tuples
    verdicts: dict = {}
    out = run_straightening(s, t, lambda left, right: _one_step(left, right, n, verdicts),
                            fuel, trace)
    for term in out:
        if 2 * term.gamma_pow + term.left.size != s.size:
            raise AssertionError("gamma grading violated")
    out = _at_mode(out, mode).reduce(domain)
    # every rewrite is an identity of weight vectors of the diagonal torus
    weight = (torus_weight(s, n), torus_weight(t, n))
    for term in out:
        if _first_violation(term.left, n, verdicts) is not None:
            raise AssertionError("non-standard left tableau in output")
        if _first_violation(term.right, n, verdicts) is not None:
            raise AssertionError("non-standard right tableau in output")
        if (torus_weight(term.left, n), torus_weight(term.right, n)) != weight:
            raise AssertionError("output term changed the torus weight")
    return out


def _first_violation(t: Tableau, n: int, verdicts: dict):
    """The first O(n)-standardness violation of t, or None; scanned once per verdicts dict."""
    try:
        return verdicts[t]
    except KeyError:
        v = verdicts[t] = next(iter(on_standard_report(t, n).violations), None)
        return v


def _one_step(left: Tableau, right: Tableau, n: int, verdicts: dict):
    """One rewrite of [left : right] on GO(n) at unit coefficient; None when standard.

    The order is GL-left, GL-right, then the orthogonal repairs left and
    right: the repairs need GL-standard input.  verdicts holds the
    standardness verdicts of the tableaux seen so far.
    """
    return (_gl_rule(left, right)
            or _fix_left(left, right, n, verdicts)
            or on_right(_fix_left, left, right, n, verdicts))


def _on_block(repair):
    """A repair of two-column tableaux as a splice_block rewrite of column tuples."""
    def rewrite(s_cols, t_cols):
        return [(x.coef, x.gamma_pow, x.left.columns(), x.right.columns())
                for x in repair(Tableau.from_columns(s_cols), Tableau.from_columns(t_cols))]
    return rewrite


def _fix_left(left: Tableau, right: Tableau, n: int, verdicts: dict):
    """The first orthogonal repair of the left side, or None when it is standard.

    The repair runs on the block of columns 1 and b (b = 2, or the column of
    an OS3 pair row) over Z[1/2], where every repair is an identity.
    """
    v = _first_violation(left, n, verdicts)
    if v is None:
        return None
    if v.kind == "COLSUM":
        def repair(s, t):
            return [reduce_tall_shape(s, t, GO, n)]
    else:
        fix = {"OS1": fix_os1, "OS2": fix_os2, "OS3": fix_os3}[v.kind]

        def repair(s, t):
            return fix(s, t, v.witness, GO, n, ZHALF)
    b = v.column if v.kind == "OS3" else 2
    return v.kind, v.witness, splice_block(left, right, 0, b - 1, _on_block(repair),
                                           _check_repair_measure)


def _check_repair_measure(old: Tableau, new: Tableau):
    """Each repair term must fall in the rewrite measure.

    Either the worked side moves strictly up at fixed shape, or the size
    shrinks (deleted pairs, column reduction), or on the size-preserving
    rebalanced terms of the pair-row repair the column profile grows.
    """
    if new.shape == old.shape:
        if tableau_prec_cmp(old, new) != -1:
            raise AssertionError("same-shape repair did not move up in tableau order")
    elif new.size < old.size:
        return
    elif not (new.size == old.size and _column_profile(new) > _column_profile(old)):
        raise AssertionError("repair changed the shape without falling in measure")
