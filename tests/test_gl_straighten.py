import importlib
import itertools
import random
from fractions import Fraction

import pytest

from obidet.tableaux import (
    DomainError,
    Letter,
    Tableau,
    _letters,
    basic_tableau,
    conjugate,
    enumerate_gl_standard,
    is_gl_standard,
    partitions_of,
    row_violation_column,
    tableau_prec_cmp,
)
from obidet.polyring import Polynomial, QQ, bideterminant, rational
from obidet.gl_straighten import (
    BidetTerm,
    FUEL,
    CapExceeded,
    Combination,
    _bidet_terms,
    _canonical,
    _measure_key,
    _normal_form,
    _template,
    _template_rewrite,
    _two_column_rewrite,
    gl_straighten,
    mead_step,
    normalize_pair,
    run_straightening,
    single_term,
    splice_block,
    term_order,
    two_column_straighten,
    verify_gl,
)
from obidet.group_oracle import _suite_points, verify_on_group
from obidet.on_straighten import ON, _switch_terms, on_straighten
from obidet.golden import GOLDEN_CASES


def L(token):
    return Letter.parse(token)


def random_pair(n, max_size, rng):
    letters = _letters(n)
    shapes = [sh for r in range(1, max_size + 1) for sh in partitions_of(r, max_rows=n)]
    shape = rng.choice(shapes)
    cols = conjugate(shape)

    def make():
        return Tableau.from_columns(
            [sorted(rng.sample(letters, k), key=lambda x: x.key) for k in cols])

    return make(), make()


# ---------------------------------------------------------------------------
# combinations
# ---------------------------------------------------------------------------

def test_combination_merges_and_drops_zero():
    s, t = Tableau.parse("1b"), Tableau.parse("1")
    c = Combination([BidetTerm(1, 0, s, t), BidetTerm(2, 0, s, t)])
    assert [(x.coef, x.gamma_pow, x.left, x.right) for x in c.terms()] == [(3, 0, s, t)]
    assert not c - c.scale(1)


def test_certificate_roundtrip():
    s, t = Tableau.parse("1b 1; 2b"), Tableau.parse("1b 1; 2")
    c = Combination([
        BidetTerm(rational(-3, 2), 1, s, t),
        BidetTerm(rational(2), 0, t, s),
    ])
    again = Combination.parse_certificate(c.certificate())
    assert again == c


def test_certificate_sorted_by_shape_then_order():
    small = single_term(Tableau.parse("1b"), Tableau.parse("1"))
    big = single_term(Tableau.parse("1b 1"), Tableau.parse("1b 1"))
    lines = (big + small).certificate().splitlines()
    assert lines[0].endswith("1b\t1")


# ---------------------------------------------------------------------------
# column sorting
# ---------------------------------------------------------------------------

def test_normalize_pair_already_sorted():
    s, t = Tableau.parse("1b; 1"), Tableau.parse("1; 2b")
    sign, s2, t2 = normalize_pair(s.columns(), t.columns())
    assert (sign, s2, t2) == (1, s, t)


def test_normalize_pair_single_swap():
    s = Tableau.from_columns([[L("2"), L("1b")]])
    t = Tableau.from_columns([[L("1"), L("2")]])
    sign, s2, t2 = normalize_pair(s.columns(), t.columns())
    assert sign == -1
    assert s2.columns() == ((L("1b"), L("2")),)


def test_normalize_pair_repeat_vanishes():
    s = Tableau.from_columns([[L("1"), L("1")]])
    t = Tableau.from_columns([[L("1"), L("2")]])
    assert normalize_pair(s.columns(), t.columns())[0] == 0


def test_normalize_pair_reorders_columns_by_length():
    sign, left, right = normalize_pair(
        [[L("1")], [L("1b"), L("2b")]],
        [[L("2")], [L("1"), L("2")]],
    )
    assert sign == 1
    assert left.shape == (2, 1)
    assert left.columns()[0] == (L("1b"), L("2b"))


# ---------------------------------------------------------------------------
# the two-column rewrite
# ---------------------------------------------------------------------------

GL_CASE = GOLDEN_CASES[0]


def test_two_column_golden_case():
    s, t = GL_CASE.inputs()
    row, head, drop = two_column_straighten(s, t)
    assert row == 2
    assert head + drop == GL_CASE.expected()


def test_two_column_symbolic_identity():
    s, t = GL_CASE.inputs()
    _, head, drop = two_column_straighten(s, t)
    assert (head + drop).symbolic_poly(6) == bideterminant(s, t)


def test_two_column_heads_rise_in_order():
    s, t = GL_CASE.inputs()
    _, head, _ = two_column_straighten(s, t)
    for term in head:
        assert term.left.shape == s.shape
        assert tableau_prec_cmp(s, term.left) == -1


def test_two_column_drop_vanishes_for_basic_right():
    s, _ = GL_CASE.inputs()
    t = basic_tableau(s.shape, 6)
    _, head, drop = two_column_straighten(s, t)
    assert not drop
    assert head


def test_two_column_head_independent_of_right():
    s, t = GL_CASE.inputs()
    t2 = basic_tableau(s.shape, 6)
    _, head1, _ = two_column_straighten(s, t)
    _, head2, _ = two_column_straighten(s, t2)
    profile1 = sorted((x.left.format(), x.coef) for x in head1)
    profile2 = sorted((x.left.format(), x.coef) for x in head2)
    assert profile1 == profile2


def test_two_column_requires_violation():
    s = Tableau.parse("1b 1; 1 2")
    with pytest.raises(DomainError):
        two_column_straighten(s, s)


def test_two_column_requires_sorted_columns():
    s = Tableau.from_columns([[L("2"), L("1")], [L("1b")]])
    t = Tableau.from_columns([[L("1b"), L("1")], [L("2")]])
    with pytest.raises(DomainError):
        two_column_straighten(s, t)


def test_two_column_random_symbolic():
    rng = random.Random(10)
    count = 0
    while count < 20:
        n = rng.choice([3, 4])
        letters = _letters(n)
        k = rng.randint(2, min(4, n))
        ell = rng.randint(1, k)
        s = Tableau.from_columns([
            sorted(rng.sample(letters, k), key=lambda x: x.key),
            sorted(rng.sample(letters, ell), key=lambda x: x.key)])
        t = Tableau.from_columns([
            sorted(rng.sample(letters, k), key=lambda x: x.key),
            sorted(rng.sample(letters, ell), key=lambda x: x.key)])
        if is_gl_standard(s, n):
            continue
        count += 1
        _, head, drop = two_column_straighten(s, t)
        assert (head + drop).symbolic_poly(n) == bideterminant(s, t), (s, t)


def two_column_tableaux(n, max_size):
    """Every column-increasing two-column tableau over the size-n alphabet."""
    letters = _letters(n)
    for k in range(1, n + 1):
        for ell in range(1, min(k, max_size - k) + 1):
            for c1 in itertools.combinations(letters, k):
                for c2 in itertools.combinations(letters, ell):
                    yield Tableau.from_columns([c1, c2])


def as_terms(terms):
    """Kernel terms {(left cols, right cols): coef} as {(left, right): coef}."""
    return {(Tableau.from_columns(left), Tableau.from_columns(right)): coef
            for (left, right), coef in terms.items()}


def combination_terms(comb):
    return {(x.left, x.right): x.coef for x in comb}


def test_column_kernel_matches_two_column_straighten():
    # every two-column left side with a row violation at n = 4, 5 and size
    # <= 6, against itself and a seeded right side of its shape
    rng = random.Random(14)
    cases = 0
    for n in (4, 5):
        by_shape = {}
        for t in two_column_tableaux(n, 6):
            by_shape.setdefault(t.shape, []).append(t)
        for shape, tableaux in by_shape.items():
            for s in tableaux:
                if row_violation_column(s.columns()) is None:
                    continue
                for t in (s, rng.choice(tableaux)):
                    viol, head, drop = two_column_straighten(s, t)
                    k_terms = {(left, right): coef for coef, left, right
                               in _two_column_rewrite(s.columns(), t.columns())}
                    k_viol = next(r for r, (a, b) in enumerate(zip(*s.columns()), start=1)
                                  if a > b)
                    # one map: head and drop share no term
                    assert (k_viol, as_terms(k_terms)) == (
                        viol, combination_terms(head) | combination_terms(drop))
                    assert len(k_terms) == len(head) + len(drop)
                    assert all(x.left.shape == s.shape for x in head)
                    assert not any(x.left.shape == s.shape for x in drop)
                    merged = [(x.coef, x.left.columns(), x.right.columns())
                              for x in head + drop]
                    # the order of a rewrite's terms is no contract
                    assert sorted(_two_column_rewrite(s.columns(), t.columns()),
                                  key=lambda term: term_order(*term[1:])) == merged
                    cases += 1
    assert cases == 386


def random_two_column_blocks(rng, n, count):
    """Seeded two-column pairs (S cols, T cols) at n whose left side has a row violation."""
    letters = _letters(n)
    while count:
        k = rng.randint(1, n)
        ell = rng.randint(1, k)
        s_cols = tuple(tuple(sorted(rng.sample(letters, m))) for m in (k, ell))
        if row_violation_column(s_cols) is None:
            continue
        t_cols = tuple(tuple(sorted(rng.sample(letters, m))) for m in (k, ell))
        count -= 1
        yield s_cols, t_cols


def test_template_rewrite_matches_the_raw_kernel_on_random_blocks():
    # a template is the rewrite of the letters' ranks, relabelled back; the
    # table starts empty at each n and ends smaller than the blocks it served
    rng = random.Random(16)
    for n in (4, 5, 6, 7):
        _template.cache_clear()
        blocks = list(random_two_column_blocks(rng, n, 150))
        for s_cols, t_cols in blocks:
            assert _template_rewrite(s_cols, t_cols) == _two_column_rewrite(
                s_cols, t_cols), (n, s_cols, t_cols)
        assert 0 < _template.cache_info().currsize < len(blocks)


def test_letter_blocks_get_letters_beside_an_equal_int_key():
    # Letter is an int, so a table key of plain ints can equal a letter
    # block; only the rank table is cached, behind the relabelling, so the
    # kernel's callers still get letters back for that block, from the
    # one-step rewrite and from the normal form
    s, t = Tableau.parse("1 1b; 2b 2"), Tableau.parse("1b 1; 2 3b")
    plain = tuple(tuple(tuple(map(int, col)) for col in side.columns()) for side in (s, t))
    assert plain == (s.columns(), t.columns())
    _template(plain).normal_form(FUEL)
    blocks = [(left, right) for _, left, right in _template_rewrite(s.columns(), t.columns())]
    blocks += [(left, right) for _, left, right in _normal_form(FUEL, s.columns(), t.columns())]
    blocks += [(left, right) for _, left, right in _two_column_rewrite(s.columns(), t.columns())]
    _, head, drop = two_column_straighten(s, t)
    terms = [*mead_step(s, t, 0), *head, *drop]
    blocks += [(x.left.columns(), x.right.columns()) for x in terms]
    assert terms
    assert all(type(x) is Letter for block in blocks for side in block for col in side
               for x in col)


def _rank_sides(k, ell):
    """Increasing columns of lengths k and ell whose entries are exactly 0..m-1, for some m."""
    for m in range(1, k + ell + 1):
        for c1 in itertools.combinations(range(m), k):
            for c2 in itertools.combinations(range(m), ell):
                if {*c1, *c2} == set(range(m)):
                    yield c1, c2


def _template_keys(max_size):
    """Every rank key of a two-column block of at most max_size boxes with a left row violation."""
    for size in range(2, max_size + 1):
        for ell in range(1, size // 2 + 1):
            sides = list(_rank_sides(size - ell, ell))
            lefts = [s for s in sides if row_violation_column(s) is not None]
            yield from itertools.product(lefts, sides)


def _normal_form_keys(max_size):
    """Every rank key of a two-column block of at most max_size boxes with a violated side."""
    for size in range(2, max_size + 1):
        for ell in range(1, size // 2 + 1):
            sides = list(_rank_sides(size - ell, ell))
            yield from (key for key in itertools.product(sides, sides)
                        if any(row_violation_column(side) is not None for side in key))


_PROOF_LETTERS = tuple(_letters(10))


def _relabelled_tableau(getters):
    # through the table's own relabellers, as the engine relabels
    return Tableau.from_columns([g(_PROOF_LETTERS) for g in getters])


def _unproved(keys, terms_of):
    """The keys whose terms_of(key), relabelled into letters, is not equal to [S:T] in Z[X]."""
    def tableau(cols):
        return Tableau.from_columns([[_PROOF_LETTERS[r] for r in col] for col in cols])

    wrong = []
    for key in keys:
        total = Polynomial.zero()
        for coef, left, right in terms_of(key):
            total = total + bideterminant(_relabelled_tableau(left),
                                          _relabelled_tableau(right)).scale(coef)
        if total != bideterminant(*map(tableau, key)):
            wrong.append(key)
    return wrong


def _unproved_templates(keys):
    """The keys whose one-step template, relabelled into letters, is not equal to [S:T] in Z[X]."""
    return _unproved(keys, lambda key: _template(key).step)


def _unproved_normal_forms(keys):
    """The keys whose normal form, relabelled into letters, is not equal to [S:T] in Z[X]."""
    return _unproved(keys, lambda key: _template(key).normal_form(FUEL))


def test_every_template_of_at_most_five_boxes_is_proved():
    # a block is its rank key relabelled by a monotone letter map, which is
    # a substitution of variables in Z[X]: so these proofs prove the GL
    # rewrite of every two-column block of at most 5 boxes, at every n
    keys = list(_template_keys(5))
    assert len(keys) == 340
    assert _unproved_templates(keys) == []


def test_template_proof_names_a_perturbed_template(monkeypatch):
    keys = list(_template_keys(5))
    target = keys[-1]

    def perturbed(s_cols, t_cols):
        terms = _two_column_rewrite(s_cols, t_cols)
        if (s_cols, t_cols) == target:
            coef, left, right = terms[0]
            terms[0] = (coef + 1, left, right)
        return terms

    monkeypatch.setattr(importlib.import_module("obidet.gl_straighten"),
                        "_two_column_rewrite", perturbed)
    # the table lives for the process: it is emptied before, so the
    # perturbed rewrite fills it, and after, so no later test reads it
    _template.cache_clear()
    try:
        assert _unproved_templates(keys) == [target]
    finally:
        _template.cache_clear()


def test_every_normal_form_of_at_most_five_boxes_is_proved():
    # the normal form a GL step splices, relabelled through the table's own
    # getters, is the block's bideterminant in Z[X], and both sides of each
    # of its terms are GL-standard: this proves the GL rule on every block
    # of at most 5 boxes with a row violation on either side, at every n
    keys = list(_normal_form_keys(5))
    assert len(keys) == 546
    assert _unproved_normal_forms(keys) == []
    for key in keys:
        for _, left, right in _template(key).normal_form(FUEL):
            assert is_gl_standard(_relabelled_tableau(left), 10), key
            assert is_gl_standard(_relabelled_tableau(right), 10), key


def test_normal_form_proof_names_the_dependents_of_a_perturbed_template(monkeypatch):
    # a wrong one-step template breaks exactly the normal forms whose build
    # reads it, and no other
    gl_module = importlib.import_module("obidet.gl_straighten")
    keys = list(_normal_form_keys(5))
    target = (((0, 3, 4), (1, 2)), ((0, 1, 2), (3, 4)))
    step, read = gl_module._template_rewrite, []

    def perturbed(s_cols, t_cols):
        terms = _two_column_rewrite(s_cols, t_cols)
        if (s_cols, t_cols) == target:
            coef, left, right = terms[0]
            terms[0] = (coef + 1, left, right)
        return terms

    def recording_step(s_cols, t_cols):
        # a build's blocks hold exactly the ranks of its root, so each
        # block is its own rank key
        read.append((s_cols, t_cols))
        return step(s_cols, t_cols)

    monkeypatch.setattr(gl_module, "_two_column_rewrite", perturbed)
    monkeypatch.setattr(gl_module, "_template_rewrite", recording_step)
    _template.cache_clear()
    try:
        dependents = []
        for key in keys:
            read.clear()
            _template(key).normal_form(FUEL)
            if target in read:
                dependents.append(key)
        assert 1 < len(dependents) < len(keys) // 10
        assert _unproved_normal_forms(keys) == dependents
    finally:
        _template.cache_clear()


@pytest.mark.parametrize("looping", ["root", "child"])
def test_a_template_that_returns_its_own_block_is_refused(monkeypatch, looping):
    # a one-step rewrite that hands back its own block, the root's or a
    # later one's, is caught by the measure check of the build's first
    # splice of it: the build neither recurses nor runs on
    key = (((1, 2), (0,)), ((1, 2), (0,)))
    target = key if looping == "root" else (((1, 2), (0,)), ((0, 2), (1,)))

    def looping_rewrite(s_cols, t_cols):
        if (s_cols, t_cols) == target:
            return [(1, s_cols, t_cols)]
        return _two_column_rewrite(s_cols, t_cols)

    monkeypatch.setattr(importlib.import_module("obidet.gl_straighten"),
                        "_two_column_rewrite", looping_rewrite)
    _template.cache_clear()
    try:
        with pytest.raises(AssertionError, match="same-shape rewrite did not move up"):
            _template(key).normal_form(FUEL)
    finally:
        _template.cache_clear()


FUEL_PAIR = Tableau.parse("3 2 1; 3b 2b 1b"), Tableau.parse("1 2 3; 1b 2b 3b")


def test_a_cold_normal_form_build_is_bounded_by_the_callers_fuel():
    # fuel bounds the call's own rule calls and, apart, those of each normal
    # form the call builds: this pair's pass takes 44 rule calls, and one of
    # its builds 51; a build that runs out stores nothing
    _template.cache_clear()
    try:
        with pytest.raises(CapExceeded):
            gl_straighten(*FUEL_PAIR, 7, fuel=50)
        _template.cache_clear()
        cold = gl_straighten(*FUEL_PAIR, 7, fuel=51)
        assert gl_straighten(*FUEL_PAIR, 7, fuel=44) == cold
        with pytest.raises(CapExceeded):
            gl_straighten(*FUEL_PAIR, 7, fuel=43)
    finally:
        _template.cache_clear()


def test_a_fuel_above_the_default_also_bounds_the_builds(monkeypatch):
    # the builds take the caller's fuel, not the default: with the default
    # made too small for any build, a call whose fuel lies above it builds
    # every normal form it needs, in GL and in O mode
    calls = (lambda: gl_straighten(*FUEL_PAIR, 7, fuel=10**6),
             lambda: on_straighten(*FUEL_PAIR, ON, 7, fuel=10**6))
    expected = [straighten() for straighten in calls]
    monkeypatch.setattr(importlib.import_module("obidet.gl_straighten"), "FUEL", 1)
    try:
        for straighten, out in zip(calls, expected):
            _template.cache_clear()
            assert straighten() == out
    finally:
        _template.cache_clear()


def reference_mead_step(left, right, c):
    """The two-column rewrite of columns (c, c+1) spliced back, on tableaux.

    The column pairs of each term are sorted by (-length, left column,
    right column).
    """
    block = [Tableau.from_columns(side.columns()[c:c + 2]) for side in (left, right)]
    _, head, drop = two_column_straighten(*block)
    out = []
    for term in head + drop:
        new_cols = []
        for side, part in ((left, term.left), (right, term.right)):
            cols = list(side.columns())
            cols[c:c + 2] = part.columns()
            new_cols.append(cols)
        sign, new_left, new_right = normalize_pair(*new_cols)
        if sign:
            pairs = sorted(zip(new_left.columns(), new_right.columns()),
                           key=lambda p: (-len(p[0]), p))
            out.append(BidetTerm(term.coef * sign, 0, Tableau.from_columns(p[0] for p in pairs),
                                 Tableau.from_columns(p[1] for p in pairs)))
    return out


def test_mead_step_matches_reference_splice():
    rng = random.Random(15)
    checked = 0
    while checked < 300:
        n = rng.choice([4, 5, 6])
        s, t = random_pair(n, 6, rng)
        c = row_violation_column(s.columns())
        if c is None:
            continue
        # the order of a rewrite's terms is no contract
        assert sorted(mead_step(s, t, c), key=BidetTerm.sort_key) == reference_mead_step(
            s, t, c), (s, t)
        checked += 1


def block_rewrite(*blocks):
    """A two-column rewrite that returns these (left, right) blocks at unit coefficient."""
    return lambda s_cols, t_cols: [(1, left, right) for left, right in blocks]


def splice_first_two(left, right, rewrite):
    """splice_block on columns 0 and 1 of the pair [left : right], under its own key."""
    return splice_block(left, right, _measure_key((left, right)), 0, 1, rewrite)


def spliced(*pairs):
    """The terms splice_block gives for these pairs at unit coefficient, each with its key."""
    return [(1, pair, _measure_key(pair)) for pair in pairs]


def test_splice_block_rejects_a_size_increase():
    # the measure falls in size first: profile (2, 1) -> (2, 1, 1) grows the
    # profile but also the size, so it is no descent
    left = Tableau.parse("1b 2b; 1").columns()
    grown = Tableau.parse("1b 2b 2; 1").columns()
    with pytest.raises(AssertionError, match="without falling in measure"):
        splice_first_two(left, left, block_rewrite((grown, grown)))
    # a size smaller by an even number, or the same size with a larger
    # profile, descends
    for block in (Tableau.parse("1b").columns(), Tableau.parse("1b; 1; 2b").columns()):
        assert splice_first_two(left, left, block_rewrite((block, block))) == spliced(
            (block, block))


def test_splice_block_rejects_an_odd_size_drop():
    # gamma is quadratic in the entries: a term whose size drops by an odd
    # number has no gamma power, so it is no rewrite of GO(n)
    left = Tableau.parse("1b 2b; 1").columns()
    for block in (Tableau.parse("1b; 1").columns(), Tableau.parse("-").columns()):
        with pytest.raises(AssertionError, match="odd number"):
            splice_first_two(left, left, block_rewrite((block, block)))


def test_splice_block_rejects_a_same_shape_term_that_does_not_move_up():
    left = Tableau.parse("1b 1; 2b").columns()
    up = Tableau.parse("1b 2; 2b").columns()
    down = Tableau.parse("1 1b; 2b").columns()
    assert splice_first_two(left, left, block_rewrite((up, left))) == spliced((up, left))
    for block in (left, down):
        with pytest.raises(AssertionError, match="did not move up in tableau order"):
            splice_first_two(left, left, block_rewrite((block, left)))


def test_splice_block_measure_is_on_the_pair():
    # a same-shape term that keeps the left side must raise the right side
    left = Tableau.parse("1b 1; 2b").columns()
    up = Tableau.parse("1b 2; 2b").columns()
    down = Tableau.parse("1 1b; 2b").columns()
    assert splice_first_two(left, left, block_rewrite((left, up))) == spliced((left, up))
    for block in (left, down):
        with pytest.raises(AssertionError, match="did not move up in tableau order"):
            splice_first_two(left, left, block_rewrite((left, block)))
    # the left key comes first: a term that raises it may lower the right
    assert splice_first_two(left, left, block_rewrite((up, down))) == spliced((up, down))


@pytest.mark.parametrize("swap", [False, True])
def test_output_check_sees_a_missed_row_violation(monkeypatch, swap):
    # the output check scans each side afresh: with a row scan that misses
    # every violation the rule rewrites nothing, and the non-standard input
    # side comes back as a leaf
    gl_module = importlib.import_module("obidet.gl_straighten")
    monkeypatch.setattr(gl_module, "row_violation_column", lambda cols: None)
    s, t = GL_CASE.inputs()
    assert not is_gl_standard(s, 6) and is_gl_standard(t, 6)
    with pytest.raises(AssertionError, match="non-standard tableau in output"):
        gl_straighten(*((t, s) if swap else (s, t)), 6)


def canonical_pair(text):
    """The canonical pair [S:S] of a tableau given as text."""
    cols = Tableau.parse(text).columns()
    return _canonical(zip(cols, cols))


def graph_rule(graph, calls, stale=None):
    """A rule that rewrites each pair of graph to its (coef, child) terms, recording its calls.

    Each term comes with its child's key, but a child in stale comes with
    the key of the pair that stale maps it to.
    """
    def rule(left, right, key):
        calls.append((left, right))
        terms = graph.get((left, right))
        return terms and ("GL", 1, [
            (coef, child, _measure_key((stale or {}).get(child, child))) for coef, child in terms])
    return rule


def test_driver_never_expands_a_cancelled_pair():
    # root -> A + B, A -> C + D and B -> -C: C's coefficient cancels before
    # it leaves the heap, so the rule never sees it, and D is the one leaf
    s = Tableau.parse("1b 1 2")
    root, a, b, c, d = map(canonical_pair, ("1b 1 2", "1b; 1", "1b 1", "1b", "1"))
    keys = [_measure_key(pair) for pair in (root, b, a, c, d)]
    assert keys == sorted(keys)
    graph = {root: [(1, a), (1, b)], a: [(1, c), (1, d)], b: [(-1, c)]}
    calls = []
    out = run_straightening(s, s, graph_rule(graph, calls), fuel=10)
    assert calls == [root, b, a, d]
    assert out == single_term(Tableau.parse("1"), Tableau.parse("1"), 1, gamma_pow=1)


def expand_in_fractions(graph, pair, weight, leaves):
    """The leaves of graph below pair with their summed Fraction weights: the driver's oracle."""
    if pair not in graph:
        leaves[pair] = leaves.get(pair, 0) + weight
    for coef, child in graph.get(pair, ()):
        expand_in_fractions(graph, child, weight * Fraction(coef), leaves)
    return leaves


def test_driver_weights_are_ints_over_one_power_of_two():
    # the driver keeps every weight as an int over 2^E: a 1/2 or 1/4 that
    # does not divide a weight doubles all of them (the pending ones, the
    # popped one and the leaves already out), here three times, and the
    # result is the graph's expansion in Fractions
    s = Tableau.parse("1b 1 2")
    root, leaf, b, a, c, d = map(canonical_pair, ("1b 1 2", "1b 1; 2", "1b 2; 1", "1b; 1; 2",
                                                  "1", "2"))
    keys = [_measure_key(pair) for pair in (root, leaf, b, a, c, d)]
    assert keys == sorted(keys)
    half, quarter = rational(1, 2), rational(1, 4)
    graph = {root: [(half, a), (3, b), (5, leaf)],
             b: [(quarter, c), (-half, d)],
             a: [(quarter, d), (2, c)]}
    calls = []
    out = run_straightening(s, s, graph_rule(graph, calls), fuel=10)
    assert calls == [root, leaf, b, a, c, d]
    leaves = expand_in_fractions(graph, root, Fraction(1), {})
    assert leaves == {leaf: 5, c: Fraction(7, 4), d: Fraction(-11, 8)}
    assert out == Combination(_bidet_terms(((w, *p) for p, w in leaves.items()), s.size))


def test_driver_refuses_a_coefficient_outside_z_half():
    s = Tableau.parse("1b 1 2")
    root, a = canonical_pair("1b 1 2"), canonical_pair("1b; 1; 2")
    with pytest.raises(AssertionError, match="left Z\\[1/2\\]"):
        run_straightening(s, s, graph_rule({root: [(rational(1, 3), a)]}, []), fuel=10)


@pytest.mark.parametrize("child", ["1b 1 2", "1b 1"])
def test_driver_rejects_a_term_that_does_not_rise(child):
    # a rule that bypasses splice_block with a term whose key is not above
    # its pair's, a larger pair or the pair itself, is caught when it pops
    s = Tableau.parse("1b 1")
    root = canonical_pair("1b 1")
    assert _measure_key(canonical_pair(child)) <= _measure_key(root)
    graph = {root: [(1, canonical_pair(child))]}
    with pytest.raises(AssertionError, match="did not rise in the measure"):
        run_straightening(s, s, graph_rule(graph, []), fuel=10)


@pytest.mark.parametrize("stale", ["parent", "sibling"])
def test_driver_rejects_a_term_with_a_stale_key(stale):
    # the driver pushes each new pair with the key its term came with: a
    # rule that hands back one child with its parent's key, or with its
    # sibling's, puts that key on the heap twice, and the second is caught
    s = Tableau.parse("1b 1 2")
    root, a, b = map(canonical_pair, ("1b 1 2", "1b; 1; 2", "1b 1; 2"))
    assert _measure_key(root) < _measure_key(b) < _measure_key(a)
    graph = {root: [(1, a), (1, b)]}
    calls = []
    out = run_straightening(s, s, graph_rule(graph, calls), fuel=10)
    assert calls == [root, b, a] and len(out) == 2
    with pytest.raises(AssertionError, match="did not rise in the measure"):
        run_straightening(s, s, graph_rule(graph, [], {a: root if stale == "parent" else b}),
                          fuel=10)


# ---------------------------------------------------------------------------
# full straightening
# ---------------------------------------------------------------------------

def test_gl_straighten_standard_input_is_fixed_point():
    s = Tableau.parse("1b 1; 1")
    out = gl_straighten(s, s, 4)
    assert out == single_term(s, s)


def test_gl_straighten_golden_case_recursed():
    s, t = GL_CASE.inputs()
    out = gl_straighten(s, t, 6)
    assert out.symbolic_poly(6) == bideterminant(s, t)
    for term in out:
        assert is_gl_standard(term.left, 6)
        assert is_gl_standard(term.right, 6)


def test_gl_straighten_random_symbolic_identity():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.choice([3, 4])
        s, t = random_pair(n, 5, rng)
        out = gl_straighten(s, t, n)
        assert out.symbolic_poly(n) == bideterminant(s, t), (s.format(), t.format())
        for term in out:
            assert is_gl_standard(term.left, n)
            assert is_gl_standard(term.right, n)
            assert type(term.coef) is int  # no 1/2 in GL mode, so E stays 0


def test_gl_straighten_rejects_too_many_rows():
    col = Tableau.from_columns([[L("1b"), L("1"), L("2b"), L("2")]])
    with pytest.raises(DomainError):
        gl_straighten(col, col, 3)


def test_gl_straighten_rejects_foreign_letters():
    s = Tableau.parse("2")
    with pytest.raises(DomainError):
        gl_straighten(s, s, 3)


def test_gl_straighten_rejects_a_shape_mismatch():
    # the rewrite pairs columns up, so unmatched ones would be dropped
    with pytest.raises(DomainError, match="shape mismatch"):
        gl_straighten(Tableau.parse("1 2"), Tableau.parse("1"), 4)


def test_gl_straighten_fuel():
    s, t = GL_CASE.inputs()
    with pytest.raises(CapExceeded, match="fuel exhausted"):
        gl_straighten(s, t, 6, fuel=1)
    # fuel counts rule calls: one per rewrite step, one per standard leaf
    trace = []
    out = gl_straighten(s, t, 6, trace=trace)
    need = len(trace) + len(out)
    assert gl_straighten(s, t, 6, fuel=need) == out
    with pytest.raises(CapExceeded, match="fuel exhausted"):
        gl_straighten(s, t, 6, fuel=need - 1)


def test_gl_straighten_fuel_is_ample_for_desk_sizes():
    rng = random.Random(12)
    for _ in range(10):
        n = rng.choice([5, 6])
        s, t = random_pair(n, 6, rng)
        gl_straighten(s, t, n)  # must not raise


# ---------------------------------------------------------------------------
# the one-switch expansion
# ---------------------------------------------------------------------------

def one_switch(s, t, row):
    """[S*:T] - [S:T] from _switch_terms, S* the switch of the bar pair in a row."""
    terms = _switch_terms(s.columns(), t.columns(), row)[1]
    return Combination(_bidet_terms(((c, *key) for key, c in terms.items()), s.size))


def test_one_switch_matches_direct_difference():
    s = Tableau.parse("1 1; 2b 2; 3")  # GL-standard, pair (2b, 2) in row 2
    t = Tableau.parse("1b 1; 2b 2; 3")
    out = one_switch(s, t, 2)
    star = Tableau.parse("1 1; 2 2b; 3")
    assert _switch_terms(s.columns(), t.columns(), 2)[0] == star.columns()
    expected = gl_straighten(star, t, 6) - gl_straighten(s, t, 6)
    # both sides straighten to the same polynomial
    assert out.symbolic_poly(6) == expected.symbolic_poly(6)
    for term in out:
        if term.left.shape == s.shape:
            assert tableau_prec_cmp(star, term.left) == -1


def test_one_switch_drop_vanishes_for_basic_right():
    s = Tableau.parse("1 1; 2b 2; 3")
    t = basic_tableau(s.shape, 6)
    out = one_switch(s, t, 2)
    for term in out:
        assert term.left.shape == s.shape


def test_one_switch_independent_of_right():
    s = Tableau.parse("1 1; 2b 2; 3")
    t1 = Tableau.parse("1b 1; 2b 2; 3")
    t2 = basic_tableau(s.shape, 6)
    heads1 = sorted((x.left.format(), x.coef) for x in one_switch(s, t1, 2)
                    if x.left.shape == s.shape)
    heads2 = sorted((x.left.format(), x.coef) for x in one_switch(s, t2, 2)
                    if x.left.shape == s.shape)
    assert heads1 == heads2


def test_one_switch_requires_pair_row():
    s = Tableau.parse("1b 1; 2b 0")
    with pytest.raises(DomainError):
        one_switch(s, s, 2)  # row (2b, 0) is not a bar pair
    with pytest.raises(DomainError):
        one_switch(Tableau.parse("1 1b"), Tableau.parse("1 1b"), 1)


# ---------------------------------------------------------------------------
# the basis count for a two-letter alphabet
# ---------------------------------------------------------------------------

def test_gl_standard_pair_count_degree_two():
    pairs = 0
    by_shape = {}
    for shape in partitions_of(2):
        tabs = list(enumerate_gl_standard(shape, 2))
        by_shape[shape] = len(tabs)
        pairs += len(tabs) ** 2
    assert by_shape[(2,)] == 3 and by_shape[(1, 1)] == 1
    assert pairs == 10  # the dimension of degree-2 polynomials in 4 variables


def test_output_with_other_letters_is_refused(monkeypatch):
    gl_module = importlib.import_module("obidet.gl_straighten")
    run = gl_module.run_straightening
    stray = single_term(Tableau.parse("1"), Tableau.parse("1"))
    monkeypatch.setattr(gl_module, "run_straightening", lambda *args: run(*args) + stray)
    with pytest.raises(AssertionError, match="letter content"):
        gl_straighten(Tableau.parse("2 1"), Tableau.parse("1 2"), 4)
    # a GL-standard side of the input shape with other letters, on the left
    # or the right of a leaf whose other side is an output side
    s, t = GL_CASE.inputs()
    u = basic_tableau(s.shape, 6)
    assert is_gl_standard(u, 6)
    assert all(sorted(itertools.chain(*u.columns())) != sorted(itertools.chain(*x.columns()))
               for x in (s, t))
    for swap in (False, True):
        def with_wrong_leaf(*args):
            out = run(*args)
            x = next(x for x in out if x.left.shape == u.shape)
            return out + single_term(*((x.left, u) if swap else (u, x.right)))

        monkeypatch.setattr(gl_module, "run_straightening", with_wrong_leaf)
        with pytest.raises(AssertionError, match="output term changed the letter content"):
            gl_straighten(s, t, 6)


# ---------------------------------------------------------------------------
# checking GL identities
# ---------------------------------------------------------------------------

def orthogonal_ideal_combination():
    """Sum over i of [i bar(i) : 1 1b] - [i bar(i) : 2 2b] at n = 4, GL-straightened.

    Each sum is gamma on O(4), so the difference vanishes there; it is not
    the zero polynomial.
    """
    comb = Combination()
    for x in _letters(4):
        row = Tableau.from_columns([[x], [x.bar()]])
        comb = (comb + gl_straighten(row, Tableau.parse("1 1b"), 4)
                - gl_straighten(row, Tableau.parse("2 2b"), 4))
    return comb


def test_verify_gl_rejects_an_error_in_the_orthogonal_ideal(monkeypatch):
    comb = orthogonal_ideal_combination()
    assert len(comb) == 8
    assert not comb.symbolic_poly(4).is_zero()
    # points of O(4) cannot see it
    assert verify_on_group(comb, _suite_points(4, 20, 1, "ON", QQ))
    assert verify_gl(comb, 4, 3) == ("polynomial", False)
    gl_module = importlib.import_module("obidet.gl_straighten")
    monkeypatch.setattr(gl_module, "GL_SYMBOLIC_MONOMIALS", 0)
    assert verify_gl(comb, 4, 3) == ("point", False)


def test_verify_gl_accepts_straightened_pairs(monkeypatch):
    rng = random.Random(17)
    gl_module = importlib.import_module("obidet.gl_straighten")
    for bound in (gl_module.GL_SYMBOLIC_MONOMIALS, 0):
        monkeypatch.setattr(gl_module, "GL_SYMBOLIC_MONOMIALS", bound)
        check = "polynomial" if bound else "point"
        for n in (1, 2, 5):
            letters = _letters(n)
            for _ in range(4):
                s, t = (Tableau.from_columns([rng.choices(letters, k=1) for _ in range(3)])
                        for _ in range(2))
                residual = single_term(s, t) - gl_straighten(s, t, n)
                assert verify_gl(residual, n, 2, seed=n)[1]
                wrong = residual + single_term(s, s)
                assert verify_gl(wrong, n, 2, seed=n) == (check, False)
        case = GOLDEN_CASES[0]
        s, t = case.inputs()
        assert verify_gl(single_term(s, t) - gl_straighten(s, t, case.n), case.n, 2) == (
            check, True)


def test_verify_gl_refuses_gamma():
    with pytest.raises(DomainError, match="gamma"):
        verify_gl(single_term(Tableau.parse("1"), Tableau.parse("1"), gamma_pow=1), 3, 1)
