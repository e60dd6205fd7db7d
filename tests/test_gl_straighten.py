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
from obidet.polyring import QQ, bideterminant, rational
from obidet.gl_straighten import (
    BidetTerm,
    CapExceeded,
    Combination,
    _bidet_terms,
    _canonical,
    _combination,
    _measure_key,
    _switch_terms,
    _template,
    _template_rewrite,
    _two_column_rewrite,
    _two_column_terms,
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
    assert c.coefficient(s, t) == 3
    assert (c - c.scale(1)).is_zero()


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
    assert drop.is_zero()
    assert not head.is_zero()


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
                    k_viol, k_terms = _two_column_terms(s.columns(), t.columns())
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
    # kernel's callers still get letters back for that block
    s, t = Tableau.parse("1 1b; 2b 2"), Tableau.parse("1b 1; 2 3b")
    plain = tuple(tuple(tuple(map(int, col)) for col in side.columns()) for side in (s, t))
    assert plain == (s.columns(), t.columns())
    _template(plain)
    blocks = [(left, right) for _, left, right in _template_rewrite(s.columns(), t.columns())]
    blocks += [(left, right) for _, left, right in _two_column_rewrite(s.columns(), t.columns())]
    _, head, drop = two_column_straighten(s, t)
    terms = [*mead_step(s, t, 0), *head, *drop]
    blocks += [(x.left.columns(), x.right.columns()) for x in terms]
    assert terms
    assert all(type(x) is Letter for block in blocks for side in block for col in side
               for x in col)


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


def test_splice_block_rejects_a_size_increase():
    # the measure falls in size first: profile (2, 1) -> (2, 1, 1) grows the
    # profile but also the size, so it is no descent
    left = Tableau.parse("1b 2b; 1").columns()
    grown = Tableau.parse("1b 2b 2; 1").columns()
    with pytest.raises(AssertionError, match="without falling in measure"):
        splice_block(left, left, 0, 1, block_rewrite((grown, grown)))
    # a size smaller by an even number, or the same size with a larger
    # profile, descends
    for block in (Tableau.parse("1b").columns(), Tableau.parse("1b; 1; 2b").columns()):
        assert splice_block(left, left, 0, 1, block_rewrite((block, block))) == [
            (1, block, block)]


def test_splice_block_rejects_an_odd_size_drop():
    # gamma is quadratic in the entries: a term whose size drops by an odd
    # number has no gamma power, so it is no rewrite of GO(n)
    left = Tableau.parse("1b 2b; 1").columns()
    for block in (Tableau.parse("1b; 1").columns(), Tableau.parse("-").columns()):
        with pytest.raises(AssertionError, match="odd number"):
            splice_block(left, left, 0, 1, block_rewrite((block, block)))


def test_splice_block_rejects_a_same_shape_term_that_does_not_move_up():
    left = Tableau.parse("1b 1; 2b").columns()
    up = Tableau.parse("1b 2; 2b").columns()
    down = Tableau.parse("1 1b; 2b").columns()
    assert splice_block(left, left, 0, 1, block_rewrite((up, left))) == [(1, up, left)]
    for block in (left, down):
        with pytest.raises(AssertionError, match="did not move up in tableau order"):
            splice_block(left, left, 0, 1, block_rewrite((block, left)))


def test_splice_block_measure_is_on_the_pair():
    # a same-shape term that keeps the left side must raise the right side
    left = Tableau.parse("1b 1; 2b").columns()
    up = Tableau.parse("1b 2; 2b").columns()
    down = Tableau.parse("1 1b; 2b").columns()
    assert splice_block(left, left, 0, 1, block_rewrite((left, up))) == [(1, left, up)]
    for block in (left, down):
        with pytest.raises(AssertionError, match="did not move up in tableau order"):
            splice_block(left, left, 0, 1, block_rewrite((left, block)))
    # the left key comes first: a term that raises it may lower the right
    assert splice_block(left, left, 0, 1, block_rewrite((up, down))) == [(1, up, down)]


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


def graph_rule(graph, calls):
    """A rule that rewrites each pair of graph to its (coef, child) terms, recording its calls."""
    def rule(left, right):
        calls.append((left, right))
        terms = graph.get((left, right))
        return terms and ("GL", 1, [(coef, *child) for coef, child in terms])
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
    return _combination(_switch_terms(s.columns(), t.columns(), row)[1], s.size)


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
