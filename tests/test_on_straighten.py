import functools
import hashlib
import heapq
import importlib
import itertools
import json
import random
import tracemalloc
import types
from collections import Counter
from pathlib import Path

import pytest

from obidet.tableaux import (
    DomainError,
    Letter,
    Tableau,
    _letters,
    basic_tableau,
    conjugate,
    enumerate_on_standard,
    on_standard_report,
    partitions_of,
    torus_weight,
)
from obidet.polyring import (
    GF,
    QQ,
    ZHALF,
    eval_bideterminant,
    eval_columns_product,
    is_dyadic,
    rational,
)
from obidet.gl_straighten import (
    FUEL,
    BidetTerm,
    CapExceeded,
    Combination,
    _measure_key,
    _two_column_rewrite,
    normal_columns,
    normalize_pair,
    single_term,
    term_order,
)
from obidet.on_straighten import (
    GO,
    ON,
    RelationSpec,
    fix_os1,
    fix_os2,
    fix_os3,
    on_straighten,
    one_column_complement,
    reduce_tall_shape,
    _repair_terms,
    relation_lhs_terms,
    relation_rhs,
    verify_relation,
)
from obidet.group_oracle import (
    _suite_points,
    basis_suite,
    random_go_point,
    random_on_point,
    standard_basis_elements,
    standard_points,
)
from obidet.golden import GOLDEN_CASES


def L(token):
    return Letter.parse(token)


def cols(*lists):
    return [[L(tok) for tok in chunk.split()] for chunk in lists]


# ---------------------------------------------------------------------------
# relation sums
# ---------------------------------------------------------------------------

def worked_relation_spec():
    t = Tableau.from_columns(cols("1b 2b 3b 4 6", "1 2 3 5"))
    return RelationSpec(
        (L("7"), L("9")), (L("8"),), t,
        a=3, excluded=frozenset({L("4b"), L("5")}), n=18)


def test_relation_spec_validation():
    t = Tableau.from_columns(cols("1b 2b", "1 2"))
    with pytest.raises(DomainError):
        RelationSpec((), (), t, a=0, excluded=frozenset(), n=4)
    with pytest.raises(DomainError):
        RelationSpec((), (), t, a=1, excluded=frozenset({L("1")}), n=4)
    with pytest.raises(DomainError):  # stack exceeds the second column
        RelationSpec((), (), t, a=3, excluded=frozenset(), n=8)
    with pytest.raises(DomainError):  # stacked shape must match t
        RelationSpec((L("3"),), (), t, a=2, excluded=frozenset({L("1")}), n=8)


def _by_degree(rhs):
    """The collapsed terms grouped by gamma power, the number d of deleted pairs."""
    per = {}
    for term in rhs:
        per.setdefault(term.gamma_pow, []).append(term)
    return per


def test_worked_relation_structure():
    per = _by_degree(relation_rhs(worked_relation_spec()))
    # the stacked letters sort ahead of s0 and the pairs sit aligned, so the
    # coefficients are the degree signs (-1)^(a - d)
    assert len(per[1]) == 3 and all(t.coef == 1 for t in per[1])
    assert len(per[2]) == 6 and all(t.coef == -1 for t in per[2])
    assert len(per[3]) == 1 and per[3][0].coef == 1
    # the single full-deletion term strips the stack entirely
    t3 = per[3][0]
    assert t3.left.columns() == ((L("7"), L("9")), (L("8"),))
    assert t3.right.columns() == ((L("4"), L("6")), (L("5"),))
    # depth-1 terms stack both excluded letters
    for t1 in per[1]:
        assert t1.left.columns() == ((L("4b"), L("5"), L("7"), L("9")),
                                     (L("4"), L("5b"), L("8")))


def test_worked_relation_verifies():
    pts = standard_points(18, 4, seed=9)
    assert verify_relation(worked_relation_spec(), pts)


def test_relation_no_pairs_vanishes():
    # no letter of the right tableau occurs with its bar: the sum collapses to 0
    t = Tableau.from_columns(cols("1b 2b", "1b 2b"))
    spec = RelationSpec((L("3"),), (L("4"),), t, a=1, excluded=frozenset(), n=8)
    assert not relation_rhs(spec)
    pts = standard_points(8, 3, seed=4)
    for pt in pts:
        total = sum(eval_columns_product(c, t.columns(), pt)
                    for c in relation_lhs_terms(spec))
        assert total == 0


def test_relation_empty_excluded_keeps_only_full_depth():
    t = Tableau.from_columns(cols("1b 2b", "1 2"))
    spec = RelationSpec((), (), t, a=2, excluded=frozenset(), n=6)
    per = _by_degree(relation_rhs(spec))
    assert 1 not in per
    assert len(per[2]) == 1


def test_relation_negative_control():
    spec = worked_relation_spec()
    pts = standard_points(18, 2, seed=9)
    terms = relation_rhs(spec).terms()
    flipped = Combination([BidetTerm(-terms[0].coef, terms[0].gamma_pow, terms[0].left,
                                     terms[0].right)] + terms[1:])
    t_cols = spec.t.columns()
    for pt in pts[:1]:
        lhs = sum(eval_columns_product(c, t_cols, pt) for c in relation_lhs_terms(spec))
        assert lhs != flipped.evaluate(pt, pt.gamma_value)


def _random_relation_spec(rng, ns):
    """A random two-column relation spec over one of the alphabet sizes ns, or None."""
    n = rng.choice(ns)
    letters = _letters(n)
    a = rng.choice([1, 2, 3])
    e = min(n, a + rng.randrange(0, 3))
    f = min(e, a + rng.randrange(0, max(1, e - a + 1)))
    if f < a:
        return None
    t = Tableau.from_columns([
        sorted(rng.sample(letters, e), key=lambda x: x.key),
        sorted(rng.sample(letters, f), key=lambda x: x.key)])
    return RelationSpec(
        tuple(rng.sample(letters, e - a)), tuple(rng.sample(letters, f - a)),
        t, a, frozenset(rng.sample(letters, rng.randrange(0, a))), n)


def test_randomized_relation_suite():
    rng = random.Random(77)
    trials = 0
    while trials < 12:
        spec = _random_relation_spec(rng, [4, 5, 6, 7])
        if spec is None:
            continue
        trials += 1
        assert verify_relation(spec, standard_points(spec.n, 3, seed=trials)), spec


def test_collapsed_relation_sums_are_pinned():
    # the collapsed sides of the worked spec and 29 seeded specs whose right
    # tableau has pairs: the repairs solve with these sums, so refactors
    # must keep them byte for byte
    rng = random.Random(801)
    specs = [worked_relation_spec()]
    while len(specs) < 30:
        spec = _random_relation_spec(rng, [4, 5, 6, 7, 8])
        if spec is None:
            continue
        col1, col2 = spec.t.columns()
        if any(x.bar() in col2 for x in col1):
            specs.append(spec)
    certificates = [relation_rhs(spec).certificate() for spec in specs]
    assert sum(map(bool, certificates)) == 22
    digest = hashlib.sha256("\n\n".join(certificates).encode()).hexdigest()
    assert digest == "6524752743d3cca406db07bce36f3dc67d733bcfe8f9f62ee6e9fa8f058aea34"


def test_relation_gamma_weights_on_similitudes():
    t = Tableau.from_columns(cols("1b 2b 3", "1 2"))
    spec = RelationSpec((L("3"),), (), t, a=2, excluded=frozenset({L("2")}), n=6)
    pts = [random_go_point(6, 40 + i, rational(i + 2)) for i in range(3)]
    assert verify_relation(spec, pts)


def test_verify_relation_rejects_a_wrong_collapse(monkeypatch):
    # relation_rhs with one coefficient negated, on the term of the highest
    # gamma power: verify_relation must fail at every point
    true_rhs = relation_rhs

    def flipped(spec):
        rhs = true_rhs(spec)
        t = max(rhs.terms(), key=lambda term: term.gamma_pow)
        return rhs - single_term(t.left, t.right, 2 * t.coef, t.gamma_pow)

    t = Tableau.from_columns(cols("1b 2b 3", "1 2"))
    go_spec = RelationSpec((L("3"),), (), t, a=2, excluded=frozenset({L("2")}), n=6)
    go_points = [random_go_point(6, 40 + i, rational(i + 2)) for i in range(3)]
    assert all(p.gamma_value != 1 for p in go_points)
    cases = [(worked_relation_spec(), standard_points(18, 2, seed=9)), (go_spec, go_points)]
    assert all(verify_relation(spec, pts) for spec, pts in cases)
    monkeypatch.setattr(importlib.import_module("obidet.on_straighten"), "relation_rhs", flipped)
    for spec, pts in cases:
        assert max(term.gamma_pow for term in true_rhs(spec).unsorted()) > 0
        assert not any(verify_relation(spec, [p]) for p in pts)


def grading_failures():
    """The point-free grading checks that fail, out of 550, for n = 3..7 in ON and GO mode.

    On GO(n), g^t J g = gamma J and g J g^t = gamma J give, for every
    letter pair (a, b), sum_i [i bar(i) : a b] = J_ab gamma and
    sum_j [a b : j bar(j)] = J_ab gamma, and det^2 = gamma^n; O(n) sets
    gamma = 1.  Each side straightens to exactly that constant.
    """
    empty = Tableau(())
    failures = checks = 0
    for n, mode in itertools.product(range(3, 8), (ON, GO)):
        letters = _letters(n)

        def constant(coef, gamma_pow):
            return single_term(empty, empty, coef, gamma_pow if mode == GO else 0)

        def straightened_sum(pairs):
            return sum((on_straighten(Tableau([s_row]), Tableau([t_row]), mode, n)
                        for s_row, t_row in pairs), Combination())

        for a, b in itertools.product(letters, repeat=2):
            expected = constant(1, 1) if b == a.bar() else Combination()
            for pairs in ([((i, i.bar()), (a, b)) for i in letters],
                          [((a, b), (j, j.bar())) for j in letters]):
                checks += 1
                failures += straightened_sum(pairs) != expected
        full = Tableau.from_columns([letters, letters])
        checks += 1
        failures += on_straighten(full, full, mode, n) != constant(1, n)
    assert checks == 550
    return failures


def test_gamma_grading_without_points():
    assert grading_failures() == 0


def test_gamma_grading_sees_a_shifted_gamma_power(monkeypatch):
    # the power is derived in one place; one more gamma there must show
    gl_module = importlib.import_module("obidet.gl_straighten")
    derive = gl_module._bidet_terms
    monkeypatch.setattr(gl_module, "_bidet_terms", lambda terms, size: [
        BidetTerm(x.coef, x.gamma_pow + 1, x.left, x.right) for x in derive(terms, size)])
    assert grading_failures()


# ---------------------------------------------------------------------------
# complements and the column condition
# ---------------------------------------------------------------------------

def test_one_column_complement_full_column():
    for n in (3, 4):
        letters = _letters(n)
        eps, sbar, tbar = one_column_complement(letters, letters, n)
        assert sbar == () and tbar == ()
        pt = random_on_point(n, 21, "MINUS")
        # [full column : full column] is det itself
        assert eval_columns_product([letters], [letters], pt) == eps * pt.det_value


def test_one_column_complement_small_cases():
    for n, s_col, t_col in [
        (3, ["1b"], ["1b"]),
        (4, ["1b", "1"], ["1b", "2b"]),
    ]:
        s_col = [L(x) for x in s_col] if isinstance(s_col[0], str) else s_col
        t_col = [L(x) for x in t_col] if isinstance(t_col[0], str) else t_col
        eps, sbar, tbar = one_column_complement(s_col, t_col, n)
        for seed in range(5):
            pt = random_on_point(n, 60 + seed, "MINUS" if seed % 2 else "PLUS")
            lhs = eval_columns_product([s_col], [t_col], pt)
            rhs = eps * pt.det_value * eval_columns_product([sbar], [tbar], pt)
            assert lhs == rhs


def test_one_column_complement_transpose_consistent():
    # the sign must be symmetric under swapping the two columns
    n = 5
    letters = _letters(n)
    rng = random.Random(5)
    for _ in range(10):
        s_col = rng.sample(letters, 2)
        t_col = rng.sample(letters, 2)
        eps1, _, _ = one_column_complement(s_col, t_col, n)
        eps2, _, _ = one_column_complement(t_col, s_col, n)
        assert eps1 == eps2


def test_one_column_complement_rejects_repeats():
    with pytest.raises(DomainError):
        one_column_complement([L("1"), L("1")], [L("1"), L("2")], 4)


def test_reduce_tall_shape_on_mode():
    s = Tableau.parse("1b 1b; 1 1")
    t = Tableau.parse("1b 1b; 1 0")
    term = reduce_tall_shape(s, t, ON, 3)
    assert term.gamma_pow == 0
    assert conjugate(term.left.shape) == (1, 1)
    for seed in range(5):
        pt = random_on_point(3, seed, "MINUS" if seed % 2 else "PLUS")
        assert eval_bideterminant(s, t, pt) == \
            term.coef * eval_bideterminant(term.left, term.right, pt)


def test_reduce_tall_shape_go_grading():
    s = Tableau.parse("1b 1b; 1 1; 2b 2")
    t = Tableau.parse("1b 1; 2b 2b; 2 2")
    term = reduce_tall_shape(s, t, GO, 4)
    assert 2 * term.gamma_pow + term.left.size == s.size
    for seed in range(3):
        pt = random_go_point(4, 70 + seed, rational(seed + 2, 1))
        scale = term.coef
        for _ in range(term.gamma_pow):
            scale = scale * pt.gamma_value
        assert eval_bideterminant(s, t, pt) == \
            scale * eval_bideterminant(term.left, term.right, pt)


def test_reduce_tall_shape_guard():
    s = Tableau.parse("1b 1; 2b 2")
    with pytest.raises(DomainError):
        reduce_tall_shape(s, s, ON, 5)


# ---------------------------------------------------------------------------
# the three repairs
# ---------------------------------------------------------------------------

OS1, OS2, OS3 = GOLDEN_CASES[1], GOLDEN_CASES[2], GOLDEN_CASES[3]


def _identity_holds(case, result, points):
    s, t = case.inputs()
    return all(eval_bideterminant(s, t, pt) == result.evaluate(pt) for pt in points)


def test_fix_os1_golden():
    s, t = OS1.inputs()
    result = fix_os1(s, t, 2, ON, 6)
    assert result == OS1.expected()
    assert _identity_holds(OS1, result, standard_points(6, 10, seed=1))


def test_fix_os2_golden():
    s, t = OS2.inputs()
    result = fix_os2(s, t, 2, ON, 7)
    assert result == OS2.expected()
    assert _identity_holds(OS2, result, standard_points(7, 10, seed=1))


def test_fix_os3_golden():
    s, t = OS3.inputs()
    result = fix_os3(s, t, 2, ON, 6)
    assert result == OS3.expected()
    assert _identity_holds(OS3, result, standard_points(6, 10, seed=1))


def test_fixes_for_basic_right_tableau():
    """Repairs against the basic right tableau stay exact.

    The collapsed lower-degree terms do NOT vanish here: a two-column basic
    tableau always contains the pair (1, 1b) across its columns, so the
    deletion sums survive.  (Only the polynomial-level rebalancing terms of
    the two-column rewrite die for a basic right tableau; that vanishing is
    covered in the two-column tests.)  The identity itself must still hold,
    and the lower terms carry genuinely nonzero functions: dropping them
    breaks the identity.
    """
    from obidet.gl_straighten import Combination

    for case, fixer in [(OS1, fix_os1), (OS2, fix_os2), (OS3, fix_os3)]:
        s, _ = case.inputs()
        t = basic_tableau(s.shape, case.n)
        result = fixer(s, t, 2, ON, case.n)
        pts = standard_points(case.n, 8, seed=6)
        assert all(eval_bideterminant(s, t, pt) == result.evaluate(pt)
                   for pt in pts), case.kind
        lam_only = Combination([x for x in result if x.left.shape == s.shape])
        small = [x for x in result if x.left.shape != s.shape]
        assert small, case.kind  # the deletion terms survive for basic T
        assert any(eval_bideterminant(s, t, pt) != lam_only.evaluate(pt)
                   for pt in pts), case.kind


def test_fix_heads_independent_of_right():
    for case, fixer in [(OS1, fix_os1), (OS2, fix_os2), (OS3, fix_os3)]:
        s, t = case.inputs()
        t2 = basic_tableau(s.shape, case.n)
        one = sorted((x.left.format(), x.coef) for x in fixer(s, t, 2, ON, case.n)
                     if x.left.shape == s.shape)
        two = sorted((x.left.format(), x.coef) for x in fixer(s, t2, 2, ON, case.n)
                     if x.left.shape == s.shape)
        assert one == two, case.kind


def test_fixes_raise_without_violation():
    # the protected tableau with columns (1, 2b, 2 | 2, 3) is standard on O(7)
    good = Tableau.from_columns(cols("1 2b 2", "2 3"))
    assert on_standard_report(good, 7).standard
    for j in (1, 2, 3):
        with pytest.raises(DomainError):
            fix_os1(good, good, j, ON, 7)
        with pytest.raises(DomainError):
            fix_os2(good, good, j, ON, 7)
        with pytest.raises(DomainError):
            fix_os3(good, good, j, ON, 7)


def test_fixes_raise_on_a_pair_with_another_violation():
    # each public repair checks for its own violation before it runs
    cases = [(OS1, fix_os1, "count"), (OS2, fix_os2, "protection"), (OS3, fix_os3, "pair-row")]
    for case, _, _ in cases:
        s, t = case.inputs()
        for other, fixer, what in cases:
            if other is not case:
                with pytest.raises(DomainError, match=f"no {what} violation at index 2"):
                    fixer(s, t, 2, GO, case.n, ZHALF)


def two_column_repair_cases():
    """(n, S, T, violation) for every two-column S at n = 4..6 and size <= 6 with a repair.

    S runs over the column-increasing two-column tableaux and the violation
    over its COLSUM, OS1, OS2 and OS3 violations (an OS3 pair row of a
    two-column tableau is in column 2); T is a seeded draw of S's shape.
    """
    rng = random.Random(15)
    for n in (4, 5, 6):
        letters = _letters(n)
        by_shape = {}
        for k in range(1, n + 1):
            for ell in range(1, min(k, 6 - k) + 1):
                for c1 in itertools.combinations(letters, k):
                    for c2 in itertools.combinations(letters, ell):
                        s = Tableau.from_columns([c1, c2])
                        by_shape.setdefault(s.shape, []).append(s)
        for tableaux in by_shape.values():
            for s in tableaux:
                for v in on_standard_report(s, n).violations:
                    if v.kind != "GL":
                        yield n, s, rng.choice(tableaux), v


# the public repairs' certificates on two_column_repair_cases (GO, Z[1/2])
REPAIR_CASES_SHA256 = "0320577b2dd4c4e859c9a3a0e84e2c3d618058708a672d067d99b70398718ff4"
REPAIR_CASES_KINDS = {"COLSUM": 140, "OS1": 565, "OS2": 32, "OS3": 175}


def test_column_repair_kernel_matches_the_public_repairs():
    # the driver's kernel gives the public repairs' terms; the order of a
    # rewrite's terms is no contract, so the kernel's are sorted like them
    fixers = {"OS1": fix_os1, "OS2": fix_os2, "OS3": fix_os3}
    digest = hashlib.sha256()
    kinds = Counter()
    for n, s, t, v in two_column_repair_cases():
        if v.kind == "COLSUM":
            public = Combination([reduce_tall_shape(s, t, GO, n)])
        else:
            public = fixers[v.kind](s, t, v.witness, GO, n, ZHALF)
        kernel = sorted(_repair_terms(v.kind, v.witness, s.columns(), t.columns(), n),
                        key=lambda term: term_order(*term[1:]))
        assert kernel == [(x.coef, x.left.columns(), x.right.columns())
                          for x in public], (n, s.format(), t.format(), v)
        kinds[v.kind] += 1
        digest.update(f"{n} {s.format()} | {t.format()} {v.kind} {v.witness}\n"
                      f"{public.certificate()}\n".encode())
    assert dict(kinds) == REPAIR_CASES_KINDS
    assert digest.hexdigest() == REPAIR_CASES_SHA256


def test_fix_os3_prime_field():
    # checked at points of O(n) over F_7, not against the rational result
    s, t = OS3.inputs()
    cases = [(s, t, 6, fix_os3(s, t, 2, ON, 6, GF(7)))]
    rng = random.Random(93)     # four rewriting pairs, coefficients down to 1/4
    for _ in range(4):
        n = rng.choice([5, 6, 7])
        letters = _letters(n)
        shape = rng.choice([sh for r in (3, 4) for sh in partitions_of(r, max_rows=n)])
        s, t = (Tableau.from_columns(
            [sorted(rng.sample(letters, k), key=lambda x: x.key) for k in conjugate(shape)])
            for _ in range(2))
        cases.append((s, t, n, on_straighten(s, t, ON, n, GF(7))))
    for s, t, n, result in cases:
        pts = [p for p in standard_points(n, 6, seed=2) if p.reduce_mod(GF(7)) is not None]
        assert pts
        for pt in pts:
            residual = eval_bideterminant(s, t, pt) - result.evaluate(pt)
            assert GF(7).reduce_rational(residual) == 0


def test_fix_gamma_weights_in_go_mode():
    s, t = OS1.inputs()
    result = fix_os1(s, t, 2, GO, 6)
    degrees = {2 * x.gamma_pow + x.left.size for x in result}
    assert degrees == {s.size}
    for seed in range(3):
        pt = random_go_point(6, 80 + seed, rational(seed + 2, 1))
        assert eval_bideterminant(s, t, pt) == result.evaluate(pt, pt.gamma_value)
        # a point carries its gamma: the default reads it, an explicit value wins
        assert result.evaluate(pt) == result.evaluate(pt, pt.gamma_value)
        assert result.evaluate(pt) != result.evaluate(pt, 1)


# ---------------------------------------------------------------------------
# the full driver
# ---------------------------------------------------------------------------

def test_on_straighten_idempotent_on_standard():
    from obidet.tableaux import enumerate_on_standard
    tabs = list(enumerate_on_standard((2, 1), 4))
    s, t = tabs[0], tabs[-1]
    for mode in (ON, GO):
        out = on_straighten(s, t, mode, 4)
        assert len(out) == 1
        term = out.terms()[0]
        assert (term.coef, term.gamma_pow, term.left, term.right) == (1, 0, s, t)


def test_on_straighten_golden_cases_recurse_to_standard():
    for case in GOLDEN_CASES[1:]:
        s, t = case.inputs()
        out = on_straighten(s, t, ON, case.n)
        pts = standard_points(case.n, 10, seed=3)
        for pt in pts:
            assert eval_bideterminant(s, t, pt) == out.evaluate(pt)
        for term in out:
            assert on_standard_report(term.left, case.n).standard
            assert on_standard_report(term.right, case.n).standard


def test_on_straighten_column_condition_route():
    s = Tableau.parse("1b 1b; 1 1")
    t = Tableau.parse("1b 1b; 1 0")
    out = on_straighten(s, t, ON, 3)
    pts = standard_points(3, 10, seed=4)
    for pt in pts:
        assert eval_bideterminant(s, t, pt) == out.evaluate(pt)


def test_on_straighten_dyadic_coefficients():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.choice([3, 4, 5, 6])
        letters = _letters(n)
        shapes = [sh for r in range(1, 5) for sh in partitions_of(r, max_rows=n)]
        shape = rng.choice(shapes)
        cc = conjugate(shape)
        s = Tableau.from_columns(
            [sorted(rng.sample(letters, k), key=lambda x: x.key) for k in cc])
        t = Tableau.from_columns(
            [sorted(rng.sample(letters, k), key=lambda x: x.key) for k in cc])
        out = on_straighten(s, t, ON, n)
        for term in out:
            assert is_dyadic(term.coef), (s.format(), t.format(), term.coef)


def test_on_straighten_dyadic_domain_mode():
    s, t = OS3.inputs()
    out = on_straighten(s, t, ON, 6, ZHALF)
    assert out
    for term in out:
        assert is_dyadic(term.coef)
    pts = standard_points(6, 5, seed=7)
    for pt in pts:
        assert eval_bideterminant(s, t, pt) == out.evaluate(pt)


def test_on_straighten_trace():
    s, t = OS1.inputs()
    trace = []
    on_straighten(s, t, ON, 6, trace=trace)
    kinds = {entry[0] for entry in trace}
    assert kinds <= {"GL", "COLSUM", "OS1", "OS2", "OS3"}
    assert "OS1" in kinds


def test_on_straighten_fuel():
    s, t = OS1.inputs()
    with pytest.raises(CapExceeded, match="fuel exhausted"):
        on_straighten(s, t, ON, 6, fuel=1)
    # fuel counts rule calls: one per rewrite step, one per standard leaf
    trace = []
    out = on_straighten(s, t, ON, 6, QQ, trace=trace)
    need = len(trace) + len(out)
    assert on_straighten(s, t, ON, 6, QQ, fuel=need) == out
    with pytest.raises(CapExceeded, match="fuel exhausted"):
        on_straighten(s, t, ON, 6, QQ, fuel=need - 1)


# many rewrite paths meet in the same terms: rewriting each path anew
# takes 902,134 steps on O(7)
SHARED_TERMS_CASE = (Tableau.parse("2 1 1 1b 1"), Tableau.parse("1b 2b 1 2 1"))


@functools.lru_cache(maxsize=None)
def shared_terms_output(mode):
    s, t = SHARED_TERMS_CASE
    return on_straighten(s, t, mode, 7)


def test_output_with_another_torus_weight_is_refused(monkeypatch):
    # a rewrite that lost a letter pair's balance would leave the weight space
    on_module = importlib.import_module("obidet.on_straighten")
    at_mode = on_module._mode_and_domain
    stray = single_term(Tableau.parse("1"), Tableau.parse("1"))
    monkeypatch.setattr(on_module, "_mode_and_domain",
                        lambda comb, mode, domain: at_mode(comb, mode, domain) + stray)
    with pytest.raises(AssertionError, match="torus weight"):
        on_straighten(Tableau.parse("2 1"), Tableau.parse("1 2"), ON, 4)
    # an O(6)-standard side of the input shape and another weight, on the
    # left or the right of a leaf whose other side is an output side
    s, t = OS3.inputs()
    for mode, swap in itertools.product((ON, GO), (False, True)):
        u = next(u for u in enumerate_on_standard(s.shape, 6)
                 if torus_weight(u, 6) != torus_weight(t if swap else s, 6))

        def with_wrong_leaf(comb, to_mode, domain):
            out = at_mode(comb, to_mode, domain)
            x = next(x for x in out if x.left.shape == u.shape)
            return out + single_term(*((x.left, u) if swap else (u, x.right)))

        monkeypatch.setattr(on_module, "_mode_and_domain", with_wrong_leaf)
        with pytest.raises(AssertionError, match="output term changed the torus weight"):
            on_straighten(s, t, mode, 6)


def test_on_straighten_expands_each_distinct_term_once(monkeypatch):
    # the package attribute on_straighten is the function, not the module
    on_module = importlib.import_module("obidet.on_straighten")
    expanded = []
    run = on_module.run_straightening

    def counting_run(s, t, rule, *args):
        def counting_rule(left, right, key):
            expanded.append((left, right))
            return rule(left, right, key)

        return run(s, t, counting_rule, *args)

    monkeypatch.setattr(on_module, "run_straightening", counting_run)
    s, t = SHARED_TERMS_CASE
    for mode in (ON, GO):
        expanded.clear()
        on_straighten(s, t, mode, 7)
        assert expanded and len(expanded) == len(set(expanded))


def test_on_straighten_scans_each_distinct_tableau_once(monkeypatch):
    # the rule keeps one standardness verdict per tableau for the call:
    # one row scan, then, on a GL-standard tableau, one orthogonal scan;
    # its repairs take the violation it found and scan nothing
    gl_module = importlib.import_module("obidet.gl_straighten")
    on_module = importlib.import_module("obidet.on_straighten")
    row_scan, scan, report = (gl_module.row_violation_column, on_module.orthogonal_violations,
                              on_module.on_standard_report)
    row_scans, scans = Counter(), Counter()
    reports = []

    def counting_row_scan(cols):
        row_scans[cols] += 1
        return row_scan(cols)

    def counting_scan(cols, n):
        scans[cols] += 1
        return scan(cols, n)

    def counting_report(t, n):
        reports.append(t)
        return report(t, n)

    monkeypatch.setattr(gl_module, "row_violation_column", counting_row_scan)
    monkeypatch.setattr(on_module, "orthogonal_violations", counting_scan)
    monkeypatch.setattr(on_module, "on_standard_report", counting_report)
    s, t = SHARED_TERMS_CASE
    for mode in (ON, GO):
        row_scans.clear()
        scans.clear()
        trace = []
        on_straighten(s, t, mode, 7, trace=trace)
        assert {"OS1", "OS2", "OS3"} & {kind for kind, _, _ in trace}
        assert row_scans and max(row_scans.values()) == 1
        assert scans and max(scans.values()) == 1
        assert not reports


def test_on_straighten_verdicts_stay_small_at_large_n():
    # the verdict scan and the sparse torus weights build nothing of size n
    tracemalloc.start()
    try:
        out = on_straighten(Tableau.parse("1 2"), Tableau.parse("1 2"), ON, 2_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.certificate() == "1\t0\t1 2\t1 2"
    assert peak < 1_000_000


def test_on_straighten_shared_terms_case_at_points():
    s, t = SHARED_TERMS_CASE
    for pt in standard_points(7, 2, seed=3):
        assert eval_bideterminant(s, t, pt) == shared_terms_output(ON).evaluate(pt)
    go = shared_terms_output(GO)
    assert {term.gamma_pow for term in go} == {0, 1}
    for seed, c in ((5, rational(3, 2)), (9, rational(-2))):
        pt = random_go_point(7, seed, c)
        assert pt.gamma_value != 1
        assert eval_bideterminant(s, t, pt) == go.evaluate(pt, pt.gamma_value)


def forget_gamma(comb):
    """The combination on O(n), where gamma = 1, with equal terms merged."""
    return Combination(BidetTerm(x.coef, 0, x.left, x.right) for x in comb)


def test_go_output_at_gamma_one_is_on_output():
    # the standard expansion on O(n) is unique, so no points are needed
    assert forget_gamma(shared_terms_output(GO)) == shared_terms_output(ON)
    rng = random.Random(41)
    for _ in range(6):
        n = rng.choice([3, 4, 5, 6])
        letters = _letters(n)
        shape = rng.choice(list(partitions_of(4, max_rows=n)))
        s, t = (Tableau.from_columns(
            [sorted(rng.sample(letters, k), key=lambda x: x.key) for k in conjugate(shape)])
            for _ in range(2))
        assert forget_gamma(on_straighten(s, t, GO, n)) == on_straighten(s, t, ON, n)


def test_on_straighten_rejects_bad_input():
    s = Tableau.parse("1b; 1; 2b; 2")
    with pytest.raises(DomainError):
        on_straighten(s, s, ON, 3)
    with pytest.raises(DomainError):
        on_straighten(Tableau.parse("3"), Tableau.parse("3"), ON, 4)
    with pytest.raises(DomainError):
        on_straighten(Tableau.parse("1"), Tableau.parse("1"), "XX", 4)


@pytest.mark.parametrize("call", [
    lambda mode: fix_os1(*OS1.inputs(), 2, mode, 6),
    lambda mode: fix_os2(*OS2.inputs(), 2, mode, 7),
    lambda mode: fix_os3(*OS3.inputs(), 2, mode, 6),
    lambda mode: reduce_tall_shape(Tableau.parse("1b 1b; 1 1"), Tableau.parse("1b 1b; 1 0"),
                                   mode, 3),
    lambda mode: standard_basis_elements(3, 1, mode),
    lambda mode: basis_suite(8, 4, mode),
    lambda mode: _suite_points(3, 5, 1, mode, QQ),
], ids=["fix_os1", "fix_os2", "fix_os3", "reduce_tall_shape", "standard_basis_elements",
        "basis_suite", "_suite_points"])
def test_unknown_mode_is_rejected(call):
    call(ON)
    with pytest.raises(DomainError, match="unknown mode"):
        call("XX")


def test_on_straighten_size_five_terminates_and_verifies():
    rng = random.Random(59)
    for _ in range(5):
        n = rng.choice([5, 6])
        letters = _letters(n)
        shapes = [sh for sh in partitions_of(5, max_rows=n)]
        shape = rng.choice(shapes)
        cc = conjugate(shape)
        s = Tableau.from_columns(
            [sorted(rng.sample(letters, k), key=lambda x: x.key) for k in cc])
        t = Tableau.from_columns(
            [sorted(rng.sample(letters, k), key=lambda x: x.key) for k in cc])
        out = on_straighten(s, t, ON, n)
        pts = standard_points(n, 4, seed=61)
        for pt in pts:
            assert eval_bideterminant(s, t, pt) == out.evaluate(pt)


def test_on_straighten_deep_case_with_os3_wide_column():
    # three columns, pair row in columns (1, 3): exercises the (1, b) block
    s = Tableau.from_columns(cols("1 2b", "1 2b", "1 2"))
    t = Tableau.from_columns(cols("1b 1", "1b 2b", "1b 2"))
    rep = on_standard_report(s, 6)
    assert any(v.kind == "OS3" and v.column == 3 for v in rep.violations)
    out = on_straighten(s, t, ON, 6)
    pts = standard_points(6, 8, seed=5)
    for pt in pts:
        assert eval_bideterminant(s, t, pt) == out.evaluate(pt)


# the rewrite graph of 40 seeded pairs (n 4..7, size 3..5, ON and GO): each
# certificate and the multiset of its (kind, witness, term count) steps
REWRITE_GRAPH_SHA256 = "0756ea6705c47a3c65c4c7bda65b93eefbeeab3f2c3ba54ecc8456e43db215e5"
REWRITE_GRAPH_STEPS = {"GL": 611, "COLSUM": 2, "OS1": 51, "OS2": 3, "OS3": 84}


def seeded_rewrite_pairs(seed=3, count=40):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(4, 7)
        size = rng.randint(3, 5)
        shape = rng.choice(list(partitions_of(size, max_rows=n)))
        letters = _letters(n)
        s, t = (Tableau.from_columns(
            [sorted(rng.sample(letters, k), key=lambda x: x.key) for k in conjugate(shape)])
            for _ in range(2))
        yield rng.choice((ON, GO)), n, s, t


def test_rewrite_graph_is_pinned():
    digest = hashlib.sha256()
    steps = Counter()
    for mode, n, s, t in seeded_rewrite_pairs():
        trace = []
        out = on_straighten(s, t, mode, n, trace=trace)
        counts = sorted(Counter(trace).items())
        for (kind, _, _), c in counts:
            steps[kind] += c
        digest.update(f"{mode} {n} {s.format()} | {t.format()}\n"
                      f"{out.certificate()}\n{counts}\n".encode())
    assert dict(steps) == REWRITE_GRAPH_STEPS
    assert digest.hexdigest() == REWRITE_GRAPH_SHA256


# every kept pair of the benchmark's deep pool: its certificate and its
# ordered (kind, witness, term count) trace
DEEP_CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "deep_corpus.json"
DEEP_CORPUS_SHA256 = "376e519a665dfdd525840142485ab00569a4b40382f7ad3a3b0fd6466f096d7b"
DEEP_CORPUS_STEPS = {"GL": 2019, "COLSUM": 63, "OS1": 345, "OS2": 74, "OS3": 511}


def test_deep_corpus_is_pinned():
    kept = json.loads(DEEP_CORPUS.read_text(encoding="utf-8"))["kept"]
    assert len(kept) == 311
    digest = hashlib.sha256()
    steps = Counter()
    for e in kept:
        trace = []
        out = on_straighten(Tableau.parse(e["left"]), Tableau.parse(e["right"]),
                            e["mode"], e["n"], trace=trace)
        steps.update(kind for kind, _, _ in trace)
        digest.update(f"{e['mode']} {e['n']} {e['left']} | {e['right']}\n"
                      f"{out.certificate()}\n{trace}\n".encode())
    assert dict(steps) == DEEP_CORPUS_STEPS
    assert digest.hexdigest() == DEEP_CORPUS_SHA256


def deep_corpus_pairs():
    """(mode, n, S, T) for every kept pair of the benchmark's deep pool."""
    kept = json.loads(DEEP_CORPUS.read_text(encoding="utf-8"))["kept"]
    return [(e["mode"], e["n"], Tableau.parse(e["left"]), Tableau.parse(e["right"]))
            for e in kept]


# the certificates alone, without the traces: the standard expansion is
# unique, so these do not move when the rewrite graph does
@pytest.mark.parametrize("pairs, expected", [
    (deep_corpus_pairs, "f5876f45003abebb68bb1f85b1bb5ba43c9f91c2441fbebca822cc0535a507e2"),
    (seeded_rewrite_pairs, "451fd169339b168942acb69a23f624abef6a55f3554a9ac823a57b1f05d22815"),
])
def test_certificates_are_pinned(pairs, expected):
    digest = hashlib.sha256()
    for mode, n, s, t in pairs():
        digest.update(f"{mode} {n} {s.format()} | {t.format()}\n"
                      f"{on_straighten(s, t, mode, n).certificate()}\n".encode())
    assert digest.hexdigest() == expected


def test_pairs_reach_the_rule_in_increasing_measure(monkeypatch):
    # the driver takes the pairs of one root in increasing measure, so each
    # pair is expanded after every pair that rewrites to it
    module = importlib.import_module("obidet.on_straighten")
    run = module.run_straightening
    keys = []

    def recording_run(s, t, rule, fuel, trace=None):
        def recording_rule(left, right, key):
            keys.append(_measure_key((left, right)))
            return rule(left, right, key)
        return run(s, t, recording_rule, fuel, trace)

    monkeypatch.setattr(module, "run_straightening", recording_run)
    calls = 0
    for mode, n, s, t in deep_corpus_pairs():
        keys.clear()
        on_straighten(s, t, mode, n)
        assert all(a < b for a, b in zip(keys, keys[1:])), (mode, n, s.format(), t.format())
        calls += len(keys)
    # the standard leaves reach the rule too
    assert calls > sum(DEEP_CORPUS_STEPS.values())


def test_each_term_is_pushed_with_its_own_key(monkeypatch):
    # a term's key is computed once, where it is checked against its pair's
    # key, and the driver pushes the term's pair with that same key
    module = importlib.import_module("obidet.on_straighten")
    gl_module = importlib.import_module("obidet.gl_straighten")
    run = module.run_straightening
    pushed, terms = [], []

    def recording_run(s, t, rule, fuel, trace=None):
        def checking_rule(left, right, key):
            assert key == _measure_key((left, right))
            step = rule(left, right, key)
            for _, child, child_key in step[2] if step else ():
                assert child_key == _measure_key(child) and key < child_key
                terms.append(child)
            return step
        return run(s, t, checking_rule, fuel, trace)

    def recording_push(heap, entry):
        pushed.append(entry)
        heapq.heappush(heap, entry)

    monkeypatch.setattr(module, "run_straightening", recording_run)
    monkeypatch.setattr(gl_module, "heapq", types.SimpleNamespace(
        heappush=recording_push, heappop=heapq.heappop))
    for mode, n, s, t in deep_corpus_pairs():
        on_straighten(s, t, mode, n)
    assert len(terms) > len(pushed) > 5000
    assert all(key == _measure_key(pair) for key, pair in pushed)


def test_shuffled_column_pairs_give_one_trace():
    # column minors commute, so the engine keys its graph on one canonical
    # arrangement: shuffling the equal-length column pairs of the input
    # changes neither the certificate nor a single step of the trace
    rng = random.Random(5)
    shuffled = 0
    for mode, n, s, t in deep_corpus_pairs():
        pairs = list(zip(s.columns(), t.columns()))
        lengths = sorted({len(a) for a, _ in pairs}, reverse=True)
        if len(lengths) == len(pairs):
            continue
        runs = [[p for p in pairs if len(p[0]) == k] for k in lengths]
        for run in runs:
            rng.shuffle(run)
        shuffled += 1
        s2, t2 = (Tableau.from_columns(side) for side in zip(*itertools.chain(*runs)))
        trace, trace2 = [], []
        out = on_straighten(s, t, mode, n, trace=trace)
        out2 = on_straighten(s2, t2, mode, n, trace=trace2)
        assert out2.certificate() == out.certificate()
        assert trace2 == trace, (mode, n, s.format(), t.format())
    assert shuffled == 179


@pytest.fixture(scope="module")
def deep_corpus_run():
    """The deep corpus straightened once, from an empty template table, with its rewrites recorded.

    Returns the outputs, every splice_block call as (left, right, i, j,
    blocks, spliced terms), the splices that build the normal forms too,
    the block normal form of each GL step as (S cols, T cols, terms) under
    "rewrites", the one-step rewrite of each OS3 switch the same way under
    "switches", and every repair as (kind, terms).
    """
    gl_module = importlib.import_module("obidet.gl_straighten")
    on_module = importlib.import_module("obidet.on_straighten")
    splice, normal, step, repair, switch = (
        gl_module.splice_block, gl_module._normal_form, gl_module._template_rewrite,
        on_module._repair_terms, on_module._switch_terms)
    run = {"outputs": [], "splices": [], "rewrites": [], "switches": [], "repairs": []}
    steps = []

    def recording_splice(left, right, key, i, j, rewrite):
        blocks = []

        def recording_rewrite(s_cols, t_cols):
            terms = rewrite(s_cols, t_cols)
            blocks.extend(terms)
            return terms

        out = splice(left, right, key, i, j, recording_rewrite)
        run["splices"].append((left, right, i, j, blocks, out))
        return out

    def recording_normal(fuel, s_cols, t_cols):
        terms = normal(fuel, s_cols, t_cols)
        run["rewrites"].append((s_cols, t_cols, terms))
        return terms

    def recording_step(s_cols, t_cols):
        terms = step(s_cols, t_cols)
        steps.append((s_cols, t_cols, terms))
        return terms

    def recording_switch(s_cols, t_cols, row):
        # the switch's one-step rewrite is kept; those that build a normal
        # form, on rank blocks, are not
        steps.clear()
        out = switch(s_cols, t_cols, row)
        run["switches"] += steps
        return out

    def recording_repair(kind, *args):
        terms = repair(kind, *args)
        run["repairs"].append((kind, terms))
        return terms

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gl_module, "splice_block", recording_splice)
        mp.setattr(gl_module, "_normal_form", recording_normal)
        mp.setattr(gl_module, "_template_rewrite", recording_step)
        mp.setattr(on_module, "_template_rewrite", recording_step)
        mp.setattr(on_module, "_repair_terms", recording_repair)
        mp.setattr(on_module, "_switch_terms", recording_switch)
        gl_module._template.cache_clear()
        for mode, n, s, t in deep_corpus_pairs():
            run["outputs"].append(on_straighten(s, t, mode, n))
    return run


def transposed(comb):
    return Combination(BidetTerm(x.coef, x.gamma_pow, x.right, x.left) for x in comb)


def test_output_check_sees_a_missed_orthogonal_violation(monkeypatch):
    # the output check scans each side afresh: with a plug-in scan that never
    # reports OS1, some runs end in a leaf with a count violation, and those
    # must raise instead of returning it
    on_module = importlib.import_module("obidet.on_straighten")
    scan = on_module.orthogonal_violations
    monkeypatch.setattr(on_module, "orthogonal_violations",
                        lambda cols, n: (v for v in scan(cols, n) if v.kind != "OS1"))
    raised = 0
    for mode, n, s, t in deep_corpus_pairs()[:120]:
        try:
            out = on_straighten(s, t, mode, n)
        except AssertionError as exc:
            assert str(exc) == "non-standard tableau in output"
            raised += 1
            continue
        assert all(on_standard_report(side, n).standard
                   for x in out for side in (x.left, x.right)), (mode, n, s, t)
    assert raised


def test_transposition_agrees_on_the_deep_corpus(deep_corpus_run):
    # [S:T](g) = [T:S](g^t) and the standard expansion is unique, so
    # straightening [T:S] gives the terms of [S:T] with sides swapped; the
    # driver repairs the left side first, so the two runs rewrite different
    # sides
    for (mode, n, s, t), out in zip(deep_corpus_pairs(), deep_corpus_run["outputs"]):
        assert on_straighten(t, s, mode, n).certificate() == transposed(out).certificate(), (
            mode, n, s.format(), t.format())


def test_transposition_sees_a_wrong_repair_coefficient(monkeypatch):
    on_module = importlib.import_module("obidet.on_straighten")
    repair = on_module._repair_terms

    def perturbed(kind, *args):
        terms = repair(kind, *args)
        if kind == "OS2":
            (coef, left, right), *rest = terms
            terms = [(coef + 1, left, right), *rest]
        return terms

    monkeypatch.setattr(on_module, "_repair_terms", perturbed)
    assert any(on_straighten(t, s, mode, n) != transposed(on_straighten(s, t, mode, n))
               for mode, n, s, t in deep_corpus_pairs())


def product_pairs():
    """(mode, n, A, B): seeded factors of 1-2 column pairs of height <= 2 each."""
    rng = random.Random(801)
    pairs = []
    for _ in range(150):
        mode, n = rng.choice((ON, GO)), rng.randint(3, 5)
        letters = _letters(n)

        def factor():
            heights = [rng.randint(1, 2) for _ in range(rng.randint(1, 2))]
            return ([tuple(rng.sample(letters, h)) for h in heights],
                    [tuple(rng.sample(letters, h)) for h in heights])

        pairs.append((mode, n, factor(), factor()))
    return pairs


def straightened_columns(left_cols, right_cols, mode, n):
    """on_straighten of the product of column minors [left_cols : right_cols]."""
    sign, s, t = normalize_pair(left_cols, right_cols)
    return on_straighten(s, t, mode, n).scale(sign) if sign else Combination()


def straightened_product(a, b, mode, n):
    """st(A) times st(B), multiplied out and each product term straightened again."""
    terms = []
    for x in a:
        for y in b:
            for z in straightened_columns(x.left.columns() + y.left.columns(),
                                          x.right.columns() + y.right.columns(), mode, n):
                terms.append(BidetTerm(z.coef * x.coef * y.coef,
                                       z.gamma_pow + x.gamma_pow + y.gamma_pow,
                                       z.left, z.right))
    return Combination(terms)


def products_disagree(mode, n, a, b):
    whole = straightened_columns(a[0] + b[0], a[1] + b[1], mode, n)
    return whole != straightened_product(straightened_columns(*a, mode, n),
                                         straightened_columns(*b, mode, n), mode, n)


def test_products_agree_with_their_straightened_factors(monkeypatch):
    # [A u B : A' u B'] is the product [A : A'] [B : B'], and the standard
    # expansion is unique: straightening the whole pair must give the product
    # of the factors' expansions, each product term straightened again
    on_module = importlib.import_module("obidet.on_straighten")
    repair = on_module._repair_terms
    kinds = Counter()

    def counting(kind, *args):
        kinds[kind] += 1
        return repair(kind, *args)

    monkeypatch.setattr(on_module, "_repair_terms", counting)
    for mode, n, a, b in product_pairs():
        assert not products_disagree(mode, n, a, b), (mode, n, a, b)
    assert set(kinds) == {"COLSUM", "OS1", "OS2", "OS3"}


@pytest.mark.parametrize("wrong_kind", ["COLSUM", "OS1", "OS2", "OS3"])
def test_products_see_a_wrong_repair_coefficient(monkeypatch, wrong_kind):
    on_module = importlib.import_module("obidet.on_straighten")
    repair = on_module._repair_terms

    def perturbed(kind, *args):
        terms = repair(kind, *args)
        if kind == wrong_kind and terms:
            (coef, left, right), *rest = terms
            terms = [(coef + 1, left, right), *rest]
        return terms

    monkeypatch.setattr(on_module, "_repair_terms", perturbed)
    assert any(products_disagree(*pair) for pair in product_pairs())


def normalizing_splice(left_cols, right_cols, i, j, blocks):
    """The splice of blocks that are not known to be normalized, for reference.

    Each term goes back to columns i and j when it keeps their lengths, else
    at i, the whole pair goes through normal_columns, and its column pairs
    are sorted by (-length, left column, right column).
    """
    lengths = (len(left_cols[i]), len(left_cols[j]))

    def put_back(cols, block):
        rest = [c for k, c in enumerate(cols) if k not in (i, j)]
        if tuple(len(c) for c in block) == lengths:
            rest.insert(i, block[0])
            rest.insert(j, block[1])
            return rest
        return rest[:i] + list(block) + rest[i:]

    out = []
    for coef, block_left, block_right in blocks:
        sign, new_left, new_right = normal_columns(put_back(left_cols, block_left),
                                                   put_back(right_cols, block_right))
        if sign:
            pairs = sorted(zip(new_left, new_right), key=lambda p: (-len(p[0]), p))
            out.append((coef * sign, tuple(p[0] for p in pairs), tuple(p[1] for p in pairs)))
    return out


def test_rewrite_blocks_are_normalized(deep_corpus_run):
    # splice_block takes every block as it is, so each rule must return
    # strictly increasing columns of non-increasing lengths, none empty: the
    # normal forms, the switches' one-step rewrites and the repairs
    repairs = deep_corpus_run["repairs"]
    assert {kind for kind, _ in repairs} == {"COLSUM", "OS1", "OS2", "OS3"}
    blocks = [term for key in ("rewrites", "switches")
              for _, _, terms in deep_corpus_run[key] for term in terms]
    blocks += [term for _, terms in repairs for term in terms]
    assert len(blocks) > 10000
    for _, left, right in blocks:
        assert normal_columns(left, right) == (1, left, right)


def test_splice_matches_the_normalizing_splice(deep_corpus_run):
    splices = deep_corpus_run["splices"]
    assert sum(len(out) for *_, out in splices) > 10000
    for left, right, i, j, blocks, out in splices:
        assert [(coef, *pair) for coef, pair, _ in out] == normalizing_splice(
            left, right, i, j, blocks)


def raw_normal_form(s_cols, t_cols):
    """A block's GL normal form with no table: the heap loop, one raw two-column rewrite a call."""
    gl_module = importlib.import_module("obidet.gl_straighten")

    class RawRule(gl_module.Rule):
        def _block(self, v, right):
            rewrite = _two_column_rewrite
            return v.witness - 1, v.witness, gl_module._swapped(rewrite) if right else rewrite

    leaves = gl_module._heap_pass(gl_module._canonical(zip(s_cols, t_cols)), 1, RawRule(), FUEL)
    return [(coef, *pair) for pair, coef in leaves.items()]


def test_template_rewrite_matches_the_raw_kernel(deep_corpus_run):
    # on every two-column block of the deep corpus's rewrite graphs: the
    # normal form of each GL step's block, relabelled from its rank key, is
    # the one the raw kernel gives on the letters, term for term and in the
    # same order; and the switched block of each OS3 step
    rewrites, switches = deep_corpus_run["rewrites"], deep_corpus_run["switches"]
    assert len(rewrites) == DEEP_CORPUS_STEPS["GL"]
    assert len(switches) == DEEP_CORPUS_STEPS["OS3"]
    for s_cols, t_cols, terms in rewrites:
        assert terms == raw_normal_form(s_cols, t_cols)
    for s_cols, t_cols, terms in switches:
        assert {(left, right): coef for coef, left, right in terms} == {
            (left, right): coef for coef, left, right in _two_column_rewrite(s_cols, t_cols)}


def record_normal_builds(monkeypatch):
    """Record the rank key of each normal form the table builds, in the list returned."""
    gl_module = importlib.import_module("obidet.gl_straighten")
    build, built = gl_module._Template.normal_form, []

    def recording_build(entry, fuel):
        if entry.normal is None:
            built.append(entry.key)
        return build(entry, fuel)

    monkeypatch.setattr(gl_module._Template, "normal_form", recording_build)
    return built


def test_each_template_is_computed_once_per_process(monkeypatch):
    # the table is keyed on the letters' rank pattern alone: a call on an
    # empty table computes each pattern's one-step rewrite once and each
    # normal form a GL step asks for once, and a later call on another
    # pair, n or mode with the same patterns computes neither
    gl_module = importlib.import_module("obidet.gl_straighten")
    rewrite, step = gl_module._two_column_rewrite, gl_module._template_rewrite
    computed, served = [], []

    def counting_rewrite(s_cols, t_cols):
        computed.append((s_cols, t_cols))
        return rewrite(s_cols, t_cols)

    def counting_step(s_cols, t_cols):
        served.append((s_cols, t_cols))
        return step(s_cols, t_cols)

    monkeypatch.setattr(gl_module, "_two_column_rewrite", counting_rewrite)
    monkeypatch.setattr(gl_module, "_template_rewrite", counting_step)
    monkeypatch.setattr(importlib.import_module("obidet.on_straighten"),
                        "_template_rewrite", counting_step)
    built = record_normal_builds(monkeypatch)
    s, t = Tableau.parse("1b 3b 1; 3b 3"), Tableau.parse("2 1 1b; 3b 3b")
    # a monotone relabelling into alphabet(8) keeps every order pattern
    relabel = dict(zip(_letters(6), _letters(8)[1:7]))
    s8, t8 = (Tableau.from_columns([[relabel[x] for x in col] for col in side.columns()])
              for side in (s, t))
    gl = gl_module.gl_straighten
    for cold, warm in ((functools.partial(gl, s, t, 6), functools.partial(gl, s8, t8, 8)),
                       (functools.partial(on_straighten, s, t, ON, 6),
                        functools.partial(on_straighten, s, t, GO, 6))):
        gl_module._template.cache_clear()
        for calls in (computed, served, built):
            calls.clear()
        trace, warm_trace = [], []
        cold(trace=trace)
        # the one-step rewrites served: those of the normal forms' builds
        # and of the OS3 switches
        rewrites = len(served)
        assert len(set(computed)) == len(computed)
        assert 0 < len(computed) < rewrites
        # an entry holds a one-step rewrite, a normal form or both
        assert gl_module._template.cache_info().currsize == len({*computed, *built})
        assert len(set(built)) == len(built)
        assert 0 < len(built) < sum(kind == "GL" for kind, _, _ in trace)
        computed.clear()
        built.clear()
        warm(trace=warm_trace)
        assert computed == [] and built == []
        assert warm_trace == trace


def test_warm_templates_give_the_cold_certificates(monkeypatch):
    # the deep corpus straightened on an empty table, then again in reverse
    # order on the table it filled: no template and no normal form is
    # computed the second time, and every certificate is byte-identical
    gl_module = importlib.import_module("obidet.gl_straighten")
    built = record_normal_builds(monkeypatch)
    pairs = deep_corpus_pairs()
    gl_module._template.cache_clear()
    cold = [on_straighten(s, t, mode, n).certificate() for mode, n, s, t in pairs]
    filled, cold_built = gl_module._template.cache_info(), len(built)
    warm = [on_straighten(s, t, mode, n).certificate() for mode, n, s, t in reversed(pairs)]
    assert gl_module._template.cache_info().misses == filled.misses
    assert gl_module._template.cache_info().hits > filled.hits
    assert len(built) == cold_built > 0
    assert warm[::-1] == cold
