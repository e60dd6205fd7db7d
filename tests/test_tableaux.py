import copy
import itertools
import pickle
import random

import pytest

from obidet.tableaux import (
    DomainError,
    Letter,
    Tableau,
    ZERO,
    _bar_positions,
    _columns_increasing,
    _letters,
    alphabet,
    all_fillings,
    basic_tableau,
    check_shape,
    column_violations,
    conjugate,
    dominance_lt,
    enumerate_gl_standard,
    enumerate_on_standard,
    is_gl_standard,
    on_standard_report,
    partitions_of,
    row_violation_column,
    shape_key,
    shape_order_lt,
    sparse_torus_weight,
    tableau_prec_cmp,
    torus_weight,
)


def L(token):
    return Letter.parse(token)


def T(text):
    return Tableau.parse(text)


# ---------------------------------------------------------------------------
# alphabet and the bar involution
# ---------------------------------------------------------------------------

def test_alphabet_examples():
    assert [str(x) for x in alphabet(4)] == ["1b", "1", "2b", "2"]
    assert [str(x) for x in alphabet(5)] == ["1b", "1", "2b", "2", "0"]
    assert [str(x) for x in alphabet(3)] == ["1b", "1", "0"]


def test_alphabet_rejects_small_n():
    with pytest.raises(DomainError):
        alphabet(2)


def test_alphabet_order_and_length():
    for n in range(3, 11):
        letters = alphabet(n)
        assert len(letters) == n
        assert all(a < b for a, b in zip(letters, letters[1:]))
        assert (ZERO in letters) == (n % 2 == 1)


def test_bar_involution():
    assert L("2b").bar() == L("2")
    assert L("3").bar().bar() == L("3")
    assert ZERO.bar() == ZERO
    for n in range(3, 11):
        for x in alphabet(n):
            assert x.bar().bar() == x


def test_letter_parse_rejects_garbage():
    for bad in ["", "x", "-1", "0b", "1bb", "01", "007b", "00"]:
        with pytest.raises(DomainError):
            Letter.parse(bad)


def test_letter_codes_follow_the_alphabet():
    for n in range(3, 42):
        letters = alphabet(n)
        codes = [x.key for x in letters]
        assert all(type(c) is int for c in codes)
        assert all(a < b for a, b in zip(codes, codes[1:]))
        assert all(x < ZERO for x in letters if x != ZERO)
        for x in letters:
            assert x
            back = Letter.parse(str(x))
            assert type(back) is Letter and back == x and hash(back) == hash(x)
            bar = x.bar()
            assert type(bar) is Letter and bar in letters and bar.bar() == x
            assert (bar == x) == (x == ZERO)
    assert Letter(2**61 - 1) < ZERO


def test_letter_index_bound():
    top = Letter(2**61 - 1, barred=True)
    assert Letter.parse(str(top)) == top and top.bar().index == 2**61 - 1
    with pytest.raises(DomainError):
        Letter(2**61)
    with pytest.raises(DomainError):
        Letter.parse("2305843009213693952")


def test_letter_copies_keep_the_letter():
    for x in alphabet(5):
        assert copy.copy(x) == x
        restored = pickle.loads(pickle.dumps(x))
        assert type(restored) is Letter and restored == x


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

def test_tableau_size_is_stored_with_the_shape():
    # evaluation reads the size of every term at every point: it is a slot
    # filled once, not a sum over the shape on each read
    assert "size" in Tableau.__slots__
    for t in (T("-"), T("1b 2; 1"), Tableau.from_columns([[L("1b"), L("1")], [L("2")], []])):
        assert t.size == sum(t.shape)
    with pytest.raises(AttributeError):
        T("1").size = 2


def test_conjugate_examples():
    assert conjugate((2, 2, 1)) == (3, 2)
    assert conjugate((4, 1)) == (2, 1, 1, 1)
    assert conjugate((1,)) == (1,)


def test_conjugate_involution():
    for r in range(1, 13):
        for shape in partitions_of(r):
            assert conjugate(conjugate(shape)) == shape


def test_dominance_examples():
    assert dominance_lt((2, 2, 1), (4, 1))
    assert not dominance_lt((3, 1), (3, 1))
    assert not dominance_lt((3, 1), (2, 2))


def test_dominance_size_mismatch():
    with pytest.raises(DomainError):
        dominance_lt((2,), (2, 1))


def test_dominance_strict_partial_order():
    for r in range(1, 9):
        shapes = list(partitions_of(r))
        for a in shapes:
            assert not dominance_lt(a, a)
            for b in shapes:
                if dominance_lt(a, b):
                    assert not dominance_lt(b, a)
                for c in shapes:
                    if dominance_lt(a, b) and dominance_lt(b, c):
                        assert dominance_lt(a, c)


def test_shape_order_examples():
    assert shape_order_lt((1,), (2,))
    assert shape_order_lt((2, 2, 1), (4, 1))
    assert shape_order_lt((2, 2), (3, 1))


def test_shape_order_total_and_refines_dominance():
    for r in range(1, 9):
        shapes = list(partitions_of(r))
        for a in shapes:
            for b in shapes:
                if a == b:
                    assert not shape_order_lt(a, b)
                else:
                    assert shape_order_lt(a, b) != shape_order_lt(b, a)
                if dominance_lt(a, b):
                    assert shape_order_lt(a, b)
    # smaller size always first
    assert shape_order_lt((5,), (1, 1, 1, 1, 1, 1))


def test_check_shape_rejects_bad_input():
    with pytest.raises(DomainError):
        check_shape((1, 2))
    with pytest.raises(DomainError):
        check_shape((2, 0))


# ---------------------------------------------------------------------------
# tableau structure, parsing, order
# ---------------------------------------------------------------------------

def test_parse_format_roundtrip():
    text = "1b 2b; 1 2; 2"
    t = T(text)
    assert t.shape == (2, 2, 1)
    assert t.format() == text
    assert t.columns() == ((L("1b"), L("1"), L("2")), (L("2b"), L("2")))
    assert Tableau.parse(t.format()) == t


def test_parse_rejects_ragged():
    with pytest.raises(DomainError):
        Tableau.parse("1; 1 2")
    with pytest.raises(DomainError):
        Tableau.parse("1 2; ; 2")


def test_empty_tableau():
    empty = Tableau(())
    assert empty.shape == ()
    assert empty.format() == "-"
    assert Tableau.parse("-") == empty


def test_rows_and_columns_round_trip():
    for r in range(1, 5):
        for shape in partitions_of(r):
            for t in enumerate_gl_standard(shape, 5):
                for other in (Tableau(t.rows), Tableau.from_columns(t.columns())):
                    assert other == t and hash(other) == hash(t)
                    assert other.shape == t.shape


def test_tableau_entries_must_be_letters():
    # letters are ints, but a plain int is no letter
    with pytest.raises(DomainError):
        Tableau([[3]])
    with pytest.raises(DomainError):
        Tableau.from_columns([[3]])
    with pytest.raises(DomainError):
        Tableau.from_columns([[L("1")], [L("1b"), L("2")]])


def compositions(r):
    """Every sequence of positive ints summing to r."""
    for cuts in itertools.product((False, True), repeat=max(r - 1, 0)):
        parts, run = [], 1
        for cut in cuts:
            if cut:
                parts.append(run)
                run = 0
            run += 1
        yield tuple(parts + [run]) if r else ()


def test_from_columns_shape_is_the_conjugate_of_the_lengths():
    letters = _letters(14)
    checked = refused = 0
    for r in range(8):
        for lengths in compositions(r):
            cols = [letters[:h] for h in lengths]
            if all(a >= b for a, b in zip(lengths, lengths[1:])):
                assert Tableau.from_columns(cols).shape == conjugate(lengths)
                checked += 1
            else:
                with pytest.raises(DomainError, match="weakly decreasing"):
                    Tableau.from_columns(cols)
                refused += 1
    assert (checked, refused) == (45, 83)   # partitions, and the other compositions
    with pytest.raises(DomainError, match="must be letters"):
        Tableau.from_columns([letters[:2], [letters[0].key]])


def _prec_reference(t1, t2):
    """Independent restatement: scan columns right to left, rows top down."""
    if t1 == t2:
        return 0
    cols1, cols2 = t1.columns(), t2.columns()
    for j in reversed(range(len(cols1))):
        c1, c2 = cols1[j], cols2[j]
        if c1 != c2:
            for a, b in zip(c1, c2):
                if a != b:
                    return -1 if a < b else 1
    raise AssertionError("unreachable for distinct tableaux")


def test_prec_examples():
    t = T("1b 1; 2b 2")
    assert tableau_prec_cmp(t, t) == 0
    assert tableau_prec_cmp(T("1b; 1"), T("1b; 2b")) == -1


def test_prec_exhaustive_shape_22():
    tabs = [t for t in all_fillings((2, 2), 4)]
    sample = tabs[::7]
    for t1 in sample:
        for t2 in sample:
            got = tableau_prec_cmp(t1, t2)
            assert got == _prec_reference(t1, t2)
            assert got == -tableau_prec_cmp(t2, t1)


def test_prec_shape_mismatch():
    with pytest.raises(DomainError):
        tableau_prec_cmp(T("1"), T("1; 1b"))


# ---------------------------------------------------------------------------
# standardness
# ---------------------------------------------------------------------------

def test_gl_standard_examples():
    assert is_gl_standard(T("1b 1; 1"), 3)
    assert not is_gl_standard(T("1 1b"), 3)
    assert not is_gl_standard(T("1b; 1b"), 3)


def test_on_report_standard_example():
    # columns (1, 2b, 2 | 2, 3): the first-column 2 is protected
    t = Tableau.from_columns([[L("1"), L("2b"), L("2")], [L("2"), L("3")]])
    report = on_standard_report(t, 7)
    assert report.standard
    assert report.violations == ()


def test_on_report_os1_example():
    s = Tableau.from_columns([[L("1b"), L("2b"), L("2")], [L("2b"), L("2")]])
    report = on_standard_report(s, 6)
    kinds = [(v.kind, v.witness) for v in report.violations]
    assert ("OS1", 2) in kinds
    assert report.alpha[1] == 3 and report.beta[1] == 2


def test_on_report_os2_example():
    s = Tableau.from_columns([[L("1b"), L("1"), L("2")], [L("2b")]])
    report = on_standard_report(s, 7)
    kinds = [(v.kind, v.witness) for v in report.violations]
    assert kinds == [("OS2", 2)]


def test_on_report_os3_example():
    s = T("1 1; 2b 2; 3")
    report = on_standard_report(s, 6)
    assert [(v.kind, v.witness, v.column) for v in report.violations] == [("OS3", 2, 2)]


def test_on_report_colsum():
    s = T("1b 1b; 1 1")
    report = on_standard_report(s, 3)
    assert report.violations[0].kind == "COLSUM"


def test_on_report_flags_non_gl():
    report = on_standard_report(T("1 1b"), 4)
    assert not report.standard
    assert report.violations[0].kind == "GL"


def test_on_standard_implies_gl_standard():
    for shape in [(2,), (1, 1), (2, 1), (2, 2)]:
        for t in enumerate_on_standard(shape, 4):
            assert is_gl_standard(t, 4)


def test_alpha_beta_weakly_increasing():
    for t in enumerate_gl_standard((2, 2), 5):
        report = on_standard_report(t, 5)
        assert all(a <= b for a, b in zip(report.alpha, report.alpha[1:]))
        assert all(a <= b for a, b in zip(report.beta, report.beta[1:]))


def _full_scan_report(t, n):
    """Reference: the standardness report that scans every index up to n // 2."""
    m = n // 2
    cols = t.columns()
    col1 = cols[0] if len(cols) >= 1 else ()
    col2 = cols[1] if len(cols) >= 2 else ()
    tops = [Letter(i) for i in range(1, m + 1)]
    alpha = tuple(sum(1 for x in col1 if x <= top) for top in tops)
    beta = tuple(sum(1 for x in col2 if x <= top) for top in tops)
    if not is_gl_standard(t, n):
        return False, (("GL", 0, 0),), alpha, beta
    violations = []
    if len(col1) + len(col2) > n:
        violations.append(("COLSUM", 0, 0))
    os_violations = []
    for i, (letter, a, b) in enumerate(zip(tops, alpha, beta), start=1):
        if a + b > 2 * i:
            os_violations.append(("OS1", i, 0))
        elif a + b == 2 * i and a > b:
            if (a >= 1 and len(col1) >= a and col1[a - 1] == letter
                    and b >= 1 and len(col2) >= b and col2[b - 1] == letter.bar()
                    and not (a >= 2 and col1[a - 2] == letter.bar())):
                os_violations.append(("OS2", i, 0))
        elif a + b == 2 * i and len(col1) >= i and col1[i - 1] == letter.bar():
            for col_b, col in enumerate(cols[1:], start=2):
                if len(col) < i:
                    break
                if col[i - 1] == letter and letter.bar() not in col[:i - 1]:
                    os_violations.append(("OS3", i, col_b))
    os_violations.sort(key=lambda v: (v[1], ("OS1", "OS2", "OS3").index(v[0]), v[2]))
    violations += os_violations
    return not violations, tuple(violations), alpha, beta


@pytest.mark.parametrize("n", range(5, 10))
def test_on_report_matches_a_full_scan(n):
    # the report scans only the indices its columns 1 and 2 can reach
    for size in range(5):
        for shape in partitions_of(size, max_rows=n):
            for t in enumerate_gl_standard(shape, n):
                report = on_standard_report(t, n)
                kinds = tuple((v.kind, v.witness, v.column) for v in report.violations)
                assert (report.standard, kinds, report.alpha, report.beta) == \
                    _full_scan_report(t, n), t.format()
    # alpha and beta keep their tails on tableaux that are not GL-standard
    for t in (T("1 1b"), T("4 2; 1b"), T("0 3b; 1")):
        report = on_standard_report(t, n)
        assert (report.alpha, report.beta) == _full_scan_report(t, n)[2:]


@pytest.mark.parametrize("n", range(3, 10))
def test_first_column_violation_matches_the_report(n):
    # the driver's verdict is the first item of the lazy column scan; it
    # must be the report's first violation on every filling, GL-standard or not
    for size in range(5):
        for shape in partitions_of(size, max_rows=n):
            for t in all_fillings(shape, n):
                first = tuple(itertools.islice(column_violations(t.columns(), n), 1))
                assert first == on_standard_report(t, n).violations[:1], t.format()


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def test_basic_tableau_examples():
    assert basic_tableau((2, 1), 3).rows == ((L("1b"), L("1b")), (L("1"),))
    assert basic_tableau((1, 1, 1), 6).columns() == ((L("1b"), L("1"), L("2b")),)
    assert basic_tableau((1,), 5) == T("1b")


def test_basic_tableau_too_many_rows():
    with pytest.raises(DomainError):
        basic_tableau((1, 1, 1, 1), 3)


# ---------------------------------------------------------------------------
# the bottom-move shape drop
# ---------------------------------------------------------------------------

def test_bottom_move_drops_dominance():
    for r in range(2, 7):
        for lam in partitions_of(r):
            cols = list(conjugate(lam))
            for j in range(1, len(cols)):
                for i in range(j):
                    new = list(cols)
                    new[i] += 1
                    new[j] -= 1
                    moved = sorted((x for x in new if x > 0), reverse=True)
                    if moved != sorted(new, reverse=True) or any(
                            a < b for a, b in zip(moved, moved[1:])):
                        continue
                    if new != moved:
                        continue  # not a legal bottom move in place
                    mu = conjugate(tuple(moved))
                    assert dominance_lt(mu, lam), (lam, mu)


# ---------------------------------------------------------------------------
# enumeration against a brute-force oracle
# ---------------------------------------------------------------------------

def _oracle_standard(shape, n):
    return sorted(
        (t for t in all_fillings(shape, n) if on_standard_report(t, n).standard),
        key=Tableau.prec_key,
    )


def test_enumerate_single_cell():
    got = list(enumerate_on_standard((1,), 4))
    assert [t.format() for t in got] == ["1b", "1", "2b", "2"]


def test_enumerate_full_column_n4():
    got = list(enumerate_on_standard((1, 1, 1, 1), 4))
    assert got == _oracle_standard((1, 1, 1, 1), 4)


def test_enumerate_row_n3():
    got = list(enumerate_on_standard((2,), 3))
    assert got == _oracle_standard((2,), 3)


def test_enumerate_column_condition_empty():
    assert list(enumerate_on_standard((1, 1, 1, 1), 3)) == []


def test_enumerate_matches_oracle_small():
    for n in (3, 4, 5, 6):
        for r in range(1, 5):
            for shape in partitions_of(r, max_rows=n):
                got = list(enumerate_on_standard(shape, n))
                assert got == _oracle_standard(shape, n), (shape, n)


def test_enumerate_matches_oracle_size5():
    for n in (3, 4, 5, 6):
        for shape in partitions_of(5, max_rows=n):
            got = list(enumerate_on_standard(shape, n))
            assert got == _oracle_standard(shape, n), (shape, n)


def test_enumerate_in_increasing_order():
    for shape in [(2, 1), (2, 2)]:
        tabs = list(enumerate_on_standard(shape, 4))
        for a, b in zip(tabs, tabs[1:]):
            assert tableau_prec_cmp(a, b) == -1


def test_torus_weight():
    # +1 at i for i, -1 at i for ib; the parity of the 0 letters for odd n
    assert torus_weight(Tableau.parse("1b 1; 2 0"), 5) == (0, 1, 1)
    assert torus_weight(Tableau.parse("1b 0; 2b 0"), 5) == (-1, -1, 0)
    assert torus_weight(Tableau.parse("1b 1b; 2 2"), 4) == (-2, 2)
    assert torus_weight(Tableau(()), 3) == (0, 0)


def test_sparse_torus_weight_is_the_nonzero_part():
    # the nonzero exponents by index and the parity of the 0 letters
    assert sparse_torus_weight(Tableau.parse("1b 1; 2 0").columns()) == ({2: 1}, 1)
    assert sparse_torus_weight(Tableau.parse("1b 0; 2b 0").columns()) == ({1: -1, 2: -1}, 0)
    assert sparse_torus_weight(()) == ({}, 0)
    for t in all_fillings((2, 1), 5):
        exponents, zeros = sparse_torus_weight(t.columns())
        assert torus_weight(t, 5) == tuple(exponents.get(i, 0) for i in (1, 2)) + (zeros,)


def test_bar_positions_are_the_letter_bars():
    for n in range(1, 10):
        letters = _letters(n)
        assert _bar_positions(n) == [letters.index(x.bar()) for x in letters]


# ---------------------------------------------------------------------------
# the hot helpers against their plain forms, kept here as the reference
# ---------------------------------------------------------------------------

def _format_reference(t):
    return "; ".join(" ".join(map(str, row)) for row in t.rows) or "-"


def _sparse_torus_weight_reference(cols):
    exponents = {}
    zeros = 0
    for col in cols:
        for x in col:
            if x.index == 0:
                zeros ^= 1
            else:
                exponents[x.index] = exponents.get(x.index, 0) + (-1 if x.barred else 1)
    return {i: e for i, e in exponents.items() if e}, zeros


def _row_violation_column_reference(cols):
    for c in range(len(cols) - 1):
        if any(x > y for x, y in zip(cols[c], cols[c + 1])):
            return c
    return None


def _columns_increasing_reference(cols):
    return all(a < b for col in cols for a, b in zip(col, col[1:]))


def _random_columns(rng, letters, sort):
    """Columns of random non-increasing lengths, letters drawn with repeats, sorted or not."""
    lengths = sorted((rng.randint(1, 4) for _ in range(rng.randint(0, 4))), reverse=True)
    cols = [[rng.choice(letters) for _ in range(k)] for k in lengths]
    return tuple(tuple(sorted(col) if sort else col) for col in cols)


def test_format_matches_the_row_reference():
    # every O(n)-standard tableau of at most 4 boxes, n = 3..8
    checked = 0
    for n in range(3, 9):
        for size in range(5):
            for shape in partitions_of(size, max_rows=n):
                for t in enumerate_on_standard(shape, n):
                    assert t.format() == _format_reference(t)
                    checked += 1
    assert checked > 1000
    # random fillings that hold the 0 letter, and letters of two-digit index
    rng = random.Random(35)
    letters = [*_letters(7), Letter(12), Letter(12, True), Letter(123)]
    for _ in range(500):
        cols = _random_columns(rng, letters, rng.random() < 0.5) + ((ZERO,),)
        t = Tableau.from_columns(sorted(cols, key=len, reverse=True))
        assert any(ZERO in col for col in t.columns())
        assert t.format() == _format_reference(t)
        assert Tableau.parse(t.format()) == t


def test_sparse_torus_weight_matches_the_letter_reference():
    rng = random.Random(36)
    letters = [*_letters(9), Letter(40), Letter(40, True)]
    for _ in range(2000):
        cols = _random_columns(rng, letters, rng.random() < 0.5)
        assert sparse_torus_weight(cols) == _sparse_torus_weight_reference(cols), cols


def test_row_and_column_scans_match_the_references():
    # unsorted columns too: on_standard_report and the output check see them
    rng = random.Random(37)
    letters = _letters(8)
    seen = set()
    for _ in range(4000):
        cols = _random_columns(rng, letters, rng.random() < 0.5)
        row, increasing = row_violation_column(cols), _columns_increasing(cols)
        assert row == _row_violation_column_reference(cols), cols
        assert increasing == _columns_increasing_reference(cols), cols
        seen.add((row is None, increasing))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}
