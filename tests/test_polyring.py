import math
import random
import time

import pytest

from obidet.tableaux import DomainError, Letter, Tableau, _letters
from obidet.polyring import (
    GF,
    CoeffDomain,
    LetterMatrix,
    Polynomial,
    QQ,
    ZHALF,
    _is_prime,
    bideterminant,
    det_poly,
    det_rows,
    eval_bideterminant,
    eval_minor,
    gamma_poly,
    is_dyadic,
    minor,
    rational,
)
from obidet.group_oracle import _fraction_free_solve


def L(token):
    return Letter.parse(token)


def random_matrix(n, rng, spread=3):
    return LetterMatrix(n, [
        [rational(rng.randint(-spread, spread), rng.randint(1, spread))
         for _ in range(n)] for _ in range(n)])


# ---------------------------------------------------------------------------
# coefficient domains
# ---------------------------------------------------------------------------

def test_domain_parsing():
    assert CoeffDomain.parse("q") == QQ
    assert CoeffDomain.parse("zhalf") == ZHALF
    assert CoeffDomain.parse("f5") == GF(5)
    with pytest.raises(DomainError):
        CoeffDomain.parse("f4")
    with pytest.raises(DomainError):
        CoeffDomain.parse("f2")
    with pytest.raises(DomainError):
        CoeffDomain.parse("r")


def trial_division_is_prime(p):
    return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


def test_primality_is_fast_and_exact():
    # Miller-Rabin with the prime bases up to 37 agrees with trial division
    assert all(_is_prime(p) == trial_division_is_prime(p) for p in range(10 ** 5))
    start = time.perf_counter()
    assert CoeffDomain.parse(f"f{2 ** 61 - 1}") == GF(2 ** 61 - 1)
    assert _is_prime(2 ** 64 - 59)          # the largest prime below 2^64
    assert time.perf_counter() - start < 1
    for carmichael in (561, 41041):
        assert not _is_prime(carmichael)
        with pytest.raises(DomainError):
            GF(carmichael)
    # above 2^64 the bases are not known to be exact, so the modulus is refused
    for text in (f"f{2 ** 64 + 13}", f"f{2 ** 89 - 1}", "f" + "9" * 5000):
        with pytest.raises(DomainError, match="below 2"):
            CoeffDomain.parse(text)
    with pytest.raises(DomainError):
        CoeffDomain.parse("f\u00b2")   # a digit that int() does not read


def test_dyadic_membership():
    assert is_dyadic(rational(3, 8))
    assert is_dyadic(rational(5, 1))
    assert not is_dyadic(rational(1, 3))
    assert ZHALF.validate(rational(-7, 16))
    assert not ZHALF.validate(rational(1, 6))


def test_gf_reduce_rational():
    d = GF(5)
    assert d.reduce_rational(rational(7, 3)) == 4
    assert type(d.reduce_rational(rational(7, 3))) is int
    assert d.reduce_rational(rational(-7, 3)) == 1    # canonical, in [0, p)
    assert d.reduce_rational(rational(1, 5)) is None
    assert d.validate(4) and not d.validate(5) and not d.validate(rational(4))


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def test_letter_matrix_entry_indexing():
    m = LetterMatrix.identity(4)
    assert m.entry(L("2b"), L("2b")) == 1
    assert m.entry(L("1"), L("2")) == 0
    # the letter index is built once per n and shared, not once per matrix
    assert LetterMatrix(4, m.rows)._index is m._index


def _cleared(rows):
    """The integer matrix D rows and D, the lcm of the entry denominators."""
    d = math.lcm(*(x.denominator for r in rows for x in r))
    return [[int(x * d) for x in r] for r in rows], d


def test_matrix_inverse_roundtrip():
    # the integer kernel of the Cayley draws: a x = (det a) I for a = D rows
    rng = random.Random(0)
    rows = [[rational(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(4)]
            for _ in range(4)]
    a, d = _cleared(rows)
    solved = _fraction_free_solve(a, [[1 if i == j else 0 for j in range(4)] for i in range(4)])
    assert (solved is None) == (det_rows(rows) == 0)
    if solved is not None:
        x, det = solved
        assert det == det_rows(rows) * d ** 4
        inv = [[rational(v * d, det) for v in r] for r in x]
        prod = [[sum(rows[i][k] * inv[k][j] for k in range(4)) for j in range(4)]
                for i in range(4)]
        assert all(prod[i][j] == (1 if i == j else 0)
                   for i in range(4) for j in range(4))


def test_solve_general_right_side_and_singular():
    rng = random.Random(3)
    for _ in range(20):
        a = [[rational(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4)]
             for _ in range(4)]
        b = [[rational(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)]
             for _ in range(4)]
        (ia, da), (ib, db) = _cleared(a), _cleared(b)
        solved = _fraction_free_solve(ia, ib)
        if det_rows(a):
            x, det = solved
            assert all(type(v) is int for r in x for v in r) and det == det_rows(a) * da ** 4
            # a x = det b over the integers, so a (da x / (det db)) = b
            assert [[sum(ia[i][k] * x[k][j] for k in range(4)) for j in range(3)]
                    for i in range(4)] == [[det * v for v in r] for r in ib]
            y = [[rational(v * da, det * db) for v in r] for r in x]
            assert [[sum(a[i][k] * y[k][j] for k in range(4)) for j in range(3)]
                    for i in range(4)] == b
        else:
            assert solved is None
    # the third row is the sum of the first two
    singular = [[1, 2, 0], [0, 1, 3], [1, 3, 3]]
    assert _fraction_free_solve(singular, [[1], [0], [0]]) is None


def test_det_rows_matches_minor_eval():
    rng = random.Random(1)
    m = random_matrix(4, rng)
    letters = _letters(4)
    assert det_rows(m.rows) == eval_minor(letters, letters, m)


def test_det_rows_is_exact():
    # int entries give an int, with no rounding however large they are
    b = 2 ** 60 + 1
    for rows, det in (([[2, 1], [1, 2]], 3), ([[b, 1], [1, b]], b * b - 1),
                      ([[1, 2], [2, 4]], 0), ([], 1)):
        assert det_rows(rows) == det and type(det_rows(rows)) is int
    half, third = rational(1, 2), rational(1, 3)
    assert det_rows([[half, third], [rational(1, 5), rational(1, 7)]]) == rational(1, 210)
    assert det_rows([[half, 1], [1, 2]]) == 0


# ---------------------------------------------------------------------------
# minors
# ---------------------------------------------------------------------------

def test_minor_empty_is_one():
    assert minor([], []) == Polynomial.constant(1)


def test_minor_two_by_two():
    i, ib, j, k = L("1"), L("1b"), L("2b"), L("2")
    got = minor([i, ib], [j, k])
    expected = (Polynomial.variable(i, j) * Polynomial.variable(ib, k)
                - Polynomial.variable(i, k) * Polynomial.variable(ib, j))
    assert got == expected


def test_minor_repeated_index_vanishes():
    assert minor([L("1"), L("1")], [L("1b"), L("2")]).is_zero()
    assert minor([L("1"), L("2")], [L("1b"), L("1b")]).is_zero()


def test_minor_one_by_one():
    assert minor([L("1b")], [L("1")]) == Polynomial.variable(L("1b"), L("1"))


def test_minor_length_mismatch():
    with pytest.raises(DomainError):
        minor([L("1")], [L("1"), L("2")])


def test_minor_is_the_leibniz_sum():
    # k! monomials of coefficient +-1, one per permutation, and the value at
    # an integer matrix is the determinant of its submatrix
    rng = random.Random(18)
    n = 7
    letters = _letters(n)
    point = LetterMatrix(n, [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
    for k in range(7):
        rows, cols = rng.sample(letters, k), rng.sample(letters, k)
        got = minor(rows, cols)
        assert len(got.terms) == math.factorial(k)
        assert set(got.terms.values()) <= {1, -1}
        assert got.evaluate(point) == det_rows(
            [[point.entry(r, c) for c in cols] for r in rows])


def test_minor_antisymmetry():
    rng = random.Random(2)
    letters = _letters(5)
    for _ in range(10):
        rows = rng.sample(letters, 3)
        cols = rng.sample(letters, 3)
        swapped = [rows[1], rows[0], rows[2]]
        assert minor(swapped, cols) == -minor(rows, cols)
        cswapped = [cols[0], cols[2], cols[1]]
        assert minor(rows, cswapped) == -minor(rows, cols)


def test_minor_multilinearity_numeric():
    # row multilinearity checked through evaluation at exact matrices
    rng = random.Random(3)
    n = 4
    letters = _letters(n)
    a = random_matrix(n, rng)
    rows_fixed = [letters[0], letters[2]]
    cols = [letters[1], letters[3]]
    # replace the first row label by a formal combination of two labels
    v1 = eval_minor([letters[0], letters[2]], cols, a)
    v2 = eval_minor([letters[1], letters[2]], cols, a)
    combo_rows = [
        [a.entry(letters[0], c) * 2 + a.entry(letters[1], c) * 3 for c in cols],
        [a.entry(letters[2], c) for c in cols],
    ]
    assert det_rows(combo_rows) == 2 * v1 + 3 * v2


# ---------------------------------------------------------------------------
# bideterminants
# ---------------------------------------------------------------------------

def test_bideterminant_single_cell():
    assert bideterminant(Tableau.parse("1b"), Tableau.parse("1")) == \
        Polynomial.variable(L("1b"), L("1"))


def test_bideterminant_one_row_pair():
    s = Tableau.from_columns([[L("1")], [L("1b")]])
    t = Tableau.from_columns([[L("2b")], [L("2")]])
    assert bideterminant(s, t) == \
        Polynomial.variable(L("1"), L("2b")) * Polynomial.variable(L("1b"), L("2"))


def test_bideterminant_shape_mismatch():
    with pytest.raises(DomainError):
        bideterminant(Tableau.parse("1"), Tableau.parse("1; 1b"))


def test_bideterminant_degree_homogeneous():
    rng = random.Random(4)
    letters = _letters(4)
    for shape_cols in [[2], [2, 1], [3, 2]]:
        cols_s = [sorted(rng.sample(letters, k), key=lambda x: x.key) for k in shape_cols]
        cols_t = [sorted(rng.sample(letters, k), key=lambda x: x.key) for k in shape_cols]
        s, t = Tableau.from_columns(cols_s), Tableau.from_columns(cols_t)
        p = bideterminant(s, t)
        assert {sum(e for _, e in mono) for mono in p.terms} == {s.size}
        assert p.degree() == s.size


def test_bideterminant_coefficients_are_integers():
    s = Tableau.parse("1b 1; 2b 2")
    t = Tableau.parse("1b 1; 2b 2")
    p = bideterminant(s, t)
    assert all(isinstance(c, int) for c in p.terms.values())


def test_transpose_law():
    rng = random.Random(5)
    n = 4
    letters = _letters(n)
    a = random_matrix(n, rng)
    at = LetterMatrix(n, zip(*a.rows))
    for _ in range(5):
        cols = [sorted(rng.sample(letters, 2), key=lambda x: x.key),
                [rng.choice(letters)]]
        cols2 = [sorted(rng.sample(letters, 2), key=lambda x: x.key),
                 [rng.choice(letters)]]
        s, t = Tableau.from_columns(cols), Tableau.from_columns(cols2)
        assert bideterminant(s, t).evaluate(at) == bideterminant(t, s).evaluate(a)


# ---------------------------------------------------------------------------
# det and gamma
# ---------------------------------------------------------------------------

def test_det_poly_small():
    assert len(det_poly(3).terms) == 6
    assert det_poly(3).evaluate(LetterMatrix.identity(3)) == 1


def test_det_poly_equals_full_column_bideterminant():
    for n in (3, 4):
        v = Tableau.from_columns([_letters(n)])
        assert det_poly(n) == bideterminant(v, v)


def test_gamma_at_identity():
    for n in (4, 5):
        assert gamma_poly(n).evaluate(LetterMatrix.identity(n)) == 1


def test_gamma_at_dilation_even():
    n = 4
    c = rational(3)
    xi = LetterMatrix.diagonal(n, [c if x.barred else rational(1) for x in _letters(n)])
    assert gamma_poly(n).evaluate(xi) == c


def test_gamma_at_scalar_odd():
    n = 5
    c = rational(2)
    m = LetterMatrix.diagonal(n, [c] * n)
    assert gamma_poly(n).evaluate(m) == c * c


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_evaluate_is_ring_homomorphism():
    rng = random.Random(6)
    n = 3
    a = random_matrix(n, rng)
    letters = _letters(n)
    p = minor(letters[:2], letters[1:])
    q = gamma_poly(n)
    assert (p * q).evaluate(a) == p.evaluate(a) * q.evaluate(a)
    assert (p + q).evaluate(a) == p.evaluate(a) + q.evaluate(a)


def test_eval_bideterminant_matches_symbolic():
    rng = random.Random(7)
    n = 4
    letters = _letters(n)
    a = random_matrix(n, rng)
    for _ in range(5):
        cols_s = [sorted(rng.sample(letters, 2), key=lambda x: x.key)]
        cols_t = [sorted(rng.sample(letters, 2), key=lambda x: x.key)]
        s, t = Tableau.from_columns(cols_s), Tableau.from_columns(cols_t)
        assert eval_bideterminant(s, t, a) == bideterminant(s, t).evaluate(a)


def test_binet_cauchy_columns():
    # one-column expansion over all increasing middle columns
    import itertools
    rng = random.Random(8)
    n = 4
    letters = _letters(n)
    g, a = random_matrix(n, rng), random_matrix(n, rng)
    ga = g @ a
    for k in (1, 2):
        for _ in range(4):
            s = sorted(rng.sample(letters, k), key=lambda x: x.key)
            t = sorted(rng.sample(letters, k), key=lambda x: x.key)
            lhs = eval_minor(s, t, ga)
            rhs = 0
            for u in itertools.combinations(letters, k):
                rhs += eval_minor(s, list(u), g) * eval_minor(list(u), t, a)
            assert lhs == rhs


def test_serialization_graded_lex():
    p = Polynomial.variable(L("1"), L("1")) * Polynomial.variable(L("1"), L("1")) \
        + Polynomial.variable(L("1b"), L("2")).scale(-3)
    lines = p.serialize().splitlines()
    assert lines[0] == "-3 * X(1b,2)"
    assert lines[1] == "1 * X(1,1)^2"
