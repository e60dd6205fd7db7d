import copy
import hashlib
import itertools
import math
import pickle
import random
import weakref
from fractions import Fraction

import pytest

from obidet.tableaux import (
    DomainError,
    Letter,
    Tableau,
    _letters,
    enumerate_on_standard,
    torus_weight,
)
from obidet.polyring import (
    GF,
    LetterMatrix,
    Polynomial,
    QQ,
    bideterminant,
    det_poly,
    det_rows,
    eval_bideterminant,
    gamma_poly,
    rational,
)
from obidet import group_oracle, polyring
from obidet.gl_straighten import BidetTerm, Combination
from obidet.on_straighten import GO, ON
from obidet.group_oracle import (
    GroupPoint,
    _cayley,
    _fraction_free_solve,
    _orthogonal_group_order,
    _pair_shapes,
    _random_nonstandard_pair,
    _suite_points,
    bareiss_rank,
    basis_suite,
    evaluation_rank,
    matrix_rank,
    random_go_point,
    random_on_point,
    standard_basis_elements,
    standard_points,
    verify_on_group,
)


def L(token):
    return Letter.parse(token)


EMPTY = Tableau(())


def constant(c, gamma_pow=0):
    """The function c gamma^k as a bideterminant term: the empty pair."""
    return BidetTerm(c, gamma_pow, EMPTY, EMPTY)


def det_term(n):
    """det as a bideterminant term: the full one-column pair."""
    column = Tableau.from_columns([_letters(n)])
    return BidetTerm(1, 0, column, column)


# ---------------------------------------------------------------------------
# the form and point constructors
# ---------------------------------------------------------------------------

def test_group_point_constructor_rejects_bad_matrix():
    bad = LetterMatrix.diagonal(4, [rational(2), rational(1), rational(1), rational(1)])
    with pytest.raises(DomainError):
        GroupPoint.from_matrix(bad)
    with pytest.raises(DomainError, match="similitude relation"):
        GroupPoint(LetterMatrix.diagonal(4, [2, 1, 1, 1]))
    with pytest.raises(DomainError):   # the integer form takes ints only
        GroupPoint(bad)
    # ints throughout, so the reasons below are the relation, not the types:
    # Gamma != d^2 on the identity, and a common factor 2 whose square
    # does not divide Gamma
    with pytest.raises(DomainError, match="similitude relation"):
        GroupPoint(LetterMatrix.diagonal(4, [1, 1, 1, 1]), 1, 4)
    with pytest.raises(DomainError, match="similitude relation"):
        GroupPoint(LetterMatrix.diagonal(4, [2, 2, 2, 2]), 2, 3)
    # G^t J G is wrong only on its diagonal: at (0, 0), and at (1b, 1b)
    # where the 1b column is e_1b + e_1
    with pytest.raises(DomainError, match="similitude relation"):
        GroupPoint(LetterMatrix.diagonal(3, [1, 1, 2]))
    with pytest.raises(DomainError, match="similitude relation"):
        GroupPoint(LetterMatrix(4, [[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))


def test_group_point_rejects_a_singular_matrix():
    # columns spanning an isotropic subspace satisfy G^t J G = 0 J, so the
    # form alone admits them; a similitude is invertible, so Gamma != 0
    with pytest.raises(DomainError, match="singular"):
        GroupPoint(LetterMatrix(3, [[1, 0, 0], [0, 0, 0], [0, 0, 0]]), 1, 0)
    with pytest.raises(DomainError, match="singular"):
        GroupPoint.from_matrix(LetterMatrix(3, [[0] * 3] * 3), 0)


def test_so_points_many_seeds():
    for n in (3, 4, 5, 6):
        for seed in range(25):
            p = random_on_point(n, seed)
            assert p.det_value == 1
            assert p.gamma_value == 1


def test_cayley_of_zero_is_identity():
    # spread so small that the zero matrix is impossible, but the identity
    # arises when the skew matrix vanishes: check the formula directly on
    # M = D I and N = D I, the cleared form of I + 0 and I - 0
    n, lcm = 4, 6
    ident = [[lcm * (i == j) for j in range(n)] for i in range(n)]
    x, det = _fraction_free_solve(ident, ident)
    assert det == lcm ** n
    assert x == [[det * (i == j) for j in range(n)] for i in range(n)]
    point = GroupPoint(LetterMatrix(n, x), det)   # the identity is a valid point
    assert point.matrix == LetterMatrix.identity(n) and point.denominator == 1
    assert GroupPoint.from_matrix(LetterMatrix.identity(n)).matrix == point.matrix


def _reference_skew(n, seed, spread):
    """The J-skew A = J B of the first draw with I + A invertible, in rationals.

    B is drawn as the Cayley draws do it, one num, den pair per entry above
    the diagonal; also returns the number of singular draws skipped.
    """
    rng = random.Random(seed)
    letters = _letters(n)
    bar = [letters.index(x.bar()) for x in letters]
    for singular in itertools.count():
        b = [[rational(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                num = rng.randint(-spread, spread)
                b[i][j] = rational(num, rng.randint(1, spread))
                b[j][i] = -b[i][j]
        a = [b[i] for i in bar]
        if det_rows([[(r == c) + x for c, x in enumerate(row)] for r, row in enumerate(a)]):
            return a, singular


@pytest.mark.parametrize("n, seed, spread",
                         [(n, seed, spread) for n in range(3, 9) for seed in (0, 5, 11)
                          for spread in (2, 3, 5)]
                         + [(3, 1, 2), (4, 14, 2), (5, 72, 2), (6, 18, 2)])
def test_integer_cayley_solves_the_rational_system(n, seed, spread):
    a, singular = _reference_skew(n, seed, spread)
    if (n, seed) in ((3, 1), (4, 14), (5, 72), (6, 18)) and spread == 2:
        assert singular >= 1   # the first draw is singular and the kernel retries
    x, det = _cayley(n, seed, spread)
    assert det and all(type(v) is int for row in x for v in row)
    g = [[rational(v, det) for v in row] for row in x]
    # (I + A) g = I - A, exactly in rationals
    assert [[sum(((i == k) + a[i][k]) * g[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)] == [[(i == j) - a[i][j] for j in range(n)] for i in range(n)]
    # G = x is an integer form with Gamma = det^2: G^t J G = Gamma J
    letters = _letters(n)
    form = [[int(j == i.bar()) for j in letters] for i in letters]
    gtjg = [[sum(x[k][r] * form[k][l] * x[l][c] for k in range(n) for l in range(n))
             for c in range(n)] for r in range(n)]
    assert gtjg == [[det * det * v for v in row] for row in form]


def test_group_point_integer_form_is_scale_free():
    for p in (random_on_point(5, 3, "MINUS"), random_on_point(4, 9, "PLUS"),
              random_go_point(4, 2, rational(3, 2)), random_go_point(5, 6, rational(-5, 3))):
        g, d, gamma = p._integer_rows, p.denominator, p.integer_gamma
        for k in (1, 2, -3, 12):
            q = GroupPoint(LetterMatrix(p.n, [[k * v for v in row] for row in g]),
                           k * d, k * k * gamma)
            assert (q.matrix, q.denominator, q.integer_gamma, q._integer_rows) == (
                p.matrix, d, gamma, g)
            assert (q.gamma_value, q.det_value) == (p.gamma_value, p.det_value)
    # an O(n) point needs no Gamma: it defaults to d^2
    p = random_on_point(6, 4, "PLUS")
    q = GroupPoint(LetterMatrix(6, [[7 * v for v in row] for row in p._integer_rows]),
                   7 * p.denominator)
    assert q.matrix == p.matrix and q.integer_gamma == p.integer_gamma


def test_minus_component_points():
    for n in (3, 4, 5, 6):
        p = random_on_point(n, 7, "MINUS")
        assert p.det_value == -1
        assert p.gamma_value == 1
        assert det_poly(n).evaluate(p) == -1


def test_reflection_examples():
    # the MINUS point of a seed is its PLUS point times a reflection, a column
    # map: odd n negates the 0 column; even n swaps the 1b and 1 columns
    for n, seed in ((5, 3), (4, 3), (3, 8), (6, 8)):
        plus, minus = (random_on_point(n, seed, c).matrix for c in ("PLUS", "MINUS"))
        columns = dict(zip(_letters(n), zip(*plus.rows)))
        if n % 2:
            columns[L("0")] = tuple(-x for x in columns[L("0")])
        else:
            columns[L("1b")], columns[L("1")] = columns[L("1")], columns[L("1b")]
        assert dict(zip(_letters(n), zip(*minus.rows))) == columns
        assert minus != plus


def test_go_point_gamma_values():
    p = random_go_point(4, 3, rational(3))
    assert p.gamma_value == 3
    assert gamma_poly(4).evaluate(p) == 3
    assert p.det_value ** 2 == rational(3) ** 4
    q = random_go_point(5, 4, rational(2))
    assert q.gamma_value == 4
    assert gamma_poly(5).evaluate(q) == 4


def test_go_point_rejects_zero_scale():
    with pytest.raises(DomainError):
        random_go_point(4, 1, 0)


def test_gamma_is_multiplicative():
    a = random_go_point(4, 11, rational(2))
    b = random_go_point(4, 12, rational(3, 2))
    product = a.matrix @ b.matrix
    point = GroupPoint.from_matrix(product, a.gamma_value * b.gamma_value)
    assert gamma_poly(4).evaluate(point) == a.gamma_value * b.gamma_value


def test_standard_points_distinct_and_mixed():
    pts = standard_points(3, 30, seed=5)
    assert len({p.matrix.rows for p in pts}) == 30
    dets = [p.det_value for p in pts]
    assert dets.count(-1) >= 2 and dets.count(1) >= 2


def _point_line(p, domain=QQ) -> str:
    r = domain.reduce_rational
    rows = ";".join(" ".join(str(r(x)) for x in row) for row in p.matrix.rows)
    return rows + f"|{r(p.gamma_value)}|{r(p.det_value)}\n"


def test_prime_field_batch_stops_once_the_group_is_exhausted(monkeypatch):
    assert [_orthogonal_group_order(n, 3) for n in (3, 4, 5, 6)] == [48, 1152, 103680, 24261120]
    assert [_orthogonal_group_order(n, 5) for n in (3, 4)] == [240, 28800]
    draws = []
    draw = group_oracle.random_on_point

    def counting_draw(*args, **kwargs):
        draws.append(1)
        return draw(*args, **kwargs)

    monkeypatch.setattr(group_oracle, "random_on_point", counting_draw)
    points = _suite_points(3, 50, 1, ON, GF(3))
    # the batch holds all of O(3, F_3); widening through every attempt
    # would take 3,600 draws to find nothing more
    assert len({p.reduce_mod(GF(3)) for p in points}) == len(points) == 48
    assert len(draws) < 2400


def test_seeded_draws_are_pinned():
    # every seeded point constructor, byte for byte: refactors of the point
    # layer must keep these draws, since certificates and benchmarks use them
    lines = []
    for n in range(3, 8):
        points = standard_points(n, 25, seed=n)
        for s in range(10):
            points.append(random_go_point(n, s, rational(s + 2, 3)))
            points.append(random_on_point(n, s, "MINUS"))
        lines += map(_point_line, points)
    # prime-field batches hold rational points; their residues are pinned
    lines += [_point_line(p, GF(7)) for p in _suite_points(4, 40, 9, ON, GF(7))]
    lines += [_point_line(p, GF(5)) for p in _suite_points(3, 40, 9, ON, GF(5))]
    lines += map(_point_line, _suite_points(4, 20, 9, GO, QQ))
    assert len(lines) == 325
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == "459f6d5daa01c70273340c6a617242994ad52d4fe002795c61ffabc8960e6444"


def test_points_are_built_once_and_drawn_lazily(monkeypatch):
    built = []
    init = GroupPoint.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(GroupPoint, "__init__", counting_init)
    for n in (3, 4, 5):
        for s in range(3):
            built.clear()
            random_on_point(n, s, "MINUS")
            assert len(built) == 1
            # the scaled point only: its O(n) factor is never built
            built.clear()
            random_go_point(n, s, rational(3, 2))
            assert len(built) == 1
            built.clear()
            assert len(standard_points(n, 6, seed=s)) == len(built) == 6

    built.clear()
    draws = []
    draw = group_oracle.random_on_point

    def counting_draw(*args, **kwargs):
        draws.append(1)
        return draw(*args, **kwargs)

    monkeypatch.setattr(group_oracle, "random_on_point", counting_draw)
    # drawing each batch in full would take 280 rational points
    assert len(_suite_points(4, 140, 7, ON, GF(7))) == 140
    assert len(draws) < 200
    # residues are taken from the drawn point; no second point is built
    assert len(built) == len(draws)


def test_reduce_mod():
    p = random_on_point(4, 9)   # entry denominators 1 and 3
    d = GF(5)
    residues = p.reduce_mod(d)
    assert residues == tuple(tuple(d.reduce_rational(x) for x in row)
                             for row in p.matrix.rows)
    assert all(isinstance(x, int) and 0 <= x < 5 for row in residues for x in row)
    assert p.reduce_mod(GF(3)) is None
    with pytest.raises(DomainError):
        p.reduce_mod(QQ)
    # gamma = 3 with d = 4: the entries reduce mod 3, but gamma is no unit
    q = random_go_point(4, 2, rational(3))
    assert q.denominator == 4 and q.integer_gamma == 48
    assert q.reduce_mod(GF(3)) is None and q.reduce_mod(GF(5)) is not None


def test_group_point_integer_form():
    for n in (3, 4, 7):
        for p in standard_points(n, 4, seed=n) + [random_go_point(n, n, rational(5, 3))]:
            d = p.denominator
            assert d == math.lcm(*(x.denominator for row in p.matrix.rows for x in row))
            assert p.integer_gamma == p.gamma_value * d * d
            letters = tuple(_letters(n))
            assert p.minor(letters, letters) == p.det_value * d ** n
    with pytest.raises(DomainError):
        GroupPoint(LetterMatrix.identity(4), rational(4))


def test_a_point_of_the_wrong_component_is_rejected(monkeypatch):
    # a MINUS point declared PLUS, and a PLUS one declared MINUS: the
    # determinant is taken from G, not from the construction
    swap = {"PLUS": "MINUS", "MINUS": "PLUS"}
    rows = group_oracle._component_rows
    monkeypatch.setattr(group_oracle, "_component_rows",
                        lambda n, seed, component, spread: rows(n, seed, swap[component], spread))
    for n in (3, 4, 5, 6):
        for component in ("PLUS", "MINUS"):
            with pytest.raises(AssertionError, match="determinant"):
                random_on_point(n, 2, component)
        with pytest.raises(AssertionError, match="determinant"):
            random_go_point(n, 2, rational(3, 2))


def test_value_types_survive_pickle_and_copy():
    # each immutable type rebuilds through its public constructor; a point
    # checks its form again and starts with no cached minors
    p = random_go_point(4, 3, rational(5, 3))
    p.minor(tuple(_letters(4))[:2], tuple(_letters(4))[:2])
    s, t = Tableau.parse("1b 2; 1"), Tableau.parse("1 2b; 2")
    term = BidetTerm(rational(-3, 2), 1, s, t)
    values = [s, term, Combination([term, BidetTerm(2, 0, t, s)]), gamma_poly(3), p.matrix]
    for x in values + [p]:
        for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
            assert type(y) is type(x)
            if isinstance(x, GroupPoint):
                assert (y.matrix, y.gamma_value, y.det_value) == (x.matrix, x.gamma_value,
                                                                  x.det_value)
                assert y._minors == {} and x._minors
            else:
                assert y == x


# ---------------------------------------------------------------------------
# vanishing checks
# ---------------------------------------------------------------------------

def test_orthogonality_polynomials_vanish():
    for n in (3, 4):
        pts = standard_points(n, 6, seed=2)
        letters = _letters(n)
        one = Letter(1)
        gamma_minus_one = gamma_poly(n) - Polynomial.constant(1)
        assert all(gamma_minus_one.evaluate(p) == 0 for p in pts)
        det_sq = det_poly(n) * det_poly(n) - Polynomial.constant(1)
        assert all(det_sq.evaluate(p) == 0 for p in pts)


def test_negative_control_generic_poly():
    pts = standard_points(4, 4, seed=3)
    one = Tableau.parse("1")
    # X(1, 1) + 7 as bideterminants: [1:1] + 7 [:]
    p = Combination([BidetTerm(1, 0, one, one), constant(7)])
    assert not verify_on_group(p, pts)
    # gamma - 1 + 7 is 7 on O(4): zero mod 7, not over Q
    seven = Combination([constant(1, 1), constant(6)])
    assert verify_on_group(seven, pts, GF(7))
    assert not verify_on_group(seven, pts, QQ) and not verify_on_group(seven, pts)
    # a value with 7 in its denominator has no residue, so the check fails
    assert not verify_on_group(constant(rational(1, 7)), pts, GF(7))


# ---------------------------------------------------------------------------
# ranks
# ---------------------------------------------------------------------------

def test_bareiss_rank_basics():
    assert bareiss_rank([]) == 0
    assert bareiss_rank([[1]]) == 1
    assert bareiss_rank([[1, 2], [2, 4]]) == 1
    assert bareiss_rank([[0, 1], [1, 0]]) == 2


def frac_rank(rows):
    """Reference rank: Gauss-Jordan over Fraction, no integer tricks."""
    m = [[Fraction(x) for x in r] for r in rows]
    if not m:
        return 0
    nr, nc = len(m), len(m[0])
    rank = row = 0
    for col in range(nc):
        piv = next((r for r in range(row, nr) if m[r][col]), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        pv = m[row][col]
        m[row] = [x / pv for x in m[row]]
        for r in range(nr):
            if r != row and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[row])]
        rank += 1
        row += 1
        if row == nr:
            break
    return rank


def test_bareiss_matches_fraction_reference():
    rng = random.Random(1)
    for _ in range(200):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        m = [[rng.randint(-5, 5) for _ in range(nc)] for _ in range(nr)]
        if nr >= 2 and rng.random() < 0.5:
            m[-1] = [a + 2 * b for a, b in zip(m[0], m[nr // 2])]
        assert bareiss_rank(m) == frac_rank(m)


def test_evaluation_rank_constant():
    pts = standard_points(3, 3, seed=1)
    assert evaluation_rank([constant(1)], pts, QQ) == 1


def test_evaluation_rank_det_pair():
    pts = standard_points(3, 6, seed=1)
    d = det_term(3)
    fns = [Combination([d, constant(-1)]), Combination([d, constant(1)])]
    assert evaluation_rank(fns, pts, QQ) == 2


def test_evaluation_rank_standard_degree_two():
    elements = standard_basis_elements(3, 2, "ON")
    pts = standard_points(3, len(elements) + 8, seed=2)
    assert evaluation_rank(elements, pts, QQ) == len(elements)


def test_rank_stability_across_batches():
    elements = standard_basis_elements(3, 2, "ON")
    ranks = []
    for seed in (4, 5):
        pts = standard_points(3, len(elements) + 8, seed=seed)
        ranks.append(evaluation_rank(elements, pts, QQ))
    assert ranks[0] == ranks[1] == len(elements)


def test_rank_nondecreasing_in_points():
    elements = standard_basis_elements(3, 1, "ON")
    pts = standard_points(3, len(elements) + 10, seed=6)
    previous = 0
    for cut in range(2, len(pts) + 1, 4):
        rank = evaluation_rank(elements, pts[:cut], QQ)
        assert rank >= previous
        previous = rank
    assert previous == len(elements)


def test_gf_matrix_rank():
    d = GF(5)
    rows = [[1, Fraction(2, 3)], [3, 2]]
    assert matrix_rank(rows, d) == 1
    rows[1][1] = 0
    assert matrix_rank(rows, d) == 2
    # rank 2 over Q, but 24 = 4 mod 5
    assert matrix_rank([[1, 2], [2, Fraction(24)]], d) == 1
    with pytest.raises(DomainError):
        matrix_rank([[1, 2], [Fraction(1, 5), 4]], d)


def test_matrix_rank_matches_fraction_reference():
    rng = random.Random(2)
    for _ in range(200):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        m = [[rational(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(nc)]
             for _ in range(nr)]
        if nr >= 2 and rng.random() < 0.5:
            # a rank drop by construction: the last row depends on two others
            c = rational(rng.randint(-3, 3), rng.randint(1, 4))
            m[-1] = [a + c * b for a, b in zip(m[0], m[nr // 2])]
        assert matrix_rank(m, QQ) == frac_rank(m)


def test_matrix_rank_falls_back_to_bareiss(monkeypatch):
    from obidet import group_oracle
    calls = []

    def counted(rows):
        calls.append(rows)
        return bareiss_rank(rows)

    monkeypatch.setattr(group_oracle, "bareiss_rank", counted)
    p = 2 ** 61 - 1
    # the rank drops to 1 modulo p, so only the fallback can certify 2
    for rows in ([[p, 0], [0, 1]], [[Fraction(p), Fraction(0)], [Fraction(0), Fraction(1)]]):
        assert matrix_rank(rows, QQ) == 2
    assert len(calls) == 2
    # a full modular rank is a certificate on its own
    assert matrix_rank([[1, 2], [3, 4]], QQ) == 2
    assert len(calls) == 2


def test_matrix_rank_of_integer_matrices_over_q_and_f7():
    # the vector that fills the rank is counted, not kept: ranks that end
    # full and ranks that drop both agree with the references
    rng = random.Random(31)
    for _ in range(300):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        m = [[rng.randint(-20, 20) for _ in range(nc)] for _ in range(nr)]
        if nr >= 2 and rng.random() < 0.5:
            c = rng.randint(-3, 3)
            m[-1] = [a + c * b for a, b in zip(m[0], m[nr // 2])]
        if nc >= 2 and rng.random() < 0.3:
            for row in m:
                row[-1] = row[0] - 7 * row[nc // 2]
        assert matrix_rank(m, QQ) == frac_rank(m)
        assert matrix_rank(m, GF(7)) == _rank_mod_reference(m, 7)


class _Given:
    """A degree-0 function with given integer values at given points."""

    def __init__(self, values):
        self.values = values

    def degree(self):
        return 0

    def integer_value(self, point):
        return self.values[point]


def test_a_value_divisible_by_the_rank_prime_does_not_fill_a_block(monkeypatch):
    calls = []

    def counted(rows):
        calls.append(rows)
        return bareiss_rank(rows)

    monkeypatch.setattr(group_oracle, "bareiss_rank", counted)
    p = 2 ** 61 - 1
    points = standard_points(3, 3, seed=2)
    # zero modulo p at the first point, so only the second fills the block
    f = _Given({points[0]: 3 * p, points[1]: -5, points[2]: 1})
    assert evaluation_rank([f], _read_at_most(points, 2), QQ) == 1
    assert not calls
    # zero modulo p at every point: Bareiss certifies the rank at all of them
    constant = BidetTerm(p, 0, Tableau(()), Tableau(()))
    assert evaluation_rank([constant], points, QQ) == 1
    assert len(calls) == 1 and calls[0] == [[p], [p], [p]]
    assert matrix_rank([[2 * p]], QQ) == 1 and len(calls) == 2


def _read_at_most(points, k):
    """The first k points, then an error: a rank that reads more reads too far."""
    yield from points[:k]
    raise AssertionError(f"read a point after the first {k}")


@pytest.mark.parametrize("n, domain", [(3, QQ), (4, QQ), (3, GF(7)), (4, GF(5))])
def test_evaluation_rank_reads_no_point_after_the_one_that_fills_it(n, domain):
    elements = standard_basis_elements(n, 1, ON)
    for block in [*group_oracle._weight_blocks(elements, n, ON).values(), elements]:
        points = _suite_points(n, len(block) + 6, 3, ON, domain)
        # the first prefix at which the rank is full, by the whole-matrix rank
        fill = next(k for k in range(1, len(points) + 1) if matrix_rank(
            [[e.integer_value(p) * p.denominator ** (1 - e.degree()) for p in points[:k]]
             for e in block], domain) == len(block))
        assert evaluation_rank(block, _read_at_most(points, fill), domain) == len(block)
        with pytest.raises(AssertionError):
            evaluation_rank(block, _read_at_most(points, fill - 1), domain)


def _reading(points, read):
    """The points, each appended to read as it is read."""
    for point in points:
        read.append(point)
        yield point


def test_evaluation_rank_short_modulo_the_prime_is_certified_by_bareiss(monkeypatch):
    calls = []

    def counted(rows):
        calls.append(rows)
        return bareiss_rank(rows)

    monkeypatch.setattr(group_oracle, "bareiss_rank", counted)
    monkeypatch.setattr(group_oracle, "_RANK_PRIME", 7)
    s, t = Tableau.parse("1 2"), Tableau.parse("1b 2")
    u = Tableau.parse("1b 2b")
    # independent over Q, but 7 [S:U] vanishes modulo 7: the modular rank is 1
    block = [BidetTerm(1, 0, s, t), BidetTerm(7, 0, s, u)]
    points = standard_points(4, 8, seed=1)
    assert evaluation_rank(block, points, QQ) == 2
    assert len(calls) == 1 and len(calls[0]) == len(points)
    # a block full modulo the prime needs no fallback
    assert evaluation_rank(block[:1], points, QQ) == 1
    assert len(calls) == 1
    # ranked one block after another over one batch, with a full block and
    # an empty one, the short block alone goes to Bareiss, again on all of
    # its columns
    full = standard_basis_elements(4, 1, ON)[:3]
    batch = group_oracle._Batch(iter(points))
    assert [evaluation_rank(b, batch, QQ) for b in (full, block, [], block[:1])] == [3, 2, 0, 1]
    assert len(calls) == 2 and len(calls[1]) == len(points)


def test_prime_field_rank_refuses_a_point_without_residues_when_it_reads_it():
    bad = random_on_point(4, 9)   # entry denominators 1 and 3
    assert bad.denominator == 3
    good = [p for p in standard_points(4, 6, seed=2) if p.denominator % 3]
    elements = standard_basis_elements(4, 1, ON)
    with pytest.raises(DomainError):
        evaluation_rank(elements, good[:1] + [bad], GF(3))
    # a rank full before the point is read never reads it
    one = [BidetTerm(1, 0, Tableau(()), Tableau(()))]
    assert evaluation_rank(one, good[:1] + [bad], GF(3)) == 1
    # block after block over one lazily drawn batch: the constant fills at
    # the first point, and the elements read the second, where the rank
    # refuses, in either block order; blocks all full before it never read it
    points = good[:1] + [bad] + good[1:]
    for blocks in ([one, elements], [elements, one]):
        read = []
        batch = group_oracle._Batch(_reading(points, read))
        with pytest.raises(DomainError):
            for b in blocks:
                evaluation_rank(b, batch, GF(3))
        assert read == points[:2]
    read = []
    batch = group_oracle._Batch(_reading(points, read))
    assert [evaluation_rank(b, batch, GF(3)) for b in (one, [], one)] == [1, 0, 1]
    assert read == points[:1]
    # and blocks that are all empty read no point at all
    assert [evaluation_rank([], _reading(points, read), GF(3)) for _ in range(2)] == [0, 0]
    assert read == points[:1]


@pytest.mark.parametrize("p", [5, 7])
def test_gf_matrix_rank_mixed_entries(p):
    d = GF(p)
    rng = random.Random(p)
    for _ in range(100):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        # denominators 1..4 are units modulo 5 and 7
        values = [[Fraction(rng.randrange(-2 * p, 2 * p), rng.randint(1, 4))
                   for _ in range(nc)] for _ in range(nr)]
        if nr >= 2 and rng.random() < 0.5:
            values[-1] = [a + 3 * b for a, b in zip(values[0], values[nr // 2])]
        rows = [[int(x) if x.denominator == 1 and rng.random() < 0.5 else x for x in r]
                for r in values]
        assert matrix_rank(rows, d) == _rank_mod_reference(values, p)


def _rank_mod_reference(rows, p):
    """Reference rank mod p of a p-integral matrix: the largest k with a k x k
    minor whose numerator p does not divide."""
    import itertools
    from obidet.polyring import det_rows
    nr, nc = len(rows), len(rows[0])
    for k in range(min(nr, nc), 0, -1):
        for rs in itertools.combinations(range(nr), k):
            for cs in itertools.combinations(range(nc), k):
                minor = [[Fraction(rows[r][c]) for c in cs] for r in rs]
                if det_rows(minor).numerator % p:
                    return k
    return 0


# ---------------------------------------------------------------------------
# the integer evaluation kernel
# ---------------------------------------------------------------------------

def test_degree_lift_separates_one_and_gamma_only_off_o_n():
    # 1 and gamma are one function on O(n); unlifted, their values 1 and d^2
    # at a point with d > 1 would give rank 2
    one, gamma = BidetTerm(1, 0, EMPTY, EMPTY), BidetTerm(1, 1, EMPTY, EMPTY)
    points = standard_points(4, 6)
    assert any(p.denominator > 1 for p in points)
    assert evaluation_rank([one, gamma], points, QQ) == 1
    go_points = _suite_points(4, 6, 3, GO, QQ)
    assert all(p.gamma_value != 1 for p in go_points)
    assert evaluation_rank([one, gamma], go_points, QQ) == 2
    assert evaluation_rank([Combination([one]), Combination([gamma])], go_points, QQ) == 2


@pytest.mark.parametrize("n, r, mode", [(3, 2, ON), (4, 2, GO)])
def test_rank_matrix_is_the_rational_one_with_scaled_columns(monkeypatch, n, r, mode):
    elements = standard_basis_elements(n, r, mode)
    points = _suite_points(n, 12, 4, mode, QQ)
    assert len({e.degree() for e in elements}) > 1 and any(p.denominator > 1 for p in points)
    seen = []

    def capture(columns):
        seen.append(columns)
        return 0

    # more elements than points: the rank is short, and Bareiss gets the columns
    monkeypatch.setattr(group_oracle, "bareiss_rank", capture)
    evaluation_rank(elements, points, QQ)
    # the Fraction oracle at the bare rational matrix, column p times d_p^r
    expected = [[eval_bideterminant(e.left, e.right, p.matrix) * p.gamma_value ** e.gamma_pow
                 * p.denominator ** r for e in elements] for p in points]
    assert seen == [expected]
    assert all(type(x) is int for row in seen[0] for x in row)


def test_integer_minors_and_values_match_the_fraction_oracle():
    rng = random.Random(10)
    for n in range(3, 8):
        letters = _letters(n)
        points = standard_points(n, 3, seed=n) + [random_go_point(n, n, rational(5, 3))]
        for p in points:
            for _ in range(6):
                k = rng.randint(1, n)
                rows = tuple(rng.sample(letters, k))
                cols = tuple(rng.choices(letters, k=k) if rng.random() < 0.2
                             else rng.sample(letters, k))
                value = p.minor(rows, cols)
                assert value == p.minor(rows, cols)
                assert rational(value, p.denominator ** k) == det_rows(
                    [[p.entry(i, j) for j in cols] for i in rows])
            s, t = _random_nonstandard_pair(n, _pair_shapes(n, 3), rng)
            j = rng.randint(0, 2)
            term = BidetTerm(rational(3, 2), j, s, t)
            oracle = rational(3, 2) * eval_bideterminant(s, t, p.matrix) * p.gamma_value ** j
            assert Combination([term]).evaluate(p) == oracle
            assert term.integer_value(p) == oracle * p.denominator ** term.degree()
            # mixed degrees: the constant is lifted to the degree of the combination
            comb = Combination([BidetTerm(1, 1, s, t), constant(-7)])
            poly = bideterminant(s, t) * gamma_poly(n) - Polynomial.constant(7)
            assert comb.integer_value(p) == poly.evaluate(p) * p.denominator ** poly.degree()


def test_combination_value_is_the_sum_of_its_term_values():
    # Combination.evaluate is one integer sum over a common denominator; its
    # oracle is the sum of coef * [S:T](g) * gamma^k, each bideterminant
    # evaluated on the rational matrix g
    n = 4
    on_point = standard_points(n, 1, seed=3)[0]
    go_point = random_go_point(n, 3, rational(5, 3))
    assert Combination().evaluate(on_point) == 0
    assert Combination().evaluate(go_point, rational(2, 7)) == 0
    assert go_point.gamma_value != 1 and go_point.denominator > 1
    rng = random.Random(12)
    # mixed degrees, dyadic and other denominators, gamma powers 0..2
    comb = Combination(
        BidetTerm(coef, j, *_random_nonstandard_pair(n, _pair_shapes(n, size), rng))
        for coef, j, size in ((rational(3, 2), 0, 3), (rational(-5, 4), 1, 2),
                              (rational(7, 3), 2, 1), (2, 0, 1), (-1, 1, 3)))
    reduced = comb.reduce(GF(7))
    assert len(comb) == 5 and all(type(t.coef) is int for t in reduced.unsorted())
    # an explicit gamma other than the point's, integral or not once scaled by d^2
    for point, gamma in ((on_point, None), (go_point, None), (go_point, 1),
                         (go_point, rational(2, 7)), (go_point, go_point.gamma_value)):
        for c in (comb, reduced):
            value = c.evaluate(point, gamma)
            g = point.gamma_value if gamma is None else gamma
            assert value == sum(t.coef * eval_bideterminant(t.left, t.right, point.matrix)
                                * g ** t.gamma_pow for t in c.unsorted())
            if gamma is None:
                # integer_value is the same sum, not divided by d^m
                assert c.integer_value(point) == value * point.denominator ** c.degree()
    assert comb.evaluate(go_point) != comb.evaluate(go_point, 1)


def test_kernel_values_are_plain_ints_whatever_the_elimination_type():
    # minors up to _EXPANSION_ORDER are expanded, the order-4 ones at n = 4
    # go through Bareiss: both give plain ints
    assert group_oracle._EXPANSION_ORDER < 4
    for n in (3, 4):
        points = standard_points(n, 4, seed=2) + [random_go_point(n, 5, rational(5, 3))]
        letters = tuple(_letters(n))
        elements = standard_basis_elements(n, 2, GO)
        for p in points:
            assert type(p.integer_gamma) is int
            assert all(type(p.minor(letters[:k], letters[-k:])) is int for k in range(1, n + 1))
            assert all(type(e.integer_value(p)) is int for e in elements)


def _bareiss_minor(p, rows, cols):
    """The minor of G by one elimination on the submatrix, letters as given."""
    index = {x: i for i, x in enumerate(_letters(p.n))}
    g = p._integer_rows
    return polyring._bareiss([[g[index[r]][index[c]] for c in cols] for r in rows])[1]


def test_expanded_minors_match_bareiss():
    rng = random.Random(20)
    for n in range(3, 8):
        letters = _letters(n)
        for p in standard_points(n, 2, seed=n) + [random_go_point(n, n, rational(5, 3))]:
            for k in range(7):
                for _ in range(4):
                    # unsorted letters; where k > n they must repeat
                    rows, cols = (tuple(rng.sample(letters, k) if k <= n
                                        else rng.choices(letters, k=k)) for _ in "rc")
                    assert p.minor(rows, cols) == _bareiss_minor(p, rows, cols)
                if 2 <= k <= n:
                    rows, cols = tuple(rng.sample(letters, k)), tuple(rng.sample(letters, k))
                    twice = rows[:1] + rows[:-1]   # first letter repeated
                    assert p.minor(twice, cols) == p.minor(cols, twice) == 0


def test_minor_eliminates_only_above_the_expansion_order(monkeypatch):
    p = random_on_point(8, 3)
    letters = tuple(_letters(8))
    eliminations = []
    bareiss = group_oracle._bareiss

    def counted(rows):
        eliminations.append(len(rows))
        return bareiss(rows)

    monkeypatch.setattr(group_oracle, "_bareiss", counted)
    for k in range(group_oracle._EXPANSION_ORDER + 2):
        p.minor(letters[:k], letters[8 - k:])
    assert eliminations == [group_oracle._EXPANSION_ORDER + 1]
    # a tall minor is one elimination and one cache entry, not its sub-minors
    q = random_on_point(12, 5)
    letters = tuple(_letters(12))
    cached = len(q._minors)
    assert q.minor(letters, letters) == q.det_value * q.denominator ** 12
    assert len(q._minors) == cached + 1


def test_prime_field_rank_refuses_a_point_without_residues():
    p = random_on_point(4, 9)   # entry denominators 1 and 3
    assert p.denominator == 3
    elements = standard_basis_elements(4, 1, ON)
    with pytest.raises(DomainError):
        evaluation_rank(elements, [p], GF(3))
    # the rational values refuse it too: a degree-one value has 3 below
    with pytest.raises(DomainError):
        matrix_rank([[Combination([e]).evaluate(p) for e in elements]], GF(3))
    gamma_minus_one = Combination([constant(1, 1), constant(-1)])
    assert not verify_on_group(gamma_minus_one, [p], GF(3))
    assert verify_on_group(gamma_minus_one, [p], GF(5))


def test_a_point_whose_gamma_the_prime_divides_has_no_image():
    # d = 1 and Gamma = 3: the entries reduce mod 3, but the residue matrix
    # is no point of GO(4, F_3), and gamma reads 0 there
    p = random_go_point(4, 5, 3)
    assert p.denominator % 3 and not p.integer_gamma % 3
    assert p.reduce_mod(GF(3)) is None
    one, gamma = constant(1), constant(1, 1)
    assert not verify_on_group(gamma, [p], GF(3))
    with pytest.raises(DomainError):
        evaluation_rank([one, gamma], [p], GF(3))
    # a point with an image: gamma - 1 vanishes and 1, gamma are one function
    q = random_on_point(4, 9)
    assert q.reduce_mod(GF(5)) is not None
    assert verify_on_group(Combination([gamma, constant(-1)]), [q], GF(5))
    assert evaluation_rank([one, gamma], [q], GF(5)) == 1


# ---------------------------------------------------------------------------
# the bimodule compatibility at group points
# ---------------------------------------------------------------------------

def test_column_action_expansion_at_group_points():
    import itertools
    from obidet.polyring import eval_minor
    rng = random.Random(6)
    n = 4
    letters = _letters(n)
    g = random_on_point(n, 31, "MINUS")
    a = random_on_point(n, 32, "PLUS")
    ga = GroupPoint.from_matrix(g.matrix @ a.matrix)
    for k in (1, 2):
        for _ in range(4):
            s = sorted(rng.sample(letters, k), key=lambda x: x.key)
            t = sorted(rng.sample(letters, k), key=lambda x: x.key)
            lhs = eval_minor(s, t, ga)
            rhs = 0
            for u in itertools.combinations(letters, k):
                rhs += eval_minor(s, list(u), g) * eval_minor(list(u), t, a)
            assert lhs == rhs


# ---------------------------------------------------------------------------
# the suite
# ---------------------------------------------------------------------------

def test_basis_suite_small_on():
    report = basis_suite(3, 2, "ON", seed=1)
    assert report.passed
    assert any(line.startswith("independence rank=") for line in report.lines)
    assert report.text().endswith("PASS")


def test_basis_suite_go_grading():
    elements = standard_basis_elements(4, 2, "GO", degree_exact=True)
    assert all(2 * e.gamma_pow + e.left.size == 2 for e in elements)
    assert any(e.gamma_pow == 1 and e.left.size == 0 for e in elements)


def test_basis_suite_cap_refusal():
    report = basis_suite(4, 2, "ON", cap=10)
    assert not report.passed
    assert report.lines[0].startswith("refused")


def test_basis_suite_refuses_before_building_terms(monkeypatch):
    built = []
    post_init = BidetTerm.__post_init__

    def counting_post_init(self):
        built.append(1)
        post_init(self)

    monkeypatch.setattr(BidetTerm, "__post_init__", counting_post_init)
    report = basis_suite(8, 4)
    assert report.lines == ["refused: at least 1290 standard elements exceed the cap 800"]
    assert not built


def test_basis_suite_stops_enumerating_at_the_first_shape_past_the_cap(monkeypatch):
    enumerated = []
    enumerate_on_standard = group_oracle.enumerate_on_standard

    def counting(shape, n):
        # the empty shape's constant, and the elements of each shape so far
        assert 1 + sum(len(t) ** 2 for _, t in enumerated) <= 10, (
            f"shape {shape} enumerated past the cap")
        tableaux = list(enumerate_on_standard(shape, n))
        enumerated.append((shape, tableaux))
        return iter(tableaux)

    monkeypatch.setattr(group_oracle, "enumerate_on_standard", counting)
    report = basis_suite(8, 10, cap=10)
    # shape (1) alone has 8 x 8 elements; every other shape up to size 10 is
    # left unenumerated
    assert report.lines == ["refused: at least 65 standard elements exceed the cap 10"]
    assert [shape for shape, _ in enumerated] == [(1,)]


def test_basis_suite_prime_field():
    report = basis_suite(3, 1, "ON", domain=GF(5), seed=2)
    assert report.passed


def _torus_point(n, rng):
    """A diagonal point of O(n): t_i at i, 1/t_i at ib, a sign at 0; and its t_i, sign."""
    ts = [rational(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 5))
          for _ in range(n // 2)]
    sign = rng.choice([-1, 1])
    values = [1 / ts[x.index - 1] if x.barred else ts[x.index - 1] if x.index else sign
              for x in _letters(n)]
    return GroupPoint.from_matrix(LetterMatrix.diagonal(n, [rational(v) for v in values])), ts, sign


def _character(tableau, point):
    """chi_S(t): the product of the diagonal entries of t over the letters of S."""
    return math.prod(point.entry(x, x) for row in tableau.rows for x in row)


@pytest.mark.parametrize("n", [3, 4])
def test_standard_elements_are_torus_weight_vectors(n):
    # [S:T](t g s) = chi_S(t) chi_T(s) [S:T](g), exactly, with chi_S(t) the
    # monomial of the torus weight of S
    rng = random.Random(40 + n)
    g = standard_points(n, 1, seed=n)[0]
    for _ in range(2):
        (t, t_values, t_sign), (s, s_values, s_sign) = _torus_point(n, rng), _torus_point(n, rng)
        moved = GroupPoint.from_matrix(t.matrix @ g.matrix @ s.matrix)
        for e in standard_basis_elements(n, 2, ON):
            chi_s, chi_t = _character(e.left, t), _character(e.right, s)
            for chi, tableau, values, sign in ((chi_s, e.left, t_values, t_sign),
                                               (chi_t, e.right, s_values, s_sign)):
                weight = torus_weight(tableau, n)
                monomial = math.prod(x ** w for x, w in zip(values, weight))
                assert chi == monomial * (sign ** weight[-1] if n % 2 else 1)
            value = Combination([e]).evaluate
            assert value(moved) == chi_s * chi_t * value(g)


def _transpose(point):
    """g^t as a point of its own: the constructor checks its form again."""
    return GroupPoint(LetterMatrix(point.n, zip(*point._integer_rows)), point.denominator,
                      point.integer_gamma)


@pytest.mark.parametrize("n, r, mode, points", [
    (3, 3, ON, [random_on_point(3, seed, c) for seed in (1, 2) for c in ("PLUS", "MINUS")]),
    (4, 2, GO, [random_go_point(4, seed, c) for seed, c in ((1, 2), (2, Fraction(1, 3)))]),
], ids=["O3", "GO4"])
def test_standard_elements_swap_their_tableaux_under_transposition(n, r, mode, points):
    # g^t lies in the group with the gamma of g, and [S:T](g^t) = [T:S](g):
    # the evaluation matrix of a weight block at the points g^t is that of
    # its transpose twin at the points g
    assert mode == GO or {g.det_value for g in points} == {1, -1}
    elements = standard_basis_elements(n, r, mode)
    for g in points:
        gt = _transpose(g)
        assert gt.denominator == g.denominator and gt.integer_gamma == g.integer_gamma
        assert gt.det_value == g.det_value and (mode == ON or g.gamma_value != 1)
        for e in elements:
            twin = BidetTerm(e.coef, e.gamma_pow, e.right, e.left)
            assert e.integer_value(gt) == twin.integer_value(g)


def test_block_ranks_sum_to_the_full_rank():
    elements = standard_basis_elements(3, 2, ON)
    blocks = list(group_oracle._weight_blocks(elements, 3, ON).values())
    assert sorted(map(id, (e for b in blocks for e in b))) == sorted(map(id, elements))
    assert len(blocks) == 34
    points = standard_points(3, len(elements) + 6, seed=3)
    block_ranks = [evaluation_rank(b, points, QQ) for b in blocks]
    assert sum(block_ranks) == evaluation_rank(elements, points, QQ) == 44


def test_go_weight_blocks_split_by_degree():
    blocks = group_oracle._weight_blocks(standard_basis_elements(4, 2, GO), 4, GO)
    for block in blocks.values():
        assert len({e.degree() for e in block}) == 1


def _duplicate_an_element(monkeypatch):
    """Patch _standard_blocks to repeat a tableau of the last shape: a dependent suite."""
    standard_blocks = group_oracle._standard_blocks

    def with_duplicate(*args, **kwargs):
        blocks = list(standard_blocks(*args, **kwargs))
        k, tableaux = blocks[-1]
        return blocks[:-1] + [(k, tableaux + tableaux[:1])]

    monkeypatch.setattr(group_oracle, "_standard_blocks", with_duplicate)


def test_basis_suite_fails_on_a_duplicated_element(monkeypatch):
    _duplicate_an_element(monkeypatch)
    report = basis_suite(3, 2, ON, seed=1)
    assert not report.passed and not report.undecided
    assert report.text().endswith("FAIL")
    assert any(line.startswith("short blocks=") for line in report.lines)


def _change_one_side(monkeypatch, change):
    """Patch _block_terms to change the later block of a twin pair of blocks of n = 3.

    The pair is the first whose blocks hold two or more elements; "drop"
    removes an element of that block, "repeat" replaces it by another one
    of the block.  The earlier block stays as it is, so the later one is no
    longer its transpose.
    """
    block_terms = group_oracle._block_terms

    def one_sided(blocks):
        elements = block_terms(blocks)
        by_weight = group_oracle._weight_blocks(elements, 3, ON)
        keys = list(by_weight)
        key = next(k for i, k in enumerate(keys)
                   if k[::-1] in keys[:i] and len(by_weight[k]) > 1)
        block = by_weight[key]
        assert block[0].left != block[0].right
        if change == "drop":
            elements.remove(block[0])
        else:
            elements[elements.index(block[0])] = block[1]
        return elements

    monkeypatch.setattr(group_oracle, "_block_terms", one_sided)


@pytest.mark.parametrize("change", ["drop", "repeat"])
def test_a_twin_pair_changed_on_one_side_is_ranked_twice_and_fails(monkeypatch, change):
    _change_one_side(monkeypatch, change)
    calls = _recording_evaluation_ranks(monkeypatch)
    report = basis_suite(3, 2, ON, seed=1)
    # a dropped [S:T] with S != T leaves every block full and the rank one
    # short of the count; a repeated element makes its block short
    assert [line for line in report.lines if line.startswith("independence")] == [
        "independence rank=43 expected=44"] * 2
    assert any(line.startswith("short blocks=") for line in report.lines) == (change == "repeat")
    assert not report.passed and not report.undecided
    assert report.text().endswith("FAIL")
    monkeypatch.undo()
    per_batch = [list(group) for _, group in itertools.groupby(calls, key=lambda c: id(c[1]))]
    assert len(per_batch) == (8 if change == "repeat" else 2)
    for group in (per_batch[0], per_batch[len(per_batch) // 2]):
        ranked = {}
        for functions, _, _, _ in group:
            ranked.setdefault(_twin_class(functions, 3), []).append(functions)
        # both blocks of the changed pair are ranked, though both are full
        # after a drop; of every other pair, one block
        pairs = [blocks for twins, blocks in ranked.items() if len(blocks) == 2]
        assert len(pairs) == 1 and pairs[0][0] is not pairs[0][1]
        small, large = sorted(map(len, pairs[0]))
        assert large - small == (change == "drop")


def _recording_suite_draws(monkeypatch):
    """Patch _suite_draws to record the points each batch draws; returns the record.

    The batches are drawn as they are read, so a record holds only the
    points some block read (all of them for _suite_points).
    """
    batches = []
    suite_draws = group_oracle._suite_draws

    def recording(*args, **kwargs):
        # a batch may be read again after later ones are drawn
        drawn = []
        batches.append(drawn)
        for point in suite_draws(*args, **kwargs):
            drawn.append(point)
            yield point

    monkeypatch.setattr(group_oracle, "_suite_draws", recording)
    return batches


def _recording_evaluation_ranks(monkeypatch):
    """Patch evaluation_rank to record each call as (functions, points, points read, rank).

    The points read are recorded in the order read: a block reads a point
    when its first function is evaluated there (a short rational block is
    evaluated again at the same points for Bareiss).  The record keeps each
    batch alive, so calls over one batch share the identity of its points.
    """
    calls = []
    rank = group_oracle.evaluation_rank
    integer_value = BidetTerm.integer_value
    evaluated = {}

    def recording_value(self, point):
        evaluated.setdefault(id(self), {}).setdefault(id(point), point)
        return integer_value(self, point)

    def recording(functions, points, domain):
        evaluated.clear()
        r = rank(functions, points, domain)
        calls.append((functions, points, list(evaluated.get(id(functions[0]), {}).values()), r))
        return r

    monkeypatch.setattr(BidetTerm, "integer_value", recording_value)
    monkeypatch.setattr(group_oracle, "evaluation_rank", recording)
    return calls


def _twin_class(block, n):
    """The weights of a block and of its transpose twin, from its first element."""
    wt_s, wt_t = torus_weight(block[0].left, n), torus_weight(block[0].right, n)
    return frozenset({(wt_s, wt_t), (wt_t, wt_s)})


@pytest.mark.parametrize("duplicate", [False, True])
def test_each_block_is_ranked_once_per_batch_up_to_its_filling_point(monkeypatch, duplicate):
    if duplicate:
        _duplicate_an_element(monkeypatch)
    batches = _recording_suite_draws(monkeypatch)
    calls = _recording_evaluation_ranks(monkeypatch)
    assert basis_suite(3, 2, ON, seed=1).passed != duplicate
    monkeypatch.undo()
    # the calls over one batch, in order
    per_batch = [list(group) for _, group in itertools.groupby(calls, key=lambda c: id(c[1]))]
    # one group per batch drawn: the two independence batches, each followed
    # by three retries when it has short blocks.  The spanning points are a
    # batch of their own, except when the duplicate's block of 4 makes batch
    # 0 ask for 10 points: then they are its first 10
    assert len(per_batch) == len(batches) - (not duplicate) == (8 if duplicate else 2)
    blocks = [functions for functions, _, _, _ in per_batch[0]]
    short = {id(functions) for functions, _, _, r in calls if r < len(functions)}
    assert bool(short) == duplicate
    for i, (group, batch) in enumerate(zip(per_batch, batches)):
        if i in (0, len(per_batch) // 2):
            # one call per twin class of the 34 blocks in an independence
            # batch, and one for the twin too when the first call is short
            assert len({id(functions) for functions, _, _, _ in group}) == len(group)
            per_class = {}
            for functions, _, _, rank in group:
                per_class.setdefault(_twin_class(functions, 3), []).append(rank < len(functions))
            assert len(per_class) == 21
            assert all(len(shorts) == (len(twins) if shorts[0] else 1)
                       for twins, shorts in per_class.items())
        else:
            # and one call for each short block in a retry
            assert [id(functions) for functions, _, _, _ in group] == [
                id(b) for b in blocks if id(b) in short]
        # the batch draws no point after the longest read
        assert len(batch) == max(len(read) for _, _, read, _ in group)
        for functions, _, read, rank in group:
            # each block reads its batch in order
            assert read == batch[:len(read)]
            if rank == len(functions):
                # a full block reads no point after the one that fills it
                assert evaluation_rank(functions, read[:-1], QQ) < rank
            else:
                # a short block reads its whole batch
                assert read == batch


@pytest.mark.parametrize("duplicate", [False, True])
def test_basis_suite_holds_one_echelon_at_a_time(monkeypatch, duplicate):
    if duplicate:
        _duplicate_an_element(monkeypatch)
    alive, most = weakref.WeakSet(), [0]

    class Tracked(group_oracle._Echelon):
        def __init__(self, p):
            super().__init__(p)
            alive.add(self)
            most[0] = max(most[0], len(alive))

    monkeypatch.setattr(group_oracle, "_Echelon", Tracked)
    assert basis_suite(3, 2, ON, seed=1).passed != duplicate
    assert most[0] == 1


@pytest.mark.parametrize("domain", [QQ, GF(5), GF(7)], ids=["Q", "F5", "F7"])
@pytest.mark.parametrize("n, r", [(3, 2), (4, 1), (3, 3)])
def test_block_ranks_are_the_per_block_evaluation_ranks(n, r, domain):
    blocks = group_oracle._weight_blocks(standard_basis_elements(n, r, ON), n, ON)
    blocks = list(blocks.values())
    # a dependent block: an element repeated
    blocks.append(blocks[-1] + blocks[-1][:1])
    points = _suite_points(n, max(map(len, blocks)) + 6, 5, ON, domain)
    # block after block over one lazily drawn batch, as the suite ranks
    read = []
    batch = group_oracle._Batch(_reading(points, read))
    ranks = [evaluation_rank(b, batch, domain) for b in blocks]
    assert ranks == [evaluation_rank(b, points, domain) for b in blocks]
    # and the rank of each block's whole evaluation matrix, lifted to its
    # top degree
    assert ranks == [matrix_rank(
        [[e.integer_value(p) * p.denominator ** (max(f.degree() for f in b) - e.degree())
          for p in points] for e in b], domain) for b in blocks]
    assert ranks[-1] == len(blocks[-1]) - 1
    # the short block reads the whole batch
    assert read == points
    # without it, the batch is read up to the point that fills its last
    # full block
    read = []
    batch = group_oracle._Batch(_reading(points, read))
    assert [evaluation_rank(b, batch, domain) for b in blocks[:-1]] == ranks[:-1]
    assert len(read) == max(next((k for k in range(len(points) + 1)
                                  if evaluation_rank(b, points[:k], domain) == len(b)),
                                 len(points)) for b in blocks[:-1])


def _recording_spanning_points(monkeypatch):
    """Patch verify_on_group to record the points of each spanning check."""
    checked = []
    verify = group_oracle.verify_on_group

    def recording(f, points, domain=QQ):
        checked.append(points)
        return verify(f, points, domain)

    monkeypatch.setattr(group_oracle, "verify_on_group", recording)
    return checked


def test_spanning_reads_the_first_points_of_batch_zero(monkeypatch):
    batches = _recording_suite_draws(monkeypatch)
    checked = _recording_spanning_points(monkeypatch)
    # the largest block holds 4 elements, so batch 0 asks for 10 points
    assert basis_suite(3, 3, ON, seed=1).passed
    assert len(batches) == 2
    assert len(checked) == group_oracle._SPANNING_SAMPLES
    assert all(points == batches[0][:10] and len(points) == 10 for points in checked)


@pytest.mark.parametrize("num_points", [None, 3])
def test_spanning_draws_its_own_points_after_a_short_batch_zero(monkeypatch, num_points):
    batches = _recording_suite_draws(monkeypatch)
    checked = _recording_spanning_points(monkeypatch)
    # batch 0 asks for 9 points (largest block 3, plus 6), or for 3
    assert basis_suite(3, 2, ON, num_points, seed=1).passed
    assert len(batches[0]) <= (num_points or 9)
    spanning = batches[-1]
    assert len(spanning) == 10
    assert len(checked) == group_oracle._SPANNING_SAMPLES
    assert all(points == spanning for points in checked)
    # drawn as before, at seed + 500
    assert [(p.denominator, p._integer_rows) for p in spanning] == [
        (p.denominator, p._integer_rows) for p in _suite_points(3, 10, 501, ON, QQ)]


def test_basis_suite_builds_no_rational_matrix(monkeypatch):
    batches = _recording_suite_draws(monkeypatch)
    assert basis_suite(3, 2).passed
    # both independence batches and the spanning points
    assert len(batches) == 3 and all(batches)
    assert all(p._matrix is None for points in batches for p in points)


def test_basis_suite_o4_degree_four(monkeypatch):
    calls = _recording_evaluation_ranks(monkeypatch)
    report = basis_suite(4, 4, cap=5000)
    monkeypatch.undo()
    assert report.passed
    assert [line for line in report.lines if line.startswith("independence")] == [
        "independence rank=2369 expected=2369"] * 2
    # 881 blocks: 420 transpose twin pairs, one block of each ranked, and 41
    # blocks that are their own twin
    blocks = group_oracle._weight_blocks(standard_basis_elements(4, 4), 4, ON)
    assert len(blocks) == 881
    assert sum(j is not None for j in group_oracle._twin_sources(blocks)) == 420
    assert [len(list(group)) for _, group in itertools.groupby(calls, key=lambda c: id(c[1]))] == [
        461, 461]
