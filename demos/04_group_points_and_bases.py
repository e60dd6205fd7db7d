"""Exact group points, relation sums, and basis certificates.

Run with:  python3 demos/04_group_points_and_bases.py
"""

from collections import Counter

from obidet import (
    RelationSpec,
    Tableau,
    basis_suite,
    det_poly,
    gamma_poly,
    random_go_point,
    random_on_point,
    relation_rhs,
    verify_relation,
)
from obidet.tableaux import Letter
from obidet.group_oracle import standard_points
from obidet.polyring import GF, Polynomial, rational

L = Letter.parse

# Cayley-transformed skew matrices give exact rational points, each solved
# over the integers as G = d g; negating or swapping columns of G (a
# reflection) reaches the negative determinant component.
plus = random_on_point(5, seed=1, component="PLUS")
minus = random_on_point(5, seed=2, component="MINUS")
print("sample point determinants:", plus.det_value, minus.det_value)
print("det^2 - 1 vanishes:", (det_poly(5) * det_poly(5)
                              - Polynomial.constant(1)).evaluate(minus) == 0)

# Similitude points scale the form; gamma tracks the factor exactly.
g = random_go_point(4, seed=3, c=rational(7, 2))
print("similitude gamma:", g.gamma_value, "=", gamma_poly(4).evaluate(g))

# Relation sums: summing stacked pairs (i, bar i) over the alphabet
# collapses, on the group, to signed deleted-pair terms of lower degree.
spec = RelationSpec(
    (L("3"),), (),
    Tableau.from_columns([[L("1b"), L("2b"), L("3")], [L("1"), L("2")]]),
    a=2, excluded=frozenset({L("2")}), n=6)
# The collapsed side is a combination; a term with d deleted pairs carries gamma^d.
degrees = Counter(term.gamma_pow for term in relation_rhs(spec))
print("\ncollapsed relation terms by deleted-pair degree:")
for d in sorted(degrees):
    print(f"  degree {d}: {degrees[d]} terms")
print("relation verified at 5 points:",
      verify_relation(spec, standard_points(6, 5, seed=4)))

# The basis suite certifies independence (evaluation rank equals the count,
# two point batches agreeing) and spanning (straightening residuals vanish).
# The rank is summed over torus-weight blocks: each standard element is a
# weight vector for the diagonal torus on both sides, so elements of
# different weights are independent and each block is ranked on its own.
report = basis_suite(3, 2, "ON", seed=1)
print("\nbasis suite on O(3), degree <= 2:")
print(report.text())

# The same linear algebra runs over a prime field, on the residues of the
# exact values at p-integral rational points.
report5 = basis_suite(3, 2, "ON", domain=GF(5), seed=1)
print("\nbasis suite mod 5:")
print(report5.text())
