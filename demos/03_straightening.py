"""Straightening certificates: rewriting into the standard basis.

Run with:  python3 demos/03_straightening.py
"""

from obidet import (
    GO,
    ON,
    Tableau,
    bideterminant,
    gl_straighten,
    on_straighten,
    two_column_straighten,
)
from obidet.group_oracle import random_go_point, standard_points
from obidet.polyring import eval_bideterminant, rational

# A two-column tableau with a row violation rewrites into higher terms of
# the same shape plus column-rebalanced remainders; the identity is exact
# in the polynomial ring (no group relation involved yet).
s = Tableau.parse("1 1; 2 2b; 3")
t = Tableau.parse("1b 1; 2b 2; 3")
row, head, drop = two_column_straighten(s, t)
print(f"[{s.format()} : {t.format()}] violates in row {row}; identity:")
print((head + drop).certificate())
assert (head + drop).symbolic_poly(6) == bideterminant(s, t)
print("exact polynomial identity: confirmed\n")

# The full rewrite recurses to an all-standard certificate.
full = gl_straighten(s, t, 6)
print("fully standard form:")
print(full.certificate())

# On the orthogonal group the extra counting conditions kick in; the
# straightened combination agrees with the input at every group point.
s2 = Tableau.parse("1b 2b; 2b 2; 2")
t2 = Tableau.parse("1 2; 2b 3; 3b")
result = on_straighten(s2, t2, ON, 6)
print(f"\northogonal straightening of [{s2.format()} : {t2.format()}]:")
print(result.certificate())
for point in standard_points(6, 5, seed=1):
    assert eval_bideterminant(s2, t2, point) == result.evaluate(point)
print("verified at 5 exact group points (both determinant signs)")

# In similitude mode the lost degree is carried by powers of gamma:
# every term satisfies 2 * gamma_pow + |shape| = input degree.
go_result = on_straighten(s2, t2, GO, 6)
print("\nsimilitude mode:")
print(go_result.certificate())
for term in go_result:
    assert 2 * term.gamma_pow + term.left.size == s2.size
point = random_go_point(6, 3, rational(5, 2))
# the point carries gamma, so evaluation reads it from there
assert eval_bideterminant(s2, t2, point) == go_result.evaluate(point)
print("gamma grading holds; verified at a similitude point with gamma = 5/2")
