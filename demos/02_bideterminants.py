"""Bideterminants as exact sparse polynomials, and their evaluation.

Run with:  python3 demos/02_bideterminants.py
"""

from obidet import (
    LetterMatrix,
    Tableau,
    bideterminant,
    det_poly,
    gamma_poly,
    minor,
)
from obidet.tableaux import Letter
from obidet.polyring import rational

L = Letter.parse

# A minor is the determinant of the submatrix of the generic matrix X whose
# rows and columns are picked by letter lists.
p = minor([L("1"), L("1b")], [L("2b"), L("2")])
print("2x2 minor [1 1b : 2b 2]:")
print(p.serialize())

# Repeating a letter kills the determinant.
print("\nrepeated row letter ->", minor([L("1"), L("1")], [L("1b"), L("2")]).serialize())

# A bideterminant multiplies one minor per column of a tableau pair.
s = Tableau.parse("1b 1; 2b")
t = Tableau.parse("1b 2b; 1")
bd = bideterminant(s, t)
print(f"\nbideterminant [{s.format()} : {t.format()}] has", len(bd.terms), "terms,")
print("homogeneous of degree", bd.degree())

# Exact evaluation is a ring homomorphism; at the identity matrix the full
# determinant is 1 and the similitude factor gamma is 1.
n = 4
ident = LetterMatrix.identity(n)
print("\ndet at identity:", det_poly(n).evaluate(ident))
print("gamma at identity:", gamma_poly(n).evaluate(ident))

# gamma reads off the dilation of a similitude: put c on the barred half of
# a hyperbolic basis and gamma evaluates to c.
c = rational(3)
from obidet.tableaux import _letters
xi = LetterMatrix.diagonal(n, [c if x.barred else rational(1) for x in _letters(n)])
print("gamma at the dilation by 3:", gamma_poly(n).evaluate(xi))
