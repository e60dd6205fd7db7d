#!/usr/bin/env bash
# Inputs whose straightening is heavy: the certificate and the number of
# rewrite steps of each are pinned.  A GL step rewrites a two-column block
# to its whole GL normal form, so it counts once per block.  Run from the
# repository root with PYTHONPATH=src; it writes cert.txt and trace.txt in
# the working directory.
set -euo pipefail

heavy() {
  python -m obidet.cli straighten "${@:3}" --trace --out cert.txt 2> trace.txt
  sha256sum cert.txt | grep -q "^$1 " || { sha256sum cert.txt; exit 1; }
  steps=$(grep -c '^# step' trace.txt)
  [ "$steps" = "$2" ] || { echo "$steps steps, expected $2"; exit 1; }
}

# the O(7) monomial, its result checked at 2 exact points, and its GO twin,
# checked at 2 similitude points: 2,217 of its 2,787 terms have a
# coefficient with a denominator of 2 or more
heavy 09641080981596164f70ff84ca94b31c5040694a041ede2b991d18515587dd42 14116 \
  --n 7 --left "1b 1 0 0 2 3 1b" --right "1 1b 1b 3b 1 2 3" --points 2
heavy 86b491d8646aed92cd122808c38c4fae52e60a0754a408ab3508c683574af937 14116 \
  --n 7 --left "1b 1 0 0 2 3 1b" --right "1 1b 1b 3b 1 2 3" --mode go --points 2
# the same monomial over F_7: the straightening's weights over 2^E are
# mapped to the prime field once, at the end
heavy b273be5a072a8822bd0af278d9a0615453c57dabd371540b2e76c07950d85a6c 14116 \
  --n 7 --left "1b 1 0 0 2 3 1b" --right "1 1b 1b 3b 1 2 3" --coeff f7
# a GL input, its result proved by polynomial equality in Z[X] (verify_gl)
heavy de5fc761db8fb75302bec3cdbdd3b90d5afd9dfd0f5f96e3db25f3bd77a0db88 51 \
  --n 7 --mode gl --left "3 2 1 0; 3b 2b 1b" --right "1b 1 2b 2; 3b 3 0" --points 2
