"""Exact bideterminant bases for orthogonal coordinate rings.

Construct bideterminants on the generic matrix, straighten them into the
standard basis (for the general linear group, the orthogonal group, or the
orthogonal similitudes), and certify basis statements by exact evaluation
on rational group points.
"""

from .tableaux import (
    DomainError,
    Letter,
    Tableau,
    alphabet,
    basic_tableau,
    conjugate,
    dominance_lt,
    enumerate_on_standard,
    is_gl_standard,
    on_standard_report,
    shape_order_lt,
    tableau_prec_cmp,
)
from .polyring import (
    CoeffDomain,
    GF,
    LetterMatrix,
    Polynomial,
    QQ,
    ZHALF,
    bideterminant,
    det_poly,
    gamma_poly,
    minor,
)
from .gl_straighten import (
    BidetTerm,
    Combination,
    gl_straighten,
    two_column_straighten,
    verify_gl,
)
from .on_straighten import (
    GO,
    ON,
    RelationSpec,
    fix_os1,
    fix_os2,
    fix_os3,
    on_straighten,
    one_column_complement,
    reduce_tall_shape,
    relation_rhs,
    verify_relation,
)
from .group_oracle import (
    GroupPoint,
    basis_suite,
    evaluation_rank,
    random_go_point,
    random_on_point,
    standard_points,
    verify_on_group,
)

__version__ = "0.1.0"
