"""psodkit: exact combinatorics of preordered semi-orthogonal decompositions.

Finite preorders with order-reflecting maps and their (co)limits, the
recursive factorial order on characters of roots of unity, normal-crossing
stratification combinatorics, graded abelian-group gluing over diagrams, and
K-theory direct-sum reports for root constructions.
"""

from .abelian import (
    FgAbGroup,
    GradedGroup,
    GradedHom,
    IntMatrix,
    graded_limit,
    hnf,
    kernel,
    limit_of_groups,
    snf,
)
from .config import Caps, Config
from .engine import (
    FactorDescriptor,
    GluingScenario,
    KTheoryMode,
    PsodIndex,
    build_infinite_psod,
    build_root_psod,
    filtration,
    glue,
    ktheory_report,
)
from .errors import (
    CapExceededError,
    InputError,
    InvariantError,
    ParseError,
    PreconditionError,
    PsodkitError,
)
from .factorial import (
    CharTuple,
    FactorialForm,
    Residue,
    build_zdr,
    build_zdr_stratified,
    build_zkr,
    cmp_bang,
    cmp_bang_znfact,
    enumerate_characters,
    to_factorial_form,
    zr_elements,
)
from .preorders import (
    DiagramArrow,
    FinitePreorder,
    OrderReflectingMap,
    PreorderDiagram,
    colimit,
    complete_preorder,
    coproduct,
    directed_numbering,
    discrete_preorder,
    is_directed,
    is_order_reflecting,
    pushout,
    verify_colimit,
)
from .strata import (
    Chart,
    ChartAtlas,
    Overlap,
    Stratification,
    Stratum,
    skeleton,
    strata_from_atlas,
    strata_preorder,
    validate,
)

__version__ = "0.1.0"
