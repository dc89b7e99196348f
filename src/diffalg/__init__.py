"""diffalg: exact differential-algebra workbench.

Differential polynomial arithmetic over Q and Q(t), Ritt division with
exact certificates, characteristic-set decomposition, Jacobi numbers,
linearization at points, and an independent truncated ideal-membership
oracle.
"""

from .fields import Field, QQ, QT, RatFunc
from .diffpoly import (
    Context,
    DerVar,
    DiffPoly,
    ConcretePoint,
    Monomial,
)
from .ranking import (
    ConstantPolyError,
    RankKind,
    Ranking,
    RankedPoly,
    analyze,
    is_autoreduced,
    is_reduced,
)
from .reduction import (
    DiffOperator,
    NotAutoreducedError,
    PreparedSeq,
    ReductionCertificate,
    StepLimitExceeded,
    TermLimitExceeded,
    Verdict,
    ritt_reduce_seq,
    verify_certificate,
)
from .jacobi import Convention, JacobiResult, OrderMatrix, jacobi_assign, order_matrix, ritt_bound
from .linearize import (
    LinearizedPoly,
    PointNotOnZeroSetError,
    extended_context,
    linearize_at,
    linearize_sym,
    linearized_order_matrix,
)
from .decompose import (
    CharSetComponent,
    DecompositionResult,
    JbcReport,
    JbcVerdict,
    component_dimension,
    jbc_check,
    split_decompose,
)
from .oracle import (
    MembershipWitness,
    OracleVerdict,
    TruncationBounds,
    radical_member,
    truncated_member,
    verify_witness,
)
from .sysfile import (
    ParseError,
    SysFileError,
    SystemFile,
    format_components,
    format_ranking,
    parse_components,
    parse_poly,
    parse_ranking,
    parse_system,
)

__all__ = [name for name in dir() if not name.startswith("_")]
