"""Exact tableau combinatorics and conditioned one-way simple walks.

Three parallel worlds, selected by an :class:`AlgebraKind`: ordinary
partitions and gl(n), hook partitions and gl(m,n), strict partitions and
q(n).  The package provides the kind-specific insertion schemes and their
recording tableaux, the generalized Pitman transform, exact character
evaluation by two independent routes, tensor multiplicities, the Doob
machinery of the conditioned walk, and a deterministic Monte Carlo engine.
"""

from .errors import (
    BudgetExceededError,
    ContractViolationError,
    DecompositionError,
    FormulaDomainError,
    InvalidInputError,
    SamplingFailureError,
    SingularEvaluationError,
    SuperwalkError,
)
from .kinds import (
    AlgebraKind,
    conjugate,
    contains,
    hook_split,
    in_semigroup,
    is_valid_shape,
    normalize_shape,
    parse_word,
    pi_weight,
    predecessors,
    shape_from_weight,
    successors,
    weight_of,
)
from .tableaux import (
    ShapeChain,
    StandardTableau,
    Tableau,
    enumerate_standard,
    enumerate_tableaux,
    is_hook_word,
    is_valid_tableau,
    reading,
)
from .insertion import (
    RskPair,
    insert_column,
    insert_strict,
    p_tableau,
    pitman,
    q_tableau,
    rsk,
    rsk_inverse,
    words_with_recording,
)
from .characters import (
    ProbVector,
    SparseCharacter,
    character_polynomial,
    nabla,
    psi,
    schur,
)
from .multiplicities import (
    LrTableau,
    decompose_product,
    dec_skew_identity,
    f_count,
    f_skew,
    kostka,
    lr_count,
    lr_enumerate,
    theta_embed,
    verify_m_le_K,
)
from .markov import (
    TransitionKernel,
    doob_transform,
    green,
    martin_kernel,
    pi_restricted,
    pi_shape,
    pi_walk,
    stay_probability,
    stay_probability_truncated,
)
from .simulate import (
    RngStream,
    asympt_multiplicity_experiment,
    drift_shape,
    nearest_shape,
    quotient_llt_experiment,
    sample_conditioned_walk,
    sample_shape_chain,
    sample_walk,
)

__version__ = "0.1.0"
