"""Exact tableau combinatorics and conditioned one-way simple walks.

Three parallel worlds, selected by an :class:`AlgebraKind`: ordinary
partitions and gl(n), hook partitions and gl(m,n), strict partitions and
q(n).  The package provides the kind-specific insertion schemes and their
recording tableaux, the generalized Pitman transform, exact character
evaluation by two independent routes, tensor multiplicities, the Doob
machinery of the conditioned walk, and a deterministic Monte Carlo engine.

Importing the package loads no submodule: each public name below, and each
submodule attribute such as ``superwalk.kinds``, loads its home module when
it is first used (PEP 562), so ``from superwalk import pitman`` loads the
errors, kinds, tableaux and insertion modules only.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# each public name and the submodule that defines it
_HOME = {
    name: module
    for module, names in (
        ("errors", (
            "BudgetExceededError", "ContractViolationError", "DecompositionError",
            "FormulaDomainError", "InvalidInputError", "SamplingFailureError",
            "SingularEvaluationError", "SuperwalkError",
        )),
        ("kinds", (
            "AlgebraKind", "conjugate", "contains", "hook_split", "in_semigroup",
            "is_valid_shape", "normalize_shape", "parse_word", "pi_weight",
            "predecessors", "shape_from_weight", "successors", "weight_of",
        )),
        ("tableaux", (
            "ShapeChain", "StandardTableau", "Tableau", "enumerate_standard",
            "enumerate_tableaux", "is_hook_word", "is_valid_tableau", "reading",
        )),
        ("insertion", (
            "RskPair", "insert_column", "insert_strict", "p_tableau", "pitman",
            "q_tableau", "rsk", "rsk_inverse", "words_with_recording",
        )),
        ("characters", (
            "ProbVector", "SparseCharacter", "character_polynomial", "nabla", "psi",
            "schur",
        )),
        ("multiplicities", (
            "LrTableau", "decompose_product", "dec_skew_identity", "f_count", "f_skew",
            "kostka", "lr_count", "lr_enumerate", "theta_embed", "verify_m_le_K",
        )),
        ("markov", (
            "TransitionKernel", "doob_transform", "green", "martin_kernel",
            "pi_restricted", "pi_shape", "pi_walk", "stay_probability",
            "stay_probability_truncated",
        )),
        ("simulate", (
            "RngStream", "asympt_multiplicity_experiment", "drift_shape",
            "nearest_shape", "quotient_llt_experiment", "sample_conditioned_walk",
            "sample_shape_chain", "sample_walk",
        )),
    )
    for name in names
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Load the home module of ``name`` and keep the value as a package global."""
    if name in _HOME.values():
        return _import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_HOME.values()})
