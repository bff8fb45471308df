"""Package loading, alphabet, weight, shape and semigroup behaviour."""

import copy
import importlib
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from superwalk import (
    AlgebraKind,
    InvalidInputError,
    ProbVector,
    RngStream,
    Tableau,
    conjugate,
    contains,
    drift_shape,
    hook_split,
    in_semigroup,
    is_valid_shape,
    is_valid_tableau,
    normalize_shape,
    parse_word,
    pi_weight,
    pitman,
    predecessors,
    rsk,
    sample_walk,
    shape_from_weight,
    stay_probability_truncated,
    successors,
    weight_of,
)
from superwalk.kinds import _steps, check_shape, shape_size
from superwalk.markov import conditioned_step_kernel, pi_walk
from superwalk.multiplicities import shapes_of_size
from superwalk.simulate import (
    estimate_conditioned_acceptance,
    estimate_letter_frequencies,
    sample_conditioned_ensemble,
    sample_conditioned_walk,
    sample_shape_chain,
)

from oracles import added_coordinate

KE4 = AlgebraKind.empty(4)
KH22 = AlgebraKind.hook(2, 2)
KH23 = AlgebraKind.hook(2, 3)
KS3 = AlgebraKind.strict(3)


def test_alphabets():
    assert KE4.alphabet == (1, 2, 3, 4)
    assert KH23.alphabet == (-2, -1, 1, 2, 3)
    assert KH23.N == 5
    assert KS3.describe() == "q(3)"


def test_kind_validation():
    with pytest.raises(InvalidInputError):
        AlgebraKind("weird", 2)
    with pytest.raises(InvalidInputError):
        AlgebraKind.hook(0, 2)
    with pytest.raises(InvalidInputError):
        AlgebraKind("empty", 2, m=1)


@pytest.mark.parametrize("make", [
    lambda: AlgebraKind("empty", 2.5),
    lambda: AlgebraKind("empty", True),
    lambda: AlgebraKind("strict", 3.0),
    lambda: AlgebraKind("empty", 2, m=0.0),
    lambda: AlgebraKind.hook(1.5, 2),
    lambda: AlgebraKind.hook(True, 2),
    lambda: AlgebraKind.hook(1, 2.0),
], ids=["n-float", "n-bool", "n-integral-float", "m-float-zero", "m-float", "m-bool", "hook-n-float"])
def test_kind_ranks_must_be_ints(make):
    with pytest.raises(InvalidInputError):
        make()


PUBLIC_NAMES = sorted("""
    AlgebraKind BudgetExceededError ContractViolationError DecompositionError
    FormulaDomainError InvalidInputError LrTableau ProbVector RngStream RskPair
    SamplingFailureError ShapeChain SingularEvaluationError SparseCharacter
    StandardTableau SuperwalkError Tableau TransitionKernel
    asympt_multiplicity_experiment character_polynomial conjugate contains
    dec_skew_identity decompose_product doob_transform drift_shape
    enumerate_standard enumerate_tableaux f_count f_skew green hook_split
    in_semigroup insert_column insert_strict is_hook_word is_valid_shape
    is_valid_tableau kostka lr_count lr_enumerate martin_kernel nabla
    nearest_shape normalize_shape p_tableau parse_word pi_restricted pi_shape
    pi_walk pi_weight pitman predecessors psi q_tableau quotient_llt_experiment
    reading rsk rsk_inverse sample_conditioned_walk sample_shape_chain
    sample_walk schur shape_from_weight stay_probability
    stay_probability_truncated successors theta_embed verify_m_le_K weight_of
    words_with_recording
""".split())
SUBMODULES = ("errors", "kinds", "tableaux", "insertion", "characters",
              "multiplicities", "markov", "simulate")


def test_pitman_loads_only_its_modules():
    # a fresh interpreter: the Pitman transform needs kinds, tableaux and
    # insertion (and errors), and the other submodules stay unloaded
    script = (
        "import sys\n"
        "from superwalk import pitman, rsk, AlgebraKind\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('superwalk'))))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out == ["superwalk", "superwalk.errors", "superwalk.insertion",
                   "superwalk.kinds", "superwalk.tableaux"]


def test_public_names_resolve_to_their_home_modules():
    import superwalk

    assert sorted(superwalk.__all__) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 71
    for name in PUBLIC_NAMES:
        value = getattr(superwalk, name)
        assert getattr(sys.modules[value.__module__], name) is value
    for name in SUBMODULES:
        assert getattr(superwalk, name) is importlib.import_module("superwalk." + name)
    assert set(PUBLIC_NAMES) | set(SUBMODULES) <= set(dir(superwalk))
    assert superwalk.__version__ == "0.1.0"
    with pytest.raises(AttributeError):
        superwalk.no_such_name


def _kinds_up_to(size):
    for n in range(1, size + 1):
        yield AlgebraKind.empty(n)
        yield AlgebraKind.strict(n)
        for m in range(1, size + 1 - n):
            yield AlgebraKind.hook(m, n)


def test_kind_tables_match_their_rules():
    # the alphabet, its size and the letter coordinates as the ranks define
    # them, with equality, hashing and repr on the three fields only
    for kind in _kinds_up_to(6):
        k, n, m = kind.kind, kind.n, kind.m
        hook = k == "hook"
        assert kind.alphabet == (tuple(range(-m, 0)) if hook else ()) + tuple(range(1, n + 1))
        assert kind.N == (m + n if hook else n) == len(kind.alphabet)
        for letter in range(-8, 9):
            if hook and -m <= letter <= -1:
                assert kind.letter_index(letter) == letter + m
            elif 1 <= letter <= n:
                assert kind.letter_index(letter) == letter - 1 + m
            else:
                with pytest.raises(InvalidInputError):
                    kind.letter_index(letter)
        twin = AlgebraKind(k, n, m)
        assert twin == kind and hash(twin) == hash(kind) == hash((k, n, m))
        assert repr(kind) == f"AlgebraKind(kind={k!r}, n={n}, m={m})"
        for other in (pickle.loads(pickle.dumps(kind)), copy.copy(kind), copy.deepcopy(kind)):
            assert other == kind and hash(other) == hash(kind)
            assert other.alphabet == kind.alphabet and other.N == kind.N
            assert [other.letter_index(x) for x in other.alphabet] == list(range(kind.N))
    assert len({kind for kind in _kinds_up_to(6)}) == len(list(_kinds_up_to(6)))
    assert AlgebraKind.empty(3) != AlgebraKind.strict(3)


KE2 = AlgebraKind.empty(2)
P2 = ProbVector.parse(KE2, "2/3,1/3")


@pytest.mark.parametrize("call", [
    lambda: check_shape(KE2, (True,)),
    lambda: successors(KE2, (True,)),
    lambda: stay_probability_truncated(KE2, (), P2, 2.5),
    lambda: stay_probability_truncated(KE2, (), P2, True),
    lambda: conditioned_step_kernel(KE2, P2, 2.5),
    lambda: conditioned_step_kernel(KE2, P2, True),
    lambda: RngStream(1.5),
    lambda: RngStream(1, 0.5),
    lambda: sample_conditioned_ensemble(KE2, P2, 2, 2, 2.5, RngStream(1)),
    lambda: shapes_of_size(KE2, True),
    lambda: sample_walk(KE2, P2, -3, RngStream(1)),
    lambda: drift_shape(KE2, P2, 2.5),
    lambda: estimate_letter_frequencies(KE2, P2, 2.5, 3, RngStream(1)),
    lambda: sample_shape_chain(KE2, P2, -2, RngStream(1)),
    lambda: sample_shape_chain(KE2, P2, 2.5, RngStream(1)),
    lambda: sample_conditioned_walk(KE2, P2, 2.5, 5, RngStream(1)),
    lambda: sample_conditioned_walk(KE2, P2, 2, 5.5, RngStream(1)),
    lambda: sample_conditioned_ensemble(KE2, P2, 2, 5.5, 2, RngStream(1)),
    lambda: estimate_conditioned_acceptance(KE2, P2, 2, 5.5, 2, RngStream(1)),
    lambda: pi_walk(KE2, P2).successors(("a", 0)),
    lambda: pi_walk(KE2, P2).successors((-3, 0)),
], ids=["shape-bool", "successors-bool", "horizon-float", "horizon-bool",
        "remaining-float", "remaining-bool", "seed-float", "index-float",
        "ensemble-paths-float", "boxes-bool", "length-negative", "scale-float",
        "frequency-paths-float", "shape-chain-length-negative",
        "shape-chain-length-float", "conditioned-length-float",
        "conditioned-horizon-float", "ensemble-horizon-float",
        "acceptance-horizon-float", "walk-state-str", "walk-state-negative"])
def test_integer_inputs_must_be_ints(call):
    with pytest.raises(InvalidInputError):
        call()


def test_weight_of_examples():
    assert weight_of(KE4, parse_word(KE4, "232143")) == (1, 2, 2, 1)
    assert weight_of(KE4, ()) == (0, 0, 0, 0)
    word = parse_word(KH23, "-23-2-132-12")
    assert weight_of(KH23, word) == (2, 2, 0, 2, 2)


@given(st.lists(st.integers(1, 4), max_size=12), st.lists(st.integers(1, 4), max_size=12))
def test_weight_additivity(u, v):
    wu, wv, wuv = weight_of(KE4, u), weight_of(KE4, v), weight_of(KE4, u + v)
    assert wuv == tuple(a + b for a, b in zip(wu, wv))


def test_is_valid_shape_examples():
    assert is_valid_shape(KS3, (4, 2, 1))
    assert not is_valid_shape(KS3, (2, 2))
    assert is_valid_shape(KH22, (3, 3, 2, 2, 2, 1))
    assert not is_valid_shape(KH22, (3, 3, 3))
    assert is_valid_shape(KE4, (3, 3, 2, 1))
    assert not is_valid_shape(KE4, (1, 1, 1, 1, 1))
    assert not is_valid_shape(KE4, (1, 2))
    assert is_valid_shape(KE4, ())
    assert not is_valid_shape(KE4, (True,))


def test_normalize_and_equality_ignores_trailing_zeros():
    assert normalize_shape((3, 1, 0, 0)) == (3, 1)
    assert check_shape(KE4, (3, 1, 0)) == check_shape(KE4, (3, 1))


def test_hook_split_examples():
    assert hook_split(KH22, (3, 3, 2, 2, 2, 1)) == ((3, 3), (4, 3))
    assert hook_split(KH22, ()) == ((), ())
    kh33 = AlgebraKind.hook(3, 3)
    assert hook_split(kh33, (3, 3, 3, 3, 3)) == ((3, 3, 3), (2, 2, 2))


def test_hook_split_roundtrip():
    for lam in _hook_shapes_up_to(KH22, 10):
        first, rest = hook_split(KH22, lam)
        rebuilt = normalize_shape(first + conjugate(rest))
        assert rebuilt == lam


def test_pi_weight_examples():
    assert pi_weight(KH22, (3, 3, 2, 2, 2, 1)) == (3, 3, 4, 3)
    assert pi_weight(KE4, ()) == (0, 0, 0, 0)
    assert pi_weight(KS3, (4, 2, 1)) == (4, 2, 1)


def test_shape_from_weight_roundtrip():
    for kind in (KE4, KH22, KS3):
        for lam in _shapes_up_to(kind, 6):
            assert shape_from_weight(kind, pi_weight(kind, lam)) == lam


def test_successors_examples():
    ke2 = AlgebraKind.empty(2)
    assert successors(ke2, (1,)) == [(2,), (1, 1)]
    ks2 = AlgebraKind.strict(2)
    assert successors(ks2, (1,)) == [(2,)]
    assert successors(KS3, (2, 1)) == [(3, 1)]


def _all_partitions(total, max_rows):
    if total == 0:
        yield ()
        return
    def rec(remaining, cap, prefix):
        if remaining == 0:
            yield tuple(prefix)
            return
        if len(prefix) == max_rows:
            return
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            yield from rec(remaining - part, part, prefix)
            prefix.pop()
    yield from rec(total, total, [])


def _diagram_contains(outer, inner):
    padded = tuple(outer) + (0,) * (len(inner) - len(outer))
    return all(a >= b for a, b in zip(padded, inner))


def test_successors_against_brute_force():
    # independent oracle: every partition one box larger, filtered by
    # validity and row-wise diagram containment
    for kind in (AlgebraKind.empty(2), KS3, KH22):
        for lam in _shapes_up_to(kind, 6):
            got = successors(kind, lam)
            assert len(set(got)) == len(got)
            brute = {
                cand
                for cand in _all_partitions(shape_size(lam) + 1, kind.N + kind.m + 8)
                if is_valid_shape(kind, cand) and _diagram_contains(cand, lam)
            }
            assert set(got) == brute
            for nxt in got:
                assert contains(kind, nxt, lam)
                assert shape_size(nxt) == shape_size(lam) + 1
                assert lam in predecessors(kind, nxt)


def test_added_coordinate():
    assert added_coordinate(KH22, (3, 3), (3, 3, 1)) == 2
    assert added_coordinate(KH22, (3, 3), (4, 3)) == 0
    with pytest.raises(InvalidInputError):
        added_coordinate(KE4, (1,), (3,))


def test_in_semigroup_examples():
    ke3 = AlgebraKind.empty(3)
    ks3 = AlgebraKind.strict(3)
    assert in_semigroup(ke3, (3, 2, 2))
    assert not in_semigroup(ks3, (3, 2, 2))
    assert not in_semigroup(KH22, (3, 1, 2, 2))
    assert in_semigroup(KH22, (3, 1, 1, 0))
    with pytest.raises(InvalidInputError):
        in_semigroup(ke3, (1, 2))


def test_integer_points_are_shapes():
    for kind in (AlgebraKind.empty(2), AlgebraKind.strict(2), AlgebraKind.hook(1, 1)):
        for point in product(range(7), repeat=kind.N):
            member = in_semigroup(kind, point)
            try:
                shape_from_weight(kind, point)
                ok = True
            except InvalidInputError:
                ok = False
            assert member == ok


# gl(3), q(4), gl(2,2), gl(1,3) and gl(3,1): every block shape of the hook rule
LOCAL_RULE_KINDS = (
    AlgebraKind.empty(3), AlgebraKind.strict(4), KH22, AlgebraKind.hook(1, 3),
    AlgebraKind.hook(3, 1),
)


@pytest.mark.parametrize("kind", LOCAL_RULE_KINDS, ids=AlgebraKind.describe)
def test_steps_run_the_local_tests_in_semigroup_conjoins(kind):
    # the points of C with at most 8 boxes are the pi-weights of the valid
    # shapes, and none has a negative coordinate; from each, _steps keeps a
    # move iff the whole vector is in C
    points = [w for w in product(range(-1, 9), repeat=kind.N)
              if sum(w) <= 8 and in_semigroup(kind, w)]
    shapes = [lam for k in range(9) for lam in _all_partitions(k, 8) if is_valid_shape(kind, lam)]
    assert sorted(points) == sorted(pi_weight(kind, lam) for lam in shapes)
    for w in points:
        for step in (1, -1):
            moves = [(i, w[:i] + (w[i] + step,) + w[i + 1:]) for i in range(kind.N)]
            assert list(_steps(kind, w, step)) == [(i, c) for i, c in moves if in_semigroup(kind, c)]


@pytest.mark.parametrize("letter", [1.5, 2.0, True, Fraction(2), "2", None])
def test_letters_must_be_ints(letter):
    ke3 = AlgebraKind.empty(3)
    with pytest.raises(InvalidInputError):
        ke3.letter_index(letter)
    with pytest.raises(InvalidInputError):
        weight_of(ke3, (letter,))
    with pytest.raises(InvalidInputError):
        pitman(ke3, (letter, 2, 1))
    with pytest.raises(InvalidInputError):
        rsk(ke3, (2, letter))
    assert not is_valid_tableau(Tableau(ke3, ((letter,),)))
    with pytest.raises(InvalidInputError):
        KH23.letter_index(-1.0)


def test_parse_word_forms():
    assert parse_word(KE4, "232143") == (2, 3, 2, 1, 4, 3)
    assert parse_word(KE4, "2,3,2") == (2, 3, 2)
    assert parse_word(KH23, "-23-2") == (-2, 3, -2)
    assert parse_word(KE4, "") == ()
    with pytest.raises(InvalidInputError):
        parse_word(KE4, "5")
    with pytest.raises(InvalidInputError):
        parse_word(KE4, "2-")


def _shapes_up_to(kind, boxes):
    out = []
    for size in range(boxes + 1):
        out.extend(shapes_of_size(kind, size))
    return out


def _hook_shapes_up_to(kind, boxes):
    return [s for s in _shapes_up_to(kind, boxes)]
