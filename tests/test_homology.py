"""Exact integer algebra: Smith forms, kernels, decision procedures."""

import importlib
import math
import random
import runpy
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import egl.homology as homology
from egl.decisions_io import decide_smooth
from egl.errors import DimensionMismatch, MalformedPresentation
from egl.homology import (HomologyPresentation, IntHom, double_cover_exists,
                          hausdorff_smooth_decision, integer_determinant,
                          integer_kernel_basis, kernel_generators,
                          lattice_member, smith_normal_form,
                          smooth_decision_witness)


def _reference_snf(M):
    """The smallest-pivot elimination without transform reduction that
    ``smith_normal_form`` used to run; S is unique, so both must agree."""
    S = [[int(x) for x in row] for row in M]
    m = len(S)
    n = len(S[0]) if m else 0

    def add_row(dst, src, c):
        S[dst] = [a + c * b for a, b in zip(S[dst], S[src])]

    def add_col(dst, src, c):
        for row in S:
            row[dst] += c * row[src]

    t = 0
    while t < min(m, n):
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                a = S[i][j]
                if a != 0 and (best is None or abs(a) < best):
                    best = abs(a)
                    pivot = (i, j)
        if pivot is None:
            break
        i, j = pivot
        if i != t:
            S[t], S[i] = S[i], S[t]
        if j != t:
            for row in S:
                row[t], row[j] = row[j], row[t]
        dirty = False
        for i in range(t + 1, m):
            if S[i][t]:
                add_row(i, t, -(S[i][t] // S[t][t]))
                dirty = dirty or bool(S[i][t])
        for j in range(t + 1, n):
            if S[t][j]:
                add_col(j, t, -(S[t][j] // S[t][t]))
                dirty = dirty or bool(S[t][j])
        if dirty:
            continue
        offender = next((i for i in range(t + 1, m)
                         if any(S[i][j] % S[t][t] for j in range(t + 1, n))), None)
        if offender is not None:
            add_row(t, offender, 1)
            continue
        if S[t][t] < 0:
            S[t] = [-a for a in S[t]]
        t += 1
    return S


def _reference_double_cover(i_pullback, eta_class):
    """The list-of-lists GF(2) elimination that ``double_cover_exists`` used to run."""
    A = [[int(x) % 2 for x in row] for row in i_pullback]
    b = [int(x) % 2 for x in eta_class]
    if not A:
        return not any(b)
    aug = [row[:] + [bb] for row, bb in zip(A, b)]
    row = 0
    for col in range(len(A[0])):
        piv = next((r for r in range(row, len(aug)) if aug[r][col]), None)
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        for r in range(len(aug)):
            if r != row and aug[r][col]:
                aug[r] = [(x + y) % 2 for x, y in zip(aug[r], aug[row])]
        row += 1
    return not any(not any(r[:-1]) and r[-1] for r in aug)


def _as_np(M):
    return np.array(M, dtype=object)


def _det_pm1(M):
    return integer_determinant(M) in (1, -1)


def snf_self_check(M):
    U, S, V = smith_normal_form(M)
    assert S == _reference_snf(M)
    assert (_as_np(U) @ _as_np(M) @ _as_np(V) == _as_np(S)).all()
    assert _det_pm1(U) and _det_pm1(V)
    diag = [S[i][i] for i in range(min(len(S), len(S[0]) if S else 0))]
    for a, b in zip(diag, diag[1:]):
        assert a >= 0
        if a != 0:
            assert b % a == 0
        else:
            assert b == 0
    # off-diagonal must vanish
    for i, row in enumerate(S):
        for j, x in enumerate(row):
            if i != j:
                assert x == 0
    return diag


def test_snf_identity_and_scalar():
    diag = snf_self_check([[1, 0], [0, 1]])
    assert diag == [1, 1]
    assert snf_self_check([[2]]) == [2]  # the doubling map of the Klein example


def test_snf_random_matrices(rng):
    for _ in range(200):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        M = rng.integers(-9, 10, size=(m, n)).tolist()
        snf_self_check(M)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                min_size=2, max_size=4))
def test_snf_property(M):
    snf_self_check(M)


def test_integer_kernel_basis():
    basis = integer_kernel_basis([[1, 2, 3]])
    assert len(basis) == 2
    for v in basis:
        assert v[0] + 2 * v[1] + 3 * v[2] == 0
    assert integer_kernel_basis([[1, 0], [0, 1]]) == []


def test_determinant_and_kernel_edge_cases():
    assert integer_determinant([]) == 1                  # the empty product
    with pytest.raises(MalformedPresentation, match="non-square"):
        integer_determinant([[1, 2, 3], [4, 5, 6]])
    # no pivot below a zero in the first column: singular before elimination
    assert integer_determinant([[0, 1, 2], [0, 3, 4], [0, 5, 6]]) == 0
    # a matrix with no rows has no columns either: the kernel of Z^0 is 0
    assert integer_kernel_basis([]) == []


def test_the_smith_form_of_a_matrix_without_rows_or_columns():
    # nothing to reduce: S is the matrix itself, U and V identities
    assert smith_normal_form([]) == ([], [], [])
    assert smith_normal_form([[], []]) == ([[1, 0], [0, 1]], [[], []], [])
    # a 2-D array keeps its width without rows: V is the identity on it
    assert smith_normal_form(np.zeros((0, 3), dtype=int)) == (
        [], [], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert smith_normal_form(np.zeros((2, 0), dtype=int)) == ([[1, 0], [0, 1]], [[], []], [])


def test_lattice_member():
    cols = [[2, 0], [0, 3]]
    assert lattice_member(cols, [4, -3])
    assert not lattice_member(cols, [1, 0])
    assert lattice_member([], [0, 0])
    assert not lattice_member([], [1, 0])


def test_kernel_generators_examples():
    free2 = HomologyPresentation(2)
    z4 = HomologyPresentation(4)
    inj = IntHom(((1, 0), (0, 1), (0, 0), (0, 0)), free2, z4)
    assert kernel_generators(inj) == []

    zero = IntHom(((0, 0),), free2, HomologyPresentation(1))
    gens = kernel_generators(zero)
    assert len(gens) == 2

    # Klein: Z + Z/2 with the free part doubling and the torsion killed
    klein_dom = HomologyPresentation(2, relations=((0, 2),))
    f = IntHom(((2, 0), (0, 0), (0, 0), (0, 0)), klein_dom, z4)
    gens = kernel_generators(f)
    assert len(gens) == 1
    v = gens[0]
    assert v[0] == 0 and v[1] % 2 == 1  # the torsion class


def test_inthom_validates_relations():
    dom = HomologyPresentation(1, relations=((2,),))
    cod = HomologyPresentation(1)  # free Z: 2 e must map into {0}
    with pytest.raises(MalformedPresentation):
        IntHom(((1,),), dom, cod)
    IntHom(((0,),), dom, cod)  # killing the torsion is fine


def test_hausdorff_smooth_trivial_cases():
    free2 = HomologyPresentation(2)
    cod = HomologyPresentation(3)
    zero = IntHom(tuple((0, 0) for _ in range(3)), free2, cod)
    assert hausdorff_smooth_decision(zero, [0, 0])
    assert not hausdorff_smooth_decision(zero, [1, 0])


def test_hausdorff_smooth_klein_fixture():
    dom = HomologyPresentation(2, relations=((0, 2),))
    cod = HomologyPresentation(4)
    i_star = IntHom(((2, 0), (0, 0), (0, 0), (0, 0)), dom, cod)
    # eta odd on the doubled free class, even on the killed torsion class
    assert hausdorff_smooth_decision(i_star, [1, 0])
    # flipping eta onto the torsion class destroys the factorization
    assert not hausdorff_smooth_decision(i_star, [1, 1])


def test_eta_must_be_well_defined():
    dom = HomologyPresentation(1, relations=((3,),))
    cod = HomologyPresentation(1, relations=((3,),))
    f = IntHom(((1,),), dom, cod)
    with pytest.raises(MalformedPresentation):
        hausdorff_smooth_decision(f, [1])  # eta(3 e) = 3 odd: ill-defined


def test_double_cover_examples():
    assert double_cover_exists([[0, 0], [0, 0]], [0, 0])
    assert not double_cover_exists([[0, 0], [0, 0]], [1, 0])
    # surjective restriction map: every class lifts
    assert double_cover_exists([[1, 0], [0, 1]], [1, 1])
    # Klein-in-torus: zero restriction, nonzero class
    assert not double_cover_exists([[0, 0, 0, 0], [0, 0, 0, 0]], [1, 0])
    with pytest.raises(DimensionMismatch, match="ragged"):
        double_cover_exists([[1, 0, 1], [0, 1]], [0, 1])


# ---------------------------------------------------------------------------
# randomized cross-check against construction-known oracles
# ---------------------------------------------------------------------------

def test_smooth_decision_matches_construction_oracle(rng):
    from oracle_utils import scrambled_smooth_fixture

    for _ in range(20):
        hom, eta, truth, _ = scrambled_smooth_fixture(rng)
        assert hausdorff_smooth_decision(hom, eta) == truth


def test_smooth_decision_matches_functional_enumeration(rng):
    from oracle_utils import brute_force_factorization, scrambled_smooth_fixture

    for _ in range(20):
        hom, eta, truth, kernel_gens = scrambled_smooth_fixture(rng)
        assert brute_force_factorization(hom, eta, kernel_gens) == truth
        assert hausdorff_smooth_decision(hom, eta) == truth

    # the construction-known kernel generators really die in the codomain
    hom, _, _, kernel_gens = scrambled_smooth_fixture(rng)
    for k in kernel_gens:
        assert lattice_member(hom.codomain.relation_columns, hom.apply(k))


# ---------------------------------------------------------------------------
# bounded Smith forms, one factorisation per lattice, one decision per document
# ---------------------------------------------------------------------------

def _digits(x: int) -> int:
    return len(str(abs(x)))


def _hadamard_digits(M) -> int:
    """Digits of ceil(prod ||row||_2) over the nonzero rows of M."""
    square = math.prod(sum(x * x for x in row) for row in M if any(row))
    root = math.isqrt(square)
    return _digits(root if root * root == square else root + 1)


def _products():
    rng = random.Random(4)
    for m, r, n in [(24, 12, 24), (32, 20, 40), (40, 30, 24), (30, 30, 45), (45, 30, 30)]:
        A = [[rng.randint(-9, 9) for _ in range(r)] for _ in range(m)]
        B = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(r)]
        yield pytest.param((np.array(A, dtype=object) @ np.array(B, dtype=object)).tolist(),
                           id=f"{m}x{r}x{n}")


def _squares():
    for n in (24, 32, 40):
        rng = random.Random(n)
        yield pytest.param([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)],
                           id=f"{n}x{n}")


@pytest.mark.parametrize("M", [*_squares(), *_products()])
def test_snf_transform_digits_stay_within_twice_the_hadamard_bound(M):
    U, S, V = smith_normal_form(M)
    assert (_as_np(U) @ _as_np(M) @ _as_np(V) == _as_np(S)).all()
    assert _det_pm1(U) and _det_pm1(V)
    assert S == _reference_snf(M)
    bound = 2 * _hadamard_digits(M) + 10
    worst = max(_digits(x) for T in (U, V) for row in T for x in row)
    assert worst <= bound, f"transform entries reach {worst} digits, bound {bound}"


def _count_hermite_passes(monkeypatch):
    calls = []
    real = homology._hermite_pass

    def counted(rows, width):
        calls.append(width)
        return real(rows, width)
    monkeypatch.setattr(homology, "_hermite_pass", counted)
    return calls


def test_each_lattice_is_factored_once(monkeypatch):
    cod = HomologyPresentation(3, relations=((2, 0, 0), (0, 3, 0), (0, 0, 4)))
    dom = HomologyPresentation(3, relations=((2, 0, 0), (0, 6, 0), (0, 0, 8), (4, 6, 8)))
    calls = _count_hermite_passes(monkeypatch)
    f = IntHom(((1, 0, 0), (0, 1, 0), (0, 0, 1)), dom, cod)
    assert len(calls) == 1      # four relations, one codomain factorisation
    calls.clear()
    gens = kernel_generators(f)
    assert len(calls) == 2      # the block's kernel, then the domain lattice once
    assert gens and all(lattice_member(cod.relation_columns, f.apply(g)) for g in gens)
    assert not any(lattice_member(dom.relation_columns, g) for g in gens)


def test_smooth_no_answer_computes_the_kernel_once(monkeypatch):
    doc = {"schema": "decision.v1",
           "smooth": {"domain": {"generators": ["a", "b"], "relations": [[0, 2]]},
                      "codomain": {"generators": ["x"], "relations": []},
                      "i_star": [[2, 0]], "eta": [0, 1]}}
    calls = []
    real = homology.kernel_generators
    monkeypatch.setattr(homology, "kernel_generators",
                        lambda f: calls.append(f) or real(f))
    answer, witness = decide_smooth(doc)
    assert answer is False and len(calls) == 1
    assert witness["kernel_generator"][1] % 2 == 1


def test_merged_smooth_path_rejects_ill_defined_eta():
    dom = HomologyPresentation(1, relations=((3,),))
    cod = HomologyPresentation(1, relations=((3,),))
    f = IntHom(((1,),), dom, cod)
    with pytest.raises(MalformedPresentation):
        smooth_decision_witness(f, [1])
    doc = {"schema": "decision.v1",
           "smooth": {"domain": {"generators": ["a"], "relations": [[3]]},
                      "codomain": {"generators": ["x"], "relations": [[3]]},
                      "i_star": [[1]], "eta": [1]}}
    with pytest.raises(MalformedPresentation):
        decide_smooth(doc)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 8).flatmap(lambda m: st.tuples(
    st.lists(st.lists(st.integers(0, 1), min_size=m, max_size=m), min_size=1, max_size=8),
    st.lists(st.integers(0, 1), min_size=8, max_size=8))))
def test_bit_packed_cover_matches_list_elimination(system):
    A, b = system
    b = b[:len(A)]
    assert double_cover_exists(A, b) == _reference_double_cover(A, b)


def test_the_class_has_one_entry_per_row_even_with_no_rows():
    assert double_cover_exists([], [])
    for A, b in (([], [1, 0, 1]), ([], [0]), ([[1, 0]], []), ([[1, 0], [0, 1]], [1])):
        with pytest.raises(DimensionMismatch, match="row count != class length"):
            double_cover_exists(A, b)


_NOT_BITS = (3, -1, 2, 1.0, 0.0, True, False, -4, 255, 256, 2 ** 70 + 1,
             np.int64(3), np.int8(-1), np.float64(5.0))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(lambda m: st.tuples(
    st.lists(st.lists(st.one_of(st.integers(0, 1), st.sampled_from(_NOT_BITS)),
                      min_size=m, max_size=m), min_size=1, max_size=8),
    st.lists(st.one_of(st.integers(0, 1), st.sampled_from(_NOT_BITS)),
             min_size=8, max_size=8),
    st.booleans())))
def test_rows_that_are_not_bits_pack_by_their_parity(system):
    A, b, as_tuples = system
    b = b[:len(A)]
    if as_tuples:
        A = tuple(map(tuple, A))
    assert double_cover_exists(A, b) == _reference_double_cover(A, b)


def test_array_rows_pack_by_their_values_not_their_buffer():
    A = np.array([[1, 0, 3], [0, 2, 1]])
    for b in ([1, 1], [0, 1], [1, 0]):
        assert double_cover_exists(A, b) == _reference_double_cover(A.tolist(), b), b
        assert double_cover_exists(A, np.array(b)) == _reference_double_cover(A.tolist(), b)


# ---------------------------------------------------------------------------
# kernel bases and lattice tests by one Hermite pass, against Smith-form oracles
# ---------------------------------------------------------------------------

def _seeded_matrices(seed: int, count: int = 60):
    """Small integer matrices: rectangular, rank-deficient, with zero rows, empty."""
    rng = random.Random(seed)
    yield from ([], [[]], [[], []], [[0, 0, 0]], [[0], [0]])
    for i in range(count):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        if i % 3 == 0:          # rank at most r: a product of thin factors
            r = rng.randint(1, min(m, n))
            A = [[rng.randint(-5, 5) for _ in range(r)] for _ in range(m)]
            B = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(r)]
            yield [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]
        elif i % 3 == 1:        # some rows zero
            yield [[0] * n if rng.random() < 0.4 else [rng.randint(-9, 9) for _ in range(n)]
                   for _ in range(m)]
        else:
            yield [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]


def _reference_hermite(rows):
    """Row Hermite form of the whole rows, reduced at every pivot after every insertion."""
    pivots = {}
    for row in rows:
        row = list(row)
        c = next((j for j, x in enumerate(row) if x), None)
        while c is not None and c in pivots:
            p = pivots[c]
            g, x, y = homology._xgcd(p[c], row[c])
            a, b = p[c] // g, row[c] // g
            pivots[c], row = ([x * u + y * v for u, v in zip(p, row)],
                              [a * v - b * u for u, v in zip(p, row)])
            c = next((j for j, x in enumerate(row) if x), None)
        if c is not None:
            pivots[c] = row if row[c] > 0 else [-v for v in row]
        for cj in sorted(pivots):
            for ci, ri in pivots.items():
                if ci != cj:
                    q = ri[cj] // pivots[cj][cj]
                    pivots[ci] = [u - q * v for u, v in zip(ri, pivots[cj])]
    return [pivots[c] for c in sorted(pivots)]


def _smith_member(columns, v):
    """The Smith-form membership rule: U R V = S, v in the lattice iff each
    coordinate of U v is divisible by its diagonal entry of S (zero past the rank)."""
    if not columns:
        return not any(v)
    R = [list(r) for r in zip(*columns)]
    U, S, _ = smith_normal_form(R)
    for i, row in enumerate(U):
        d = S[i][i] if i < len(columns) else 0
        w = sum(a * b for a, b in zip(row, v))
        if (w % d if d else w):
            return False
    return True


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_kernel_basis_is_the_smith_transform_past_the_rank(seed):
    for M in _seeded_matrices(seed):
        m, n = len(M), len(M[0]) if M else 0
        basis = integer_kernel_basis(M)
        if not (m and n):
            assert basis == ([] if n == 0 else [[int(i == j) for j in range(n)] for i in range(n)])
            continue
        _, S, V = smith_normal_form(M)
        rank = sum(1 for i in range(min(m, n)) if S[i][i])
        assert basis == [[V[i][j] for i in range(n)] for j in range(rank, n)]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_lattice_member_agrees_with_the_smith_rule(seed):
    rng = random.Random(100 + seed)
    for M in _seeded_matrices(seed):
        if not M:
            continue
        columns = [list(c) for c in zip(*M)]
        for _ in range(8):
            if columns and rng.random() < 0.5:      # a member, sometimes plus a nudge
                v = [sum(rng.randint(-3, 3) * c[i] for c in columns) for i in range(len(M))]
                v[rng.randrange(len(v))] += rng.choice((0, 0, 1, 2))
            else:
                v = [rng.randint(-6, 6) for _ in range(len(M))]
            assert lattice_member(columns, v) == _smith_member(columns, v), (columns, v)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_hermite_rows_equal_a_full_reduce_reference(seed):
    rng = random.Random(200 + seed)
    for M in _seeded_matrices(seed):
        m, n = len(M), len(M[0]) if M else 0
        if seed == 1:       # an identity tail, as the Smith form carries
            tails = [[int(i == j) for j in range(m)] for i in range(m)]
        else:
            width = rng.randint(0, 3)
            tails = [[rng.randint(-3, 3) for _ in range(width)] for _ in range(m)]
        rows = [list(r) + t for r, t in zip(M, tails)]
        out = homology._hermite_rows([list(r) for r in rows], n)
        assert out == _reference_hermite(rows), rows


# --- the first row pass: a tail-less Hermite pass and a certified lift ----

def _carried(M):
    """The first row pass of the Smith form with its transform carried."""
    n = len(M)
    return homology._hermite_rows([list(r) + e for r, e in zip(M, homology._identity(n))], n)


def _carried_snf(M, monkeypatch):
    """``smith_normal_form`` with its first transform carried, not lifted."""
    with monkeypatch.context() as patch:
        patch.setattr(homology, "_lifted_rows", lambda M: None)
        return smith_normal_form(M)


def _count_lifts(monkeypatch):
    primes = []
    real = homology._lift

    def counted(H, A, C, p, limit, **kw):
        primes.append(p)
        return real(H, A, C, p, limit, **kw)
    monkeypatch.setattr(homology, "_lift", counted)
    return primes


@pytest.mark.parametrize("bound", [9, 10 ** 6])
def test_the_lifted_first_pass_equals_the_carried_pass(bound):
    rng = random.Random(bound)
    for n in range(1, 41):
        while True:
            M = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
            if integer_determinant(M):
                break
        assert homology._lifted_rows(M) == _carried(M), n


def test_the_benchmarks_smith_forms_take_the_lift(monkeypatch):
    oracles = runpy.run_path(str(Path(__file__).parents[1] / "perfbench" / "oracles.py"))
    primes = _count_lifts(monkeypatch)
    for n in (16, 24, 32, 40):
        M = oracles["snf_matrix"](oracles["rng_for"](7, f"snf:{n}"), n)
        assert smith_normal_form(M) == _carried_snf(M, monkeypatch), n
    assert primes == [homology._LIFT_PRIMES[0]] * 4


def _fallbacks():
    p = homology._LIFT_PRIMES
    rng = random.Random(9)
    yield pytest.param([[1, 2, 3], [2, 4, 6], [0, 1, 5]], id="singular")
    yield pytest.param([[rng.randint(-9, 9) for _ in range(5)] for _ in range(3)], id="wide")
    yield pytest.param([[rng.randint(-9, 9) for _ in range(3)] for _ in range(5)], id="tall")
    yield pytest.param([[2 ** 40, 3, 1], [5, 7, 2], [1, 2 ** 39, 9]], id="past-int64-guard")
    d = [*p, 1, 1]      # det = the product of the lift primes
    yield pytest.param([[d[i] if i == j else int(j == i + 1) for j in range(len(d))]
                        for i in range(len(d))], id="singular-mod-every-lift-prime")


@pytest.mark.parametrize("M", _fallbacks())
def test_each_fallback_carries_the_transform_with_the_same_result(M, monkeypatch):
    assert homology._lifted_rows(M) is None
    primes = _count_lifts(monkeypatch)
    hermite = []
    real = homology._hermite_rows
    monkeypatch.setattr(homology, "_hermite_rows",
                        lambda rows, width: hermite.append(width) or real(rows, width))
    U, S, V = smith_normal_form(M)
    assert not primes and hermite[0] == len(M[0])
    assert (U, S, V) == _carried_snf(M, monkeypatch)
    assert S == _reference_snf(M)


def test_a_determinant_divisible_by_the_first_prime_lifts_modulo_the_next(monkeypatch):
    p = homology._LIFT_PRIMES
    M = [[p[0] if i == j == 0 else int(i == j) + int(j == i + 1) for j in range(4)]
         for i in range(4)]
    primes = _count_lifts(monkeypatch)
    assert smith_normal_form(M) == _carried_snf(M, monkeypatch)
    assert primes == [p[1]]


def test_a_lift_that_does_not_end_within_its_bound_raises():
    # x * 2 = 1 has no integer solution: the digits of 1/2 never end
    p = homology._LIFT_PRIMES[0]
    A = np.array([[2]], dtype=np.int64)
    C, det = homology._inverse_mod(A, p)
    assert C.tolist() == [[pow(2, -1, p)]] and det == 2
    with pytest.raises(ArithmeticError, match="12 digits"):
        homology._lift([[1]], A, C, p, 12)
    assert homology._lift([[6]], A, C, p, 1) == [[3]]


def test_a_lift_that_does_not_end_is_none_when_not_strict():
    p = homology._LIFT_PRIMES[0]
    A = np.array([[2]], dtype=np.int64)
    C, _ = homology._inverse_mod(A, p)
    assert homology._lift([[1]], A, C, p, 12, strict=False) is None
    assert homology._lift([[6]], A, C, p, 1, strict=False) == [[3]]


def test_the_inverse_mod_p_carries_the_determinant_mod_p():
    rng = random.Random(5)
    swapped = 0
    for k in range(200):
        n = rng.randint(1, 8)
        M = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if k % 2:       # a zero pivot: the elimination must swap rows
            M[0][0] = 0
            swapped += any(M[i][0] for i in range(1, n))
        p = homology._LIFT_PRIMES[k % 3]
        out = homology._inverse_mod(np.array(M, dtype=np.int64), p)
        det = integer_determinant(M)
        if det % p == 0:
            assert out is None
            continue
        C, det_mod_p = out
        assert det_mod_p == det % p
        assert ((np.array(M, dtype=object) @ C.astype(object)) % p == np.eye(n, dtype=int)).all()
    assert swapped >= 80


# --- the cyclic route: the Hermite form from one block solve -------------

def _decide_exact_matrices():
    oracles = runpy.run_path(str(Path(__file__).parents[1] / "perfbench" / "oracles.py"))
    for seed in range(1, 21):
        for n in (16, 24, 32, 40):
            yield seed, n, oracles["snf_matrix"](oracles["rng_for"](seed, f"snf:{n}"), n)


def _count_cyclic(monkeypatch):
    """For each first pass the cyclic route proposes a Hermite form for,
    whether its lift ended (the route settled the pass)."""
    settled = []
    real = homology._lift

    def counted(H, A, C, p, limit, strict=True):
        W = real(H, A, C, p, limit, strict)
        if not strict:      # only the cyclic route asks for a lift that may not end
            settled.append(W is not None)
        return W
    monkeypatch.setattr(homology, "_lift", counted)
    return settled


def test_the_cyclic_route_keeps_every_smith_byte_of_the_benchmarks_matrices(monkeypatch):
    settled = _count_cyclic(monkeypatch)
    for seed, n, M in _decide_exact_matrices():
        assert smith_normal_form(M) == _carried_snf(M, monkeypatch), (seed, n)
    # the other 8 have a non-cyclic cokernel, so no candidate was proposed
    assert settled == [True] * 72


def _unimodular(rng, n, steps=60):
    U = homology._identity(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]
    return U


def _with_cokernel(diagonal, seed):
    """U diag(diagonal) V for seeded unimodular U and V: cokernel of that diagonal."""
    rng = random.Random(seed)
    n = len(diagonal)
    U, V = _unimodular(rng, n), _unimodular(rng, n)
    D = [[diagonal[i] * V[i][j] for j in range(n)] for i in range(n)]
    return [[sum(U[i][k] * D[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _assert_the_pass_settles(M, monkeypatch):
    """The first pass falls back to the tail-less pass with the same bytes."""
    carried = _carried(M)
    passes = _count_hermite_passes(monkeypatch)
    assert homology._lifted_rows(M) == carried
    assert passes == [len(M)]
    assert smith_normal_form(M) == _carried_snf(M, monkeypatch)


def test_a_non_cyclic_cokernel_falls_back_to_the_pass(monkeypatch):
    M = _with_cokernel([1, 2, 2], 3)
    assert abs(integer_determinant(M)) == 4 and _reference_snf(M)[1][1] == 2
    settled = _count_cyclic(monkeypatch)
    _assert_the_pass_settles(M, monkeypatch)
    assert settled == []


def test_a_block_that_falls_short_of_the_determinant_falls_back(monkeypatch):
    M = _with_cokernel([1, 1, 1, 12], 4)
    settled = _count_cyclic(monkeypatch)
    real = homology._rhs_block
    monkeypatch.setattr(homology, "_rhs_block", lambda n: 2 * real(n))
    _assert_the_pass_settles(M, monkeypatch)    # order 6 against det 12
    assert settled == []


def test_a_determinant_mismatch_falls_back(monkeypatch):
    M = _with_cokernel([1, 1, 1, 12], 5)
    settled = _count_cyclic(monkeypatch)
    real = homology._inverse_mod

    def wrong(A, p):
        C, det = real(A, p)
        return C, det * 5 % p
    monkeypatch.setattr(homology, "_inverse_mod", wrong)
    _assert_the_pass_settles(M, monkeypatch)
    assert settled == []


def test_a_candidate_whose_lift_does_not_end_falls_back(monkeypatch):
    # the doubled block reaches order 6 only; a determinant of 6 mod p lets
    # that candidate (a lattice of index 6 over the rows of M) reach the
    # lift, which cannot end
    M = _with_cokernel([1, 1, 1, 12], 6)
    settled = _count_cyclic(monkeypatch)
    real_block, real_inverse = homology._rhs_block, homology._inverse_mod
    monkeypatch.setattr(homology, "_rhs_block", lambda n: 2 * real_block(n))
    monkeypatch.setattr(homology, "_inverse_mod", lambda A, p: (real_inverse(A, p)[0], 6))
    _assert_the_pass_settles(M, monkeypatch)
    assert settled == [False, False]    # the first pass, then the Smith form's


def test_a_functional_that_misses_a_row_of_m_is_refused(monkeypatch):
    # y / D = (12 e_1 + k e_4) / 12 k with k = 1 mod p and gcd(k, 12) = 1
    # passes the determinant test, and its lattice lies inside the row
    # lattice of M (so the lift would end), but it is not that lattice:
    # only M y = 0 mod D, which fails on the first row, refuses it
    p = homology._LIFT_PRIMES[0]
    k = 2 * p + 1
    assert math.gcd(k, 12) == 1
    M = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 12]]
    settled = _count_cyclic(monkeypatch)
    monkeypatch.setattr(homology, "_column_functional", lambda *a: ([12, 0, 0, k], 12 * k))
    _assert_the_pass_settles(M, monkeypatch)
    assert settled == []


def test_a_denominator_past_the_bound_falls_back(monkeypatch):
    # a reconstruction whose denominator exceeds the Hadamard bound ends
    # the column's functional, and with it the cyclic candidate
    M = _with_cokernel([1, 1, 1, 12], 4)
    settled = _count_cyclic(monkeypatch)
    functionals = []
    real = homology._column_functional

    def spied(*args):
        functionals.append(real(*args))
        return functionals[-1]
    monkeypatch.setattr(homology, "_reconstruct", lambda u, P, N: (1, P))
    monkeypatch.setattr(homology, "_column_functional", spied)
    _assert_the_pass_settles(M, monkeypatch)
    assert settled == [] and functionals == [None, None]   # the pass, then the Smith form's


@pytest.mark.parametrize("M", _fallbacks())
def test_no_cyclic_candidate_on_a_carried_first_pass(M, monkeypatch):
    calls = []
    monkeypatch.setattr(homology, "_cyclic_hermite", lambda *a: calls.append(a))
    assert smith_normal_form(M) == _carried_snf(M, monkeypatch)
    assert not calls


def test_the_functional_hermite_form_is_the_hermite_form_of_its_lattice():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 6)
        D = rng.choice([1, 2, 4, 6, 12, 30, 64, 210, 360])
        y = [rng.randrange(D) * rng.choice([1, 1, 2, 3]) for _ in range(n)]
        H = homology._functional_hermite(y, D)
        # the lattice is spanned by D e_i and every v with v . y = 0 mod D
        # over a box of small vectors; its Hermite form is unique
        gens = [[D * int(i == j) for j in range(n)] for i in range(n)] + [
            v for v in ([rng.randint(-D, D) for _ in range(n)] for _ in range(40))
            if sum(a * b for a, b in zip(v, y)) % D == 0]
        gens += [list(r) for r in H]
        assert H == homology._hermite_rows(gens, n)[:n]
        assert all(sum(a * b for a, b in zip(r, y)) % D == 0 for r in H)
        assert math.prod(H[i][i] for i in range(n)) == D // math.gcd(D, *y)


def test_kernel_generators_read_the_matrix_as_ints_once(monkeypatch):
    # a seed-7 decide-exact cycle read 35,536 entries while IntHom,
    # kernel_generators and integer_kernel_basis each read i_star
    # (4,112 entries a site); now IntHom alone does
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    ops = workloads.decide_ops(7)
    calls = []
    real = homology._as_int
    monkeypatch.setattr(homology, "_as_int", lambda x: calls.append(1) or real(x))
    for op in ops:
        assert op.check(op.run()), op.name
    assert len(calls) <= 35_536 - 2 * 4_112


# --- the exact layer reads integers only ---------------------------------

@pytest.mark.parametrize("entry", [1.5, float("nan"), float("inf"), None, "3", 2 + 0j])
def test_a_non_integer_entry_is_a_malformed_presentation(entry):
    with pytest.raises(MalformedPresentation, match="is not an integer"):
        smith_normal_form([[entry, 2], [3, 4]])
    with pytest.raises(MalformedPresentation, match="is not an integer"):
        integer_determinant([[entry]])
    with pytest.raises(MalformedPresentation, match="is not an integer"):
        lattice_member([[entry, 1]], [1, 1])
    with pytest.raises(MalformedPresentation, match="is not an integer"):
        lattice_member([[2, 1]], [entry, 1])
    with pytest.raises(MalformedPresentation, match="is not an integer"):
        HomologyPresentation(2, relations=((entry, 2),)).relation_columns
    with pytest.raises(MalformedPresentation, match="is not an integer"):
        double_cover_exists([[1, entry]], [1])
    with pytest.raises(MalformedPresentation, match="is not an integer"):
        double_cover_exists([[1, 0], (0, 1)], [1, entry])
    with pytest.raises(MalformedPresentation, match="is not an integer"):
        double_cover_exists([[1, 0], (0, entry)], [1, 1])


def test_the_message_names_the_entry():
    with pytest.raises(MalformedPresentation, match=r"entry 1\.5 "):
        smith_normal_form([[1.5, 2], [3, 4]])
    with pytest.raises(MalformedPresentation, match="entry '3' "):
        integer_determinant([["3"]])


def test_integers_and_integral_floats_still_read():
    M = [[2.0, np.int64(4), True], [np.float32(3.0), -1, np.uint8(7)], [0, False, 5]]
    ints = [[2, 4, 1], [3, -1, 7], [0, 0, 5]]
    assert smith_normal_form(M) == smith_normal_form(ints)
    assert integer_determinant(M) == integer_determinant(ints)
    assert lattice_member([[2.0, 0], [0, np.int32(3)]], [np.int64(4), 6.0])
    assert not lattice_member([[2, 0], [0, 3]], [True, 0])


def test_malformed_presentations_and_inputs_are_refused_by_name():
    with pytest.raises(MalformedPresentation, match="^relation length != generator count$"):
        HomologyPresentation(2, relations=((1,),))
    with pytest.raises(MalformedPresentation, match="^name count != generator count$"):
        HomologyPresentation(2, names=("a",))
    Z2 = HomologyPresentation(2)
    with pytest.raises(MalformedPresentation,
                       match="^hom matrix shape does not match presentations$"):
        IntHom(((1, 0),), Z2, Z2)
    with pytest.raises(MalformedPresentation,
                       match="^eta length != domain generator count$"):
        smooth_decision_witness(IntHom(((1, 0), (0, 1)), Z2, Z2), [1])
    with pytest.raises(DimensionMismatch, match="^lattice_member: column length mismatch$"):
        lattice_member([[1, 0, 0]], [1, 0])
