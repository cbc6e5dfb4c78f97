"""Signed permutations, twist groups, monodromy, covering isotropy."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egl.errors import DimensionMismatch, KTooLarge, MalformedPresentation, UnknownGenerator
from egl.homology import (HomologyPresentation, IntHom,
                          hausdorff_smooth_decision, kernel_generators)
from egl.signedperm import (MonodromyRep, SignedPermutation, _compose, _points, _signed,
                            covering_isotropy, full_hyperoctahedral,
                            hausdorff_nc_decision, nc_decision_witness, parse_token,
                            semidirect_inverse, semidirect_mul, twist_group)

FLIP = SignedPermutation((0,), (1,))
IDENT1 = SignedPermutation.identity(1)


def test_group_axioms_exhaustive_k_le_3():
    for k in (1, 2, 3):
        G = full_hyperoctahedral(k)
        e = SignedPermutation.identity(k)
        assert e in G
        elements = G.elements
        import math
        assert G.order == 2 ** k * math.factorial(k)
        for a in elements:
            assert (a * a.inverse()).is_identity()
            assert (a.inverse() * a).is_identity()
            assert a * e == a and e * a == a
        for a, b, c in itertools.product(elements, repeat=3):
            assert (a * b) * c == a * (b * c)


@pytest.mark.parametrize("perm,flips,message", [
    ((0, 0), (0, 0), "invalid signed permutation data"),     # not a permutation
    ((1, 2), (0, 0), "invalid signed permutation data"),     # not of 0..k-1
    ((0, 1), (0,), "invalid signed permutation data"),       # flips of another length
    ((1, 0), (0, 2), "flips must be 0/1"),
])
def test_malformed_signed_permutation_data_is_refused(perm, flips, message):
    with pytest.raises(MalformedPresentation, match=f"^{message}$"):
        SignedPermutation(perm, flips)


def test_products_inverses_and_point_images_equal_their_checked_constructions():
    # these skip __post_init__; each must equal the element built through it
    def checked(g):
        return SignedPermutation(tuple(g.perm), tuple(g.flips))

    for a in full_hyperoctahedral(3).elements[::5]:
        for b in full_hyperoctahedral(3).elements[::7]:
            for g in (a * b, a.inverse(), _signed(_compose(_points(a), _points(b)))):
                assert g == checked(g) and hash(g) == hash(checked(g))
                assert repr(g) == repr(checked(g))
    assert SignedPermutation.identity(4) == SignedPermutation((0, 1, 2, 3), (0, 0, 0, 0))


def test_action_is_a_left_action(rng):
    for k in (2, 3):
        G = full_hyperoctahedral(k).elements
        for _ in range(50):
            a = G[int(rng.integers(0, len(G)))]
            b = G[int(rng.integers(0, len(G)))]
            z = tuple(complex(*rng.normal(size=2)) for _ in range(k))
            lhs = (a * b).act(z)
            rhs = a.act(b.act(z))
            assert max(abs(x - y) for x, y in zip(lhs, rhs)) < 1e-12


def test_action_permutes_then_conjugates():
    swap = SignedPermutation((1, 0), (0, 0))
    flip_first = SignedPermutation((0, 1), (1, 0))
    z = (1 + 2j, 3 - 1j)
    assert swap.act(z) == (3 - 1j, 1 + 2j)
    assert flip_first.act(z) == (1 - 2j, 3 - 1j)
    both = flip_first * swap
    assert both.act(z) == (3 + 1j, 1 + 2j)


def test_semidirect_mul_k1_conjugation():
    lam, mu = 0.3 + 1.1j, -0.7 + 0.2j
    (z,), sp = semidirect_mul(((lam,), FLIP), ((mu,), FLIP))
    assert abs(z - lam * mu.conjugate()) < 1e-15
    assert sp.is_identity()


def test_semidirect_identity_and_inverse(rng):
    for k in (1, 2, 3):
        G = full_hyperoctahedral(k).elements
        for _ in range(50):
            sp = G[int(rng.integers(0, len(G)))]
            z = tuple(complex(*rng.normal(size=2)) + 2.0 for _ in range(k))
            g = (z, sp)
            zi, spi = semidirect_inverse(g)
            prod_z, prod_sp = semidirect_mul(g, (zi, spi))
            assert prod_sp.is_identity()
            assert max(abs(x - 1) for x in prod_z) < 1e-12


def test_semidirect_mixed_parts_rejected():
    with pytest.raises(DimensionMismatch):
        semidirect_mul((None, IDENT1), (((1 + 0j),), IDENT1))


def test_purely_discrete_elements_multiply_and_invert_discretely():
    swap_flip = SignedPermutation((1, 0), (1, 0))
    flip = SignedPermutation((0, 1), (0, 1))
    assert semidirect_mul((None, swap_flip), (None, flip)) == (None, swap_flip * flip)
    assert semidirect_inverse((None, swap_flip)) == (None, swap_flip.inverse())
    assert semidirect_mul((None, swap_flip), semidirect_inverse((None, swap_flip)))[1] \
        .is_identity()


def test_conjugation_orbit_is_not_discrete(rng):
    # conjugates of (v, flip) by 100 sampled (lambda, 1) are pairwise
    # distinct: a discrete normal subgroup cannot contain such elements
    v = 0.8 + 0.3j
    seen = []
    for _ in range(100):
        ph = float(rng.uniform(-np.pi, np.pi))
        lam = complex(np.cos(ph), np.sin(ph)) * float(rng.uniform(0.5, 2.0))
        g = ((lam,), IDENT1)
        conj, _ = semidirect_mul(semidirect_mul(g, ((v,), FLIP)), semidirect_inverse(g))
        seen.append(conj[0])
    for i in range(len(seen)):
        for j in range(i + 1, len(seen)):
            assert abs(seen[i] - seen[j]) > 1e-12


def test_twist_group_examples():
    trivial = twist_group([], k=2)
    assert trivial.order == 1 and trivial.untwisted_coorientable

    order2 = twist_group([FLIP])
    assert order2.order == 2 and not order2.untwisted_coorientable

    swap = SignedPermutation((1, 0), (0, 0))
    flip_first = SignedPermutation((0, 1), (1, 0))
    dihedral = twist_group([swap, flip_first])
    assert dihedral.order == 8
    assert dihedral.order == full_hyperoctahedral(2).order


def _matrix_closure(gens, k):
    """Independent closure in the faithful 2k x 2k matrix representation."""
    ident = tuple(map(tuple, np.eye(2 * k, dtype=int)))
    seen = {ident}
    frontier = [ident]
    mats = [np.array(g.matrix(), dtype=int) for g in gens]
    while frontier:
        nxt = []
        for a in frontier:
            A = np.array(a, dtype=int)
            for M in mats:
                for B in (A @ M, M @ A):
                    key = tuple(map(tuple, B))
                    if key not in seen:
                        seen.add(key)
                        nxt.append(key)
        frontier = nxt
    return seen


def test_twist_group_closure_matches_matrix_enumeration(rng):
    for k in (1, 2, 3, 4):
        pool = full_hyperoctahedral(k).elements
        for _ in range(10):
            count = int(rng.integers(1, 4))
            gens = [pool[int(rng.integers(0, len(pool)))] for _ in range(count)]
            group = twist_group(gens, k=k)
            mats = _matrix_closure(gens, k)
            assert group.order == len(mats)
            for g in group.elements:
                assert tuple(map(tuple, np.array(g.matrix(), dtype=int))) in mats


def test_twist_group_k_bound():
    with pytest.raises(KTooLarge):
        twist_group([], k=9)
    with pytest.raises(KTooLarge):
        full_hyperoctahedral(9)


def test_twist_group_enumeration_bounded_by_order():
    assert len(full_hyperoctahedral(6).elements) == 46_080
    G = full_hyperoctahedral(8)
    assert G.order == 10_321_920
    assert SignedPermutation((7, 0, 1, 2, 3, 4, 5, 6), (0, 1, 0, 0, 1, 0, 0, 1)) in G
    with pytest.raises(KTooLarge):
        G.elements
    with pytest.raises(KTooLarge):
        full_hyperoctahedral(7).elements


def _random_element(rng, k):
    perm = tuple(int(x) for x in rng.permutation(k))
    return SignedPermutation(perm, tuple(int(x) for x in rng.integers(0, 2, size=k)))


def test_twist_group_membership_matches_enumeration(rng):
    for k in (1, 2, 3, 4):
        pool = full_hyperoctahedral(k).elements
        for _ in range(10):
            count = int(rng.integers(0, 3))
            gens = [pool[int(rng.integers(0, len(pool)))] for _ in range(count)]
            group = twist_group(gens, k=k)
            reference = _matrix_closure(gens, k)
            # every element of the full group, members and non-members alike
            for g in pool:
                matrix = tuple(map(tuple, np.array(g.matrix(), dtype=int)))
                assert (g in group) == (matrix in reference)
    assert SignedPermutation.identity(3) not in twist_group([], k=2)


def test_twist_group_equality_across_generating_sets(rng):
    swap = SignedPermutation((1, 0, 2), (0, 0, 0))
    cycle = SignedPermutation((1, 2, 0), (0, 0, 0))
    other_swap = SignedPermutation((0, 2, 1), (0, 0, 0))
    assert twist_group([swap, cycle]) == twist_group([swap, other_swap])
    assert twist_group([swap, cycle]) == twist_group([cycle * swap, cycle.inverse(), swap])
    assert twist_group([swap]) != twist_group([other_swap])
    assert twist_group([swap, cycle]) != twist_group([cycle])
    assert twist_group([], k=2) != twist_group([], k=3)
    for k in (2, 3, 4):
        flip = SignedPermutation(tuple(range(k)), (1,) + (0,) * (k - 1))
        words = [_random_element(rng, k) for _ in range(4)]
        mixed = twist_group(words + [flip] + [a * b for a in words for b in words])
        assert mixed == twist_group(words + [flip])
        assert hash(mixed) == hash(twist_group(words + [flip]))
    assert full_hyperoctahedral(4) == twist_group(full_hyperoctahedral(4).elements)


def _name_from_elements(group):
    """Descriptor name with the pure-flips/pure-perms tests run over every element."""
    import math
    elements = group.elements
    if len(elements) == 1:
        return "1"
    k = group.k
    if all(g.perm == tuple(range(k)) for g in elements):
        return "ℤ/2" if len(elements) == 2 else f"(ℤ/2)^{int(math.log2(len(elements)))}"
    if all(not any(g.flips) for g in elements):
        if len(elements) == math.factorial(k):
            return "Σ" + "₀₁₂₃₄₅₆₇₈₉"[k]
        return f"Σ-subgroup of order {len(elements)}"
    if len(elements) == 2 ** k * math.factorial(k):
        return f"(ℤ/2)^{k}⋊Σ" + "₀₁₂₃₄₅₆₇₈₉"[k]
    return f"twist group of order {len(elements)}"


def test_descriptor_names_unchanged(rng):
    sub = "₀₁₂₃₄₅₆₇₈₉"
    for k in (3, 4, 5, 6):
        ident = tuple(range(k))
        no_flips = (0,) * k
        swap = SignedPermutation((1, 0) + ident[2:], no_flips)
        cycle = SignedPermutation(ident[1:] + ident[:1], no_flips)
        h = _random_element(rng, k)
        by_perm = SignedPermutation(tuple(int(x) for x in rng.permutation(k)), no_flips)
        flips = [SignedPermutation(ident, tuple(int(i == j) for i in range(k)))
                 for j in range(k)]
        cases = [
            (twist_group([swap, cycle]), f"Σ{sub[k]}"),
            (twist_group([by_perm * g * by_perm.inverse() for g in (swap, cycle)]), f"Σ{sub[k]}"),
            (twist_group([h * g * h.inverse() for g in (swap, cycle)]), None),
            (full_hyperoctahedral(k), f"(ℤ/2)^{k}⋊Σ{sub[k]}"),
            (twist_group([h * g * h.inverse() for g in (swap, cycle, flips[0])]),
             f"(ℤ/2)^{k}⋊Σ{sub[k]}"),
            (twist_group(flips[:1]), "ℤ/2"),
            (twist_group(flips[:2]), "(ℤ/2)^2"),
            (twist_group(flips), f"(ℤ/2)^{k}"),
            (twist_group([flips[0] * flips[1], flips[1] * flips[2]]), "(ℤ/2)^2"),
            (twist_group([swap]), "Σ-subgroup of order 2"),
        ]
        for group, want in cases:
            name = covering_isotropy(MonodromyRep(
                images={f"g{i}": g for i, g in enumerate(group.generators)}), 1).name
            assert name == f"ℂ*⋊{_name_from_elements(group)}"
            if want is not None:
                assert name == f"ℂ*⋊{want}"


def test_monodromy_words():
    rep = MonodromyRep(images={"a": FLIP, "b": SignedPermutation((0,), (0,))})
    assert rep.evaluate(["a", "a"]).is_identity()
    assert rep.evaluate(["a", "~a"]).is_identity()
    assert rep.evaluate(["a", "b^-1"]) == FLIP
    # the tokens resolved so far are cached; an unknown token still raises,
    # naming the first one in the word, and is never cached
    for word, name in ((["c"], "c"), (["b", "c^-1", "a"], "c"), (["a", "~b", "d", "c"], "d")):
        with pytest.raises(UnknownGenerator, match=f"'{name}'"):
            rep.evaluate(word)
    assert rep.evaluate(["a", "~b"]) == FLIP
    assert set(rep._steps) == {"a", "b", "~a", "~b", "b^-1"}


@st.composite
def _rep_and_word(draw):
    k = draw(st.integers(1, 6))
    names = [f"g{i}" for i in range(draw(st.integers(1, 4)))]
    images = {name: SignedPermutation(tuple(draw(st.permutations(range(k)))),
                                      tuple(draw(st.lists(st.integers(0, 1),
                                                          min_size=k, max_size=k))))
              for name in names}
    word = draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(["", "~", "^-1"])),
                         max_size=40))
    tokens = [name + mark if mark == "^-1" else mark + name for name, mark in word]
    return MonodromyRep(images=images), tokens


def _left_fold(rep, word):
    out = SignedPermutation.identity(rep.k)
    for token in word:
        name, inverse = parse_token(token)
        out = out * (rep.images[name].inverse() if inverse else rep.images[name])
    return out


@settings(max_examples=200, deadline=None)
@given(_rep_and_word())
def test_evaluate_is_a_left_fold_of_mul(case):
    rep, word = case
    assert rep.evaluate(word) == _left_fold(rep, word)


def test_evaluate_equals_the_step_by_step_point_product():
    rng = np.random.default_rng(20)
    for k in range(1, 7):
        images = {f"g{i}": SignedPermutation(tuple(rng.permutation(k).tolist()),
                                             tuple(rng.integers(0, 2, k).tolist()))
                  for i in range(3)}
        rep = MonodromyRep(images=images)
        for _ in range(20):
            marks = rng.integers(0, 3, int(rng.integers(0, 30)))
            names = rng.integers(0, 3, len(marks))
            word = [("", "~", "")[m] + f"g{i}" + ("", "", "^-1")[m]
                    for i, m in zip(names, marks)]
            p = tuple(range(2 * k))
            for token in word:
                p = _compose(p, rep._points_of(token))
            # the words of one representation share its resolved tokens
            assert rep.evaluate(word) == _signed(p) == _left_fold(rep, word), (k, word)


def test_generators_named_like_inverses_keep_parse_tokens_reading():
    swap = SignedPermutation((1, 0), (1, 0))
    flip = SignedPermutation((0, 1), (0, 1))
    rep = MonodromyRep(images={"a": swap, "a^-1": flip, "~a": SignedPermutation.identity(2)})
    # "a^-1" and "~a" are the inverse of a; "~a^-1" inverts the generator named
    # "a^-1", and "~~a" the one named "~a"
    for word in (["a^-1"], ["~a"], ["~a^-1"], ["a^-1", "~a^-1", "a"], ["~~a", "a^-1", "~a"],
                 ["a", "a^-1", "~a^-1", "~a", "~~a"]):
        assert rep.evaluate(word) == _left_fold(rep, word), word
    assert rep.evaluate(["a^-1"]) == swap.inverse()
    assert rep.evaluate(["~a^-1"]) == flip.inverse()


def test_a_representation_with_no_generators_has_the_degree_it_is_given():
    rep = MonodromyRep(images={}, kernel_words=((),), degree=2)
    assert rep.k == 2
    assert rep.evaluate(()) == SignedPermutation.identity(2)
    assert hausdorff_nc_decision([rep])
    assert covering_isotropy(rep, 1).name == "ℂ*"
    with pytest.raises(UnknownGenerator):
        rep.evaluate(["g"])
    with pytest.raises(MalformedPresentation, match="no degree"):
        MonodromyRep(images={}).k
    assert MonodromyRep(images={"g": FLIP}, degree=1) == MonodromyRep(images={"g": FLIP})
    with pytest.raises(DimensionMismatch):
        MonodromyRep(images={"g": FLIP}, degree=2)


def test_nc_decision_trivial_and_flip():
    trivial = MonodromyRep(images={"g": IDENT1}, kernel_words=(("g",),))
    assert hausdorff_nc_decision([trivial])
    bad = MonodromyRep(images={"g": FLIP}, kernel_words=(("g",),))
    assert not hausdorff_nc_decision([bad])
    idx, word, image = nc_decision_witness([trivial, bad])
    assert idx == 1 and word == ("g",) and image == FLIP
    # words evaluating to the identity are fine even with twisted images
    even = MonodromyRep(images={"g": FLIP}, kernel_words=(("g", "g"),))
    assert hausdorff_nc_decision([even])


def test_nc_decision_reproduces_smooth_on_abelianized_fixtures(rng):
    # single smooth stratum: monodromy through eta; kernel words spell
    # out kernel generators of the pushforward
    for _ in range(20):
        r = int(rng.integers(1, 4))
        c = int(rng.integers(1, 4))
        F = rng.integers(-2, 3, size=(c, r))
        eta = [int(rng.integers(0, 2)) for _ in range(r)]
        dom = HomologyPresentation(r)
        cod = HomologyPresentation(c)
        hom = IntHom(tuple(map(tuple, F.tolist())), dom, cod)
        smooth = hausdorff_smooth_decision(hom, eta)

        names = [f"g{i}" for i in range(r)]
        images = {names[i]: SignedPermutation((0,), (eta[i],)) for i in range(r)}
        words = []
        for vec in kernel_generators(hom):
            word = []
            for i, coeff in enumerate(vec):
                token = names[i] if coeff >= 0 else f"~{names[i]}"
                word.extend([token] * abs(coeff))
            words.append(tuple(word))
        rep = MonodromyRep(images=images, kernel_words=tuple(words))
        assert hausdorff_nc_decision([rep]) == smooth


def test_covering_isotropy_descriptors():
    trivial = MonodromyRep(images={"g": IDENT1})
    assert covering_isotropy(trivial, 1).name == "ℂ*"

    conj = MonodromyRep(images={"g": FLIP})
    assert covering_isotropy(conj, 1).name == "ℂ*⋊ℤ/2"

    swap = MonodromyRep(images={"g": SignedPermutation((1, 0), (0, 0))})
    assert covering_isotropy(swap, 2).name == "(ℂ*)²⋊Σ₂"


def test_degree_mismatches_are_refused_by_name():
    one, two = SignedPermutation.identity(1), SignedPermutation.identity(2)
    with pytest.raises(ValueError, match="^k required when the generating set is empty$"):
        twist_group([])
    with pytest.raises(DimensionMismatch, match="^generators of mixed degree$"):
        twist_group([two, SignedPermutation.identity(3)])
    with pytest.raises(DimensionMismatch, match="^signed permutation degrees differ$"):
        one * two
    with pytest.raises(DimensionMismatch, match="^vector length != degree$"):
        two.act((1j,))
    with pytest.raises(DimensionMismatch, match="^continuous part length != degree$"):
        semidirect_mul(((1 + 0j,), two), ((1 + 0j, 1 + 0j), two))
