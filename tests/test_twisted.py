"""Twisted arrows over normal-crossing strata and their restrictions."""

import itertools

import pytest

from egl.errors import EndpointMismatch, MalformedPresentation, StratumMismatch
from egl.signedperm import (MonodromyRep, SignedPermutation, semidirect_mul,
                            twist_group)
from egl.twisted import TwistedArrow, kappa_restrict, twisted_compose

X, Y, Z = (0.0,), (1.0,), (2.0,)

SWAP = SignedPermutation((1, 0), (0, 0))
FLIP1 = SignedPermutation((0, 1), (1, 0))
REP2 = MonodromyRep(images={"s": SWAP, "f": FLIP1})
REP1 = MonodromyRep(images={"c": SignedPermutation((0,), (1,))})


def _arrow(t, s, z, word, rep):
    return TwistedArrow(target=t, source=s, z=tuple(z), word=tuple(word),
                        element=rep.evaluate(word))


def test_untwisted_composition_is_componentwise():
    a1 = _arrow(X, Y, (2 + 1j, 3j), (), REP2)
    a2 = _arrow(Y, Z, (1 - 1j, 2.0), ("s",), REP2)
    out = twisted_compose(a1, a2, REP2)
    # trivial word on the first factor: plain slotwise product
    assert out.z[0] == (2 + 1j) * (1 - 1j)
    assert out.z[1] == 3j * 2.0
    assert out.word == ("s",)
    assert out.target == X and out.source == Z


def test_conjugation_flag_matches_semidirect_oracle():
    lam, mu = 1.5 - 0.5j, 0.25 + 2j
    a1 = _arrow(X, Y, (lam,), ("c",), REP1)
    a2 = _arrow(Y, Z, (mu,), (), REP1)
    out = twisted_compose(a1, a2, REP1)
    (expected,), _ = semidirect_mul(((lam,), REP1.evaluate(("c",))),
                                    ((mu,), REP1.evaluate(())))
    assert out.z == (expected,)
    assert abs(out.z[0] - lam * mu.conjugate()) < 1e-15


def test_isotropy_realizes_torus_extension_by_twist_group(rng):
    # arrows from X to X generate (C*)^2 x| T with T the image closure;
    # composition must agree with the semidirect oracle on samples
    words = [(), ("s",), ("f",), ("s", "f")]
    for w1, w2 in itertools.product(words, repeat=2):
        z1 = (1 + 1j, 2 - 1j)
        z2 = (0.5j, 3 + 0.25j)
        a1 = _arrow(X, X, z1, w1, REP2)
        a2 = _arrow(X, X, z2, w2, REP2)
        out = twisted_compose(a1, a2, REP2)
        zexp, spexp = semidirect_mul((z1, REP2.evaluate(w1)), (z2, REP2.evaluate(w2)))
        assert max(abs(a - b) for a, b in zip(out.z, zexp)) < 1e-15
        assert out.element == spexp
    group = twist_group([SWAP, FLIP1])
    assert all(REP2.evaluate(w) in group for w in words)


def test_twisted_compose_associative_exhaustively():
    tokens = ["s", "f", "~s", "~f"]
    words = [()] + [(t,) for t in tokens] + list(itertools.product(tokens, repeat=2))
    zs = [(1 + 0.5j, -2j), (0.25, 1 + 1j)]
    arrows = [_arrow(X, X, z, w, REP2) for w in words for z in zs[:1]]
    for a, b, c in itertools.islice(itertools.product(arrows, repeat=3), 3000):
        lhs = twisted_compose(twisted_compose(a, b, REP2), c, REP2)
        rhs = twisted_compose(a, twisted_compose(b, c, REP2), REP2)
        assert lhs.element == rhs.element
        assert max(abs(x - y) for x, y in zip(lhs.z, rhs.z)) < 1e-12
        assert lhs.word == rhs.word


def test_twisted_compose_words_up_to_length_four():
    # exhaustive over all word pairs of length <= 4 on two generators:
    # composition agrees with the exact semidirect product of the
    # evaluated elements acting on the continuous parts
    tokens = ["s", "f"]
    words = [w for r in range(5) for w in itertools.product(tokens, repeat=r)]
    z1, z2 = (1 + 1j, 0.5 - 0.25j), (2j, -1 + 0.5j)
    for w1, w2 in itertools.product(words, repeat=2):
        a1 = _arrow(X, X, z1, w1, REP2)
        a2 = _arrow(X, X, z2, w2, REP2)
        out = twisted_compose(a1, a2, REP2)
        zexp, spexp = semidirect_mul((z1, REP2.evaluate(w1)),
                                     (z2, REP2.evaluate(w2)))
        assert out.element == spexp
        assert max(abs(a - b) for a, b in zip(out.z, zexp)) < 1e-13


def test_endpoint_and_stratum_errors():
    a1 = _arrow(X, Y, (1.0,), (), REP1)
    a2 = _arrow(Z, X, (1.0,), (), REP1)
    with pytest.raises(EndpointMismatch):
        twisted_compose(a1, a2, REP1)
    b2 = _arrow(Y, Z, (1.0, 1.0), (), REP2)
    with pytest.raises(StratumMismatch):
        twisted_compose(a1, b2, REP1)
    with pytest.raises(MalformedPresentation):
        TwistedArrow(X, Y, (0.0,), (), SignedPermutation.identity(1))
    with pytest.raises(StratumMismatch, match="^element degree != number of continuous slots$"):
        TwistedArrow(X, Y, (1.0, 1.0), (), SignedPermutation.identity(1))


def test_the_unit_is_a_two_sided_identity():
    for word in ((), ("s",), ("f", "~s"), ("s", "f", "f")):
        arrow = _arrow(X, Y, (2 + 1j, -0.5 + 3j), word, REP2)
        assert twisted_compose(TwistedArrow.unit(X, 2), arrow, REP2) == arrow
        assert twisted_compose(arrow, TwistedArrow.unit(Y, 2), REP2) == arrow


def test_kappa_restriction_identity_and_two_step():
    fine = REP2
    mid = MonodromyRep(images={"s": SWAP, "f": SignedPermutation.identity(2)})
    coarse = MonodromyRep(images={"s": SignedPermutation.identity(2),
                                  "f": SignedPermutation.identity(2)})
    tokens = ["s", "f", "~s"]
    words = [()] + [(t,) for t in tokens] \
        + list(itertools.product(tokens, repeat=2)) \
        + list(itertools.product(tokens, repeat=3))
    for w in words:
        arrow = _arrow(X, Y, (2 + 1j, 1 - 1j), w, fine)
        assert kappa_restrict(arrow, fine) == arrow
        two_step = kappa_restrict(kappa_restrict(arrow, mid), coarse)
        one_step = kappa_restrict(arrow, coarse)
        assert two_step == one_step
        assert two_step.z == arrow.z
        assert one_step.element.is_identity()


def test_kappa_trivial_coarse_image():
    rep = REP2
    coarse = MonodromyRep(images={"s": SignedPermutation.identity(2),
                                  "f": SignedPermutation.identity(2)})
    arrow = _arrow(X, Y, (3.0, 4.0), ("s", "f"), rep)
    out = kappa_restrict(arrow, coarse)
    assert out.element.is_identity()
    assert out.z == arrow.z and out.word == arrow.word
