"""Signed permutations, twist groups, and monodromy representations.

The hyperoctahedral-type group (Z/2)^k x| Sigma_k acts on (C*)^k by
permuting coordinates and then conjugating the flagged ones.  The group
law used everywhere is the one induced by composing these
transformations, so ``(g * h).act(z) == g.act(h.act(z))`` holds exactly;
cross-oracle tests against the chart-level twisted composition pin this
convention.

A twist group is held as its generators plus a stabiliser chain
(Schreier-Sims), so its order, membership and descriptor name cost no
listing of elements.  Degrees are bounded at k <= K_MAX; listing the
elements is further bounded by the group's order (ENUMERATION_LIMIT).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, Iterable, Optional, Sequence, Tuple

from .errors import DimensionMismatch, KTooLarge, MalformedPresentation, UnknownGenerator

__all__ = [
    "SignedPermutation",
    "semidirect_mul",
    "semidirect_inverse",
    "TwistGroup",
    "twist_group",
    "full_hyperoctahedral",
    "MonodromyRep",
    "parse_token",
    "hausdorff_nc_decision",
    "nc_decision_witness",
    "GroupDescriptor",
    "covering_isotropy",
]

K_MAX = 8
# order of (Z/2)^6 x| Sigma_6: the largest group ``TwistGroup.elements`` lists
ENUMERATION_LIMIT = 46_080


@dataclass(frozen=True)
class SignedPermutation:
    """Element (sigma, eps) of (Z/2)^k x| Sigma_k.

    ``perm[i]`` is the image of index i under sigma; ``flips[i]`` flags
    complex conjugation of output coordinate i.  Acting on z in (C*)^k:
    first permute (output slot i receives z[sigma^{-1}(i)]), then
    conjugate the flagged slots.
    """

    perm: Tuple[int, ...]
    flips: Tuple[int, ...]

    def __post_init__(self):
        k = len(self.perm)
        if sorted(self.perm) != list(range(k)) or len(self.flips) != k:
            raise MalformedPresentation("invalid signed permutation data")
        if any(f not in (0, 1) for f in self.flips):
            raise MalformedPresentation("flips must be 0/1")

    @staticmethod
    def identity(k: int) -> "SignedPermutation":
        return SignedPermutation(tuple(range(k)), (0,) * k)

    @property
    def degree(self) -> int:
        return len(self.perm)

    def is_identity(self) -> bool:
        return self.perm == tuple(range(self.degree)) and not any(self.flips)

    def __mul__(self, other: "SignedPermutation") -> "SignedPermutation":
        if self.degree != other.degree:
            raise DimensionMismatch("signed permutation degrees differ")
        inv = _invert(self.perm)
        perm = tuple(self.perm[other.perm[i]] for i in range(self.degree))
        flips = tuple((self.flips[i] + other.flips[inv[i]]) % 2 for i in range(self.degree))
        return SignedPermutation(perm, flips)

    def inverse(self) -> "SignedPermutation":
        inv = _invert(self.perm)
        flips = tuple(self.flips[self.perm[j]] for j in range(self.degree))
        return SignedPermutation(inv, flips)

    def act(self, z: Sequence[complex]) -> Tuple[complex, ...]:
        """Permute, then conjugate flagged coordinates."""
        if len(z) != self.degree:
            raise DimensionMismatch("vector length != degree")
        inv = _invert(self.perm)
        out = []
        for i in range(self.degree):
            w = complex(z[inv[i]])
            out.append(w.conjugate() if self.flips[i] else w)
        return tuple(out)

    def matrix(self):
        """Faithful 2k x 2k real matrix (permutation blocks, conjugation = diag(1,-1))."""
        k = self.degree
        M = [[0] * (2 * k) for _ in range(2 * k)]
        inv = _invert(self.perm)
        for i in range(k):
            j = inv[i]
            M[2 * i][2 * j] = 1
            M[2 * i + 1][2 * j + 1] = -1 if self.flips[i] else 1
        return tuple(map(tuple, M))


def semidirect_mul(g, h):
    """Product in (C*)^k x| ((Z/2)^k x| Sigma_k).

    Elements are ``(z, sp)`` with z a tuple of nonzero complex numbers
    (or None for a purely discrete element): (z, g)(z', g') =
    (z * g.act(z'), g g').
    """
    zg, sg = g
    zh, sh = h
    sp = sg * sh
    if zg is None and zh is None:
        return (None, sp)
    if zg is None or zh is None:
        raise DimensionMismatch("cannot mix purely discrete and full elements")
    if len(zg) != sg.degree or len(zh) != sh.degree:
        raise DimensionMismatch("continuous part length != degree")
    acted = sg.act(zh)
    return (tuple(a * b for a, b in zip(zg, acted)), sp)


def semidirect_inverse(g):
    zg, sg = g
    si = sg.inverse()
    if zg is None:
        return (None, si)
    acted = si.act(zg)
    return (tuple(1.0 / a for a in acted), si)


# A signed permutation g acts faithfully on the 2k points 2*j + s, one
# per (slot j, sign s): g sends (j, s) to (perm[j], s ^ flips[perm[j]]),
# so that g * h acts as g after h.  The points 2*j (sign 0) form a base:
# only the identity fixes them all.  Point permutations are tuples ``p``
# with ``p[x]`` the image of x.

def _points(g: SignedPermutation) -> Tuple[int, ...]:
    out = [0] * (2 * g.degree)
    for j, pj in enumerate(g.perm):
        f = g.flips[pj]
        out[2 * j] = 2 * pj + f
        out[2 * j + 1] = 2 * pj + 1 - f
    return tuple(out)


def _signed(p: Tuple[int, ...]) -> SignedPermutation:
    images = p[::2]
    flips = [0] * len(images)
    for x in images:
        flips[x >> 1] = x & 1
    return SignedPermutation(tuple(x >> 1 for x in images), tuple(flips))


def _compose(a: Tuple[int, ...], b: Tuple[int, ...]) -> Tuple[int, ...]:
    """a after b."""
    return tuple([a[x] for x in b])


def _invert(a: Tuple[int, ...]) -> Tuple[int, ...]:
    out = [0] * len(a)
    for x, y in enumerate(a):
        out[y] = x
    return tuple(out)


def _orbit(base_point: int, gens, ident) -> Dict[int, Tuple[tuple, tuple]]:
    """{orbit point q: (u, u^-1)} with ``u[base_point] == q``."""
    trans = {base_point: (ident, ident)}
    frontier = [base_point]
    while frontier:
        nxt = []
        for q in frontier:
            u = trans[q][0]
            for s in gens:
                r = s[q]
                if r not in trans:
                    w = _compose(s, u)
                    trans[r] = (w, _invert(w))
                    nxt.append(r)
        frontier = nxt
    return trans


def _sift(p: Tuple[int, ...], chain, start: int = 0):
    """Strip p through levels start.. of the chain: (residue, level it stopped at)."""
    for level in range(start, len(chain)):
        u = chain[level].get(p[2 * level])
        if u is None:
            return p, level
        p = _compose(u[1], p)
    return p, len(chain)


def _stabiliser_chain(gens, k: int):
    """Schreier-Sims over the base 0, 2, ..., 2k-2 (Sims 1970).

    Level i holds the transversal of base point 2i under the stabiliser
    of the earlier base points, as ``{q: (u, u^-1)}`` with ``u[2i] == q``.
    Levels are completed deepest first; a Schreier generator that does
    not sift becomes a strong generator of every level it passed, and
    the scan resumes at the deepest level it reached.
    """
    ident = tuple(range(2 * k))
    strong = [[] for _ in range(k)]
    for p in dict.fromkeys(gens):
        if p != ident:
            for level in range(k):
                strong[level].append(p)
                if p[2 * level] != 2 * level:
                    break
    chain = [_orbit(2 * level, strong[level], ident) for level in range(k)]
    level = k - 1
    while level >= 0:
        resume = _unsifted(level, strong, chain, ident)
        if resume is None:
            level -= 1
        else:
            level = resume
    return tuple(chain)


def _unsifted(level: int, strong, chain, ident):
    """Add the first Schreier generator of ``level`` that fails to sift.

    Returns the deepest level changed, or None when all of them sift.
    """
    trans = chain[level]
    for u, _ in trans.values():
        for s in strong[level]:
            su = _compose(s, u)
            h = _compose(trans[su[2 * level]][1], su)
            if h == ident:
                continue
            h, stop = _sift(h, chain, level + 1)
            if h == ident:
                continue
            for deeper in range(level + 1, stop + 1):
                strong[deeper].append(h)
                chain[deeper] = _orbit(2 * deeper, strong[deeper], ident)
            return stop
    return None


class TwistGroup:
    """Subgroup of (Z/2)^k x| Sigma_k held as generators plus a stabiliser chain.

    Order and membership come from the chain; ``elements`` lists the
    group, in ``(perm, flips)`` order, only up to ``ENUMERATION_LIMIT``.
    """

    __slots__ = ("k", "generators", "_chain")

    def __init__(self, k: int, generators: Tuple[SignedPermutation, ...], chain):
        self.k = k
        self.generators = generators
        self._chain = chain

    @property
    def order(self) -> int:
        return math.prod(len(level) for level in self._chain)

    @property
    def untwisted_coorientable(self) -> bool:
        return self.order == 1

    @property
    def elements(self) -> Tuple[SignedPermutation, ...]:
        if self.order > ENUMERATION_LIMIT:
            raise KTooLarge(f"order {self.order} exceeds enumeration bound {ENUMERATION_LIMIT}")
        products = [tuple(range(2 * self.k))]
        for level in self._chain:
            products = [_compose(p, u) for p in products for u, _ in level.values()]
        return tuple(sorted((_signed(p) for p in products), key=lambda s: (s.perm, s.flips)))

    def __contains__(self, g: SignedPermutation) -> bool:
        if g.degree != self.k:
            return False
        residue, _ = _sift(_points(g), self._chain)
        return residue == tuple(range(2 * self.k))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TwistGroup):
            return NotImplemented
        return (self.k == other.k and self.order == other.order
                and all(g in other for g in self.generators)
                and all(g in self for g in other.generators))

    def __hash__(self) -> int:
        return hash((self.k, self.order))

    def __repr__(self) -> str:
        return f"TwistGroup(k={self.k}, order={self.order}, generators={self.generators!r})"


def twist_group(images: Iterable[SignedPermutation], k: Optional[int] = None) -> TwistGroup:
    """Subgroup generated by ``images``, with its stabiliser chain built.

    Empty generators give the trivial group (the untwisted coorientable
    case).  Raises KTooLarge beyond k = K_MAX.
    """
    gens = tuple(images)
    if k is None:
        if not gens:
            raise ValueError("k required when the generating set is empty")
        k = gens[0].degree
    if k > K_MAX:
        raise KTooLarge(f"k={k} exceeds bound {K_MAX}")
    if any(g.degree != k for g in gens):
        raise DimensionMismatch("generators of mixed degree")
    return TwistGroup(k, gens, _stabiliser_chain([_points(g) for g in gens], k))


def full_hyperoctahedral(k: int) -> TwistGroup:
    """All of (Z/2)^k x| Sigma_k, generated by a transposition, a k-cycle and a flip."""
    if k > K_MAX:
        raise KTooLarge(f"k={k} exceeds bound {K_MAX}")
    ident = tuple(range(k))
    no_flips = (0,) * k
    return twist_group([SignedPermutation(ident[1:2] + ident[:1] + ident[2:], no_flips),
                        SignedPermutation(ident[1:] + ident[:1], no_flips),
                        SignedPermutation(ident, tuple(int(i == 0) for i in range(k)))], k=k)


def parse_token(token: str) -> Tuple[str, bool]:
    """(generator name, whether inverted) of a word token: ``~g`` and ``g^-1`` invert g."""
    if token.startswith("~"):
        return token[1:], True
    if token.endswith("^-1"):
        return token[:-3], True
    return token, False


@dataclass(frozen=True)
class MonodromyRep:
    """Named fundamental-group generators with signed-permutation images.

    Words are sequences of tokens; ``~name`` (or ``name^-1``) denotes the
    inverse of a generator.  ``kernel_words`` optionally lists words
    declared to die under the inclusion pushforward; the normal-crossing
    decision quantifies over exactly these.  ``degree`` is k: read from
    the images when not given, and needed when there are none (a stratum
    with no generators still has its k).
    """

    images: Dict[str, SignedPermutation]
    kernel_words: Tuple[Tuple[str, ...], ...] = ()
    degree: Optional[int] = None
    # token -> itemgetter applying its point permutation, filled by evaluate
    _steps: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        degs = {g.degree for g in self.images.values()}
        if self.degree is not None:
            degs.add(self.degree)
        if len(degs) > 1:
            raise DimensionMismatch("generator images of mixed degree")
        if degs:
            object.__setattr__(self, "degree", degs.pop())

    @property
    def k(self) -> int:
        if self.degree is None:
            raise MalformedPresentation("empty representation has no degree")
        return self.degree

    def _points_of(self, token: str) -> Tuple[int, ...]:
        """The image of a token as a permutation of the 2k points."""
        name, inverse = parse_token(token)
        if name not in self.images:
            raise UnknownGenerator(f"unknown generator {name!r}")
        p = _points(self.images[name])
        return _invert(p) if inverse else p

    def evaluate(self, word: Sequence[str]) -> SignedPermutation:
        """Left-to-right product of the images of ``word``'s tokens.

        Composes the tokens' permutations of the 2k points (``g * h``
        acts as g after h), and reads the result back as a signed
        permutation.  Each distinct token is resolved once per
        representation, on the first word that holds it, to an
        ``itemgetter`` that applies ``_compose(p, step)`` in C.
        """
        p = tuple(range(2 * self.k))
        steps = self._steps
        if not steps.keys() >= set(word):
            for token in dict.fromkeys(word):
                if token not in steps:
                    steps[token] = itemgetter(*self._points_of(token))
        for step in map(steps.__getitem__, word):
            p = step(p)
        return _signed(p)

    def image_group(self) -> TwistGroup:
        return twist_group(self.images.values(), k=self.k)


def hausdorff_nc_decision(strata: Sequence) -> bool:
    """Hausdorff integrability of a normal-crossing divisor.

    ``strata`` is a sequence of MonodromyRep objects, one per stratum,
    each carrying its kernel words; true iff on every stratum every
    declared kernel word has trivial monodromy.
    """
    return nc_decision_witness(strata) is None


def nc_decision_witness(strata: Sequence):
    """The first (stratum index, word, image) violating the criterion,
    over the MonodromyReps of ``hausdorff_nc_decision``."""
    for idx, rep in enumerate(strata):
        for word in rep.kernel_words:
            img = rep.evaluate(word)
            if not img.is_identity():
                return (idx, tuple(word), img)
    return None


@dataclass(frozen=True)
class GroupDescriptor:
    """Isotropy group shape: a (C*)^j factor extended by a finite group."""

    cstar_rank: int
    discrete: TwistGroup

    @property
    def name(self) -> str:
        return _descriptor_name(self.cstar_rank, self.discrete)


def _fiber_name(j: int) -> str:
    if j == 0:
        return "1"
    if j == 1:
        return "ℂ*"
    if j == 2:
        return "(ℂ*)²"
    return f"(ℂ*)^{j}"


def _discrete_name(group: TwistGroup) -> str:
    if group.order == 1:
        return "1"
    # both properties are closed under products, so the generators decide
    pure_flips = all(g.perm == tuple(range(group.k)) for g in group.generators)
    pure_perms = all(not any(g.flips) for g in group.generators)
    if pure_flips:
        if group.order == 2:
            return "ℤ/2"
        power = int(math.log2(group.order))
        return f"(ℤ/2)^{power}"
    if pure_perms:
        if group.order == math.factorial(group.k):
            return f"Σ{_subscript(group.k)}"
        return f"Σ-subgroup of order {group.order}"
    if group.order == 2 ** group.k * math.factorial(group.k):
        return f"(ℤ/2)^{group.k}⋊Σ{_subscript(group.k)}"
    return f"twist group of order {group.order}"


def _subscript(n: int) -> str:
    digits = "₀₁₂₃₄₅₆₇₈₉"
    return "".join(digits[int(c)] for c in str(n))


def _descriptor_name(j: int, group: TwistGroup) -> str:
    if group.order == 1:
        return _fiber_name(j)
    return f"{_fiber_name(j)}⋊{_discrete_name(group)}"


def covering_isotropy(orbit_rep: MonodromyRep, fiber_isotropy: int) -> GroupDescriptor:
    """Isotropy of a quotient orbit: fiber isotropy extended by monodromy.

    ``fiber_isotropy`` is the (C*)-rank of the connected fiber isotropy;
    the result is the semidirect product of the fiber with the finite
    image of the representation, acting as in ``semidirect_mul``.
    """
    return GroupDescriptor(cstar_rank=int(fiber_isotropy), discrete=orbit_rep.image_group())
