"""Known-answer inputs for the exact workloads.

Every generator fixes its answer by construction, with its own
arithmetic, and never by calling egl:

* smooth documents plant a diagonal pushforward behind a seeded
  unimodular change of basis, so the decision (and what a witness must
  satisfy) is read off the diagonal;
* cover documents plant a GF(2) rank, ``A = P diag(I_r, 0) Q``, and
  choose the class inside or outside ``P span(e_1..e_r)``;
* normal-crossing documents declare identity words ``w w^-1`` and, when
  the answer is "no", one single-generator word with a non-identity
  image, which is then the expected witness;
* twist-group generating sets have a known order (``k!``, ``2^k k!``,
  ``2^r``), hidden by conjugation or by a GF(2) change of basis;
* Smith normal form inputs are random; their check is exact
  (``U M V = S``, the divisibility chain, and ``prod(diag S) = |det M|``
  with the determinant computed here by Bareiss elimination).

Signed permutations are handled here in "slot form": ``s[i] = (j, c)``
says that output slot ``i`` receives input coordinate ``j``, conjugated
when ``c`` is 1.  That is the action egl documents for
``SignedPermutation.act``; products are derived from it.
"""

from __future__ import annotations

import math
import random

PSI_WINNER = "exp-on-source-conjugate-scaled"


def rng_for(seed: int, label: str) -> random.Random:
    """A private stream per (seed, label); string seeding is stable."""
    return random.Random(f"perfbench:{seed}:{label}")


# ---------------------------------------------------------------------------
# integer and GF(2) helpers
# ---------------------------------------------------------------------------

def identity(n: int) -> list:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matmul(A, B) -> list:
    """Exact integer product of nested lists."""
    cols = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col) if a) for col in cols] for row in A]


def unimodular_pair(rng: random.Random, n: int, steps: int):
    """(U, U^-1), both integer, from elementary row additions."""
    U, Uinv = identity(n), identity(n)
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice((-2, -1, 1, 2))
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]      # U <- (I + c e_ij) U
        for row in Uinv:                                     # U^-1 <- U^-1 (I - c e_ij)
            row[j] -= c * row[i]
    return U, Uinv


def gf2_invertible(rng: random.Random, n: int) -> list:
    """A random invertible 0/1 matrix: the identity under row additions and swaps."""
    M = identity(n)
    for _ in range(4 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            M[i] = [a ^ b for a, b in zip(M[i], M[j])]
    rng.shuffle(M)
    return M


def bareiss_determinant(M) -> int:
    """Exact determinant by fraction-free elimination."""
    A = [list(map(int, row)) for row in M]
    n = len(A)
    sign, prev = 1, 1
    for k in range(n - 1):
        if A[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if A[i][k]), None)
            if swap is None:
                return 0
            A[k], A[swap] = A[swap], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[-1][-1] if n else 1


def gen_names(prefix: str, n: int) -> list:
    return [f"{prefix}{i}" for i in range(n)]


# ---------------------------------------------------------------------------
# decision.v1 documents
# ---------------------------------------------------------------------------

def smooth_document(rng: random.Random, n: int, want: bool, name: str) -> dict:
    """Planted diagonal i_* on n domain generators behind a unimodular scramble.

    In diagonal coordinates free generator j maps to d_j e_j (d_j = 0
    kills it) and torsion generators (even order) map to 0.  The kernel
    is spanned by the killed and the torsion generators, so eta factors
    through the image iff it vanishes on all of them.
    """
    t = rng.randint(1, max(1, n // 4))
    r = n - t
    c = n + rng.randint(0, 3)
    dvals = [0 if rng.random() < 0.25 else rng.randint(1, 5) for _ in range(r)]
    dvals[rng.randrange(r)] = 0                   # at least one killed generator
    orders = [2 * rng.randint(1, 2) for _ in range(t)]
    in_kernel = [j for j in range(r) if dvals[j] == 0] + list(range(r, n))
    eta0 = [rng.randint(0, 1) for _ in range(n)]
    for j in in_kernel:
        eta0[j] = 0
    if not want:
        eta0[rng.choice(in_kernel)] = 1

    U, Uinv = unimodular_pair(rng, n, 2 * n)
    F0 = [[dvals[j] if (i == j and j < r) else 0 for j in range(n)] for i in range(c)]
    F = matmul(F0, U)
    relations = [[Uinv[i][r + q] * orders[q] for i in range(n)] for q in range(t)]
    eta = [sum(eta0[i] * U[i][j] for i in range(n)) % 2 for j in range(n)]
    return {"schema": "decision.v1", "name": name,
            "smooth": {"domain": {"generators": gen_names("a", n), "relations": relations},
                       "codomain": {"generators": gen_names("x", c), "relations": []},
                       "i_star": F, "eta": eta}}


def smooth_witness_ok(doc: dict, witness) -> bool:
    """A "no" witness must be a kernel vector on which eta is odd."""
    sm = doc["smooth"]
    gen = witness.get("kernel_generator") if isinstance(witness, dict) else None
    if not gen or len(gen) != len(sm["eta"]):
        return False
    image_zero = all(sum(a * g for a, g in zip(row, gen)) == 0 for row in sm["i_star"])
    return image_zero and sum(e * g for e, g in zip(sm["eta"], gen)) % 2 == 1


def cover_document(rng: random.Random, n: int, want: bool, name: str) -> dict:
    """A = P diag(I_r, 0) Q over GF(2), n x n; the class is P y.

    The column space of A is P span(e_1..e_r), so P y lies in it iff y
    vanishes beyond the first r coordinates.
    """
    r = rng.randint(1, n - 1)
    P, Q = gf2_invertible(rng, n), gf2_invertible(rng, n)
    A = [[sum(P[i][l] & Q[l][j] for l in range(r)) % 2 for j in range(n)]
         for i in range(n)]
    y = [rng.randint(0, 1) if i < r else 0 for i in range(n)]
    if not want:
        y[rng.randrange(r, n)] = 1
    eta = [sum(P[i][l] & y[l] for l in range(n)) % 2 for i in range(n)]
    return {"schema": "decision.v1", "name": name,
            "double_cover": {"i_pullback": A, "eta_class": eta}}


def random_slots(rng: random.Random, k: int, nontrivial: bool = False) -> tuple:
    src = list(range(k))
    rng.shuffle(src)
    slots = [(j, rng.randint(0, 1)) for j in src]
    if nontrivial and all(s == (i, 0) for i, s in enumerate(slots)):
        slots[0] = (0, 1)
    return tuple(slots)


def slots_to_json(slots) -> dict:
    """decision.v1 image: 1-based images of the permutation, then flips."""
    perm = [0] * len(slots)
    for i, (j, _) in enumerate(slots):
        perm[j] = i + 1
    return {"perm": perm, "flips": [c for _, c in slots]}


def _inverse_word(word) -> list:
    return [tok[1:] if tok.startswith("~") else "~" + tok for tok in reversed(word)]


NC_STRATA = 3          # strata per normal-crossing document
NC_WORDS = 6           # identity words per stratum
NC_HALF_LENGTH = 30    # longest w in a word w w^-1


def nc_document(rng: random.Random, k: int, want: bool, name: str) -> tuple:
    """Strata of degree k whose kernel words are all w w^-1, plus, for a
    "no" document, one non-identity generator word in a chosen stratum.

    Returns (document, expected witness or None).  The planted word is
    the last word of its stratum and later strata carry only identity
    words, so it is the first violation in document order.
    """
    planted = None if want else rng.randrange(NC_STRATA)
    out, witness = [], None
    for s in range(NC_STRATA):
        gens = gen_names(f"s{s}g", rng.randint(3, 5))
        images = {g: random_slots(rng, k, nontrivial=True) for g in gens}
        kernel_words = []
        for _ in range(NC_WORDS):
            w = [("~" if rng.random() < 0.3 else "") + rng.choice(gens)
                 for _ in range(rng.randint(NC_HALF_LENGTH // 2, NC_HALF_LENGTH))]
            kernel_words.append(w + _inverse_word(w))
        stratum_name = f"{name}-stratum{s}"
        if s == planted:
            g = rng.choice(gens)
            kernel_words.append([g])
            witness = {"stratum": stratum_name, "word": [g],
                       "image": slots_to_json(images[g])}
        out.append({"name": stratum_name, "k": k, "generators": gens,
                    "monodromy": {g: slots_to_json(v) for g, v in images.items()},
                    "kernel_words": kernel_words})
    doc = {"schema": "decision.v1", "name": name, "normal_crossing": {"strata": out}}
    return doc, witness


# ---------------------------------------------------------------------------
# twist groups of known order
# ---------------------------------------------------------------------------

def slots_mul(g, h) -> tuple:
    """Slot form of the map z -> g.act(h.act(z))."""
    out = []
    for j, c in g:
        j2, c2 = h[j]
        out.append((j2, c ^ c2))
    return tuple(out)


def slots_inv(g) -> tuple:
    out = [None] * len(g)
    for i, (j, c) in enumerate(g):
        out[j] = (i, c)
    return tuple(out)


def _transposition(k):
    return tuple((1 - i, 0) if i < 2 else (i, 0) for i in range(k))


def _cycle(k):
    return tuple(((i + 1) % k, 0) for i in range(k))


def _flip(k, bits):
    return tuple((i, b) for i, b in enumerate(bits))


def twist_generators(rng: random.Random, k: int, family: str) -> tuple:
    """(generators in slot form, known group order).

    ``sym``: a conjugate of the symmetric group (order k!); ``full``: a
    conjugate of the whole hyperoctahedral group (order 2^k k!);
    ``flips``: r independent flip vectors (order 2^r).
    """
    if family == "flips":
        r = rng.randint(1, k)
        Q = gf2_invertible(rng, k)
        return tuple(_flip(k, Q[i]) for i in range(r)), 2 ** r
    gens = [_transposition(k), _cycle(k)]
    order = math.factorial(k)
    if family == "full":
        gens.append(_flip(k, [1] + [0] * (k - 1)))
        order *= 2 ** k
    h = random_slots(rng, k)
    hinv = slots_inv(h)
    return tuple(slots_mul(slots_mul(h, g), hinv) for g in gens), order


def slots_to_egl(slots) -> tuple:
    """(perm, flips) tuples as egl's SignedPermutation takes them (0-based)."""
    img = slots_to_json(slots)
    return tuple(p - 1 for p in img["perm"]), tuple(img["flips"])


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def snf_matrix(rng: random.Random, n: int) -> list:
    return [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]


def snf_ok(M, U, S, V, abs_det: int) -> bool:
    """Exact U M V = S, diagonal S >= 0 with d_i | d_(i+1), prod d_i = |det M|.

    With U M V = S and |det M| = prod d_i != 0, det U det V = +-1, so
    both transforms are unimodular.
    """
    n = len(M)
    if any(S[i][j] for i in range(n) for j in range(n) if i != j):
        return False
    d = [S[i][i] for i in range(n)]
    if any(x < 0 for x in d):
        return False
    for a, b in zip(d, d[1:]):
        if (a == 0 and b != 0) or (a and b % a):
            return False
    if math.prod(d) != abs_det:
        return False
    return matmul(matmul(U, M), V) == S
