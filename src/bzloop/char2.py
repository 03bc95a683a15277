"""Binomial parities and small-field power sums in characteristic 2.

Two independent binomial-parity routes: Lucas' theorem (a & b bit test) as
the fast path, and literal Pascal rows over GF(2) as the oracle.  A whole
Lucas row is built by submask doubling, one shift per set bit of n, and
never by Pascal's recurrence.  On top of
them sit the classical identity relating row sums over an arithmetic
progression to a single binomial (via power sums over GF(2^w)), and the
per-family coefficient verifiers used by the structure checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bl import BlParams, bl_params, lambda_admissible

# `pascal_row(n)` caches every row up to n, about n^2 / 16 bytes: some 17 MB
# at this bound, well above the 4096 rows the parity checks read.
PASCAL_MAX_ROW = 1 << 14


def binom_mod2(n: int, k: int) -> int:
    """C(n, k) mod 2 by Lucas' theorem: odd iff k's bits sit inside n's."""
    if k < 0 or n < 0 or k > n:
        return 0
    return 1 if (n & k) == k else 0


_rows: list[int] = [1]


def pascal_row(n: int) -> int:
    """Row n of Pascal's triangle mod 2 as a bitmask (bit k = C(n,k) mod 2)."""
    if n < 0:
        raise ValueError("need n >= 0")
    if n > PASCAL_MAX_ROW:
        raise ValueError(f"row {n} exceeds the supported bound {PASCAL_MAX_ROW}")
    while len(_rows) <= n:
        r = _rows[-1]
        _rows.append(r ^ (r << 1))
    return _rows[n]


def binom_mod2_oracle(n: int, k: int) -> int:
    """C(n, k) mod 2 by literal Pascal recursion; independent of Lucas."""
    if k < 0 or n < 0 or k > n:
        return 0
    return (pascal_row(n) >> k) & 1


def lucas_row(n: int) -> int:
    """Row-n bitmask predicted by Lucas: bits at exactly the submasks of n.

    Built by submask doubling: the submasks of the bits seen so far, then
    each of them with the next set bit b added, one shift per set bit.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    row = 1
    rest = n
    while rest:
        b = rest & -rest
        row |= row << b
        rest ^= b
    return row


# -- the progression identity -------------------------------------------------


def _check_Q(Q: int) -> None:
    if Q < 2 or Q & (Q - 1):
        raise ValueError("Q must be a power of 2, at least 2")


def identity_I_check(Q: int, s: int, r: int, k: int) -> tuple[int, int]:
    """Literal two sides: (parity of sum_{j=0}^s C((Q-1)s+r, (Q-1)j+k), C(r,k)).

    The classical statement says the sides agree for 0 <= r, k <= Q-2; the
    r = 0, s >= 1 corner actually picks up an extra term (j = s contributes
    C(n, n) = 1 on top of C(0, k)), see identity_I_expected.
    """
    _check_Q(Q)
    if s < 0 or r < 0 or k < 0:
        raise ValueError("need s, r, k >= 0")
    n = (Q - 1) * s + r
    lhs = 0
    for j in range(s + 1):
        lhs ^= binom_mod2(n, (Q - 1) * j + k)
    return lhs, binom_mod2(r, k)


def identity_I_expected(Q: int, s: int, r: int, k: int) -> int:
    """Corrected right side: C(r,k) plus 1 exactly when r = 0 and s >= 1.

    For r = 0 the left side telescopes against the power sum at exponent
    n = (Q-1)s, where alpha = 1 contributes 0 instead of 1, flipping the
    parity for every k.
    """
    _check_Q(Q)
    extra = 1 if (r == 0 and s >= 1) else 0
    return binom_mod2(r, k) ^ extra


# -- small binary fields --------------------------------------------------------


def _poly_mul_mod(a: int, b: int, modulus: int, w: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a >> w & 1:
            a ^= modulus
    return out


def _is_irreducible(poly: int, w: int) -> bool:
    # trial division by every polynomial of degree 1..w//2
    for deg in range(1, w // 2 + 1):
        for cand in range(1 << deg, 1 << (deg + 1)):
            rem = poly
            while rem.bit_length() > deg:
                rem ^= cand << (rem.bit_length() - deg - 1)
            if rem == 0:
                return False
    return True


def _find_modulus(w: int) -> int:
    for poly in range(1 << w, 1 << (w + 1)):
        if _is_irreducible(poly, w):
            return poly
    raise AssertionError("no irreducible polynomial found")


@dataclass(frozen=True)
class GF2wField:
    """GF(2^w) with the lexicographically smallest irreducible modulus."""

    w: int
    modulus: int

    def __init__(self, w: int, modulus: int | None = None):
        if w < 1:
            raise ValueError("need w >= 1")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "modulus", _find_modulus(w) if modulus is None else modulus)

    @property
    def order(self) -> int:
        return 1 << self.w

    def elements(self):
        return range(self.order)

    def units(self):
        return range(1, self.order)

    def add(self, a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        return _poly_mul_mod(a, b, self.modulus, self.w)

    def power(self, a: int, e: int) -> int:
        if e < 0:
            raise ValueError("need e >= 0")
        out = 1
        base = a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out


def power_sum_parity(w: int, z: int) -> int:
    """sum over all nonzero field elements of alpha^z, computed in GF(2^w).

    The sum always lands in the prime field, so the result is 0 or 1; it is
    1 exactly when 2^w - 1 divides z.
    """
    if z < 0:
        raise ValueError("need z >= 0")
    F = GF2wField(w)
    total = 0
    for a in F.units():
        total ^= F.power(a, z)
    if total not in (0, 1):
        raise AssertionError("power sum left the prime field")
    return total


def glaisher_check(w: int, n: int, k: int) -> tuple[int, int]:
    """Field side and binomial side of the progression-sum congruence.

    Field side: sum over nonzero alpha of (1+alpha)^n * alpha^(-k), with the
    inverse power realized as alpha^((Q-1-k) mod (Q-1)).  Binomial side:
    parity of the sum of C(n, m) over all 0 <= m <= n with m = k mod (Q-1).
    """
    if n < 0 or k < 0:
        raise ValueError("need n, k >= 0")
    F = GF2wField(w)
    Q = F.order
    e = (Q - 1 - k) % (Q - 1)
    field_side = 0
    for a in F.units():
        field_side ^= F.mul(F.power(1 ^ a, n), F.power(a, e))
    if field_side not in (0, 1):
        raise AssertionError("character sum left the prime field")
    binom_side = 0
    for m in range(k % (Q - 1), n + 1, Q - 1):
        binom_side ^= binom_mod2(n, m)
    return field_side, binom_side


# -- coefficient claim families ---------------------------------------------


@dataclass(frozen=True)
class ParityClaim:
    """One asserted parity: a labeled claim plus what direct summation gave."""

    label: str
    parameters: dict
    claimed: int
    computed: int

    @property
    def ok(self) -> bool:
        return self.claimed == self.computed

    def __str__(self) -> str:
        ps = ", ".join(f"{k}={v}" for k, v in self.parameters.items())
        status = "pass" if self.ok else "FAIL"
        return f"{self.label} [{ps}]: claimed {self.claimed}, computed {self.computed} -> {status}"


_DESK_S_RANGE = range(1, 5)  # free step parameter for the v-indexed families


def _claims_short_square(p: BlParams, out: list) -> None:
    # squaring the short word: the carried coefficient must be even
    for s in range(1, p.h + 1):
        c = binom_mod2(3 * p.q - 2 ** (s - 1) - 1, p.q + 2 ** (s - 1) - 1)
        out.append(ParityClaim("short-square-coeff", {"s": s}, 0, c))


def _claims_even_v_square(p: BlParams, out: list) -> None:
    # squaring v-words at even steps: assembled coefficient vanishes
    q, eta, d = p.q, p.eta, p.d
    for s in _DESK_S_RANGE:
        N = d * s + q
        full = 0
        for i in range(1, eta + 1):
            full ^= binom_mod2(N, 2 * q * i)
        odd_terms = binom_mod2(N, 2 * q * (eta + 1) - 1)
        for j in range(s - 1):
            full ^= binom_mod2(N, d * j - 2 + 2 * q * (eta + 2))
            for i in range(1, eta):
                full ^= binom_mod2(N, d * j - 2 + 2 * q * (eta + 2 + i))
            odd_terms ^= binom_mod2(N, d * j - 3 + 2 * q * (2 * eta + 2))
        full ^= odd_terms
        unified = 0
        for j in range(s):
            for i in range(1, 2 ** p.g):
                unified ^= binom_mod2(N, d * j + 2 * q * i)
        halved = 0
        half_n = (2 ** (p.g + p.h) - 1) * s + 2 ** (p.h - 1)
        for j in range(s):
            for i in range(1, 2 ** p.g):
                halved ^= binom_mod2(half_n, (2 ** (p.g + p.h) - 1) * j + 2 ** p.h * i)
        out.append(ParityClaim("even-v-square-coeff", {"s": s, "part": "full"}, 0, full))
        out.append(ParityClaim("even-v-square-coeff", {"s": s, "part": "odd-terms"}, 0, odd_terms))
        out.append(ParityClaim("even-v-square-coeff", {"s": s, "part": "unified"}, 0, unified))
        out.append(ParityClaim("even-v-square-coeff", {"s": s, "part": "halved"}, 0, halved))


def _claims_omega_step(p: BlParams, out: list) -> None:
    # stepping the omega word: a_t, b, c_t coefficients
    q, eta = p.q, p.eta
    M = 2 * q * (eta + 1) + 2 * q - 2
    for t in (0, 1):
        a_t = (
            binom_mod2(M, t)
            ^ binom_mod2(M, 2 * q - 1 + t)
            ^ binom_mod2(M, 4 * q - 2 + t)
        )
        for i in range(1, eta):
            a_t ^= binom_mod2(M, 2 * q * (i + 1) + 2 * q - 2 + t)
        out.append(ParityClaim("omega-step-coeff", {"term": f"a{t}"}, 1 - t, a_t))
    b = binom_mod2(M, 2 * q - 2) ^ binom_mod2(M, 4 * q - 3)
    for i in range(1, eta):
        b ^= binom_mod2(M, 2 * q * (i + 1) + 2 * q - 3)
    out.append(ParityClaim("omega-step-coeff", {"term": "b"}, 1, b))
    for t in (0, 1):
        c_t = binom_mod2(M, 2 * q * (eta + 1) + 2 * q - 4 + t)
        out.append(ParityClaim("omega-step-coeff", {"term": f"c{t}"}, 1 - t, c_t))
    # window factorization: C(M, 2qa + 2q - b) = C(2^g, a) C(2q-2, 2q-b)
    agree = 1
    for a in range(eta + 2):
        for w in range(1, 2 * q + 1):
            lhs = binom_mod2(M, 2 * q * a + 2 * q - w)
            rhs = binom_mod2(2 ** p.g, a) & binom_mod2(2 * q - 2, 2 * q - w)
            if lhs != rhs:
                agree = 0
    out.append(ParityClaim("omega-step-coeff", {"term": "window-factorization"}, 1, agree))


def _claims_theta_a_step(p: BlParams, out: list) -> None:
    # stepping theta words of the first family
    q = p.q
    for s in range(1, p.h + 1):
        N = 4 * q - 2 ** s
        singles = {
            "C(N,2q)": (binom_mod2(N, 2 * q), 1),
            "C(N,N)": (binom_mod2(N, N), 1),
            "C(N,2q-1)": (binom_mod2(N, 2 * q - 1), 0),
            "C(N,N-1)": (binom_mod2(N, N - 1), 0),
        }
        for term, (got, want) in singles.items():
            out.append(ParityClaim("theta-a-step-coeff", {"s": s, "term": term}, want, got))
        g1 = binom_mod2(N, 1) ^ binom_mod2(N, 2 * q) ^ binom_mod2(N, N)
        g2 = binom_mod2(N, 1) ^ binom_mod2(N, 2 * q)
        g3 = binom_mod2(N, 0) ^ binom_mod2(N, 2 * q - 1) ^ binom_mod2(N, N - 1)
        g4 = binom_mod2(N, 0) ^ binom_mod2(N, 2 * q - 1)
        for term, got, want in (
            ("yx-group", g1, 0),
            ("xx-group", g2, 1),
            ("long-yx-group", g3, 1),
            ("long-xx-group", g4, 1),
        ):
            out.append(ParityClaim("theta-a-step-coeff", {"s": s, "term": term}, want, got))


def _claims_xi_step(p: BlParams, out: list) -> None:
    # squaring v_s and its half-extended form: the xi-word coefficients
    q, eta, d = p.q, p.eta, p.d
    gh = 2 ** (p.g + p.h) - 1
    for s in _DESK_S_RANGE:
        N = 2 * q - 1 + d * s
        full = binom_mod2(N, d * s)
        for l in range(s):
            full ^= binom_mod2(N, d * l)
            for j in range(eta):
                full ^= binom_mod2(N, 2 * q - 1 + 2 * q * j + d * l)
        ds = 0
        for l in range(1, s + 1):
            for j in range(1, eta):
                ds ^= binom_mod2(N, d * l - 2 * q * j)
        halved = 0
        for l in range(1, s + 1):
            for j in range(1, 2 ** p.g - 1):
                halved ^= binom_mod2(gh * s + 2 ** p.h - 1, gh * l - 2 ** p.h * j)
        out.append(ParityClaim("xi-even-coeff", {"s": s, "part": "full"}, 1, full))
        out.append(ParityClaim("xi-even-coeff", {"s": s, "part": "double-sum"}, 0, ds))
        out.append(ParityClaim("xi-even-coeff", {"s": s, "part": "halved"}, 0, halved))
        # odd case
        No = q * (eta + 1) + 2 * q - 2 + d * s
        S = 0
        for j in range((eta - 1) // 2 + 1):
            S ^= binom_mod2(No, 2 * q * j)
        for l in range(s):
            for j in range(eta):
                S ^= binom_mod2(No, 2 * q * ((eta + 1) // 2 + j) + 2 * q - 2 + d * l)
        odd_terms = binom_mod2(No, 2 * q * ((eta - 1) // 2) + 2 * q - 1)
        for l in range(s):
            odd_terms ^= binom_mod2(No, 2 * q * ((eta + 1) // 2) + d * (l + 1) - 1)
        out.append(ParityClaim("xi-odd-coeff", {"s": s, "part": "S"}, 1, S))
        out.append(ParityClaim("xi-odd-coeff", {"s": s, "part": "odd-terms"}, 0, odd_terms))
    reduced = 0
    for j in range(2 ** (p.g - 1)):
        reduced ^= binom_mod2(2 ** (p.g + p.h - 1) + 2 ** p.h - 1, 2 ** p.h * j)
    out.append(ParityClaim("xi-odd-coeff", {"part": "reduced"}, 1, reduced))


def _claims_theta_b_step(p: BlParams, out: list) -> None:
    # stepping theta words of the second family
    q, eta = p.q, p.eta
    for b in range(p.h + 2, p.g + p.h + 1):
        i = eta - 2 ** (p.g + p.h + 1 - b)
        N = 2 * q * (i + 2) + 2 * q - 2
        for t in (0, 1):
            r_t = (
                binom_mod2(N, t)
                ^ binom_mod2(N, 2 * q - 1 + t)
                ^ binom_mod2(N, 4 * q - 2 + t)
                ^ binom_mod2(N, 2 * q * (i + 2) + 2 * q - 3 + t)
            )
            for j in range(1, i + 1):
                r_t ^= binom_mod2(N, 2 * q * (j + 1) + 2 * q - 2 + t)
            out.append(ParityClaim("theta-b-step-coeff", {"b": b, "term": f"r{t}"}, 1 - t, r_t))
        agree = 1
        if binom_mod2(N, 2 * q) != binom_mod2(i + 2, 1):
            agree = 0
        for j in range(1, i + 1):
            if binom_mod2(N, 2 * q * (j + 1) + 2 * q - 2) != binom_mod2(i + 2, j + 1):
                agree = 0
        out.append(ParityClaim("theta-b-step-coeff", {"b": b, "term": "reduction"}, 1, agree))
        out.append(
            ParityClaim("theta-b-step-coeff", {"b": b, "term": "C(i+2,1)"}, 1, binom_mod2(i + 2, 1))
        )


def _claims_short_k_step(p: BlParams, out: list) -> None:
    # the two-generator-gap coefficient A
    q = p.q
    for s in range(1, p.h + 1):
        t1 = binom_mod2(6 * q - 3, 2 ** s)
        t2 = binom_mod2(6 * q - 3, 2 * q + 2 ** s - 1)
        t3 = binom_mod2(6 * q - 3, 4 * q + 2 ** s - 2)
        out.append(ParityClaim("short-k-step-coeff", {"s": s, "term": "A"}, 1, t1 ^ t2 ^ t3))
        out.append(ParityClaim("short-k-step-coeff", {"s": s, "term": "middle"}, 0, t2))
        agree = 1
        if t1 != binom_mod2(2 * q - 3, 2 ** s):
            agree = 0
        if t3 != binom_mod2(2 * q - 3, 2 ** s - 2):
            agree = 0
        out.append(ParityClaim("short-k-step-coeff", {"s": s, "term": "reduction"}, 1, agree))
        final = binom_mod2(2 * q - 1, 2 ** s)
        out.append(ParityClaim("short-k-step-coeff", {"s": s, "term": "C(2q-1,2^s)"}, 1, final))


def _claims_two_power_window(p: BlParams, out: list) -> None:
    # the window coefficient C(4q - 2^(h+1-s), 2q*alpha + beta) = 1 - beta
    q = p.q
    for s in range(1, p.h + 1):
        N = 4 * q - 2 ** (p.h + 1 - s)
        for alpha in (0, 1):
            for beta in (0, 1):
                got = binom_mod2(N, 2 * q * alpha + beta)
                out.append(
                    ParityClaim(
                        "two-power-window-coeff",
                        {"s": s, "alpha": alpha, "beta": beta},
                        1 - beta,
                        got,
                    )
                )


def _claims_mu_shift(p: BlParams, out: list) -> None:
    # shifting the mu words: assembled coefficient is odd for admissible i
    q = p.q
    for i in lambda_admissible(p):
        lam = ((i + 1) & -(i + 1)).bit_length() - 1
        N = 2 * q * (i + 1 + 2 ** lam) + 2 * q - 3
        main = binom_mod2(N, 2 * q * 2 ** lam)
        for j in range(2 ** lam):
            main ^= binom_mod2(N, 2 * q * j + 1)
        vanish = 0
        for j in range(i + 1):
            vanish ^= binom_mod2(N, 2 * q * (2 ** lam + j) + 2 * q - 1)
        reduced = 0
        for j in range(2 ** lam + 1):
            reduced ^= binom_mod2(2 * q * (i + 1 + 2 ** lam), 2 * q * j)
        out.append(ParityClaim("mu-shift-coeff", {"i": i, "part": "assembled"}, 1, main ^ vanish))
        out.append(ParityClaim("mu-shift-coeff", {"i": i, "part": "vanishing"}, 0, vanish))
        out.append(ParityClaim("mu-shift-coeff", {"i": i, "part": "reduced"}, 1, reduced))


def verify_appendix(g: int, h: int) -> list[ParityClaim]:
    """Every coefficient parity claim used by the structure proofs, evaluated
    by direct summation for the given parameters."""
    p = bl_params(g, h)
    out: list[ParityClaim] = []
    _claims_short_square(p, out)
    _claims_even_v_square(p, out)
    _claims_omega_step(p, out)
    _claims_theta_a_step(p, out)
    _claims_xi_step(p, out)
    _claims_theta_b_step(p, out)
    _claims_short_k_step(p, out)
    _claims_two_power_window(p, out)
    _claims_mu_shift(p, out)
    return out
