"""Binomial parities, small binary fields, and the claim families."""

import pytest
from hypothesis import given, strategies as st

from bzloop import char2
from bzloop.char2 import (
    ParityClaim,
    _find_modulus,
    _poly_mul_mod,
    _power,
    binom_mod2,
    binom_mod2_oracle,
    glaisher_check,
    identity_I_check,
    identity_I_expected,
    lucas_row,
    pascal_row,
    power_sum_parity,
    verify_appendix,
)


# -- two binomial routes -------------------------------------------------------


def test_binom_routes_agree_small():
    for n in range(257):
        row = pascal_row(n)
        assert lucas_row(n) == row
        for k in range(n + 1):
            assert binom_mod2(n, k) == binom_mod2_oracle(n, k) == (row >> k) & 1


def test_binom_out_of_range():
    assert binom_mod2(3, 5) == 0
    assert binom_mod2(-1, 0) == 0
    assert binom_mod2(3, -1) == 0
    assert binom_mod2_oracle(3, 5) == 0
    with pytest.raises(ValueError):
        pascal_row(-1)
    with pytest.raises(ValueError):
        lucas_row(-1)


def test_pascal_row_refuses_past_its_bound_without_caching():
    """The row cache grows as n^2, so the first row past the bound is refused before any row is built."""
    cached = len(char2._rows)
    with pytest.raises(ValueError):
        pascal_row(char2.PASCAL_MAX_ROW + 1)
    assert len(char2._rows) == cached


@given(st.integers(0, 4096), st.integers(0, 4096))
def test_binom_routes_agree_random(n, k):
    assert binom_mod2(n, k) == binom_mod2_oracle(n, k)


@given(st.integers(0, 2048))
def test_lucas_row_matches_pascal(n):
    assert lucas_row(n) == pascal_row(n)


def _submask_row(n: int) -> int:
    """Bit s set for every submask s of n, by walking s = (s - 1) & n down from n."""
    row = bytearray(n // 8 + 1)
    sub = n
    while True:
        row[sub >> 3] |= 1 << (sub & 7)
        if sub == 0:
            return int.from_bytes(row, "little")
        sub = (sub - 1) & n


@given(st.sets(st.integers(0, 19), max_size=12))
def test_lucas_row_matches_submask_enumeration(bits):
    n = sum(1 << b for b in bits)
    assert lucas_row(n) == _submask_row(n)


def test_row_weight_is_power_of_two():
    # each row has 2^(popcount n) odd entries
    for n in (0, 1, 5, 100, 255):
        assert pascal_row(n).bit_count() == 1 << n.bit_count()


# -- the progression identity ---------------------------------------------------


def test_identity_matches_corrected_law():
    for Q in (2, 4):
        for s in range(5):
            for r in range(Q - 1):
                for k in range(Q - 1):
                    lhs, _classical = identity_I_check(Q, s, r, k)
                    assert lhs == identity_I_expected(Q, s, r, k)


def test_identity_corner_deviates_from_classical():
    lhs, classical = identity_I_check(4, 1, 0, 1)
    assert lhs == 1
    assert classical == 0
    assert identity_I_expected(4, 1, 0, 1) == 1


def test_identity_classical_in_classical_range():
    # away from r = 0 (or with s = 0) the classical statement holds as-is
    for Q in (4, 8):
        for s in range(3):
            for r in range(1, Q - 1):
                for k in range(Q - 1):
                    lhs, classical = identity_I_check(Q, s, r, k)
                    assert lhs == classical
        for r in range(Q - 1):
            lhs, classical = identity_I_check(Q, 0, r, 0)
            assert lhs == classical


def test_identity_validation():
    with pytest.raises(ValueError):
        identity_I_check(3, 1, 0, 0)
    with pytest.raises(ValueError):
        identity_I_check(4, -1, 0, 0)
    with pytest.raises(ValueError):
        identity_I_expected(6, 0, 0, 0)


# -- small binary fields ---------------------------------------------------------


def test_field_moduli_frozen():
    assert _find_modulus(1) == 0b10
    assert _find_modulus(2) == 0b111
    assert _find_modulus(3) == 0b1011


def test_field_axioms_sampled():
    w, modulus = 3, _find_modulus(3)
    elems = range(8)

    def mul(a, b):
        return _poly_mul_mod(a, b, modulus, w)

    for a in elems:
        assert mul(a, 1) == a
        assert _power(a, 8, modulus, w) == a  # a^Q = a in GF(Q)
    for a in elems:
        for b in elems:
            assert mul(a, b) == mul(b, a)
            for c in elems:
                assert mul(a, b ^ c) == mul(a, b) ^ mul(a, c)


def test_field_units_have_inverses():
    for w in (1, 2, 3, 4):
        modulus, Q = _find_modulus(w), 1 << w
        for a in range(1, Q):
            assert _poly_mul_mod(a, _power(a, Q - 2, modulus, w), modulus, w) == 1


def test_field_validation():
    with pytest.raises(ValueError):
        power_sum_parity(0, 1)
    with pytest.raises(ValueError):
        glaisher_check(0, 1, 1)
    with pytest.raises(ValueError):
        _power(1, -1, _find_modulus(2), 2)


def test_power_sum_parity_law():
    # the unit power sum is 1 exactly when 2^w - 1 divides the exponent
    # (z = 0 included: all Q - 1 units contribute 1, and Q - 1 is odd)
    for w in (1, 2, 3):
        period = (1 << w) - 1
        for z in range(0, 4 * period + 2):
            assert power_sum_parity(w, z) == (1 if z % period == 0 else 0)


def test_glaisher_sides_agree():
    for w in (1, 2, 3):
        Q = 1 << w
        for n in range(4 * (Q - 1) + 2):
            for k in range(Q - 1):
                field_side, binom_side = glaisher_check(w, n, k)
                assert field_side == binom_side


# -- claim families ---------------------------------------------------------------


def test_parity_claim_str():
    good = ParityClaim("demo", {"n": 3}, 1, 1)
    bad = ParityClaim("demo", {"n": 3}, 1, 0)
    assert good.ok and str(good) == "demo [n=3]: claimed 1, computed 1 -> pass"
    assert not bad.ok and str(bad).endswith("-> FAIL")


def test_verify_appendix_small():
    claims = verify_appendix(2, 1)
    assert len(claims) == 67
    assert all(c.ok for c in claims)
    assert {c.label for c in claims} == {
        "short-square-coeff",
        "even-v-square-coeff",
        "omega-step-coeff",
        "theta-a-step-coeff",
        "xi-even-coeff",
        "xi-odd-coeff",
        "theta-b-step-coeff",
        "short-k-step-coeff",
        "two-power-window-coeff",
        "mu-shift-coeff",
    }
