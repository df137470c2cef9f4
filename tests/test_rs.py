"""Reed-Solomon over GF(32): field tables, encoding, errors-and-erasures bound.

The field arithmetic is checked against a from-scratch carryless
multiply-and-reduce, and the generator polynomial against an independent
root-by-root product, so the tables under test never verify themselves.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sonolink import rs
from sonolink.errors import FecError, InvalidArgumentError

PRIM = 0x25


def slow_mul(a: int, b: int) -> int:
    """Polynomial multiply mod x^5 + x^2 + 1, one bit at a time."""
    p = 0
    while b:
        if b & 1:
            p ^= a
        a <<= 1
        if a & 0x20:
            a ^= PRIM
        b >>= 1
    return p


# ---------------------------------------------------------------------------
# field arithmetic
# ---------------------------------------------------------------------------


def test_gf_mul_matches_brute_force_everywhere():
    for a in range(32):
        for b in range(32):
            assert rs._gf_mul(a, b) == slow_mul(a, b)


def test_gf_div():
    for a in range(32):
        for b in range(1, 32):
            assert rs._gf_mul(rs._gf_div(a, b), b) == a
    with pytest.raises(ZeroDivisionError):
        rs._gf_div(5, 0)


def test_alpha():
    expected = 1  # 2^n by repeated multiplication
    for n in range(40):
        assert rs._alpha(n) == expected
        assert slow_mul(rs._alpha(-n), expected) == 1  # alpha^-n inverts alpha^n
        expected = slow_mul(expected, 2)


def test_generator_element_has_full_order():
    # powers of 2 must enumerate every nonzero element exactly once
    seen = {rs._alpha(i) for i in range(31)}
    assert seen == set(range(1, 32))


# ---------------------------------------------------------------------------
# generator polynomial / encoding
# ---------------------------------------------------------------------------


def _slow_generator(nparity: int) -> list[int]:
    g = [1]
    for i in range(1, nparity + 1):
        root = 1
        for _ in range(i):
            root = slow_mul(root, 2)
        out = [0] * (len(g) + 1)
        for j, c in enumerate(g):
            out[j + 1] ^= c
            out[j] ^= slow_mul(c, root)
        g = out
    return g


@pytest.mark.parametrize("nparity", [1, 2, 4, 8])
def test_generator_poly_oracle(nparity):
    assert rs._generator_poly(nparity) == _slow_generator(nparity)


def test_generator_poly_roots():
    g = rs._generator_poly(8)
    for j in range(1, 9):
        assert rs._poly_eval(g, rs._alpha(j)) == 0
    # alpha^0 must NOT be a root (first root exponent is 1)
    assert rs._poly_eval(g, 1) != 0


def test_encode_systematic_and_valid():
    rng = np.random.default_rng(0)
    for _ in range(20):
        k = int(rng.integers(1, 24))
        data = [int(v) for v in rng.integers(0, 32, k)]
        cw = rs.rs_encode(data, 8)
        assert cw[:k] == data
        assert len(cw) == k + 8
        # codeword polynomial evaluates to zero at every generator root
        for j in range(1, 9):
            root = rs._alpha(j)
            acc = 0
            for c in cw:
                acc = slow_mul(acc, root) ^ c
            assert acc == 0


def test_encode_bounds():
    with pytest.raises(InvalidArgumentError, match="exceeds 31"):
        rs.rs_encode([1] * 24, 8)
    with pytest.raises(InvalidArgumentError):
        rs.rs_encode([], 8)
    with pytest.raises(InvalidArgumentError, match="0..31"):
        rs.rs_encode([32], 8)
    with pytest.raises(InvalidArgumentError):
        rs.rs_encode([1, 2], 0)
    with pytest.raises(InvalidArgumentError, match="nparity must be an integer"):
        rs.rs_encode([1, 2], 2.5)
    with pytest.raises(InvalidArgumentError, match="data symbol must be an integer, got True"):
        rs.rs_encode([True, False], 2)


# ---------------------------------------------------------------------------
# decoding: exhaustive singles, bound Monte Carlo, beyond-capability
# ---------------------------------------------------------------------------


def test_clean_codeword_decodes_unchanged():
    data = [3, 1, 4, 1, 5, 9, 2, 6]
    decoded, fixed = rs.rs_decode(rs.rs_encode(data, 8), 8)
    assert decoded == data and fixed == 0


def test_every_single_error_position_corrects():
    data = [int(v) for v in np.random.default_rng(1).integers(0, 32, 23)]
    cw = rs.rs_encode(data, 8)
    for pos in range(31):
        for value in (1, 17, 31):
            corrupted = list(cw)
            corrupted[pos] ^= value
            decoded, fixed = rs.rs_decode(corrupted, 8)
            assert decoded == data
            assert fixed == 1


def test_every_single_erasure_position_corrects():
    data = [int(v) for v in np.random.default_rng(2).integers(0, 32, 23)]
    cw = rs.rs_encode(data, 8)
    for pos in range(31):
        corrupted = list(cw)
        corrupted[pos] ^= 13
        decoded, fixed = rs.rs_decode(corrupted, 8, erasures=[pos])
        assert decoded == data
        assert fixed == 0  # the fix happened at a declared position


def test_full_erasure_budget():
    data = [int(v) for v in np.random.default_rng(3).integers(0, 32, 10)]
    cw = rs.rs_encode(data, 8)
    positions = [0, 2, 4, 6, 8, 10, 12, 14]
    corrupted = list(cw)
    for p in positions:
        corrupted[p] ^= 7
    decoded, fixed = rs.rs_decode(corrupted, 8, erasures=positions)
    assert decoded == data and fixed == 0


def test_monte_carlo_error_erasure_bound():
    """1000 random corruption patterns with 2e + f <= 8 all decode exactly."""
    for trial in range(1000):
        rng = np.random.default_rng(trial)
        k = int(rng.integers(1, 24))
        data = [int(v) for v in rng.integers(0, 32, k)]
        cw = rs.rs_encode(data, 8)
        n = len(cw)
        e = int(rng.integers(0, 5))
        f = int(rng.integers(0, 8 - 2 * e + 1))
        pos = rng.choice(n, size=e + f, replace=False)
        corrupted = list(cw)
        for p in pos[:e]:
            corrupted[p] ^= int(rng.integers(1, 32))
        for p in pos[e:]:
            corrupted[p] = int(rng.integers(0, 32))
        decoded, fixed = rs.rs_decode(corrupted, 8, erasures=pos[e:])
        assert decoded == data, f"trial {trial}: e={e} f={f}"
        assert fixed <= e


@st.composite
def corrupted_codewords(draw):
    """A codeword at any parity 1..30 with e errors and f erasures, 2e + f <= nparity."""
    nparity = draw(st.integers(1, 30))
    data = draw(st.lists(st.integers(0, 31), min_size=1, max_size=rs.MAX_CODEWORD - nparity))
    codeword = rs.rs_encode(data, nparity)
    e = draw(st.integers(0, nparity // 2))
    f = draw(st.integers(0, nparity - 2 * e))
    positions = draw(st.permutations(range(len(codeword))))[: e + f]
    corrupted = list(codeword)
    for p in positions[:e]:
        corrupted[p] ^= draw(st.integers(1, 31))
    for p in positions[e:]:
        corrupted[p] = draw(st.integers(0, 31))
    return data, corrupted, nparity, e, positions[e:]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(corrupted_codewords())
def test_error_erasure_bound_at_every_parity(case):
    data, corrupted, nparity, e, erasures = case
    decoded, fixed = rs.rs_decode(corrupted, nparity, erasures=erasures)
    assert decoded == data
    assert fixed <= e


@pytest.mark.parametrize("nparity", [1, 2, 3, 4])
@pytest.mark.parametrize("k", [1, 2])
def test_decode_matches_a_bounded_distance_oracle(k, nparity):
    """Random received words and erasure sets on a short code decode as a
    search over every codeword says: a clean word as it is, f > nparity as a
    failure, else the unique codeword with 2e + f <= nparity, else a failure.
    """
    codes = np.array([rs.rs_encode(list(data), nparity)
                      for data in itertools.product(range(32), repeat=k)])
    n = k + nparity
    rng = np.random.default_rng(10 * k + nparity)
    seen = set()
    for _ in range(400):
        received = codes[rng.integers(len(codes))].copy()
        hit = rng.random(n) < rng.random()
        received[hit] = rng.integers(0, 32, hit.sum())
        erasures = rng.choice(n, size=rng.integers(0, nparity + 2), replace=False)
        outside = np.ones(n, dtype=bool)
        outside[erasures] = False
        errors = ((codes != received) & outside).sum(axis=1)
        near = np.flatnonzero(2 * errors + len(erasures) <= nparity)
        assert len(near) <= 1  # the code's distance is nparity + 1
        if (codes == received).all(axis=1).any():
            outcome, want = "clean", (received[:k].tolist(), 0)
        elif len(erasures) > nparity:
            outcome, want = "over budget", None
        elif len(near):
            outcome, want = "corrected", (codes[near[0], :k].tolist(), int(errors[near[0]]))
        else:
            outcome, want = "beyond", None
        seen.add(outcome)
        args = (received.tolist(), nparity)
        if want is None:
            with pytest.raises(FecError):
                rs.rs_decode(*args, erasures=erasures.tolist())
        else:
            assert rs.rs_decode(*args, erasures=erasures.tolist()) == want
    assert seen == {"clean", "over budget", "corrected", "beyond"}


def test_beyond_capability_never_returns_the_original():
    """Five errors exceed t=4; the decoder must fail or land on a different word.

    (A bounded-distance decoder cannot reach a codeword five symbols away, so
    silently returning the original would indicate broken bookkeeping.)
    """
    raised = 0
    for trial in range(300):
        rng = np.random.default_rng(10_000 + trial)
        data = [int(v) for v in rng.integers(0, 32, 15)]
        cw = rs.rs_encode(data, 8)
        pos = rng.choice(len(cw), size=5, replace=False)
        corrupted = list(cw)
        for p in pos:
            corrupted[p] ^= int(rng.integers(1, 32))
        try:
            decoded, _ = rs.rs_decode(corrupted, 8)
            assert decoded != data
        except FecError:
            raised += 1
    assert raised > 270  # miscorrection is rare, failure is the norm


@pytest.mark.parametrize(
    "received, nparity, erasures",
    [
        ([8, 11, 27, 30, 23, 9, 17, 18], 4, [4, 6]),
        ([23, 18, 6, 25, 3, 0, 12, 8, 17, 23, 24, 11, 22, 3, 10, 7, 17, 6, 8, 5, 15], 8, [6, 12, 17]),
    ],
)
def test_locator_with_fewer_roots_than_its_degree_fails(received, nparity, erasures):
    # the Chien search finds fewer roots than the errata locator's degree;
    # without that check these words fail only at the syndrome re-check
    with pytest.raises(FecError, match="roots do not match its degree"):
        rs.rs_decode(received, nparity, erasures=erasures)


def test_decode_validation():
    cw = rs.rs_encode([1, 2, 3], 8)
    with pytest.raises(InvalidArgumentError, match="out of range"):
        rs.rs_decode(cw, 8, erasures=[99])
    with pytest.raises(InvalidArgumentError):
        rs.rs_decode(cw, 0)
    with pytest.raises(InvalidArgumentError):
        rs.rs_decode(cw, len(cw))
    with pytest.raises(InvalidArgumentError, match="0..31"):
        rs.rs_decode([40] * 10, 8)
    corrupted = list(cw)
    corrupted[0] ^= 1
    with pytest.raises(FecError, match="exceed parity budget"):
        rs.rs_decode(corrupted, 8, erasures=list(range(9)))
    for erasure in (2.7, "a"):
        with pytest.raises(InvalidArgumentError, match="erasure position must be an integer"):
            rs.rs_decode(cw, 8, erasures=[erasure])
    with pytest.raises(InvalidArgumentError, match="nparity must be an integer"):
        rs.rs_decode(cw, 2.5)
