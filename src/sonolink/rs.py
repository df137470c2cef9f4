"""Reed-Solomon coding over GF(2^5) with errors-and-erasures decoding.

Symbols are integers 0..31; codewords hold at most 31 symbols.  The field
is generated by the primitive polynomial x^5 + x^2 + 1 with generator
element 2, and the code generator polynomial takes roots at consecutive
powers alpha^1..alpha^nparity (systematic encoding, parity appended).

Decoding corrects any corruption satisfying 2*errors + erasures <= nparity:
syndromes -> Berlekamp-Massey seeded with the erasure locator -> Chien
search -> Forney magnitudes, followed by a syndrome re-check so a pattern
beyond capability is reported as a failure instead of silently returning
wrong data.
"""

from __future__ import annotations

from .errors import FecError, InvalidArgumentError, _integer

__all__ = [
    "FIELD_SIZE",
    "SYMBOL_BITS",
    "MAX_CODEWORD",
    "rs_encode",
    "rs_decode",
]

FIELD_SIZE = 32
SYMBOL_BITS = 5
MAX_CODEWORD = FIELD_SIZE - 1  # 31 symbols
_PRIMITIVE_POLY = 0x25  # x^5 + x^2 + 1
_FCR = 1  # first consecutive root exponent

# exp table doubled so products of two logs index without a modulo
_EXP = [0] * (2 * MAX_CODEWORD)
_LOG = [0] * FIELD_SIZE
_value = 1
for _i in range(MAX_CODEWORD):
    _EXP[_i] = _value
    _LOG[_value] = _i
    _value <<= 1
    if _value & FIELD_SIZE:
        _value ^= _PRIMITIVE_POLY
for _i in range(MAX_CODEWORD, 2 * MAX_CODEWORD):
    _EXP[_i] = _EXP[_i - MAX_CODEWORD]
del _value, _i


def _gf_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


def _gf_div(a: int, b: int) -> int:
    if b == 0:
        raise ZeroDivisionError("GF(32) division by zero")
    if a == 0:
        return 0
    return _EXP[(_LOG[a] - _LOG[b]) % MAX_CODEWORD]


def _alpha(n: int) -> int:
    """alpha^n for the generator element alpha = 2 (any integer n)."""
    return _EXP[n % MAX_CODEWORD]


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    # ascending coefficient order: p[i] is the coefficient of x^i
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            if cb:
                out[i + j] ^= _gf_mul(ca, cb)
    return out


def _poly_eval(poly: list[int], x: int) -> int:
    """Evaluate an ascending-order polynomial at x (Horner)."""
    acc = 0
    for coef in reversed(poly):
        acc = _gf_mul(acc, x) ^ coef
    return acc


def _generator_poly(nparity: int) -> list[int]:
    """Monic generator with roots at alpha^1..alpha^nparity, ascending order."""
    g = [1]
    for i in range(nparity):
        g = _poly_mul(g, [_alpha(_FCR + i), 1])
    return g


def _check_symbols(symbols, what: str) -> list[int]:
    out = []
    for s in symbols:
        s = _integer(s, f"{what} symbol")
        if not 0 <= s < FIELD_SIZE:
            raise InvalidArgumentError(f"{what} symbols must lie in 0..31, got {s}")
        out.append(s)
    return out


def rs_encode(data, nparity: int) -> list[int]:
    """Systematically encode data symbols, returning data + parity.

    Raises InvalidArgumentError when len(data) + nparity exceeds the
    31-symbol codeword bound of GF(32).
    """
    data = _check_symbols(data, "data")
    nparity = _integer(nparity, "nparity")
    if nparity < 1:
        raise InvalidArgumentError("nparity must be >= 1")
    if not data:
        raise InvalidArgumentError("data must be non-empty")
    if len(data) + nparity > MAX_CODEWORD:
        raise InvalidArgumentError(
            f"codeword length {len(data) + nparity} exceeds {MAX_CODEWORD}"
        )
    gen = _generator_poly(nparity)
    # synthetic division of data(x) * x^nparity by the generator;
    # gen is monic so remainder coefficients accumulate in place
    gen_desc = gen[::-1]
    work = data + [0] * nparity
    for i in range(len(data)):
        coef = work[i]
        if coef:
            for j in range(1, nparity + 1):
                work[i + j] ^= _gf_mul(gen_desc[j], coef)
    return data + work[len(data):]


def _syndromes(codeword: list[int], nparity: int) -> list[int]:
    # codeword is in transmission order: first symbol = highest power of x
    ascending = codeword[::-1]
    return [_poly_eval(ascending, _alpha(_FCR + j)) for j in range(nparity)]


def rs_decode(codeword, nparity: int, erasures=()) -> tuple[list[int], int]:
    """Correct a received codeword in place of up to the 2e+f <= nparity bound.

    Parameters
    ----------
    codeword : sequence of int
        Received symbols, data followed by parity.
    nparity : int
        Parity symbol count the codeword was encoded with.
    erasures : iterable of int
        Indices of symbols known to be unreliable.

    Returns
    -------
    (data, corrected_errors)
        Decoded data symbols and the number of corrected positions that
        were NOT declared as erasures.

    Raises
    ------
    FecError
        When the corruption exceeds the guarantee or the corrected word is
        inconsistent.
    """
    received = _check_symbols(codeword, "codeword")
    n = len(received)
    nparity = _integer(nparity, "nparity")
    if n > MAX_CODEWORD:
        raise InvalidArgumentError(f"codeword length {n} exceeds {MAX_CODEWORD}")
    if not 1 <= nparity < n:
        raise InvalidArgumentError("nparity must satisfy 1 <= nparity < len(codeword)")
    erasure_set = sorted(set(_integer(e, "erasure position") for e in erasures))
    for e in erasure_set:
        if not 0 <= e < n:
            raise InvalidArgumentError(f"erasure position {e} out of range for length {n}")

    synd = _syndromes(received, nparity)
    if not any(synd):
        return received[: n - nparity], 0

    n_erasures = len(erasure_set)
    if n_erasures > nparity:
        raise FecError(f"{n_erasures} erasures exceed parity budget {nparity}")

    # locators X = alpha^(n-1-i) for transmission index i
    erasure_locators = [_alpha(n - 1 - e) for e in erasure_set]
    gamma = [1]
    for loc in erasure_locators:
        gamma = _poly_mul(gamma, [1, loc])

    # Berlekamp-Massey seeded with the erasure locator (Blahut 1983): the
    # erasures stand for its first n_erasures steps, and the remaining
    # syndromes extend gamma to the errata locator psi.  ``prev`` is the
    # locator before the last length change, over its discrepancy.
    psi, prev, length = gamma, gamma, n_erasures
    for r in range(n_erasures, nparity):
        prev = [0] + prev
        delta = 0
        for j, coef in enumerate(psi[: r + 1]):
            delta ^= _gf_mul(coef, synd[r - j])
        if delta:
            update = psi + [0] * (len(prev) - len(psi))
            for i, coef in enumerate(prev):
                update[i] ^= _gf_mul(delta, coef)
            if 2 * length <= r + n_erasures:
                prev = [_gf_div(coef, delta) for coef in psi]
                length = r + 1 + n_erasures - length
            psi = update
    while not psi[-1]:
        psi.pop()
    psi_degree = len(psi) - 1
    n_errors = psi_degree - n_erasures
    if 2 * n_errors + n_erasures > nparity:
        raise FecError(
            f"corruption beyond capability: 2*{n_errors} errors + {n_erasures} erasures > {nparity}"
        )

    root_positions = []
    root_inverses = []
    for i in range(n):
        x_inv = _alpha(i - (n - 1))
        if _poly_eval(psi, x_inv) == 0:
            root_positions.append(i)
            root_inverses.append(x_inv)
    if len(root_positions) != psi_degree:
        raise FecError("error locator roots do not match its degree")

    omega = _poly_mul(synd, psi)[:nparity]
    # formal derivative over GF(2): even-power terms vanish
    psi_prime = [psi[i] if i % 2 == 1 else 0 for i in range(1, len(psi))]

    corrected = list(received)
    for pos, x_inv in zip(root_positions, root_inverses):
        denom = _poly_eval(psi_prime, x_inv)
        if denom == 0:
            raise FecError("degenerate locator derivative")
        magnitude = _gf_div(_poly_eval(omega, x_inv), denom)
        # with first root exponent 1 the X^(1-fcr) factor is X^0 = 1
        corrected[pos] ^= magnitude

    if any(_syndromes(corrected, nparity)):
        raise FecError("corrected codeword fails the syndrome re-check")

    changed_outside_erasures = sum(
        1 for i in range(n) if corrected[i] != received[i] and i not in erasure_set
    )
    return corrected[: n - nparity], changed_outside_erasures
