"""Small shared helpers: stable seed derivation, parameter checks, sums, a standard deviation, JSON output."""

import hashlib
import json
import math
import reprlib


def derive_seed(*parts) -> int:
    """Deterministic 64-bit seed from arbitrary repr-stable parts.

    Stable across processes and platforms (unlike hash()), so derived
    random streams are reproducible everywhere.
    """
    digest = hashlib.sha256(repr(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def check_number(name: str, value, integer: bool = False, minimum=None) -> None:
    """Raise ValueError unless value is a finite number (an int when ``integer``).

    Bools are rejected even though Python counts them as ints. With
    ``minimum``, the value must also be at least that large. The message
    echoes a shortened repr, so a huge number cannot flood the error line.
    """
    if integer:
        ok, what = isinstance(value, int), "an integer"
    else:
        ok, what = is_finite_number(value), "a finite number"
    if isinstance(value, bool) or not ok:
        raise ValueError(f"{name} must be {what}, got {reprlib.repr(value)}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")


def is_finite_number(value) -> bool:
    """An int or float (not a bool) that is finite as a float; huge ints are not."""
    try:
        return not isinstance(value, bool) and isinstance(value, (int, float)) and math.isfinite(value)
    except OverflowError:
        return False


def float_sum(values):
    """Left-to-right sum, one rounding per addition on every Python version
    (from 3.12 the built-in sum() compensates float rounding)."""
    total = 0
    for value in values:
        total += value
    return total


def pstdev(amounts) -> float:
    """The population standard deviation of one or more whole amounts (ints),
    as statistics.pstdev gives it from Python 3.11 on (3.10 rounds twice):
    the root of their exact variance num / den, correctly rounded. The root
    times 2**shift has at least 55 bits; its floor, made odd where inexact,
    rounds to the same float as the root."""
    n, total = len(amounts), sum(amounts)
    num, den = n * sum(a * a for a in amounts) - total * total, n * n
    shift = max(0, 56 - (num.bit_length() - den.bit_length()) // 2)
    scaled = num << 2 * shift
    root = math.isqrt(scaled // den)
    return (root | (root * root * den != scaled)) / (1 << shift)


def dump_json(obj) -> bytes:
    """Canonical JSON bytes: 2-space indent, trailing newline, UTF-8."""
    return (json.dumps(obj, indent=2) + "\n").encode("utf-8")
