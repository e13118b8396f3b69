"""Vertex sets as plain Python integers.

Every vertex set in this package is an int whose bit i encodes vertex i.
Python integers are arbitrary-width, so the same code covers the fast
single-word regime (n <= 64) and the wide fallback regime (n <= 512)
without separate storage layouts.
"""

from collections.abc import Iterable


def bit(v: int) -> int:
    return 1 << v


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def full_mask(n: int) -> int:
    return (1 << n) - 1


def iter_bits(mask: int):
    """Yield set bit positions in ascending order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def to_tuple(mask: int) -> tuple[int, ...]:
    return tuple(iter_bits(mask))
