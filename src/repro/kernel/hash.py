"""Kernel-style flow hashing.

Implements the two primitives Algorithm 2 of the paper relies on:

- a Jenkins-style hash (``jhash``) of the connection 4-tuple, standing in
  for the precomputed skb hash the kernel feeds to reuseport selection; and
- ``reciprocal_scale(value, range)`` — the kernel's multiplicative trick to
  map a 32-bit hash uniformly onto ``[0, range)`` without a division.

Both are deterministic and mirror the Linux implementations bit-for-bit at
32-bit width, so hash-collision behaviour (the reuseport failure mode under
heavy hitters, §2.2) is reproduced faithfully.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["FourTuple", "jhash_4tuple", "jhash_words", "reciprocal_scale"]

_MASK32 = 0xFFFFFFFF
#: The kernel's JHASH_INITVAL (an arbitrary golden-ratio constant).
JHASH_INITVAL = 0xDEADBEEF


class FourTuple(NamedTuple):
    """A connection 4-tuple; addresses and ports are plain integers."""

    src_ip: int
    src_port: int
    dst_ip: int
    dst_port: int

    def reversed(self) -> "FourTuple":
        """The return-path tuple."""
        return FourTuple(self.dst_ip, self.dst_port, self.src_ip, self.src_port)


# The rotates below are spelled out (``rol32(x, k)`` is
# ``((x << k) | (x >> (32 - k))) & _MASK32``) rather than called: these two
# functions run several times per simulated connection, and on the armed
# fleet the per-call Python overhead of helper calls dominated the hash.
# In the final mix, ``(x - rol32(y, k)) & _MASK32`` drops the rotate's own
# mask: the bits it would clear sit at 2**32 and above, which the outer
# mask clears anyway.


def jhash_words(words: list[int], initval: int = 0) -> int:
    """Jenkins lookup3 hash over 32-bit words (the kernel's ``jhash2``)."""
    length = len(words)
    a = b = c = (JHASH_INITVAL + (length << 2) + initval) & _MASK32
    index = 0
    while length > 3:
        a = (a + words[index]) & _MASK32
        b = (b + words[index + 1]) & _MASK32
        c = (c + words[index + 2]) & _MASK32
        # __jhash_mix
        a = (a - c) & _MASK32
        a ^= ((c << 4) | (c >> 28)) & _MASK32
        c = (c + b) & _MASK32
        b = (b - a) & _MASK32
        b ^= ((a << 6) | (a >> 26)) & _MASK32
        a = (a + c) & _MASK32
        c = (c - b) & _MASK32
        c ^= ((b << 8) | (b >> 24)) & _MASK32
        b = (b + a) & _MASK32
        a = (a - c) & _MASK32
        a ^= ((c << 16) | (c >> 16)) & _MASK32
        c = (c + b) & _MASK32
        b = (b - a) & _MASK32
        b ^= ((a << 19) | (a >> 13)) & _MASK32
        a = (a + c) & _MASK32
        c = (c - b) & _MASK32
        c ^= ((b << 4) | (b >> 28)) & _MASK32
        b = (b + a) & _MASK32
        index += 3
        length -= 3
    if length == 0:
        return c
    if length == 3:
        c = (c + words[index + 2]) & _MASK32
    if length >= 2:
        b = (b + words[index + 1]) & _MASK32
    a = (a + words[index]) & _MASK32
    # __jhash_final
    c ^= b
    c = (c - ((b << 14) | (b >> 18))) & _MASK32
    a ^= c
    a = (a - ((c << 11) | (c >> 21))) & _MASK32
    b ^= a
    b = (b - ((a << 25) | (a >> 7))) & _MASK32
    c ^= b
    c = (c - ((b << 16) | (b >> 16))) & _MASK32
    a ^= c
    a = (a - ((c << 4) | (c >> 28))) & _MASK32
    b ^= a
    b = (b - ((a << 14) | (a >> 18))) & _MASK32
    c ^= b
    return (c - ((b << 24) | (b >> 8))) & _MASK32


def jhash_4tuple(four_tuple: FourTuple, initval: int = 0) -> int:
    """32-bit flow hash of a 4-tuple, as the kernel computes for reuseport.

    Ports are packed into one word like ``inet_ehashfn`` packs sport/dport.
    Equal to ``jhash_words([src_ip, dst_ip, ports], initval)``, unrolled:
    three words take no mix round, only the final one.
    """
    src_ip, src_port, dst_ip, dst_port = four_tuple
    c = (JHASH_INITVAL + 12 + initval) & _MASK32
    a = (c + src_ip) & _MASK32
    b = (c + dst_ip) & _MASK32
    c = (c + (((src_port & 0xFFFF) << 16) | (dst_port & 0xFFFF))) & _MASK32
    # __jhash_final
    c ^= b
    c = (c - ((b << 14) | (b >> 18))) & _MASK32
    a ^= c
    a = (a - ((c << 11) | (c >> 21))) & _MASK32
    b ^= a
    b = (b - ((a << 25) | (a >> 7))) & _MASK32
    c ^= b
    c = (c - ((b << 16) | (b >> 16))) & _MASK32
    a ^= c
    a = (a - ((c << 4) | (c >> 28))) & _MASK32
    b ^= a
    b = (b - ((a << 14) | (a >> 18))) & _MASK32
    c ^= b
    return (c - ((b << 24) | (b >> 8))) & _MASK32


def reciprocal_scale(value: int, ep_ro: int) -> int:
    """Scale a 32-bit ``value`` into ``[0, ep_ro)`` (Linux ``reciprocal_scale``).

    Computes ``(value * ep_ro) >> 32`` — uniform when ``value`` is uniform,
    and far cheaper than a modulo in kernel context.  ``ep_ro`` must be
    positive.
    """
    if ep_ro <= 0:
        raise ValueError(f"reciprocal_scale range must be positive, got {ep_ro}")
    return ((value & _MASK32) * ep_ro) >> 32
