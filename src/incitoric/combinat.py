"""Canonical enumeration and ranking of subsets and derangements.

Colex order is the single global subset order used everywhere in the
package: a k-subset S ranks as sum(C(s_i - 1, i)) over its sorted elements
s_1 < ... < s_k, so the pairs of [4] enumerate as 12, 13, 23, 14, 24, 34.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterator, Sequence

from .errors import BadParameters


def colex_rank(members: Sequence[int]) -> int:
    s = tuple(members)
    if list(s) != sorted(set(s)):
        raise BadParameters("subset must be strictly increasing")
    return sum(comb(x - 1, i + 1) for i, x in enumerate(s))


def pair_rank(a: int, b: int) -> int:
    """``colex_rank((a, b))`` in closed form, C(a-1, 1) + C(b-1, 2), for
    1 <= a < b; the caller checks the pair."""
    return (b - 1) * (b - 2) // 2 + a - 1


def subsets_colex(n: int, k: int, first: int = 1) -> Iterator[tuple]:
    """All k-subsets of [first..first+n-1] in colex order: of [1..n] by
    default, of the point indices range(n) with ``first=0``."""

    def gen(size: int, cap: int) -> Iterator[tuple]:
        if size == 0:
            yield ()
            return
        for top in range(first + size - 1, cap + 1):
            for rest in gen(size - 1, top - 1):
                yield rest + (top,)

    return gen(k, first + n - 1)


def subset_label(s: Sequence[int], n: int) -> str:
    """Concatenated digits for n <= 9 (the c_136 style), commas otherwise."""
    if n <= 9:
        return "".join(str(x) for x in s)
    return ",".join(str(x) for x in s)


@dataclass(frozen=True)
class Derangement:
    """Fixed-point-free permutation with its canonical cycle data."""

    n: int
    images: tuple  # images[i-1] = sigma(i)
    cycles: tuple  # smallest-element-first within and between cycles
    t_count: int  # number of cycles
    s_count: int  # number of transpositions among them

    @property
    def sign(self) -> int:
        return -1 if (self.n - self.t_count) % 2 else 1

    def apply(self, i: int) -> int:
        return self.images[i - 1]


def _cycle_decomposition(images: Sequence[int]) -> tuple:
    n = len(images)
    seen = [False] * n
    cycles = []
    for start in range(1, n + 1):
        if seen[start - 1]:
            continue
        cyc = [start]
        seen[start - 1] = True
        j = images[start - 1]
        while j != start:
            cyc.append(j)
            seen[j - 1] = True
            j = images[j - 1]
        cycles.append(tuple(cyc))
    return tuple(cycles)


def derangement_from_images(images: Sequence[int]) -> Derangement:
    images = tuple(images)
    n = len(images)
    if sorted(images) != list(range(1, n + 1)):
        raise BadParameters("not a permutation of [1..n]")
    if any(images[i - 1] == i for i in range(1, n + 1)):
        raise BadParameters("permutation has a fixed point")
    cycles = _cycle_decomposition(images)
    return Derangement(
        n, images, cycles, len(cycles), sum(1 for c in cycles if len(c) == 2)
    )


def derangements(n: int) -> Iterator[Derangement]:
    """All derangements of [1..n], lexicographic in the image tuple."""
    if n < 2:
        raise BadParameters("derangements need n >= 2")

    used = [False] * (n + 1)
    images: list = []

    def backtrack(i: int) -> Iterator[Derangement]:
        if i > n:
            yield derangement_from_images(tuple(images))
            return
        for v in range(1, n + 1):
            if v == i or used[v]:
                continue
            used[v] = True
            images.append(v)
            yield from backtrack(i + 1)
            images.pop()
            used[v] = False

    yield from backtrack(1)

