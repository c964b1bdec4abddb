"""Canonical enumeration and ranking of subsets and derangements, and the
action of S_n on subsets through two generators.

Colex order is the single global subset order used everywhere in the
package: a k-subset S ranks as sum(C(s_i - 1, i)) over its sorted elements
s_1 < ... < s_k, so the pairs of [4] enumerate as 12, 13, 23, 14, 24, 34.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import Iterator, Optional, Sequence

from .errors import BadParameters, DimensionMismatch


def colex_rank(members: Sequence[int]) -> int:
    s = tuple(members)
    if list(s) != sorted(set(s)):
        raise BadParameters("subset must be strictly increasing")
    if s and s[0] < 1:
        raise BadParameters(f"subset {s} has a member below 1")
    return sum(comb(x - 1, i + 1) for i, x in enumerate(s))


def pair_rank(a: int, b: int) -> int:
    """``colex_rank((a, b))`` in closed form, C(a-1, 1) + C(b-1, 2), for
    1 <= a < b; the caller checks the pair."""
    return (b - 1) * (b - 2) // 2 + a - 1


def subsets_colex(n: int, k: int, first: int = 1) -> Iterator[tuple]:
    """All k-subsets of [first..first+n-1] in colex order: of [1..n] by
    default, of the point indices range(n) with ``first=0``."""
    if n < 0 or k < 0:
        raise BadParameters(f"subset sizes must be non-negative, not n={n}, k={k}")

    def gen(size: int, cap: int) -> Iterator[tuple]:
        if size == 0:
            yield ()
            return
        for top in range(first + size - 1, cap + 1):
            for rest in gen(size - 1, top - 1):
                yield rest + (top,)

    return gen(k, first + n - 1)


def generator_tables(n: int, k: int) -> tuple:
    """The action of S_n on k-subsets through its generators, the
    transposition (1 2), the identity for n < 2, and the n-cycle
    (1 2 ... n): for each, the table whose entry r is the colex rank of
    sigma(S) for the subset S of rank r.  A vector u over the k-subsets
    read through a table, (u[table[0]], u[table[1]], ...), is its image
    under sigma^-1."""
    perms = ({1: 2, 2: 1} if n > 1 else {}, {i: i % n + 1 for i in range(1, n + 1)})
    return tuple(tuple(colex_rank(sorted(p.get(x, x) for x in s)) for s in subsets_colex(n, k))
                 for p in perms)


def subset_label(s: Sequence[int], n: int) -> str:
    """Concatenated digits for n <= 9 (the c_136 style), commas otherwise."""
    if n <= 9:
        return "".join(str(x) for x in s)
    return ",".join(str(x) for x in s)


@dataclass(frozen=True)
class Derangement:
    """Fixed-point-free permutation of [1..n]; its cycle data is derived
    from the images on demand."""

    images: tuple  # images[i-1] = sigma(i)

    @property
    def n(self) -> int:
        return len(self.images)

    @cached_property
    def cycles(self) -> tuple:
        """Smallest element first, within and between cycles."""
        seen, cycles = set(), []
        for start in range(1, self.n + 1):
            if start in seen:
                continue
            cyc = [start]
            while self.images[cyc[-1] - 1] != start:
                cyc.append(self.images[cyc[-1] - 1])
            seen.update(cyc)
            cycles.append(tuple(cyc))
        return tuple(cycles)

    @property
    def t_count(self) -> int:
        """The number of cycles."""
        return len(self.cycles)

    @property
    def s_count(self) -> int:
        """The number of transpositions among the cycles."""
        return sum(1 for c in self.cycles if len(c) == 2)

    @property
    def sign(self) -> int:
        return -1 if (self.n - self.t_count) % 2 else 1


def derangement_from_images(images: Sequence[int]) -> Derangement:
    images = tuple(images)
    n = len(images)
    if sorted(images) != list(range(1, n + 1)):
        raise BadParameters("not a permutation of [1..n]")
    if any(images[i - 1] == i for i in range(1, n + 1)):
        raise BadParameters("permutation has a fixed point")
    return Derangement(images)


def derangements(n: int, edges: Optional[Sequence[int]] = None) -> Iterator[Derangement]:
    """All derangements of [1..n] whose edges {i, sigma(i)}, counted with
    multiplicity, lie within ``edges``, lexicographic in the image tuple.

    ``edges`` holds one multiplicity per colex pair of [1..n], a negative
    one counting as zero, and the backtracking tries sigma(i) = w only
    while the edge {i, w} has multiplicity left.  By default every edge
    starts at 2, which no derangement exceeds, so nothing is pruned.
    """
    if n < 2:
        raise BadParameters("derangements need n >= 2")
    left = [2] * comb(n, 2) if edges is None else list(edges)
    if len(left) != comb(n, 2):
        raise DimensionMismatch("edge multiplicities over the wrong ground set")
    # the candidate images of each i, each with the colex rank of its edge
    choices = [[(w, pair_rank(i, w) if i < w else pair_rank(w, i)) for w in range(1, n + 1) if w != i]
               for i in range(1, n + 1)]
    used = [False] * (n + 1)
    images: list = []

    def backtrack(i: int) -> Iterator[Derangement]:
        if i == n:
            yield derangement_from_images(images)
            return
        for w, e in choices[i]:
            if used[w] or left[e] <= 0:
                continue
            used[w] = True
            left[e] -= 1
            images.append(w)
            yield from backtrack(i + 1)
            images.pop()
            left[e] += 1
            used[w] = False

    yield from backtrack(0)
