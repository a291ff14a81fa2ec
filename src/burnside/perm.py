"""Permutations of {0..n-1} stored as explicit image tuples."""

from __future__ import annotations

import math
from typing import Iterable


class Permutation:
    """A bijection of {0..n-1}, immutable and hashable.

    Composition follows function application order: (a * b)(x) == a(b(x)).
    """

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        n = len(images)
        if sorted(images) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {images}")
        object.__setattr__(self, "images", images)

    @classmethod
    def _trusted(cls, images: tuple[int, ...]) -> "Permutation":
        """Wrap an image tuple already known to be a permutation."""
        perm = object.__new__(cls)
        object.__setattr__(perm, "images", images)
        return perm

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(degree))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.degree != other.degree:
            raise ValueError("degree mismatch in composition")
        images = self.images
        return Permutation._trusted(tuple([images[j] for j in other.images]))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation._trusted(tuple(inv))

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def order(self) -> int:
        return math.lcm(*(len(c) for c in self.cycles())) if self.degree else 1

    def cycles(self) -> list[list[int]]:
        """Disjoint cycle decomposition, each cycle led by its least point."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cycle = [start]
            seen[start] = True
            cur = self.images[start]
            while cur != start:
                cycle.append(cur)
                seen[cur] = True
                cur = self.images[cur]
            out.append(cycle)
        return out

    def cycle_string(self) -> str:
        """1-based cycle notation, fixed points omitted; identity is '()'."""
        parts = [
            "(" + " ".join(str(p + 1) for p in c) + ")"
            for c in self.cycles()
            if len(c) > 1
        ]
        return "".join(parts) if parts else "()"

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __lt__(self, other: "Permutation"):
        return self.images < other.images

    def __le__(self, other: "Permutation"):
        return self.images <= other.images

    def __repr__(self):
        return f"Permutation({list(self.images)})"

    def __str__(self):
        return self.cycle_string()
