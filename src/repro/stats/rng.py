"""Deterministic random-stream derivation.

The simulator is a tree of subsystems (topology, booters, background
traffic, observatory, ...). Each subsystem must receive an *independent*
random stream that depends only on the root seed and the subsystem's path,
so that

* the same seed always reproduces the same scenario, and
* adding draws to one subsystem never shifts another subsystem's stream.

We derive child seeds by hashing the parent seed together with a string
path, using BLAKE2b as a keyed PRF. This is stable across Python versions
and processes (unlike ``hash()``).
"""

from __future__ import annotations

import hashlib
from typing import Iterable

import numpy as np

__all__ = ["derive_seed", "derive_rng", "SeedSequenceTree"]

_SEED_BYTES = 8


def derive_seed(root_seed: int, *path: str | int) -> int:
    """Derive a child seed from ``root_seed`` and a path of labels.

    The derivation is a BLAKE2b hash over the root seed and the path
    components, so two distinct paths yield independent seeds with
    overwhelming probability.

    >>> derive_seed(42, "booter", "A") == derive_seed(42, "booter", "A")
    True
    >>> derive_seed(42, "booter", "A") != derive_seed(42, "booter", "B")
    True
    """
    h = hashlib.blake2b(digest_size=_SEED_BYTES)
    root = int(root_seed)
    try:
        encoded = root.to_bytes(16, "little", signed=True)
    except OverflowError:  # beyond 128 bits: as many bytes as it needs
        encoded = root.to_bytes((root.bit_length() + 8) // 8, "little", signed=True)
    h.update(encoded)
    for part in path:
        data = str(part).encode("utf-8")
        # Length-prefix each component so ("ab","c") != ("a","bc").
        h.update(len(data).to_bytes(4, "little"))
        h.update(data)
    return int.from_bytes(h.digest(), "little")


def derive_rng(root_seed: int, *path: str | int) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``path`` under ``root_seed``."""
    return np.random.default_rng(derive_seed(root_seed, *path))


class SeedSequenceTree:
    """A navigable tree of deterministic random streams.

    A :class:`SeedSequenceTree` wraps a root seed and a path prefix. Child
    trees share the root seed but extend the path, so each node in the tree
    owns an independent stream.

    >>> tree = SeedSequenceTree(7)
    >>> rng_a = tree.child("booter", "A").rng()
    >>> rng_b = tree.child("booter", "B").rng()
    >>> float(rng_a.random()) != float(rng_b.random())
    True
    """

    __slots__ = ("_root_seed", "_path")

    def __init__(self, root_seed: int, path: Iterable[str | int] = ()) -> None:
        self._root_seed = int(root_seed)
        self._path = tuple(path)

    @property
    def root_seed(self) -> int:
        return self._root_seed

    @property
    def path(self) -> tuple[str | int, ...]:
        return self._path

    def child(self, *path: str | int) -> "SeedSequenceTree":
        """Return the subtree rooted at ``path`` below this node."""
        return SeedSequenceTree(self._root_seed, self._path + path)

    def seed(self) -> int:
        """The derived integer seed of this node."""
        return derive_seed(self._root_seed, *self._path)

    def rng(self) -> np.random.Generator:
        """A fresh generator for this node (always starts at stream origin)."""
        return np.random.default_rng(self.seed())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SeedSequenceTree(root_seed={self._root_seed}, path={self._path!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SeedSequenceTree):
            return NotImplemented
        return self._root_seed == other._root_seed and self._path == other._path

    def __hash__(self) -> int:
        return hash((self._root_seed, self._path))
