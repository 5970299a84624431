"""Grid index arithmetic: dimension exponents, pages, levels.

A grid [a_1 x ... x a_k] is embedded into the hypercube with
n = ceil(log2(a_1 * ... * a_k)) coordinates.  The running exponents
e_i = ceil(log2(a_1 * ... * a_i)) split those n coordinates into k blocks of
widths e_i - e_{i-1}; almost everything downstream is addressed through them.

Vertices are ranked 0-based and reversed-lexicographically (x_1 fastest,
x_k most significant); the dump and file formats write 1-based coordinates.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, field
from math import prod

import numpy as np

DEFAULT_VERTEX_CAP = 1 << 26
VERTEX_BOUND = 1 << 31

# ranks per block of every pass over ranks (tables read by rank, base-map
# points, text lines): each block's scratch stays fixed whatever |G|
RANK_BLOCK = 1 << 15


def check_block(size: int) -> int:
    """Ranks per block of a check pass over a grid of `size` vertices,
    whose scratch runs to some 60 B per rank: |G| / 16, clamped into
    RANK_BLOCK / 8..RANK_BLOCK, so the scratch stays near 4 B per vertex
    and the blocks few."""
    return min(RANK_BLOCK, max(RANK_BLOCK >> 3, size >> 4))


def unsigned_dtype(bits: int) -> type:
    """The narrowest unsigned dtype holding `bits`-bit values."""
    return np.uint8 if bits <= 8 else np.uint16 if bits <= 16 else np.uint32


def keys_distinct(keys: np.ndarray, bound: int) -> bool:
    """Whether the keys, all in [0, bound), are pairwise distinct: one
    scatter into a `bound`-entry boolean mask, counted."""
    seen = np.zeros(bound, dtype=bool)
    seen[keys] = True
    return int(np.count_nonzero(seen)) == len(keys)


def compute_exponents(dims) -> tuple[int, ...]:
    """Running exponents (e_0, e_1, ..., e_k) with e_i = ceil(log2(a_1...a_i)).

    Exact integer arithmetic; rejects empty dims and any side below 2.
    """
    dims = tuple(dims)
    if not dims:
        raise ValueError("dims must be nonempty")
    exps = [0]
    total = 1
    for a in dims:
        if a < 2:
            raise ValueError(f"side length {a} is below 2")
        total *= a
        # ceil(log2(total)) for total >= 1
        exps.append((total - 1).bit_length())
    return tuple(exps)


class AboveCap(ValueError):
    """A grid of more vertices than the cap it was given."""


@dataclass(frozen=True)
class GridSpec:
    """A k-dimensional grid, k >= 2, with precomputed exponent data.

    Each side is read with `operator.index`: ints and numpy integers are
    taken, and a float or a string is refused, not truncated or parsed.
    |G| is at most `vertex_cap` and, whatever the cap, `VERTEX_BOUND` =
    2^31, so n <= 31: the chain's int32 arrays (the base map's row and
    column of each rank, the plans' count tables) hold values up to |G|,
    the labels fit uint32, and the batteries pack n-bit fields into int64
    keys.
    """

    dims: tuple[int, ...]
    vertex_cap: int = DEFAULT_VERTEX_CAP
    exponents: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        try:
            dims = tuple(map(operator.index, self.dims))
        except TypeError:
            raise ValueError(f"grid sides must be integers, got {self.dims!r}") from None
        object.__setattr__(self, "dims", dims)
        if len(dims) < 2:
            raise ValueError("a grid needs at least two dimensions")
        exps = compute_exponents(dims)
        object.__setattr__(self, "exponents", exps)
        size = prod(dims)
        if size > VERTEX_BOUND:
            raise ValueError(f"grid has {size} vertices, above 2^31, the int32 bound")
        if size > self.vertex_cap:
            raise AboveCap(
                f"grid has {size} vertices, above the cap {self.vertex_cap}"
            )

    @property
    def k(self) -> int:
        return len(self.dims)

    @property
    def size(self) -> int:
        return prod(self.dims)

    @property
    def n(self) -> int:
        """Hypercube dimension: the final exponent e_k."""
        return self.exponents[-1]

    def block_width(self, i: int) -> int:
        """Width e_i - e_{i-1} of the i-th coordinate block, 1 <= i <= k."""
        return self.exponents[i] - self.exponents[i - 1]

    def page_count(self, i: int) -> int:
        """P_i = a_{i+1} * ... * a_k, the number of i-pages (P_0 = |G|)."""
        return prod(self.dims[i:])

    def prefix_product(self, i: int) -> int:
        """a_1 * ... * a_i."""
        return prod(self.dims[:i])


def level_budget(spec: GridSpec, i: int) -> int:
    """u_i = ceil(|G| / 2^{e_{i-1}}): levels needed at stage i, 2 <= i <= k."""
    if not 2 <= i <= spec.k:
        raise ValueError(f"stage {i} outside [2, {spec.k}]")
    half = 1 << spec.exponents[i - 1]
    return -(-spec.size // half)
