"""Grid index arithmetic: dimension exponents, chain folding, pages, levels.

A grid [a_1 x ... x a_k] is embedded into the hypercube with
n = ceil(log2(a_1 * ... * a_k)) coordinates.  The running exponents
e_i = ceil(log2(a_1 * ... * a_i)) split those n coordinates into k blocks of
widths e_i - e_{i-1}; almost everything downstream is addressed through them.

Vertex coordinates are stored 0-based internally; every public function that
takes or returns grid coordinates uses 1-based values, matching the dump and
file formats.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

DEFAULT_VERTEX_CAP = 1 << 26


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


@dataclass(frozen=True)
class GridSpec:
    """A k-dimensional grid, k >= 2, with precomputed exponent data."""

    dims: tuple[int, ...]
    vertex_cap: int = DEFAULT_VERTEX_CAP
    exponents: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        dims = tuple(int(a) for a in self.dims)
        object.__setattr__(self, "dims", dims)
        if len(dims) < 2:
            raise ValueError("a grid needs at least two dimensions")
        exps = compute_exponents(dims)
        object.__setattr__(self, "exponents", exps)
        if prod(dims) > self.vertex_cap:
            raise ValueError(
                f"grid has {prod(dims)} vertices, above the cap {self.vertex_cap}"
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

    # -- vertex ranking ----------------------------------------------------
    # Ranks are 0-based and reversed-lexicographic: the last coordinate is
    # most significant, so the rank stride of coordinate t is a_1...a_{t-1}.

    def rank_of(self, coords: tuple[int, ...]) -> int:
        """Rank of a vertex given 1-based coordinates."""
        if len(coords) != self.k:
            raise ValueError("coordinate arity mismatch")
        r = 0
        stride = 1
        for x, a in zip(coords, self.dims):
            if not 1 <= x <= a:
                raise ValueError(f"coordinate {x} outside [1, {a}]")
            r += (x - 1) * stride
            stride *= a
        return r

    def coords_of(self, rank: int) -> tuple[int, ...]:
        """1-based coordinates of the vertex with the given rank."""
        if not 0 <= rank < self.size:
            raise ValueError("rank out of range")
        coords = []
        for a in self.dims:
            coords.append(rank % a + 1)
            rank //= a
        return tuple(coords)

    def vertex(self, *coords: int) -> "GridVertex":
        return GridVertex.from_coords(self, tuple(coords))

    def vertices(self):
        """All vertices in rank order."""
        return (GridVertex(self, r) for r in range(self.size))


@dataclass(frozen=True)
class GridVertex:
    """A grid vertex, identified by its 0-based reversed-lexicographic rank."""

    spec: GridSpec
    rank: int

    def __post_init__(self):
        if not 0 <= self.rank < self.spec.size:
            raise ValueError("vertex rank out of range")

    @classmethod
    def from_coords(cls, spec: GridSpec, coords: tuple[int, ...]) -> "GridVertex":
        """Build from 1-based coordinates."""
        return cls(spec, spec.rank_of(coords))

    @property
    def coords(self) -> tuple[int, ...]:
        """1-based coordinates."""
        return self.spec.coords_of(self.rank)

    @property
    def coords0(self) -> tuple[int, ...]:
        """0-based coordinates (internal convention)."""
        return tuple(x - 1 for x in self.coords)


def _as_coords(v, spec: GridSpec | None):
    if isinstance(v, GridVertex):
        return v.spec if spec is None else spec, v.coords
    if spec is None:
        raise ValueError("a plain coordinate tuple needs an explicit spec")
    return spec, tuple(v)


def kappa(v, spec: GridSpec | None = None) -> tuple[int, int]:
    """Fold a vertex onto its chain: (x_1, y) with y the position on chain x_1.

    Chains run through the grid with the first coordinate free; y orders the
    remaining coordinates with x_2 fastest.  Bijective onto
    {1..a_1} x {1..P_1}, and the chains of the j-th i-page occupy exactly the
    y-interval {(j-1) a_2...a_i + 1, ..., j a_2...a_i}.
    """
    spec, coords = _as_coords(v, spec)
    if len(coords) != spec.k:
        raise ValueError("coordinate arity mismatch")
    dims = spec.dims
    x1 = coords[0]
    if not 1 <= x1 <= dims[0]:
        raise ValueError(f"coordinate {x1} outside [1, {dims[0]}]")
    y = 0
    stride = 1
    for x, a in zip(coords[1:], dims[1:]):
        if not 1 <= x <= a:
            raise ValueError(f"coordinate {x} outside [1, {a}]")
        y += (x - 1) * stride
        stride *= a
    return x1, y + 1


def page_index(v, i: int, spec: GridSpec | None = None) -> int:
    """Index r of the i-page containing the vertex, 1 <= r <= P_i.

    An i-page fixes coordinates i+1..k; pages are ordered with x_{i+1}
    fastest.  Accepts 1 <= i <= k-1 (interior checks need (i-1)-pages down to
    i-1 = 1; at i = 1 this coincides with the kappa position on the 1-page
    scale), rejects anything outside.
    """
    spec, coords = _as_coords(v, spec)
    if not 1 <= i <= spec.k - 1:
        raise ValueError(f"page dimension {i} outside [1, {spec.k - 1}]")
    if len(coords) != spec.k:
        raise ValueError("coordinate arity mismatch")
    r = 0
    stride = 1
    for x, a in zip(coords[i:], spec.dims[i:]):
        if not 1 <= x <= a:
            raise ValueError(f"coordinate {x} outside [1, {a}]")
        r += (x - 1) * stride
        stride *= a
    return r + 1


def level_budget(spec: GridSpec, i: int) -> int:
    """u_i = ceil(|G| / 2^{e_{i-1}}): levels needed at stage i, 2 <= i <= k."""
    if not 2 <= i <= spec.k:
        raise ValueError(f"stage {i} outside [2, {spec.k}]")
    half = 1 << spec.exponents[i - 1]
    return -(-spec.size // half)
