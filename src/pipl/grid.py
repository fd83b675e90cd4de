"""Space-time tensor grids on intervals/rectangles with tagged boundary portions.

Everything downstream (solvers, measurements, reconstructions) lives on a
uniform grid over Omega x (0, T) with Omega an interval (dim 1) or an
axis-aligned rectangle (dim 2).  Nodes are flattened in row-major order, and
every node set is one rule over the axes, the same in any dimension: the
interior is the nodes strictly inside on every axis, the boundary its
complement, a face the nodes at one end of one axis, and a face node's
quadrature weight the product of the trapezoid weights along the face's
other axes (1 on the point faces of an interval).  Boundary portions resolve
to explicit (face, node) lists so that directional selections and partial
measurements are just index sets.
"""

from __future__ import annotations

import functools
import hashlib
import io
import itertools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

DOMAIN_Q = "Q"
DOMAIN_OMEGA = "Omega"
DOMAIN_SIGMA = "Sigma"

# face ids: (axis, side) with side 0 = lower coordinate, 1 = upper
FACE_NAMES = {
    (0, 0): "left",
    (0, 1): "right",
    (1, 0): "bottom",
    (1, 1): "top",
}
FACE_IDS = {v: k for k, v in FACE_NAMES.items()}


class GridError(ValueError):
    pass


def _trapezoid(n: int, h: float) -> np.ndarray:
    """Trapezoid-rule weights of n equally spaced nodes h apart."""
    w = np.full(n, h)
    w[[0, -1]] *= 0.5
    return w


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Uniform tensor grid on a 1D interval or 2D rectangle times (0, T).

    ``nx`` counts nodes per axis (>= 3 each); ``nt`` counts time steps, so
    there are ``nt + 1`` time levels including t = 0 and t = T.
    """

    dim: int
    lower: tuple
    upper: tuple
    nx: tuple
    nt: int
    T: float

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise GridError("dim must be 1 or 2")
        if len(self.lower) != self.dim or len(self.upper) != self.dim or len(self.nx) != self.dim:
            raise GridError("lower/upper/nx length must match dim")
        if any(n < 3 for n in self.nx):
            raise GridError("need at least 3 nodes per axis")
        if self.nt < 2:
            raise GridError("need at least 2 time steps")
        if self.T <= 0:
            raise GridError("horizon T must be positive")
        if any(u <= l for l, u in zip(self.lower, self.upper)):
            raise GridError("upper corner must exceed lower corner")

    @classmethod
    def make(cls, lower, upper, nx, nt, T) -> "SpaceTimeGrid":
        lower = tuple(float(v) for v in np.atleast_1d(lower))
        upper = tuple(float(v) for v in np.atleast_1d(upper))
        nx = tuple(int(v) for v in np.atleast_1d(nx))
        return cls(len(nx), lower, upper, nx, int(nt), float(T))

    @property
    def h(self) -> tuple:
        return tuple((u - l) / (n - 1) for l, u, n in zip(self.lower, self.upper, self.nx))

    @property
    def dt(self) -> float:
        return self.T / self.nt

    @property
    def n_space(self) -> int:
        return math.prod(self.nx)

    @property
    def n_levels(self) -> int:
        return self.nt + 1

    def axis(self, i: int) -> np.ndarray:
        # lower + k*h reproduces coordinates bit-exactly from indices
        return self.lower[i] + np.arange(self.nx[i]) * self.h[i]

    def times(self) -> np.ndarray:
        return np.arange(self.n_levels) * self.dt

    def level_times(self) -> np.ndarray:
        """times() shaped (n_levels, 1[, 1]) to broadcast against Q values."""
        return self.times().reshape(-1, *(1,) * self.dim)

    @property
    def strides(self) -> tuple:
        """Flat-index step between neighbouring nodes along each axis."""
        return tuple(math.prod(self.nx[i + 1:]) for i in range(self.dim))

    def meshes(self):
        """Spatial coordinate arrays shaped like a space slice (ij indexing)."""
        return tuple(np.meshgrid(*(self.axis(i) for i in range(self.dim)), indexing="ij"))

    def space_weights(self) -> np.ndarray:
        """Trapezoidal quadrature weights over Omega, shaped like a space slice."""
        return functools.reduce(np.multiply.outer, map(_trapezoid, self.nx, self.h))

    def time_weights(self) -> np.ndarray:
        return _trapezoid(self.n_levels, self.dt)

    # -- boundary structure ------------------------------------------------

    def faces(self) -> list:
        return [(axis, side) for axis in range(self.dim) for side in (0, 1)]

    def face_normal(self, face) -> np.ndarray:
        axis, side = face
        nu = np.zeros(self.dim)
        nu[axis] = 1.0 if side else -1.0
        return nu

    def face_multi_indices(self, face) -> list:
        """All node multi-indices on a face in row-major order (2D faces
        include their corners)."""
        axis, side = face
        ranges = [range(n) for n in self.nx]
        ranges[axis] = [self.nx[axis] - 1 if side else 0]
        return list(itertools.product(*ranges))

    def node_coords(self, mi) -> tuple:
        return tuple(self.lower[i] + mi[i] * self.h[i] for i in range(self.dim))

    def boundary_flat_indices(self) -> np.ndarray:
        """Flat indices of the boundary nodes, ascending."""
        return np.flatnonzero(~self.interior_mask())

    def interior_mask(self) -> np.ndarray:
        """Flat boolean mask over the space slice, False on boundary nodes."""
        mask = np.zeros(self.nx, dtype=bool)
        mask[(slice(1, -1),) * self.dim] = True
        return mask.reshape(-1)

    def digest(self) -> str:
        payload = repr((self.dim, self.lower, self.upper, self.nx, self.nt, self.T))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Boundary portions


@dataclass(frozen=True)
class BoundaryPortion:
    """Selects a subset of the lateral boundary.

    kind 'full'         -> every face
    kind 'faces'        -> the named faces (used for Gamma_0 and the V+- sets)
    kind 'directional'  -> faces with nu . omega > eps (>= 0 when eps == 0),
                           sign -1 flips omega
    """

    kind: str
    faces: tuple = ()
    omega: tuple = ()
    eps: float = 0.0
    sign: int = +1

    @classmethod
    def full(cls):
        return cls("full")

    @classmethod
    def named(cls, *names: str):
        return cls("faces", faces=tuple(names))

    @classmethod
    def directional(cls, omega, eps=0.0, sign=+1):
        omega = tuple(float(v) for v in np.atleast_1d(omega))
        return cls("directional", omega=omega, eps=float(eps), sign=int(sign))


@dataclass(frozen=True)
class ResolvedPortion:
    """Explicit node list for a portion: parallel arrays over boundary nodes."""

    grid: SpaceTimeGrid
    faces: tuple                      # selected face ids
    face_of_node: tuple               # face id per entry
    multi_indices: tuple              # node multi-index per entry
    flat: np.ndarray                  # flat spatial index per entry
    weights: np.ndarray               # boundary quadrature weight per entry

    @property
    def n_nodes(self) -> int:
        return len(self.flat)

    def coords(self) -> np.ndarray:
        return np.array([self.grid.node_coords(mi) for mi in self.multi_indices])


def _selected_faces(grid: SpaceTimeGrid, portion: BoundaryPortion) -> list:
    if portion.kind == "full":
        return grid.faces()
    if portion.kind == "faces":
        faces = []
        for name in portion.faces:
            if name not in FACE_IDS:
                raise GridError(f"unknown face name {name!r}")
            fid = FACE_IDS[name]
            if fid[0] >= grid.dim:
                raise GridError(f"face {name!r} does not exist in dim {grid.dim}")
            faces.append(fid)
        return faces
    if portion.kind == "directional":
        omega = np.asarray(portion.omega, dtype=float)
        if len(omega) != grid.dim:
            raise GridError("omega length must match grid dim")
        if abs(np.linalg.norm(omega) - 1.0) > 1e-12:
            raise GridError("omega must be a unit vector")
        if portion.eps < 0:
            raise GridError("aperture eps must be >= 0")
        omega = portion.sign * omega
        faces = []
        for face in grid.faces():
            dot = float(np.dot(grid.face_normal(face), omega))
            # eps == 0 keeps nu.omega >= 0 faces, eps > 0 demands nu.omega > eps
            keep = dot >= 0.0 if portion.eps == 0.0 else dot > portion.eps
            if keep:
                faces.append(face)
        return faces
    raise GridError(f"unknown portion kind {portion.kind!r}")


def resolve_portion(grid: SpaceTimeGrid, portion: BoundaryPortion) -> ResolvedPortion:
    """The portion's nodes face by face.  A node's weight is the product of
    the trapezoid weights along its face's other axes: 1 on the point faces
    of an interval (counting measure)."""
    faces = _selected_faces(grid, portion)
    face_of_node, mis, weights = [], [], [np.zeros(0)]
    for face in faces:
        nodes = grid.face_multi_indices(face)
        face_of_node += [face] * len(nodes)
        mis += nodes
        others = [_trapezoid(n, h) for i, (n, h) in enumerate(zip(grid.nx, grid.h)) if i != face[0]]
        weights.append(functools.reduce(np.multiply.outer, others, np.ones(1)).reshape(-1))
    flat = np.ravel_multi_index(np.array(mis, dtype=int).reshape(-1, grid.dim).T, grid.nx)
    return ResolvedPortion(
        grid, tuple(faces), tuple(face_of_node), tuple(mis), flat, np.concatenate(weights)
    )


def complement_portion(grid: SpaceTimeGrid, portion: BoundaryPortion) -> ResolvedPortion:
    """The faces that the portion does not select."""
    taken = set(_selected_faces(grid, portion))
    rest = [FACE_NAMES[f] for f in grid.faces() if f not in taken]
    if not rest:
        raise GridError("no faces left for candidate data")
    return resolve_portion(grid, BoundaryPortion.named(*rest))


# ---------------------------------------------------------------------------
# Fields


@dataclass
class Field:
    """Discrete function attached to a grid.

    domain Q:      values shaped (n_levels, *nx)
    domain Omega:  values shaped nx  (an initial slice)
    domain Sigma:  values shaped (n_levels, n_portion_nodes) plus a portion
    """

    grid: SpaceTimeGrid
    values: np.ndarray
    domain: str = DOMAIN_Q
    portion: ResolvedPortion | None = dc_field(default=None, repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values)
        expected = self.expected_shape()
        if self.values.shape != expected:
            raise GridError(
                f"field shape {self.values.shape} does not match {self.domain} shape {expected}"
            )

    def expected_shape(self):
        if self.domain == DOMAIN_Q:
            return (self.grid.n_levels, *self.grid.nx)
        if self.domain == DOMAIN_OMEGA:
            return self.grid.nx
        if self.domain == DOMAIN_SIGMA:
            if self.portion is None:
                raise GridError("Sigma field needs a resolved portion")
            return (self.grid.n_levels, self.portion.n_nodes)
        raise GridError(f"unknown field domain {self.domain!r}")

    def __add__(self, other):
        return Field(self.grid, self.values + _vals(other), self.domain, self.portion)

    def __sub__(self, other):
        return Field(self.grid, self.values - _vals(other), self.domain, self.portion)

    def __mul__(self, scalar):
        return Field(self.grid, self.values * scalar, self.domain, self.portion)

    __rmul__ = __mul__


def _vals(f):
    return f.values if isinstance(f, Field) else f


def zero_field(grid: SpaceTimeGrid, domain=DOMAIN_Q) -> Field:
    if domain == DOMAIN_Q:
        shape = (grid.n_levels, *grid.nx)
    elif domain == DOMAIN_OMEGA:
        shape = grid.nx
    else:
        raise GridError("zero fields cover Q and Omega")
    return Field(grid, np.zeros(shape), domain)


def field_from_function(grid: SpaceTimeGrid, fn, domain=DOMAIN_Q, portion=None) -> Field:
    """Sample fn on grid nodes in one call: fn takes (x[, y], t) for Q/Sigma
    and (x[, y]) for Omega, vectorized over numpy arrays, with t shaped to
    broadcast against the space arguments (level_times() on Q, a column on
    Sigma).  A Sigma field needs its resolved boundary portion."""
    if domain == DOMAIN_OMEGA:
        return Field(grid, np.asarray(fn(*grid.meshes()), dtype=float), domain)
    if domain == DOMAIN_Q:
        vals = np.asarray(fn(*grid.meshes(), grid.level_times()))
        return Field(grid, np.broadcast_to(vals, (grid.n_levels, *grid.nx)).copy(), domain)
    if domain == DOMAIN_SIGMA:
        if portion is None:
            raise GridError("a Sigma field needs its boundary portion (portion=None)")
        vals = np.asarray(fn(*portion.coords().T, grid.times()[:, None]))
        return Field(grid, np.broadcast_to(vals, (grid.n_levels, portion.n_nodes)).copy(), domain,
                     portion)
    raise GridError(f"unknown field domain {domain!r}")


_NORM_DOMAINS = {"L2Q": DOMAIN_Q, "L2Omega": DOMAIN_OMEGA, "L2Sigma": DOMAIN_SIGMA}


def integral(f: Field):
    """The trapezoid rule over f's domain, the one whole-domain integral: on
    Omega the pairwise sum of f times the space weights; on Q and Sigma each
    level against the space (or portion node) weights, then the levels
    against the time weights.  A complex field's real and imaginary parts
    are summed apart by the contiguous real reductions, so a real field held
    as complex integrates bit for bit as the real one does, and its conjugate
    negates the imaginary part exactly."""
    g = f.grid

    def rule(part):
        part = np.ascontiguousarray(part)
        if f.domain == DOMAIN_OMEGA:
            return float(np.sum(part * g.space_weights()))
        w = f.portion.weights if f.domain == DOMAIN_SIGMA else g.space_weights().reshape(-1)
        return float(np.dot(g.time_weights(), part.reshape(g.n_levels, -1) @ w))

    if not np.iscomplexobj(f.values):
        return rule(f.values)
    return complex(rule(f.values.real), rule(f.values.imag))


def norm(f: Field, space: str) -> float:
    """Trapezoidal L2 norm over Q, Omega, or a Sigma portion: the square root
    of the integral of |f|^2."""
    if space not in _NORM_DOMAINS:
        raise GridError(f"unknown norm space {space!r}")
    if f.domain != _NORM_DOMAINS[space]:
        raise GridError(f"{space} norm needs a field on {_NORM_DOMAINS[space]}, not {f.domain}")
    return float(np.sqrt(integral(Field(f.grid, np.abs(f.values) ** 2, f.domain, f.portion))))


def l2q_inner(a: Field, b: Field) -> complex:
    """Trapezoidal integral of a*b over Q (no conjugation)."""
    return integral(Field(a.grid, a.values * b.values, DOMAIN_Q))


# ---------------------------------------------------------------------------
# CSV serialization: '# shape: nx[,ny],nt' header then row-major values,
# one time level per block separated by a blank line.


def save_field_csv(f: Field, path) -> None:
    """Each level's rows of value reprs; a row of bitwise equal values (-0.0
    is not 0.0) repeats one repr."""
    if f.domain not in (DOMAIN_OMEGA, DOMAIN_Q):
        raise GridError("CSV field format covers Q and Omega fields")
    values = np.array([f.values] if f.domain == DOMAIN_OMEGA else f.values, dtype=float)
    levels = values.reshape(len(values), -1, values.shape[-1])
    constant = np.all(levels.view(np.int64) == levels[..., :1].view(np.int64), axis=-1).tolist()
    buf = io.StringIO()
    buf.write(f"# shape: {','.join(map(str, (*f.grid.nx, f.grid.nt)))}\n")
    for k, (level, flags) in enumerate(zip(levels.tolist(), constant)):
        if k:
            buf.write("\n")
        for row, same in zip(level, flags):
            buf.write(",".join([repr(row[0])] * len(row) if same else map(repr, row)))
            buf.write("\n")
    with open(path, "w") as fh:
        fh.write(buf.getvalue())
