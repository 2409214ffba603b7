"""2D computational domains: triangulation, boundary frames, isometries.

Meshes are plain P1 triangulations.  The disk is the primary domain: its
Delaunay triangulation is built ring by ring, with no general point-set
triangulator, its boundary vertices sit exactly on the circle, and every
tangent direction is available as a boundary frame, which is how the
direction sweep of the recovery pipeline is realized without re-meshing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class Mesh:
    """Triangulated convex domain with an oriented boundary loop.

    Its geometry is fixed at construction: every geometric array is
    computed here, once.  The P1 kernels read per-triangle data as
    contiguous rows of length T: ``tri_t`` and ``hat_t`` are the stored
    arrays, and ``triangles`` and ``hat_gradients`` are transposed views
    of them, not copies.  ``_cache`` holds the solver state built on the
    mesh: the P1 pattern, the Laplace LU (the only LU kept between
    calls) and the patch-recovery operator.  Solvers fill each entry
    once, and ``reconstruct`` fills the forward solver's before any chain
    starts, so chains only read the mesh.  Vertices are numbered in
    solver order, interior first, so interior and boundary blocks are
    slices; builders list triangles by smallest, then largest, vertex.

    Attributes
    ----------
    vertices : (N, 2) float array
    tri_t : (3, T) int array, the vertices of each triangle, positively
        oriented
    triangles : (T, 3) view of ``tri_t``
    boundary_loop : (B,) int array, boundary vertices in CCW order, which
        is ``arange(n_interior, N)``
    n_interior : number of interior vertices, N - B
    boundary_edges : (B, 2) int array, consecutive loop pairs
    boundary_normals : (B, 2) float array, outward unit normal per edge
    h : target edge length
    diameter : domain diameter
    areas : (T,) triangle areas
    hat_t : (3, 2, T) gradients of the three barycentric hats:
        ``hat_t[i, k]`` is component k of hat i's gradient
    hat_gradients : (T, 3, 2) view of ``hat_t``
    centroids : (T, 2) triangle centroids
    interior_idx : indices of the interior vertices, ``arange(n_interior)``
    edge_lengths : (B,) boundary edge lengths
    perimeter : boundary length
    arclength : (B,) cumulative arclength at each loop vertex, from loop[0]
    vertex_weights : (B,) boundary quadrature weight per loop vertex
        (half the adjacent edges)
    vertex_normals : (B, 2) outward unit normal per loop vertex
        (adjacent-edge average)
    """

    def __init__(self, vertices, triangles, boundary_loop, h, diameter):
        self.vertices = np.asarray(vertices, dtype=float)
        self.tri_t = np.ascontiguousarray(np.asarray(triangles, dtype=int).T)
        self.triangles = self.tri_t.T
        self.boundary_loop = np.asarray(boundary_loop, dtype=int)
        self.n_interior = len(self.vertices) - len(self.boundary_loop)
        if not np.array_equal(self.boundary_loop, np.arange(self.n_interior, len(self.vertices))):
            raise ValueError("Mesh: the boundary loop must be the trailing block of vertices")
        self.h = float(h)
        self.diameter = float(diameter)
        self._cache = {}

        v = self.vertices[self.triangles]          # (T, 3, 2)
        self.centroids = v.mean(axis=1)
        d1 = v[:, 1] - v[:, 0]
        d2 = v[:, 2] - v[:, 0]
        det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        self.areas = 0.5 * det
        g = np.empty((3, 2, len(det)))
        g[1, 0] = d2[:, 1] / det
        g[1, 1] = -d2[:, 0] / det
        g[2, 0] = -d1[:, 1] / det
        g[2, 1] = d1[:, 0] / det
        g[0] = -g[1] - g[2]
        self.hat_t = g
        self.hat_gradients = g.transpose(2, 0, 1)

        loop = self.boundary_loop
        self.interior_idx = np.arange(self.n_interior)
        self.boundary_edges = np.stack([loop, np.roll(loop, -1)], axis=1)
        e = self.vertices[self.boundary_edges[:, 1]] - self.vertices[self.boundary_edges[:, 0]]
        # CCW loop: outward normal is the edge direction rotated by -90 degrees
        n = np.stack([e[:, 1], -e[:, 0]], axis=1)
        self.boundary_normals = n / np.linalg.norm(n, axis=1, keepdims=True)
        el = np.linalg.norm(e, axis=1)
        self.edge_lengths = el
        self.perimeter = float(el.sum())
        self.arclength = np.concatenate([[0.0], np.cumsum(el[:-1])])
        self.vertex_weights = 0.5 * (el + np.roll(el, 1))
        n = self.boundary_normals + np.roll(self.boundary_normals, 1, axis=0)
        self.vertex_normals = n / np.linalg.norm(n, axis=1, keepdims=True)

    def p1_gradient(self, ut: np.ndarray) -> np.ndarray:
        """Triangle-constant gradient of the P1 field whose vertex values
        are gathered as ``ut = values[tri_t]``, (3, T): the two rows
        ``sum_i ut[i] hat_t[i]``, shape (2, T)."""
        g = self.hat_t
        return ut[0] * g[0] + ut[1] * g[1] + ut[2] * g[2]


# dissection parts of at most this many interior vertices are not split
ND_LEAF = 16


def _nested_dissection(vertices, triangles, n_interior: int):
    """Geometric nested-dissection order of the interior vertices
    ``0 .. n_interior - 1``.

    A part of more than ND_LEAF vertices is bisected at the median of one
    coordinate, the axes alternating by level, and the upper endpoints
    of the interior edges the bisection cuts are its separator.  Each
    part is ordered lower half, upper half, then separator, so the two
    halves eliminate independently and their fill meets only in the
    separator's dense block.  Every level splits all its parts at once
    over the edge list; ties are broken by vertex index.

    Returns (order, node): the interior vertices in elimination order,
    and per interior vertex the heap index of its dissection node (root
    1, halves 2k and 2k + 1): the part whose separator it is, or the
    unsplit part it ends in.
    """
    ni = n_interior
    tri = np.where(triangles < ni, triangles, -1)
    u, v = np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]]).T
    # an edge between interior vertices lies in two triangles, once per
    # orientation: u < v keeps each edge once
    keep = (u >= 0) & (u < v)
    u, v = u[keep], v[keep]
    # each vertex's rank along each axis, ties by index
    ranks = np.empty((2, ni), dtype=np.int64)
    for axis in (0, 1):
        ranks[axis, np.argsort(vertices[:ni, axis], kind="stable")] = np.arange(ni)
    node = np.ones(ni, dtype=np.int64)
    act = np.arange(ni)               # the vertices of parts still to split
    level = 0
    while len(act):
        # by part, then by rank along this level's axis
        srt = act[np.argsort(node[act] * ni + ranks[level % 2, act])]
        starts = np.flatnonzero(np.diff(node[srt], prepend=0))
        size = np.diff(starts, append=len(srt))
        upper = 2 * (np.arange(len(srt)) - np.repeat(starts, size)) >= np.repeat(size, size)
        split = np.repeat(size > ND_LEAF, size)
        act = srt[split]
        node[act] = 2 * node[act] + upper[split]
        # the upper endpoint of each cut edge joins the separator
        cut = node[u] ^ node[v] == 1
        sep = np.where(node[u[cut]] & 1, u[cut], v[cut])
        node[sep] >>= 1
        active = np.zeros(ni, dtype=bool)
        active[act] = True
        active[sep] = False
        act = np.flatnonzero(active)
        keep = active[u] & active[v] & (node[u] == node[v])
        u, v = u[keep], v[keep]
        level += 1
    # post-order: sorted by the last leaf-level heap index under each
    # node, deeper first on ties, a node follows its whole subtree
    depth = np.frexp(node.astype(float))[1] - 1
    order = np.lexsort((-depth, ((node + 1) << (level - depth)) - 1))
    return order, node


def _solver_mesh(points, triangles, loop, h, diameter) -> Mesh:
    """The mesh of a positively oriented triangulation whose boundary
    ``loop`` (CCW) is the trailing block of ``points``, numbered in solver
    order: the interior vertices in nested-dissection order, then the
    loop.  Triangles are listed by smallest, then largest, vertex, so the
    P1 kernels scatter in nearly sorted order."""
    first_b = len(points) - len(loop)
    perm = np.concatenate([_nested_dissection(points, triangles, first_b)[0], loop])
    number = np.empty(len(points), dtype=int)
    number[perm] = np.arange(len(points))
    tri = number[triangles]
    tri = tri[np.lexsort((tri.max(axis=1), tri.min(axis=1)))]
    return Mesh(points[perm], tri, np.arange(first_b, len(points)), h, diameter)


def build_disk_mesh(radius: float, h: float) -> Mesh:
    """Delaunay triangulation of a disk, built ring by ring.

    Vertices are the centre and concentric rings with spacing ~0.75 h
    (the finer constant keeps the boundary resolved for high-frequency
    probes), odd rings offset by half a step; the outer ring lies exactly
    on the circle.  Two chords of consecutive rings are cocircular exactly
    when their mid-angles coincide, and the in-circle test changes sign as
    they cross, so each chord's triangle takes the other ring's vertex
    whose angular cell holds its mid-angle: chord c of an n-point ring
    with offset parity q sits at 2 pi (2c + 1 + q) / (2n), compared as
    integers.  On a tie both diagonals are Delaunay; the inner chord goes
    first.  The centre fans out to ring 1.
    """
    if not (0 < h < radius):
        raise ValueError("build_disk_mesh: need 0 < h < radius")
    spacing = 0.75 * h
    n_rings = max(2, round(radius / spacing))
    n_outer = max(12, int(math.ceil(2.0 * math.pi * radius / spacing)))
    pts, tris, first = [np.zeros((1, 2))], [], 1
    for j in range(1, n_rings + 1):
        n = n_outer if j == n_rings else max(6, round(n_outer * j / n_rings))
        r = radius * j / n_rings
        th = 0.5 * (j % 2) * 2.0 * math.pi / n + 2.0 * math.pi * np.arange(n) / n
        pts.append(np.stack([r * np.cos(th), r * np.sin(th)], axis=1))
        ring = first + np.arange(n)         # CCW
        if j == 1:
            tris.append(np.stack([np.zeros(n, dtype=int), ring, np.roll(ring, -1)], axis=1))
        else:
            # chord mid-angles of the inner ring and this one, in units of pi / (m n)
            k_in = (2 * np.arange(m) + 1 + (j - 1) % 2) * n
            k_out = (2 * np.arange(n) + 1 + j % 2) * m
            tris.append(np.stack([np.roll(inner, -1), inner,
                                  ring[np.searchsorted(k_out, k_in) % n]], axis=1))
            tris.append(np.stack([ring, np.roll(ring, -1),
                                  inner[np.searchsorted(k_in, k_out, side="right") % m]], axis=1))
        inner, m, first = ring, n, first + n
    points = np.concatenate(pts)
    # the loop starts where the angle around the ring's centroid wraps past pi
    xy = points[ring] - points[ring].mean(axis=0)
    loop = np.roll(ring, -int(np.argmin(np.arctan2(xy[:, 1], xy[:, 0]))))
    return _solver_mesh(points, np.concatenate(tris), loop, h, diameter=2.0 * radius)


@dataclass(frozen=True)
class BoundaryFrame:
    """Boundary point with outward normal and tangent (tau = nu rotated +90)."""
    x0: np.ndarray
    nu: np.ndarray
    tau: np.ndarray
    theta: float
    vertex: int
    loop_pos: int


def boundary_frame_at(mesh: Mesh, theta: float) -> BoundaryFrame:
    """Frame at the boundary vertex closest to polar angle theta."""
    c = mesh.vertices[mesh.boundary_loop].mean(axis=0)
    xy = mesh.vertices[mesh.boundary_loop] - c
    ang = np.arctan2(xy[:, 1], xy[:, 0])
    diff = np.angle(np.exp(1j * (ang - theta)))
    k = int(np.argmin(np.abs(diff)))
    vtx = int(mesh.boundary_loop[k])
    nu = mesh.vertex_normals[k]
    tau = np.array([-nu[1], nu[0]])
    return BoundaryFrame(x0=mesh.vertices[vtx].copy(), nu=nu.copy(), tau=tau,
                         theta=float(np.arctan2(xy[k, 1], xy[k, 0])),
                         vertex=vtx, loop_pos=k)


@dataclass(frozen=True)
class Isometry:
    """Euclidean isometry y = R x + t with R proper orthogonal."""
    R: np.ndarray
    t: np.ndarray

    def apply(self, x):
        return np.asarray(x, dtype=float) @ self.R.T + self.t

    def __post_init__(self):
        if np.max(np.abs(self.R.T @ self.R - np.eye(2))) > 1e-12:
            raise ValueError("Isometry: R is not orthogonal to 1e-12")


def normalize_above_origin(mesh: Mesh, frame: BoundaryFrame) -> Isometry:
    """Isometry placing the domain above the origin at the frame point.

    The returned map sends x0 to the origin, the tangent to e1 and the
    inner normal to e2, so the image domain lies in {y2 >= 0} with the
    x1-axis as supporting line.
    """
    if frame.loop_pos < 0 or mesh.boundary_loop[frame.loop_pos] != frame.vertex:
        raise ValueError("normalize_above_origin: frame is not on the mesh boundary")
    R = np.stack([frame.tau, -frame.nu], axis=0)
    iso = Isometry(R=R, t=-R @ frame.x0)
    y = iso.apply(mesh.vertices)
    if y[:, 1].min() < -1e-10 * max(1.0, mesh.diameter):
        raise ValueError("normalize_above_origin: domain is not supported at the frame "
                         f"(min height {y[:, 1].min():.3e})")
    return iso


def transform_mesh(mesh: Mesh, iso: Isometry) -> Mesh:
    """Apply an isometry to the mesh (same topology, moved vertices)."""
    return Mesh(iso.apply(mesh.vertices), mesh.triangles.copy(),
                mesh.boundary_loop.copy(), mesh.h, mesh.diameter)


def save_mesh(mesh: Mesh, path):
    """Plain-text dump: `v x y`, `t i j k`, `b i j nx ny` lines."""
    with open(path, "w") as f:
        f.write(f"# h {mesh.h!r} diameter {mesh.diameter!r}\n")
        for x, y in mesh.vertices:
            f.write(f"v {float(x)!r} {float(y)!r}\n")
        for i, j, k in mesh.triangles:
            f.write(f"t {i} {j} {k}\n")
        for (i, j), (nx, ny) in zip(mesh.boundary_edges, mesh.boundary_normals):
            f.write(f"b {i} {j} {float(nx)!r} {float(ny)!r}\n")
