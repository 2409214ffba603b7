import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import Delaunay

from qcond import geometry
from qcond.geometry import (Isometry, Mesh, boundary_frame_at, build_disk_mesh,
                            normalize_above_origin, save_mesh, transform_mesh)


def polygon_mesh(n_sides: int, h: float) -> Mesh:
    """Regular polygon of circumradius 1, triangulated by qhull from shrunken
    copies of its boundary ring: the non-disk domain of the mesh and P1
    tests."""
    th = 2.0 * math.pi * np.arange(n_sides) / n_sides
    corners = np.stack([np.cos(th), np.sin(th)], axis=1)
    per_side = max(1, round(np.linalg.norm(corners[1] - corners[0]) / (0.75 * h)))
    ring = np.asarray([(1 - t) * a + t * b
                       for a, b in zip(corners, np.roll(corners, -1, axis=0))
                       for t in np.arange(per_side) / per_side])
    n_rings = max(2, round(1.0 / (0.75 * h)))
    pts = [np.zeros((1, 2))]
    for j in range(1, n_rings):
        scale = j / n_rings
        pts.append(scale * ring[::max(1, round(1.0 / scale))])
    pts.append(ring)
    points = np.concatenate(pts)
    tri = Delaunay(points).simplices
    # positively oriented, and no sliver along a side's collinear points
    det = _orientation(points[tri])
    tri = np.where((det < 0)[:, None], tri[:, [0, 2, 1]], tri)[np.abs(det) > 1e-12 * h * h]
    dists = np.linalg.norm(corners[:, None, :] - corners[None, :, :], axis=-1)
    loop = np.arange(len(points) - len(ring), len(points))
    return geometry._solver_mesh(points, tri, loop, h, float(dists.max()))


def _orientation(v):
    """Twice the signed area of each triangle of corner rows v, (T, 3, 2)."""
    d1, d2 = v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]
    return d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]


def load_mesh(path) -> Mesh:
    """Reader of save_mesh's text format, for its round trip."""
    verts, tris, loop = [], [], []
    with open(path) as f:
        for parts in map(str.split, f):
            if parts[0] == "#":
                h, diam = float(parts[2]), float(parts[4])
            elif parts[0] == "v":
                verts.append((float(parts[1]), float(parts[2])))
            elif parts[0] == "t":
                tris.append((int(parts[1]), int(parts[2]), int(parts[3])))
            elif parts[0] == "b":
                loop.append(int(parts[1]))
    return Mesh(np.asarray(verts), np.asarray(tris), np.asarray(loop), h, diam)


def test_disk_mesh_quality():
    m = build_disk_mesh(1.0, 0.2)
    assert np.all(m.areas > 0)
    # quasi-uniform: all areas within fixed constants of h^2
    assert m.areas.min() > 0.05 * 0.2 ** 2
    assert m.areas.max() < 1.0 * 0.2 ** 2
    r = np.linalg.norm(m.vertices[m.boundary_loop], axis=1)
    assert np.abs(r - 1.0).max() < 1e-12
    assert m.diameter == 2.0
    # no hanging vertices
    assert set(range(len(m.vertices))) == set(m.triangles.ravel())


def _circumcircle(v):
    """Centres (T, 2) and radii (T,) of the circles through corner rows v."""
    a, b, c = v[:, 0], v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]
    d = 2.0 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
    bb, cc = (b * b).sum(axis=1), (c * c).sum(axis=1)
    o = np.stack([c[:, 1] * bb - b[:, 1] * cc, b[:, 0] * cc - c[:, 0] * bb], axis=1) / d[:, None]
    return a + o, np.linalg.norm(o, axis=1)


@pytest.mark.parametrize("h", [0.5, 0.3, 0.2, 0.15, 0.1, 0.07, 0.05, 0.025])
def test_disk_mesh_is_delaunay(h):
    m = build_disk_mesh(1.0, h)
    v, tri, loop = m.vertices, m.triangles, m.boundary_loop
    assert np.all(_orientation(v[tri]) > 0)
    ours = set(map(tuple, np.sort(tri, axis=1)))
    edges = lambda ts: {e for t in ts for e in ((t[0], t[1]), (t[1], t[2]), (t[0], t[2]))}
    assert len(v) - len(edges(ours)) + len(tri) == 1
    # the loop is the outer ring, CCW from where its angle wraps past pi
    assert np.array_equal(np.flatnonzero(np.linalg.norm(v, axis=1) > 1.0 - 1e-12), loop)
    assert np.all(np.diff(np.arctan2(v[loop, 1], v[loop, 0])) > 0)
    # every interior edge is locally Delaunay: the vertex across it lies on
    # or outside the circumcircle of the triangle on this side
    far = {(i, j): k for t in tri.tolist() for i, j, k in (t, t[1:] + t[:1], t[2:] + t[:2])}
    i, j, k, l = np.array([(i, j, k, far[j, i]) for (i, j), k in far.items() if (j, i) in far]).T
    centre, radius = _circumcircle(v[np.stack([i, j, k], axis=1)])
    assert np.all(np.linalg.norm(v[l] - centre, axis=1) >= radius * (1.0 - 1e-9))
    # qhull on the same points gives the same triangles, but where a quad's
    # four points are cocircular: there both diagonals are Delaunay
    qhull = set(map(tuple, np.sort(Delaunay(v).simplices, axis=1)))
    ours_only, qhull_only = edges(ours) - edges(qhull), edges(qhull) - edges(ours)
    assert len(ours - qhull) == len(qhull - ours) == 2 * len(ours_only) == 2 * len(qhull_only)
    assert all(edges([t]) & ours_only for t in ours - qhull)
    for i, j in ours_only:
        k, l = far[i, j], far[j, i]
        assert (min(k, l), max(k, l)) in qhull_only
        centre, radius = _circumcircle(v[[[i, j, k]]])
        assert abs(np.linalg.norm(v[l] - centre[0]) - radius[0]) <= 1e-9 * radius[0]


def test_disk_mesh_area_converges():
    # total area approaches pi at second order
    errs = [abs(build_disk_mesh(1.0, h).areas.sum() - math.pi) for h in (0.2, 0.1)]
    assert errs[1] < 0.35 * errs[0]


def test_boundary_count_doubles():
    n1 = len(build_disk_mesh(1.0, 0.2).boundary_loop)
    n2 = len(build_disk_mesh(1.0, 0.1).boundary_loop)
    assert 1.8 < n2 / n1 < 2.2


def test_mesh_geometry_is_computed_at_construction():
    # every geometric array is a plain attribute, set when the mesh is
    # built; the cache is left to what the solvers build lazily
    m = build_disk_mesh(1.0, 0.2)
    names = ("tri_t", "areas", "hat_t", "hat_gradients", "centroids", "interior_idx",
             "edge_lengths", "perimeter", "arclength", "vertex_weights", "vertex_normals")
    assert set(names) <= set(vars(m))
    for name in names:
        getattr(m, name)
    assert m._cache == {}


def test_degenerate_h_rejected():
    with pytest.raises(ValueError):
        build_disk_mesh(1.0, 0.0)
    with pytest.raises(ValueError):
        build_disk_mesh(1.0, 2.0)


def test_boundary_loop_closed():
    m = build_disk_mesh(1.0, 0.15)
    # edges chain consecutive loop entries and close up
    assert len(m.boundary_edges) == len(m.boundary_loop)
    assert set(m.boundary_edges[:, 0]) == set(m.boundary_loop)
    assert np.abs(np.linalg.norm(m.boundary_normals, axis=1) - 1.0).max() < 1e-12


def test_frame_at_angle_zero():
    m = build_disk_mesh(1.0, 0.1)
    fr = boundary_frame_at(m, 0.0)
    assert np.linalg.norm(fr.x0 - [1.0, 0.0]) < 0.05
    assert fr.nu @ [1.0, 0.0] > 0.99
    assert abs(fr.nu @ fr.tau) < 1e-12
    assert abs(np.linalg.norm(fr.tau) - 1.0) < 1e-12
    # tau is nu rotated by +90 degrees
    assert np.allclose(fr.tau, [-fr.nu[1], fr.nu[0]])


def test_antipodal_normals():
    m = build_disk_mesh(1.0, 0.1)
    n0 = boundary_frame_at(m, 0.7).nu
    n1 = boundary_frame_at(m, 0.7 + math.pi).nu
    assert n0 @ n1 < -0.99


def test_discrete_normal_matches_analytic():
    # uniform ring spacing makes adjacent-edge averages exactly radial;
    # the O(h^2) bound is what general spacing guarantees
    for h in (0.2, 0.1):
        m = build_disk_mesh(1.0, h)
        worst = 0.0
        for th in np.linspace(0, 2 * math.pi, 7)[:-1]:
            fr = boundary_frame_at(m, th)
            worst = max(worst, np.linalg.norm(fr.nu - fr.x0 / np.linalg.norm(fr.x0)))
        assert worst < 0.5 * h * h


def test_normalize_above_origin():
    m = build_disk_mesh(1.0, 0.1)
    # bottom point: rotation is trivial up to the discrete normal
    fr = boundary_frame_at(m, -math.pi / 2)
    iso = normalize_above_origin(m, fr)
    y = iso.apply(m.vertices)
    assert np.linalg.norm(iso.apply(fr.x0)) < 1e-14
    assert y[:, 1].min() >= -1e-10
    # inner normal maps to e2
    assert np.allclose(iso.R @ (-fr.nu), [0.0, 1.0], atol=1e-14)
    # at angle 0 the map is a quarter turn composed with translation
    fr0 = boundary_frame_at(m, 0.0)
    iso0 = normalize_above_origin(m, fr0)
    assert iso0.apply(m.vertices)[:, 1].min() >= -1e-10


def test_supporting_plane_all_frames():
    m = build_disk_mesh(1.0, 0.15)
    for th in np.linspace(0, 2 * math.pi, 13)[:-1]:
        iso = normalize_above_origin(m, boundary_frame_at(m, th))
        assert iso.apply(m.vertices)[:, 1].min() >= -1e-10


def test_non_boundary_frame_rejected():
    m = build_disk_mesh(1.0, 0.15)
    fr = boundary_frame_at(m, 0.0)
    bogus = type(fr)(x0=np.zeros(2), nu=fr.nu, tau=fr.tau, theta=0.0,
                     vertex=int(m.interior_idx[0]), loop_pos=0)
    with pytest.raises(ValueError):
        normalize_above_origin(m, bogus)


def test_interpolation_second_order():
    # P1 interpolant of a smooth function: barycenter error O(h^2)
    f = lambda x: np.sin(x[..., 0]) * np.cos(x[..., 1])
    errs = []
    for h in (0.2, 0.1):
        m = build_disk_mesh(1.0, h)
        interp = f(m.vertices)[m.triangles].mean(axis=1)
        errs.append(np.abs(interp - f(m.centroids)).max())
    assert errs[1] < 0.35 * errs[0]


def test_mesh_io_round_trip(tmp_path):
    m = build_disk_mesh(1.0, 0.2)
    save_mesh(m, tmp_path / "m.txt")
    m2 = load_mesh(tmp_path / "m.txt")
    assert np.array_equal(m.triangles, m2.triangles)
    assert np.abs(m.vertices - m2.vertices).max() == 0.0
    assert np.array_equal(m.boundary_loop, m2.boundary_loop)
    assert m2.h == m.h and m2.diameter == m.diameter


def test_transform_mesh_preserves_geometry():
    m = build_disk_mesh(1.0, 0.2)
    th = 0.9
    R = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    iso = Isometry(R=R, t=np.array([0.3, -0.7]))
    m2 = transform_mesh(m, iso)
    assert np.abs(m2.areas - m.areas).max() < 1e-14
    assert np.abs(m2.edge_lengths - m.edge_lengths).max() < 1e-14


@pytest.mark.parametrize("h", [0.2, 0.1, 0.05])
def test_nested_dissection_order(h):
    m = build_disk_mesh(1.0, h)
    ii = m.interior_idx
    order, node = geometry._nested_dissection(m.vertices, m.triangles, m.n_interior)
    assert np.array_equal(np.sort(order), ii)
    # the mesh numbers its interior vertices in this order already
    assert np.array_equal(order, ii)
    pos = np.empty(len(m.vertices), dtype=int)
    pos[order] = np.arange(len(order))
    pos = pos[ii]
    local = np.full(len(m.vertices), -1)
    local[ii] = np.arange(len(ii))
    tri = local[m.triangles]
    u, v = np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]]).T
    u, v = u[(u >= 0) & (v >= 0)], v[(u >= 0) & (v >= 0)]
    depth = np.array([int(k).bit_length() - 1 for k in node])

    def within(k):
        # vertices whose dissection node lies in the subtree of node k
        d = int(k).bit_length() - 1
        return (depth >= d) & (node >> np.maximum(depth - d, 0) == k)

    split = {int(k) >> j for k in node for j in range(1, int(k).bit_length())}
    assert split
    for k in split:
        lower, upper = within(2 * k), within(2 * k + 1)
        sep = node == k
        assert lower.any() and upper.any()
        # the separator comes after both of its halves
        if sep.any():
            assert pos[sep].min() > max(pos[lower].max(), pos[upper].max())
        # and no interior edge joins the two halves
        assert not np.any(lower[u] & upper[v]) and not np.any(upper[u] & lower[v])


@pytest.mark.parametrize("build", [lambda: build_disk_mesh(1.0, 0.1),
                                   lambda: polygon_mesh(5, 0.1)])
def test_mesh_numbers_interior_first(build, tmp_path):
    m = build()
    n, ni = len(m.vertices), m.n_interior
    assert 0 < ni < n
    assert np.array_equal(m.boundary_loop, np.arange(ni, n))
    assert np.array_equal(m.interior_idx, np.arange(ni))
    # the trailing block is exactly the vertices of the edges that lie in
    # one triangle only
    edges = np.sort(np.concatenate([m.triangles[:, [0, 1]], m.triangles[:, [1, 2]],
                                    m.triangles[:, [2, 0]]]), axis=1)
    uniq, count = np.unique(edges, axis=0, return_counts=True)
    assert set(uniq[count == 1].ravel()) == set(range(ni, n))
    iso = Isometry(R=np.array([[0.0, -1.0], [1.0, 0.0]]), t=np.array([0.5, 0.2]))
    save_mesh(m, tmp_path / "m.txt")
    for m2 in (transform_mesh(m, iso), load_mesh(tmp_path / "m.txt")):
        assert m2.n_interior == ni and np.array_equal(m2.boundary_loop, m.boundary_loop)
        assert np.array_equal(m2.triangles, m.triangles)
    for loop in (np.roll(m.boundary_loop, 1), m.boundary_loop[::-1],
                 np.arange(ni - 1, n - 1)):
        with pytest.raises(ValueError, match="trailing block"):
            Mesh(m.vertices, m.triangles, loop, m.h, m.diameter)


def test_import_leaves_out_spatial_and_special():
    # the mesh is built without qhull, so importing the package and its
    # CLI does not pay for scipy.spatial, nor for the scipy.special it loads
    code = ("import sys, qcond, qcond.cli; print(sorted({m for m in sys.modules "
            "if m.split('.')[:2] in (['scipy', 'spatial'], ['scipy', 'special'])}))")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"
