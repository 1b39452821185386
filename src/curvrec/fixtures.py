"""Analytic point-cloud fixtures so experiments need no external datasets.

All generators are seeded and return clouds with normals. The sheets
fixture reproduces the close-layers failure case: two parallel square
sheets separated by an adjustable gap, optionally with Gaussian noise so
the curvature field has nondegenerate percentiles.
"""

import numpy as np

from .model import PointCloud


def sphere_cloud(count=50000, radius=0.3, seed=0) -> PointCloud:
    """Uniform samples on a sphere centered at the origin."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(count, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    return PointCloud(v * radius, v)


def cube_cloud(count=50000, side=1.0, seed=0) -> PointCloud:
    """Area-uniform samples on the surface of an axis-aligned cube."""
    rng = np.random.default_rng(seed)
    face = rng.integers(0, 6, size=count)
    uv = rng.random(size=(count, 2)) - 0.5
    pts = np.empty((count, 3))
    nrm = np.zeros((count, 3))
    axis = face // 2
    sign = np.where(face % 2 == 0, 1.0, -1.0)
    others = np.array([[1, 2], [0, 2], [0, 1]])
    rows = np.arange(count)
    pts[rows, axis] = 0.5 * sign
    pts[rows, others[axis, 0]] = uv[:, 0]
    pts[rows, others[axis, 1]] = uv[:, 1]
    nrm[rows, axis] = sign
    return PointCloud(pts * side, nrm)


def sheets_cloud(count=50000, gap=0.045, side=1.0, noise=0.0, seed=0) -> PointCloud:
    """Two parallel square sheets at z = +/- gap/2.

    The first half of the points lies on the upper sheet, the second half
    on the lower. noise is the standard deviation of isotropic Gaussian
    jitter.
    """
    rng = np.random.default_rng(seed)
    half = count // 2
    pts, nrm = np.empty((count, 3)), np.zeros((count, 3))
    buf = np.empty((count - half, 3))  # each sheet's jitter, drawn in place
    for rows, z in ((slice(0, half), gap / 2.0), (slice(half, count), -gap / 2.0)):
        sheet, m = pts[rows], rows.stop - rows.start
        xy = rng.random(size=(m, 2))
        xy -= 0.5
        xy *= side
        sheet[:, :2] = xy
        sheet[:, 2] = z
        if noise > 0:
            jitter = buf[:m]
            rng.standard_normal(out=jitter)
            jitter *= noise
            sheet += jitter
        nrm[rows, 2] = np.sign(z) if z != 0 else 1.0
    return PointCloud(pts, nrm)


def make_fixture(shape, count=50000, seed=0, radius=0.3, side=1.0,
                 gap=0.045, noise=0.0) -> PointCloud:
    if not count > 0:
        raise ValueError(f"count must be positive, not {count}")
    if not noise >= 0:
        raise ValueError(f"noise must be nonnegative, not {noise}")
    if not radius > 0:
        raise ValueError(f"radius must be positive, not {radius}")
    if not side > 0:
        raise ValueError(f"side must be positive, not {side}")
    if not gap >= 0:
        raise ValueError(f"gap must be nonnegative, not {gap}")
    if shape == "sphere":
        return sphere_cloud(count=count, radius=radius, seed=seed)
    if shape == "cube":
        return cube_cloud(count=count, side=side, seed=seed)
    if shape == "sheets":
        return sheets_cloud(count=count, gap=gap, side=side, noise=noise, seed=seed)
    raise ValueError(f"unknown fixture shape {shape!r}")
