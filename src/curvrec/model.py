"""Core geometric value types and the unit-cube normalization transform.

Points are float64 numpy arrays: a single point is shape (3,), a point set
is shape (n, 3). All containers validate on construction and are treated
as immutable afterwards.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateExtent, EmptyCloud


def as_points(a):
    """Coerce to a float64 (n, 3) array, rejecting non-finite entries."""
    pts = np.ascontiguousarray(np.asarray(a, dtype=np.float64))
    if pts.ndim == 1:
        pts = pts.reshape(-1, 3)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected (n, 3) point array, got shape {pts.shape}")
    if pts.size and not np.isfinite(pts).all():
        raise ValueError("point coordinates must be finite")
    return pts


# Normal lengths are checked this many rows at a time, so that validating a
# cloud takes no temporary the size of its normals.
_CHECK_ROWS = 1 << 16


@dataclass
class PointCloud:
    """Ordered 3D samples with optional unit normals."""

    points: np.ndarray
    normals: np.ndarray | None = None

    def __post_init__(self):
        self.points = as_points(self.points)
        if self.normals is not None:
            self.normals = as_points(self.normals)
            if self.normals.shape != self.points.shape:
                raise ValueError("normals must match points in shape")
            for start in range(0, len(self.normals), _CHECK_ROWS):
                norms = np.linalg.norm(self.normals[start:start + _CHECK_ROWS], axis=1)
                if np.abs(norms - 1.0).max() > 1e-6:
                    raise ValueError("normals must be unit length (within 1e-6)")

    def __len__(self):
        return self.points.shape[0]

    @property
    def has_normals(self):
        return self.normals is not None


@dataclass
class NormalizationTransform:
    """Maps world coordinates into the [-0.5, 0.5]^3 cube.

    Forward: p' = (p + translation) * scale.  Inverse: p = p' / scale - translation.
    """

    scale: float
    translation: np.ndarray

    def __post_init__(self):
        self.scale = float(self.scale)
        if not (self.scale > 0.0):
            raise ValueError("scale must be positive")
        self.translation = np.asarray(self.translation, dtype=np.float64).reshape(3)

    def apply(self, pts):
        return (as_points(pts) + self.translation) * self.scale

    def invert(self, pts):
        out = as_points(pts) / self.scale
        out -= self.translation  # in place: a mesh's vertices can set the run's peak
        return out


@dataclass
class TriangleMesh:
    """Triangle soup: (v, 3) float vertices, (f, 3) int vertex-index faces."""

    vertices: np.ndarray = field(default_factory=lambda: np.empty((0, 3)))
    faces: np.ndarray = field(default_factory=lambda: np.empty((0, 3), dtype=np.int64))

    def __post_init__(self):
        self.vertices = as_points(self.vertices)
        self.faces = np.ascontiguousarray(np.asarray(self.faces, dtype=np.int64))
        if self.faces.size == 0:
            self.faces = self.faces.reshape(0, 3)
        if self.faces.ndim != 2 or self.faces.shape[1] != 3:
            raise ValueError(f"expected (f, 3) face array, got shape {self.faces.shape}")
        if self.faces.size:
            if self.faces.min() < 0 or self.faces.max() >= len(self.vertices):
                raise ValueError("face index out of range")
            a, b, c = self.faces.T
            if np.any((a == b) & (b == c)):
                raise ValueError("degenerate face with three identical indices")

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_faces(self):
        return self.faces.shape[0]


def normalize_cloud(cloud: PointCloud):
    """Fit a cloud into [-0.5, 0.5]^3, longest bounding-box side mapped to 1.

    Returns the normalized cloud and the transform that produced it. The
    aspect ratio is preserved and the bounding-box center maps to the origin.
    DegenerateExtent when the box's extent, its reciprocal or its center
    overflows float64.
    """
    if len(cloud) == 0:
        raise EmptyCloud("cannot normalize an empty cloud")
    lo = cloud.points.min(axis=0)
    hi = cloud.points.max(axis=0)
    with np.errstate(over="ignore"):  # an overflow is refused below
        extent = hi - lo
        translation = -(lo + hi) / 2.0
    longest = float(extent.max())
    if longest <= 0.0:
        raise DegenerateExtent("all points coincide; bounding box has zero diagonal")
    scale = 1.0 / longest  # a Python float: inf past float64, without a warning
    if not (np.isfinite(extent).all() and np.isfinite(scale) and np.isfinite(translation).all()):
        raise DegenerateExtent(f"the bounding box from {lo.tolist()} to {hi.tolist()} overflows "
                               f"float64: its extent, reciprocal extent or center is not finite")
    transform = NormalizationTransform(scale=scale, translation=translation)
    points = cloud.points + transform.translation  # transform.apply's bits, one temporary
    points *= transform.scale
    return PointCloud(points, cloud.normals), transform


def denormalize_mesh(mesh: TriangleMesh, transform: NormalizationTransform) -> TriangleMesh:
    """Map mesh vertices back through the inverse transform. The result shares
    mesh.faces, which no stage writes to, so a run holds one face array."""
    return TriangleMesh(transform.invert(mesh.vertices), mesh.faces)
