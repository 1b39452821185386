"""Point-set evaluation metrics: Chamfer distance, F1, normal consistency.

Meshes are compared through area-uniform surface samples carrying face
normals. Chamfer is the symmetric mean L2 nearest-neighbor distance
reported at x1000 scale; F1 uses closed distance thresholds; normal
consistency is the symmetric mean absolute cosine between matched
normals. Every report records its sample count and seed.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import EmptyInput, MissingNormals, NoArea
from .model import PointCloud, TriangleMesh

CHAMFER_SCALE = 1e3


@dataclass
class MetricReport:
    cd: float        # x1000 symmetric mean-L2 chamfer
    f1_0005: float
    f1_001: float
    nc: float
    sample_count: int
    seed: int

    def __post_init__(self):
        if self.cd < 0:
            raise ValueError("chamfer distance must be nonnegative")
        for name in ("f1_0005", "f1_001", "nc"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name}={v} outside [0, 1]")

    def lines(self):
        return [f"cd_x1000={self.cd:.9g}",
                f"f1_0005={self.f1_0005:.9g}",
                f"f1_001={self.f1_001:.9g}",
                f"nc={self.nc:.9g}",
                f"samples={self.sample_count}",
                f"seed={self.seed}"]


def sample_mesh(mesh: TriangleMesh, n: int, seed: int) -> PointCloud:
    """n area-uniform surface samples, each carrying its face's unit normal."""
    if n <= 0:
        raise ValueError("sample count must be positive")
    v, f = mesh.vertices, mesh.faces
    if f.shape[0] == 0:
        raise NoArea("mesh has no faces")
    cross = np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]])
    double_area = np.linalg.norm(cross, axis=1)
    total = double_area.sum()
    if total <= 0:
        raise NoArea("mesh has no face with positive area")

    rng = np.random.default_rng(seed)
    face_pick = rng.choice(f.shape[0], size=n, p=double_area / total)
    # square-root trick: uniform density over each triangle
    r1 = np.sqrt(rng.random(n))
    r2 = rng.random(n)
    a, b, c = v[f[face_pick, 0]], v[f[face_pick, 1]], v[f[face_pick, 2]]
    pts = (1.0 - r1)[:, None] * a + (r1 * (1.0 - r2))[:, None] * b + (r1 * r2)[:, None] * c
    normals = cross[face_pick] / double_area[face_pick][:, None]
    return PointCloud(pts, normals)


def _matches(a: PointCloud, b: PointCloud, what, workers):
    """(distance, index) of each point's nearest neighbour in the other
    cloud: a to b, then b to a."""
    if len(a) == 0 or len(b) == 0:
        raise EmptyInput(f"{what} of an empty set")
    return (cKDTree(b.points).query(a.points, workers=workers),
            cKDTree(a.points).query(b.points, workers=workers))


def _chamfer(ab, ba):
    return CHAMFER_SCALE * (float(ab[0].mean()) + float(ba[0].mean()))


def _f1(ab, ba, tau):
    precision = float((ab[0] <= tau).mean())
    recall = float((ba[0] <= tau).mean())
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _nc(a, b, ab, ba):
    if not a.has_normals or not b.has_normals:
        raise MissingNormals("both clouds must carry normals")

    def directional(src, dst, idx):
        dots = np.einsum("ij,ij->i", src.normals, dst.normals[idx])
        return float(np.abs(dots).mean())

    return 0.5 * (directional(a, b, ab[1]) + directional(b, a, ba[1]))


def evaluate(reconstructed: PointCloud, reference: PointCloud,
             sample_count: int, seed: int, workers=1) -> MetricReport:
    """Full report between two sampled/loaded clouds; one nearest-neighbour
    match per direction serves every metric."""
    ab, ba = _matches(reconstructed, reference, "chamfer distance", workers)
    return MetricReport(
        cd=_chamfer(ab, ba),
        f1_0005=_f1(ab, ba, 0.005),
        f1_001=_f1(ab, ba, 0.01),
        nc=_nc(reconstructed, reference, ab, ba),
        sample_count=sample_count,
        seed=seed)
