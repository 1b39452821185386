"""Exception types raised across the reconstruction pipeline."""


class ReconstructionError(Exception):
    """Base class for all pipeline errors."""


class EmptyCloud(ReconstructionError):
    """Point cloud has no points."""


class DegenerateExtent(ReconstructionError):
    """Bounding box has zero diagonal (all points coincident), or its extent,
    reciprocal extent or center overflows float64."""


class FarOutlier(ReconstructionError):
    """A few far points squash the rest of the normalized cloud under one coarse cell."""


class ParseError(ReconstructionError):
    """Malformed cloud/mesh file; message carries the line or byte offset."""


class UnsupportedFormat(ReconstructionError):
    """File format or variant outside the supported set."""


class EmptyInput(ReconstructionError):
    """Operation requires a non-empty collection."""


class NoCurvatureSamples(ReconstructionError):
    """Every query region had fewer than 3 points; no curvature statistics."""


class NotCoarseVertex(ReconstructionError):
    """Refinement seed is not a coarse vertex of the lattice."""


class MissingCoarseValue(ReconstructionError):
    """An evaluated site, a stride site or a written one, has no value."""


class EmptyMesh(ReconstructionError):
    """Marching cubes crossed no cell: no site reads below the offset level."""


class EmptyField(ReconstructionError):
    """Distance field is empty or not fully populated."""


class NoArea(ReconstructionError):
    """Mesh has no face with positive area; cannot sample its surface."""


class MissingNormals(ReconstructionError):
    """Normal consistency requires normals on both point sets."""
