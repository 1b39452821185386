"""Exception types raised across the reconstruction pipeline."""


class ReconstructionError(Exception):
    """Base class for all pipeline errors."""


class EmptyCloud(ReconstructionError):
    """Point cloud has no points."""


class DegenerateExtent(ReconstructionError):
    """Bounding box has zero diagonal (all points coincident)."""


class ParseError(ReconstructionError):
    """Malformed cloud/mesh file; message carries the line or byte offset."""


class UnsupportedFormat(ReconstructionError):
    """File format or variant outside the supported set."""


class EmptyInput(ReconstructionError):
    """Operation requires a non-empty collection."""


class NoCurvatureSamples(ReconstructionError):
    """Every query region had fewer than 3 points; no curvature statistics."""


class NotCoarseVertex(ReconstructionError):
    """Refinement seed is not an evaluated coarse vertex."""


class MissingCoarseValue(ReconstructionError):
    """Fill started before every coarse/refined site had a value."""


class EmptyField(ReconstructionError):
    """Distance field is empty or not fully populated."""


class NoArea(ReconstructionError):
    """Mesh has no face with positive area; cannot sample its surface."""


class MissingNormals(ReconstructionError):
    """Normal consistency requires normals on both point sets."""
