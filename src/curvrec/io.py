"""Point cloud and mesh file I/O in plain interchange formats.

Supported cloud inputs, chosen by file suffix: whitespace XYZ (3 or 6
columns), PLY (ascii or binary little-endian, float vertex properties),
and OBJ ``v`` records. A malformed file raises ParseError or
UnsupportedFormat naming the file and, for text records, the line.
Meshes are written as OBJ; floats use shortest round-trip repr so a
write/read cycle is lossless.
"""

import os
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import ParseError, UnsupportedFormat
from .model import PointCloud, TriangleMesh


def _records(fh):
    """(line number, byte tokens) of each line of a binary file, skipping
    blank lines and lines whose first token starts with '#'."""
    for lineno, line in enumerate(fh, start=1):
        tokens = line.split()
        if tokens and not tokens[0].startswith(b"#"):
            yield lineno, tokens


def _numbers(tokens, path, lineno, kind=float):
    """kind(token) for each token; a token that is not one is a ParseError."""
    try:
        return [kind(t) for t in tokens]
    except ValueError as exc:
        raise ParseError(f"{path}:{lineno}: {exc}") from exc


def _obj_vertex(tokens, path, lineno):
    """Coordinates of an OBJ `v x y z [w]` record."""
    if len(tokens) < 4:
        raise ParseError(f"{path}:{lineno}: vertex record needs 3 coordinates")
    return _numbers(tokens[1:4], path, lineno)


def read_point_cloud(path) -> PointCloud:
    """Read all point records in file order; normals kept when present.

    The suffix (.xyz, .ply or .obj, any case) picks the reader.
    """
    suffix = Path(path).suffix.lower()
    if suffix not in _CLOUD_READERS:
        raise UnsupportedFormat(f"cannot infer cloud format from extension {suffix!r}")
    return _CLOUD_READERS[suffix](path)


def _finish_cloud(points, normals, path):
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    nrm = None
    if normals is not None:
        nrm = np.asarray(normals, dtype=np.float64).reshape(-1, 3)
        lengths = np.linalg.norm(nrm, axis=1)
        if np.any(lengths <= 0):
            raise ParseError(f"{path}: zero-length normal in record "
                             f"{int(np.flatnonzero(lengths <= 0)[0])}")
        nrm = nrm / lengths[:, None]
    try:
        return PointCloud(pts, nrm)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _read_xyz(path) -> PointCloud:
    points, normals = [], []
    arity = None
    with open(path, "rb") as fh:
        for lineno, tokens in _records(fh):
            if arity is None:
                if len(tokens) not in (3, 6):
                    raise ParseError(f"{path}:{lineno}: expected 3 or 6 values, got {len(tokens)}")
                arity = len(tokens)
            if len(tokens) != arity:
                raise ParseError(f"{path}:{lineno}: expected {arity} values, got {len(tokens)}")
            vals = _numbers(tokens, path, lineno)
            points.append(vals[:3])
            if arity == 6:
                normals.append(vals[3:])
    return _finish_cloud(points, normals if normals else None, path)


def _read_obj_points(path) -> PointCloud:
    with open(path, "rb") as fh:
        points = [_obj_vertex(tokens, path, lineno)
                  for lineno, tokens in _records(fh) if tokens[0] == b"v"]
    return _finish_cloud(points, None, path)


_PLY_FLOAT_TYPES = {"float": "<f4", "float32": "<f4", "double": "<f8", "float64": "<f8"}
_PLY_ENCODINGS = {b"ascii": False, b"binary_little_endian": True}
# fewest tokens each header keyword needs; other keywords are ignored
_PLY_FIELDS = {b"format": 2, b"element": 3, b"property": 3}


def _parse_ply_header(records, path):
    """Consume the header records; returns (is_binary, elements), each
    element a (name, count, [(property name, type)]) triple."""
    if next(records, (0, None))[1] != [b"ply"]:
        raise ParseError(f"{path}: missing 'ply' magic at byte 0")
    is_binary = None
    elements = []
    for lineno, tokens in records:
        key = tokens[0]
        if key == b"end_header":
            break
        if key not in _PLY_FIELDS:
            continue
        if len(tokens) < _PLY_FIELDS[key]:
            raise ParseError(f"{path}:{lineno}: incomplete {key.decode()} line")
        text = [t.decode("ascii", "replace") for t in tokens[1:]]
        if key == b"format":
            if tokens[1] not in _PLY_ENCODINGS:
                raise UnsupportedFormat(f"{path}: unsupported PLY format {text[0]!r}")
            is_binary = _PLY_ENCODINGS[tokens[1]]
        elif key == b"element":
            (count,) = _numbers(tokens[2:3], path, lineno, int)
            if count < 0:
                raise ParseError(f"{path}:{lineno}: negative element count {count}")
            elements.append((text[0], count, []))
        else:
            if not elements:
                raise ParseError(f"{path}:{lineno}: property before element")
            elements[-1][2].append((text[-1], text[0]))
    else:
        raise ParseError(f"{path}: header ended before end_header")
    if is_binary is None:
        raise ParseError(f"{path}: header has no format line")
    return is_binary, elements


def _read_ply(path) -> PointCloud:
    with open(path, "rb") as fh:
        records = _records(fh)
        is_binary, elements = _parse_ply_header(records, path)
        if not elements or elements[0][0] != "vertex":
            raise UnsupportedFormat(f"{path}: first PLY element must be 'vertex'")
        _, count, props = elements[0]
        names = [name for name, _ in props]
        for name, ptype in props:
            if ptype not in _PLY_FLOAT_TYPES:
                raise UnsupportedFormat(
                    f"{path}: vertex property {name!r} has non-float type {ptype!r}")
        if len(set(names)) != len(names):
            raise ParseError(f"{path}: vertex element repeats a property name")
        for axis in ("x", "y", "z"):
            if axis not in names:
                raise ParseError(f"{path}: vertex element lacks property {axis!r}")
        has_normals = all(n in names for n in ("nx", "ny", "nz"))

        dtype = np.dtype([(name, _PLY_FLOAT_TYPES[ptype]) for name, ptype in props])
        # a binary record takes dtype.itemsize bytes, an ascii one at least one per value
        need = count * (dtype.itemsize if is_binary else len(props))
        offset = fh.tell()
        left = os.fstat(fh.fileno()).st_size - offset
        if need > left:
            raise ParseError(f"{path}: vertex data truncated at byte {offset + left} "
                             f"({count} records need {need} bytes)")
        if is_binary:
            cols = np.frombuffer(fh.read(need), dtype=dtype, count=count)
        else:
            rows = []
            for lineno, tokens in islice(records, count):
                if len(tokens) != len(props):
                    raise ParseError(f"{path}:{lineno}: vertex record has {len(tokens)} "
                                     f"values, expected {len(props)}")
                rows.append(_numbers(tokens, path, lineno))
            if len(rows) != count:
                raise ParseError(
                    f"{path}: vertex data truncated after {len(rows)} of {count} records")
            table = np.asarray(rows, dtype=np.float64).reshape(count, len(props))
            cols = {name: table[:, k] for k, name in enumerate(names)}

    normals = np.column_stack([cols[n] for n in ("nx", "ny", "nz")]) if has_normals else None
    return _finish_cloud(np.column_stack([cols[a] for a in ("x", "y", "z")]), normals, path)


_CLOUD_READERS = {".xyz": _read_xyz, ".ply": _read_ply, ".obj": _read_obj_points}


# Rows are converted to Python numbers per block: a whole mesh as Python
# lists would raise a run's peak memory by tens of MB.
_WRITE_BLOCK = 8192


def _rows(array):
    """Rows of a 2-D array as tuples of Python numbers (floats print as
    their shortest round-trip text with %r)."""
    for start in range(0, len(array), _WRITE_BLOCK):
        yield from map(tuple, array[start:start + _WRITE_BLOCK].tolist())


def write_point_cloud(cloud: PointCloud, path) -> None:
    """Write an XYZ text file (6 columns when the cloud carries normals)."""
    rows = cloud.points if not cloud.has_normals else np.hstack([cloud.points, cloud.normals])
    line = " ".join(["%r"] * rows.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.writelines(line % row for row in _rows(rows))


def write_mesh(mesh: TriangleMesh, path) -> None:
    """Write OBJ: `v x y z` lines, then `f i j k` lines with 1-based indices."""
    with open(path, "w") as fh:
        fh.writelines("v %r %r %r\n" % v for v in _rows(mesh.vertices))
        fh.writelines("f %d %d %d\n" % (a + 1, b + 1, c + 1) for a, b, c in _rows(mesh.faces))


def read_mesh(path) -> TriangleMesh:
    """Read an OBJ mesh (v/f records only; the inverse of write_mesh)."""
    vertices, faces = [], []
    with open(path, "rb") as fh:
        for lineno, tokens in _records(fh):
            if tokens[0] == b"v":
                vertices.append(_obj_vertex(tokens, path, lineno))
            elif tokens[0] == b"f":
                if len(tokens) != 4:
                    raise ParseError(f"{path}:{lineno}: only triangle faces are supported")
                corners = _numbers([t.split(b"/")[0] for t in tokens[1:]], path, lineno, int)
                faces.append([c - 1 for c in corners])
    try:
        return TriangleMesh(np.asarray(vertices, dtype=np.float64).reshape(-1, 3),
                            np.asarray(faces, dtype=np.int64).reshape(-1, 3))
    except (ValueError, OverflowError) as exc:  # OverflowError: index beyond int64
        raise ParseError(f"{path}: {exc}") from exc
