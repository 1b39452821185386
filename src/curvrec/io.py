"""Point cloud and mesh file I/O in plain interchange formats.

Supported cloud inputs, chosen by file suffix: whitespace XYZ (3 or 6
columns), PLY (ascii or binary little-endian, float vertex properties),
and OBJ ``v`` records. XYZ is parsed in bulk by np.loadtxt; the records
reader reruns on any file the bulk parse does not take, so it alone
decides what is malformed. A malformed file raises ParseError or
UnsupportedFormat naming the file and, for text records, the line.
Meshes are written as OBJ; floats use shortest round-trip repr so a
write/read cycle is lossless.
"""

import os
import warnings
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
        if np.isfinite(nrm).all():  # else PointCloud names the non-finite value
            with np.errstate(over="ignore"):
                lengths = np.linalg.norm(nrm, axis=1)
            # the squares overflow or underflow at extreme magnitudes: such rows
            # are first divided by their largest component (the others by 1, exactly)
            odd = np.isinf(lengths) | ((lengths == 0) & (nrm != 0).any(axis=1))
            if odd.any():
                nrm = nrm / np.where(odd, np.abs(nrm).max(axis=1), 1.0)[:, None]
                lengths = np.linalg.norm(nrm, axis=1)
            if np.any(lengths <= 0):
                raise ParseError(f"{path}: zero-length normal in record "
                                 f"{int(np.flatnonzero(lengths <= 0)[0])}")
            nrm = nrm / lengths[:, None]
    try:
        return PointCloud(pts, nrm)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


# Bytes on which np.loadtxt splits tokens and lines as bytes.split and
# binary readline do: printable ASCII and ASCII whitespace. loadtxt also
# splits on \x1c-\x1f and on non-ASCII spaces, and ends a line at a lone \r.
_BULK_BYTES = bytes(range(0x20, 0x7f)) + b"\t\n\r\x0b\x0c"


def _bulk_xyz(path):
    """The (n >= 1, 3 | 6) table of an XYZ file that np.loadtxt reads as the
    records reader would, or None: then the records reader decides."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data.translate(None, _BULK_BYTES) or data.count(b"\r") != data.count(b"\r\n"):
        return None
    del data
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an empty file only warns
            table = np.loadtxt(path, dtype=np.float64, comments=None, ndmin=2)
    except Exception:
        return None
    return table if table.shape[0] >= 1 and table.shape[1] in (3, 6) else None


def _read_xyz(path) -> PointCloud:
    table = _bulk_xyz(path)
    if table is None:
        return _read_xyz_records(path)
    return _finish_cloud(table[:, :3], table[:, 3:] if table.shape[1] == 6 else None, path)


def _read_xyz_records(path) -> PointCloud:
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


def _blocks(array):
    """Consecutive blocks of _WRITE_BLOCK rows of a 2-D array."""
    for start in range(0, len(array), _WRITE_BLOCK):
        yield array[start:start + _WRITE_BLOCK]


def _lines(line, block):
    """Each row of a 2-D block through the %-format line, in one format
    call (floats print as their shortest round-trip text with %r)."""
    return line * len(block) % tuple(block.ravel().tolist())


def write_point_cloud(cloud: PointCloud, path) -> None:
    """Write an XYZ text file (6 columns when the cloud carries normals)."""
    rows = cloud.points if not cloud.has_normals else np.hstack([cloud.points, cloud.normals])
    line = " ".join(["%r"] * rows.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.writelines(_lines(line, block) for block in _blocks(rows))


def write_mesh(mesh: TriangleMesh, path) -> None:
    """Write OBJ: `v x y z` lines, then `f i j k` lines with 1-based indices."""
    with open(path, "w") as fh:
        fh.writelines(_lines("v %r %r %r\n", block) for block in _blocks(mesh.vertices))
        fh.writelines(_lines("f %d %d %d\n", block + 1) for block in _blocks(mesh.faces))


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
