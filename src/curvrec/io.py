"""Point cloud and mesh file I/O in plain interchange formats.

Supported cloud inputs, chosen by file suffix: whitespace XYZ (3 or 6
columns), PLY (ascii or binary little-endian, float vertex properties),
and OBJ ``v`` records. XYZ is parsed in bulk: a first pass checks the
file's bytes and counts its records, and a second parses each block of
about _CHECK_BLOCK bytes of whole lines with np.loadtxt into arrays
allocated for those records, checking each block's normals as
_finish_cloud does a whole file's. The records reader reruns on any file
whose bytes, tokens or columns the bulk parse does not take, so it alone
decides what is malformed in form; a fault in the values gives its
error. A malformed file raises ParseError or UnsupportedFormat naming
the file and, for text records, the line.
Meshes are written as OBJ; floats use shortest round-trip repr so a
write/read cycle is lossless.
"""

import os
import re
import warnings
from array import array
from io import BytesIO
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


def read_point_cloud(path, normals=True) -> PointCloud:
    """Read all point records in file order; normals kept when present,
    unless normals is False: then they are checked as read and dropped,
    and the XYZ bulk parse holds one block of them at most.

    The suffix (.xyz, .ply or .obj, any case) picks the reader.
    """
    suffix = Path(path).suffix.lower()
    if suffix not in _CLOUD_READERS:
        raise UnsupportedFormat(f"cannot infer cloud format from extension {suffix!r}")
    cloud = _read_xyz(path, normals) if suffix == ".xyz" else _CLOUD_READERS[suffix](path)
    return cloud if normals or cloud.normals is None else PointCloud(cloud.points)


def _finish_cloud(points, normals, path):
    """The cloud of the records' points and normals; it owns the arrays it
    is given (the normals are divided in place), so callers pass their own."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    nrm = None
    if normals is not None:
        nrm = np.asarray(normals, dtype=np.float64).reshape(-1, 3)
        if np.isfinite(nrm).all():  # else PointCloud names the non-finite value
            _unit_normals(nrm, path)
    return _cloud(pts, nrm, path)


def _unit_normals(nrm, path, first=0):
    """Divide each row of the finite normals nrm by its length, in place. A
    zero-length row is a ParseError naming its record, first + its row."""
    with np.errstate(over="ignore"):
        lengths = np.linalg.norm(nrm, axis=1)
    # the squares overflow or underflow at extreme magnitudes: such rows
    # are first divided by their largest component (the others by 1, exactly)
    odd = np.isinf(lengths) | ((lengths == 0) & (nrm != 0).any(axis=1))
    if odd.any():
        nrm /= np.where(odd, np.abs(nrm).max(axis=1), 1.0)[:, None]
        lengths = np.linalg.norm(nrm, axis=1)
    if np.any(lengths <= 0):
        raise ParseError(f"{path}: zero-length normal in record "
                         f"{first + int(np.flatnonzero(lengths <= 0)[0])}")
    nrm /= lengths[:, None]


def _cloud(points, normals, path):
    """PointCloud(points, normals), its ValueError a ParseError."""
    try:
        return PointCloud(points, normals)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


# Bytes on which np.loadtxt splits tokens and lines as bytes.split and
# binary readline do: printable ASCII and ASCII whitespace. loadtxt also
# splits on \x1c-\x1f and on non-ASCII spaces, and ends a line at a lone \r.
_BULK_BYTES = bytes(range(0x20, 0x7f)) + b"\t\n\r\x0b\x0c"
# the whitespace within a line
_LINE_SPACE = b" \t\r\x0b\x0c"


# The bulk parse checks, then parses, a file's bytes this many at a time:
# the whole file as one bytes object would cost more than its size, since
# freeing it raises glibc's dynamic mmap threshold and keeps later arrays
# on the heap, and np.loadtxt's table of the whole file would take twice
# the points' bytes (the normals with them).
_CHECK_BLOCK = 1 << 20


# a line's leading ASCII whitespace other than LF, then '#' on a comment line
_LINE_START = re.compile(rb"[ \t\r\x0b\x0c]*(#?)")


def _header_end(block, comment):
    """Scan a block of a file's leading lines that are blank or whose first
    token starts with '#': (where the last line that starts in the block
    starts, 0 if none does, whether the block ends inside a comment line,
    whether such lines may go on into the next block)."""
    line = at = 0
    while True:
        if not comment:
            start = _LINE_START.match(block, at)
            at, comment = start.end(), bool(start.group(1))
            if at == len(block):
                return line, comment, True
            if not comment and block[at] != ord("\n"):
                return line, False, False  # the first record
        end = block.find(b"\n", at)
        if end < 0:
            return line, comment, True
        line = at = end + 1
        comment = False


def _check_xyz(path):
    """(bytes of the file's leading blank and '#' lines, records after them)
    when np.loadtxt would split the records' lines and tokens as the records
    reader does and no '#' follows, else None."""
    header, comment, more = 0, False, True
    records, fresh, at = 0, True, 0  # fresh: no token yet on the line the next block goes on with
    with open(path, "rb") as fh:
        while block := fh.read(_CHECK_BLOCK):
            if block.endswith(b"\r"):  # so a CR LF pair lies within one block
                block += fh.read(1)
            tokens = block.translate(None, _LINE_SPACE)
            if tokens.translate(None, _BULK_BYTES) or (
                    b"\r" in block and block.count(b"\r") != block.count(b"\r\n")):
                return None
            if more:
                body, comment, more = _header_end(block, comment)
                if body:
                    header = at + body
                tokens = block[body:].translate(None, _LINE_SPACE)
            if not more and tokens:
                if b"#" in tokens:
                    return None
                # tokens holds the lines' token bytes and line ends: a record
                # starts at each token byte after a line end, and at the first
                # byte unless it goes on with a line from the block before
                newline = np.frombuffer(tokens, dtype=np.uint8) == ord("\n")
                records += int(np.count_nonzero(newline[:-1] > newline[1:]))
                records += fresh and not newline[0]
                fresh = bool(newline[-1])
            at += len(block)
    return header, records


def _bulk_xyz(path, normals=True):
    """The cloud of an XYZ file that np.loadtxt reads as the records reader
    would, parsed a block of lines at a time, or None: then the records
    reader decides. The file's leading blank and '#' lines are skipped; a
    later '#' leaves the file to the records reader. Value faults raise the
    records reader's ParseError once every record has parsed: a non-finite
    normal, else the first zero-length normal, else a non-finite point."""
    checked = _check_xyz(path)
    if checked is None or not checked[1]:
        return None
    header, rows = checked
    # allocated once for the counted records: the blocks' points kept in a
    # list and concatenated at the end raised dense-sheets-c64's read peak
    # from 83.8-84.1 to 92.6-94.2 MB and its run's from 104.2 to 105.3 MB
    # (medians of six alternating runs, 2-core x86-64)
    points = np.empty((rows, 3))
    kept = None  # the normals, when the read keeps them
    zero = bad = None  # the first zero-length normal's ParseError, a non-finite normal
    at = arity = 0
    with open(path, "rb") as fh:
        fh.seek(header)
        while block := fh.read(_CHECK_BLOCK):
            block += fh.readline()  # whole lines
            if block.isspace():  # blank lines alone: loadtxt would warn
                continue
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    table = np.loadtxt(BytesIO(block), dtype=np.float64, comments=None,
                                       ndmin=2)
            except (ValueError, UserWarning):  # a token or row loadtxt does not take
                return None
            if not arity:
                arity = table.shape[1]
                kept = np.empty((rows, 3)) if arity == 6 and normals else None
            if arity not in (3, 6) or table.shape[1] != arity or at + len(table) > rows:
                return None
            if arity == 6:
                nrm = table[:, 3:]
                if not np.isfinite(nrm).all():
                    bad = nrm
                elif zero is None:
                    try:
                        _unit_normals(nrm, path, at)
                    except ParseError as exc:
                        zero = exc
                if kept is not None:
                    kept[at:at + len(table)] = nrm
            points[at:at + len(table)] = table[:, :3]
            at += len(table)
    if at != rows:
        return None
    if bad is None and zero is not None:
        raise zero
    # a non-finite normal gives PointCloud's error, as in _finish_cloud
    return _cloud(points, kept if bad is None else bad, path)


def _read_xyz(path, normals=True) -> PointCloud:
    cloud = _bulk_xyz(path, normals)
    return cloud if cloud is not None else _read_xyz_records(path)


def _read_xyz_records(path) -> PointCloud:
    points, normal_rows = [], []
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
                normal_rows.append(vals[3:])
    return _finish_cloud(points, normal_rows or None, path)


def _read_obj_points(path) -> PointCloud:
    """The OBJ's `v` records, collected in a typed array as read_mesh does."""
    coords = array("d")
    with open(path, "rb") as fh:
        for lineno, tokens in _records(fh):
            if tokens[0] == b"v":
                coords.extend(_obj_vertex(tokens, path, lineno))
    return _finish_cloud(np.frombuffer(coords), None, path)


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

    nrm = np.column_stack([cols[n] for n in ("nx", "ny", "nz")]) if has_normals else None
    return _finish_cloud(np.column_stack([cols[a] for a in ("x", "y", "z")]), nrm, path)


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
    """Write an XYZ text file (6 columns when the cloud carries normals).
    Points and normals are joined a block of rows at a time."""
    columns = (cloud.points, cloud.normals) if cloud.has_normals else (cloud.points,)
    line = " ".join(["%r"] * 3 * len(columns)) + "\n"
    with open(path, "w") as fh:
        fh.writelines(_lines(line, np.hstack([c[start:start + _WRITE_BLOCK] for c in columns]))
                      for start in range(0, len(cloud), _WRITE_BLOCK))


def _vertex_lines(block):
    """The `v x y z` lines of a block of vertices, as "v %r %r %r" prints
    them, with each distinct coordinate formatted once. Distinct means
    distinct bits, so -0.0 keeps its own text. Mesh coordinates repeat the
    lattice's plane values: sphere-c64's 373k coordinates hold 125k
    distinct values, and its vertex lines took 0.50 s per value and 0.22 s
    this way (2-core x86-64)."""
    bits, at = np.unique(np.ascontiguousarray(block).view(np.int64), return_inverse=True)
    text = np.array([repr(x) for x in bits.view(np.float64).tolist()], dtype=object)
    return "v %s %s %s\n" * len(block) % tuple(text[at.ravel()].tolist())


def write_mesh(mesh: TriangleMesh, path) -> None:
    """Write OBJ: `v x y z` lines, then `f i j k` lines with 1-based indices."""
    with open(path, "w") as fh:
        fh.writelines(_vertex_lines(block) for block in _blocks(mesh.vertices))
        fh.writelines(_lines("f %d %d %d\n", block + 1) for block in _blocks(mesh.faces))


def read_mesh(path) -> TriangleMesh:
    """Read an OBJ mesh (v/f records only; the inverse of write_mesh), into
    typed arrays: a Python list per record would take several times the mesh."""
    coords, corners = array("d"), array("q")
    try:
        with open(path, "rb") as fh:
            for lineno, tokens in _records(fh):
                if tokens[0] == b"v":
                    coords.extend(_obj_vertex(tokens, path, lineno))
                elif tokens[0] == b"f":
                    if len(tokens) != 4:
                        raise ParseError(f"{path}:{lineno}: only triangle faces are supported")
                    corners.extend(c - 1 for c in _numbers([t.split(b"/")[0] for t in tokens[1:]],
                                                           path, lineno, int))
        return TriangleMesh(np.frombuffer(coords).reshape(-1, 3),
                            np.frombuffer(corners, dtype=np.int64).reshape(-1, 3))
    except (ValueError, OverflowError) as exc:  # OverflowError: index beyond int64
        raise ParseError(f"{path}: {exc}") from exc
