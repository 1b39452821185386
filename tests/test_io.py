import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvrec import cli
from curvrec.errors import ParseError, ReconstructionError, UnsupportedFormat
from curvrec.io import (_WRITE_BLOCK, _bulk_xyz, _read_xyz_records, read_mesh,
                        read_point_cloud, write_mesh, write_point_cloud)
from curvrec.model import PointCloud, TriangleMesh


def test_xyz_basic(tmp_path):
    p = tmp_path / "a.xyz"
    p.write_text("0 0 0\n1 2 3\n")
    cloud = read_point_cloud(p)
    assert len(cloud) == 2
    assert np.allclose(cloud.points[1], [1, 2, 3])
    assert not cloud.has_normals


def test_xyz_with_normals_and_errors(tmp_path):
    p = tmp_path / "b.xyz"
    p.write_text("0 0 0 0 0 1\n1 0 0 1 0 0\n")
    cloud = read_point_cloud(p)
    assert cloud.has_normals
    assert np.allclose(cloud.normals[0], [0, 0, 1])

    bad = tmp_path / "c.xyz"
    bad.write_text("1 2\n")
    with pytest.raises(ParseError):
        read_point_cloud(bad)
    mixed = tmp_path / "d.xyz"
    mixed.write_text("0 0 0\n1 2 3 4 5 6\n")
    with pytest.raises(ParseError):
        read_point_cloud(mixed)
    nonnum = tmp_path / "e.xyz"
    nonnum.write_text("a b c\n")
    with pytest.raises(ParseError):
        read_point_cloud(nonnum)


def test_xyz_normals_of_extreme_magnitude(tmp_path):
    # their squares overflow or underflow, yet they point somewhere
    p = tmp_path / "n.xyz"
    p.write_text("0 0 0 1e200 1e200 0\n1 0 0 0 -5e-324 0\n")
    cloud = read_point_cloud(p)
    assert np.allclose(cloud.normals, [[2 ** -0.5, 2 ** -0.5, 0], [0, -1, 0]])
    p.write_text("0 0 0 0 0 0\n")
    with pytest.raises(ParseError, match="zero-length normal in record 0"):
        read_point_cloud(p)


def test_ply_ascii_with_normals(tmp_path):
    p = tmp_path / "one.ply"
    p.write_text("ply\nformat ascii 1.0\nelement vertex 1\n"
                 "property float x\nproperty float y\nproperty float z\n"
                 "property float nx\nproperty float ny\nproperty float nz\n"
                 "end_header\n0 0 1 0 0 1\n")
    cloud = read_point_cloud(p)
    assert len(cloud) == 1
    assert np.allclose(cloud.points[0], [0, 0, 1])
    assert np.allclose(cloud.normals[0], [0, 0, 1])


def test_ply_truncated(tmp_path):
    p = tmp_path / "trunc.ply"
    p.write_text("ply\nformat ascii 1.0\nelement vertex 10\n"
                 "property float x\nproperty float y\nproperty float z\n"
                 "end_header\n0 0 0\n1 1 1\n2 2 2\n")
    with pytest.raises(ParseError):
        read_point_cloud(p)


def test_ply_binary_le_roundtrip(tmp_path):
    pts = np.array([[0.25, -1.5, 3.0], [7.0, 0.125, -2.0]], dtype=np.float32)
    p = tmp_path / "bin.ply"
    header = ("ply\nformat binary_little_endian 1.0\nelement vertex 2\n"
              "property float x\nproperty float y\nproperty float z\nend_header\n")
    p.write_bytes(header.encode() + pts.tobytes())
    cloud = read_point_cloud(p)
    assert cloud.points.shape == (2, 3)
    assert np.allclose(cloud.points, pts)

    trunc = tmp_path / "bin_trunc.ply"
    trunc.write_bytes(header.encode() + pts.tobytes()[:-4])
    with pytest.raises(ParseError):
        read_point_cloud(trunc)


def test_ply_binary_double_and_extra_float_props(tmp_path):
    p = tmp_path / "d.ply"
    header = ("ply\nformat binary_little_endian 1.0\nelement vertex 1\n"
              "property double x\nproperty double y\nproperty double z\n"
              "property double quality\nend_header\n")
    p.write_bytes(header.encode() + struct.pack("<dddd", 1.0, 2.0, 3.0, 9.0))
    cloud = read_point_cloud(p)
    assert np.allclose(cloud.points, [[1, 2, 3]])


def test_ply_rejects_nonfloat_vertex_props(tmp_path):
    p = tmp_path / "u.ply"
    p.write_text("ply\nformat ascii 1.0\nelement vertex 1\n"
                 "property float x\nproperty float y\nproperty float z\n"
                 "property uchar red\nend_header\n0 0 0 255\n")
    with pytest.raises(UnsupportedFormat):
        read_point_cloud(p)


def test_obj_points(tmp_path):
    p = tmp_path / "pts.obj"
    p.write_text("# comment\nv 1 2 3\nv 4 5 6\nf 1 2 1\n")
    cloud = read_point_cloud(p)
    assert len(cloud) == 2


def test_format_detection(tmp_path):
    with pytest.raises(UnsupportedFormat):
        read_point_cloud(tmp_path / "x.unknown")
    p = tmp_path / "f.XYZ"
    p.write_text("0 0 0\n")
    assert len(read_point_cloud(p)) == 1


def test_write_mesh_single_triangle(tmp_path):
    mesh = TriangleMesh(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float),
                        np.array([[0, 1, 2]]))
    p = tmp_path / "tri.obj"
    write_mesh(mesh, p)
    lines = p.read_text().splitlines()
    assert len([l for l in lines if l.startswith("v ")]) == 3
    assert lines[-1] == "f 1 2 3"


def test_write_mesh_empty(tmp_path):
    p = tmp_path / "empty.obj"
    write_mesh(TriangleMesh(), p)
    assert p.read_text() == ""
    back = read_mesh(p)
    assert back.num_vertices == 0 and back.num_faces == 0


# Values whose shortest round-trip text is easy to get wrong.
_AWKWARD = [[1e-05, -0.0, 0.1 + 0.2], [1e16, 5e-324, 1.0]]
_AWKWARD_TEXT = ["1e-05 -0.0 0.30000000000000004", "1e+16 5e-324 1.0"]


def test_writers_emit_shortest_round_trip_text(tmp_path):
    mesh_path, cloud_path = tmp_path / "m.obj", tmp_path / "c.xyz"
    write_mesh(TriangleMesh(np.array(_AWKWARD + [[0.0, 2.5, -3.0]]),
                            np.array([[0, 1, 2], [2, 1, 0]])), mesh_path)
    assert mesh_path.read_text() == (
        f"v {_AWKWARD_TEXT[0]}\nv {_AWKWARD_TEXT[1]}\nv 0.0 2.5 -3.0\n"
        "f 1 2 3\nf 3 2 1\n")
    write_point_cloud(PointCloud(np.array(_AWKWARD),
                                 np.array([[1.0, -0.0, 5e-324], [0.6, 0.8, 1e-05]])),
                      cloud_path)
    assert cloud_path.read_text() == (
        f"{_AWKWARD_TEXT[0]} 1.0 -0.0 5e-324\n{_AWKWARD_TEXT[1]} 0.6 0.8 1e-05\n")
    write_point_cloud(PointCloud(np.array(_AWKWARD)), cloud_path)
    assert cloud_path.read_text() == f"{_AWKWARD_TEXT[0]}\n{_AWKWARD_TEXT[1]}\n"


def test_writers_match_per_row_text_across_blocks(tmp_path):
    # the writers format a block of rows per call; rows on either side of
    # a block boundary print as they would one at a time
    n = _WRITE_BLOCK + 3
    rng = np.random.default_rng(2)
    verts = rng.normal(size=(n, 3))
    faces = rng.integers(0, n, size=(n, 3))
    mesh_path, cloud_path = tmp_path / "m.obj", tmp_path / "c.xyz"
    write_mesh(TriangleMesh(verts, faces), mesh_path)
    assert mesh_path.read_text() == "".join(
        ["v %r %r %r\n" % tuple(v) for v in verts.tolist()]
        + ["f %d %d %d\n" % tuple(f) for f in (faces + 1).tolist()])
    write_point_cloud(PointCloud(verts), cloud_path)
    assert cloud_path.read_text() == "".join("%r %r %r\n" % tuple(v) for v in verts.tolist())


def test_mesh_roundtrip_random(tmp_path):
    rng = np.random.default_rng(9)
    verts = rng.normal(size=(40, 3)) * 1.7
    faces = rng.integers(0, 40, size=(60, 3))
    faces = faces[~((faces[:, 0] == faces[:, 1]) & (faces[:, 1] == faces[:, 2]))]
    mesh = TriangleMesh(verts, faces)
    p = tmp_path / "rt.obj"
    write_mesh(mesh, p)
    back = read_mesh(p)
    assert np.array_equal(back.faces, mesh.faces)
    # shortest-repr floats survive the text round trip exactly
    assert np.array_equal(back.vertices, mesh.vertices)


def test_cloud_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    nrm = rng.normal(size=(30, 3))
    nrm /= np.linalg.norm(nrm, axis=1)[:, None]
    cloud = PointCloud(rng.normal(size=(30, 3)), nrm)
    p = tmp_path / "c.xyz"
    write_point_cloud(cloud, p)
    back = read_point_cloud(p)
    assert np.array_equal(back.points, cloud.points)
    assert np.abs(back.normals - cloud.normals).max() < 1e-12


_XYZ_PROPS = b"property float x\nproperty float y\nproperty float z\n"


def ply_bytes(fmt, vertex, props=_XYZ_PROPS, body=b"0 0 0\n"):
    """A PLY file from its format and vertex element lines."""
    return b"ply\n" + fmt + b"\n" + vertex + b"\n" + props + b"end_header\n" + body


_ASCII, _BINARY = b"format ascii 1.0", b"format binary_little_endian 1.0"

# name -> (file name, bytes, message the ParseError must carry)
_HOSTILE = {
    "ply-format-without-value": ("h.ply", ply_bytes(b"format", b"element vertex 1"),
                                 r"h\.ply:2: incomplete format"),
    "ply-element-without-count": ("h.ply", ply_bytes(_ASCII, b"element vertex"),
                                  r"h\.ply:3: incomplete element"),
    "ply-non-integer-count": ("h.ply", ply_bytes(_ASCII, b"element vertex abc"),
                              r"h\.ply:3: .*'abc'"),
    "ply-bare-property": ("h.ply", ply_bytes(_ASCII, b"element vertex 1",
                                             props=_XYZ_PROPS + b"property\n"),
                          r"h\.ply:7: incomplete property"),
    "ply-binary-negative-count": ("h.ply", ply_bytes(_BINARY, b"element vertex -2", body=b""),
                                  r"h\.ply:3: negative element count"),
    "ply-binary-huge-count": ("h.ply", ply_bytes(_BINARY, b"element vertex 1000000000000",
                                                 body=bytes(12)),
                              r"h\.ply: vertex data truncated"),
    "ply-ascii-negative-count": ("h.ply", ply_bytes(_ASCII, b"element vertex -2"),
                                 r"h\.ply:3: negative element count"),
    "xyz-not-utf8": ("h.xyz", b"0 0 0\n1 \xff\xfe 2\n", r"h\.xyz:2: "),
    # bytes.split keeps \x1c-\x1f inside a token; np.loadtxt would split there
    "xyz-unit-separator": ("h.xyz", b"0\x1c1 2\n", r"h\.xyz:1: expected 3 or 6 values, got 2"),
    "obj-not-utf8": ("h.obj", b"v 0 0 0\nv 1 \xe9 2\n", r"h\.obj:2: "),
}


@pytest.mark.parametrize("case", sorted(_HOSTILE))
def test_hostile_cloud_files_raise_parse_error(tmp_path, case):
    name, raw, message = _HOSTILE[case]
    p = tmp_path / name
    p.write_bytes(raw)
    with pytest.raises(ParseError, match=message):
        read_point_cloud(p)
    if name.endswith(".obj"):
        with pytest.raises(ParseError, match=message):
            read_mesh(p)


def test_read_mesh_rejects_non_numeric_records(tmp_path):
    p = tmp_path / "m.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 1 2 x\n")
    with pytest.raises(ParseError, match=r"m\.obj:3: "):
        read_mesh(p)
    p.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 x\n")
    with pytest.raises(ParseError, match=r"m\.obj:4: "):
        read_mesh(p)


def test_records_skip_undecodable_comments_and_unknown_keywords(tmp_path):
    # Bytes are only parsed where a reader takes a value from them.
    p = tmp_path / "c.xyz"
    p.write_bytes(b"# caf\xe9\n0 0 0\n")
    assert len(read_point_cloud(p)) == 1
    p = tmp_path / "c.ply"
    p.write_bytes(ply_bytes(_ASCII, b"obj_info scanner \xff\nelement vertex 1"))
    assert np.array_equal(read_point_cloud(p).points, [[0, 0, 0]])


def test_cli_bad_ply_header_exits_with_read_error(tmp_path, capsys):
    bad = tmp_path / "bad.ply"
    bad.write_bytes(ply_bytes(b"format", b"element vertex 1"))
    code = cli.main(["reconstruct", "--input", str(bad), "--output", str(tmp_path / "o.obj")])
    assert code == 2
    assert "error[read]: " in capsys.readouterr().err


_VALID = {
    "v.xyz": b"0 0 0 0 0 1\n1.5 -2 3e-3 1 0 0\n",
    "v.obj": b"v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n",
    "ascii.ply": ply_bytes(_ASCII, b"element vertex 2", body=b"0 0 0\n1 2 3\n"),
    "binary.ply": ply_bytes(_BINARY, b"element vertex 2",
                            body=np.arange(6, dtype="<f4").tobytes()),
}


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(_VALID)), data=st.data())
def test_damaged_files_parse_or_raise_typed_errors(tmp_path_factory, name, data):
    raw = bytearray(_VALID[name])
    if data.draw(st.booleans(), label="truncate"):
        raw = raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        edits = st.tuples(st.integers(0, len(raw) - 1), st.integers(0, 255))
        for at, byte in data.draw(st.lists(edits, min_size=1, max_size=4), label="edits"):
            raw[at] = byte
    p = tmp_path_factory.getbasetemp() / name
    p.write_bytes(bytes(raw))
    for read in (read_point_cloud, read_mesh) if name.endswith(".obj") else (read_point_cloud,):
        try:
            read(p)
        except ReconstructionError:
            pass


def _outcome(read, path):
    """The cloud's exact bytes, or the ParseError message."""
    try:
        cloud = read(path)
    except ParseError as exc:
        return str(exc)
    return cloud.points.tobytes(), None if cloud.normals is None else cloud.normals.tobytes()


_NUMBER = st.floats(allow_nan=False, allow_infinity=False).map(repr) | st.sampled_from(
    ["0", "-0", "7", "+1.5", "1.", ".5", "-.25e-3", "1E+03", "2e-310"])


@st.composite
def xyz_files(draw):
    """Valid XYZ bytes: 3 or 6 numbers a line, tabs and runs of spaces, LF or
    CRLF, blank and whitespace-only lines, and '#' comment lines."""
    arity = draw(st.sampled_from([3, 6]))
    sep = st.sampled_from([" ", "\t", "  ", " \t", "\x0b", "\x0c"])
    end = draw(st.sampled_from(["\n", "\r\n"]))
    lines = []
    for row in draw(st.lists(st.lists(_NUMBER, min_size=arity, max_size=arity),
                             min_size=1, max_size=8)):
        lines += draw(st.lists(st.sampled_from(["", " ", "\t", "# note 1 2 3", "#"]),
                               max_size=2))
        text = row[0]
        for value in row[1:]:
            text += draw(sep) + value
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + text + draw(st.sampled_from(["", " "])))
    raw = end.join(lines) + draw(st.sampled_from(["", end]))
    return raw.encode()


@settings(max_examples=300, deadline=None)
@given(raw=xyz_files())
def test_bulk_xyz_parse_equals_records_reader(tmp_path_factory, raw):
    p = tmp_path_factory.getbasetemp() / "valid.xyz"
    p.write_bytes(raw)
    assert _outcome(read_point_cloud, p) == _outcome(_read_xyz_records, p)
    # the bulk parse takes every valid file without comment lines
    assert (_bulk_xyz(p) is None) == (b"#" in raw)


# Bytes where np.loadtxt and the records reader could disagree: separators
# only one of them splits on, a lone CR, underscores, inline comments, NUL.
_MUTATIONS = [b"\x1c", b"\x1d", b"\x1e", b"\x1f", b"_", b"#", b"\r", b"\x00", b"\x0b",
              b"\xc2\xa0", b"\xc2\x85", b"\xe2\x80\x83", b"\xa0", b" ", b"\n", b"e", b"-",
              b"nan", b"inf", b"0x1"]


@settings(max_examples=400, deadline=None)
@given(raw=xyz_files(), data=st.data())
def test_bulk_xyz_accepts_only_what_records_reader_accepts(tmp_path_factory, raw, data):
    raw = bytearray(raw)
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        breaks = [i for i, byte in enumerate(raw) if byte == ord("\n")]
        if breaks and data.draw(st.booleans(), label="at a line break"):
            at = data.draw(st.sampled_from(breaks), label="at")
        else:
            at = data.draw(st.integers(0, len(raw)), label="at")
        piece = data.draw(st.sampled_from(_MUTATIONS) | st.binary(min_size=1, max_size=2),
                          label="piece")
        cut = data.draw(st.integers(0, 1), label="replace")
        raw[at:at + cut] = piece
    p = tmp_path_factory.getbasetemp() / "mutated.xyz"
    p.write_bytes(bytes(raw))
    records = _outcome(_read_xyz_records, p)
    # what the bulk parse accepts the records reader accepts as the same
    # table, and every ParseError message is the records reader's
    if _bulk_xyz(p) is not None:
        assert not isinstance(records, str) or "finite" in records or "normal" in records
    assert _outcome(read_point_cloud, p) == records


@pytest.mark.parametrize("raw", [b"1 2 3\r4 5 6\n", b"0\x1c1 2\n", b"1 2 3\x1e4 5 6\n",
                                 b"1\xc2\xa02 3\n", b"1 2\xe2\x80\x833\n"])
def test_bulk_xyz_leaves_split_disagreements_to_records_reader(tmp_path, raw):
    # np.loadtxt would split these into other rows or values than bytes.split
    p = tmp_path / "d.xyz"
    p.write_bytes(raw)
    assert _bulk_xyz(p) is None
    assert _outcome(read_point_cloud, p) == _outcome(_read_xyz_records, p)
