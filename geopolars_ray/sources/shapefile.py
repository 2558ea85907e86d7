"""Pure-Python ESRI Shapefile reader/writer (.shp + .dbf), from the public
format specifications (ESRI Shapefile Technical Description; dBASE III
layout) — no GDAL in this environment.

`read_file` analogue for the reference's dominant binary format
(``py-geopolars/python/geopolars/io/file.py:15-119``). A shapefile is a
single .shp stream with a side .dbf attribute table — inherently one file,
so parsing happens on the driver and the result enters Ray as an in-memory
Dataset (shapefiles are side tables; the scale formats are parquet /
GeoJSONSeq).

Supported shapes: Null(0), Point(1), PolyLine(3), Polygon(5), MultiPoint(8)
— the same set the engine's data model covers. Polygon records are split by
ESRI ring winding (clockwise = exterior, counterclockwise = hole): one
exterior yields a Polygon with its holes, several exteriors yield a
MultiPolygon with each hole attached to the smallest containing exterior;
the writer re-winds rings to spec so round trips preserve the structure.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np
import pyarrow as pa

from geopolars_ray.geom import GeometryArray, decode_wkb, encode_wkb
from geopolars_ray.geom import kernels as K

_SHP_NULL, _SHP_POINT, _SHP_POLYLINE, _SHP_POLYGON, _SHP_MULTIPOINT = 0, 1, 3, 5, 8


def _signed_area(ring: list) -> float:
    a = np.asarray(ring, dtype=np.float64)
    if len(a) < 3:
        return 0.0
    x, y = a[:, 0], a[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _polygon_record(rings: list):
    """Map one .shp Polygon record's rings to Polygon or MultiPolygon.

    ESRI spec: exterior rings are CLOCKWISE (negative shoelace area), holes
    counterclockwise, ring order arbitrary. One exterior -> Polygon with its
    holes; several exteriors -> MultiPolygon, each hole attached to the
    SMALLEST exterior that holds every hole vertex inside or on its
    boundary (innermost — correct for nested island-in-lake geometries
    regardless of ring order, and for a hole touching its exterior).
    """
    from geopolars_ray.geom.strtree import PreparedPolygons

    areas = [_signed_area(r) for r in rings]
    ext = [r for r, a in zip(rings, areas) if a < 0]
    holes = [r for r, a in zip(rings, areas) if a >= 0]
    if len(ext) <= 1:
        # degenerate windings (all-CCW writers exist) keep the raw ring order
        ordered = (ext + holes) if ext else rings
        return ("polygon", ordered)
    ext_area = [abs(_signed_area(e)) for e in ext]
    parts = [[e] for e in ext]
    if not holes:
        return ("multipolygon", parts)
    # every hole vertex against every exterior, in one kernel call
    hv = np.concatenate([np.asarray(h, dtype=np.float64).reshape(-1, 2) for h in holes])
    parity, on = PreparedPolygons.from_polygons([[e] for e in ext]).parity_on(
        np.tile(hv[:, 0], len(ext)), np.tile(hv[:, 1], len(ext)), np.repeat(np.arange(len(ext)), len(hv)))
    held = (parity | on).reshape(len(ext), len(hv))
    lo = 0
    for h in holes:
        hi = lo + len(h)
        candidates = np.flatnonzero(held[:, lo:hi].all(axis=1)).tolist()
        owner = min(candidates, key=lambda j: ext_area[j]) if candidates else 0
        parts[owner].append(h)
        lo = hi
    return ("multipolygon", parts)


def _read_shp(path: str) -> list:
    """Parse .shp records -> GeometryArray.from_pylist elements."""
    buf = Path(path).read_bytes()
    if len(buf) < 100 or struct.unpack(">i", buf[0:4])[0] != 9994:
        raise ValueError(f"{path!r} is not a shapefile (bad magic)")
    out = []
    pos = 100
    n = len(buf)
    while pos + 8 <= n:
        (_, content_words) = struct.unpack(">ii", buf[pos : pos + 8])
        pos += 8
        end = pos + content_words * 2
        shape_type = struct.unpack("<i", buf[pos : pos + 4])[0]
        if shape_type == _SHP_NULL:
            out.append(None)
        elif shape_type == _SHP_POINT:
            x, y = struct.unpack("<dd", buf[pos + 4 : pos + 20])
            out.append(("point", (x, y)))
        elif shape_type == _SHP_MULTIPOINT:
            num_points = struct.unpack("<i", buf[pos + 36 : pos + 40])[0]
            pts = np.frombuffer(buf, dtype="<f8", count=num_points * 2, offset=pos + 40).reshape(-1, 2)
            out.append(("multipoint", [tuple(p) for p in pts]))
        elif shape_type in (_SHP_POLYLINE, _SHP_POLYGON):
            num_parts, num_points = struct.unpack("<ii", buf[pos + 36 : pos + 44])
            parts = np.frombuffer(buf, dtype="<i4", count=num_parts, offset=pos + 44)
            pts_off = pos + 44 + 4 * num_parts
            pts = np.frombuffer(buf, dtype="<f8", count=num_points * 2, offset=pts_off).reshape(-1, 2)
            bounds = np.append(parts, num_points)
            rings = [[tuple(p) for p in pts[bounds[i] : bounds[i + 1]]] for i in range(num_parts)]
            if shape_type == _SHP_POLYGON:
                out.append(_polygon_record(rings))
            elif num_parts == 1:
                out.append(("linestring", rings[0]))
            else:
                out.append(("multilinestring", rings))
        else:
            raise ValueError(f"unsupported shape type {shape_type}")
        pos = end
    return out


def _read_dbf(path: str) -> pa.Table:
    """Parse a dBASE III .dbf attribute table."""
    buf = Path(path).read_bytes()
    n_rec = struct.unpack("<i", buf[4:8])[0]
    header_size, record_size = struct.unpack("<hh", buf[8:12])
    fields = []
    pos = 32
    while pos < header_size - 1 and buf[pos] != 0x0D:
        desc = buf[pos : pos + 32]
        name = desc[0:11].split(b"\x00")[0].decode("ascii", "replace")
        ftype = chr(desc[11])
        flen = desc[16]
        fdec = desc[17]
        fields.append((name, ftype, flen, fdec))
        pos += 32
    cols: dict[str, list] = {f[0]: [] for f in fields}
    pos = header_size
    for _ in range(n_rec):
        rec = buf[pos : pos + record_size]
        pos += record_size
        if not rec or rec[0:1] == b"*":  # deleted
            continue
        off = 1
        for name, ftype, flen, fdec in fields:
            raw = rec[off : off + flen]
            off += flen
            s = raw.decode("latin-1").strip()
            if ftype in ("N", "F"):
                if not s:
                    cols[name].append(None)
                elif ftype == "N" and fdec == 0:
                    cols[name].append(int(s))
                else:
                    cols[name].append(float(s))
            elif ftype == "L":
                cols[name].append(None if s in ("", "?") else s in ("Y", "y", "T", "t"))
            else:  # C, D, and anything else as text
                cols[name].append(s)
    return pa.table({k: pa.array(v) for k, v in cols.items()})


# WKT1 strings for the CRS the engine's own `to_crs` family covers most
# (GDAL/ESRI-compatible; written to the .prj sidecar)
_PRJ_WKT = {
    "EPSG:4326": (
        'GEOGCS["WGS 84",DATUM["WGS_1984",SPHEROID["WGS 84",6378137,'
        '298.257223563]],PRIMEM["Greenwich",0],UNIT["degree",'
        '0.0174532925199433],AUTHORITY["EPSG","4326"]]'),
    "EPSG:3857": (
        'PROJCS["WGS 84 / Pseudo-Mercator",GEOGCS["WGS 84",DATUM["WGS_1984",'
        'SPHEROID["WGS 84",6378137,298.257223563]],PRIMEM["Greenwich",0],'
        'UNIT["degree",0.0174532925199433]],PROJECTION["Mercator_1SP"],'
        'PARAMETER["central_meridian",0],PARAMETER["scale_factor",1],'
        'PARAMETER["false_easting",0],PARAMETER["false_northing",0],'
        'UNIT["metre",1],AUTHORITY["EPSG","3857"]]'),
}


def crs_from_prj_wkt(wkt: str) -> str | None:
    """CRS from .prj WKT text: the TOP-LEVEL ``AUTHORITY["EPSG", n]``
    (the last authority, accepted only when nothing but closing brackets
    follows it — a nested datum or unit-of-measure authority must not be
    promoted to the dataset CRS); ESRI-style WKT without authority falls
    back to the WGS84 name heuristic (the most common authority-less
    case)."""
    import re

    last = None
    for m in re.finditer(r'AUTHORITY\s*\[\s*"EPSG"\s*,\s*"?(\d+)"?\s*\]', wkt):
        last = m
    if last is not None and re.fullmatch(r"[\s\]\)]*", wkt[last.end():]):
        return f"EPSG:{last.group(1)}"
    head = wkt.lstrip()[:7].upper()
    if head.startswith("GEOGCS") and ("WGS_1984" in wkt or "WGS 84" in wkt):
        return "EPSG:4326"
    return None


def read_prj_crs(shp_path: str) -> str | None:
    """CRS sniff from the .prj sidecar (see :func:`crs_from_prj_wkt`)."""
    prj = Path(shp_path).with_suffix(".prj")
    if not prj.exists():
        return None
    try:
        return crs_from_prj_wkt(prj.read_text(errors="replace"))
    except OSError:
        return None


_GEOGCS_WGS84 = ('GEOGCS["WGS 84",DATUM["WGS_1984",SPHEROID["WGS 84",'
                 '6378137,298.257223563]],PRIMEM["Greenwich",0],'
                 'UNIT["degree",0.0174532925199433]]')


def _wkt_for_crs(crs: str | None) -> str | None:
    """WKT1 for the writable CRS family: the fixed table plus templated
    WGS84 UTM zones (EPSG:326xx north / 327xx south, zones 1-60) — the
    codes the engine's own ``to_crs`` emits."""
    if crs in _PRJ_WKT:
        return _PRJ_WKT[crs]
    if isinstance(crs, str) and crs.upper().startswith("EPSG:"):
        try:
            code = int(crs.split(":", 1)[1])
        except ValueError:
            return None
        base = code // 100
        zone = code % 100
        if base in (326, 327) and 1 <= zone <= 60:
            south = base == 327
            cm = -183 + 6 * zone
            return (
                f'PROJCS["WGS 84 / UTM zone {zone}{"S" if south else "N"}",'
                f"{_GEOGCS_WGS84},"
                'PROJECTION["Transverse_Mercator"],'
                'PARAMETER["latitude_of_origin",0],'
                f'PARAMETER["central_meridian",{cm}],'
                'PARAMETER["scale_factor",0.9996],'
                'PARAMETER["false_easting",500000],'
                f'PARAMETER["false_northing",{10000000 if south else 0}],'
                f'UNIT["metre",1],AUTHORITY["EPSG","{code}"]]')
    return None


def write_prj(shp_path: str, crs: str | None) -> None:
    """Write the .prj sidecar when the CRS has a known WKT (EPSG:4326 /
    3857 / WGS84 UTM zones). Other codes REMOVE any existing sidecar
    rather than leaving a stale one — a wrong .prj is worse for
    downstream readers than none."""
    prj = Path(shp_path).with_suffix(".prj")
    wkt = _wkt_for_crs(crs)
    if wkt is not None:
        prj.write_text(wkt)
    elif prj.exists():
        prj.unlink()


def read_shapefile(
    path: str,
    columns: list[str] | None = None,
    bbox: tuple[float, float, float, float] | None = None,
    geometry_col: str = "geometry",
    fids: list[int] | None = None,
    skip_features: int = 0,
    max_features: int | None = None,
):
    """Read .shp (+ sibling .dbf attributes, if present) to a Ray Dataset
    with a WKB geometry column; ``columns``/``bbox`` as in `read_file`.
    ``fids``/``skip_features``/``max_features`` select by 0-based record
    number — OGR's shapefile FID semantics (`read_file` enforces their
    no-combining-with-filters rule)."""
    import ray

    geoms = _read_shp(path)
    dbf = Path(path).with_suffix(".dbf")
    if dbf.exists():
        tab = _read_dbf(str(dbf))
        if tab.num_rows != len(geoms):
            raise ValueError(f".dbf rows ({tab.num_rows}) != .shp records ({len(geoms)})")
    else:
        tab = pa.table({"_fid": pa.array(np.arange(len(geoms), dtype=np.int64))})
    if fids is not None:
        idx = sorted(set(int(f) for f in fids))
        bad = [i for i in idx if i < 0 or i >= len(geoms)]
        if bad:
            raise ValueError(f"fids {bad} outside record range 0..{len(geoms) - 1}")
        geoms = [geoms[i] for i in idx]
        tab = tab.take(pa.array(idx, pa.int64()))
    elif skip_features or max_features is not None:
        end = len(geoms) if max_features is None else min(len(geoms), skip_features + max_features)
        start = min(skip_features, len(geoms))
        geoms = geoms[start:end]
        tab = tab.slice(start, max(0, end - start))
    ga = GeometryArray.from_pylist(geoms)
    if columns is not None:
        tab = tab.select([c for c in columns if c in tab.column_names])
    tab = tab.append_column(geometry_col, encode_wkb(ga))
    if bbox is not None:
        from geopolars_ray.sources.io import bbox_envelope_filter

        tab = bbox_envelope_filter(bbox, geometry_col)(tab)
    return ray.data.from_arrow(tab)


# --------------------------------------------------------------------------
# minimal writer (tests / export of small side tables)
# --------------------------------------------------------------------------


def _wind(ring, clockwise: bool):
    """Return the ring wound per ESRI spec (CW exterior / CCW hole)."""
    a = _signed_area(ring)
    if (a > 0 and clockwise) or (a < 0 and not clockwise):
        return list(reversed(ring))
    return list(ring)


def _spec_rings(kind: str, body) -> list:
    """Flatten polygon/multipolygon bodies to spec-wound .shp ring parts."""
    if kind == "polygon":
        polys = [body]
    else:  # multipolygon
        polys = body
    out = []
    for rings in polys:
        for i, r in enumerate(rings):
            out.append(_wind(r, clockwise=(i == 0)))
    return out


def _shp_record(el) -> bytes:
    if el is None:
        return struct.pack("<i", _SHP_NULL)
    kind, body = el
    if kind == "point":
        return struct.pack("<idd", _SHP_POINT, float(body[0]), float(body[1]))
    if kind == "multipoint":
        pts = np.asarray(body, dtype="<f8")
        bb = (pts[:, 0].min(), pts[:, 1].min(), pts[:, 0].max(), pts[:, 1].max())
        return struct.pack("<i4di", _SHP_MULTIPOINT, *bb, len(pts)) + pts.tobytes()
    if kind in ("linestring", "multilinestring", "polygon", "multipolygon"):
        if kind == "linestring":
            parts = [body]
            st = _SHP_POLYLINE
        elif kind == "multilinestring":
            parts = body
            st = _SHP_POLYLINE
        else:
            # spec winding (CW exteriors, CCW holes) so the reader's winding
            # analysis reconstructs the same polygon/multipolygon structure
            parts = _spec_rings(kind, body)
            st = _SHP_POLYGON
        all_pts = np.asarray([p for part in parts for p in part], dtype="<f8")
        bb = (all_pts[:, 0].min(), all_pts[:, 1].min(), all_pts[:, 0].max(), all_pts[:, 1].max())
        offs = np.cumsum([0] + [len(p) for p in parts[:-1]]).astype("<i4")
        return (
            struct.pack("<i4dii", st, *bb, len(parts), len(all_pts))
            + offs.tobytes()
            + all_pts.tobytes()
        )
    raise ValueError(f"cannot write kind {kind!r}")


def write_shapefile(table: pa.Table, path: str, geometry_col: str = "geometry",
                    crs: str | None = None) -> None:
    """Write a .shp + .shx + .dbf triple (attributes: int64/float64/string
    columns); the .shx offset index is what external tools expect alongside
    the .shp stream. ``crs`` additionally writes the .prj sidecar for the
    CRS with known WKT (see :func:`write_prj`)."""
    write_prj(path, crs)
    ga = decode_wkb(table[geometry_col])
    els = ga.to_pylist()
    recs = []
    shx_entries = []
    offset_words = 50  # 100-byte header
    for i, el in enumerate(els):
        content = _shp_record(el)
        shx_entries.append(struct.pack(">ii", offset_words, len(content) // 2))
        recs.append(struct.pack(">ii", i + 1, len(content) // 2) + content)
        offset_words += 4 + len(content) // 2
    body = b"".join(recs)
    xmin, ymin, xmax, ymax = K.bounds(ga)
    bb = (
        float(np.nanmin(xmin)) if len(els) else 0.0,
        float(np.nanmin(ymin)) if len(els) else 0.0,
        float(np.nanmax(xmax)) if len(els) else 0.0,
        float(np.nanmax(ymax)) if len(els) else 0.0,
    )
    first = next((e for e in els if e is not None), None)
    st = {None: _SHP_NULL, "point": _SHP_POINT, "linestring": _SHP_POLYLINE,
          "multilinestring": _SHP_POLYLINE, "polygon": _SHP_POLYGON,
          "multipolygon": _SHP_POLYGON, "multipoint": _SHP_MULTIPOINT}[first[0] if first else None]
    def _header(length_words: int) -> bytes:
        h = struct.pack(">i5ii", 9994, 0, 0, 0, 0, 0, length_words)
        h += struct.pack("<ii", 1000, st)
        h += struct.pack("<4d", *bb)
        h += struct.pack("<4d", 0.0, 0.0, 0.0, 0.0)  # z/m ranges
        return h

    Path(path).write_bytes(_header((100 + len(body)) // 2) + body)
    shx_body = b"".join(shx_entries)
    Path(path).with_suffix(".shx").write_bytes(_header((100 + len(shx_body)) // 2) + shx_body)

    # .dbf
    attrs = table.drop_columns([geometry_col])
    if not attrs.column_names:
        # geometry-only table: write no .dbf at all (a zero-column arrow
        # table reports num_rows == 0, which would emit a 0-record dbf
        # that the reader rejects against the .shp count; absence is the
        # valid dBASE-less shapefile form and the reader handles it).
        # Remove a stale sibling from a previous attribute-ful write —
        # it would silently attach the OLD attributes to the new rows.
        dbf = Path(path).with_suffix(".dbf")
        if dbf.exists():
            dbf.unlink()
        return
    fields = []
    encoded: list[list[bytes]] = []
    def _num(v, fmt: str, flen: int) -> bytes:
        # nulls write as blanks (the dBASE null convention the reader maps
        # back to None); overflow raises rather than silently truncating
        if v is None:
            return b" " * flen
        b = (fmt % v).encode()
        if len(b) > flen:
            raise ValueError(f"value {v!r} does not fit dBASE field width {flen}")
        return b

    for name in attrs.column_names:
        col = attrs[name]
        if pa.types.is_integer(col.type):
            flen, ftype = 20, "N"
            vals = [_num(v.as_py(), "%20d", flen) for v in col]
        elif pa.types.is_floating(col.type):
            flen, ftype = 24, "F"
            vals = [_num(v.as_py(), "%24.8f", flen) for v in col]
        else:
            flen, ftype = 64, "C"
            vals = []
            for v in col:
                s = v.as_py()
                b = b" " * flen if s is None else str(s).encode("latin-1", "replace")
                if len(b) > flen:
                    raise ValueError(f"string {s!r} does not fit dBASE field width {flen}")
                vals.append(b.ljust(flen))
        fields.append((name[:10], ftype, flen))
        encoded.append(vals)
    n = attrs.num_rows
    record_size = 1 + sum(f[2] for f in fields)
    header_size = 32 + 32 * len(fields) + 1
    dbf = bytearray()
    dbf += struct.pack("<B3Bihh20x", 0x03, 95, 7, 26, n, header_size, record_size)
    for name, ftype, flen in fields:
        desc = bytearray(32)
        desc[0:11] = name.encode("ascii", "replace")[:11].ljust(11, b"\x00")
        desc[11] = ord(ftype)
        desc[16] = flen
        desc[17] = 8 if ftype == "F" else 0
        dbf += desc
    dbf += b"\x0d"
    for i in range(n):
        dbf += b" "
        for vals, (name, ftype, flen) in zip(encoded, fields):
            dbf += vals[i][:flen].ljust(flen)
    dbf += b"\x1a"
    Path(path).with_suffix(".dbf").write_bytes(bytes(dbf))
