"""Serialization: field dumps, coefficient files, CSV/JSON reports.

Field dump format (documented here, version 1): a pair of files
`<base>.json` + `<base>.bin`.  The JSON header records the grid (n, N, L),
the component count and value shape, and the representation; the binary
file is the raw little-endian float64 array with real and imaginary parts
interleaved (numpy's '<c16' layout), C order, matching the header shape.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

from .grid import GridSpec

__all__ = [
    "FORMAT_TAG",
    "write_field",
    "read_field",
    "write_strip_field",
    "write_matrix_csv",
    "read_matrix_csv",
    "write_report",
    "load_coefficient_spec",
]

FORMAT_TAG = "halfspace-field-v1"


def _json_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, indent=2).encode() + b"\n"


def write_field(
    base: str | Path,
    grid: GridSpec,
    values: np.ndarray,
    representation: str = "physical",
    extra: dict | None = None,
) -> None:
    """Dump a complex field array with a JSON header and a raw binary body."""
    base = Path(base)
    values = np.ascontiguousarray(values, dtype=complex)
    header = {
        "format": FORMAT_TAG,
        "grid": {"n": grid.n, "N": grid.N, "L": grid.L},
        "shape": list(values.shape),
        "representation": representation,
        "dtype": "float64-le-interleaved-complex",
    }
    if extra:
        header.update(extra)
    base.with_suffix(".json").write_bytes(_json_bytes(header))
    base.with_suffix(".bin").write_bytes(values.astype("<c16").tobytes())


def read_field(base: str | Path):
    """Read a field dump; returns (header, GridSpec, values)."""
    base = Path(base)
    header = json.loads(base.with_suffix(".json").read_text())
    if header.get("format") != FORMAT_TAG:
        raise ValueError(f"not a field dump: {base}")
    g = header["grid"]
    grid = GridSpec(n=g["n"], N=g["N"], L=g["L"])
    raw = np.frombuffer(base.with_suffix(".bin").read_bytes(), dtype="<c16")
    values = raw.reshape(header["shape"]).astype(complex)
    return header, grid, values


def write_strip_field(base: str | Path, field) -> None:
    """Dump a StripField (gradient and/or potential) with its t grid."""
    extra = {"t_grid": [float(t) for t in field.t_grid], "kind": field.kind,
             "content": field.content}
    if field.kind in ("grad", "both"):
        write_field(Path(str(base) + "_grad"), field.grid, field.grad, extra=extra)
    if field.kind in ("u", "both"):
        write_field(Path(str(base) + "_u"), field.grid, field.u, extra=extra)


def write_matrix_csv(path: str | Path, M: np.ndarray) -> None:
    """Complex matrix as CSV with re/im column pairs (RFC 4180)."""
    M = np.asarray(M)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            [f"{part}{j}" for j in range(M.shape[1]) for part in ("re", "im")]
        )
        for row in M:
            w.writerow(
                [f"{v:.17g}" for x in row for v in (x.real, x.imag)]
            )


def read_matrix_csv(path: str | Path) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    body = np.array([[float(v) for v in row] for row in rows[1:]])
    return body[:, 0::2] + 1j * body[:, 1::2]


def write_report(
    path: str | Path,
    fmt: str,
    payload,
    timestamp: str | None = None,
) -> None:
    """Emit a report; the first line is a timestamp comment, everything
    after it is byte-stable for a fixed configuration.

    For fmt="csv", payload is (fieldnames, rows) with rows a list of dicts
    (pre-sorted by the caller); for fmt="json" payload is a JSON-able
    object serialized with sorted keys.
    """
    head = f"# generated: {timestamp}\n" if timestamp else "# generated: -\n"
    if fmt == "json":
        body = _json_bytes(payload).decode()
    elif fmt == "csv":
        fieldnames, rows = payload
        buf = io.StringIO()
        w = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
        w.writeheader()
        for row in rows:
            w.writerow(row)
        body = buf.getvalue()
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    Path(path).write_text(head + body)


def _family_keyword(key: str, value):
    """A make_family keyword from a family spec: seed and blocks are
    integers, the others finite numbers; anything else is a ValueError."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if key in ("seed", "blocks"):
        ok, what = number and isinstance(value, int), "an integer"
    else:
        ok, what = number and -math.inf < value < math.inf, "a finite number"
    if not ok:
        raise ValueError(f"coefficient spec key {key!r} must be {what}, got {value!r}")
    return value


def load_coefficient_spec(spec: dict, grid: GridSpec):
    """Build a CoefficientField from a JSON coefficient description.

    Supported kinds: {"kind": "family", "family": <name>, "seed": int, ...},
    {"kind": "expressions", "entries": [[expr, ...], ...]} with entries a
    (1+n) x (1+n) nest of mini-language strings, or {"kind": "dump",
    "path": <field-dump base>}.  A spec of any other form is a ValueError.
    """
    from .coeffs import CoefficientField, make_family
    from .expr import evaluate_expr

    if not isinstance(spec, dict):
        raise ValueError(f"coefficient spec must be a JSON object, got {spec!r}")
    kind = spec.get("kind")
    if kind == "family":
        kwargs = {
            k: _family_keyword(k, spec[k])
            for k in ("seed", "lamb_floor", "Lamb_cap", "amplitude", "blocks", "imag_scale")
            if k in spec
        }
        if "base" in spec:
            kwargs["base"] = np.array(spec["base"], dtype=complex)
        return make_family(grid, spec["family"], **kwargs)
    if kind == "expressions":
        d = 1 + grid.n
        entries = spec["entries"]
        if not (isinstance(entries, list) and len(entries) == d
                and all(isinstance(r, list) and len(r) == d
                        and all(isinstance(e, str) for e in r) for r in entries)):
            raise ValueError(f"expression table must be {d}x{d} lists of expression strings")
        samples = np.empty(grid.shape + (d, d), dtype=complex)
        for p in range(d):
            for q in range(d):
                samples[..., p, q] = evaluate_expr(entries[p][q], grid)
        return CoefficientField(grid, samples)
    if kind == "dump":
        path = spec.get("path")
        if not (isinstance(path, str)
                and all(Path(path).with_suffix(x).is_file() for x in (".json", ".bin"))):
            raise ValueError(f"coefficient spec key 'path' must name a field dump, got {path!r}")
        _, dgrid, values = read_field(path)
        if dgrid != grid:
            raise ValueError("coefficient dump grid does not match the run grid")
        return CoefficientField(grid, values)
    raise ValueError(f"unknown coefficient kind {kind!r}")
