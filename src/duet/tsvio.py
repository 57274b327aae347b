"""File formats: TSV matrices, binary model checkpoints, and run manifests.

TSV matrices are UTF-8, tab-delimited, newline-terminated; the header's first
cell is the literal `id` followed by column ids, and each data row starts
with its row id. Floats serialize with 17 significant digits (`%.17g`) so a
write/read round trip is lossless for float64. write_matrix_tsv encodes each
row straight into one buffer, so the text of a written file exists once, as
the one `bytes` object it returns. An id-list file is a header line and then
one id per line. So that every id reads back as written, the writers reject
(InputError, naming it) any id holding a tab, `\n` or `\r`, and an empty
id in an id list; the readers reject a file that is not UTF-8.

The readers scan the file's bytes in place. They check that the bytes are
UTF-8 without keeping the text, take `\r\n` and a lone `\r` as line ends
(rewriting them only when a `\r` occurs) and skip empty lines.
read_matrix_tsv requires as many tabs in every body row as in the header,
decodes each row id alone, and parses the numeric block from the same bytes
in one np.loadtxt call (numpy's C reader), which must give one row per row
id. A cell is a decimal or exponent float literal, `inf`,
`infinity` or `nan` in any case, with an optional sign and surrounding
whitespace (here also U+001C to U+001F); `0x10`, `1,5`, `1_000`,
non-ASCII digits and empty cells are rejected. Every failure is an
InputError naming the file. Each reader also takes the file's bytes, for a
caller that has read them already.

Given row positions or column ids, read_matrix_tsv parses only those cells
as floats; every other check still covers the whole file. So a caller
selects only on bytes write_matrix_tsv wrote (pipeline.Workspace does).

Every workspace file is written by write_atomic: the data goes to a new
`<name>.tmp` beside the target, the old target is unlinked, and the temp file
is renamed onto the free name. A process interrupted at any point leaves the
old file, no file, or a stray `.tmp`, never a half-written target. There is
no fsync, so this guards against interruption, not power loss. The unlink
comes first because on ext4 (default auto_da_alloc) both truncating a file
that holds data and renaming onto one force the new data to disk before the
call returns (40-110 ms per rewritten file on a 2-vCPU VM's virtio disk); a
rename onto a free name does not.

Every checkpoint has one layout, written by save_checkpoint and read by
load_checkpoint. It is little-endian binary: an ASCII magic tag, then per net
a u32 layer count and per-layer u32 (out, in) dims, then the model's f64
scalars, then per net the raw f64 parameters layer by layer (weight
row-major, then bias). Each model module keeps its tag and save/load pair
next to the model: align (`DUET-ALN1`; temperature; image head, gene head),
regress (`DUET-REG1`; no scalars; head) and fuse (`DUET-FUS1`; reg_coef;
adapter net). Activations are not stored: a net is its layers' weights and
biases, and core.Mlp owns the one activation policy. The loader rejects
(InputError, naming the file) a wrong tag, a truncated file, trailing bytes,
a layer count outside 1-64, any non-finite weight, bias or scalar, and
whatever the model's own checks reject.

A run manifest is JSON: the seed, the config echo, and per stage its
completion time and the {file name: sha256} of its outputs and inputs.
read_manifest rejects (InputError, naming the file) any other shape.
"""

from __future__ import annotations

import io
import json
import os
import struct
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .core import Layer, Mlp
from .errors import InputError


# ---------------------------------------------------------------------------
# Atomic writes
# ---------------------------------------------------------------------------


def write_atomic(path, data) -> bytes:
    """Replace `path` with `data` (str as UTF-8 text, or bytes) via a temp file.

    Returns the bytes written; every writer below passes them on.
    """
    p = Path(path)
    tmp = p.with_name(p.name + ".tmp")
    blob = data.encode("utf-8") if isinstance(data, str) else data
    try:
        with open(tmp, "wb") as fh:
            fh.write(blob)
        p.unlink(missing_ok=True)
        os.rename(tmp, p)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return blob


def read_bytes(path) -> bytes:
    """The file's bytes; InputError naming it when it cannot be read."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:  # no such file, a directory, no permission...
        raise InputError(f"cannot read {path}: {exc.strerror}") from None


# ---------------------------------------------------------------------------
# TSV matrices
# ---------------------------------------------------------------------------


def _breaks_line(text: str) -> bool:
    return "\t" in text or "\n" in text or "\r" in text


def _writable_ids(ids, what: str, path, allow_empty: bool = True) -> list[str]:
    """The ids as strings; InputError naming the first that would not read back."""
    ids = [str(i) for i in ids]
    # one scan over the joined ids; the loop runs only to name the culprit
    if _breaks_line("".join(ids)) or (not allow_empty and "" in ids):
        bad = next(i for i in ids if _breaks_line(i) or (not allow_empty and not i))
        rule = "hold no tab or line break" if allow_empty else (
            "be non-empty and hold no tab or line break")
        raise InputError(f"cannot write {what} {bad!r} to {path}: an id must {rule}")
    return ids


def _scan(p: Path, data: bytes | None):
    """The bytes of `data` (or of the file at `p`) with every line end a
    newline, and an iterator over the (start, end) of each non-empty line."""
    raw = read_bytes(p) if data is None else data
    if not raw.isascii():
        try:
            raw.decode("utf-8")  # a check only: the text is not kept
        except UnicodeDecodeError as exc:
            raise InputError(f"{p} is not UTF-8 text: {exc}") from None
    if b"\r" in raw:
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return raw, _line_spans(raw)


def _line_spans(raw: bytes):
    start = 0
    while start < len(raw):
        end = raw.find(b"\n", start)
        end = len(raw) if end < 0 else end
        if end > start:
            yield start, end
        start = end + 1


def write_matrix_tsv(path, matrix, row_ids, col_ids) -> bytes:
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise InputError("write_matrix_tsv needs a 2-D matrix")
    if matrix.shape[0] != len(row_ids) or matrix.shape[1] != len(col_ids):
        raise InputError("ids do not match matrix shape")
    row_ids = _writable_ids(row_ids, "row id", path)
    col_ids = _writable_ids(col_ids, "column id", path)
    row_fmt = "\t".join(["%.17g"] * matrix.shape[1]) + "\n"
    buf = io.BytesIO()
    buf.write(("id\t" + "\t".join(col_ids) + "\n").encode("utf-8"))
    for rid, row in zip(row_ids, matrix):
        buf.write((rid + "\t" + row_fmt % tuple(row.tolist())).encode("utf-8"))
    return write_atomic(path, buf.getvalue())


def column_positions(path, col_ids: list[str], cols) -> list[int]:
    """Positions of `cols` in the TSV at `path`'s `col_ids`; InputError if one lacks."""
    pos = {c: j for j, c in enumerate(col_ids)}
    try:
        return [pos[c] for c in cols]
    except KeyError as exc:
        raise InputError(f"{path} has no column {exc}") from None


def read_matrix_tsv(path, data: bytes | None = None, *, rows=None, cols=None):
    """(matrix, row ids, column ids) of the TSV at `path` (or in `data`); given
    `rows` (positions) or `cols` (ids), the matrix holds only those, in order."""
    p = Path(path)
    raw, lines = _scan(p, data)
    head = next(lines, None)
    if head is None:
        raise InputError(f"empty TSV: {p}")
    header = raw[head[0]:head[1]].decode().split("\t")
    if header[0] != "id":
        raise InputError(f"malformed TSV header in {p}: first cell must be 'id'")
    n, row_ids = len(header) - 1, []
    usecols = range(1, n + 1) if cols is None else [
        1 + j for j in column_positions(p, header[1:], cols)]
    wanted, spans = set(() if rows is None else rows), {}
    for start, end in lines:
        if raw.count(b"\t", start, end) != n:
            raise InputError(f"ragged TSV row in {p}")
        if len(row_ids) in wanted:
            spans[len(row_ids)] = slice(start, end)
        row_ids.append(raw[start:raw.find(b"\t", start, end) if n else end].decode())
    if rows is None:
        text, skip, n_rows = raw, raw.count(b"\n", 0, head[1]) + 1, len(row_ids)
    elif len(spans) < len(wanted):
        raise InputError(f"{p} has no row at position {min(wanted - set(spans))}")
    else:
        view = memoryview(raw)  # its slices copy nothing before the join
        text, skip, n_rows = b"\n".join(view[spans[r]] for r in rows), 0, len(rows)
    if not (n_rows and usecols):
        return np.zeros((n_rows, len(usecols))), row_ids, header[1:]
    try:
        matrix = np.loadtxt(io.BytesIO(text), delimiter="\t", comments=None,
                            usecols=usecols, ndmin=2, encoding="utf-8", skiprows=skip)
    except ValueError as exc:
        raise InputError(f"non-numeric cell in {p}: {exc}") from None
    if len(matrix) != n_rows:
        raise InputError(f"{p}: {len(matrix)} rows parsed for {n_rows} row ids")
    return matrix, row_ids, header[1:]


def write_ids_tsv(path, ids):
    lines = ["id"] + _writable_ids(ids, "id", path, allow_empty=False)
    return write_atomic(path, "\n".join(lines) + "\n")


def read_ids_tsv(path, data: bytes | None = None) -> list[str]:
    p = Path(path)
    raw, lines = _scan(p, data)
    if next(lines, None) is None:
        raise InputError(f"empty id list: {p}")
    return [raw[start:end].decode() for start, end in lines]


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


class _Reader:
    def __init__(self, blob: bytes, path, pos: int):
        self.blob = blob
        self.pos = pos
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise InputError(f"truncated checkpoint: {self.path}")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32s(self, n: int) -> tuple:
        return struct.unpack(f"<{n}I", self.take(4 * n))

    def dims(self) -> list:
        """One net's (out, in) layer dims, after its layer count."""
        n_layers = self.u32s(1)[0]
        if not 0 < n_layers <= 64:
            raise InputError(f"implausible layer count in {self.path}")
        flat = self.u32s(2 * n_layers)
        return list(zip(flat[::2], flat[1::2]))

    def f64s(self, n: int) -> np.ndarray:
        out = np.frombuffer(self.take(8 * n), dtype="<f8").astype(np.float64)
        if not np.isfinite(out).all():
            raise InputError(f"non-finite parameter in checkpoint: {self.path}")
        return out

    def done(self):
        if self.pos != len(self.blob):
            raise InputError(f"trailing bytes in checkpoint: {self.path}")


def save_checkpoint(path, magic: bytes, scalars, nets) -> bytes:
    """Write `magic`, each net's dims, the f64 `scalars`, then each net's
    parameters, as the module docstring lays them out."""
    parts = [magic]
    parts += [struct.pack(f"<{1 + 2 * len(net.layers)}I", len(net.layers),
                          *(d for layer in net.layers for d in layer.weight.shape))
              for net in nets]
    parts.append(struct.pack(f"<{len(scalars)}d", *scalars))
    parts += [net.get_flat().astype("<f8").tobytes() for net in nets]
    return write_atomic(path, b"".join(parts))


def load_checkpoint(path, data: bytes | None, magic: bytes, n_scalars: int,
                    n_nets: int, build):
    """The model build(*scalars, *nets) makes of the checkpoint at `path` (or
    in `data`) that save_checkpoint wrote with `magic`. Every InputError, the
    model's own checks in `build` included, names the file."""
    p = Path(path)
    blob = read_bytes(p) if data is None else data
    if blob[:len(magic)] != magic:
        raise InputError(f"bad checkpoint magic in {p}, expected {magic.decode()}")
    r = _Reader(blob, p, len(magic))
    dims = [r.dims() for _ in range(n_nets)]
    scalars = r.f64s(n_scalars).tolist()
    params = [[(r.f64s(o * i).reshape(o, i), r.f64s(o)) for o, i in net]
              for net in dims]
    r.done()
    try:
        nets = [Mlp([Layer(w, b) for w, b in net]) for net in params]
        return build(*scalars, *nets)
    except InputError as exc:
        raise InputError(f"{p}: {exc}") from None


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------


def read_manifest(path, data: bytes | None = None) -> dict:
    """The manifest at `path` (or in `data`); InputError naming the file
    unless it is a JSON object whose `stages` maps each stage name to an
    object holding `outputs` and `inputs` objects."""
    p = Path(path)
    try:
        doc = json.loads(read_bytes(p) if data is None else data)
    except ValueError:  # JSONDecodeError and UnicodeDecodeError
        doc = None
    stages = doc.get("stages") if isinstance(doc, dict) else None
    if not isinstance(stages, dict) or not all(
            isinstance(entry, dict) and isinstance(entry.get("outputs"), dict)
            and isinstance(entry.get("inputs"), dict) for entry in stages.values()):
        raise InputError(f"unreadable manifest: {p}")
    return doc


def update_manifest(manifest_path, stage: str, seed: int, config: dict,
                    outputs: dict, inputs: dict):
    """Record stage completion: seed, config echo, and the {file name: sha256}
    of its outputs and inputs."""
    p = Path(manifest_path)
    manifest = read_manifest(p) if p.exists() else {"stages": {}}
    manifest["seed"] = seed
    manifest["config"] = config
    manifest["stages"][stage] = {
        "completed_at": datetime.now(timezone.utc).isoformat(),
        "outputs": dict(outputs),
        "inputs": dict(inputs),
    }
    write_atomic(p, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
