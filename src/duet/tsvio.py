"""File formats: TSV matrices, binary model checkpoints, and run manifests.

TSV matrices are UTF-8, tab-delimited, newline-terminated; the header's first
cell is the literal `id` followed by column ids, and each data row starts
with its row id; a zero-column matrix is the header `id` and one bare row id
per line. A float is written as `'%.17g' % v` writes it, so a write/read
round trip is lossless for float64. write_matrix_tsv formats blocks of about
8,192 cells (so a block's ~40 numpy calls cost less than its cells) straight
into one buffer, so the text of a written file exists once, as the one
`bytes` object it returns. An id-list file is a header line
and then one id per line. So that every id reads back as written, the
writers reject (InputError, naming it) any id holding a tab, `\n` or `\r`,
and an empty id in an id list or of a zero-column matrix's row; the readers
reject a file that is not UTF-8.

numpy formats every block, exact on each cell in 1e-4 <= |v| < 1e16 and on
+-0: with k = floor(log10|v|), 10**p for p = 16 - k <= 22 is a float64, and
Dekker's product (Veltkamp split by 2**27 + 1) gives |v| * 10**p = hi + lo
exactly. log10 may be one off near a power of ten, so a pass that finds
hi + lo outside [1e16, 1e17) moves k by one. Inside, hi > 2**53 is an even
integer, so hi + rint(lo), rint rounding half to even, is dtoa's 17-digit
rounding; integer division and a table of 4-digit strings give its digits,
laid out by the `%g` rules for -4 <= k <= 15 with a NUL for each byte `%g`
leaves out, and the NULs go before any row id joins the text. Every other
cell (nan, +-inf, subnormal, |v| < 1e-4 or >= 1e16), and one that three
passes did not pin down, goes through `'%.17g' % v`.

The readers scan the file's bytes in place. They check that the bytes are
UTF-8 without keeping the text, take `\r\n` and a lone `\r` as line ends
(rewriting them only if a `\r` occurs or the final `\n` is missing) and
skip empty lines. numpy finds the line ends and counts each line's tabs,
256 KiB at a time; Python code runs per line only to decode its row id.
read_matrix_tsv requires as many tabs in every body row as in the header,
and parses the numeric block from the same bytes in one np.loadtxt call
(numpy's C reader), which must give one row per row id. A cell is a decimal
or exponent float literal, `inf`, `infinity` or `nan` in any case, with an
optional sign and surrounding whitespace (here also U+001C to U+001F);
`0x10`, `1,5`, `1_000`, non-ASCII digits and empty cells are rejected. Every
failure is an InputError naming the file. Each reader also takes the file's
bytes, for a caller that has read them already.

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
load_checkpoint. A model is its nets, so a checkpoint holds a magic tag and
the nets, nothing else. It is little-endian binary: an ASCII magic tag, then
per net a u32 layer count and per-layer u32 (out, in) dims, then per net the
raw f64 parameters layer by layer (weight row-major, then bias). Each model
module keeps its tag and save/load pair next to the model: align
(`DUET-ALN2`; image head, gene head), regress (`DUET-REG1`; head) and fuse
(`DUET-FUS2`; adapter net). Activations are not stored: a net is its layers'
weights and biases, and core.Mlp owns the one activation policy. The loader
rejects (InputError, naming the file) a wrong tag (the `DUET-ALN1` and
`DUET-FUS1` layouts, which also held an f64 scalar, among them), a truncated
file, trailing bytes, a layer count outside 1-64, any non-finite weight or
bias, and whatever the model's own checks reject.

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
from itertools import chain
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
    newline, a newline last, and the (start, end) of the first non-empty
    line, or None."""
    raw = read_bytes(p) if data is None else data
    if not raw.isascii():
        try:
            raw.decode("utf-8")  # a check only: the text is not kept
        except UnicodeDecodeError as exc:
            raise InputError(f"{p} is not UTF-8 text: {exc}") from None
    if b"\r" in raw:
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not raw.endswith(b"\n"):
        raw += b"\n"
    start = len(raw) - len(raw.lstrip(b"\n"))  # a copy only if blank lines lead
    return raw, (start, raw.find(b"\n", start)) if start < len(raw) else None


def _lines(raw: bytes, start: int):
    """The non-empty lines of raw[start:], which ends in a newline, a batch
    per _SLAB bytes: arrays of their starts, ends and tab counts."""
    tabbed = 0  # tabs of the open line in earlier slabs
    for off in range(start, len(raw), _SLAB):
        b = np.frombuffer(raw, np.uint8, min(_SLAB, len(raw) - off), off)
        # a bit per byte, set on a tab, in 64-bit words: the tabs before a
        # line end are those up to its word's end less those from it on
        words = np.zeros(b.size // 64 + 1, "<u8")
        words.view(np.uint8)[:-(-b.size // 8)] = np.packbits(b == 9, bitorder="little")
        upto = np.cumsum(np.bitwise_count(words), dtype=np.int64)
        ends = np.flatnonzero(b == 10)
        if not ends.size:
            tabbed += upto[-1]
            continue
        word = words[ends >> 6] >> (ends & 63).astype(np.uint64)
        tabs = upto[ends >> 6] - np.bitwise_count(word)
        counts = np.diff(tabs, prepend=-tabbed)
        tabbed = upto[-1] - tabs[-1]
        ends += off
        starts = np.concatenate(([start], ends[:-1] + 1))
        start = ends[-1] + 1
        keep = ends > starts
        yield starts[keep], ends[keep], counts[keep]


def _split(x):
    """Veltkamp's split: x == hi + lo, each half 26 bits wide."""
    c = 134217729.0 * x  # 2**27 + 1
    hi = c - (c - x)
    return hi, x - hi


_BLOCK = 8192  # cells per numpy pass: its temporaries stay within a few hundred KiB
_SLAB = 1 << 18  # bytes per numpy pass of _lines
_P10 = np.array([float(10**p) for p in range(23)])  # exact up to 10**22
_P10_HI, _P10_LO = _split(_P10)
# the 4 ASCII digits of 0..9999 as one little-endian u32 each
_DIGITS4 = (np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
            + 48).astype(np.uint8).view("<u4").ravel()
_ROW = np.arange(17, dtype=np.int8)[:, None]
_LEAD = np.frombuffer(b"0.000", np.uint8)[:, None]


def _scaled(y, p):
    """(hi, lo) with hi + lo == y * 10**p exactly (Dekker's product); for y
    in [1e-4, 1e16] and p <= 22 no partial product overflows or underflows."""
    yh, yl = _split(y)
    ph, pl = _P10_HI.take(p), _P10_LO.take(p)
    hi = y * _P10.take(p)
    return hi, ((yh * ph - hi) + yh * pl + yl * ph) + yl * pl


def _decimal(y):
    """(k, q, exact) of each y in [1e-4, 1e16): '%.17g' rounds y to
    q * 10**(k - 16) with q in [10**16, 10**17); `exact` is False where
    three passes did not pin k down."""
    k = np.floor(np.log10(y)).astype(np.int64)  # may be one off near 10**k
    for _ in range(3):
        hi, lo = _scaled(y, 16 - k)
        if not ((hi <= 1e16) | (hi >= 1e17)).any():
            exact = True
            break
        # (hi - c) + lo has the sign of hi + lo - c (hi - c is exact near c)
        step = (hi - 1e17 + lo >= 0).view(np.int8) - (hi - 1e16 + lo < 0).view(np.int8)
        exact = step == 0
        if exact.all():
            break
        k += step
    # hi >= 1e16 > 2**53 is an even integer, so rint (half to even) on lo
    # rounds hi + lo as dtoa does; q == 10**17 (a carry into the next
    # decade) needs a float within 5e-18 (relative) below a power of ten,
    # and none lies in range
    q = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    return k.astype(np.int8), q, exact & (q < 10**17)


def _digits(q):
    """The 17 ASCII digits of each q in [10**16, 10**17), one row per digit."""
    groups = np.empty((5, q.size), np.int64)
    np.floor_divide(q, 10**8, out=groups[2])
    np.subtract(q, groups[2] * 10**8, out=groups[4])
    np.floor_divide(groups[2::2], 10**4, out=groups[1:4:2])
    groups[2::2] -= groups[1:4:2] * 10**4
    np.floor_divide(groups[1], 10**4, out=groups[0])
    groups[1] -= groups[0] * 10**4
    chars = _DIGITS4.take(groups).view(np.uint8).reshape(5, q.size, 4)
    return chars.transpose(0, 2, 1).reshape(20, q.size)[3:]


def _row_texts(x, width: int, end: bytes) -> list[bytes]:
    """The '%.17g' text of each row of the flat cells x (rows of `width`
    cells): a tab after each cell but the last, which `end` follows."""
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16)
    y = np.where(fast, a, 2.0)  # 2 * 10**16 is no edge case for _decimal
    zero = x == 0
    k, q, exact = _decimal(y)
    k[zero] = 0  # and q == 2 * 10**16: its lead digit becomes the '0'
    d = _digits(q)
    d[0, zero] = 48
    last = ((d != 48) * _ROW).max(axis=0)  # each cell's last nonzero digit
    d *= _ROW <= np.maximum(last, k)  # NUL out the fraction's trailing zeros
    # one column of 25 bytes per cell, NUL where %g writes nothing: the sign,
    # '0.000' (the part that k < 0 takes), 18 rows of digits with the point
    # after digit k (k >= 0), the separator
    out = np.empty((25, x.size), np.uint8)
    out[0] = np.signbit(x) * np.uint8(45)
    out[1:6] = (_ROW[:5] < (k < 0) * (1 - k)) * _LEAD
    out[6] = d[0] * (k >= 0)
    j = _ROW[1:]
    point = (last > k) * np.uint8(46)
    out[7:23] = d[1:] * (j <= k) + point * (j == k + 1) + d[:-1] * (j > k + 1)
    out[23] = d[16]
    out[24] = 9
    out[24, width - 1::width] = end[0]
    for i in np.flatnonzero(~(fast & exact | zero)).tolist():
        out[:24, i] = np.frombuffer((b"%.17g" % x[i]).ljust(24, b"\0"), np.uint8)
    return out.T.tobytes().translate(None, b"\0").splitlines(True)


def write_matrix_tsv(path, matrix, row_ids, col_ids) -> bytes:
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise InputError("write_matrix_tsv needs a 2-D matrix")
    if matrix.shape[0] != len(row_ids) or matrix.shape[1] != len(col_ids):
        raise InputError("ids do not match matrix shape")
    n, m = matrix.shape
    # a zero-column row is its id alone, and the reader skips empty lines
    heads = [(rid + ("\t" if m else "\n")).encode("utf-8")
             for rid in _writable_ids(row_ids, "row id", path, allow_empty=m > 0)]
    buf = io.BytesIO()  # no name holds the header: a wide matrix's is megabytes
    buf.write(("\t".join(["id", *_writable_ids(col_ids, "column id", path)]) + "\n").encode())
    if not m:
        buf.writelines(heads)
    rows = max(1, _BLOCK // max(m, 1))  # whole rows, or one row in pieces
    for r in range(0, n, rows):
        for c in range(0, m, _BLOCK):
            block = matrix[r:r + rows, c:c + _BLOCK]
            lines = _row_texts(block.ravel(), block.shape[1],
                               b"\n" if c + _BLOCK >= m else b"\t")
            buf.writelines(chain.from_iterable(zip(heads[r:r + rows], lines)) if c == 0 else lines)
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
    raw, head = _scan(p, data)
    if head is None:
        raise InputError(f"empty TSV: {p}")
    header = raw[head[0]:head[1]].decode().split("\t")
    if header[0] != "id":
        raise InputError(f"malformed TSV header in {p}: first cell must be 'id'")
    n, row_ids = len(header) - 1, []
    usecols = range(1, n + 1) if cols is None else [
        1 + j for j in column_positions(p, header[1:], cols)]
    wanted, spans = np.array(sorted(set(() if rows is None else rows)), np.int64), {}
    for starts, ends, tabs in _lines(raw, head[1]):
        if (tabs != n).any():
            raise InputError(f"ragged TSV row in {p}")
        lo, hi = np.searchsorted(wanted, [len(row_ids), len(row_ids) + len(starts)])
        for r in wanted[lo:hi].tolist():
            spans[r] = slice(starts[r - len(row_ids)], ends[r - len(row_ids)])
        row_ids += [raw[a:raw.find(b"\t", a, e) if n else e].decode()
                    for a, e in zip(starts.tolist(), ends.tolist())]
    if rows is None:
        text, skip, n_rows = raw, raw.count(b"\n", 0, head[1]) + 1, len(row_ids)
    elif len(spans) < len(wanted):
        raise InputError(f"{p} has no row at position {min(set(wanted.tolist()) - spans.keys())}")
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
    raw, head = _scan(p, data)
    if head is None:
        raise InputError(f"empty id list: {p}")
    return [raw[a:b].decode() for starts, ends, _ in _lines(raw, head[1])
            for a, b in zip(starts.tolist(), ends.tolist())]


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


def save_checkpoint(path, magic: bytes, nets) -> bytes:
    """Write `magic`, each net's dims, then each net's parameters, as the
    module docstring lays them out."""
    parts = [magic]
    parts += [struct.pack(f"<{1 + 2 * len(net.layers)}I", len(net.layers),
                          *(d for layer in net.layers for d in layer.weight.shape))
              for net in nets]
    parts += [net.get_flat().astype("<f8").tobytes() for net in nets]
    return write_atomic(path, b"".join(parts))


def load_checkpoint(path, data: bytes | None, magic: bytes, n_nets: int, build):
    """The model build(*nets) makes of the checkpoint at `path` (or in
    `data`) that save_checkpoint wrote with `magic`. Every InputError, the
    model's own checks in `build` included, names the file."""
    p = Path(path)
    blob = read_bytes(p) if data is None else data
    if blob[:len(magic)] != magic:
        raise InputError(f"bad checkpoint magic in {p}, expected {magic.decode()}")
    r = _Reader(blob, p, len(magic))
    dims = [r.dims() for _ in range(n_nets)]
    params = [[(r.f64s(o * i).reshape(o, i), r.f64s(o)) for o, i in net]
              for net in dims]
    r.done()
    try:
        return build(*(Mlp([Layer(w, b) for w, b in net]) for net in params))
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
