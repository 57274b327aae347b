"""File formats: TSV matrices, binary model checkpoints, and run manifests.

TSV matrices are UTF-8, tab-delimited, newline-terminated; the header's first
cell is the literal `id` followed by column ids, and each data row starts
with its row id. Floats serialize with 17 significant digits so a write/read
round trip is lossless for float64. An id-list file is a header line and then
one id per line. So that every id reads back as written, the writers reject
(InputError, naming it) any id holding a tab, `\n` or `\r`, and an empty
id in an id list; the readers reject a file that is not UTF-8.

The readers take `\r\n` and a lone `\r` as line ends and skip empty lines.
read_matrix_tsv requires as many tabs in every body row as in the header,
splits the row ids off, and parses the numeric block in one np.loadtxt call
(numpy's C reader). A cell is a decimal or exponent float literal, `inf`,
`infinity` or `nan` in any case, with an optional sign and surrounding
whitespace (here also U+001C to U+001F); `0x10`, `1,5`, `1_000`,
non-ASCII digits and empty cells are rejected. Every failure is an
InputError naming the file. Each reader also takes the file's bytes, for a
caller that has read them already.

Every workspace file is written by write_atomic: the data goes to a new
`<name>.tmp` beside the target, the old target is unlinked, and the temp file
is renamed onto the free name. A process interrupted at any point leaves the
old file, no file, or a stray `.tmp`, never a half-written target. There is
no fsync, so this guards against interruption, not power loss. The unlink
comes first because on ext4 (default auto_da_alloc) both truncating a file
that holds data and renaming onto one force the new data to disk before the
call returns (40-110 ms per rewritten file on a 2-vCPU VM's virtio disk); a
rename onto a free name does not.

Checkpoints are little-endian binary: an ASCII magic tag, u32 layer counts
and per-layer (out, in) dims, any format-specific f64 scalars, then the raw
f64 parameters layer by layer (weight row-major, then bias). Activations are
not stored; every head here is relu on hidden layers and identity on the
final layer, which the loaders reinstate. The loaders reject (InputError,
naming the file) any non-finite weight, bias or scalar.
"""

from __future__ import annotations

import json
import os
import struct
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .align import AlignModel
from .core import Layer, Mlp
from .errors import InputError
from .fuse import FuseAdapter
from .regress import RegModel

MAGIC_ALIGN = b"DUET-ALN1"
MAGIC_REG = b"DUET-REG1"
MAGIC_FUSE = b"DUET-FUS1"


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
    """The file's bytes; InputError naming it when there is no such file."""
    p = Path(path)
    if not p.exists():
        raise InputError(f"no such file: {p}")
    return p.read_bytes()


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


def _read_lines(p: Path, data: bytes | None) -> list[str]:
    """The non-empty lines of `data`, or of the file at `p` when data is None."""
    try:
        text = (read_bytes(p) if data is None else data).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{p} is not UTF-8 text: {exc}") from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return [ln for ln in text.split("\n") if ln]


def write_matrix_tsv(path, matrix, row_ids, col_ids):
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise InputError("write_matrix_tsv needs a 2-D matrix")
    if matrix.shape[0] != len(row_ids) or matrix.shape[1] != len(col_ids):
        raise InputError("ids do not match matrix shape")
    row_ids = _writable_ids(row_ids, "row id", path)
    col_ids = _writable_ids(col_ids, "column id", path)
    row_fmt = "\t".join(["%.17g"] * matrix.shape[1])
    lines = ["id\t" + "\t".join(col_ids)]
    for rid, row in zip(row_ids, matrix):
        lines.append(rid + "\t" + row_fmt % tuple(row.tolist()))
    return write_atomic(path, "\n".join(lines) + "\n")


def read_matrix_tsv(path, data: bytes | None = None):
    """(matrix, row ids, column ids) of the TSV at `path` (or in `data`)."""
    p = Path(path)
    lines = _read_lines(p, data)
    if not lines:
        raise InputError(f"empty TSV: {p}")
    header = lines[0].split("\t")
    if header[0] != "id":
        raise InputError(f"malformed TSV header in {p}: first cell must be 'id'")
    n, body = len(header) - 1, lines[1:]
    if any(ln.count("\t") != n for ln in body):
        raise InputError(f"ragged TSV row in {p}")
    row_ids = [ln.split("\t", 1)[0] for ln in body]
    if not (n and body):
        return np.zeros((len(body), n)), row_ids, header[1:]
    try:
        matrix = np.loadtxt(body, delimiter="\t", comments=None,
                            usecols=range(1, n + 1), ndmin=2)
    except ValueError as exc:
        raise InputError(f"non-numeric cell in {p}: {exc}") from None
    return matrix, row_ids, header[1:]


def write_ids_tsv(path, ids, header: str = "id"):
    lines = [header] + _writable_ids(ids, "id", path, allow_empty=False)
    return write_atomic(path, "\n".join(lines) + "\n")


def read_ids_tsv(path, data: bytes | None = None) -> list[str]:
    p = Path(path)
    lines = _read_lines(p, data)
    if not lines:
        raise InputError(f"empty id list: {p}")
    return lines[1:]


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def _pack_mlp_dims(net: Mlp) -> bytes:
    out = struct.pack("<I", len(net.layers))
    for layer in net.layers:
        out += struct.pack("<II", *layer.weight.shape)
    return out


def _pack_mlp_params(net: Mlp) -> bytes:
    out = b""
    for layer in net.layers:
        out += layer.weight.astype("<f8").tobytes()
        out += layer.bias.astype("<f8").tobytes()
    return out


class _Reader:
    def __init__(self, blob: bytes, path):
        self.blob = blob
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise InputError(f"truncated checkpoint: {self.path}")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def f64(self) -> float:
        return float(self.f64s(1)[0])

    def f64s(self, n: int) -> np.ndarray:
        out = np.frombuffer(self.take(8 * n), dtype="<f8").astype(np.float64)
        if not np.isfinite(out).all():
            raise InputError(f"non-finite parameter in checkpoint: {self.path}")
        return out

    def done(self):
        if self.pos != len(self.blob):
            raise InputError(f"trailing bytes in checkpoint: {self.path}")


def _read_dims(r: _Reader) -> list:
    n_layers = r.u32()
    if not 0 < n_layers <= 64:
        raise InputError(f"implausible layer count in {r.path}")
    return [(r.u32(), r.u32()) for _ in range(n_layers)]


def save_align(path, model: AlignModel):
    blob = MAGIC_ALIGN
    blob += _pack_mlp_dims(model.img_head)
    blob += _pack_mlp_dims(model.gene_head)
    blob += struct.pack("<d", model.temperature)
    blob += _pack_mlp_params(model.img_head)
    blob += _pack_mlp_params(model.gene_head)
    return write_atomic(path, blob)


def _open_checkpoint(path, magic: bytes, data: bytes | None) -> _Reader:
    p = Path(path)
    blob = read_bytes(p) if data is None else data
    if blob[:len(magic)] != magic:
        raise InputError(f"bad checkpoint magic in {p}, expected {magic.decode()}")
    r = _Reader(blob, p)
    r.pos = len(magic)
    return r


def _read_mlp_with_dims(r: _Reader, dims: list) -> Mlp:
    layers = []
    for k, (out_d, in_d) in enumerate(dims):
        w = r.f64s(out_d * in_d).reshape(out_d, in_d)
        b = r.f64s(out_d)
        act = "identity" if k == len(dims) - 1 else "relu"
        layers.append(Layer(w, b, act))
    return Mlp(layers)


def load_align(path, data: bytes | None = None) -> AlignModel:
    r = _open_checkpoint(path, MAGIC_ALIGN, data)
    dims_img = _read_dims(r)
    dims_gene = _read_dims(r)
    temperature = r.f64()
    img_head = _read_mlp_with_dims(r, dims_img)
    gene_head = _read_mlp_with_dims(r, dims_gene)
    r.done()
    if img_head.out_dim != gene_head.out_dim:
        raise InputError(f"embed dims disagree in {r.path}")
    return AlignModel(img_head=img_head, gene_head=gene_head,
                      temperature=temperature, embed_dim=img_head.out_dim)


def save_reg(path, model: RegModel):
    blob = MAGIC_REG + _pack_mlp_dims(model.head) + _pack_mlp_params(model.head)
    return write_atomic(path, blob)


def load_reg(path, data: bytes | None = None) -> RegModel:
    r = _open_checkpoint(path, MAGIC_REG, data)
    head = _read_mlp_with_dims(r, _read_dims(r))
    r.done()
    return RegModel(head=head, feature_dim=head.in_dim, gene_dim=head.out_dim)


def save_fuse(path, adapter: FuseAdapter):
    blob = MAGIC_FUSE + _pack_mlp_dims(adapter.mlp)
    blob += struct.pack("<d", adapter.reg_coef)
    blob += _pack_mlp_params(adapter.mlp)
    return write_atomic(path, blob)


def load_fuse(path, data: bytes | None = None) -> FuseAdapter:
    r = _open_checkpoint(path, MAGIC_FUSE, data)
    dims = _read_dims(r)
    reg_coef = r.f64()
    if reg_coef < 0:
        raise InputError(f"negative reg_coef in checkpoint: {r.path}")
    mlp = _read_mlp_with_dims(r, dims)
    r.done()
    return FuseAdapter(mlp=mlp, reg_coef=reg_coef)


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------


def update_manifest(manifest_path, stage: str, seed: int, config: dict,
                    outputs: dict, inputs: dict):
    """Record stage completion: seed, config echo, and the {file name: sha256}
    of its outputs and inputs."""
    p = Path(manifest_path)
    if p.exists():
        manifest = json.loads(p.read_text(encoding="utf-8"))
    else:
        manifest = {"seed": seed, "config": config, "stages": {}}
    manifest["seed"] = seed
    manifest["config"] = config
    manifest["stages"][stage] = {
        "completed_at": datetime.now(timezone.utc).isoformat(),
        "outputs": dict(outputs),
        "inputs": dict(inputs),
    }
    write_atomic(p, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
