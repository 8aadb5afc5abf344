"""Artifact files: one atomic writer and one validated checkpoint format.

Every file the pipeline writes goes through ``atomic_write``, so a
failed write leaves the previous file, or none, at the path.
Checkpoints (the encoder, embedding store, index and model) are
``.npz`` archives of named arrays plus ``meta``, one canonical-JSON
record with the ``kind``, the ``format_version`` and the provenance of
the stage that wrote it, in the exact bytes of ``np.savez``.  Reading
and writing one hold no full-size temporary of a contiguous array.
Every float array must be finite: saving a non-finite one is a
``NonFiniteError``, and an object array (which ``np.savez`` would
pickle) a ``TypeError``; either writes nothing.  Loading a checkpoint
of another kind or version is a ``ConfigError``; any other fault is an
``IoFailureError`` naming the array.
"""

from __future__ import annotations

import contextlib
import json
import os
import tokenize
import zipfile
from pathlib import Path

import numpy as np

from .errors import ConfigError, IoFailureError, NonFiniteError

# What np.load and its zip reader raise on a missing, truncated or
# corrupt .npz.  A flipped header bit can name an unknown compression
# (NotImplementedError, a RuntimeError), set the encryption flag
# (RuntimeError), or break the Python literal of an array header, which
# numpy parses before the member's checksum is read.
NPZ_READ_ERRORS = (OSError, EOFError, KeyError, ValueError, RuntimeError,
                   SyntaxError, tokenize.TokenError, zipfile.BadZipFile)

# Elements per block of the finiteness check; bytes per checkpoint write.
_CHECK_BLOCK = 1 << 16
_WRITE_CHUNK = 1 << 20

# The array kinds a schema names.
_DTYPE_OK = {"float": lambda a: a.dtype == np.float64,
             "bits": lambda a: a.dtype == np.uint8 and a.max(initial=0) <= 1,
             "text": lambda a: a.dtype.kind == "U"}


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@contextlib.contextmanager
def atomic_write(path: str | Path, mode: str = "wb"):
    """A file open for writing (``"wb"``, or ``"w"`` for UTF-8 text) in
    place of ``path``: a temporary file beside it that ``os.replace``
    moves onto ``path`` when the block ends.  On any error the
    temporary file is removed; an OSError becomes IoFailureError."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        # mode 0o666 less the umask, as open(path, "w") would create it
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, mode, encoding=None if "b" in mode
                           else "utf-8") as fh:
                yield fh
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise IoFailureError(f"cannot write {path}: {exc}") from exc


def save_text(path: str | Path, text: str) -> None:
    with atomic_write(path, "w") as fh:
        fh.write(text)


def _require_finite(what: str, arr: np.ndarray,
                    error: type[Exception]) -> None:
    """``error`` naming ``what`` and the first non-finite index, if the
    float array has one; checked in blocks of its C-order elements."""
    flat = arr.reshape(-1)  # a view of a C-contiguous array
    finite = np.empty(min(flat.size, _CHECK_BLOCK), dtype=bool)
    for start in range(0, flat.size, _CHECK_BLOCK):
        block = flat[start:start + _CHECK_BLOCK]
        ok = np.isfinite(block, out=finite[:block.size])
        if not ok.all():
            where = np.unravel_index(start + np.argmin(ok), arr.shape)
            raise error(f"{what}: non-finite value at index "
                        f"{tuple(map(int, where))}")


def save_npz(path: str | Path, kind: str, version: int,
             arrays: dict[str, np.ndarray], meta: dict) -> None:
    """Write the arrays and meta record as one checkpoint; a non-finite
    float or object array is an error before any file is opened."""
    for name, arr in arrays.items():
        what = f"{kind} checkpoint {path}: array {name!r}"
        if arr.dtype.hasobject:
            raise TypeError(f"{what} is {arr.dtype}, not raw bytes")
        if arr.dtype.kind == "f":
            _require_finite(what, arr, NonFiniteError)
    record = canonical_json({**meta, "kind": kind,
                             "format_version": version}).encode("utf-8")
    with atomic_write(path) as fh, zipfile.ZipFile(
            fh, "w", zipfile.ZIP_STORED, allowZip64=True) as zf:
        for name, arr in [*arrays.items(),
                          ("meta", np.frombuffer(record, dtype=np.uint8))]:
            header = np.lib.format.header_data_from_array_1_0(arr)
            order = "F" if header["fortran_order"] else "C"
            raw = arr.ravel(order).view(np.uint8)
            with zf.open(name + ".npy", "w", force_zip64=True) as member:
                np.lib.format.write_array_header_1_0(member, header)
                for start in range(0, raw.size, _WRITE_CHUNK):
                    member.write(raw[start:start + _WRITE_CHUNK])


def load_npz(path: str | Path, kind: str, version: int,
             schema: dict[str, tuple[str, tuple[str, ...]]],
             meta_schema: dict[str, type | tuple[type, ...]] | None = None
             ) -> tuple[dict[str, np.ndarray], dict]:
    """The arrays and meta record of a ``save_npz`` checkpoint, checked.

    ``schema`` maps each array name to its kind (``"float"``: float64,
    all finite; ``"bits"``: uint8 of 0 and 1; ``"text"``: unicode) and
    one symbol per axis; a symbol has one size across all arrays.
    ``meta_schema`` maps the meta fields the caller reads to their JSON
    types.
    """
    try:
        # opened here, so the file is closed when np.load fails too
        with open(path, "rb") as fh:
            data = np.load(fh)
            if not isinstance(data, np.lib.npyio.NpzFile):
                raise ValueError("not an .npz archive")
            meta = json.loads(bytes(data["meta"]).decode("utf-8"))
            if not isinstance(meta, dict):
                raise ValueError("meta record is not a JSON object")
            found = (meta.get("kind"), meta.get("format_version"))
            if found != (kind, version):
                raise ConfigError(f"{path} is not a {kind} checkpoint of "
                                  f"version {version}: found {found}")
            arrays = {name: data[name] for name in schema}
    except NPZ_READ_ERRORS as exc:
        raise IoFailureError(
            f"cannot read {kind} checkpoint {path}: {exc}") from exc
    for key, types in (meta_schema or {}).items():
        if not isinstance(meta.get(key), types):
            raise IoFailureError(f"{kind} checkpoint {path}: meta field "
                                 f"{key!r} is {meta.get(key)!r}")
    sizes: dict[str, int] = {}
    for name, (dtype, dims) in schema.items():
        arr = arrays[name]
        what = f"{kind} checkpoint {path}: array {name!r}"
        if arr.ndim != len(dims) or any(
                sizes.setdefault(d, n) != n for d, n in zip(dims, arr.shape)):
            raise IoFailureError(f"{what} has shape {arr.shape}, expected "
                                 f"({', '.join(dims)}) with {sizes}")
        if not _DTYPE_OK[dtype](arr):
            raise IoFailureError(f"{what} is {arr.dtype}, not {dtype}")
        if dtype == "float":
            _require_finite(what, arr, IoFailureError)
    return arrays, meta
