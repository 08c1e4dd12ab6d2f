"""Binary weight archive: a flat, bit-exact record stream.

Layout (all integers little-endian, no padding anywhere):

    magic   4 bytes  b"FWAD"
    version u32      currently 1
    count   u32      number of records
    record: name_len u16, name UTF-8 bytes,
            dtype u8 (0 = float32, 1 = float16),
            rank u8, extents u32 x rank,
            raw little-endian element data

Records hold every parameter followed by every persistent buffer
(batch-norm running statistics), each in model enumeration order, so
save -> load -> save round-trips byte-identically.  Every element must be
finite: saving a value that is not, or that overflows the element type
(beyond +-65504 for f16), and loading an archive that holds NaN or infinity
both raise :class:`ArchiveError`.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .nn import Module

MAGIC = b"FWAD"
VERSION = 1

_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f2")}
_PRECISION_TO_CODE = {"f32": 0, "f16": 1}


class ArchiveError(ValueError):
    """The byte stream or its pairing with a model violates the format."""


def model_records(model: Module) -> list[tuple[str, np.ndarray]]:
    """(name, array) pairs in archive order: parameters, then buffers."""
    records = [(name, p.data) for name, p in model.named_parameters()]
    records += [(name, buf) for name, buf in model.named_buffers()]
    names = [n for n, _ in records]
    if len(set(names)) != len(names):
        raise ArchiveError("duplicate record names in model")
    return records


def save_records(records: list[tuple[str, np.ndarray]], precision: str = "f32") -> bytes:
    """Serialize (name, array) pairs to archive bytes."""
    if precision not in _PRECISION_TO_CODE:
        raise ArchiveError(f"precision must be 'f32' or 'f16', got {precision!r}")
    code = _PRECISION_TO_CODE[precision]
    dtype = _DTYPE_CODES[code]
    limit = np.finfo(dtype).max
    out = bytearray()
    out += MAGIC
    out += struct.pack("<II", VERSION, len(records))
    for name, arr in records:
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise ArchiveError(f"record name too long: {name[:40]}...")
        if not np.all(np.abs(arr) <= limit):  # also false for NaN
            raise ArchiveError(f"record {name!r}: values must be finite and within "
                               f"+-{limit:g} to store as {precision}")
        out += struct.pack("<H", len(encoded))
        out += encoded
        out += struct.pack("<BB", code, arr.ndim)
        out += struct.pack(f"<{arr.ndim}I", *arr.shape)
        out += np.ascontiguousarray(arr, dtype=dtype).tobytes()
    return bytes(out)


def load_records(data: bytes) -> list[tuple[str, np.ndarray]]:
    """Parse archive bytes into (name, array) pairs; sizes are exact integer products."""
    view = memoryview(data)
    if len(view) < 12:
        raise ArchiveError(f"truncated archive: {len(view)} bytes, header needs 12")
    if bytes(view[:4]) != MAGIC:
        raise ArchiveError(f"bad magic {bytes(view[:4])!r}, expected {MAGIC!r}")
    version, count = struct.unpack_from("<II", view, 4)
    if version != VERSION:
        raise ArchiveError(f"unsupported archive version {version}, expected {VERSION}")
    pos = 12
    records: list[tuple[str, np.ndarray]] = []
    for i in range(count):
        try:
            (name_len,) = struct.unpack_from("<H", view, pos)
            pos += 2
            if len(view) < pos + name_len:
                raise struct.error("name overruns buffer")
            name = bytes(view[pos: pos + name_len]).decode("utf-8")
            pos += name_len
            code, rank = struct.unpack_from("<BB", view, pos)
            pos += 2
            shape = struct.unpack_from(f"<{rank}I", view, pos)
            pos += 4 * rank
        except struct.error as exc:
            raise ArchiveError(f"truncated archive in record {i} header: {exc}") from exc
        except UnicodeDecodeError:
            raise ArchiveError(f"record {i}: name is not UTF-8") from None
        if code not in _DTYPE_CODES:
            raise ArchiveError(f"record {i} ({name!r}): unknown dtype code {code}")
        dtype = _DTYPE_CODES[code]
        nbytes = math.prod(shape) * dtype.itemsize
        if len(view) < pos + nbytes:
            raise ArchiveError(
                f"truncated archive in record {i} ({name!r}): "
                f"need {nbytes} data bytes, have {len(view) - pos}")
        arr = np.frombuffer(view[pos: pos + nbytes], dtype=dtype).reshape(shape)
        if not np.isfinite(arr).all():
            raise ArchiveError(f"record {i} ({name!r}): non-finite values")
        pos += nbytes
        records.append((name, arr))
    if pos != len(view):
        raise ArchiveError(f"{len(view) - pos} trailing bytes after last record")
    return records


def save_weights(model: Module, precision: str = "f32") -> bytes:
    """Serialize a model's parameters and buffers."""
    return save_records(model_records(model), precision)


def load_weights(data: bytes, model: Module) -> None:
    """Load archive bytes into a model.

    The archive must carry exactly the model's records, in order, with
    matching shapes, and no BatchNorm running variance may be negative (its
    square root would be NaN).  Validation happens before any mutation, so a
    mismatch leaves the model untouched.
    """
    loaded = load_records(data)
    expected = model_records(model)
    if len(loaded) != len(expected):
        raise ArchiveError(
            f"record count mismatch: archive has {len(loaded)}, model has {len(expected)}")
    for i, ((got_name, got_arr), (want_name, want_arr)) in enumerate(zip(loaded, expected)):
        if got_name != want_name:
            raise ArchiveError(f"record {i}: archive has {got_name!r}, model expects {want_name!r}")
        if got_arr.shape != want_arr.shape:
            raise ArchiveError(
                f"record {i} ({got_name!r}): shape {got_arr.shape} != model {want_arr.shape}")
        if got_name.rsplit(".", 1)[-1] == "running_var" and (got_arr < 0).any():
            raise ArchiveError(f"record {i} ({got_name!r}): negative running variance")
    for (_, got_arr), (_, want_arr) in zip(loaded, expected):
        np.copyto(want_arr, got_arr)
