"""The columnar on-disk segment format of the signature history store.

One segment holds one or more complete windows of signatures in a single
immutable file, laid out for zero-copy reads:

* an **interning table** mapping the segment's node labels to dense integer
  ids (a UTF-8 blob plus an offsets column, so non-ASCII labels survive
  byte-exactly);
* a **row table** — one numpy *structured* record per stored signature:
  ``(owner, window, start, count)`` with ``owner`` indexing the interning
  table and ``start``/``count`` slicing the entry columns CSR-style;
* the **entry columns** ``keys`` (interned node ids) and ``values``
  (float64 weights) shared by all rows;
* precomputed **LSH band hashes** per row (:mod:`repro.store.index`), which
  is what makes time-travel queries sub-linear without re-sketching history.

The file is ``magic | header-length | header JSON | aligned array blobs``.
A reader maps the file once, read-only, and takes each array as a view at
its 64-byte-aligned offset — opening a multi-gigabyte segment costs one page
of header I/O and one file descriptor, and a query touches only the rows it
slices.  Weights round-trip bit-exactly (raw float64, no decimal detour),
which is what lets checkpoints keep the pipeline's byte-identical resume
contract.

Segments are written atomically via :func:`repro.ioutils.atomic_write` and
identified by the SHA-256 of their bytes; a truncated or bit-rotted file
fails :func:`read_segment` (or its manifest hash check) instead of decoding
into plausible-but-wrong signatures.
"""

from __future__ import annotations

import json
import math
import mmap
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.signature import Signature
from repro.exceptions import StoreError
from repro.ioutils import atomic_write, bytes_sha256, fsync_dir

#: File magic; bumping the trailing digits is a format break.
SEGMENT_MAGIC = b"RSEG0001"

#: Format version stamped into every header.
SEGMENT_VERSION = 1

#: Canonical file suffix for standalone segment files.
SEGMENT_SUFFIX = ".rseg"

#: Alignment of every array blob inside the file (mmap-friendly).
_ALIGN = 64

#: One stored signature: owner label id, window index, CSR slice of entries.
ROW_DTYPE = np.dtype(
    [("owner", "<i8"), ("window", "<i8"), ("start", "<i8"), ("count", "<i8")]
)

#: The array columns of a segment, in file order.
_COLUMNS = ("label_bytes", "label_offsets", "rows", "keys", "values", "bands")

_DTYPES = {
    "label_bytes": np.dtype("u1"),
    "label_offsets": np.dtype("<i8"),
    "rows": ROW_DTYPE,
    "keys": np.dtype("<i8"),
    "values": np.dtype("<f8"),
    "bands": np.dtype("<u8"),
}


@dataclass(frozen=True)
class WindowBlock:
    """Header metadata for one window stored in a segment."""

    window: int
    row_start: int
    row_stop: int
    mode: str
    meta: Dict


def _pad(length: int) -> int:
    return (-length) % _ALIGN


def encode_segment(
    windows: Sequence[Tuple[int, Mapping[str, Signature]]],
    *,
    metas: Optional[Mapping[int, Mapping]] = None,
    modes: Optional[Mapping[int, str]] = None,
    index_params: Optional["object"] = None,
) -> bytes:
    """Serialize complete windows into one immutable segment blob.

    ``windows`` is a sequence of ``(window_index, {owner: Signature})``
    pairs; owners within a window are stored in sorted label order so the
    encoding is a pure function of its content (equal inputs give equal
    bytes, hence equal hashes).  ``index_params`` — an
    :class:`repro.store.index.IndexParams` — enables the per-row LSH band
    columns; ``None`` stores an empty band table (queries then fall back to
    brute force on this segment).
    """
    label_ids: Dict[str, int] = {}
    label_list: List[str] = []

    def intern(label: object) -> int:
        if not isinstance(label, str):
            raise StoreError(
                f"history segments require string node labels, "
                f"got {type(label).__name__}"
            )
        idx = label_ids.get(label)
        if idx is None:
            idx = label_ids[label] = len(label_list)
            label_list.append(label)
        return idx

    seen_windows = set()
    row_records: List[Tuple[int, int, int, int]] = []
    key_parts: List[int] = []
    value_parts: List[float] = []
    blocks: List[Dict] = []
    for window, signatures in windows:
        window = int(window)
        if window < 0:
            raise StoreError(f"window indices must be >= 0, got {window}")
        if window in seen_windows:
            raise StoreError(f"window {window} appears twice in one segment")
        seen_windows.add(window)
        row_start = len(row_records)
        for owner in sorted(signatures):
            signature = signatures[owner]
            if signature.owner != owner:
                raise StoreError(
                    f"map key {owner!r} does not match signature owner "
                    f"{signature.owner!r}"
                )
            start = len(key_parts)
            for node, weight in signature.entries:
                key_parts.append(intern(node))
                value_parts.append(float(weight))
            row_records.append(
                (intern(owner), window, start, len(key_parts) - start)
            )
        meta = dict((metas or {}).get(window, {}) or {})
        mode = str((modes or {}).get(window, "exact"))
        blocks.append(
            {
                "window": window,
                "rows": [row_start, len(row_records)],
                "mode": mode,
                "meta": meta,
            }
        )

    encoded_labels = [label.encode("utf-8") for label in label_list]
    label_blob = b"".join(encoded_labels)
    label_offsets = np.zeros(len(label_list) + 1, dtype="<i8")
    if encoded_labels:
        label_offsets[1:] = np.cumsum([len(blob) for blob in encoded_labels])
    rows = np.array(row_records, dtype=ROW_DTYPE) if row_records else np.empty(
        0, dtype=ROW_DTYPE
    )
    keys = np.asarray(key_parts, dtype="<i8")
    values = np.asarray(value_parts, dtype="<f8")

    index_header: Dict = {"bands": 0, "rows_per_band": 0, "seed": 0}
    if index_params is not None:
        from repro.store.index import band_hashes_for_rows

        bands = band_hashes_for_rows(
            label_list, keys, rows["start"], rows["count"], index_params
        )
        index_header = {
            "bands": int(index_params.bands),
            "rows_per_band": int(index_params.rows_per_band),
            "seed": int(index_params.seed),
        }
    else:
        bands = np.empty((len(rows), 0), dtype="<u8")

    arrays = {
        "label_bytes": np.frombuffer(label_blob, dtype="u1"),
        "label_offsets": label_offsets,
        "rows": rows,
        "keys": keys,
        "values": values,
        "bands": np.ascontiguousarray(bands, dtype="<u8"),
    }

    header: Dict = {
        "version": SEGMENT_VERSION,
        "windows": blocks,
        "index": index_header,
        "counts": {
            "labels": len(label_list),
            "rows": len(rows),
            "entries": len(keys),
        },
        "arrays": {},
    }
    # Two-pass header layout: sizes are known, offsets depend on the header
    # length, which depends on the offsets' digits.  Fix the header size by
    # padding the serialized JSON to its aligned length.
    shapes = {
        name: list(arrays[name].shape) for name in _COLUMNS
    }
    for _attempt in range(3):
        offset = len(SEGMENT_MAGIC) + 8 + len(_header_bytes(header))
        offset += _pad(offset)
        for name in _COLUMNS:
            nbytes = int(arrays[name].nbytes)
            header["arrays"][name] = {
                "shape": shapes[name],
                "offset": offset,
                "nbytes": nbytes,
            }
            offset += nbytes + _pad(nbytes)
        # Re-check: did writing the offsets change the header length?
        new_start = len(SEGMENT_MAGIC) + 8 + len(_header_bytes(header))
        new_start += _pad(new_start)
        if header["arrays"][_COLUMNS[0]]["offset"] == new_start:
            break
    else:  # pragma: no cover - offsets converge within two passes
        raise StoreError("segment header layout failed to converge")

    header_blob = _header_bytes(header)
    parts = [
        SEGMENT_MAGIC,
        len(header_blob).to_bytes(8, "little"),
        header_blob,
        b"\0" * _pad(len(SEGMENT_MAGIC) + 8 + len(header_blob)),
    ]
    for name in _COLUMNS:
        blob = arrays[name].tobytes()
        parts.append(blob)
        parts.append(b"\0" * _pad(len(blob)))
    return b"".join(parts)


def _header_bytes(header: Mapping) -> bytes:
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")


def write_segment(
    path: str | Path,
    windows: Sequence[Tuple[int, Mapping[str, Signature]]],
    *,
    metas: Optional[Mapping[int, Mapping]] = None,
    modes: Optional[Mapping[int, str]] = None,
    index_params=None,
) -> str:
    """Atomically write a segment file; returns the hex SHA-256 of its bytes."""
    payload = encode_segment(
        windows, metas=metas, modes=modes, index_params=index_params
    )
    with atomic_write(path, "wb") as handle:
        handle.write(payload)
    return bytes_sha256(payload)


class Segment:
    """A read-only view over one segment file, mapped once.

    Every column is a read-only numpy view into the one mapping, which is
    released (with its file descriptor) when the segment and every array
    taken from it are garbage.

    Decoding is lazy and columnar: opening parses the JSON header only,
    the interning table is decoded once on first use,
    :meth:`signatures_for_window` touches just that window's row slice, and
    the band-hash table never materialises signatures at all.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        try:
            with open(self.path, "rb") as handle:
                magic = handle.read(len(SEGMENT_MAGIC))
                if magic != SEGMENT_MAGIC:
                    raise StoreError(f"{self.path}: not a signature segment file")
                length_bytes = handle.read(8)
                if len(length_bytes) != 8:
                    raise StoreError(f"{self.path}: truncated segment header")
                header_len = int.from_bytes(length_bytes, "little")
                header_blob = handle.read(header_len)
                if len(header_blob) != header_len:
                    raise StoreError(f"{self.path}: truncated segment header")
                try:
                    self.header = json.loads(header_blob.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                    raise StoreError(
                        f"{self.path}: unreadable segment header: {exc}"
                    ) from exc
                mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except OSError as exc:
            raise StoreError(f"{self.path}: cannot open segment: {exc}") from exc
        if self.header.get("version") != SEGMENT_VERSION:
            raise StoreError(
                f"{self.path}: unsupported segment version "
                f"{self.header.get('version')!r}"
            )
        self._arrays: Dict[str, np.ndarray] = {}
        for name in _COLUMNS:
            spec = self.header["arrays"].get(name)
            if spec is None:
                raise StoreError(f"{self.path}: segment header missing column {name}")
            shape = tuple(int(dim) for dim in spec["shape"])
            offset, nbytes = int(spec["offset"]), int(spec["nbytes"])
            if offset + nbytes > len(mapped):
                raise StoreError(
                    f"{self.path}: truncated segment (column {name} reaches "
                    f"{offset + nbytes} bytes of {len(mapped)})"
                )
            if math.prod(shape) * _DTYPES[name].itemsize != nbytes:
                raise StoreError(
                    f"{self.path}: column {name} shape {list(shape)} does not "
                    f"fill its {nbytes} bytes"
                )
            self._arrays[name] = np.frombuffer(
                mapped, dtype=_DTYPES[name], count=math.prod(shape), offset=offset
            ).reshape(shape)
        self.blocks: List[WindowBlock] = [
            WindowBlock(
                window=int(block["window"]),
                row_start=int(block["rows"][0]),
                row_stop=int(block["rows"][1]),
                mode=str(block.get("mode", "exact")),
                meta=dict(block.get("meta", {})),
            )
            for block in self.header.get("windows", [])
        ]
        self._by_window = {block.window: block for block in self.blocks}
        self._labels: Optional[List[str]] = None
        self._label_index: Optional[Dict[str, int]] = None

    # ------------------------------------------------------------------
    # Columns
    # ------------------------------------------------------------------
    @property
    def rows(self) -> np.ndarray:
        """The structured row table ``(owner, window, start, count)``."""
        return self._arrays["rows"]

    @property
    def band_hashes(self) -> np.ndarray:
        """Per-row LSH band hashes, shape ``(rows, bands)``."""
        return self._arrays["bands"]

    @property
    def num_rows(self) -> int:
        return int(self._arrays["rows"].shape[0])

    @property
    def num_labels(self) -> int:
        return int(self._arrays["label_offsets"].shape[0]) - 1

    @property
    def nbytes(self) -> int:
        return int(os.path.getsize(self.path))

    def windows(self) -> List[int]:
        return [block.window for block in self.blocks]

    # ------------------------------------------------------------------
    # Label interning table
    # ------------------------------------------------------------------
    def labels(self) -> List[str]:
        """All interned labels, in table order (decoded once, then cached)."""
        if self._labels is None:
            blob = bytes(self._arrays["label_bytes"])
            offsets = self._arrays["label_offsets"].tolist()
            self._labels = [
                blob[lo:hi].decode("utf-8") for lo, hi in zip(offsets, offsets[1:])
            ]
        return self._labels

    def label(self, label_id: int) -> str:
        """Decode one interned label."""
        if not 0 <= label_id < self.num_labels:
            raise StoreError(
                f"{self.path}: label id {label_id} out of range "
                f"[0, {self.num_labels})"
            )
        return self.labels()[label_id]

    def label_id(self, label: str) -> Optional[int]:
        """Interned id of ``label``, or ``None`` when absent."""
        if self._label_index is None:
            self._label_index = {name: i for i, name in enumerate(self.labels())}
        return self._label_index.get(label)

    # ------------------------------------------------------------------
    # Rows -> signatures
    # ------------------------------------------------------------------
    def _decode(self, rows: np.ndarray) -> List[Signature]:
        """Materialise the signatures of a slice of the row table.

        The slice's entry columns are converted to Python values once, not
        element by element, so decoding costs about what building the
        :class:`Signature` objects does.
        """
        if len(rows) == 0:
            return []
        labels = self.labels()
        owners = rows["owner"].tolist()
        starts = rows["start"].tolist()
        counts = rows["count"].tolist()
        base = min(starts)
        stop = max(start + count for start, count in zip(starts, counts))
        keys = self._arrays["keys"][base:stop].tolist()
        values = self._arrays["values"][base:stop].tolist()
        ids = owners + keys
        if min(ids) < 0 or max(ids) >= len(labels):
            raise StoreError(
                f"{self.path}: label id out of range [0, {len(labels)})"
            )
        decoded = []
        for owner, start, count in zip(owners, starts, counts):
            lo = start - base
            entries = zip(keys[lo : lo + count], values[lo : lo + count])
            decoded.append(
                Signature(labels[owner], {labels[key]: value for key, value in entries})
            )
        return decoded

    def signature_at(self, row: int) -> Signature:
        """Materialise the signature stored in row ``row``."""
        return self._decode(self._arrays["rows"][row : row + 1])[0]

    def window_row_range(self, window: int) -> Tuple[int, int]:
        """Row slice ``[lo, hi)`` of ``window``; ``(0, 0)`` when absent."""
        block = self._by_window.get(int(window))
        if block is None:
            return (0, 0)
        return (block.row_start, block.row_stop)

    def signatures_for_window(self, window: int) -> Dict[str, Signature]:
        """All signatures of one window, keyed by owner label."""
        lo, hi = self.window_row_range(window)
        rows = self._arrays["rows"][lo:hi]
        return {signature.owner: signature for signature in self._decode(rows)}

    def meta_for(self, window: int) -> Dict:
        block = self._by_window.get(int(window))
        return dict(block.meta) if block is not None else {}

    def mode_for(self, window: int) -> str:
        block = self._by_window.get(int(window))
        return block.mode if block is not None else "exact"

    def rows_for_owner(
        self, owner: str, start: Optional[int] = None, stop: Optional[int] = None
    ) -> List[int]:
        """Row indices holding ``owner``'s signature, window-ascending.

        The owner match is one vectorized compare over the interned owner
        column — no label decoding, no signature materialisation.
        """
        owner_id = self.label_id(owner)
        if owner_id is None:
            return []
        rows = self._arrays["rows"]
        mask = rows["owner"] == owner_id
        if start is not None:
            mask &= rows["window"] >= int(start)
        if stop is not None:
            mask &= rows["window"] < int(stop)
        matched = np.flatnonzero(mask)
        order = np.argsort(rows["window"][matched], kind="stable")
        return [int(row) for row in matched[order]]


def read_segment(path: str | Path) -> Segment:
    """Open a segment file for reading (raises :class:`StoreError` if bad)."""
    return Segment(path)


def remove_segment(path: str | Path) -> None:
    """Delete a segment file and make the deletion durable."""
    try:
        os.unlink(path)
    except FileNotFoundError:
        return
    fsync_dir(os.path.dirname(os.fspath(path)) or ".")
