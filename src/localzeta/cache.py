"""Caching of enumerated group tables.

Two layers: a process-level memo (tables are immutable, so sharing is
safe), and an optional on-disk store under ``ZETA_CACHE_DIR``.  An entry
is one file: an 8-byte little-endian length, a JSON header of that
length, and one little-endian int32 buffer with the arrays the header
lists, by name and shape, in order.  A table enumerated over its level
below is stored as its ``LiftRecord`` and derived from it on load by the
route a fresh enumeration takes, so a store never builds its matrices;
any other table stores its matrices, inverses and rho.  One sha256
covers the buffer, the names and shapes, and the provenance, name and
dim_scheme of the table; an entry that fails validation is discarded
with a warning and recomputed, never trusted.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import sys
import tempfile

import numpy as np

from .groups import (ENUM_CAP, Family, GroupTable, LiftRecord, TooLarge,
                     has_tower)

FORMAT_VERSION = 5

_memo = {}

# the arrays of a table with no kernel; every entry adds gen_mats
_FLAT_ARRAYS = ("mats", "inv", "rho")


def as_family(obj) -> Family:
    return obj if isinstance(obj, Family) else Family(obj)


def clear_memo():
    _memo.clear()


def _memo_key(fam: Family, ring):
    return (fam.text, ring.key())


def _disk_key(fam: Family, ring) -> str:
    payload = json.dumps(
        [
            FORMAT_VERSION,
            fam.text,
            fam.struct_hash(),
            ring.literal,
        ],
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


def _entry_hash(shapes, chunks, provenance, name, dim_scheme):
    """sha256 over the buffer, in chunks, and every header field the
    loader uses."""
    h = hashlib.sha256(
        json.dumps([shapes, provenance, name, dim_scheme]).encode())
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _cache_path(fam, ring):
    root = os.environ.get("ZETA_CACHE_DIR")
    if not root:
        return None
    return os.path.join(root, f"table-{_disk_key(fam, ring)}.bin")


def _load_disk(fam: Family, ring):
    path = _cache_path(fam, ring)
    if path is None or not os.path.exists(path):
        return None
    try:
        want = {
            "version": FORMAT_VERSION,
            "family": fam.text,
            "struct": fam.struct_hash(),
            "ring": ring.literal,
        }
        with open(path, "rb") as fh:
            header = json.loads(fh.read(int.from_bytes(fh.read(8), "little")))
            # the fields are checked before the arrays are read: an entry
            # of another format is reported as such
            for key, val in want.items():
                if header.get(key) != val:
                    raise ValueError(f"header field {key} does not match")
            buf = np.fromfile(fh, dtype="<i4")
        shapes, provenance = header["arrays"], header["provenance"]
        if header["sha256"] != _entry_hash(shapes, [buf], provenance,
                                           header["name"],
                                           header["dim_scheme"]):
            raise ValueError("content hash mismatch")
        names = LiftRecord.ARRAYS if has_tower(ring) else _FLAT_ARRAYS
        if [key for key, _ in shapes] != [*names, "gen_mats"]:
            raise ValueError("the stored arrays are not those of the table")
        arrays, at = {}, 0
        for key, shape in shapes:
            arrays[key] = buf[at:at + math.prod(shape)].reshape(shape)
            at += arrays[key].size
        generators = [(tuple(prov), g) for prov, g in
                      zip(provenance, arrays.pop("gen_mats"))]
        if has_tower(ring):
            return LiftRecord(ring, **arrays).table(
                generators, header["name"], header["dim_scheme"])
        return GroupTable(ring, arrays["mats"], arrays["inv"].astype(np.int64),
                          arrays["rho"], generators, header["name"],
                          header["dim_scheme"])
    except Exception as exc:  # corrupted entry: recompute, never trust
        sys.stderr.write(f"warning: discarding cache entry {path}: {exc}\n")
        return None


def _store_disk(fam: Family, ring, table: GroupTable):
    path = _cache_path(fam, ring)
    if path is None:
        return
    tmp = None
    try:
        root = os.path.dirname(path)
        os.makedirs(root, exist_ok=True)
        arrays = table.record.arrays() if table.record is not None else {
            key: getattr(table, key) for key in _FLAT_ARRAYS}
        # np.stack refuses the empty list of a one-element table
        arrays["gen_mats"] = np.array([g for _, g in table.generators],
                                      dtype=np.int32)
        shapes = [[key, list(arr.shape)] for key, arr in arrays.items()]
        chunks = [np.ascontiguousarray(arr, dtype="<i4")
                  for arr in arrays.values()]
        provenance = [list(p) for p, _ in table.generators]
        header = json.dumps({
            "version": FORMAT_VERSION,
            "family": fam.text,
            "struct": fam.struct_hash(),
            "ring": ring.literal,
            "name": table.name,
            "dim_scheme": table.dim_scheme,
            "provenance": provenance,
            "arrays": shapes,
            "sha256": _entry_hash(shapes, chunks, provenance, table.name,
                                  table.dim_scheme),
        }, sort_keys=True).encode()
        fd, tmp = tempfile.mkstemp(
            dir=root, prefix=os.path.basename(path) + ".", suffix=".tmp"
        )
        with os.fdopen(fd, "wb") as fh:
            fh.write(len(header).to_bytes(8, "little") + header)
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
        tmp = None
    except OSError as exc:  # cache is best-effort
        sys.stderr.write(f"warning: could not write cache {path}: {exc}\n")
    finally:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.remove(tmp)


def table_for(family, ring, cap=ENUM_CAP) -> GroupTable:
    """Enumerate (or fetch) the table of a family over a ring.

    On a miss, level m >= 2 of ``zq`` or ``fqt`` is enumerated over the
    level-(m-1) table, fetched through table_for once the order law allows
    the cap; a memo or disk hit fetches nothing below."""
    fam = as_family(family)
    key = _memo_key(fam, ring)
    table = _memo.get(key)
    if table is None:
        table = _load_disk(fam, ring)
        if table is None:
            fam.check_cap(ring, cap)
            lower = None
            if has_tower(ring):
                lower = table_for(fam, ring.subring_level(ring.m - 1), cap)
            table = fam.table(ring, cap=cap, lower=lower)
            _store_disk(fam, ring, table)
        _memo[key] = table
    # a table stored under a larger cap must not slip past this one
    if table.size > cap:
        raise TooLarge(
            f"group {table.name} exceeded cap: its stored table has "
            f"{table.size} elements"
        )
    return table
