"""Caching of enumerated group tables.

Two layers: a process-level memo (tables are immutable, so sharing is
safe), and an optional on-disk store under ``ZETA_CACHE_DIR``.  Disk
entries carry a versioned header plus a content hash; anything that fails
validation is discarded with a warning and recomputed, never trusted.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
import tempfile

import numpy as np

from .groups import ENUM_CAP, Family, Fibres, GroupTable, TooLarge, has_tower

FORMAT_VERSION = 4

_memo = {}

# the arrays of a stored table, all covered by its content hash; a table
# enumerated over its level below adds its kernel coordinates
_ARRAYS = ("mats", "inv", "rho", "gen_mats")
_FIBRE_ARRAYS = ("res", "adj")


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


def _blob_hash(arrays, provenance, name, dim_scheme):
    """sha256 over every array and header field that the loader uses."""
    h = hashlib.sha256()
    for key in sorted(arrays):
        arr = np.ascontiguousarray(arrays[key])
        h.update(f"{key} {arr.dtype.str} {arr.shape}".encode())
        h.update(arr.tobytes())
    h.update(json.dumps([provenance, name, dim_scheme]).encode())
    return h.hexdigest()


def _cache_path(fam, ring):
    root = os.environ.get("ZETA_CACHE_DIR")
    if not root:
        return None
    return os.path.join(root, f"table-{_disk_key(fam, ring)}.npz")


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
        with np.load(path, allow_pickle=False) as blob:
            header = json.loads(bytes(blob["header"]).decode())
            # the fields are checked before the header says which arrays
            # there are: an entry of another format is reported as such
            for key, val in want.items():
                if header.get(key) != val:
                    raise ValueError(f"header field {key} does not match")
            names = _ARRAYS + (_FIBRE_ARRAYS if header["fibres"] else ())
            arrays = {key: blob[key] for key in names}
        digest = _blob_hash(
            arrays, header["provenance"], header["name"], header["dim_scheme"]
        )
        if header["blob_sha256"] != digest:
            raise ValueError("content hash mismatch")
        generators = [
            (tuple(prov), g)
            for prov, g in zip(header["provenance"], arrays["gen_mats"])
        ]
        fibres = None
        if header["fibres"]:
            fibres = Fibres(ring.p, arrays["res"], arrays["adj"])
        return GroupTable(
            ring,
            arrays["mats"],
            arrays["inv"],
            arrays["rho"],
            generators,
            header["name"],
            header["dim_scheme"],
            fibres,
        )
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
        arrays = {
            "mats": table.mats,
            "inv": table.inv,
            "rho": table.rho,
            # np.stack refuses the empty list of a one-element table
            "gen_mats": np.array([g for _, g in table.generators],
                                 dtype=np.int32),
        }
        fib = table.fibres
        if fib is not None:
            arrays.update(res=fib.res, adj=fib.adj)
        provenance = [list(p) for p, _ in table.generators]
        header = {
            "version": FORMAT_VERSION,
            "family": fam.text,
            "struct": fam.struct_hash(),
            "ring": ring.literal,
            "name": table.name,
            "dim_scheme": table.dim_scheme,
            "size": table.size,
            "fibres": fib is not None,
            "provenance": provenance,
            "blob_sha256": _blob_hash(
                arrays, provenance, table.name, table.dim_scheme
            ),
        }
        fd, tmp = tempfile.mkstemp(
            dir=root, prefix=os.path.basename(path) + ".", suffix=".tmp"
        )
        with os.fdopen(fd, "wb") as fh:
            np.savez(
                fh,
                header=np.frombuffer(
                    json.dumps(header, sort_keys=True).encode(), dtype=np.uint8
                ),
                **arrays,
            )
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
