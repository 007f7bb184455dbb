"""The one byte format at every process and disk boundary.

The paper's ranks exchange plain numeric buffers only: an allgather of
orbital coefficients and an allreduce of exchange contributions.  Every
message and file this package hands across a boundary — lane frames
(:mod:`repro.service.transport`), HFX pool pipes
(:mod:`repro.runtime.pool`) and checkpoint snapshots
(:mod:`repro.runtime.checkpoint`) — is the same kind of thing and goes
through :func:`encode` / :func:`decode`.

Layout::

    tlen     table byte count       4-byte little-endian unsigned
    rlen     root byte count        4-byte little-endian unsigned
    table    ASCII JSON             [[dtype, shape], ...]
    root     ASCII JSON             the value
    data     the arrays' bytes      back to back, in table order

``root`` is the value as JSON, with single-key tagged objects for what
JSON lacks: ``{"$t": [...]}`` a tuple, ``{"$f": "7ff0000000000000"}`` a
non-finite float by its big-endian IEEE bits, ``{"$a": i}`` /
``{"$s": i}`` / ``{"$b": i}`` the ``i``-th table entry as an ndarray /
numpy scalar / ``bytes``, and ``{"$r": [name, fields]}`` a record.
Table entries are little-endian numeric arrays, read back with
``np.frombuffer`` and copied out (each decoded array is writable and
owns its memory).

Admitted: ``None``, ``bool``, ``int`` (any size), ``float`` (-0.0,
±inf and every nan bit-exact), ``str``, ``bytes``, ``list``, ``tuple``,
``dict`` with ``str`` keys, numeric ndarrays and numpy scalars, and the
records of :data:`RECORDS` — :class:`~repro.chem.molecule.Molecule`,
:class:`~repro.basis.basisset.BasisSet` and a tracer-less
:class:`~repro.runtime.execconfig.ExecutionConfig` — each rebuilt on
decode through its own constructor, so the constructor's validation
runs.  Everything else is refused at encode (object dtypes, non-``str``
keys, a key equal to a tag).  :func:`decode` raises :class:`CodecError`
and nothing else; it imports nothing and calls nothing outside the
record table, so no byte read from a socket, pipe or disk runs code.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import fields

import numpy as np

from ..basis.basisset import BasisSet
from ..basis.shell import Shell
from ..chem.molecule import Molecule
from .execconfig import ExecutionConfig

__all__ = ["CodecError", "encode", "decode", "RECORDS"]

_LENS = struct.Struct("<II")

#: Keys of the tagged objects; a user dict may not use them.
TAGS = frozenset({"$t", "$f", "$a", "$s", "$b", "$r"})

#: The array dtypes the table carries (little-endian numeric only).
_DTYPES = frozenset({"|b1", "|i1", "|u1", "<i2", "<u2", "<i4", "<u4",
                     "<i8", "<u8", "<f2", "<f4", "<f8", "<c8", "<c16"})

_F64 = struct.Struct(">d")


def _refuse_constant(name):
    raise CodecError(f"non-JSON constant {name} in the header")


_to_json = json.JSONEncoder(separators=(",", ":"), allow_nan=False).encode
_from_json = json.JSONDecoder(parse_constant=_refuse_constant).decode

#: Values JSON carries as they are (finite floats are checked inline).
_PLAIN = frozenset({type(None), bool, int, str})


class CodecError(ValueError):
    """A value the codec refuses to encode, or bytes it cannot decode."""


# --- records ------------------------------------------------------------------

def _molecule_fields(mol: Molecule) -> dict:
    return {"numbers": mol.numbers, "coords": mol.coords,
            "charge": int(mol.charge),
            "multiplicity": int(mol.multiplicity), "name": str(mol.name)}


def _molecule(f: dict) -> Molecule:
    return Molecule(_array(f["numbers"], "i"), _array(f["coords"], "f"),
                    _typed(f["charge"], int), _typed(f["multiplicity"], int),
                    _typed(f["name"], str))


def _basis_fields(basis: BasisSet) -> dict:
    shells = basis.shells
    return {"molecule": basis.molecule, "name": basis.name,
            "l": np.array([sh.l for sh in shells], dtype=np.int64),
            "atom": np.array([sh.atom for sh in shells], dtype=np.int64),
            "nprim": np.array([sh.nprim for sh in shells], dtype=np.int64),
            "exps": np.concatenate([sh.exps for sh in shells] or [[]]),
            "coefs": np.concatenate([sh.coefs for sh in shells] or [[]]),
            "centers": np.array([sh.center for sh in shells],
                                dtype=np.float64).reshape(-1, 3)}


def _basis(f: dict) -> BasisSet:
    mol = _typed(f["molecule"], Molecule)
    ls, atoms, nprim = (_array(f[k], "i") for k in ("l", "atom", "nprim"))
    exps, coefs, centers = (_array(f[k], "f")
                            for k in ("exps", "coefs", "centers"))
    ends = np.cumsum(nprim)
    if not len(ls) == len(atoms) == len(nprim) \
            or centers.shape != (len(ls), 3) or (nprim < 1).any() \
            or ((atoms < -1) | (atoms >= mol.natom)).any() \
            or not len(exps) == len(coefs) == (ends[-1] if len(ends) else 0):
        raise CodecError("BasisSet record: shell table is inconsistent")
    shells = [Shell(int(ls[i]), exps[end - n:end], coefs[end - n:end],
                    centers[i], atom=int(atoms[i]))
              for i, (n, end) in enumerate(zip(nprim, ends))]
    return BasisSet(mol, _typed(f["name"], str), shells)


_CONFIG_FIELDS = tuple(f.name for f in fields(ExecutionConfig)
                       if f.name != "tracer")


def _config_fields(cfg: ExecutionConfig) -> dict:
    if cfg.tracer is not None:
        raise CodecError("an ExecutionConfig crosses a boundary only "
                         "with tracer=None")
    out = {name: getattr(cfg, name) for name in _CONFIG_FIELDS}
    if out["checkpoint_dir"] is not None:
        out["checkpoint_dir"] = os.fspath(out["checkpoint_dir"])
    return out


def _config(f: dict) -> ExecutionConfig:
    if set(f) != set(_CONFIG_FIELDS):
        raise CodecError("ExecutionConfig record: wrong field set")
    return ExecutionConfig(**f)


#: The record table: name -> (type, fields of a value, rebuild from
#: decoded fields).  The only constructors :func:`decode` calls.
RECORDS = {
    "Molecule": (Molecule, _molecule_fields, _molecule),
    "BasisSet": (BasisSet, _basis_fields, _basis),
    "ExecutionConfig": (ExecutionConfig, _config_fields, _config),
}
_RECORD_OF = {cls: (name, to_fields)
              for name, (cls, to_fields, _) in RECORDS.items()}


def _array(v, kinds: str) -> np.ndarray:
    if type(v) is not np.ndarray or v.dtype.kind not in kinds:
        raise CodecError(f"record field is not a {kinds!r}-kind array")
    return v


def _typed(v, t: type):
    if type(v) is not t:
        raise CodecError(f"record field is not a {t.__name__}")
    return v


# --- encode -------------------------------------------------------------------

def encode(obj) -> bytes:
    """``obj`` as codec bytes; :class:`CodecError` for anything the
    format does not admit."""
    table: list = []
    blobs: list = []
    try:
        root = _to_json(_pack(obj, table, blobs)).encode("ascii")
        head = _to_json(table).encode("ascii")
    except CodecError:
        raise
    except (RecursionError, ValueError) as e:   # too deep; an int past
        raise CodecError(f"cannot encode: {e}") from None   # str's limit
    return b"".join([_LENS.pack(len(head), len(root)), head, root, *blobs])


def _entry(arr: np.ndarray, table: list, blobs: list) -> int:
    if arr.dtype.kind not in "biufc":
        raise CodecError(f"refusing a {arr.dtype} array: only numeric "
                         f"dtypes cross a boundary")
    if arr.dtype.str not in _DTYPES:
        arr = arr.astype(arr.dtype.newbyteorder("<"))
        if arr.dtype.str not in _DTYPES:
            raise CodecError(f"refusing a {arr.dtype} array")
    table.append([arr.dtype.str, list(arr.shape)])
    blobs.append(np.ascontiguousarray(arr).tobytes())
    return len(table) - 1


def _plain(v) -> bool:
    """``v`` goes into the JSON as it is (the walk's fast path)."""
    t = type(v)
    return t in _PLAIN or t is float and v - v == 0.0


def _pack(obj, table: list, blobs: list):
    t = type(obj)
    if t in _PLAIN:
        return obj
    if t is float:
        if obj - obj != 0.0:    # inf or nan: JSON has neither
            return {"$f": _F64.pack(obj).hex()}
        return obj
    if t is list or t is tuple:
        out = [v if _plain(v) else _pack(v, table, blobs) for v in obj]
        return out if t is list else {"$t": out}
    if t is dict:
        out = {}
        for k, v in obj.items():
            if type(k) is not str:
                raise CodecError(f"refusing a {type(k).__name__} dict key: "
                                 f"keys must be str")
            if k in TAGS:
                raise CodecError(f"refusing dict key {k!r}: it is a "
                                 f"reserved codec tag")
            out[k] = v if _plain(v) else _pack(v, table, blobs)
        return out
    if t is np.ndarray:
        return {"$a": _entry(obj, table, blobs)}
    if isinstance(obj, np.generic):
        return {"$s": _entry(np.asarray(obj), table, blobs)}
    if t is bytes:
        return {"$b": _entry(np.frombuffer(obj, dtype=np.uint8),
                             table, blobs)}
    record = _RECORD_OF.get(t)
    if record is not None:
        name, to_fields = record
        return {"$r": [name, _pack(to_fields(obj), table, blobs)]}
    raise CodecError(f"refusing to encode a {t.__module__}.{t.__qualname__}")


# --- decode -------------------------------------------------------------------

def decode(buf):
    """The value :func:`encode` wrote into ``buf`` (bytes-like).

    Raises :class:`CodecError` — and nothing else — for any buffer that
    is not exactly one well-formed encoding.
    """
    try:
        return _decode(memoryview(buf).cast("B"))
    except CodecError:
        raise
    except Exception as e:      # json, recursion, constructor refusals
        raise CodecError(f"undecodable buffer ({type(e).__name__}: {e})"
                         ) from None


def _decode(mv: memoryview):
    if len(mv) < _LENS.size:
        raise CodecError(f"buffer of {len(mv)} bytes has no header")
    tlen, rlen = _LENS.unpack_from(mv)
    offset = _LENS.size + tlen + rlen
    if offset > len(mv):
        raise CodecError(f"header claims {tlen} + {rlen} bytes, buffer "
                         f"holds {len(mv) - _LENS.size}")
    table = _from_json(bytes(mv[_LENS.size:_LENS.size + tlen])
                       .decode("ascii"))
    if type(table) is not list:
        raise CodecError("array table is not a list")
    arrays = []
    for entry in table:
        if type(entry) is not list or len(entry) != 2 \
                or entry[0] not in _DTYPES or type(entry[1]) is not list \
                or any(type(n) is not int or n < 0 for n in entry[1]):
            raise CodecError(f"bad array table entry {entry!r:.80}")
        dtype = np.dtype(entry[0])
        count = 1
        for n in entry[1]:
            count *= n
        end = offset + count * dtype.itemsize
        if end > len(mv):
            raise CodecError("array table runs past the end of the buffer")
        arrays.append(np.frombuffer(mv, dtype, count, offset)
                      .reshape(entry[1]) if count else
                      np.empty(entry[1], dtype))
        offset = end
    if offset != len(mv):
        raise CodecError(f"{len(mv) - offset} trailing bytes after the "
                         f"array table")
    root = bytes(mv[_LENS.size + tlen:_LENS.size + tlen + rlen])
    return json.JSONDecoder(
        object_hook=lambda node: _untag(node, arrays),
        parse_constant=_refuse_constant).decode(root.decode("ascii"))


def _untag(node: dict, arrays: list):
    """One JSON object, its contents already decoded: a plain dict, or
    the value its tag stands for."""
    if TAGS.isdisjoint(node):
        return node
    if len(node) != 1:
        raise CodecError(f"a tag shares its object with "
                         f"{sorted(node)!r:.60}")
    ((tag, v),) = node.items()
    if tag == "$t":
        if type(v) is not list:
            raise CodecError("tuple tag holds no list")
        return tuple(v)
    if tag == "$f":
        if type(v) is not str or len(v) != 16:
            raise CodecError(f"bad float tag {v!r:.40}")
        return _F64.unpack(bytes.fromhex(v))[0]
    if tag == "$r":
        if type(v) is not list or len(v) != 2 or v[0] not in RECORDS \
                or type(v[1]) is not dict:
            raise CodecError(f"unknown record {v!r:.60}")
        return RECORDS[v[0]][2](v[1])
    if type(v) is not int or not 0 <= v < len(arrays):
        raise CodecError(f"tag {tag!r} names no array table entry")
    arr = arrays[v]
    if tag == "$a":
        return arr.copy()
    if tag == "$s":
        if arr.ndim:
            raise CodecError("scalar tag names a non-scalar array")
        return arr[()]
    if arr.dtype != np.uint8 or arr.ndim != 1:
        raise CodecError("bytes tag names a non-byte array")
    return arr.tobytes()
