"""The boundary codec: exact round trips, the record table, refusals at
encode, and a decoder that raises only ``CodecError``, never hangs and
never executes what it is fed."""

import json
import pickle
import struct
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.basis import build_basis
from repro.chem import builders
from repro.runtime import ExecutionConfig, Tracer
from repro.runtime.codec import TAGS, CodecError, decode, encode

from .codec_values import same

pytestmark = [pytest.mark.transport, pytest.mark.checkpoint]

_arrays = hnp.arrays(
    st.sampled_from(["<f8", "<i8", "<f4", "<i4", "|u1", "|b1", "<c16"]),
    hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3))
_scalars = st.sampled_from([np.float64(-0.0), np.int64(-7), np.float32(1.5),
                            np.bool_(True), np.uint8(255),
                            np.complex128(1 - 2j)])
_keys = st.text(max_size=6).filter(lambda k: k not in TAGS)
values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2**200, 2**200)
    | st.floats() | st.text(max_size=20) | st.binary(max_size=20)
    | _arrays | _scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_keys, inner, max_size=4),
    max_leaves=12)


def _raw(root, arrays=(), root_json=None):
    """Codec bytes built by hand: ``arrays`` are ``(dtype, shape,
    bytes)`` table entries."""
    table = json.dumps([[d, list(s)] for d, s, _ in arrays]).encode()
    root = root_json or json.dumps(root).encode()
    return struct.pack("<II", len(table), len(root)) + table + root + \
        b"".join(b for _, _, b in arrays)


def _refuses(buf) -> str:
    """Decode ``buf`` expecting a refusal; returns the message."""
    with pytest.raises(CodecError) as info:
        _decode_or_refuse(buf)
    return str(info.value)


def _decode_or_refuse(buf):
    """``decode(buf)``, failing the test on any exception but
    :class:`CodecError` (which propagates) or a decode that takes
    seconds."""
    t0 = time.monotonic()
    try:
        return decode(buf)
    finally:
        assert time.monotonic() - t0 < 2.0


# --- round trips --------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(values)
def test_round_trip_is_exact(obj):
    """Same types, same bits: tuples stay tuples, -0.0 and nan keep their
    bits, big ints stay exact, arrays keep dtype (little-endian) and
    shape, numpy scalars keep their type."""
    assert same(decode(encode(obj)), obj)


def test_decoded_arrays_are_writable_and_own_their_memory():
    buf = encode({"a": np.arange(6.0).reshape(2, 3)})
    a = decode(buf)["a"]
    assert a.flags.writeable and a.flags.owndata and a.flags.c_contiguous
    a[0, 0] = 42.0
    assert decode(buf)["a"][0, 0] == 0.0


def test_non_contiguous_and_big_endian_arrays_cross_by_value():
    a = np.arange(12.0).reshape(3, 4)[:, ::2]
    b = np.arange(4, dtype=">i4")
    out = decode(encode((a, b)))
    assert np.array_equal(out[0], a) and out[1].dtype == np.dtype("<i4")
    assert np.array_equal(out[1], b)


# --- records ------------------------------------------------------------------

def test_records_rebuild_through_their_constructors(tmp_path):
    mol = builders.water()
    basis = build_basis(mol)
    cfg = ExecutionConfig(executor="process", nworkers=2, jk="ri",
                          checkpoint_dir=tmp_path, checkpoint_every=3)
    m2, b2, c2 = decode(encode((mol, basis, cfg)))
    assert type(m2) is type(mol) and m2.symbols == mol.symbols
    assert np.array_equal(m2.coords, mol.coords) and m2.name == mol.name
    assert (b2.name, b2.nbf, b2.nshell) == (basis.name, basis.nbf,
                                            basis.nshell)
    for s1, s2 in zip(basis.shells, b2.shells):
        assert (s1.l, s1.atom) == (s2.l, s2.atom) and type(s2.l) is int
        for attr in ("exps", "coefs", "center", "norm_coefs"):
            assert np.array_equal(getattr(s1, attr), getattr(s2, attr))
    assert c2.checkpoint_dir == str(tmp_path)
    assert all(getattr(c2, f) == getattr(cfg, f)
               for f in ("executor", "nworkers", "jk", "checkpoint_every"))


def test_used_basis_encodes_like_a_fresh_one(water):
    """The record carries the shells only: the derived ``_*_cache``
    tables a walk leaves on a basis never cross."""
    from repro.integrals import eri_tensor, schwarz_bounds

    basis = build_basis(water)
    eri_tensor(basis)
    schwarz_bounds(basis)
    basis.shell_pairs()
    assert encode(basis) == encode(build_basis(water))


def test_record_fields_run_the_constructor_validation():
    coords = np.zeros((3, 3)).tobytes()
    bad_mol = {"$r": ["Molecule", {
        "numbers": {"$a": 0}, "coords": {"$a": 1}, "charge": 0,
        "multiplicity": 1, "name": "x"}]}
    two = np.array([8, 1], dtype="<i8").tobytes()
    assert "atom count" in _refuses(_raw(bad_mol, [
        ("<i8", (2,), two), ("<f8", (3, 3), coords)]))
    cfg = {k: None for k in ("executor", "nworkers", "pool_timeout",
                             "pool_max_retries", "kernel", "jk",
                             "scf_solver", "checkpoint_dir",
                             "checkpoint_every", "checkpoint_keep")}
    cfg.update(executor="telepathy", kernel="quartet", jk="direct",
               scf_solver="diis")
    assert "telepathy" in _refuses(_raw({"$r": ["ExecutionConfig", cfg]}))
    cfg.update(executor="serial", tracer=None)
    assert "field set" in _refuses(_raw({"$r": ["ExecutionConfig", cfg]}))


@pytest.mark.parametrize("name", ["os.system", "builtins.eval", "Shell",
                                  "Tracer", ""])
def test_unknown_records_are_refused(name):
    assert "unknown record" in _refuses(_raw({"$r": [name, {}]}))


# --- refusals at encode -------------------------------------------------------

@pytest.mark.parametrize("obj", [
    object(), {1, 2}, bytearray(b"x"), lambda: 0, Path("/x"),
    np.array([object()]), np.array(["text"]),
    np.array(["2020-01-01"], dtype="datetime64[D]"),
    np.zeros(2, dtype=np.longdouble),
    {1: "int key"}, {("a",): 1}, {"$a": 0}, {"ok": {"$t": []}},
    [1, {"x": ExecutionConfig(tracer=Tracer())}], np.ma.masked_array([1.0]),
], ids=lambda o: type(o).__name__)
def test_encode_refuses_what_the_format_does_not_admit(obj):
    with pytest.raises(CodecError):
        encode(obj)


# --- the decoder: refuses, never hangs, never executes -------------------------

def test_decoder_never_runs_a_pickle(hostile_pickle):
    payload, marker = hostile_pickle
    _refuses(payload)
    _refuses(_raw({"$b": 0}, [("|u1", (len(payload),), payload)])[:-1])
    assert not marker.exists()
    # the payload is live: pickle itself would have run it
    pickle.loads(payload)
    assert marker.exists()


@pytest.mark.parametrize("root,arrays", [
    ({"$t": 1}, []), ({"$f": "1e999"}, []), ({"$a": 0}, []),
    ({"$a": True}, [("<f8", (), b"\0" * 8)]), ({"$s": 0}, [("<f8", (1,),
                                                             b"\0" * 8)]),
    ({"$b": 0}, [("<f8", (1,), b"\0" * 8)]), ({"$a": 0, "x": 1}, []),
    (None, [("|O", (1,), b"\0" * 8)]), (None, [("<f8", (-1,), b"")]),
    (None, [("<f8", (1 << 40,), b"\0" * 8)]), (None, [("<f8", (2,),
                                                       b"\0" * 8)]),
])
def test_decoder_refuses_malformed_tables_and_tags(root, arrays):
    _refuses(_raw(root, arrays))


def test_decoder_refuses_non_json_constants_and_trailing_bytes():
    _refuses(_raw(None, root_json=b"NaN"))
    _refuses(_raw(None, root_json=b"[1, -Infinity]"))
    _refuses(encode([1, 2]) + b"\0")


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=200))
def test_fuzz_random_bytes_raise_only_codec_error(blob):
    with pytest.raises(CodecError):
        _decode_or_refuse(blob)


@settings(max_examples=300, deadline=None)
@given(values, st.data())
def test_fuzz_flipped_and_truncated_encodings(obj, data):
    buf = bytearray(encode(obj))
    _refuses(bytes(buf[:data.draw(st.integers(0, len(buf) - 1))]))
    at = data.draw(st.integers(0, len(buf) - 1))
    buf[at] ^= data.draw(st.integers(1, 255))
    try:
        _decode_or_refuse(bytes(buf))   # a flip may still decode
    except CodecError:
        pass
