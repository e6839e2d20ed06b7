"""Length-prefixed binary wire protocol for the cluster backend.

Framing
-------
Every message is one frame::

    !IB  payload-length, frame-type      (5-byte header)
    ...  payload

Frame types (direction in parentheses; M = master, W = worker):

=========  ====  ========================================================
HELLO       M>W  JSON handshake: protocol + store schema version, store
                 mode (``shared`` root / ``writeback`` / ``none``)
WELCOME     W>M  JSON handshake ack (protocol, schema, pid)
JOB         M>W  length-prefixed job name (plain UTF-8, always
                 decodable) + payload-encoded ``(fn, args, retry)``
RESULT      W>M  payload-encoded ``(name, result, writeback_entries)``
FAIL        W>M  JSON ``{name, error, traceback}`` -- exceptions never
                 cross the wire pickled
HEARTBEAT   W>M  empty; liveness while a long job runs
RELEASE     M>W  empty; sweep over, worker re-accepts the next master
DRAIN       M>W  empty; worker exits (also honored pre-handshake)
ERR         W>M  JSON ``{error}``; handshake refused
=========  ====  ========================================================

Payload encoding
----------------
Job and result payloads are pickled with a :class:`pickle.Pickler`
whose ``persistent_id`` externalizes every :class:`TraceColumns` into
its compact binary bundle (``TraceColumns.to_bytes``, the same ``.trc``
format the tracer writes to disk).  The container is::

    !I   number of column blobs
    !Q + bytes, per blob
    ...  pickle stream (persistent ids reference blob indices)

so trace data crosses the wire as typed column blobs, not pickles --
the receiving side rebuilds columns with ``TraceColumns.from_bytes``.
A payload that does not decode -- truncated, bit-flipped, a count or
length past its end, a malformed column blob -- raises
:class:`WireError`, never a raw ``struct``/``pickle`` error.
"""

from __future__ import annotations

import io
import json
import pickle
import socket
import struct
from typing import Any

from repro.store.keys import SCHEMA_VERSION
from repro.tracer.columns import TraceColumns

__all__ = [
    "WireError", "PROTOCOL_VERSION", "HELLO", "WELCOME", "JOB", "RESULT", "FAIL",
    "HEARTBEAT", "RELEASE", "DRAIN", "ERR",
    "encode_payload", "decode_payload", "pack_job", "unpack_job",
    "pack_frame", "FrameBuffer",
    "send_frame", "send_json", "recv_frame", "hello_payload",
    "check_hello",
]

PROTOCOL_VERSION = 1

HELLO = 1
WELCOME = 2
JOB = 3
RESULT = 4
FAIL = 5
HEARTBEAT = 6
RELEASE = 7
DRAIN = 8
ERR = 9

_HEADER = struct.Struct("!IB")
_U32 = struct.Struct("!I")
_U64 = struct.Struct("!Q")

#: Refuse frames claiming more than this many payload bytes: a corrupt
#: or hostile header must not make the receiver allocate gigabytes.
MAX_FRAME = 1 << 30


# -- payload codec -------------------------------------------------------------

class WireError(ValueError):
    """A payload that does not decode (damaged or not a payload)."""


class _ColumnsPickler(pickle.Pickler):
    """Externalizes TraceColumns into .trc blobs (deduped per payload)."""

    def __init__(self, buf, blobs: list[bytes]):
        super().__init__(buf, protocol=pickle.HIGHEST_PROTOCOL)
        self._blobs = blobs
        self._seen: dict[int, int] = {}

    def persistent_id(self, obj):
        if isinstance(obj, TraceColumns):
            idx = self._seen.get(id(obj))
            if idx is None:
                idx = self._seen[id(obj)] = len(self._blobs)
                self._blobs.append(obj.to_bytes())
            return ("trc", idx)
        return None


class _ColumnsUnpickler(pickle.Unpickler):
    def __init__(self, buf, blobs: list[bytes]):
        super().__init__(buf)
        self._blobs = blobs

    def persistent_load(self, pid):
        tag, idx = pid
        if tag != "trc":
            raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")
        return TraceColumns.from_bytes(self._blobs[idx])


def encode_payload(obj: Any) -> bytes:
    """Pickle ``obj`` with TraceColumns externalized as .trc blobs."""
    blobs: list[bytes] = []
    buf = io.BytesIO()
    _ColumnsPickler(buf, blobs).dump(obj)
    parts = [_U32.pack(len(blobs))]
    for blob in blobs:
        parts.append(_U64.pack(len(blob)))
        parts.append(blob)
    parts.append(buf.getvalue())
    return b"".join(parts)


def decode_payload(data: bytes) -> Any:
    """Inverse of :func:`encode_payload`; :class:`WireError` on damage."""
    if len(data) < _U32.size:
        raise WireError(f"payload too short: {len(data)} bytes")
    (nblobs,) = _U32.unpack_from(data, 0)
    offset = _U32.size
    if nblobs > (len(data) - offset) // _U64.size:
        raise WireError(f"payload claims {nblobs} column blobs")
    blobs: list[bytes] = []
    for _ in range(nblobs):
        if offset + _U64.size > len(data):
            raise WireError("payload truncated in its blob table")
        (n,) = _U64.unpack_from(data, offset)
        offset += _U64.size
        if n > len(data) - offset:
            raise WireError(f"column blob of {n} bytes overruns the payload")
        blobs.append(data[offset:offset + n])
        offset += n
    try:
        return _ColumnsUnpickler(io.BytesIO(data[offset:]), blobs).load()
    except Exception as exc:
        # Unpickling damaged bytes can raise nearly any exception type.
        raise WireError(f"payload does not unpickle: {exc!r}") from exc


def pack_job(name: str, payload: bytes) -> bytes:
    """JOB frame body: the name rides outside the pickled payload so a
    worker can report a decode failure *by name* instead of dying."""
    raw = name.encode("utf-8")
    return _U32.pack(len(raw)) + raw + payload


def unpack_job(data: bytes) -> tuple[str, bytes]:
    (n,) = _U32.unpack_from(data, 0)
    head = _U32.size
    return data[head:head + n].decode("utf-8"), data[head + n:]


# -- framing -------------------------------------------------------------------

def pack_frame(ftype: int, payload: bytes = b"") -> bytes:
    return _HEADER.pack(len(payload), ftype) + payload


def send_frame(sock: socket.socket, ftype: int, payload: bytes = b"") -> int:
    """Send one frame; returns the bytes put on the wire."""
    msg = pack_frame(ftype, payload)
    sock.sendall(msg)
    return len(msg)


def send_json(sock: socket.socket, ftype: int, obj: Any) -> int:
    return send_frame(sock, ftype, json.dumps(obj).encode("utf-8"))


def recv_frame(sock: socket.socket) -> tuple[int, bytes] | None:
    """Blocking read of one frame; None on a clean peer close."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    length, ftype = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise ConnectionError(f"oversized frame: {length} bytes")
    payload = _recv_exact(sock, length) if length else b""
    if payload is None:
        return None
    return ftype, payload


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    chunks: list[bytes] = []
    got = 0
    while got < n:
        chunk = sock.recv(min(n - got, 1 << 20))
        if not chunk:
            return None
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


class FrameBuffer:
    """Incremental frame decoder for the master's readiness loop.

    Feed whatever ``recv`` returned; :meth:`frames` yields every frame
    completed so far and keeps the trailing partial bytes for the next
    feed, so the master never blocks on a half-arrived frame.
    """

    def __init__(self):
        self._buf = bytearray()

    def feed(self, data: bytes) -> None:
        self._buf.extend(data)

    def frames(self):
        while True:
            if len(self._buf) < _HEADER.size:
                return
            length, ftype = _HEADER.unpack_from(self._buf, 0)
            if length > MAX_FRAME:
                raise ConnectionError(f"oversized frame: {length} bytes")
            end = _HEADER.size + length
            if len(self._buf) < end:
                return
            payload = bytes(self._buf[_HEADER.size:end])
            del self._buf[:end]
            yield ftype, payload


# -- handshake -----------------------------------------------------------------

def hello_payload(store_mode: str, store_root: str | None) -> dict:
    return {"protocol": PROTOCOL_VERSION, "schema": SCHEMA_VERSION,
            "store": {"mode": store_mode, "root": store_root}}


def check_hello(hello: dict) -> str | None:
    """Version gate; returns a refusal message or None when compatible."""
    if hello.get("protocol") != PROTOCOL_VERSION:
        return (f"protocol mismatch: master speaks "
                f"{hello.get('protocol')!r}, worker {PROTOCOL_VERSION}")
    if hello.get("schema") != SCHEMA_VERSION:
        return (f"store schema mismatch: master {hello.get('schema')!r}, "
                f"worker {SCHEMA_VERSION} -- upgrade both sides together")
    return None
