"""Length-prefixed, authenticated framing for the cluster's TCP links.

The cluster protocol (:mod:`repro.engine.cluster`) exchanges a handful of
message kinds between one coordinator and its workers.  This module owns
the byte-level contract so both sides — and the fault-injection tests —
speak exactly the same dialect:

* a **frame** is a 4-byte big-endian length followed by a one-byte body
  tag and the body itself.  Tag ``J`` marks a JSON body (the handshake
  dialect), tag ``P`` a pickled ``(kind, payload)`` tuple (everything
  after authentication);
* :class:`FrameDecoder` turns an arbitrary byte stream back into frames
  (the coordinator reads sockets readiness-driven, so frames arrive
  fragmented and coalesced).  Until its ``allow_pickle`` switch is
  flipped it refuses pickle-tagged frames outright, which is how both
  sides enforce *never unpickle bytes from an unauthenticated peer*;
* :class:`Connection` wraps a socket with a send lock (a worker's
  heartbeat thread and its result sends share one socket) and a frame
  reader with an optional timeout for the worker's receive loop.

Authentication is a mutual HMAC-SHA256 challenge-response keyed by a
shared token (``--auth-token`` / :data:`AUTH_TOKEN_ENV_VAR`).  The
handshake frames are JSON — no pickle crosses the wire in either
direction until both sides have proven knowledge of the token.  An empty
token on both ends (the default for localhost fleets spawned by the
coordinator itself) still runs the handshake, so the message flow is
identical whether or not a secret is configured.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import os
import pickle
import secrets
import select
import socket
import struct
import threading
import time
from typing import Any

from repro.errors import ClusterError

#: Protocol version, negotiated during the handshake; bumped on any wire
#: change.  Version 1 (unauthenticated pickle HELLO) is no longer spoken.
WIRE_VERSION = 2

#: Versions this build can speak, newest first.
SUPPORTED_WIRE_VERSIONS = (2,)

#: Frame length prefix: 4-byte unsigned big-endian.
_LENGTH = struct.Struct(">I")

#: One-byte body tags.
_TAG_JSON = 0x4A  # "J" — handshake dialect, safe to parse pre-auth
_TAG_PICKLE = 0x50  # "P" — full dialect, post-auth only

#: Default upper bound on a single frame (guards against a corrupted
#: length prefix allocating gigabytes); per-connection override via
#: :class:`FrameDecoder`.
MAX_FRAME_BYTES = 1 << 30

#: Much smaller bound applied while a peer is still unauthenticated — a
#: stranger must not be able to make either side buffer more than this.
HANDSHAKE_MAX_FRAME_BYTES = 64 * 1024

#: Environment variable carrying the shared cluster secret.
AUTH_TOKEN_ENV_VAR = "REPRO_CLUSTER_TOKEN"

#: Sentinel returned by :meth:`Connection.recv` when the timeout elapsed
#: before a full frame arrived (distinct from ``None`` = clean EOF).
TIMEOUT = object()

# -- message kinds -----------------------------------------------------
#: Coordinator -> worker, JSON, first frame on every connection:
#: {"versions": [...], "nonce": hex}.
MSG_AUTH_CHALLENGE = "auth-challenge"
#: Worker -> coordinator, JSON: {"version", "nonce", "worker_id", "pid",
#: "installed_digest", "mac"} — the MAC proves token knowledge.
MSG_AUTH_RESPONSE = "auth-response"
#: Coordinator -> worker, JSON: {"version", "mac"} — the coordinator's
#: MAC proves *it* holds the token too (mutual auth: a worker never
#: unpickles STATE/TASK frames from a spoofed coordinator).
MSG_AUTH_OK = "auth-ok"
#: Coordinator -> worker, JSON: {"reason"} — handshake failed; the
#: worker must not retry with the same credentials.
MSG_AUTH_REJECT = "auth-reject"
#: Coordinator -> worker: {"digest", "blob"} — a pickled shared-state
#: mapping, installed worker-side (at most once per digest per worker).
MSG_STATE = "state"
#: Coordinator -> worker: {"task_id", "spec"} — one replicate to run.
MSG_TASK = "task"
#: Worker -> coordinator: {"task_id", "result"} — the finished replicate.
MSG_RESULT = "result"
#: Worker -> coordinator: {"task_id", "message"} — the replicate raised.
MSG_ERROR = "error"
#: Worker -> coordinator, periodic liveness signal: {}.
MSG_HEARTBEAT = "heartbeat"
#: Worker -> coordinator: {"reason"} — graceful drain; the worker has
#: returned all in-flight results and is about to detach.
MSG_GOODBYE = "goodbye"
#: Coordinator -> worker: {} — finish up and exit cleanly.
MSG_SHUTDOWN = "shutdown"


def resolve_auth_token(explicit: "str | None" = None) -> str:
    """Resolve the shared secret: explicit value, else env, else empty."""
    if explicit is not None:
        return explicit
    return os.environ.get(AUTH_TOKEN_ENV_VAR, "")


def new_nonce() -> str:
    """A fresh 128-bit hex nonce for one side of a handshake."""
    return secrets.token_hex(16)


def compute_mac(token: str, role: str, *parts: str) -> str:
    """HMAC-SHA256 over the handshake transcript, bound to ``role``.

    The role ("worker" or "coordinator") is folded into the keyed hash so
    a challenge MAC can never be replayed as a response MAC.
    """
    message = "|".join((role, *parts)).encode("utf-8")
    return hmac.new(token.encode("utf-8"), message, hashlib.sha256).hexdigest()


def verify_mac(token: str, role: str, parts: "tuple[str, ...]", mac: str) -> bool:
    """Constant-time check of a peer's MAC against the expected value."""
    if not isinstance(mac, str):
        return False
    expected = compute_mac(token, role, *parts)
    return hmac.compare_digest(expected, mac)


def _pack(tag: int, body: bytes, max_frame_bytes: int) -> bytes:
    if len(body) + 1 > max_frame_bytes:
        raise ClusterError(
            f"frame of {len(body) + 1} bytes exceeds the {max_frame_bytes}-byte "
            "wire limit"
        )
    return _LENGTH.pack(len(body) + 1) + bytes((tag,)) + body


def encode_frame(
    kind: str, payload: "Any", *, max_frame_bytes: int = MAX_FRAME_BYTES
) -> bytes:
    """Serialize one pickle-dialect message into its on-the-wire bytes."""
    body = pickle.dumps((kind, payload), protocol=pickle.HIGHEST_PROTOCOL)
    return _pack(_TAG_PICKLE, body, max_frame_bytes)


def encode_json_frame(
    kind: str, payload: "Any", *, max_frame_bytes: int = MAX_FRAME_BYTES
) -> bytes:
    """Serialize one handshake (JSON-dialect) message."""
    body = json.dumps([kind, payload], separators=(",", ":")).encode("utf-8")
    return _pack(_TAG_JSON, body, max_frame_bytes)


class FrameDecoder:
    """Incremental frame parser for a readiness-driven receive path.

    Feed it whatever ``recv`` returned; it yields every frame completed
    so far and buffers the rest.  A single frame may take many feeds to
    complete, and one feed may complete many frames.

    ``allow_pickle`` starts ``False`` on coordinator-side connections:
    until the peer authenticates, only the JSON handshake dialect is
    accepted and a pickle-tagged frame raises :class:`ClusterError`
    *without ever reaching* ``pickle.loads``.  ``max_frame_bytes`` is
    likewise mutable so the cap can start at the handshake bound and be
    raised once the peer has proven itself.

    While pickle is locked, each feed decodes at most one frame and
    leaves the bytes behind it buffered and unjudged: a peer that
    pipelines its first post-handshake frame right behind ``auth-ok``
    (the coordinator's shared-state frame, routinely larger than the
    handshake cap) is read under the raised cap once the caller has
    verified the handshake and unlocked the decoder — ``feed(b"")``
    then decodes what is buffered.
    """

    def __init__(
        self,
        *,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        allow_pickle: bool = True,
    ) -> None:
        self._buffer = bytearray()
        self.max_frame_bytes = max_frame_bytes
        self.allow_pickle = allow_pickle

    def feed(self, data: bytes) -> "list[tuple[str, Any]]":
        """Absorb ``data`` and return all newly completed frames."""
        self._buffer.extend(data)
        frames = []
        while True:
            if len(self._buffer) < _LENGTH.size:
                break
            (length,) = _LENGTH.unpack_from(self._buffer)
            if length == 0:
                raise ClusterError(
                    "peer announced a zero-length frame; stream is corrupt"
                )
            if length > self.max_frame_bytes:
                raise ClusterError(
                    f"peer announced a {length}-byte frame (limit "
                    f"{self.max_frame_bytes}); stream is corrupt or hostile"
                )
            end = _LENGTH.size + length
            if len(self._buffer) < end:
                break
            tag = self._buffer[_LENGTH.size]
            body = bytes(self._buffer[_LENGTH.size + 1 : end])
            del self._buffer[:end]
            frames.append(self._decode_body(tag, body))
            if not self.allow_pickle:
                break
        return frames

    def _decode_body(self, tag: int, body: bytes) -> "tuple[str, Any]":
        if tag == _TAG_JSON:
            try:
                decoded = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ClusterError(f"malformed handshake frame: {exc}") from exc
            if (
                not isinstance(decoded, list)
                or len(decoded) != 2
                or not isinstance(decoded[0], str)
            ):
                raise ClusterError(
                    "malformed handshake frame: expected [kind, payload]"
                )
            return decoded[0], decoded[1]
        if tag == _TAG_PICKLE:
            if not self.allow_pickle:
                raise ClusterError(
                    "pickle frame from unauthenticated peer refused "
                    "(complete the auth handshake first)"
                )
            kind, payload = pickle.loads(body)
            return kind, payload
        raise ClusterError(
            f"unknown frame tag {tag:#04x}; peer speaks a different "
            "wire version or the stream is corrupt"
        )

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward an incomplete frame."""
        return len(self._buffer)


class Connection:
    """A framed, lock-protected view of one socket.

    ``send`` is serialized with a lock so a worker's heartbeat thread
    and its main loop can share the connection; ``recv`` is the frame
    reader used by the worker (the coordinator reads readiness-driven
    through :class:`FrameDecoder` instead).  ``recv(timeout=...)`` lets
    the worker poll for drain signals between frames without dropping
    the connection.
    """

    def __init__(
        self,
        sock: socket.socket,
        *,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        allow_pickle: bool = True,
    ) -> None:
        self.sock = sock
        self.max_frame_bytes = max_frame_bytes
        self._send_lock = threading.Lock()
        # An unauthenticated connection reads under the handshake cap;
        # flipping ``allow_pickle`` (post-auth) raises it to the real
        # limit.  A stranger can therefore never make us buffer more
        # than HANDSHAKE_MAX_FRAME_BYTES.
        self._decoder = FrameDecoder(
            max_frame_bytes=(
                max_frame_bytes if allow_pickle else HANDSHAKE_MAX_FRAME_BYTES
            ),
            allow_pickle=allow_pickle,
        )
        #: Frames decoded but not yet returned (the coordinator pipelines
        #: sends — STATE then TASK, TASK then TASK — so one recv() off
        #: the socket can complete several frames).
        self._queued: "list[tuple[str, Any]]" = []

    @property
    def allow_pickle(self) -> bool:
        return self._decoder.allow_pickle

    @allow_pickle.setter
    def allow_pickle(self, value: bool) -> None:
        self._decoder.allow_pickle = value
        if value:
            self._decoder.max_frame_bytes = self.max_frame_bytes

    def send(self, kind: str, payload: "Any") -> None:
        """Send one pickle-dialect frame (atomic w.r.t. other senders)."""
        data = encode_frame(kind, payload, max_frame_bytes=self.max_frame_bytes)
        with self._send_lock:
            self.sock.sendall(data)

    def send_json(self, kind: str, payload: "Any") -> None:
        """Send one handshake (JSON-dialect) frame."""
        data = encode_json_frame(
            kind, payload, max_frame_bytes=self.max_frame_bytes
        )
        with self._send_lock:
            self.sock.sendall(data)

    def recv(self, timeout: "float | None" = None) -> "Any":
        """Return one frame, ``None`` on clean EOF, or :data:`TIMEOUT`.

        With ``timeout=None`` this blocks until a full frame arrives
        (subject to any deadline set on the socket itself).  With a
        timeout, the module-level :data:`TIMEOUT` sentinel is returned
        if no complete frame showed up in time — the connection stays
        healthy and buffered partial frames are kept.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        if not self._queued and self._decoder.pending_bytes:
            # A locked decoder leaves the frames behind a handshake
            # frame buffered; decode them under the cap now in force.
            self._queued.extend(self._decoder.feed(b""))
        while not self._queued:
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return TIMEOUT
                ready, _, _ = select.select([self.sock], [], [], remaining)
                if not ready:
                    return TIMEOUT
            data = self.sock.recv(65536)
            if not data:
                if self._decoder.pending_bytes:
                    raise ClusterError(
                        "connection closed mid-frame "
                        f"({self._decoder.pending_bytes} bytes pending)"
                    )
                return None
            self._queued.extend(self._decoder.feed(data))
        return self._queued.pop(0)

    def close(self) -> None:
        """Close the underlying socket, swallowing teardown races."""
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass
