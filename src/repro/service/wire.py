"""HTTP/1.1 framing for both ends of the query service's wire.

:func:`read_request` and :func:`write_response` serve the server,
:func:`write_request` and :func:`read_response` the
:class:`~repro.service.client.ServiceClient`.  Both directions share one
reader of headers and ``Content-Length``-framed JSON bodies, so its
bounds hold both ways: a line over 8 KiB, over 100 header lines, a
malformed start line, an invalid or repeated ``Content-Length`` or any
``Transfer-Encoding`` raise :class:`~repro.errors.ServiceError`
(``400``), a ``Content-Length`` over 16 MiB one with ``413``, unread.
"""

from __future__ import annotations

import json
import socket
from typing import Any, BinaryIO, Dict, Optional, Tuple

from ..errors import ServiceError

__all__ = ["read_request", "read_response", "write_request", "write_response"]

_STATUS_TEXT = {200: "OK", 400: "Bad Request", 404: "Not Found", 409: "Conflict",
                413: "Payload Too Large", 500: "Internal Server Error",
                503: "Service Unavailable"}

#: The bounds of the module docstring (constants, not options).
_MAX_LINE_BYTES = 8192
_MAX_HEADER_LINES = 100
_MAX_BODY_BYTES = 16 << 20


def write_response(conn: socket.socket, status: int, payload: Any, close: bool = False) -> None:
    data = json.dumps(payload, default=str).encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'OK')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(data)}\r\n"
        + ("Connection: close\r\n" if close else "")
        + "\r\n"
    ).encode("latin-1")
    conn.sendall(head + data)


def write_request(conn: socket.socket, method: str, path: str, host: str, body: bytes) -> None:
    head = f"{method} {path} HTTP/1.1\r\nHost: {host}\r\nContent-Length: {len(body)}\r\n\r\n"
    conn.sendall(head.encode("latin-1") + body)


def _read_line(rfile: BinaryIO, what: str) -> bytes:
    line = rfile.readline(_MAX_LINE_BYTES + 1)
    if len(line) > _MAX_LINE_BYTES:
        raise ServiceError(f"{what} longer than {_MAX_LINE_BYTES} bytes")
    return line


def _read_message(rfile: BinaryIO) -> Optional[Tuple[Dict[str, str], bytes]]:
    """The headers and body after a start line; ``None`` at EOF first."""
    headers: Dict[str, str] = {}
    for _ in range(_MAX_HEADER_LINES + 1):
        line = _read_line(rfile, "header line")
        if not line.strip():
            break
        name, _sep, value = line.decode("latin-1").partition(":")
        name = name.strip().lower()
        if name == "content-length" and name in headers:
            raise ServiceError("repeated Content-Length")
        headers[name] = value.strip()
    else:
        raise ServiceError(f"more than {_MAX_HEADER_LINES} header lines")
    if not line:
        return None
    if "transfer-encoding" in headers:  # else a chunked body is read as the next message
        raise ServiceError("Transfer-Encoding is not supported; send a Content-Length")
    declared = headers.get("content-length") or "0"
    if not (declared.isascii() and declared.isdigit()):
        # The body's extent is unknown: answer and hang up.
        raise ServiceError(f"invalid Content-Length: {declared!r}")
    length = int(declared)
    if length > _MAX_BODY_BYTES:
        raise ServiceError(f"body of {length} bytes exceeds the {_MAX_BODY_BYTES}-byte cap", 413)
    body = rfile.read(length) if length else b""
    return (headers, body) if len(body) == length else None


def read_request(rfile: BinaryIO) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
    """The next ``(method, path, headers, body)``; ``None`` to drop the
    connection unanswered (EOF, or a blank line, where a request should
    start; EOF inside one).  A :class:`ServiceError` is to be answered
    with its status, then the connection closed."""
    line = _read_line(rfile, "request line")
    if not line.strip():
        return None
    try:
        method, path, _proto = line.decode("latin-1").split(" ", 2)
    except ValueError:
        raise ServiceError("malformed request line") from None
    message = _read_message(rfile)
    return None if message is None else (method, path, *message)


def read_response(rfile: BinaryIO) -> Tuple[int, Dict[str, str], bytes]:
    """The next ``(status, headers, body)``; EOF inside it raises
    ``ConnectionError``, a reply without a ``Content-Length`` ``ServiceError``."""
    line = _read_line(rfile, "status line")
    parts = line.split(None, 2)
    code = parts[1] if len(parts) > 1 and parts[0].startswith(b"HTTP/") else b""
    if not (len(code) == 3 and code.isdigit()):
        raise ServiceError(f"malformed status line: {line[:64]!r}")
    message = _read_message(rfile)
    if message is None:
        raise ConnectionError("the server closed the connection mid-reply")
    if "content-length" not in message[0]:
        raise ServiceError("reply without a Content-Length")
    return int(code), *message
