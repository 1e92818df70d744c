"""The service's HTTP/1.1 + WebSocket front end (stdlib asyncio only).

One request per connection (``Connection: close``), JSON bodies, and two
WebSocket upgrades — deliberately small, because the robustness story
lives in :mod:`repro.service.service`, not in transport cleverness.

Routes:

========  =============================  =====================================
Method    Path                           Meaning
========  =============================  =====================================
GET       ``/healthz``                   liveness (200 while the process runs)
GET       ``/readyz``                    readiness (503 off the ACCEPT rung)
GET       ``/metrics``                   Prometheus text exposition
GET       ``/status``                    full service status JSON
POST      ``/sessions``                  submit a session (JSON request body)
GET       ``/sessions``                  list session views
GET       ``/sessions/{id}``             one session view
GET       ``/sessions/{id}/metrics``     per-session Prometheus exposition
GET       ``/sessions/{id}/result``      terminal result (409 while running)
POST      ``/sessions/{id}/ingest``      stream a trace body (back-pressured)
GET       ``/sessions/{id}/events``      WebSocket: live telemetry feed
GET       ``/sessions/{id}/ingest-ws``   WebSocket: binary chunk ingest
POST      ``/drain``                     begin graceful drain (SIGTERM twin)
========  =============================  =====================================

Error mapping: validation → 400, unknown session → 404, admission
refusals → 429 (budget) or 503 (draining/shedding), deadline refusals →
408, not-yet-terminal result → 409.  Every error body is the structured
``to_dict`` of the underlying exception, so clients branch on
``reason``, never on prose.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, Optional, Tuple

from repro.common.errors import ReproError, ValidationError
from repro.service.ingest import chunk_from_bytes
from repro.service.metrics import service_exposition
from repro.service.service import EmulationService
from repro.service.spec import AdmissionError, DeadlineError, SessionRequest
from repro.service.ws import (
    OP_BINARY,
    OP_CLOSE,
    OP_TEXT,
    WsError,
    handshake_response,
    parse_upgrade,
    read_frame,
    send_frame,
)

#: Read streamed HTTP ingest bodies in slices this large (multiple of 8).
_INGEST_SLICE = 64 * 1024

#: Bound on header block and JSON body sizes.
_MAX_HEADER = 64 * 1024
_MAX_BODY = 16 * 1024 * 1024

_STATUS_TEXT = {
    200: "OK",
    201: "Created",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ServiceServer:
    """Serve one :class:`EmulationService` over TCP."""

    def __init__(
        self,
        service: EmulationService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self.drain_requested = asyncio.Event()

    async def start(self) -> None:
        await self.service.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self, drain: bool = True) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.stop(drain=drain)

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            method, path, headers = await self._read_head(reader)
        except (ReproError, ConnectionError, asyncio.IncompleteReadError):
            writer.close()
            return
        try:
            if headers.get("upgrade", "").lower() == "websocket":
                await self._handle_ws(reader, writer, method, path, headers)
                return
            status, body, content_type = await self._route(
                reader, method, path, headers
            )
        except (asyncio.IncompleteReadError, ConnectionError):
            # The client vanished mid-request: there is no one left to
            # answer.  Ingest handlers have already aborted their stream
            # (see _http_ingest) so nothing is left hanging.
            writer.close()
            return
        except ValidationError as error:
            status, body, content_type = self._error_payload(400, error)
        except AdmissionError as error:
            code = 503 if error.reason in ("draining", "shedding") else 429
            status, body, content_type = self._error_payload(code, error)
        except DeadlineError as error:
            status, body, content_type = self._error_payload(408, error)
        except ReproError as error:
            status, body, content_type = self._error_payload(500, error)
        try:
            await self._respond(writer, status, body, content_type)
        except ConnectionError:
            pass
        writer.close()

    async def _read_head(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, Dict[str, str]]:
        request_line = await reader.readline()
        parts = request_line.decode("latin-1").split()
        if len(parts) < 3:
            raise ValidationError(f"malformed request line {request_line!r}")
        method, path = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        total = 0
        while True:
            line = await reader.readline()
            total += len(line)
            if total > _MAX_HEADER:
                raise ValidationError("header block exceeds bound")
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        return method, path, headers

    async def _read_body(
        self, reader: asyncio.StreamReader, headers: Dict[str, str]
    ) -> bytes:
        length = int(headers.get("content-length", "0") or "0")
        if length > _MAX_BODY:
            raise ValidationError(
                f"request body of {length} bytes exceeds bound"
            )
        return await reader.readexactly(length) if length else b""

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        content_type: str,
    ) -> None:
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    @staticmethod
    def _json(payload: dict, status: int = 200) -> Tuple[int, bytes, str]:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        return status, body, "application/json"

    @staticmethod
    def _error_payload(
        status: int, error: ReproError
    ) -> Tuple[int, bytes, str]:
        to_dict = getattr(error, "to_dict", None)
        detail = to_dict() if to_dict is not None else {
            "error": type(error).__name__, "message": str(error),
        }
        body = json.dumps({"error": detail}, sort_keys=True).encode("utf-8")
        return status, body, "application/json"

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #

    async def _route(
        self,
        reader: asyncio.StreamReader,
        method: str,
        path: str,
        headers: Dict[str, str],
    ) -> Tuple[int, bytes, str]:
        service = self.service
        path = path.split("?", 1)[0]
        if method == "GET" and path == "/healthz":
            return self._json({"ok": True, "state": service.state.value})
        if method == "GET" and path == "/readyz":
            status = service.status()
            return self._json(status, 200 if status["ready"] else 503)
        if method == "GET" and path == "/metrics":
            page = service_exposition(
                service.status(),
                service.ingest_snapshot(),
                histograms=list(service.histograms.values()),
            )
            return 200, page.encode("utf-8"), "text/plain; version=0.0.4"
        if method == "GET" and path == "/status":
            return self._json(service.status())
        if method == "POST" and path == "/drain":
            self.drain_requested.set()
            return self._json({"ok": True, "state": "drain"}, 202)
        if path == "/sessions":
            if method == "POST":
                body = await self._read_body(reader, headers)
                request = SessionRequest.from_dict(_parse_json(body))
                session = service.submit(request)
                return self._json(
                    {"session": session.id, "state": session.state.value},
                    201,
                )
            if method == "GET":
                views = [
                    service.sessions[key].view().to_dict()
                    for key in sorted(service.sessions)
                ]
                return self._json({"sessions": views})
            return self._json({"error": "method not allowed"}, 405)
        if path.startswith("/sessions/"):
            return await self._route_session(reader, method, path, headers)
        return self._json({"error": f"no route {method} {path}"}, 404)

    async def _route_session(
        self,
        reader: asyncio.StreamReader,
        method: str,
        path: str,
        headers: Dict[str, str],
    ) -> Tuple[int, bytes, str]:
        service = self.service
        parts = path.strip("/").split("/")
        session_id = parts[1]
        tail = parts[2] if len(parts) > 2 else ""
        if method == "GET" and tail == "metrics":
            if session_id in service.sessions:
                page = service.session_metrics_page(session_id)
                return 200, page.encode("utf-8"), "text/plain; version=0.0.4"
            # A terminal session evicted from memory is a *different* 404
            # from a name the service never saw: the scraper should stop
            # polling the former and fix its config for the latter.
            reason = (
                "evicted" if session_id in service.history
                else "unknown-session"
            )
            return self._json(
                {
                    "error": {
                        "type": "metrics",
                        "error": f"no metrics for session {session_id} "
                                 f"({reason})",
                        "reason": reason,
                        "session": session_id,
                    }
                },
                404,
            )
        if session_id not in service.sessions:
            return self._json({"error": f"unknown session {session_id}"}, 404)
        session = service.get_session(session_id)
        if method == "GET" and not tail:
            return self._json(session.view().to_dict())
        if method == "GET" and tail == "result":
            if not session.state.terminal:
                return self._json(
                    {"error": "session not terminal",
                     "state": session.state.value},
                    409,
                )
            return self._json(service.session_result(session_id))
        if method == "POST" and tail == "ingest":
            staged = await self._http_ingest(reader, session_id, headers)
            return self._json({"session": session_id, "records": staged}, 202)
        return self._json({"error": f"no route {method} {path}"}, 404)

    async def _http_ingest(
        self,
        reader: asyncio.StreamReader,
        session_id: str,
        headers: Dict[str, str],
    ) -> int:
        """Stream an HTTP body into the session's bounded ingest buffer.

        The body is read in bounded slices and each ``ingest_chunk``
        await honours the buffer bound — while the staging side is slow
        the socket is simply not read, which is the back-pressure
        contract end to end.

        A body torn mid-stream (client disconnect before the promised
        Content-Length arrived) aborts the session's ingest before the
        error propagates: the stream cannot be reconstructed, so the
        session must expire with a structured reason, never hang QUEUED.
        """
        length = int(headers.get("content-length", "0") or "0")
        if length % 8 != 0:
            raise ValidationError(
                f"ingest body of {length} bytes is not whole bus words"
            )
        remaining = length
        try:
            while remaining > 0:
                piece = await reader.readexactly(
                    min(_INGEST_SLICE, remaining)
                )
                remaining -= len(piece)
                await self.service.ingest_chunk(
                    session_id, chunk_from_bytes(piece)
                )
        except (asyncio.IncompleteReadError, ConnectionError):
            await self.service.ingest_abort(session_id)
            raise
        return await self.service.ingest_end(session_id)

    # ------------------------------------------------------------------ #
    # WebSocket endpoints
    # ------------------------------------------------------------------ #

    async def _handle_ws(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        headers: Dict[str, str],
    ) -> None:
        try:
            key = parse_upgrade(headers)
            parts = path.strip("/").split("/")
            if len(parts) != 3 or parts[0] != "sessions":
                raise ValidationError(f"no websocket route {path}")
            session_id, endpoint = parts[1], parts[2]
            self.service.get_session(session_id)
        except ReproError as error:
            status, body, content_type = self._error_payload(404, error)
            try:
                await self._respond(writer, status, body, content_type)
            except ConnectionError:
                pass
            writer.close()
            return
        writer.write(handshake_response(key))
        await writer.drain()
        try:
            if endpoint == "events":
                await self._ws_events(reader, writer, session_id)
            elif endpoint == "ingest-ws":
                await self._ws_ingest(reader, writer, session_id)
            else:
                await send_frame(writer, OP_CLOSE, b"")
        except (WsError, ConnectionError):
            pass
        finally:
            writer.close()

    async def _ws_events(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        session_id: str,
    ) -> None:
        """Fan one session's event feed out to this socket as JSON text."""
        queue = self.service.subscribe(session_id)
        try:
            while True:
                record = await queue.get()
                if record is None:
                    await send_frame(writer, OP_CLOSE, b"")
                    return
                payload = json.dumps(record, sort_keys=True).encode("utf-8")
                await send_frame(writer, OP_TEXT, payload)
        finally:
            self.service.unsubscribe(session_id, queue)

    async def _ws_ingest(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        session_id: str,
    ) -> None:
        """Binary frames are trace chunks; the text frame ``end`` stages.

        ``ingest_chunk`` awaiting on a full buffer stops this loop from
        reading further frames — TCP back-pressure reaches the client.

        A stream torn *without* an OP_CLOSE frame (TCP reset, EOF
        mid-frame) surfaces as ``WsError``/``ConnectionError`` from the
        frame loop; that must abort the session's ingest just like a
        polite close, or the session would hang QUEUED forever while
        holding its tenant queue-quota slot.
        """
        try:
            while True:
                opcode, payload = await read_frame(reader)
                if opcode == OP_BINARY:
                    await self.service.ingest_chunk(
                        session_id, chunk_from_bytes(payload)
                    )
                    continue
                if opcode == OP_TEXT and payload == b"end":
                    staged = await self.service.ingest_end(session_id)
                    await send_frame(
                        writer,
                        OP_TEXT,
                        json.dumps(
                            {"staged": staged}, sort_keys=True
                        ).encode("utf-8"),
                    )
                    await send_frame(writer, OP_CLOSE, b"")
                    return
                if opcode == OP_CLOSE:
                    await self.service.ingest_abort(session_id)
                    return
                raise WsError(
                    f"unexpected ingest frame opcode {opcode:#x}"
                )
        except (WsError, ConnectionError, asyncio.IncompleteReadError):
            await self.service.ingest_abort(session_id)
            raise


def _parse_json(body: bytes) -> dict:
    try:
        payload = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as error:
        raise ValidationError(f"request body is not valid JSON: {error}")
    if not isinstance(payload, dict):
        raise ValidationError("request body must be a JSON object")
    return payload


async def serve_forever(server: ServiceServer) -> None:
    """Run until SIGTERM/SIGINT or ``POST /drain``, then drain cleanly.

    The SIGTERM path is the graceful-shutdown contract: stop admitting,
    suspend in-flight runs at their next committed segment, journal the
    manifest, exit — a restarted server on the same root re-adopts and
    finishes the suspended work bit-identically.
    """
    import signal

    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(
                signum, server.drain_requested.set
            )
        except (NotImplementedError, RuntimeError):
            pass
    await server.drain_requested.wait()
    await server.stop(drain=True)
