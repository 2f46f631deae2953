"""Stdlib HTTP server around :class:`GatewayCore` (S19).

Zero-dependency on purpose: the CI smoke job and any laptop demo only
need the standard library.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.gateway.core import GatewayCore


class _Handler(BaseHTTPRequestHandler):
    core: GatewayCore  # injected by make_handler

    def _dispatch(self, method: str) -> None:
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length) if length else None
        status, content_type, payload = self.core.handle(method, self.path, body)
        data = payload.encode()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
        self._dispatch("GET")

    def do_PUT(self) -> None:  # noqa: N802
        self._dispatch("PUT")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # operator endpoint; stay quiet on the server's stderr


class GatewayHTTPServer:
    """A :class:`GatewayCore` served over HTTP on a background thread.

    ``port=0`` binds an ephemeral port (read it back from ``.port``
    after ``start()``), which is what the smoke script and tests use.
    """

    def __init__(
        self, core: GatewayCore, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        handler = type("GatewayHandler", (_Handler,), {"core": core})
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    def start(self) -> "GatewayHTTPServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="gateway-http", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None


def serve_gateway(target, host: str = "127.0.0.1", port: int = 0) -> GatewayHTTPServer:
    """Attach a gateway to *target* and serve it; returns the running server."""
    return GatewayHTTPServer(GatewayCore(target), host=host, port=port).start()
