"""Live telemetry/control gateway (S19).

>>> core = GatewayCore(server)              # attaches a ControlPlane
>>> core.handle("GET", "/metrics")          # Prometheus text
>>> core.handle("PUT", "/policy", b'{"bounds": {...}}')  # next-tick retune

Serve it over HTTP with :func:`serve_gateway` (stdlib, no deps).
"""

from repro.gateway.app import GatewayHTTPServer, serve_gateway
from repro.gateway.control import OP_KINDS, ControlPlane
from repro.gateway.core import GatewayCore

__all__ = [
    "ControlPlane",
    "GatewayCore",
    "GatewayHTTPServer",
    "OP_KINDS",
    "serve_gateway",
]
