"""Request/response RPC over the simulated network.

Handlers may return either a plain value or a generator (a simulation
process) whose return value becomes the response — so a handler can
perform simulated disk I/O before replying.  A plain handler runs and
replies inside the delivery of its request; only a generator handler
gets a process of its own.  Remote exceptions are re-raised at the
caller as :class:`RemoteError`; lost messages surface as
:class:`RpcTimeout`.

Each call waits on one reply event, settled by whichever comes first:
the response's delivery or the call's deadline.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Generator

from repro.net.network import Message, Network
from repro.sim import Event, Interrupt, Simulator

__all__ = ["RemoteError", "RpcClient", "RpcServer", "RpcTimeout"]


class RpcTimeout(Exception):
    """No response arrived within the deadline."""


class RemoteError(Exception):
    """The remote handler raised; carries the original message."""


_REQUEST = "rpc_request"
_RESPONSE = "rpc_response"


class RpcServer:
    """Dispatches incoming requests on one network node."""

    def __init__(self, sim: Simulator, network: Network, address: str):
        self.sim = sim
        self.network = network
        self.address = address
        network.attach(address, _REQUEST, self._on_request)
        self._handlers: Dict[str, Callable[..., Any]] = {}
        self.requests_served = 0

    def register(self, method: str, handler: Callable[..., Any]) -> None:
        if method in self._handlers:
            raise ValueError(f"handler for {method!r} already registered")
        self._handlers[method] = handler

    def _on_request(self, message: Message) -> None:
        payload = message.payload
        method = payload["method"]
        handler = self._handlers.get(method)
        if handler is None:
            self._reply(message, "error", f"no such method {method!r}")
            return
        try:
            result = handler(*payload.get("args", ()), **payload.get("kwargs", {}))
        except Exception as exc:  # noqa: BLE001 - forwarded to caller
            self._reply(message, "error", f"{type(exc).__name__}: {exc}")
            return
        if hasattr(result, "send") and hasattr(result, "throw"):
            self.sim.process(self._finish(message, result))
        else:
            self._reply(message, "result", result)

    def _finish(
        self, message: Message, handler: Generator[Event, Any, Any]
    ) -> Generator[Event, Any, None]:
        """Run a generator handler to completion, then reply."""
        try:
            result = yield from handler
        except Interrupt:
            # A kernel interrupt (server torn down mid-request) must
            # reach the kernel, not be forwarded as an RPC error.
            raise
        except Exception as exc:  # noqa: BLE001 - forwarded to caller
            self._reply(message, "error", f"{type(exc).__name__}: {exc}")
            return
        self._reply(message, "result", result)

    def _reply(self, message: Message, outcome: str, value: Any) -> None:
        """Send ``{outcome: value}`` (``result`` or ``error``) back."""
        payload = message.payload
        self.requests_served += 1
        self.network.send(
            self.address,
            message.src,
            {"kind": _RESPONSE, "id": payload["id"], outcome: value},
            size=payload.get("response_size", 256),
        )


class RpcClient:
    """Issues requests from one network node and matches responses."""

    def __init__(self, sim: Simulator, network: Network, address: str):
        self.sim = sim
        self.network = network
        self.address = address
        network.attach(address, _RESPONSE, self._on_response)
        self._ids = itertools.count(1)
        self._pending: Dict[int, Event] = {}

    def _on_response(self, message: Message) -> None:
        payload = message.payload
        reply = self._pending.pop(payload["id"], None)
        if reply is None:
            return  # response after timeout: drop
        if "error" in payload:
            reply.fail(RemoteError(payload["error"]))
            reply.defuse()
        else:
            reply.succeed(payload.get("result"))

    def call(
        self,
        target: str,
        method: str,
        *args: Any,
        timeout: float = 5.0,
        request_size: int = 256,
        response_size: int = 256,
        **kwargs: Any,
    ) -> Generator[Event, Any, Any]:
        """Perform one call and return its result.

        A generator: use as ``result = yield from client.call(...)``
        inside a process.  Raises :class:`RemoteError` if the handler
        raised and :class:`RpcTimeout` if no response arrived within
        ``timeout`` seconds.
        """
        request_id = next(self._ids)
        payload = {
            "kind": _REQUEST,
            "id": request_id,
            "method": method,
            "args": args,
            "kwargs": kwargs,
            "response_size": response_size,
        }
        reply = self.sim.event()
        self._pending[request_id] = reply
        self.network.send(self.address, target, payload, size=request_size)

        def expire() -> None:
            if self._pending.pop(request_id, None) is reply:
                reply.fail(RpcTimeout(f"{method} to {target} timed out after {timeout}s"))
                reply.defuse()

        self.sim.defer(timeout, expire)
        result = yield reply
        return result
