"""Containers: private network namespaces with their own IP.

A container owns a private IP on the overlay, a veth gateway into the
host's bridge, and application sockets. Its packets traverse the full
overlay pipeline of its host's :class:`~repro.kernel.stack.NetworkStack`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.kernel.skb import PROTO_TCP, PROTO_UDP, FlowKey
from repro.kernel.sockets import MessageCallback, Socket

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.overlay.host import Host


class Container:
    """One container instance placed on a host."""

    def __init__(self, name: str, private_ip: int, host: "Host") -> None:
        self.name = name
        self.private_ip = private_ip
        self.host = host
        self._next_port = 5000

    def allocate_port(self) -> int:
        port = self._next_port
        self._next_port += 1
        return port

    def listen(
        self,
        port: int,
        app_cpu: int,
        on_message: Optional[MessageCallback] = None,
        proto: int = PROTO_UDP,
    ) -> Socket:
        """Open a server socket inside the container.

        The socket is reachable at (container private IP, port); remote
        flows are bound to it via :meth:`connect_flow`.
        """
        # The socket is created unbound; flows attach as clients connect.
        socket = self.host.stack.open_socket(
            FlowKey(src_ip=0, dst_ip=self.private_ip, proto=proto, sport=0, dport=port),
            app_cpu=app_cpu,
            on_message=on_message,
            name=f"{self.name}:{port}",
        )
        return socket

    def connect_flow(
        self,
        socket: Socket,
        src_ip: int,
        sport: int,
        dport: int,
        proto: int = PROTO_UDP,
    ) -> FlowKey:
        """Bind a remote 5-tuple to a listening socket (a 'connection')."""
        flow = FlowKey(src_ip, self.private_ip, proto, sport, dport)
        self.host.stack.bind_flow(flow, socket)
        return flow

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Container {self.name} ip={self.private_ip}@{self.host.name}>"
