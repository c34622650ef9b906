"""Flow-level packet generation primitives.

These builders produce the packet sequences of individual flows: TCP
handshakes with data, full HTTP request/response exchanges (with
controllable bodies so the IDS's md5 malware detection has something to
chew on), and port scans. Traces (:mod:`repro.traffic.traces`) compose
them into the workload mixes the paper's evaluation uses.

Packets are created lazily via :class:`PacketBlueprint` so a trace can be
replayed several times (each replay makes fresh :class:`Packet` objects
with fresh uids).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.flowspace.fivetuple import TCP, FiveTuple
from repro.net.packet import Packet


@dataclass(frozen=True)
class PacketBlueprint:
    """A packet waiting to be instantiated at replay time."""

    five_tuple: FiveTuple
    tcp_flags: Tuple[str, ...] = ()
    seq: int = 0
    payload: str = ""

    def build(
        self,
        created_at: float,
        flag_sets: Optional[Dict[Tuple[str, ...], FrozenSet[str]]] = None,
    ) -> Packet:
        """A fresh packet. With ``flag_sets`` (a dict the caller owns),
        packets with the same flags share one frozen flag set."""
        flags: Iterable[str] = self.tcp_flags
        if flag_sets is not None:
            flags = flag_sets.get(self.tcp_flags)
            if flags is None:
                flags = flag_sets[self.tcp_flags] = frozenset(self.tcp_flags)
        return Packet(
            self.five_tuple,
            tcp_flags=flags,
            seq=self.seq,
            payload=self.payload,
            created_at=created_at,
        )


@dataclass
class FlowBlueprint:
    """An ordered packet sequence belonging to one flow."""

    five_tuple: FiveTuple
    packets: List[PacketBlueprint] = field(default_factory=list)
    kind: str = "generic"
    #: Reverse-direction tuple, built once and shared by every reply
    #: packet of the flow. Sharing matters beyond allocation: per-flow
    #: caches (flow keys, sampling verdicts) memoize on the tuple
    #: object, so one instance per direction keeps them O(flows).
    _reversed: Optional[FiveTuple] = field(
        default=None, repr=False, compare=False
    )

    def add(
        self,
        flags: Iterable[str] = (),
        seq: int = 0,
        payload: str = "",
        reverse: bool = False,
    ) -> None:
        if reverse:
            tuple_ = self._reversed
            if tuple_ is None:
                tuple_ = self._reversed = self.five_tuple.reversed()
        else:
            tuple_ = self.five_tuple
        self.packets.append(
            PacketBlueprint(tuple_, tuple(flags), seq, payload)
        )

    def __len__(self) -> int:
        return len(self.packets)


def tcp_flow(
    five_tuple: FiveTuple,
    data_packets: int = 8,
    payload_size: int = 512,
    bidirectional: bool = True,
    close: bool = True,
) -> FlowBlueprint:
    """A plain TCP connection: handshake, data both ways, FIN."""
    flow = FlowBlueprint(five_tuple, kind="tcp")
    flow.add(flags=("SYN",))
    if bidirectional:
        flow.add(flags=("SYN", "ACK"), reverse=True)
    flow.add(flags=("ACK",))
    seq_fwd = 0
    seq_rev = 0
    for index in range(data_packets):
        if bidirectional and index % 3 == 2:
            body = "d" * payload_size
            flow.add(flags=("ACK",), seq=seq_rev, payload=body, reverse=True)
            seq_rev += len(body)
        else:
            body = "u" * payload_size
            flow.add(flags=("ACK",), seq=seq_fwd, payload=body)
            seq_fwd += len(body)
    if close:
        flow.add(flags=("FIN", "ACK"), seq=seq_fwd)
        if bidirectional:
            flow.add(flags=("FIN", "ACK"), seq=seq_rev, reverse=True)
    return flow


def http_exchange(
    client_ip: str,
    client_port: int,
    server_ip: str,
    url: str = "/index.html",
    host: str = "example.com",
    user_agent: str = "Mozilla/5.0 (modern)",
    reply_body: str = "",
    reply_chunk: int = 1200,
    server_port: int = 80,
    close: bool = True,
) -> FlowBlueprint:
    """A full HTTP/1.1 request/response over one TCP connection.

    The reply body is segmented into ``reply_chunk``-byte data packets
    with correct sequence offsets, so an IDS downstream can reassemble it
    and hash it — or notice a gap if any packet was lost in a state move.
    """
    five_tuple = FiveTuple(client_ip, client_port, server_ip, server_port, TCP)
    flow = FlowBlueprint(five_tuple, kind="http")
    flow.add(flags=("SYN",))
    flow.add(flags=("SYN", "ACK"), reverse=True)
    flow.add(flags=("ACK",))

    request = (
        "GET %s HTTP/1.1\r\nHost: %s\r\nUser-Agent: %s\r\n\r\n"
        % (url, host, user_agent)
    )
    flow.add(flags=("ACK", "PSH"), seq=0, payload=request)

    header = "HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(reply_body)
    reply_stream = header + reply_body
    offset = 0
    while offset < len(reply_stream):
        chunk = reply_stream[offset : offset + reply_chunk]
        flow.add(flags=("ACK",), seq=offset, payload=chunk, reverse=True)
        offset += len(chunk)

    if close:
        flow.add(flags=("FIN", "ACK"), seq=len(request))
        flow.add(flags=("FIN", "ACK"), seq=len(reply_stream), reverse=True)
    return flow


def port_scan(
    scanner_ip: str,
    target_ips: Iterable[str],
    ports: Iterable[int],
    src_port: int = 40000,
) -> List[FlowBlueprint]:
    """SYN probes from one scanner to many (host, port) targets.

    Each probe is its own one-packet flow; a scan detector counts the
    distinct targets per scanner (multi-flow state).
    """
    flows: List[FlowBlueprint] = []
    offset = 0
    for target in target_ips:
        for port in ports:
            five_tuple = FiveTuple(scanner_ip, src_port + offset, target, port, TCP)
            probe = FlowBlueprint(five_tuple, kind="scan")
            probe.add(flags=("SYN",))
            flows.append(probe)
            offset += 1
    return flows


def ftp_session(
    client_ip: str,
    server_ip: str,
    filename: str = "dump.tar",
    control_port: int = 50100,
    data_port: int = 50200,
    data_packets: int = 4,
    payload_size: int = 800,
) -> List[FlowBlueprint]:
    """An FTP retrieval: a control connection issuing ``RETR`` followed
    by the server-initiated data connection (active mode, src port 20).

    Returns ``[control_flow, data_flow]``; interleave them so the RETR
    precedes the data SYN — the ordering §5.1.2's example depends on.
    """
    control = FlowBlueprint(
        FiveTuple(client_ip, control_port, server_ip, 21, TCP), kind="ftp-ctl"
    )
    control.add(flags=("SYN",))
    control.add(flags=("SYN", "ACK"), reverse=True)
    control.add(flags=("ACK",))
    command = "RETR %s\r\n" % filename
    control.add(flags=("ACK", "PSH"), seq=0, payload=command)

    data = FlowBlueprint(
        FiveTuple(server_ip, 20, client_ip, data_port, TCP), kind="ftp-data"
    )
    data.add(flags=("SYN",))
    data.add(flags=("SYN", "ACK"), reverse=True)
    offset = 0
    for _ in range(data_packets):
        body = "f" * payload_size
        data.add(flags=("ACK",), seq=offset, payload=body)
        offset += payload_size
    data.add(flags=("FIN", "ACK"), seq=offset)
    return [control, data]
