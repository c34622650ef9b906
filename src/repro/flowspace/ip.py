"""Small IPv4 helpers: dotted-quad parsing and CIDR prefix matching.

Five-tuples keep addresses as plain strings (readable in logs and
traces); their :class:`~repro.flowspace.fivetuple.FlowKey` holds the integers,
converted once when the tuple is built. The module-level memo cache
serves filters and tuples that name the same addresses again.
"""

from __future__ import annotations

from typing import Dict, Tuple

_ADDR_CACHE: Dict[str, int] = {}
_PREFIX_CACHE: Dict[str, Tuple[int, int]] = {}


def ip_to_int(address: str) -> int:
    """Convert dotted-quad IPv4 ``address`` to a 32-bit integer."""
    cached = _ADDR_CACHE.get(address)
    if cached is not None:
        return cached
    parts = address.split(".")
    if len(parts) != 4:
        raise ValueError("invalid IPv4 address: %r" % (address,))
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError("invalid IPv4 address: %r" % (address,))
        value = (value << 8) | octet
    _ADDR_CACHE[address] = value
    return value


def parse_prefix(prefix: str) -> Tuple[int, int]:
    """Parse ``"10.0.0.0/8"`` (or a bare address) into ``(network, mask)``."""
    cached = _PREFIX_CACHE.get(prefix)
    if cached is not None:
        return cached
    if "/" in prefix:
        base, length_text = prefix.split("/", 1)
        length = int(length_text)
        if not 0 <= length <= 32:
            raise ValueError("invalid prefix length in %r" % (prefix,))
    else:
        base, length = prefix, 32
    mask = 0 if length == 0 else (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF
    network = ip_to_int(base) & mask
    result = (network, mask)
    _PREFIX_CACHE[prefix] = result
    return result


def ip_in_prefix(address: str, prefix: str) -> bool:
    """Whether ``address`` falls inside CIDR ``prefix`` (bare address = /32)."""
    network, mask = parse_prefix(prefix)
    return (ip_to_int(address) & mask) == network


def prefix_covers(outer: str, inner: str) -> bool:
    """Whether CIDR ``outer`` contains every address of CIDR ``inner``."""
    outer_net, outer_mask = parse_prefix(outer)
    inner_net, inner_mask = parse_prefix(inner)
    if (inner_mask & outer_mask) != outer_mask:
        return False  # inner is shorter (broader) than outer
    return (inner_net & outer_mask) == outer_net


def prefixes_overlap(left: str, right: str) -> bool:
    """Whether two CIDR prefixes share any address."""
    left_net, left_mask = parse_prefix(left)
    right_net, right_mask = parse_prefix(right)
    common = left_mask & right_mask
    return (left_net & common) == (right_net & common)
