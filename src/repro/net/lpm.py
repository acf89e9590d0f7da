"""Longest-prefix-match table.

Prefixes are kept in one dict per prefix length, keyed by the masked
network integer. Used as the backing store for router FIBs: forwarding a
packet is one :meth:`LpmTrie.lookup` per hop, which masks the address
once per distinct length present (longest first) and returns the first
hit. A FIB holds only a handful of lengths (the CDN /24 and /23, the
per-AS prefixes), so a lookup is a few dict probes and allocates
nothing: the stored ``(prefix, value)`` pair is returned as is.

The table is address-family generic: ``bits=32`` (the default) stores
:class:`~repro.net.addr.IPv4Prefix` keys, ``bits=128`` stores
:class:`~repro.net.addr.IPv6Prefix` keys. Mixing families in one table
is rejected, as real FIBs keep separate v4/v6 tables.
"""

from __future__ import annotations

from typing import Generic, Iterator, Protocol, TypeVar

V = TypeVar("V")


class _AddressLike(Protocol):
    value: int

    @property
    def bits(self) -> int: ...


class _PrefixLike(Protocol):
    network: int
    length: int

    @property
    def bits(self) -> int: ...


class LpmTrie(Generic[V]):
    """Per-prefix-length tables with longest-prefix-match lookup.

    >>> table = LpmTrie()
    >>> table.insert(IPv4Prefix.parse("10.0.0.0/8"), "coarse")
    >>> table.insert(IPv4Prefix.parse("10.1.0.0/16"), "fine")
    >>> table.lookup(IPv4Address.parse("10.1.2.3"))
    (IPv4Prefix('10.1.0.0/16'), 'fine')
    """

    __slots__ = ("_bits", "_tables", "_order")

    def __init__(self, bits: int = 32) -> None:
        if bits not in (32, 128):
            raise ValueError(f"bits must be 32 or 128, got {bits}")
        self._bits = bits
        #: {length: {masked network: (prefix, value)}}, no empty tables
        self._tables: dict[int, dict[int, tuple[_PrefixLike, V]]] = {}
        #: (netmask, table) pairs, longest length first; rebuilt only when
        #: a length gains its first entry or loses its last
        self._order: list[tuple[int, dict[int, tuple[_PrefixLike, V]]]] = []

    @property
    def bits(self) -> int:
        return self._bits

    def __len__(self) -> int:
        return sum(len(table) for table in self._tables.values())

    def __contains__(self, prefix: _PrefixLike) -> bool:
        self._check_family(prefix.bits)
        table = self._tables.get(prefix.length)
        return table is not None and prefix.network in table

    def _check_family(self, bits: int) -> None:
        if bits != self._bits:
            raise ValueError(
                f"address family mismatch: trie is {self._bits}-bit, key is {bits}-bit"
            )

    def _reorder(self) -> None:
        full = (1 << self._bits) - 1
        self._order = [
            ((full << (self._bits - length)) & full, self._tables[length])
            for length in sorted(self._tables, reverse=True)
        ]

    def insert(self, prefix: _PrefixLike, value: V) -> None:
        """Insert or replace the value at ``prefix``.

        ``None`` is rejected: :meth:`get` returns ``None`` for "absent",
        so a stored ``None`` would be indistinguishable from a miss.
        """
        if value is None:
            raise ValueError("LpmTrie cannot store None (get() uses None for 'absent')")
        self._check_family(prefix.bits)
        table = self._tables.get(prefix.length)
        if table is None:
            table = self._tables[prefix.length] = {}
            self._reorder()
        table[prefix.network] = (prefix, value)

    def remove(self, prefix: _PrefixLike) -> bool:
        """Remove ``prefix``; returns True if it was present.

        A length's table is dropped once its last entry goes, so
        announce/withdraw churn (reactive-anycast's steady state) neither
        grows the table set nor leaves empty probes on the lookup path.
        """
        self._check_family(prefix.bits)
        table = self._tables.get(prefix.length)
        if table is None or table.pop(prefix.network, None) is None:
            return False
        if not table:
            del self._tables[prefix.length]
            self._reorder()
        return True

    def get(self, prefix: _PrefixLike) -> V | None:
        """Exact-match lookup (no LPM); None means absent."""
        self._check_family(prefix.bits)
        entry = self._tables.get(prefix.length, {}).get(prefix.network)
        return None if entry is None else entry[1]

    def table_count(self) -> int:
        """Number of non-empty per-length tables (a churn diagnostic:
        after every prefix is removed this returns to 0)."""
        return len(self._tables)

    def lookup(self, address: _AddressLike) -> tuple[_PrefixLike, V] | None:
        """Longest-prefix match for ``address``; None if nothing matches."""
        self._check_family(address.bits)
        value = address.value
        for mask, table in self._order:
            entry = table.get(value & mask)
            if entry is not None:
                return entry
        return None

    def items(self) -> Iterator[tuple[_PrefixLike, V]]:
        """Iterate all (prefix, value) pairs, longest prefixes first."""
        for _, table in self._order:
            yield from table.values()

    def clear(self) -> None:
        """Remove all entries."""
        self._tables = {}
        self._order = []
