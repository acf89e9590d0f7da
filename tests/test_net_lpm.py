"""Unit and property tests for the LPM trie."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.addr import IPv4Address, IPv4Prefix, IPv6Address, IPv6Prefix
from repro.net.lpm import LpmTrie


def P(text: str) -> IPv4Prefix:
    return IPv4Prefix.parse(text)


def A(text: str) -> IPv4Address:
    return IPv4Address.parse(text)


class TestLpmTrieBasics:
    def test_empty_lookup(self):
        assert LpmTrie().lookup(A("10.0.0.1")) is None

    def test_insert_and_exact_get(self):
        trie = LpmTrie()
        trie.insert(P("10.0.0.0/8"), "x")
        assert trie.get(P("10.0.0.0/8")) == "x"
        assert trie.get(P("10.0.0.0/16")) is None

    def test_longest_match_wins(self):
        trie = LpmTrie()
        trie.insert(P("10.0.0.0/8"), "coarse")
        trie.insert(P("10.1.0.0/16"), "fine")
        assert trie.lookup(A("10.1.2.3")) == (P("10.1.0.0/16"), "fine")
        assert trie.lookup(A("10.2.0.0")) == (P("10.0.0.0/8"), "coarse")

    def test_superprefix_fallback_after_removal(self):
        """The longest-prefix-matching behaviour proactive-superprefix
        relies on: while the /24 exists it wins; after removal the /23
        takes over."""
        trie = LpmTrie()
        trie.insert(P("184.164.244.0/23"), "backup")
        trie.insert(P("184.164.244.0/24"), "specific")
        probe = A("184.164.244.10")
        assert trie.lookup(probe)[1] == "specific"
        assert trie.remove(P("184.164.244.0/24"))
        assert trie.lookup(probe)[1] == "backup"

    def test_remove_missing_returns_false(self):
        trie = LpmTrie()
        assert not trie.remove(P("10.0.0.0/8"))

    def test_replace_value(self):
        trie = LpmTrie()
        trie.insert(P("10.0.0.0/8"), "a")
        trie.insert(P("10.0.0.0/8"), "b")
        assert trie.get(P("10.0.0.0/8")) == "b"
        assert len(trie) == 1

    def test_len_tracks_distinct_prefixes(self):
        trie = LpmTrie()
        trie.insert(P("10.0.0.0/8"), 1)
        trie.insert(P("10.0.0.0/16"), 2)
        assert len(trie) == 2
        trie.remove(P("10.0.0.0/8"))
        assert len(trie) == 1

    def test_contains(self):
        trie = LpmTrie()
        trie.insert(P("10.0.0.0/8"), 1)
        assert P("10.0.0.0/8") in trie
        assert P("10.0.0.0/9") not in trie

    def test_default_route(self):
        trie = LpmTrie()
        trie.insert(P("0.0.0.0/0"), "default")
        assert trie.lookup(A("203.0.113.7")) == (P("0.0.0.0/0"), "default")

    def test_host_route(self):
        trie = LpmTrie()
        trie.insert(P("10.0.0.0/8"), "net")
        trie.insert(P("10.0.0.1/32"), "host")
        assert trie.lookup(A("10.0.0.1"))[1] == "host"
        assert trie.lookup(A("10.0.0.2"))[1] == "net"

    def test_items_returns_all(self):
        trie = LpmTrie()
        prefixes = [P("10.0.0.0/8"), P("10.1.0.0/16"), P("192.168.0.0/24")]
        for i, prefix in enumerate(prefixes):
            trie.insert(prefix, i)
        assert dict(trie.items()) == {p: i for i, p in enumerate(prefixes)}

    def test_clear(self):
        trie = LpmTrie()
        trie.insert(P("10.0.0.0/8"), 1)
        trie.clear()
        assert len(trie) == 0
        assert trie.lookup(A("10.0.0.1")) is None

    def test_lookup_returns_matched_prefix(self):
        trie = LpmTrie()
        trie.insert(P("10.1.2.0/24"), "v")
        match = trie.lookup(A("10.1.2.200"))
        assert match == (P("10.1.2.0/24"), "v")


class TestNodePruning:
    """remove() must drop a length's table once it is empty: announce/
    withdraw churn (reactive-anycast's steady state) otherwise leaves
    dead tables behind, each one an extra probe on every lookup."""

    def test_remove_prunes_back_to_root(self):
        trie = LpmTrie()
        assert trie.table_count() == 0
        trie.insert(P("10.1.2.0/24"), "v")
        assert trie.table_count() == 1  # one /24 table
        trie.remove(P("10.1.2.0/24"))
        assert trie.table_count() == 0

    def test_remove_keeps_shared_spine(self):
        trie = LpmTrie()
        trie.insert(P("10.0.0.0/8"), "coarse")
        trie.insert(P("10.1.0.0/16"), "fine")
        baseline = trie.table_count()
        trie.remove(P("10.1.0.0/16"))
        assert trie.table_count() == 1  # the /8 table stays
        assert trie.lookup(A("10.1.2.3")) == (P("10.0.0.0/8"), "coarse")
        trie.insert(P("10.1.0.0/16"), "fine")
        assert trie.table_count() == baseline

    def test_remove_keeps_deeper_entries(self):
        """Removing a covering prefix must not orphan the more-specific
        one below it (the superprefix/specific pair of §3)."""
        trie = LpmTrie()
        trie.insert(P("184.164.244.0/23"), "backup")
        trie.insert(P("184.164.244.0/24"), "specific")
        trie.remove(P("184.164.244.0/23"))
        assert trie.lookup(A("184.164.244.10")) == (P("184.164.244.0/24"), "specific")
        assert trie.table_count() == 1  # the /23 table is gone, the /24 kept

    def test_churn_does_not_grow_the_trie(self):
        """10k announce/withdraw cycles end at the pre-churn baseline."""
        trie = LpmTrie()
        trie.insert(P("184.164.244.0/23"), "superprefix")  # steady announcement
        baseline = trie.table_count()
        flapping = P("184.164.244.0/24")
        for _ in range(10_000):
            trie.insert(flapping, "specific")
            assert trie.remove(flapping)
        assert trie.table_count() == baseline
        assert len(trie) == 1

    def test_churn_across_many_prefixes(self):
        trie = LpmTrie()
        baseline = trie.table_count()
        prefixes = [P(f"10.{i}.0.0/16") for i in range(64)]
        for _ in range(20):
            for prefix in prefixes:
                trie.insert(prefix, str(prefix))
            for prefix in prefixes:
                assert trie.remove(prefix)
        assert trie.table_count() == baseline
        assert len(trie) == 0


class TestNoneValues:
    def test_insert_none_rejected(self):
        """None would be indistinguishable from 'absent' in get()."""
        trie = LpmTrie()
        with pytest.raises(ValueError, match="None"):
            trie.insert(P("10.0.0.0/8"), None)
        assert len(trie) == 0
        assert P("10.0.0.0/8") not in trie

    def test_contains_agrees_with_get(self):
        trie = LpmTrie()
        trie.insert(P("10.0.0.0/8"), 0)  # falsy value still counts
        assert P("10.0.0.0/8") in trie
        assert trie.get(P("10.0.0.0/8")) == 0
        trie.remove(P("10.0.0.0/8"))
        assert P("10.0.0.0/8") not in trie
        assert trie.get(P("10.0.0.0/8")) is None


prefix_strategy = st.builds(
    lambda value, length: IPv4Prefix.of(IPv4Address(value), length),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=32),
)


class TestLpmTrieProperties:
    @settings(max_examples=50)
    @given(
        st.lists(st.tuples(prefix_strategy, st.integers()), max_size=30),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_brute_force(self, entries, probe_value):
        """LPM lookup agrees with a brute-force longest-match scan."""
        trie = LpmTrie()
        table: dict[IPv4Prefix, int] = {}
        for prefix, value in entries:
            trie.insert(prefix, value)
            table[prefix] = value
        probe = IPv4Address(probe_value)
        expected = None
        for prefix, value in table.items():
            if prefix.contains(probe):
                if expected is None or prefix.length > expected[0].length:
                    expected = (prefix, value)
        assert trie.lookup(probe) == expected

    @settings(max_examples=50)
    @given(st.lists(prefix_strategy, max_size=30, unique=True))
    def test_insert_remove_roundtrip(self, prefixes):
        trie = LpmTrie()
        for prefix in prefixes:
            trie.insert(prefix, str(prefix))
        assert len(trie) == len(prefixes)
        for prefix in prefixes:
            assert trie.remove(prefix)
        assert len(trie) == 0

    @settings(max_examples=30)
    @given(st.lists(prefix_strategy, max_size=20, unique=True))
    def test_items_roundtrip(self, prefixes):
        trie = LpmTrie()
        for prefix in prefixes:
            trie.insert(prefix, prefix.length)
        assert sorted(p for p, _ in trie.items()) == sorted(prefixes)


def _family_ops(bits: int, address_type, prefix_type):
    """Interleaved operations on one address family. Prefix lengths are
    drawn from a few fixed values -- the default route, the host route
    and three in between -- over a small address pool (eight networks,
    four hosts each), so inserts,
    removals and lookups collide often enough to exercise fallback
    from a removed specific to a surviving cover."""
    lengths = st.sampled_from([0, bits // 4, bits // 2, bits - 8, bits])
    addresses = st.builds(
        lambda high, low: address_type(high << (bits - 3) | low),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=3),
    )
    prefixes = st.builds(prefix_type.of, addresses, lengths)
    return st.lists(
        st.one_of(
            st.tuples(st.just("insert"), prefixes, st.integers()),
            st.tuples(st.just("remove"), prefixes),
            st.tuples(st.just("lookup"), addresses),
            st.tuples(st.just("get"), prefixes),
        ),
        max_size=60,
    )


def _check_against_reference(bits: int, ops) -> None:
    trie = LpmTrie(bits=bits)
    reference: dict = {}
    for op in ops:
        kind = op[0]
        if kind == "insert":
            _, prefix, value = op
            trie.insert(prefix, value)
            reference[prefix] = value
        elif kind == "remove":
            prefix = op[1]
            assert trie.remove(prefix) == (prefix in reference)
            reference.pop(prefix, None)
        elif kind == "get":
            prefix = op[1]
            assert trie.get(prefix) == reference.get(prefix)
            assert (prefix in trie) == (prefix in reference)
        else:
            address = op[1]
            covering = [p for p in reference if p.contains(address)]
            best = max(covering, key=lambda p: p.length, default=None)
            expected = None if best is None else (best, reference[best])
            assert trie.lookup(address) == expected
        assert len(trie) == len(reference)
    assert dict(trie.items()) == reference
    assert trie.table_count() == len({p.length for p in reference})


class TestDifferentialAgainstDict:
    """Interleaved insert/remove/lookup/get sequences agree with a
    brute-force dict reference, in both address families."""

    @settings(max_examples=200)
    @given(_family_ops(32, IPv4Address, IPv4Prefix))
    def test_ipv4_matches_reference(self, ops):
        _check_against_reference(32, ops)

    @settings(max_examples=200)
    @given(_family_ops(128, IPv6Address, IPv6Prefix))
    def test_ipv6_matches_reference(self, ops):
        _check_against_reference(128, ops)
