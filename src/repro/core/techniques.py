"""CDN redirection techniques (Figure 1 of the paper).

Each technique is defined by what the *specific* site and the *other*
sites announce before a failure, and what changes afterwards:

====================== ============================ ==================== =====================
technique              specific site (before)       other sites (before) other sites (after)
====================== ============================ ==================== =====================
unicast                /24                          none                 unchanged
anycast                /24                          same /24             unchanged
proactive-superprefix  /24 (+ /23)                  covering /23         unchanged
reactive-anycast       /24                          none                 announce the /24
proactive-prepending   /24                          /24 prepended 3-5x   unchanged
combined               /24 (+ /23)                  covering /23         announce the /24
====================== ============================ ==================== =====================

In every case the failing site withdraws all of its announcements (§4:
"On site failure, we assume that the site withdraws its prefix
announcements"); DNS-side reactions are modelled separately in
:mod:`repro.core.controller`.

A second, load-shedding family (``shed-prepend``, ``shed-withdraw``,
``shed-dns``; see docs/load.md) extends the same control axis to
*capacity*, following the Sinha et al. anycast load-management line:
all three run plain anycast normally and react to the workload engine's
overload signal instead of (or in addition to) failures.

Each class also carries the Table 2 qualitative attributes (control /
availability / risk) so the Table 2 bench can assemble the matrix from
the same objects the experiments run.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.bgp.network import BgpNetwork
from repro.net.addr import IPv4Prefix
from repro.topology.testbed import CdnDeployment


@dataclass(frozen=True, slots=True)
class Tradeoff:
    """Table 2 row: qualitative control/availability/risk ratings."""

    control: str
    availability: str
    risk: str


class Technique(abc.ABC):
    """One announcement strategy for steering clients to sites."""

    #: short name used in figures and benches
    name: str
    #: Table 2 qualitative ratings
    tradeoff: Tradeoff
    #: True if the technique can steer *any* client to the specific site
    #: under normal operation (unicast-grade control, §5.4.2)
    full_control: bool = True
    #: target-selection mode for the §5 experiments: "beyond-anycast"
    #: applies the §5.1 criterion (targets anycast routes elsewhere);
    #: "anycast-catchment" keeps exactly the targets anycast routes to the
    #: site, the only population pure anycast can serve there.
    selection_mode: str = "beyond-anycast"

    @abc.abstractmethod
    def announce_normal(
        self,
        network: BgpNetwork,
        deployment: CdnDeployment,
        specific_site: str,
        prefix: IPv4Prefix,
        superprefix: IPv4Prefix,
    ) -> None:
        """Make the before-failure announcements of Figure 1."""

    # ------------------------------------------------------------------
    # Checkpoint/fork decomposition (see docs/checkpoint.md)
    #
    # Every experiment run splits announce_normal into a
    # site-independent *base* (converged once per technique, then
    # snapshotted) and a per-site *specific* delta (applied on each
    # fork). The invariant every override must keep:
    #
    #   announce_base(); converge(); announce_specific(site); converge()
    #
    # reaches the same origin configurations as announce_normal(site).
    # The order the two steps originate a site's prefixes in does not
    # matter: withdrawal order is canonical (most specific first, see
    # BgpRouter.originated_prefixes). Convergence of the delta is cheap
    # because it only *adds* or re-shapes announcements -- fresh
    # announcements propagate in seconds, and it is withdrawals (which
    # never appear here) that pay path hunting.

    @property
    def baseline_key(self) -> str:
        """Cache key for the technique's base snapshot.

        Techniques whose ``announce_base`` plans differ must not share a
        key; the default reuses ``name``, which already encodes every
        parameter that shapes announcements (prepend count, MED).
        """
        return self.name

    def announce_base(
        self,
        network: BgpNetwork,
        deployment: CdnDeployment,
        prefix: IPv4Prefix,
        superprefix: IPv4Prefix,
    ) -> None:
        """The site-independent part of :meth:`announce_normal`.

        Default: nothing -- correct for any technique whose normal
        announcements all depend on the specific site.
        """

    def announce_specific(
        self,
        network: BgpNetwork,
        deployment: CdnDeployment,
        specific_site: str,
        prefix: IPv4Prefix,
        superprefix: IPv4Prefix,
    ) -> None:
        """The per-site delta on top of :meth:`announce_base`.

        Default: the full :meth:`announce_normal`, which is exactly
        right when ``announce_base`` announced nothing.
        """
        self.announce_normal(network, deployment, specific_site, prefix, superprefix)

    def on_failure(
        self,
        network: BgpNetwork,
        deployment: CdnDeployment,
        failed_site: str,
        prefix: IPv4Prefix,
        superprefix: IPv4Prefix,
    ) -> None:
        """React to the failure *after* it has been detected.

        The failed site's own withdrawals have already happened; only
        reactive techniques add announcements here.
        """

    def on_recovery(
        self,
        network: BgpNetwork,
        deployment: CdnDeployment,
        recovered_site: str,
        prefix: IPv4Prefix,
        superprefix: IPv4Prefix,
    ) -> None:
        """Undo any failure-time reconfiguration once the site is back.

        Called after the recovered site has re-made its normal
        announcements; reactive techniques withdraw their emergency
        announcements here so control returns to the intended site.
        """

    # ------------------------------------------------------------------
    # Load shedding (docs/load.md)
    #
    # The overload hooks mirror on_failure/on_recovery: the workload
    # engine latches a site whose offered load exceeds its serving
    # capacity, and the controller calls on_overload after its
    # detection delay. Unlike a failure, the overloaded site stays up
    # and keeps serving at capacity -- the hook's job is to move *some*
    # of its catchment elsewhere, not all of it.

    #: fraction of an overloaded site's requests the DNS layer diverts
    #: to the least-loaded live site (the DNS-weighted shedding hybrid);
    #: 0 disables the DNS side entirely
    shed_dns_fraction: float = 0.0

    def on_overload(
        self,
        network: BgpNetwork,
        deployment: CdnDeployment,
        overloaded_site: str,
        prefix: IPv4Prefix,
        superprefix: IPv4Prefix,
    ) -> None:
        """Shed load off a site whose serving capacity is exhausted.

        Default: nothing -- non-shedding techniques ignore overload and
        keep losing the excess (that contrast is the point of the
        overload scenarios).
        """

    def on_overload_cleared(
        self,
        network: BgpNetwork,
        deployment: CdnDeployment,
        site: str,
        prefix: IPv4Prefix,
        superprefix: IPv4Prefix,
    ) -> None:
        """Undo the shed once the site's capacity is back (un-brownout)."""

    # ------------------------------------------------------------------

    def _other_sites(self, deployment: CdnDeployment, specific_site: str) -> list[str]:
        return [s for s in deployment.site_names if s != specific_site]

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class Unicast(Technique):
    """DNS-based redirection over per-site unicast prefixes (§2).

    Full control, but failover waits on DNS caches (and their violators):
    no BGP-side backup exists at all.
    """

    name = "unicast"
    tradeoff = Tradeoff(control="high", availability="low", risk="low")

    def announce_normal(self, network, deployment, specific_site, prefix, superprefix):
        network.announce(deployment.site_node(specific_site), prefix)


class Anycast(Technique):
    """Pure IP anycast (§2): every site announces the same prefix.

    BGP picks the site, so the CDN has little say (low control), but
    withdrawal at a failed site converges fast onto pre-existing routes.
    """

    name = "anycast"
    tradeoff = Tradeoff(control="low", availability="high", risk="low")
    full_control = False
    selection_mode = "anycast-catchment"

    def announce_normal(self, network, deployment, specific_site, prefix, superprefix):
        for site in deployment.site_names:
            network.announce(deployment.site_node(site), prefix)

    def announce_base(self, network, deployment, prefix, superprefix):
        # Pure anycast is entirely site-independent; every site announces.
        for site in deployment.site_names:
            network.announce(deployment.site_node(site), prefix)

    def announce_specific(self, network, deployment, specific_site, prefix, superprefix):
        pass  # nothing is specific to the intended site


class ProactiveSuperprefix(Technique):
    """Unicast /24 plus a covering /23 from every site (§3).

    Longest-prefix matching preserves unicast control while the /24
    exists; after withdrawal, traffic falls through to the /23 -- but only
    once the /24's slow path-hunting convergence finishes, which is why
    §3 rejects this as a solution.
    """

    name = "proactive-superprefix"
    tradeoff = Tradeoff(control="high", availability="medium", risk="low")

    def announce_normal(self, network, deployment, specific_site, prefix, superprefix):
        network.announce(deployment.site_node(specific_site), prefix)
        for site in deployment.site_names:
            network.announce(deployment.site_node(site), superprefix)

    def announce_base(self, network, deployment, prefix, superprefix):
        # The covering /23 comes from every site regardless of which
        # site is the intended one.
        for site in deployment.site_names:
            network.announce(deployment.site_node(site), superprefix)

    def announce_specific(self, network, deployment, specific_site, prefix, superprefix):
        network.announce(deployment.site_node(specific_site), prefix)


class ReactiveAnycast(Technique):
    """Unicast normally; on failure all other sites announce the /24 (§4).

    Control of unicast, failover of anycast -- at the price of a global,
    failure-triggered reconfiguration (the "high risk" entry of Table 2).
    """

    name = "reactive-anycast"
    tradeoff = Tradeoff(control="high", availability="high", risk="high")

    def announce_normal(self, network, deployment, specific_site, prefix, superprefix):
        network.announce(deployment.site_node(specific_site), prefix)

    def on_failure(self, network, deployment, failed_site, prefix, superprefix):
        for site in self._other_sites(deployment, failed_site):
            network.announce(deployment.site_node(site), prefix)

    def on_recovery(self, network, deployment, recovered_site, prefix, superprefix):
        for site in self._other_sites(deployment, recovered_site):
            network.withdraw(deployment.site_node(site), prefix)


class ProactivePrepending(Technique):
    """Anycast with AS-path prepending at the non-intended sites (§4).

    Backup routes are in place before the failure (no reconfiguration
    risk) but cost some control: a neighbor can prefer a prepended route
    for LOCAL_PREF reasons (Appendix C.1).

    ``restrict_to_shared_neighbors`` implements the paper's
    recommendation of announcing the prepended route only to neighbors
    that also connect to the specific site; §5.2 notes the evaluation
    does *not* apply it (PEERING providers differ by site), so it
    defaults to off.
    """

    name = "proactive-prepending"
    tradeoff = Tradeoff(control="medium", availability="high", risk="low")
    full_control = False

    def __init__(self, prepend: int = 3, restrict_to_shared_neighbors: bool = False) -> None:
        if prepend < 1:
            raise ValueError(f"prepend must be >= 1, got {prepend}")
        self.prepend = prepend
        self.restrict_to_shared_neighbors = restrict_to_shared_neighbors
        self.name = f"proactive-prepending-{prepend}"

    def announce_normal(self, network, deployment, specific_site, prefix, superprefix):
        specific_node = deployment.site_node(specific_site)
        network.announce(specific_node, prefix)
        shared: frozenset[str] | None = None
        if self.restrict_to_shared_neighbors:
            shared = frozenset(network.neighbors(specific_node))
        for site in self._other_sites(deployment, specific_site):
            node = deployment.site_node(site)
            neighbors = None
            if shared is not None:
                neighbors = frozenset(n for n in network.neighbors(node) if n in shared)
            network.announce(node, prefix, prepend=self.prepend, neighbors=neighbors)

    @property
    def baseline_key(self) -> str:
        # The restricted variant scopes its announcements to the
        # specific site's neighbors, so its (empty) base plan must not
        # share a snapshot with the unrestricted all-sites base.
        if self.restrict_to_shared_neighbors:
            return f"{self.name}+shared"
        return self.name

    def announce_base(self, network, deployment, prefix, superprefix):
        if self.restrict_to_shared_neighbors:
            return  # neighbor scoping depends on the specific site
        # Every site starts prepended; the fork promotes the intended
        # site by re-originating at prepend 0 (an in-place config change
        # that re-exports -- the drain mechanism).
        for site in deployment.site_names:
            network.announce(deployment.site_node(site), prefix, prepend=self.prepend)

    def announce_specific(self, network, deployment, specific_site, prefix, superprefix):
        if self.restrict_to_shared_neighbors:
            self.announce_normal(network, deployment, specific_site, prefix, superprefix)
            return
        network.announce(deployment.site_node(specific_site), prefix)


class ProactiveMed(Technique):
    """Anycast with MED-deterred backups (the §4 "BGP MED could also be
    used for neighbors that support it" variant).

    Every site announces the prefix; non-intended sites attach a higher
    MED. Neighbors connected to multiple sites honour the MED and pick
    the intended one; neighbors connected to a single site are
    uncontrolled (MED never crosses an AS boundary). Because the backup
    paths are *not* longer, failover does not pay prepending's extra
    exploration -- the technique trades reach of control for it.
    """

    name = "proactive-med"
    tradeoff = Tradeoff(control="medium", availability="high", risk="low")
    full_control = False

    def __init__(self, backup_med: int = 100) -> None:
        if backup_med < 1:
            raise ValueError(f"backup_med must be >= 1, got {backup_med}")
        self.backup_med = backup_med
        self.name = f"proactive-med-{backup_med}"

    def announce_normal(self, network, deployment, specific_site, prefix, superprefix):
        network.announce(deployment.site_node(specific_site), prefix, med=0)
        for site in self._other_sites(deployment, specific_site):
            network.announce(deployment.site_node(site), prefix, med=self.backup_med)

    def announce_base(self, network, deployment, prefix, superprefix):
        # Every site starts as a MED-deterred backup; the fork promotes
        # the intended site by re-originating at MED 0.
        for site in deployment.site_names:
            network.announce(deployment.site_node(site), prefix, med=self.backup_med)

    def announce_specific(self, network, deployment, specific_site, prefix, superprefix):
        network.announce(deployment.site_node(specific_site), prefix, med=0)


class Combined(Technique):
    """reactive-anycast + proactive-superprefix (§4's combined variant).

    The covering /23 is meant to catch routers that see the withdrawal
    before an alternate /24 route; the paper found it faster only for the
    fastest ~20% of failovers and much worse in the tail.
    """

    name = "combined"
    tradeoff = Tradeoff(control="high", availability="high", risk="high")

    def announce_normal(self, network, deployment, specific_site, prefix, superprefix):
        network.announce(deployment.site_node(specific_site), prefix)
        for site in deployment.site_names:
            network.announce(deployment.site_node(site), superprefix)

    def announce_base(self, network, deployment, prefix, superprefix):
        for site in deployment.site_names:
            network.announce(deployment.site_node(site), superprefix)

    def announce_specific(self, network, deployment, specific_site, prefix, superprefix):
        network.announce(deployment.site_node(specific_site), prefix)

    def on_failure(self, network, deployment, failed_site, prefix, superprefix):
        for site in self._other_sites(deployment, failed_site):
            network.announce(deployment.site_node(site), prefix)

    def on_recovery(self, network, deployment, recovered_site, prefix, superprefix):
        for site in self._other_sites(deployment, recovered_site):
            network.withdraw(deployment.site_node(site), prefix)


# ----------------------------------------------------------------------
# Load-shedding family (docs/load.md)


class ShedPrepend(Technique):
    """Anycast that sheds an overloaded site by prepending there.

    Normal operation is pure anycast. When the workload engine latches
    a site as overloaded, the site re-originates its /24 with
    ``prepend`` extra AS hops -- most of its catchment drains to
    neighboring sites over pre-existing routes while clients with no
    shorter alternative keep landing there (graceful degradation, not a
    withdrawal). The shed is in-place re-origination, so no path
    hunting: this is the brownout analogue of ``proactive-prepending``.
    """

    tradeoff = Tradeoff(control="medium", availability="high", risk="low")
    full_control = False
    selection_mode = "anycast-catchment"

    def __init__(self, prepend: int = 5) -> None:
        if prepend < 1:
            raise ValueError(f"prepend must be >= 1, got {prepend}")
        self.prepend = prepend
        self.name = f"shed-prepend-{prepend}"

    def announce_normal(self, network, deployment, specific_site, prefix, superprefix):
        for site in deployment.site_names:
            network.announce(deployment.site_node(site), prefix)

    def announce_base(self, network, deployment, prefix, superprefix):
        # Identical to anycast: entirely site-independent.
        for site in deployment.site_names:
            network.announce(deployment.site_node(site), prefix)

    def announce_specific(self, network, deployment, specific_site, prefix, superprefix):
        pass  # nothing is specific to the intended site

    def on_overload(self, network, deployment, overloaded_site, prefix, superprefix):
        network.announce(
            deployment.site_node(overloaded_site), prefix, prepend=self.prepend
        )

    def on_overload_cleared(self, network, deployment, site, prefix, superprefix):
        network.announce(deployment.site_node(site), prefix)


class ShedWithdraw(Technique):
    """Anycast that sheds an overloaded site by withdrawing its /24.

    Every site announces both the /24 and the covering /23; shedding
    withdraws only the overloaded site's /24, so longest-prefix matching
    moves its entire catchment onto the other sites' /24s while the /23
    keeps the site reachable as a last resort. Sheds *all* load (maximal
    relief) at the price of withdrawal-driven path hunting -- the
    high-risk end of the shedding family.
    """

    name = "shed-withdraw"
    tradeoff = Tradeoff(control="medium", availability="medium", risk="high")
    full_control = False
    selection_mode = "anycast-catchment"

    def announce_normal(self, network, deployment, specific_site, prefix, superprefix):
        for site in deployment.site_names:
            node = deployment.site_node(site)
            network.announce(node, prefix)
            network.announce(node, superprefix)

    def announce_base(self, network, deployment, prefix, superprefix):
        for site in deployment.site_names:
            node = deployment.site_node(site)
            network.announce(node, prefix)
            network.announce(node, superprefix)

    def announce_specific(self, network, deployment, specific_site, prefix, superprefix):
        pass  # nothing is specific to the intended site

    def on_overload(self, network, deployment, overloaded_site, prefix, superprefix):
        network.withdraw(deployment.site_node(overloaded_site), prefix)

    def on_overload_cleared(self, network, deployment, site, prefix, superprefix):
        network.announce(deployment.site_node(site), prefix)


class ShedDns(Technique):
    """The DNS-weighted shedding hybrid: light prepend + DNS diversion.

    On overload the site re-originates with a single prepend (a gentle
    BGP nudge) and the authoritative DNS starts steering
    ``shed_dns_fraction`` of the site's remaining requests to the live
    site with the most spare capacity. BGP moves the coarse mass, DNS
    trims the remainder at cache-TTL granularity -- the Sinha et al.
    split between routing-layer and resolver-layer control.
    """

    tradeoff = Tradeoff(control="high", availability="high", risk="low")
    full_control = False
    selection_mode = "anycast-catchment"

    def __init__(self, fraction: float = 0.5, prepend: int = 1) -> None:
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        if prepend < 0:
            raise ValueError(f"prepend must be >= 0, got {prepend}")
        self.shed_dns_fraction = fraction
        self.prepend = prepend
        self.name = "shed-dns"

    def announce_normal(self, network, deployment, specific_site, prefix, superprefix):
        for site in deployment.site_names:
            network.announce(deployment.site_node(site), prefix)

    def announce_base(self, network, deployment, prefix, superprefix):
        for site in deployment.site_names:
            network.announce(deployment.site_node(site), prefix)

    def announce_specific(self, network, deployment, specific_site, prefix, superprefix):
        pass  # nothing is specific to the intended site

    def on_overload(self, network, deployment, overloaded_site, prefix, superprefix):
        if self.prepend:
            network.announce(
                deployment.site_node(overloaded_site), prefix, prepend=self.prepend
            )

    def on_overload_cleared(self, network, deployment, site, prefix, superprefix):
        network.announce(deployment.site_node(site), prefix)


#: The techniques compared in Figure 2 / Table 2 plus the load-shedding
#: family, by canonical name.
TECHNIQUES: dict[str, type[Technique]] = {
    "unicast": Unicast,
    "anycast": Anycast,
    "proactive-superprefix": ProactiveSuperprefix,
    "reactive-anycast": ReactiveAnycast,
    "proactive-prepending": ProactivePrepending,
    "proactive-med": ProactiveMed,
    "combined": Combined,
    "shed-prepend": ShedPrepend,
    "shed-withdraw": ShedWithdraw,
    "shed-dns": ShedDns,
}


def technique_by_name(name: str, **kwargs) -> Technique:
    """Instantiate a technique by its canonical name."""
    if name not in TECHNIQUES:
        raise KeyError(f"unknown technique {name!r}; have {sorted(TECHNIQUES)}")
    return TECHNIQUES[name](**kwargs)
