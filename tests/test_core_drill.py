"""Tests for the §4 rotation drill."""

import pytest

from repro.core.drill import RotationDrill
from repro.core.techniques import ReactiveAnycast, Unicast
from repro.topology.testbed import SECOND_PREFIX, SPECIFIC_PREFIX

from tests.conftest import FAST_TIMING


@pytest.fixture(scope="module")
def clients(topology):
    return [info.node_id for info in topology.web_client_ases()][:12]


class TestRotationDrill:
    def test_reactive_anycast_passes_drill(self, deployment, topology, clients):
        drill = RotationDrill(
            topology, deployment, ReactiveAnycast(),
            deadline_s=60.0, timing=FAST_TIMING,
        )
        outcome = drill.run_site("sea1", clients)
        assert outcome.passed
        assert outcome.recovered == len(clients)
        assert outcome.stranded_clients == ()

    def test_unicast_strands_everyone(self, deployment, topology, clients):
        """Unicast has no BGP-side failover: after the drill withdrawal
        the test prefix is simply gone."""
        drill = RotationDrill(
            topology, deployment, Unicast(),
            deadline_s=60.0, timing=FAST_TIMING,
        )
        outcome = drill.run_site("sea1", clients)
        assert not outcome.passed
        assert outcome.stranded == len(clients)

    def test_rotation_covers_all_sites(self, deployment, topology, clients):
        drill = RotationDrill(
            topology, deployment, ReactiveAnycast(),
            deadline_s=60.0, timing=FAST_TIMING,
        )
        outcomes = drill.run_rotation(clients)
        assert [o.site for o in outcomes] == deployment.site_names
        assert drill.outcomes == outcomes  # recorded once per site
        assert drill.all_passed()

    def test_uses_spare_prefix_by_default(self):
        """The drill fails the testbed's spare /24, never production's."""
        from repro.core import drill

        assert drill.SECOND_PREFIX == SECOND_PREFIX != SPECIFIC_PREFIX

    def test_all_passed_false_before_running(self, deployment, topology):
        drill = RotationDrill(topology, deployment, ReactiveAnycast())
        assert not drill.all_passed()
