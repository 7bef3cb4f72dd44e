"""Simulated evaluation environments.

:func:`build_paper_testbed` reproduces Section 7.2's lab setup: a
client and seven private cloud servers on 1 Gbps ethernet, shaped with
tc/netem to four "fast" clouds at 15 MB/s and three "slow" clouds at
2 MB/s.  :func:`build_environment` builds an environment from arbitrary
links (Table 2 rates, trial profiles, time-varying traces); every
provider is an :class:`InMemoryCSP`, wrapped in a
:class:`repro.faults.FaultyProvider` when a fault plan is given.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.core.client import CyrusClient
from repro.core.config import CyrusConfig
from repro.core.transfer import SimulatedEngine, TransferReceiver
from repro.csp.base import CloudProvider
from repro.csp.memory import InMemoryCSP
from repro.faults import FaultPlan, FaultyProvider
from repro.netsim.link import Link
from repro.obs import Observability, Tracer
from repro.util.clock import SimClock

#: Paper testbed shaping (Section 7.2).
FAST_RATE = 15e6
SLOW_RATE = 2e6
#: 1 Gbps ethernet in bytes/s.
GIGABIT = 1e9 / 8


@dataclass
class SimEnvironment:
    """A clock, providers, links and an engine, ready for clients."""

    clock: SimClock
    links: dict[str, Link]
    csps: dict[str, CloudProvider]
    engine: SimulatedEngine
    receiver: TransferReceiver = field(default_factory=TransferReceiver)
    #: Shared observability with a tracer attached (clients created via
    #: new_client adopt it)
    obs: Observability | None = None

    def new_client(
        self,
        config: CyrusConfig,
        client_id: str = "client-1",
        selector=None,
        chunker=None,
        clusters=None,
    ) -> CyrusClient:
        """A CYRUS client over this environment's providers."""
        return CyrusClient.create(
            list(self.csps.values()), config, client_id=client_id,
            engine=self.engine, selector=selector, chunker=chunker,
            clusters=clusters,
        )

    def csp_ids(self) -> list[str]:
        return sorted(self.csps)


def build_environment(
    links: Mapping[str, Link],
    client_up: float = GIGABIT,
    client_down: float = GIGABIT,
    faults: FaultPlan | None = None,
) -> SimEnvironment:
    """An environment from explicit links.

    With ``faults`` every store is wrapped in a :class:`FaultyProvider`
    on the environment's clock (an outage, auth expiry or full quota is
    a spec of the plan); without it the stores are bare.
    """
    clock = SimClock()
    csps: dict[str, CloudProvider] = {
        link_id: InMemoryCSP(link_id) for link_id in links
    }
    if faults is not None:
        csps = {link_id: FaultyProvider(store, faults, clock=clock)
                for link_id, store in csps.items()}
    receiver = TransferReceiver()
    obs = Observability(clock=clock, tracer=Tracer(clock))
    engine = SimulatedEngine(
        csps, dict(links), clock,
        client_up=client_up, client_down=client_down,
        receiver=receiver, obs=obs,
    )
    return SimEnvironment(clock=clock, links=dict(links), csps=csps,
                          engine=engine, receiver=receiver, obs=obs)


def build_paper_testbed(
    fast: int = 4,
    slow: int = 3,
    fast_rate: float = FAST_RATE,
    slow_rate: float = SLOW_RATE,
    rtt_s: float = 0.001,
    client_up: float = GIGABIT,
    client_down: float = GIGABIT,
) -> SimEnvironment:
    """Section 7.2's testbed: 4 fast (15 MB/s) + 3 slow (2 MB/s) clouds."""
    links: dict[str, Link] = {}
    for i in range(fast):
        links[f"fast{i}"] = Link.symmetric(f"fast{i}", fast_rate, rtt_s=rtt_s)
    for i in range(slow):
        links[f"slow{i}"] = Link.symmetric(f"slow{i}", slow_rate, rtt_s=rtt_s)
    return build_environment(links, client_up=client_up, client_down=client_down)
