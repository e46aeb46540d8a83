"""RSPS runtime assembly (paper Section III.B.1).

Runtime assembly places hardware modules in PRRs and establishes on-demand
inter-module communication: the :class:`RuntimeAssembler` maps a
:class:`~repro.core.kpn.KahnProcessNetwork` onto a target RSB, placing
each module node into a PRR slot (instantly, or through timed partial
reconfiguration) and each edge onto a streaming channel.

The resulting :class:`AssembledApplication` exposes teardown and simple
runtime metrics.
"""

from __future__ import annotations

import itertools
from typing import Dict, Generator, Optional

from repro.comm.channel import StreamingChannel
from repro.core.kpn import KahnProcessNetwork
from repro.core.rsb import IomSlot, PrrSlot


class AssemblyError(Exception):
    """Raised when a network cannot be mapped onto the RSB."""


class AssembledApplication:
    """A live RSPS: placed modules plus established channels."""

    def __init__(
        self,
        system,
        kpn: KahnProcessNetwork,
        placement: Dict[str, str],
        channels: Dict[str, StreamingChannel],
    ) -> None:
        self.system = system
        self.kpn = kpn
        self.placement = dict(placement)
        self.channels = dict(channels)

    # ------------------------------------------------------------------
    def teardown(self) -> int:
        """Release every channel; returns total in-flight words lost."""
        lost = 0
        for channel in self.channels.values():
            if not channel.released:
                lost += self.system.close_stream(channel)
        self.channels.clear()
        return lost

    def throughput_summary(self) -> Dict[str, int]:
        """Words in/out per module node (from module counters)."""
        summary = {}
        for node_name, slot_name in self.placement.items():
            slot = self.system.slot(slot_name)
            if isinstance(slot, PrrSlot) and slot.module is not None:
                summary[node_name] = slot.module.samples_out
            elif isinstance(slot, IomSlot) and slot.iom is not None:
                summary[node_name] = len(slot.iom.received)
        return summary

    def __repr__(self) -> str:
        return (
            f"AssembledApplication({self.kpn.name}: "
            f"{len(self.placement)} nodes, {len(self.channels)} channels)"
        )


class RuntimeAssembler:
    """Maps KPNs onto a system's RSB and brings them to life."""

    def __init__(self, system, rsb_index: int = 0) -> None:
        self.system = system
        self.rsb = system.rsbs[rsb_index]

    # ------------------------------------------------------------------
    def auto_placement(self, kpn: KahnProcessNetwork) -> Dict[str, str]:
        """Greedy placement: IOM nodes onto IOM slots, modules onto free
        PRRs, both in attachment order."""
        placement: Dict[str, str] = {}
        free_prrs = [s for s in self.rsb.prr_slots if not s.occupied]
        free_ioms = list(self.rsb.iom_slots)
        module_nodes = kpn.module_nodes()
        iom_nodes = kpn.iom_nodes()
        if len(module_nodes) > len(free_prrs):
            raise AssemblyError(
                f"{kpn.name}: {len(module_nodes)} module nodes but only "
                f"{len(free_prrs)} free PRRs in {self.rsb.name}"
            )
        if len(iom_nodes) > len(free_ioms):
            raise AssemblyError(
                f"{kpn.name}: {len(iom_nodes)} IOM nodes but only "
                f"{len(free_ioms)} IOM slots in {self.rsb.name}"
            )
        for node, slot in zip(module_nodes, free_prrs):
            placement[node.name] = slot.name
        for node, slot in zip(iom_nodes, free_ioms):
            placement[node.name] = slot.name
        return placement

    def optimized_placement(
        self, kpn: KahnProcessNetwork, max_exhaustive: int = 6
    ) -> Dict[str, str]:
        """Placement minimising total channel hop distance.

        Channel latency and lane usage both grow with the switch distance
        |src - dst| (one lane per intermediate box), so a placement that
        keeps communicating nodes adjacent stretches the kr/kl budget and
        cuts latency.  Exhaustive search over module-to-PRR assignments up
        to ``max_exhaustive`` module nodes (the practical RSB size), else
        falls back to :meth:`auto_placement`.
        """
        module_nodes = kpn.module_nodes()
        iom_nodes = kpn.iom_nodes()
        free_prrs = [s for s in self.rsb.prr_slots if not s.occupied]
        free_ioms = list(self.rsb.iom_slots)
        if len(module_nodes) > len(free_prrs) or len(iom_nodes) > len(free_ioms):
            raise AssemblyError(
                f"{kpn.name}: not enough free slots in {self.rsb.name}"
            )
        if len(module_nodes) > max_exhaustive:
            return self.auto_placement(kpn)
        iom_placement = {
            node.name: slot for node, slot in zip(iom_nodes, free_ioms)
        }

        def cost(assignment: Dict[str, object]) -> int:
            total = 0
            for edge in kpn.edges:
                src = assignment.get(edge.src) or iom_placement.get(edge.src)
                dst = assignment.get(edge.dst) or iom_placement.get(edge.dst)
                total += abs(src.position - dst.position)
            return total

        best_cost = None
        best: Optional[Dict[str, object]] = None
        names = [node.name for node in module_nodes]
        for slots in itertools.permutations(free_prrs, len(names)):
            assignment = dict(zip(names, slots))
            current = cost(assignment)
            if best_cost is None or current < best_cost:
                best_cost = current
                best = assignment
        placement = {name: slot.name for name, slot in (best or {}).items()}
        placement.update(
            {name: slot.name for name, slot in iom_placement.items()}
        )
        return placement

    def placement_hop_cost(
        self, kpn: KahnProcessNetwork, placement: Dict[str, str]
    ) -> int:
        """Total |src - dst| switch distance over all edges."""
        total = 0
        for edge in kpn.edges:
            src = self.system.slot(placement[edge.src])
            dst = self.system.slot(placement[edge.dst])
            total += abs(src.position - dst.position)
        return total

    def check_placement(
        self, kpn: KahnProcessNetwork, placement: Dict[str, str]
    ) -> None:
        kpn.validate()
        for node in kpn.nodes.values():
            if node.name not in placement:
                raise AssemblyError(f"node {node.name!r} has no placement")
            slot = self.system.slot(placement[node.name])
            if node.is_iom != isinstance(slot, IomSlot):
                raise AssemblyError(
                    f"node {node.name!r} placed on wrong slot kind "
                    f"{slot.name!r}"
                )
            if node.inputs > len(slot.consumers) or node.outputs > len(
                slot.producers
            ):
                raise AssemblyError(
                    f"node {node.name!r} needs {node.inputs} in / "
                    f"{node.outputs} out ports; slot {slot.name!r} has "
                    f"{len(slot.consumers)}/{len(slot.producers)}"
                )
        slots = list(placement.values())
        if len(slots) != len(set(slots)):
            raise AssemblyError("two nodes share one slot")
        # feasibility of all edges against current lane availability
        state = self.rsb.router.comm_state()
        for edge in kpn.edges:
            src = self.system.slot(placement[edge.src])
            dst = self.system.slot(placement[edge.dst])
            if not state.can_route(src.position, dst.position):
                raise AssemblyError(
                    f"no switch-box capacity for edge {edge} "
                    f"({src.position} -> {dst.position})"
                )

    # ------------------------------------------------------------------
    def assemble(
        self,
        kpn: KahnProcessNetwork,
        placement: Optional[Dict[str, str]] = None,
    ) -> AssembledApplication:
        """Instant assembly (modules placed directly, no PR timing).

        Models the state right after initial configuration; use
        :meth:`assemble_timed` for the full reconfiguration-cost path.
        """
        placement = placement or self.auto_placement(kpn)
        self.check_placement(kpn, placement)
        for node in kpn.module_nodes():
            self.system.place_module_directly(node.factory(), placement[node.name])
        channels = self._establish_edges(kpn, placement)
        return AssembledApplication(self.system, kpn, placement, channels)

    def assemble_timed(
        self,
        kpn: KahnProcessNetwork,
        placement: Optional[Dict[str, str]] = None,
        reconfig_path: str = "array2icap",
    ) -> Generator:
        """MicroBlaze software assembling the network through real PR.

        Module nodes must have registered bitstreams (see
        ``VapresSystem.register_module``).  Yields MicroBlaze effects;
        returns the :class:`AssembledApplication`.
        """
        placement = placement or self.auto_placement(kpn)
        self.check_placement(kpn, placement)
        api = self.system.api
        for node in kpn.module_nodes():
            prr_name = placement[node.name]
            if reconfig_path == "array2icap":
                yield from api.vapres_array2icap(node.name, prr_name)
            else:
                yield from api.vapres_cf2icap(node.name, prr_name)
        channels: Dict[str, StreamingChannel] = {}
        for edge in kpn.edges:
            channel = yield from api.vapres_establish_channel(
                None,
                placement[edge.src],
                placement[edge.dst],
                src_port=edge.src_port,
                dst_port=edge.dst_port,
            )
            if channel is None:
                raise AssemblyError(f"failed to establish {edge}")
            channels[str(edge)] = channel
        return AssembledApplication(self.system, kpn, placement, channels)

    # ------------------------------------------------------------------
    def _establish_edges(
        self, kpn: KahnProcessNetwork, placement: Dict[str, str]
    ) -> Dict[str, StreamingChannel]:
        channels: Dict[str, StreamingChannel] = {}
        for edge in kpn.edges:
            channels[str(edge)] = self.system.open_stream(
                placement[edge.src],
                placement[edge.dst],
                src_port=edge.src_port,
                dst_port=edge.dst_port,
            )
        return channels
