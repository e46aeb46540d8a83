"""PRR floorplanning under the paper's local-clock-region constraints.

Section III.B.2 / IV.A of the paper constrain a legal VAPRES floorplan:

1. every PRR fits inside one to three *vertically adjacent* local clock
   regions (a BUFR can only reach three regions), hence PRR height is at
   most 48 CLB rows;
2. the clock regions used by different PRRs may not intersect (each
   region's clock nets belong to exactly one local clock domain);
3. PRRs may not overlap each other or the static-region logic.

:class:`Floorplan` validates manual placements against these rules;
:func:`auto_floorplan` is the scripted floorplanner the paper lists as
future work -- it packs PRRs into dedicated clock regions automatically.
The ASCII rendering regenerates the layout view of Figure 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

from repro.fabric.device import SLICES_PER_CLB, Virtex4Device
from repro.fabric.geometry import (
    CLOCK_REGION_ROWS,
    ClockRegion,
    Rect,
    bands_are_contiguous,
    clock_regions_of,
)
from repro.fabric.slice_macro import boundary_sites, macros_for_signals

MAX_PRR_REGIONS = 3
MAX_PRR_HEIGHT = MAX_PRR_REGIONS * CLOCK_REGION_ROWS


class FloorplanError(Exception):
    """Raised when a placement violates the paper's floorplan rules."""


@dataclass
class PrrPlacement:
    """One placed PRR: its rectangle plus derived clocking information."""

    name: str
    rect: Rect
    clock_regions: FrozenSet[ClockRegion]
    boundary_signals: int = 0

    @property
    def slices(self) -> int:
        return self.rect.clbs * SLICES_PER_CLB

    @property
    def bufr_region(self) -> ClockRegion:
        """The (middle) region hosting this PRR's BUFR."""
        bands = sorted(r.band for r in self.clock_regions)
        half = next(iter(self.clock_regions)).half
        return ClockRegion(half, bands[len(bands) // 2])

    def slice_macro_sites(self) -> List[Tuple[int, int]]:
        """Boundary-column sites for this PRR's slice macros."""
        count = macros_for_signals(self.boundary_signals)
        return boundary_sites(self.rect.col, self.rect.row, self.rect.height, count)

    def __str__(self) -> str:
        regions = ",".join(str(r) for r in sorted(self.clock_regions, key=str))
        return f"PRR {self.name}: {self.rect} regions[{regions}] {self.slices} slices"


class Floorplan:
    """A device floorplan: static reservations plus validated PRR placements."""

    def __init__(self, device: Virtex4Device) -> None:
        self.device = device
        self.prrs: Dict[str, PrrPlacement] = {}
        self.static_rects: List[Rect] = []

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def reserve_static(self, rect: Rect) -> None:
        """Reserve a rectangle for static-region logic."""
        self._check_bounds(rect)
        for placement in self.prrs.values():
            if rect.intersects(placement.rect):
                raise FloorplanError(
                    f"static rect {rect} overlaps PRR {placement.name}"
                )
        self.static_rects.append(rect)

    def place_prr(
        self, name: str, rect: Rect, boundary_signals: int = 0
    ) -> PrrPlacement:
        """Place a PRR, enforcing all of the paper's constraints."""
        if name in self.prrs:
            raise FloorplanError(f"PRR {name!r} already placed")
        # Rect validates on construction, but placements also arrive from
        # deserialised sysdefs and duck-typed rects -- re-check here so the
        # error names the PRR rather than surfacing deep in region math.
        if rect.width <= 0 or rect.height <= 0:
            raise FloorplanError(
                f"PRR {name!r} rectangle {rect.width}x{rect.height} has "
                "zero or negative area"
            )
        if rect.col < 0 or rect.row < 0:
            raise FloorplanError(
                f"PRR {name!r} origin ({rect.col},{rect.row}) is negative"
            )
        self._check_bounds(rect, owner=f"PRR {name!r}")
        if rect.height > MAX_PRR_HEIGHT:
            raise FloorplanError(
                f"PRR {name!r} is {rect.height} CLBs tall; a BUFR reaches at "
                f"most {MAX_PRR_REGIONS} clock regions = {MAX_PRR_HEIGHT} CLBs"
            )
        regions = clock_regions_of(rect, self.device.clb_cols)
        if not bands_are_contiguous(regions):
            raise FloorplanError(
                f"PRR {name!r} at {rect} spans clock regions in both device "
                "halves or in non-adjacent bands"
            )
        if len(regions) > MAX_PRR_REGIONS:
            raise FloorplanError(
                f"PRR {name!r} occupies {len(regions)} clock regions; max is "
                f"{MAX_PRR_REGIONS}"
            )
        for other in self.prrs.values():
            if regions & other.clock_regions:
                raise FloorplanError(
                    f"PRR {name!r} shares clock regions with PRR {other.name!r}: "
                    f"{sorted(str(r) for r in regions & other.clock_regions)}"
                )
            if rect.intersects(other.rect):
                raise FloorplanError(f"PRR {name!r} overlaps PRR {other.name!r}")
        for static in self.static_rects:
            if rect.intersects(static):
                raise FloorplanError(f"PRR {name!r} overlaps static rect {static}")
        placement = PrrPlacement(name, rect, regions, boundary_signals)
        self.prrs[name] = placement
        return placement

    def remove_prr(self, name: str) -> None:
        del self.prrs[name]

    def _check_bounds(self, rect: Rect, owner: str = "") -> None:
        if not self.device.bounds.contains(rect):
            prefix = f"{owner}: " if owner else ""
            raise FloorplanError(
                f"{prefix}{rect} exceeds {self.device.name} bounds"
            )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def prr_slices(self) -> int:
        return sum(p.slices for p in self.prrs.values())

    @property
    def static_slices_available(self) -> int:
        """Slices not inside any PRR (available to the static region)."""
        return self.device.slices - self.prr_slices

    def fragmentation(self, module_slices: Dict[str, int]) -> Dict[str, int]:
        """Wasted slices per PRR for modules of the given sizes.

        ``module_slices`` maps PRR name to the slice count of the hardware
        module currently resident; the result is the paper's *resource
        fragmentation* metric (Section IV.A / V.B future work).
        """
        waste = {}
        for name, placement in self.prrs.items():
            used = module_slices.get(name, 0)
            if used > placement.slices:
                raise FloorplanError(
                    f"module in PRR {name!r} needs {used} slices but the PRR "
                    f"only has {placement.slices}"
                )
            waste[name] = placement.slices - used
        return waste

    # ------------------------------------------------------------------
    # rendering (Figure 8)
    # ------------------------------------------------------------------
    def render_ascii(self, col_scale: int = 1, row_scale: int = 4) -> str:
        """Render the floorplan as ASCII art (top row = top of device).

        ``.`` static fabric, letters = PRRs, ``*`` = the PRR's BUFR region
        marker, ``m`` = slice macro sites, ``|`` = device half boundary.
        """
        cols = -(-self.device.clb_cols // col_scale)
        rows = -(-self.device.clb_rows // row_scale)
        grid = [["." for _ in range(cols)] for _ in range(rows)]

        def put(col: int, row: int, char: str) -> None:
            grid[row // row_scale][col // col_scale] = char

        for index, placement in enumerate(self.prrs.values()):
            letter = chr(ord("A") + (index % 26))
            for col, row in placement.rect.cells():
                put(col, row, letter)
            bufr = placement.bufr_region
            bufr_rect = self.device.region_rect(bufr)
            put(bufr_rect.col, bufr_rect.row + bufr_rect.height // 2, "*")
            for col, row in placement.slice_macro_sites():
                put(col, row, "m")

        center = self.device.center_col // col_scale
        lines = []
        for row in range(rows - 1, -1, -1):
            line = "".join(grid[row])
            line = line[:center] + "|" + line[center:]
            lines.append(line)
        legend = ", ".join(
            f"{chr(ord('A') + i)}={name}" for i, name in enumerate(self.prrs)
        )
        header = f"{self.device.name} floorplan ({legend or 'no PRRs'})"
        return "\n".join([header] + lines)

    def summary(self) -> str:
        lines = [f"Floorplan on {self.device.name}:"]
        for placement in self.prrs.values():
            lines.append(f"  {placement}")
        lines.append(
            f"  static region: {self.static_slices_available} slices available"
        )
        return "\n".join(lines)


def auto_floorplan(
    device: Virtex4Device,
    prr_requirements: Sequence[Tuple[str, int]],
    regions_per_prr: int = 1,
    boundary_signals: int = 0,
    start_band: int = 0,
    half: int = 0,
) -> Floorplan:
    """Scripted floorplanner (the paper's future-work tooling).

    Each PRR receives ``regions_per_prr`` dedicated, vertically adjacent
    clock regions in device half ``half``, stacked upward from
    ``start_band``.  Width is the smallest CLB count that satisfies the
    requested slice count within the fixed height.

    ``prr_requirements`` is a sequence of ``(name, min_slices)``.
    """
    if not 1 <= regions_per_prr <= MAX_PRR_REGIONS:
        raise FloorplanError(
            f"regions_per_prr must be in [1,{MAX_PRR_REGIONS}], got {regions_per_prr}"
        )
    plan = Floorplan(device)
    height = regions_per_prr * CLOCK_REGION_ROWS
    half_width = (
        device.clb_cols - device.center_col if half else device.center_col
    )
    band = start_band
    for name, min_slices in prr_requirements:
        needed_clbs = -(-min_slices // SLICES_PER_CLB)
        width = min(half_width, max(1, -(-needed_clbs // height)))
        if width * height * SLICES_PER_CLB < min_slices:
            raise FloorplanError(
                f"PRR {name!r} needs {min_slices} slices; a {regions_per_prr}-"
                f"region PRR on {device.name} holds at most "
                f"{half_width * height * SLICES_PER_CLB}"
            )
        if band + regions_per_prr > device.clock_region_bands:
            raise FloorplanError(
                f"out of clock regions placing PRR {name!r} on {device.name}"
            )
        col = 0 if half == 0 else device.center_col
        rect = Rect(col, band * CLOCK_REGION_ROWS, width, height)
        plan.place_prr(name, rect, boundary_signals)
        band += regions_per_prr
    return plan
