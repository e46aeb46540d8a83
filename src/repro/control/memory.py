"""External memory models: CompactFlash, SDRAM and the ICAP BRAM buffer.

The paper stores hardware-module partial bitstreams as files on the ML401's
CompactFlash card (accessed through the System ACE controller and a FAT
filesystem) or as byte arrays preloaded into DDR SDRAM.  These devices are
substituted by storage dictionaries plus *effective byte rates* calibrated
against Section V.B:

* reading a file from CF ran at ~36.6 kB/s effective (it accounted for
  95.3% of the 1.043 s `vapres_cf2icap` reconfiguration of the 36,408-byte
  prototype bitstream -- System ACE is byte-wise and FAT adds per-sector
  overhead);
* the MicroBlaze-driven SDRAM-to-ICAP path ran at ~506 kB/s (71.94 ms for
  the same bitstream via `vapres_array2icap`).

Only the *relative* shape matters for the paper's conclusions (CF path is
~14.5x slower; both scale linearly with bitstream size), and that shape is
preserved exactly.
"""

from __future__ import annotations

from typing import Dict, Optional

#: Effective CompactFlash read rate (calibrated, see module docstring).
CF_BYTES_PER_SECOND = 36_622
#: Effective SDRAM-array-to-ICAP transfer rate (calibrated).
SDRAM_ICAP_BYTES_PER_SECOND = 506_089
#: Effective BRAM-buffer-to-ICAP write rate: the remaining 4.7% of the
#: `vapres_cf2icap` time (36,408 bytes / 49.02 ms).
ICAP_BUFFER_BYTES_PER_SECOND = 742_700


class MemoryError_(Exception):
    """Raised on missing files/arrays or capacity overruns.

    Named with a trailing underscore to avoid shadowing the builtin.
    """


class CompactFlash:
    """A CF card holding partial-bitstream files (System ACE + FAT model)."""

    def __init__(self, bytes_per_second: float = CF_BYTES_PER_SECOND) -> None:
        self.bytes_per_second = float(bytes_per_second)
        self._files: Dict[str, object] = {}
        self.bytes_read = 0

    def store_file(self, filename: str, payload: object) -> None:
        """Write a file (payload must expose ``size_bytes``)."""
        self._files[filename] = payload

    def read_file(self, filename: str) -> object:
        if filename not in self._files:
            raise MemoryError_(f"CF file not found: {filename!r}")
        payload = self._files[filename]
        self.bytes_read += getattr(payload, "size_bytes", 0)
        return payload

    def has_file(self, filename: str) -> bool:
        return filename in self._files

    def transfer_seconds(self, size_bytes: int) -> float:
        """Wall time to stream ``size_bytes`` off the card."""
        return size_bytes / self.bytes_per_second

    def __contains__(self, filename: str) -> bool:
        return filename in self._files


class Sdram:
    """External DDR SDRAM holding preloaded bitstream arrays."""

    def __init__(
        self,
        capacity_bytes: int,
        icap_path_bytes_per_second: float = SDRAM_ICAP_BYTES_PER_SECOND,
    ) -> None:
        self.capacity_bytes = capacity_bytes
        self.icap_path_bytes_per_second = float(icap_path_bytes_per_second)
        self._arrays: Dict[str, object] = {}
        self.used_bytes = 0

    def store_array(self, key: str, payload: object) -> None:
        size = getattr(payload, "size_bytes", 0)
        existing = self._arrays.get(key)
        delta = size - (getattr(existing, "size_bytes", 0) if existing else 0)
        if self.used_bytes + delta > self.capacity_bytes:
            raise MemoryError_(
                f"SDRAM overflow storing {key!r}: {self.used_bytes + delta} > "
                f"{self.capacity_bytes} bytes"
            )
        self._arrays[key] = payload
        self.used_bytes += delta

    def read_array(self, key: str) -> object:
        if key not in self._arrays:
            raise MemoryError_(f"SDRAM array not found: {key!r}")
        return self._arrays[key]

    def icap_transfer_seconds(self, size_bytes: int) -> float:
        """Wall time for the MicroBlaze SDRAM->ICAP copy loop."""
        return size_bytes / self.icap_path_bytes_per_second

    def __contains__(self, key: str) -> bool:
        return key in self._arrays


class BramBuffer:
    """The on-chip BRAM staging buffer in front of the ICAP port."""

    def __init__(
        self,
        capacity_bytes: int = 32 * 1024,
        icap_bytes_per_second: float = ICAP_BUFFER_BYTES_PER_SECOND,
    ) -> None:
        self.capacity_bytes = capacity_bytes
        self.icap_bytes_per_second = float(icap_bytes_per_second)
        self.resident: Optional[object] = None

    def load(self, payload: object) -> None:
        self.resident = payload

    def icap_transfer_seconds(self, size_bytes: int) -> float:
        """Wall time to push ``size_bytes`` from the buffer into the ICAP."""
        return size_bytes / self.icap_bytes_per_second
