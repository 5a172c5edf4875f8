"""Section 6.2: hardware overhead analysis.

Paper: PreRead adds (64B+2b) x 32 x 2 = 4 KB to a 32-entry write queue
(vs 2 KB of original buffering); (n:m)-Alloc adds a 4-bit allocator tag to
PTEs/TLB entries (16 allocators); LazyCorrection reuses the existing ECP
design with a low-density (2x array) ECP chip and the same 72-bit bus.
"""

from __future__ import annotations

from ..alloc.page_table import MAX_ALLOCATORS, TAG_BITS
from ..core.preread import PrereadHardwareCost
from ..ecp.chip import ECPChipGeometry
from .common import ExperimentResult


def run_experiment() -> ExperimentResult:
    result = ExperimentResult(
        title="Section 6.2: design overhead analysis",
        headers=["quantity", "value", "paper"],
    )
    cost = PrereadHardwareCost(queue_entries=32)
    result.rows.append(
        ["PreRead buffers per 32-entry queue (bytes)", cost.total_bytes, 4096]
    )
    result.rows.append(
        ["original write buffer (bytes)", cost.original_buffer_bytes, 2048]
    )
    result.rows.append(["allocator tag bits", TAG_BITS, 4])
    result.rows.append(["distinct allocators", MAX_ALLOCATORS, 16])
    geom = ECPChipGeometry()
    result.rows.append(
        ["ECP-chip array premium (x data chip)", geom.area_premium_vs_data_chip, 2.0]
    )
    result.rows.append(["ECP chip WD-free", int(geom.wd_free), 1])
    result.metrics["preread_bytes"] = float(cost.total_bytes)
    return result
