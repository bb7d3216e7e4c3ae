"""Fig. 12: FPGA resource usage of the LLC and memory control planes.

Regenerated from the analytical cost model (we cannot run Vivado here;
the model's constants are calibrated to the paper's published synthesis
anchors and its scaling laws follow the hardware structure -- see
repro.hwcost.fpga). The figure's sweep: parameter/statistics tables at
64/128/256 entries, trigger tables at 16/32/64 entries, for both control
planes; plus the headline overhead ratios and the tag-array blockRAM
cost of storing owner DS-ids.
"""

from conftest import banner

from repro.analysis.tables import format_table
from repro.figures import fig12_rows
from repro.hwcost.fpga import (
    LLC_CONTROLLER_LUT_FF,
    MIG_CONTROLLER_LUT_FF,
    llc_control_plane_cost,
    memory_control_plane_cost,
    table_pair_cost,
    tag_array_blockram_overhead,
    trigger_table_cost,
)


def test_fig12_fpga_resource_sweep(benchmark):
    rows = benchmark.pedantic(fig12_rows, rounds=1, iterations=1)

    banner("Fig. 12: FPGA resources (Logic LUT / LUTRAM / FF)")
    print(format_table(["plane", "component", "LUT", "LUTRAM", "FF"], rows))

    memory = memory_control_plane_cost(table_entries=256, trigger_entries=64)
    llc = llc_control_plane_cost(table_entries=256, trigger_entries=64)
    extra_brams, total_brams = tag_array_blockram_overhead(dsid_bits=8)
    print()
    print(f"Memory control plane total: {memory.total.lut_ff} LUT/FF "
          f"= {memory.overhead_fraction * 100:.1f}% of MIGv7 ({MIG_CONTROLLER_LUT_FF})"
          f"   [paper: 1526 LUT/FF, 10.1%]")
    print(f"LLC control plane total:    {llc.total.lut_ff} LUT/FF "
          f"= {llc.overhead_fraction * 100:.1f}% of T1 LLC ({LLC_CONTROLLER_LUT_FF})"
          f"   [paper: 2359 LUT/FF, 3.1%]")
    print(f"Tag array owner DS-id: +{extra_brams} blockRAMs "
          f"(12 -> {total_brams}, +{extra_brams / 12 * 100:.0f}%)   [paper: 12 -> 18, +50%]")

    # The paper's anchors, exactly.
    assert memory.total.lut_ff == 1526
    assert round(memory.overhead_fraction * 100, 1) == 10.1
    assert llc.total.lut_ff == 2359
    assert round(llc.overhead_fraction * 100, 1) == 3.1
    assert (extra_brams, total_brams) == (6, 18)
    assert table_pair_cost(256).lutram == 688

    # Scaling shape: storage linear in entries; trigger logic dominates
    # trigger storage (the comparators).
    assert table_pair_cost(256).lutram > 3.5 * table_pair_cost(64).lutram
    t64 = trigger_table_cost(64)
    assert t64.lut + t64.ff > 5 * t64.lutram
