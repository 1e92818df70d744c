"""Tour of the alternate firmware images and programmable protocol tables.

Section 2.3 of the paper lists what the board becomes with different FPGA
firmware: a hot-spot profiler, a trace collector, a NUMA sparse-directory
emulator, and a remote-cache emulator.  Section 3.2 adds loadable coherence
protocol tables.  This example exercises all five on one workload.

Run:  python examples/firmware_tour.py
"""

from repro import MemoriesBoard
from repro.experiments.params import ExperimentScale
from repro.experiments.pipeline import capture_records
from repro.memories.console import MemoriesConsole
from repro.memories.firmware import (
    HotSpotFirmware,
    NumaDirectoryFirmware,
    RemoteCacheFirmware,
)
from repro.memories.protocol_table import ProtocolTable, load_protocol
from repro.workloads.tpcc import TpccWorkload

SCALE = ExperimentScale(scale=4096)
RECORDS = 60_000


def main() -> None:
    workload = TpccWorkload(
        db_bytes=SCALE.scaled_bytes("150GB"), n_cpus=8,
        private_bytes=SCALE.scaled_bytes("8MB"),
    )
    print("capturing a reference trace (trace-collector firmware)...")
    trace = capture_records(workload, RECORDS, SCALE.host())
    print(f"  captured {len(trace):,} 8-byte records\n")

    # --- hot-spot profiling firmware --------------------------------- #
    hotspot = HotSpotFirmware(granularity_bytes=4096)
    MemoriesBoard(hotspot).replay(trace)
    print("hot-spot firmware: five hottest pages")
    for region, count in hotspot.hottest(5):
        print(f"  page {region:#8x}  {count:6d} touches")
    print()

    # --- NUMA sparse-directory firmware ------------------------------ #
    numa = NumaDirectoryFirmware(
        l3_config=SCALE.cache("64MB"),
        cpu_nodes=[0, 0, 1, 1, 2, 2, 3, 3],
        sparse_entries=2048,
    )
    MemoriesBoard(numa).replay(trace)
    print("NUMA sparse-directory firmware:")
    print(f"  remote-access fraction : {numa.remote_access_fraction():.1%}")
    print(f"  sparse evictions       : {numa.counters.read('sparse.evictions')}")
    print(f"  invalidations sent     : {numa.counters.read('invalidations.sent')}\n")

    # --- remote-cache firmware ---------------------------------------- #
    remote = RemoteCacheFirmware(
        l3_config=SCALE.cache("16MB"),
        remote_config=SCALE.cache("64MB"),
        cpu_nodes=[0, 0, 1, 1, 2, 2, 3, 3],
    )
    MemoriesBoard(remote).replay(trace)
    print("remote-cache firmware:")
    print(f"  remote references      : {remote.counters.read('remote.references')}")
    print(f"  remote-cache hit ratio : {remote.remote_hit_ratio():.1%}\n")

    # --- programmable protocol tables --------------------------------- #
    # Protocols differ in how nodes treat each other's traffic, so compare
    # them on a 2-node split target (single-node emulation has no remote
    # operations and all protocols coincide).
    print("protocol tables on a 2-node split target:")
    console = MemoriesConsole()
    from repro.target.configs import split_smp_machine

    for name in ("msi", "mesi", "moesi"):
        board = console.power_up(
            split_smp_machine(SCALE.cache("64MB"), n_cpus=8, procs_per_node=4),
            enforce_envelope=False,  # scaled config below the 2 MB minimum
        )
        for node_index in range(2):
            console.load_protocol_map(node_index, load_protocol(name))
        board.replay(trace)
        nodes = board.firmware.nodes
        misses = sum(n.misses() for n in nodes)
        refs = sum(n.references() for n in nodes)
        supplied = sum(n.counters.read("remote.supplied_dirty") for n in nodes)
        print(
            f"  {name.upper():6s} miss ratio {misses / refs:.4f}, "
            f"dirty lines supplied node-to-node: {supplied}"
        )

    # Map files round-trip through disk, like console uploads to the FPGA.
    mesi = load_protocol("mesi")
    mesi.save("/tmp/mesi.map.json")
    restored = ProtocolTable.load("/tmp/mesi.map.json")
    print(f"\nmap file round-trip: reloaded protocol {restored.name!r} "
          f"with {len(restored.raw_table())} transitions")


if __name__ == "__main__":
    main()
