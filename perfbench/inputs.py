"""Seeded inputs for every workload: bus traces, target machines, sessions.

The benchmark generates its own inputs so that the program under test
receives only packed bus words, and so that a change to the program's
own benchmark helpers cannot silently change what is measured.  The same
seed always gives the same words.
"""

from __future__ import annotations

import numpy as np

from repro.bus.trace import encode_arrays
from repro.bus.transaction import BusCommand, SnoopResponse
from repro.memories.config import CacheNodeConfig
from repro.target.configs import multi_config_machine, split_smp_machine

#: TPC-C shaped command mix: mostly reads, a write-intent tail (RWITM and
#: DCLAIM), castouts, and about 20% IO/interrupt/sync noise that the
#: address filter drops.
COMMAND_MIX = (
    (BusCommand.READ, 0.55),
    (BusCommand.RWITM, 0.12),
    (BusCommand.DCLAIM, 0.05),
    (BusCommand.CASTOUT, 0.08),
    (BusCommand.IO_READ, 0.07),
    (BusCommand.IO_WRITE, 0.06),
    (BusCommand.INTERRUPT, 0.04),
    (BusCommand.SYNC, 0.03),
)

#: Snoop responses; the RETRY share filters another ~10% of tenures, so
#: about 30% of all records never reach a node controller.
RESPONSE_MIX = (
    (SnoopResponse.NULL, 0.62),
    (SnoopResponse.SHARED, 0.20),
    (SnoopResponse.MODIFIED, 0.08),
    (SnoopResponse.RETRY, 0.10),
)

#: 80% of addresses fall in a 4 MB hot set: four times one split4 node
#: cache, so node caches keep missing and peers keep getting snooped.
HOT_BYTES = 4 << 20
COLD_BYTES = 256 << 20
HOT_SHARE = 0.8
LINE = 128
N_CPUS = 8


def oltp_words(n_records: int, seed: int) -> np.ndarray:
    """Packed words of a TPC-C shaped trace over all eight CPUs."""
    rng = np.random.default_rng(seed)
    commands = rng.choice(
        [int(command) for command, _ in COMMAND_MIX],
        size=n_records,
        p=[share for _, share in COMMAND_MIX],
    ).astype(np.uint64)
    responses = rng.choice(
        [int(response) for response, _ in RESPONSE_MIX],
        size=n_records,
        p=[share for _, share in RESPONSE_MIX],
    ).astype(np.uint64)
    cpu_ids = rng.integers(0, N_CPUS, n_records).astype(np.uint64)
    hot = rng.integers(0, HOT_BYTES, n_records)
    cold = rng.integers(0, COLD_BYTES, n_records)
    is_hot = rng.random(n_records) < HOT_SHARE
    addresses = (np.where(is_hot, hot, cold) & ~np.int64(LINE - 1)).astype(
        np.uint64
    )
    return encode_arrays(cpu_ids, commands, addresses, responses)


def split4_machine():
    """The 4-node coherent split of the 8-CPU SMP: 1 MB 4-way nodes with
    128 B lines, two CPUs each, all in one coherence group."""
    config = CacheNodeConfig(size=1 << 20, assoc=4, line_size=LINE)
    return split_smp_machine(config, n_cpus=N_CPUS, procs_per_node=2)


def sweep4_machine():
    """The Figure 4 multi-configuration board: four cache designs, each in
    its own coherence group and each seeing all eight CPUs, so no tenure
    ever snoops a peer.  Every policy is one the compiled engine takes."""
    return multi_config_machine(
        [
            CacheNodeConfig(size=512 << 10, assoc=2, line_size=LINE,
                            replacement="lru", name="512KB 2-way LRU"),
            CacheNodeConfig(size=1 << 20, assoc=4, line_size=LINE,
                            replacement="plru", name="1MB 4-way PLRU"),
            CacheNodeConfig(size=2 << 20, assoc=8, line_size=LINE,
                            replacement="fifo", name="2MB 8-way FIFO"),
            CacheNodeConfig(size=4 << 20, assoc=4, line_size=LINE,
                            replacement="lru", name="4MB 4-way LRU"),
        ],
        n_cpus=N_CPUS,
        name="sweep4",
    )


def sub_seed(seed: int, index: int) -> int:
    """A 32-bit seed for the ``index``-th independent input of a run."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])
