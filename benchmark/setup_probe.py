"""One set-up of a workload in a fresh process; prints its duration.

Usage: python3 benchmark/setup_probe.py WORKLOAD SEED SPAWNED_AT WEIGHTS_PATH

SPAWNED_AT is the parent's ``time.monotonic()`` just before it started
this process, so the printed seconds cover interpreter start, importing
firescout (and its CLI module), building the scenario and the initial
network, and writing then reading its weights file.
"""

import sys
import time

import bootstrap


def main(argv) -> int:
    name, seed, spawned_at, weights_path = argv
    bootstrap.require_package()
    import firescout.cli  # noqa: F401  (import cost is part of set-up)
    from firescout import nn

    import workloads
    setup = workloads.build(workloads.WORKLOADS[name], int(seed), weights_path)
    nn.save_weights(workloads.initial_network(setup), weights_path)
    nn.load_weights(weights_path)
    print(repr(time.monotonic() - float(spawned_at)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
