"""One set-up sample: import mldhat.cli and generate a workload's inputs.

    python3 perfbench/setup_probe.py <workload> <seed> <workdir>

Prints the seconds from just before the import to the last input file
written, then the median time of the reference kernel (speed.py) right
after, by which run.py normalises the sample.  run.py starts this in fresh
processes, so every sample pays a cold import, as a user's first command
does; interpreter start-up is excluded.
"""

import os
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))


def main(workload, seed, workdir):
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import corpus
    import speed

    started = perf_counter()
    import mldhat.cli  # noqa: F401

    corpus.build(workload, int(seed), workdir)
    seconds = perf_counter() - started
    print(seconds, speed.kernel_median())


if __name__ == "__main__":
    main(*sys.argv[1:4])
