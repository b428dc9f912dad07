"""Cold-start probe: import nsquad and run one workload's first call.

Run in a fresh interpreter by run.py.  Prints the seconds from just before
`import nsquad` to the end of the first API call, less the time the
benchmark spends importing its own modules and generating the inputs.
"""

import argparse
import sys
import time
from pathlib import Path


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

    t0 = time.perf_counter()
    import nsquad  # noqa: F401  (the cold import is what is timed)
    t_import = time.perf_counter()

    import workloads    # the benchmark's own code and inputs are not timed
    wl = workloads.WORKLOADS[args.workload]
    cases, specs = wl.make(args.seed, wl.count)
    case = cases[0]
    gtab = {} if case.g is None else {case.g: workloads.build_g(specs[case.g])}

    t_call = time.perf_counter()
    case.call(gtab)
    print(repr(t_import - t0 + time.perf_counter() - t_call))


if __name__ == "__main__":
    main()
