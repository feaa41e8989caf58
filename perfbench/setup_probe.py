"""Time the set-up of one benchmark workload in a fresh process.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED [wavemaps CLI flags]

Prints the seconds from before ``import wavemaps`` until everything the
first step attempt needs exists: the parsed CLI configuration, the grid,
the initial state and its Laplacian.  For ``audit-records`` it is the
drawn record inputs instead.  Needs the package sources on PYTHONPATH.
"""

import sys
import time


def main(argv):
    t0 = time.perf_counter()
    import wavemaps.cli as cli
    from wavemaps import Grid2D, initial_data
    from wavemaps import grid as gr

    workload, seed, flags = argv[0], int(argv[1]), argv[2:]
    if workload == "audit-records":
        import records

        records.draw_inputs(seed)
    else:
        args = cli.build_parser().parse_args(flags)
        g = Grid2D(args.grid)
        u, _ = initial_data(g)
        gr.laplacian(u, g)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main(sys.argv[1:])
