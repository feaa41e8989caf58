"""Regenerate ``reference.json``: step counts and ``log_B`` of every run in
the three run workloads, as the current sources compute them.

Usage, from the root of a checkout: python3 perfbench/make_reference.py

The benchmark fails a repetition whose counts differ from these or whose
``log_B`` differs by more than float noise, so regenerate only for a
change that is meant to alter them, and say so where the change is
described.
"""

import json
import sys
import tempfile

from run import OUT, REFERENCE, load_package


def main():
    load_package()
    import workloads

    OUT.mkdir(exist_ok=True)
    reference = {}
    for name in workloads.RUNNERS:
        with tempfile.TemporaryDirectory(dir=OUT) as out_dir:
            summaries, _, error = workloads.execute(name, None, out_dir)
        if error is not None:
            raise error
        reference[name] = {label: {k: s[k] for k in ("n_accepted", "n_rejected", "log_B")}
                           for label, s in sorted(summaries.items())}
    with open(REFERENCE, "w", encoding="ascii") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
