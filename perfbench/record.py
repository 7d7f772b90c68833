#!/usr/bin/env python3
"""Record each workload's output digests and call counts.

    python3 perfbench/record.py --workload iris-desk-exact --seeds 0-63

run.py compares every episode's output sha256 with the value stored in
hashes.json for its seed, so a change that alters the arithmetic fails even
when it stays inside the oracle tolerances.  It compares every traced
episode's call counts (engine ops, encoding and linalg calls, masks, levels)
with those stored in counts.json for its workload, so a change to the op
schedule fails too.  The first seed of the range runs traced and gives the
counts; the counts do not depend on the seed.  Record only from a commit
whose arithmetic and schedule are the reference; a seed whose output fails
its other checks is not recorded.  Run one recorder at a time: each rewrites
both files.
"""

import argparse
import json
import sys

import run


def write(path, data):
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    ap.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-15")
    args = ap.parse_args(argv)
    lo, hi = (int(x) for x in args.seeds.split("-"))
    wl = run.WORKLOADS[args.workload]
    hashes, counts = run.load_hashes(), run.load_counts()
    for seed in range(lo, hi + 1):
        inputs = wl.inputs(seed)
        ref = wl.reference(inputs)
        if seed == lo:
            ep, metrics, _ = run.traced_episode(wl, inputs, ref, recorded=None)
        else:
            ep = run.run_episode(wl, inputs, ref, recorded=None)
        if ep.failures:
            print(f"seed {seed}: not recorded: {'; '.join(ep.failures)}", file=sys.stderr)
            continue
        if seed == lo:
            c = run.count_metrics(metrics)
            fails = run.check_counts(wl, c, c)
            if fails:
                print(f"counts not recorded: {'; '.join(fails)}", file=sys.stderr)
                return 1
            counts[args.workload] = c
            write(run.COUNTS, counts)
        hashes.setdefault(args.workload, {})[str(seed)] = ep.digest
        write(run.HASHES, hashes)
        print(f"seed {seed}: {ep.digest} ({ep.step_s:.2f} s step)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
