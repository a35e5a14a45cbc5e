"""Record the reference values that bench/run.py measures ref_dev against.

    python3 bench/record_references.py

Runs every workload input once under the benchmark's pinned thread setting
(each blowup amplitude of the seed grid, the README command for the other
workloads) and writes bench/references.json with the provenance of the run.
Re-record only when a change to the numerics is meant to move the certified
outputs, and say so with the change.
"""

import json
import os
import shutil
import sys

import run


def main():
    todo = [(w, *run.inputs(w, 0)) for w in run.WORKLOADS if w != "blowup-d7"]
    todo += [("blowup-d7", *run.blowup_input(k)) for k in range(len(run.AMPLITUDES))]
    warm = run.spawn("warmup", info=True)
    if warm["rc"] != 0:
        sys.exit(f"cannot import hyperwave.cli from {run.SRC}")
    values = {}
    for i, (workload, argv, key) in enumerate(todo):
        res = run.spawn(f"ref{i}", argv)
        prefix = os.path.join(res["dir"], "out")
        if res["rc"] != 0:
            sys.exit(f"{' '.join(argv)} exited {res['rc']}; output kept in {res['dir']}")
        with open(prefix + ".json") as fh:
            outputs = run.certified_outputs(workload, json.load(fh))
        values.setdefault(workload, {})[key] = {k: v for k, (_, v) in outputs.items()}
        print(f"{' '.join(argv)}: {res['wall_s']:.1f} s", flush=True)
        shutil.rmtree(res["dir"])
    doc = {"provenance": run.provenance(warm["marker"]), "values": values}
    shutil.rmtree(warm["dir"])
    with open(run.REFERENCES, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    os.makedirs(run.WORK, exist_ok=True)
    main()
