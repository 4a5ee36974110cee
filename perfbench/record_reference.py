"""Record the reference fingerprint of every pooled op into reference.json.

Run from the repository root at the commit whose outputs are the truth:

    OPENBLAS_NUM_THREADS=1 python3 perfbench/record_reference.py

It runs each pool entry of each workload once (about four minutes on two
cores) and overwrites ``perfbench/reference.json``.
"""

from __future__ import annotations

import json
import shutil
import tempfile

from checks import BLOCKS, REFERENCE_PATH, RTOL, WEIGHT_SEED, fingerprint
from run import machine_facts
from workloads import WORK_ROOT, WORKLOADS


def main() -> None:
    reference = {"_meta": dict(machine_facts(), rtol=RTOL, blocks=BLOCKS,
                               weight_seed=WEIGHT_SEED)}
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="record-", dir=WORK_ROOT)
    try:
        for name, cls in WORKLOADS.items():
            wl = cls(0, workdir)
            refs = {}
            for kind in wl.kinds:
                for rep in range(1, wl.pool + 1):
                    op = wl.make_op(kind, rep)
                    outs = wl.outputs(op, op.run())
                    refs[f"{kind}/{rep}"] = {k: fingerprint(v) for k, v in outs.items()}
                print(name, kind, flush=True)
            reference[name] = refs
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    with open(REFERENCE_PATH, "w", encoding="utf-8") as f:
        json.dump(reference, f, indent=0)
        f.write("\n")


if __name__ == "__main__":
    main()
