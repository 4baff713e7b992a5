"""Record the reference outputs that the pulse and point checks compare to.

    python3 perfbench/record_refs.py

Writes perfbench/refs/pulse.json (the README pulse and criterion 6's three
spectra) and perfbench/refs/point.json (steady state and 64-step
transmission of every drive in the point workload's pool), running each
op through the CLI exactly as the workloads do.  The shipped files were
recorded before any optimisation of the solver; re-record only when a
change of physics is intended.
"""
from __future__ import annotations

import json
import os
import shutil
import tempfile

from run import PINNED_ENV

os.environ.update(PINNED_ENV)   # before numpy loads BLAS

from workloads import (ROOT, REFS_DIR, Pulse, import_package,  # noqa: E402
                       jsonable, record_point_reference)


def main() -> None:
    lib = import_package()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        (op,) = Pulse(lib, 0, ROOT / workdir).ops
        refs = {"pulse": jsonable(op.collect(op.run())),
                "point": record_point_reference(lib, ROOT / workdir)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFS_DIR.mkdir(exist_ok=True)
    for name, ref in refs.items():
        with open(REFS_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(ref, fh, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
