"""Rewrite perfbench/reference/ from the program's own sweep outputs.

    python3 perfbench/make_reference.py

The stored files gather the CLI outputs of every full-size strain-map job:
the 11 x 11 scan in field-major order and the five temperature rows from
hot to cold.  The benchmark compares later outputs with them to
REFERENCE_TOL, so regenerate them only when a change of physics is meant.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from nvpol import cli  # noqa: E402


def main() -> int:
    workloads.REFERENCE.mkdir(exist_ok=True)
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=ROOT / ".perfbench"))
    try:
        # output file -> (reference file, columns of the key, hot rows first)
        files = {"scan_2d.csv": ("strain-map-scan.csv", 2, False),
                 "temperature.csv": ("strain-map-temperature.csv", 1, True)}
        header, found = {}, {name: {} for name in files}
        for job in workloads.StrainMap(work, 0, tiny=False, threads=1).jobs:
            job.prepare()
            codes = [cli.main(argv) for argv in job.commands]
            if any(codes):
                print(f"job {job.label}: exit codes {codes}", file=sys.stderr)
                return 1
            for name, (_dst, width, _rev) in files.items():
                header[name], *rows = (job.out / name).read_text().splitlines()
                found[name].update({tuple(map(float, row.split(",")[:width])): row
                                    for row in rows})
        for name, (dst, _width, reverse) in files.items():
            rows = [found[name][k] for k in sorted(found[name], reverse=reverse)]
            (workloads.REFERENCE / dst).write_text("\n".join([header[name]] + rows) + "\n")
            print(f"wrote {workloads.REFERENCE / dst}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
