"""Write the reference output of every workload and input variant into refs/.

    python3 bench/make_refs.py

The stored references come from the commit that introduced the
benchmark; regenerate them only for a change that is meant to alter
qfd's results, and say so with the change.
"""

import gzip
import subprocess
import sys
import tempfile
from pathlib import Path

from run import SRC, child_env
from workloads import REFS, VARIANTS, WORKLOADS


def main() -> int:
    REFS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SRC.parent) as tmp:
        for w in WORKLOADS.values():
            for seed in range(VARIANTS):
                out = Path(tmp) / w.out_name
                subprocess.run(
                    [sys.executable, "-m", "qfd.cli", *w.args(seed), "--out", str(out)],
                    env=child_env(), check=True,
                )
                data = w.ref_text(out.read_text(), seed).encode()
                name = w.ref_file(seed)
                if name.endswith(".gz"):
                    data = gzip.compress(data, mtime=0)
                (REFS / name).write_bytes(data)
                print(f"{w.name} variant {seed}: {REFS / name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
