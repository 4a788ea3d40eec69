"""Set-up probe: import the package from ./src and run one workload's fixed
first operation, then exit.  run.py times this in a fresh interpreter.

    python3 perfbench/first_op.py {points,census,crosscheck}
"""
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    name = sys.argv[1]
    run, collect = workloads.runner(name, workloads.modules(),
                                    ROOT / ".bench_out")
    result = run(workloads.FIRST_OP[name])
    if collect is not None:
        collect(result)
