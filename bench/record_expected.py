"""Record the exit code and report SHA-256 of every seed-0 job into
``bench/expected.json``.

    python3 bench/record_expected.py

Run it only at a commit whose outputs are known good: the benchmark counts
any later difference as a failed job.
"""

import hashlib
import json
import os

from run import EXPECTED, HERE, remove_workdir, run_job, setup
from workloads import WORKLOADS

SEED = 0


def main():
    out = {"seed": SEED, "jobs": {}}
    for workload in WORKLOADS:
        workdir = os.path.join(HERE, ".work", f"record-{workload}-{os.getpid()}")
        try:
            _, cli, jobs = setup(workload, SEED, workdir)
            out["jobs"][workload] = {}
            for k, job in enumerate(jobs):
                rc, _, report, error = run_job(cli, job, k, workdir)
                if error:
                    raise SystemExit(f"{job.id}: {error}")
                out["jobs"][workload][job.id] = [rc, hashlib.sha256(report.encode()).hexdigest()]
        finally:
            remove_workdir(workdir)
    # one job per line keeps diffs of this file readable
    lines = [f'{{"seed": {SEED}, "jobs": {{']
    for i, workload in enumerate(WORKLOADS):
        entries = out["jobs"][workload]
        lines.append(f"  {json.dumps(workload)}: {{")
        lines += [f"    {json.dumps(k)}: {json.dumps(v)}," for k, v in entries.items()]
        lines[-1] = lines[-1].rstrip(",")
        lines.append("  }," if i < len(WORKLOADS) - 1 else "  }")
    lines.append("}}")
    with open(EXPECTED, "w") as fh:
        fh.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
