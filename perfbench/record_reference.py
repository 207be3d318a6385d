"""Record the default-seed reference outputs that ``run.py`` compares
against: the first REQUESTS requests of every workload's default-seed
stream, each reduced by ``checks.fingerprint``.  Every recorded output must
pass the seed-independent checks.

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import sys

import run

#: requests kept per workload; at the speed the reference was recorded this
#: covers whole runs of every workload except gap_scan
REQUESTS = 32


def main() -> int:
    run.cap_blas_threads()
    sys.path.insert(0, str(run.SRC))
    import clusterxy.cli as cli

    import checks
    import workloads

    client = run.Client(cli, checks, None)
    recorded = {}
    for name in workloads.WORKLOADS:
        stream = workloads.rounds(name, run.DEFAULT_SEED)
        requests = []
        while len(requests) < REQUESTS:
            requests.extend(next(stream))
        fingerprints = []
        for index, req in enumerate(requests[:REQUESTS]):
            text, problem, _ = client.capture(index, req)
            if problem is not None:
                sys.stderr.write(f"{name} request {index} {req.argv}: {problem}\n")
                return 1
            fingerprints.append(checks.fingerprint(req, text))
        recorded[name] = fingerprints
        sys.stderr.write(f"{name}: {len(fingerprints)} requests recorded\n")
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"seed": run.DEFAULT_SEED, "workloads": recorded}, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
