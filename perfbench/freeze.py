"""Freeze the reference values that the workloads' output checks compare to.

    python3 perfbench/freeze.py

Runs one op of every workload at the default seed and rewrites
``perfbench/references.json``. The ``gram-ladder`` values hold for every
seed, because the restricted Gram and the coupled observability form do
not change when the angular interval is shifted. Refreezing changes the
benchmark: do it only together with a change that is meant to move the
program's numbers, and say so.
"""

import json
import shutil
import sys

import workloads as wl


def main() -> int:
    cli = wl.load_cli()
    tmp = wl.ROOT / ".perfbench_tmp" / "freeze"
    tmp.mkdir(parents=True)
    refs = {"default_seed": {}}
    try:
        for name, cls in wl.WORKLOADS.items():
            workload = cls(cli, wl.DEFAULT_SEED, tmp)
            done = workload.run(0, tmp / name)
            codes = [code for _, code, _ in done]
            if any(codes):
                print(f"{name}: exit codes {codes}", file=sys.stderr)
                return 1
            if name == "gram-ladder":
                refs[name] = workload.freeze(done)
            else:
                refs["default_seed"][name] = workload.freeze(done)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    wl.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
