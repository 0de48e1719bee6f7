"""Recompute the result digests ``perfbench/expected.json`` pins.

Run from the root of a checkout::

    PYTHONPATH=src python3 perfbench/pin_digests.py > perfbench/expected.json

Every spec runs through ``JobRunner().run``, the path ``repro sedov``
and ``repro scalebench`` take, so the serve workload's jobs are checked
against the CLI's results.  A digest may change only when a change
means to change results; the benchmark counts any mismatch as a failed
operation.
"""

import json

from repro.service import JobRunner, spec_from_params

import serve_load


def digest(kind: str, params: dict) -> str:
    return JobRunner().run(spec_from_params(kind, params)).digest


def main() -> None:
    pins = {
        "sedov_default": digest("sedov", {}),
        "scalebench_default": digest("scalebench", {}),
        "serve_mixed": {
            serve_load.spec_key(kind, params): digest(kind, params)
            for specs in serve_load.spec_pool().values()
            for kind, params in specs
        },
    }
    print(json.dumps(pins, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
