"""Run one ``projpair`` CLI command with the layer tracer installed.

    python3 bench/traced_cli.py SPANS_OUT verify --input pair.json --json

Behaves like ``python3 -m projpair.cli verify ...`` (same stdout, same
exit code) and additionally writes the spans, the tracer's counters and
the ``derived_ops`` cache statistics to SPANS_OUT as JSON.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import projpair  # noqa: E402
import projpair.cli  # noqa: E402
import projpair.pairs  # noqa: E402
from spans import Tracer  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    cache_info = projpair.pairs.derived_ops.cache_info
    tracer = Tracer()
    tracer.install(projpair)
    try:
        code = tracer.wrap("cli.main", projpair.cli.main)(argv)
    finally:
        tracer.uninstall()
    info = cache_info()
    tracer.dump(out_path, {"cache": {"hits": info.hits, "misses": info.misses}})
    return code


if __name__ == "__main__":
    sys.exit(main())
