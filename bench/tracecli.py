"""Run one econorder CLI command in this fresh process under the span tracer.

    python3 bench/tracecli.py SUMMARY_JSON <econorder arguments...>

Package start-up is booked as the ``import`` span; the command's calls are
traced as in the parent benchmark.  The span summary is written to
SUMMARY_JSON at exit and the command's exit code is passed on.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

start = perf_counter()
BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import econorder.cli  # noqa: E402  (timed: this is the cold start)

imported = perf_counter()

from tracer import Tracer  # noqa: E402


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer(claimed=("import",))
    tracer.record("import.econorder", "import", start, imported)
    with tracer:
        code = econorder.cli.main(argv)
    Path(summary_path).write_text(json.dumps(tracer.summary()))
    return code


if __name__ == "__main__":
    sys.exit(main())
