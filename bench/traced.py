"""Run one ``fade`` command with every hooked function timed, then write the spans.

Usage: python3 bench/traced.py SPANS_JSON RUN_ID FADE_ARG...

The process exits with the command's own exit code.  ``fade`` must be
importable (the benchmark puts the checkout's ``src`` on PYTHONPATH).
"""

from __future__ import annotations

import sys

import spans


def main(argv: list[str]) -> int:
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    out_path, run_id, fade_args = argv[0], argv[1], argv[2:]
    import fade.cli

    rec = spans.SpanRecorder(run_id)
    with spans.install(rec) as missing:
        code = fade.cli.main(fade_args)
    rec.write(out_path, missing)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
