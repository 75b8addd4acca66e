"""Rewrite the reference outputs that ``tests/test_reference.py`` checks.

Each row of ``cli_contract.PINNED`` runs through ``pinned_stdout``
in-process; its stdout goes to ``<name>.csv`` beside this script, and
``platform.json`` records the platform key the files were made on and
each file's full row count.  A long output keeps every ``stride``-th
data row plus the last.  The md5 of each ``--format json`` stdout is
printed where it differs from the table's, to be written into it.

    PYTHONPATH=src:tests python tests/reference/regenerate.py

Regenerating changes what the reference test accepts: a change that
moves any file should name the moved rows and their largest change.
"""

from __future__ import annotations

import json

from cli_contract import KEY_FILE, PINNED, REFERENCE, md5, pinned_stdout, platform_key, thin


def main() -> None:
    counts = {}
    for name, (_, stride, json_md5) in PINNED.items():
        thinned, counts[name] = thin(pinned_stdout(name), stride)
        (REFERENCE / f"{name}.csv").write_text(thinned, encoding="utf-8")
        got = md5(pinned_stdout(name, "--format", "json"))
        if got != json_md5:
            print(f"{name}: --format json stdout has md5 {got}, the table pins {json_md5}")
    record = {"key": platform_key(), "rows": counts}
    KEY_FILE.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
