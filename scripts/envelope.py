"""The 10^6-packet envelope: the six CLI commands of ROADMAP's 10^6 table,
each in a fresh process, with wall time, peak memory and output digests.

    python3 scripts/envelope.py [--dir DIR]

Run it from anywhere; it runs the program from the ``src/`` next to this
script. Everything it writes goes to a temporary directory (under ``DIR``
if given), which it removes at the end. The config is the benchmark's
(``perfbench/workloads.py``) at ``PACKETS`` packets and seed ``SEED``, the
values of ROADMAP's table, in the adapter view and with full traces:

1. ``simulate``, adapter view, and 2. ``simulate``, full trace, which also
   write the logs the next commands read;
3. ``sweep --param tlre`` (21 points) and 4. ``sweep --param td`` (25
   points), on the adapter log;
5. ``analyze --mode rda --tlre 50us`` on the full-trace log;
6. ``validate-deferral`` for the seed, on the adapter config.

Each command runs through ``WRAPPER``, which calls ``prpwifi.cli.main``
and then reports the peak RSS of the command's own process and of the
children it reaped (``getrusage`` of ``RUSAGE_SELF`` and
``RUSAGE_CHILDREN``) as the last line of its stderr. A forked child's
peak counts the pages it shares with the command at the fork.

For each command it prints one line: the wall seconds from start to exit,
the command's own peak RSS in MB (10^6 bytes), its children's, the sha256
of its output
(the written log for ``simulate``, whose stdout holds its own wall time;
stdout for the others), and ``same`` or ``CHANGED`` as that digest equals
the one in ``DIGESTS`` or not. The last line is the same as one JSON
object. It exits 1 if a command fails or an output changed; a change that
means to alter an output updates ``DIGESTS``. The commands run one at a
time; at 10^6 packets the largest peaks near 0.5 GB and the two logs take
about 0.5 GB of disk.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import ANALYZE_TLRE_NS, CONFIG_TEMPLATE, LOSS_PROB  # noqa: E402

PACKETS = 1_000_000
SEED = 5
# runs the CLI on sys.argv[1:], then writes its own and its reaped
# children's ru_maxrss (kB) to stderr
WRAPPER = """\
import resource, sys
from prpwifi.cli import main
code = main(sys.argv[1:])
who = (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
print(*(resource.getrusage(w).ru_maxrss for w in who), file=sys.stderr)
sys.exit(code)
"""
# the sha256 of each command's output at PACKETS and SEED
DIGESTS = {
    "simulate-adapter": "a075ed4fe634c666b45304614b500a3872aecc14b72cfc46297a8784c7760d74",
    "simulate-trace": "53372aebf634ea2832d2f76d02272c2f1edb31bec87f4f868505fd2dc7917fa0",
    "sweep-tlre": "672c4b55f665d3ffc0f9de577808f8ace9de9f9bb679e20030e7f7b83a1d7cc8",
    "sweep-td": "4cf1b6920b56af151193292736b38653a9fb6541dfd15f69e7966b64adf218f0",
    "analyze-trace": "8a7ed99007b8c81b9f6cde2af667f7586474b32f9e81153d985d3912be1698d7",
    "validate-deferral": "7af111f726fc418eb2efc590c53e8db135533f3175cd0df827faeff8601278dd",
}


def _commands(work: Path) -> list[tuple[str, list[str], Path | None]]:
    """(name, CLI arguments, file whose digest is the output or None for
    stdout) of the six commands, in the order they must run."""
    adapter, traced = work / "adapter.jsonl", work / "traced.jsonl"
    return [
        ("simulate-adapter", ["simulate", str(work / "adapter.cfg"), "--out", str(adapter)], adapter),
        ("simulate-trace", ["simulate", str(work / "traced.cfg"), "--out", str(traced)], traced),
        ("sweep-tlre", ["sweep", "--log", str(adapter), "--param", "tlre",
                        "--range", "0:1000us", "--step", "50us"], None),
        ("sweep-td", ["sweep", "--log", str(adapter), "--param", "td",
                      "--range=-300us:300us", "--step", "25us"], None),
        ("analyze-trace", ["analyze", "--log", str(traced), "--mode", "rda",
                           "--tlre", f"{ANALYZE_TLRE_NS // 1000}us"], None),
        ("validate-deferral", ["validate-deferral", str(work / "adapter.cfg"),
                               "--td-list=-100us,100us", "--seeds", str(SEED)], None),
    ]


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        while chunk := f.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def _run(argv: list[str], stdout: Path) -> tuple[int, float, float, float]:
    """Exit code, wall seconds, and the peak RSS in MB of the command and of
    its children, of one CLI call in a fresh interpreter, its stdout written
    to ``stdout``. A peak the wrapper did not report is NaN."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    with open(stdout, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", WRAPPER, *argv],
                              stdout=out, stderr=subprocess.PIPE, env=env)
        seconds = time.perf_counter() - start
    lines = proc.stderr.decode(errors="replace").splitlines()
    try:
        own, children = (int(kb) * 1024 / 1e6 for kb in lines[-1].split())
        del lines[-1]
    except (IndexError, ValueError):  # the command did not return
        own = children = float("nan")
    if proc.returncode != 0:
        sys.stderr.write("".join(line + "\n" for line in lines))
    return proc.returncode, seconds, own, children


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dir", help="where to make the temporary directory")
    args = parser.parse_args(argv)

    work = Path(tempfile.mkdtemp(prefix="envelope-", dir=args.dir))
    rows = []
    try:
        for name, full_trace in (("adapter", "false"), ("traced", "true")):
            (work / f"{name}.cfg").write_text(CONFIG_TEMPLATE.format(
                packets=PACKETS, seed=SEED, full_trace=full_trace,
                loss_prob=LOSS_PROB,
            ))
        for name, cli_args, output in _commands(work):
            stdout = work / f"{name}.out"
            code, seconds, peak_mb, children_mb = _run(cli_args, stdout)
            row = {
                "command": name,
                "exit_code": code,
                "wall_s": round(seconds, 3),
                "peak_rss_mb": round(peak_mb, 1),
                "children_rss_mb": round(children_mb, 1),
                "sha256": _sha256(output or stdout) if code == 0 else None,
            }
            row["output"] = "same" if row["sha256"] == DIGESTS[name] else "CHANGED"
            rows.append(row)
            print(f"{name:18} exit {code}  {seconds:7.2f} s  {peak_mb:7.1f} MB"
                  f"  children {children_mb:7.1f} MB  {row['sha256']}  {row['output']}", flush=True)
            if code != 0:
                break
    finally:
        shutil.rmtree(work)
    print(json.dumps({
        "packets": PACKETS,
        "seed": SEED,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commands": rows,
    }))
    whole = len(rows) == len(DIGESTS)
    return 0 if whole and all(r["exit_code"] == 0 and r["output"] == "same" for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
