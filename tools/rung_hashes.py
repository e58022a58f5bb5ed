"""Time the heavier fixture rungs cold and check their pinned stdout hashes.

Each rung is one ``python -m symcoh`` run in a fresh subprocess.  For each
the script prints the wall time, the peak RSS of that process and the first
12 hex digits of the sha256 of its stdout, and it exits 1 if any prefix
differs from the pinned one or any exit code from the pinned code.
Standard library only; pytest does not collect it.

    python tools/rung_hashes.py                  # this checkout's source
    python tools/rung_hashes.py --src OTHER/src  # another checkout's source
    python tools/rung_hashes.py --only "N14 identities" --only "N12 identities"

Given two or more ``--src`` trees, or ``--rounds N``, each rung runs N
times on every tree, the trees alternating in order from round to round so
that a drifting host weighs on each alike.  Every run's prefix and exit
code is checked, and each tree's line gives the rung's median wall time
over its runs and its largest peak RSS:

    python tools/rung_hashes.py --only "N14 identities" --src A/src --src B/src --rounds 6
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import statistics
import sys
import time
from pathlib import Path

N8 = ("(0,0,0,12,14,15+23+24,0,0)", "16+25-34+78")
N10 = ("(0,0,0,12,14,15+23+24,0,0,0,0)", "16+25-34+78+9a")
N12 = ("(0,0,0,12,14,15+23+24,0,0,0,0,0,0)", "16+25-34+78+9a+bc")
N14 = ("(0,0,0,12,14,15+23+24,0,0,0,0,0,0,0,0)", "16+25-34+78+9a+bc+de")
T8 = ("(0,0,0,0,0,0,0,0)", "12+34+56+78")
# perfbench/scramble.py's scramble of N8, all 8 generators moved, random.Random(5)
SCRAMBLED_N8 = (
    "(2*12-2*13-8*14-14*15-20*16+10*17+76*18+4*23+14*24+16*25+26*26-22*27-98*28+10*35"
    "+10*36+4*37-42*38+36*45+34*46+10*47-152*48-28*56+68*57+78*58+72*67-44*68+310*78,"
    "2*12-2*13-5*14-9*15-12*16+7*17+50*18+3*23+6*24+3*25+7*26-10*27-28*28+2*34+12*35"
    "+13*36-37-54*38+21*45+21*46+6*47-85*48-12*56+42*57+57*58+46*67+8*68+185*78,"
    "-12+13+4*14+10*15+13*16-5*17-50*18+23-24-5*25-10*26-7*27+19*28+3*34+7*35+13*36"
    "+4*37-33*38+13*46+25*47+10*48+29*56+53*57+24*58+87*67+181*68+265*78,"
    "12-13-5*14-11*15-15*16+6*17+56*18+5*24+10*25+17*26-27-49*28-3*34-5*35-10*36-37"
    "+25*38+9*45-2*46-17*47-47*48-31*56-25*57-3*58-51*67-163*68-130*78,"
    "14+15+2*16-17-6*18-23-4*24-5*25-7*26+8*27+30*28-2*35-3*36-3*37+8*38-9*45-11*46"
    "-8*47+37*48+2*56-28*57-21*58-36*67-18*68-135*78,"
    "15+16-4*18+23+2*24+25+26-6*27-10*28+34+4*35+6*36+2*37-18*38+6*45+10*46+10*47"
    "-22*48+5*56+29*57+21*58+41*67+53*68+140*78,0,0)",
    "16+17-18+25-26-2*27-2*28-34-3*35-3*36+2*37+13*38-4*45-3*46-47+11*48+8*56-4*57"
    "-23*58-4*67+11*68-7*78")


def _fixture(command: list[str], fixture: tuple[str, str]) -> list[str]:
    return [*command, f"--algebra={fixture[0]}", f"--omega={fixture[1]}"]


# name, argv after ``python -m symcoh``, pinned stdout sha256 prefix, pinned
# exit code.  N14 fails the strong Lefschetz property and the ddLambda-lemma,
# so those two suites exit 1 there.
RUNGS = [
    # the default fixture, N6: its time is mostly the start of the process
    ("N6 compute", ["compute"], "98173decc0d5", 0),
    ("N12 compute", _fixture(["compute"], N12), "9b88b986eb77", 0),
    ("N14 compute", _fixture(["compute"], N14), "bf8d3c2e9859", 0),
    ("scrambled N8 compute", _fixture(["compute"], SCRAMBLED_N8), "ae107a66e96f", 0),
    # the two second-order families alone: no dR or dL group fills the
    # calculator's cache before their kernels and images are built
    ("scrambled N8 ddL,d+dL", _fixture(["compute", "--groups=ddL,d+dL"], SCRAMBLED_N8),
     "105e22a851e8", 0),
    ("N8 hodge", _fixture(["check", "--suite=hodge"], N8), "8f0538ca2f58", 0),
    ("N10 hodge", _fixture(["check", "--suite=hodge"], N10), "657347e2ae27", 0),
    ("N12 hodge", _fixture(["check", "--suite=hodge"], N12), "2c241d2ed9c9", 0),
    ("scrambled N8 hodge", _fixture(["check", "--suite=hodge"], SCRAMBLED_N8), "19b43fab54a7", 0),
    ("N10 identities", _fixture(["check", "--suite=identities"], N10), "796e53ae39c5", 0),
    ("N12 identities", _fixture(["check", "--suite=identities"], N12), "0e0085fafb7b", 0),
    ("symbol n=5", ["check", "--suite=symbol", "--n=5"], "990c4202aa97", 0),
    ("N14 hodge", _fixture(["check", "--suite=hodge"], N14), "f7e6272d3845", 0),
    ("N14 identities", _fixture(["check", "--suite=identities"], N14), "3bf42ef9949c", 0),
    ("N14 ddlambda", _fixture(["check", "--suite=ddlambda"], N14), "91cedee2f5f8", 1),
    ("N14 lefschetz", _fixture(["check", "--suite=lefschetz"], N14), "ecf84ee4112d", 1),
    ("N14 index", _fixture(["check", "--suite=index"], N14), "c663295e2c49", 0),
    # the scrambled N8's primitive groups, dense in blade and primitive
    # coordinates alike; its ddLambda-lemma fails, as on N8, so exit 1
    ("scrambled N8 index", _fixture(["check", "--suite=index"], SCRAMBLED_N8),
     "254c1c747828", 0),
    ("scrambled N8 ddlambda", _fixture(["check", "--suite=ddlambda"], SCRAMBLED_N8),
     "d6f989b37b7c", 1),
    # dense Lefschetz components, star and del_plus/del_minus on the blades
    ("scrambled N8 identities", _fixture(["check", "--suite=identities"], SCRAMBLED_N8),
     "26599a695f76", 0),
    # the passing path of the ddLambda-lemma: the flat torus satisfies it
    ("T8 ddlambda", _fixture(["check", "--suite=ddlambda"], T8), "eec9943d29a2", 0),
    # the Lefschetz components of every degree (identities) and of degrees
    # 0..n (hodge) on the flat torus
    ("T8 identities", _fixture(["check", "--suite=identities"], T8), "c2261b0cb296", 0),
    ("T8 hodge", _fixture(["check", "--suite=hodge"], T8), "b9bb5d4227c9", 0),
]


def run(argv: list[str], src: Path) -> tuple[float, float, str, int]:
    """Wall seconds, peak RSS in MB, the stdout sha256 prefix and the exit
    code of one cold run."""
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "symcoh", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    with proc.stdout:
        out = proc.stdout.read()
    # wait4 reaps the child with its own resource usage; ru_maxrss is in KB
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024, hashlib.sha256(out).hexdigest()[:12], proc.returncode


def select(names: list[str] | None) -> list[tuple]:
    """The rungs named exactly in ``names``, in table order; every rung when
    ``names`` is None.  An unknown name raises KeyError."""
    if names is None:
        return list(RUNGS)
    unknown = set(names) - {rung[0] for rung in RUNGS}
    if unknown:
        raise KeyError(", ".join(sorted(unknown)))
    return [rung for rung in RUNGS if rung[0] in names]


def status(prefix: str, code: int, pinned: str, pinned_code: int) -> str:
    out = "ok" if prefix == pinned else f"MISMATCH, pinned {pinned}"
    if code != pinned_code:
        out += f", exit {code}, pinned {pinned_code}"
    return out


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", type=Path, action="append",
                   help="a source directory to run, repeatable (default: this checkout's src)")
    p.add_argument("--only", action="append", metavar="NAME",
                   help="run only the rung of this exact name, repeatable")
    p.add_argument("--rounds", type=int, default=1,
                   help="runs of each rung on each tree, alternating the trees (default 1)")
    args = p.parse_args(argv)
    try:
        rungs = select(args.only)
    except KeyError as exc:
        p.error(f"unknown rung {exc.args[0]}; expected one of {', '.join(r[0] for r in RUNGS)}")
    if args.rounds < 1:
        p.error("--rounds must be at least 1")
    srcs = args.src or [Path(__file__).resolve().parent.parent / "src"]
    mismatches = 0
    if len(srcs) == 1 and args.rounds == 1:
        for name, rung_argv, pinned, pinned_code in rungs:
            wall, rss, prefix, code = run(rung_argv, srcs[0])
            text = status(prefix, code, pinned, pinned_code)
            mismatches += text != "ok"
            print(f"{name:<23} {wall:7.2f} s {rss:7.1f} MB  {prefix}  {text}", flush=True)
        return 1 if mismatches else 0
    for i, src in enumerate(srcs, 1):
        print(f"tree {i}: {src}", flush=True)
    for name, rung_argv, pinned, pinned_code in rungs:
        runs: list[list[tuple]] = [[] for _ in srcs]
        for r in range(args.rounds):
            for j in range(len(srcs)):
                i = (r + j) % len(srcs)
                runs[i].append(run(rung_argv, srcs[i]))
        for i, got in enumerate(runs, 1):
            walls, rsss, prefixes, codes = zip(*got)
            bad = sorted({f"{prefix} {status(prefix, code, pinned, pinned_code)}"
                          for prefix, code in zip(prefixes, codes)
                          if (prefix, code) != (pinned, pinned_code)})
            mismatches += len(bad)
            print(f"{name:<23} tree {i} {statistics.median(walls):7.2f} s {max(rsss):7.1f} MB  "
                  f"{'; '.join(bad) or 'ok'}  ({' '.join(f'{w:.2f}' for w in walls)})",
                  flush=True)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
