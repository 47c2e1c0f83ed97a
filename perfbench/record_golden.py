"""Record the golden answer of every benchmark item into golden.json.

    python3 perfbench/record_golden.py

Run it from the root of a checkout; it imports enriques_bn from that
checkout's src/.  Re-recording is only right when an answer is meant to
change: the benchmark counts any difference from these answers as a
failed item.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import run
import workloads as wl


def record_sweep() -> tuple[list[dict], dict]:
    import enriques_bn as eb

    form = eb.canonical_form()
    specs = [("random", {"coords": list(c)}) for c in wl.random_sample(form)]
    for name, (config, vectors) in wl.FAMILIES.items():
        specs += [(name, {"config": config, "coeffs": list(v)}) for v in vectors]
    embed = wl.Embeddings()
    out = []
    for group, spec in specs:
        L = wl.class_from_spec(spec, embed)
        t = time.perf_counter()
        answer = wl.canonical(wl.sweep_answer(L))
        key = (f"{spec['config']}:{'+'.join(map(str, spec['coeffs']))}"
               if "config" in spec else ",".join(map(str, spec["coords"])))
        print(f"sweep {group} {key} L^2={L.square} {time.perf_counter() - t:.2f}s",
              file=sys.stderr)
        out.append({"group": group, "key": key, "class": spec,
                    "square": L.square, "answer": answer})
    sample = {
        "seed": wl.POOL_SEED, "count": wl.RANDOM_CLASSES, "spread": wl.SPREAD,
        "max_square": wl.MAX_SQUARE,
        "square_histogram": wl.square_histogram(
            rec["square"] for rec in out if rec["group"] == "random"),
    }
    return out, sample


def record_destab() -> list[dict]:
    import enriques_bn as eb

    embed = wl.Embeddings()
    out = []
    for label, spec in wl.DESTAB_CLASSES.items():
        if isinstance(spec[0], str):
            spec = {"config": spec[0], "coeffs": list(spec[1])}
        else:
            spec = {"coords": list(spec) + [0] * 8}
        L = wl.class_from_spec(spec, embed)
        rep = eb.gonality(L)
        for d in range(rep.k, rep.genus - rep.k + 1):
            t = time.perf_counter()
            answer = wl.canonical(wl.destab_answer(L, d))
            print(f"destab {label} d={d} {len(answer)} candidates "
                  f"{time.perf_counter() - t:.2f}s", file=sys.stderr)
            out.append({"group": label, "key": f"{label}/d={d}", "class": spec,
                        "d": d, "answer": answer})
    return out


def record_cli() -> list[dict]:
    out = []
    for argv in wl.CLI_COMMANDS:
        proc = subprocess.run(run.cli_command(argv), env=run.child_env(), cwd=run.ROOT,
                              capture_output=True, timeout=run.CHILD_TIMEOUT_S)
        print(f"cli {' '.join(argv)} exit={proc.returncode}", file=sys.stderr)
        out.append({"group": argv[0], "key": " ".join(argv),
                    "argv": list(argv), "exit": proc.returncode,
                    "stdout": proc.stdout.decode()})
    return out


def main() -> None:
    run.use_checkout()
    recorded_at = run.provenance()
    recorded_at["package"] = str(run.PACKAGE.relative_to(run.ROOT) / "__init__.py")
    sweep, sample = record_sweep()
    golden = {
        "recorded_at": recorded_at,
        "sweep": sweep,
        "sweep_sample": sample,
        "destab": record_destab(),
        "cli": record_cli(),
    }
    with open(wl.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
