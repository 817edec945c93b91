#!/usr/bin/env python3
"""The benchmark's acceptance check, as the benchmark driver makes it.

Runs the command of BENCHMARK.json ten times on each workload, each time
with another --seed, and takes for each end-to-end metric the distance
between the first and third quartile of its ten values as a share of
their median. Run it twice (two sets): the benchmark is steady when every
spread stays within the metric's bound (aim for a third of it), and no
second median is worse than the first by more than the bound. Two traced
runs per workload check that every per-layer metric is reported.

    python3 benchmark/acceptance.py --set a --first-seed 1
    python3 benchmark/acceptance.py --set b --first-seed 11 --against a

Writes benchmark/results/acceptance-<set>.json. Run from the repo root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

RESULTS = os.path.join("benchmark", "results")
# What the benchmark driver does; result sets taken otherwise would not be
# comparable with the committed ones.
RUNS = 10
TRACED = 2


def run(spec, workload, seed, trace):
    argv = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", str(trace),
    ]
    started = time.monotonic()
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
    wall_s = time.monotonic() - started
    if done.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in expected}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"metrics differ from BENCHMARK.json: {set(got) ^ set(want)}"
    result["wall_s"] = wall_s
    result["seed"] = seed
    # The driver's own results file says where the numbers came from and
    # at which sizes the workload ran.
    written = [l for l in done.stdout.splitlines() if l.startswith("results written to ")]
    with open(written[-1].removeprefix("results written to ")) as f:
        details = json.load(f)
    result["sizes"] = details["workloads"][0]["sizes"]
    result["provenance"] = details["provenance"]
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--set", required=True, help="name of this result set")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--against", help="earlier set to compare the medians with")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    started = time.monotonic()
    seeds = list(range(args.first_seed, args.first_seed + RUNS))
    workloads = {}
    ok = True
    for w in (w["name"] for w in spec["workloads"]):
        runs = [run(spec, w, seed, 0) for seed in seeds]
        traced = [run(spec, w, seed, 1) for seed in seeds[:TRACED]]
        summary = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            summary[name] = {"median": median, "spread": spread, "bound": metric["bound"]}
            steady = spread <= metric["bound"]
            ok &= steady
            print(
                f"{w:<15} {name:<12} median {median:<12.6g} spread {spread:7.2%} "
                f"bound {metric['bound']:.0%} {'' if steady else 'UNSTEADY'}",
                flush=True,
            )
        all_runs = runs + traced
        sizes = [r.pop("sizes") for r in all_runs][0]
        machine = [r.pop("provenance") for r in all_runs][0]
        ok &= all(r["correct"] and r["failed"] == 0 for r in all_runs)
        workloads[w] = {
            "sizes": sizes,
            "summary": summary,
            "attempted": sum(r["attempted"] for r in all_runs),
            "failed": sum(r["failed"] for r in all_runs),
            "correct": all(r["correct"] for r in all_runs),
            "runs": runs,
            "traced": traced,
        }

    if args.against:
        with open(os.path.join(RESULTS, f"acceptance-{args.against}.json")) as f:
            earlier = json.load(f)["workloads"]
        for w, now in workloads.items():
            for name, s in now["summary"].items():
                # Every end-to-end metric is better when lower.
                drift = s["median"] / earlier[w]["summary"][name]["median"] - 1
                s["drift_against_" + args.against] = drift
                worse = drift > s["bound"]
                ok &= not worse
                print(f"{w:<15} {name:<12} drift {drift:+7.2%} {'WORSE' if worse else ''}")

    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"acceptance-{args.set}.json")
    with open(path, "w") as f:
        json.dump(
            {
                "provenance": {
                    **{k: machine[k] for k in ("commit", "rustc", "nproc", "cpu_model")},
                    "seeds": seeds,
                    "run_seconds": spec["run_seconds"],
                    "runs_per_workload": RUNS,
                    "traced_runs_per_workload": TRACED,
                    "driver_wall_s": time.monotonic() - started,
                },
                "accepted": bool(ok),
                "workloads": workloads,
            },
            f,
            indent=1,
        )
        f.write("\n")
    print(f"{'ACCEPTED' if ok else 'NOT ACCEPTED'}; written to {path}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
