#!/usr/bin/env python3
"""Paired comparison of two commits on the end-to-end benchmark.

    python3 e2ebench/compare.py BASE_REV CHANGE_REV [--pairs 10]
        [--workloads learn_narrow,select_wide]

Exports both revisions with `git archive` under .bench_out/compare/, puts
this tree's benchmark (e2ebench/ and BENCHMARK.json) into both, so the two
sides differ only in the program, and runs N pairs per workload. Pair i
runs both sides with seed 100+i for BENCHMARK.json's run_seconds; even
pairs run the base first, odd pairs the change first.

For each workload and end-to-end metric it prints each side's median and
quartiles, the share of pairs the change won (ties count for neither),
and a verdict:

  unresolved  the base's own spread (quartile distance over median)
              exceeds the metric's bound, so the runs cannot tell, and
              not every change run beats every base run
  better      the change won at least 9 of 10 pairs and the medians differ
              by more than the base's quartile distance
  worse       the change's median is worse than the base's by more than
              the bound
  same        none of the above
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BASE_SEED = 100


def export(rev, dest):
    if os.path.exists(dest):
        shutil.rmtree(dest)
    os.makedirs(dest)
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev],
                             stdout=subprocess.PIPE, check=True)
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout, check=True)
    shutil.rmtree(os.path.join(dest, "e2ebench"), ignore_errors=True)
    shutil.copytree(HERE, os.path.join(dest, "e2ebench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)


def run(tree, workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if out.returncode != 0:
        sys.exit("compare.py: run failed in %s (%s, seed %d)" % (tree, workload, seed))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit("compare.py: incorrect output in %s (%s, seed %d)" % (tree, workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    work = os.path.join(ROOT, ".bench_out", "compare")
    trees = {"base": os.path.join(work, "base"), "change": os.path.join(work, "change")}
    export(args.base, trees["base"])
    export(args.change, trees["change"])

    for workload in workloads:
        runs = {"base": [], "change": []}
        for i in range(args.pairs):
            order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
            for side in order:
                runs[side].append(run(trees[side], workload, BASE_SEED + i, seconds))
        print("\n## %s (%d pairs, %g s runs)\n" % (workload, args.pairs, seconds))
        print("| metric | base median [q1, q3] | change median [q1, q3] | change wins | verdict |")
        print("|---|---|---|---:|---|")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            lower = metric["better"] == "lower"
            base = [r[name] for r in runs["base"]]
            change = [r[name] for r in runs["change"]]
            bq1, bmed, bq3 = quartiles(base)
            cq1, cmed, cq3 = quartiles(change)
            wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
            spread = (bq3 - bq1) / bmed if bmed else 0.0
            worse_by = ((cmed - bmed) if lower else (bmed - cmed)) / bmed if bmed else 0.0
            all_better = (max(change) < min(base)) if lower else (min(change) > max(base))
            if spread > bound and not all_better:
                verdict = "unresolved"
            elif wins >= 0.9 * len(base) and abs(cmed - bmed) > (bq3 - bq1):
                verdict = "better"
            elif worse_by > bound:
                verdict = "worse"
            else:
                verdict = "same"
            print("| %s | %.4g [%.4g, %.4g] | %.4g [%.4g, %.4g] | %d/%d | %s |" % (
                name, bmed, bq1, bq3, cmed, cq1, cq3, wins, len(base), verdict))


if __name__ == "__main__":
    main()
