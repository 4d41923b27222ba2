#!/usr/bin/env python3
"""The benchmark's own tests. Each one can fail.

    python3 perfbench/selftest.py

1. The delta-atomicity oracle reports violations on a fixed_ttl sim_browse
   run: the mode has no sketch, so cached copies outlive delta + 2 s after a
   write. An oracle that finds nothing there is broken.
2. The listing check rejects a listing with one member dropped.
3. A shortened sim_browse gives identical modelled results and counts on 1
   and on 4 shard threads.
4. A traced run gives the same modelled results and counts as an untraced one.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload, *extra, trace="0"):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", trace, "--max-rounds", "1", *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    detail = json.loads(lines[-2].split(" ", 1)[1])
    # Host timings differ from run to run; everything else must not.
    detail = {k: v for k, v in detail.items() if k != "rounds" and not k.startswith("host.")}
    return json.loads(lines[-1]), detail


def test_delta_oracle_sees_fixed_ttl():
    result, detail = run("sim_browse", "--scale", "0.5", "--coherence", "fixed_ttl")
    assert detail["check.delta_violations"] > 0, detail
    assert not result["correct"]
    result, detail = run("sim_browse", "--scale", "0.5")
    assert detail["check.delta_violations"] == 0, detail
    assert result["correct"]


def test_listing_check_rejects_dropped_member():
    result, detail = run("sim_write_storm", "--scale", "0.25", "--drop-listing-member")
    assert detail["check.listing_mismatches"] > 0, detail
    assert not result["correct"]


def test_thread_count_invariance():
    _, one = run("sim_browse", "--scale", "0.25", "--threads", "1")
    _, four = run("sim_browse", "--scale", "0.25", "--threads", "4")
    assert one == four, {k: (one[k], four.get(k)) for k in one if one[k] != four.get(k)}


def test_traced_run_matches_untraced():
    for workload in ("sim_browse", "sim_write_storm"):
        _, plain = run(workload, "--scale", "0.25")
        _, traced = run(workload, "--scale", "0.25", trace="1")
        assert plain == traced, {k: (plain[k], traced.get(k)) for k in plain
                                 if plain[k] != traced.get(k)}


def main():
    failures = 0
    for name, fn in list(globals().items()):
        if not name.startswith("test_"):
            continue
        try:
            fn()
            print(f"PASS {name}")
        except Exception as e:  # report every test, then fail once
            failures += 1
            print(f"FAIL {name}: {e}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
