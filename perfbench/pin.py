"""Re-pin the simulated statistics the benchmark checks against.

    python3 perfbench/pin.py

Rewrites perfbench/pins.json: every run's RunMetrics and the trace-body
digest of each workload at the pinned seed, and every golden-grid cell.
Re-pin only for a stated behaviour change, in a change that edits the
benchmark, and record it in CHANGES.md.
"""
from __future__ import annotations

import os
import sys

import checks
import run as bench


def main() -> int:
    sys.path.insert(0, bench.SRC)
    seed = checks.PINNED_SEED
    pins = {"seed": seed, "workloads": {}, "golden_grid": {}}
    for wl in bench.WORKLOADS.values():
        work = os.path.join(bench.WORK, "pin", wl.name)
        prep, _ = bench.set_up(wl, seed, work)
        if wl.command == "compare":
            rc = prep.uav.cli.main(bench.compare_argv(
                prep.config_path, wl.runs, seed, 1, prep.out_dir))
            if rc != 0:
                raise SystemExit(f"{wl.name}: compare exited with {rc}")
        verifier = checks.RunVerifier(prep.uav, prep.config, wl.runs, seed)
        failures, forms = verifier.check(prep.out_dir)
        if failures:
            raise SystemExit(f"{wl.name}: refusing to pin failed runs {failures}")
        pins["workloads"][wl.name] = {
            "trace_body_sha256": verifier.body_digest(prep.out_dir),
            "runs": forms,
        }
        print(f"pinned {wl.name}: {len(forms)} runs")
    grid_dir = os.path.join(bench.WORK, "pin", "grid")
    os.makedirs(grid_dir, exist_ok=True)
    for key, variant, cell_seed, scheme in checks.grid_cells():
        pins["golden_grid"][key] = checks.grid_cell(
            prep.uav, variant, cell_seed, scheme, grid_dir)
    print(f"pinned {len(pins['golden_grid'])} golden-grid cells")
    checks.save_pins(pins)
    return 0


if __name__ == "__main__":
    sys.exit(main())
