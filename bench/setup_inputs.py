"""Set-up, run in a process of its own: generate phantoms of a plan, lay them out, write them as QVOL1.

Usage: ``python3 -m bench.setup_inputs PLAN.json TIMINGS.json`` sets up
every input of the plan. The timings file receives their generate and write
times in milliseconds.

The layout (slice order, row and column flips, transpose) is applied to the
generated volume before it is written; the estimate is invariant to it.
"""

from __future__ import annotations

import json
import sys
import time

from bench.env import use_source_tree


def laid_out(data, layout: dict):
    """The (slices, rows, cols) array in the layout's slice order and in-plane orientation."""
    data = data[layout["slice_order"]]
    if layout["flip_rows"]:
        data = data[:, ::-1, :]
    if layout["flip_cols"]:
        data = data[:, :, ::-1]
    if layout["transpose"]:
        data = data.transpose(0, 2, 1)
    return data


def main(plan_path: str, timings_path: str) -> int:
    use_source_tree()
    from qbench.phantom import PhantomSpec, generate
    from qbench.qvol import write_container
    from qbench.volume import Volume

    with open(plan_path) as fh:
        plan = json.load(fh)
    timings = {}
    for item in plan["inputs"]:
        t0 = time.perf_counter()
        volume = generate(PhantomSpec.from_dict(item["spec"]))
        t1 = time.perf_counter()
        volume = Volume.from_array(laid_out(volume.data, item["layout"]), volume.voxel_size)
        write_container(item["path"], volume, dtype=item["dtype"])
        t2 = time.perf_counter()
        timings[item["name"]] = {"generate_ms": (t1 - t0) * 1e3, "write_ms": (t2 - t1) * 1e3}
    with open(timings_path, "w") as fh:
        json.dump(timings, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
