"""One benchmark sample: what ``repro run <experiment>`` does.

Imports the CLI (so start-up pays the same imports ``python -m repro``
does), looks the experiment up in ``TABLES``/``FIGURES``, calls each
driver with only the keyword arguments it accepts, and prints exactly
what ``repro run`` prints: the rendering, the ``  (N.Ns)`` timing line
and a blank line.  ``--seed`` reaches the drivers as
``master_seed``/``seed``; 2002 is the drivers' own default, so at that
seed stdout is byte-identical to the CLI's.

Run by ``run.py``, one process per sample::

    PYTHONPATH=src python benchmarks/e2e/child.py --experiment fig1 \\
        --seed 2002 --meta meta.json

``--setup-only`` stops just before the first driver call, after
recording the start-up timestamp.  ``--trace-dir`` installs the
outside-in tracer (``tracer.py``) and writes ``trace.json`` there.
``--out`` exports each result as CSV/JSON without printing the paths.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
from pathlib import Path


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--experiment", required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--seed", type=int, default=2002)
    parser.add_argument("--meta", required=True,
                        help="JSON file for start-up time and backend facts")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-dir", default=None)
    parser.add_argument("--out", default=None)
    return parser.parse_args(argv)


def _driver_kwargs(driver, args: argparse.Namespace) -> dict:
    """The options ``repro run`` offers, plus the seed, that *driver*
    accepts (mirrors ``repro.cli._call_driver``)."""
    offered = {"quick": args.quick, "master_seed": args.seed,
               "seed": args.seed}
    if args.workers != 1:
        offered["workers"] = args.workers
    if args.cache_dir:
        offered["cache_dir"] = args.cache_dir
    params = inspect.signature(driver).parameters
    return {k: v for k, v in offered.items() if k in params}


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    import numpy as np

    import repro.cli  # noqa: F401  (the CLI's start-up imports)
    from repro.experiments.figures import FIGURES
    from repro.experiments.tables import TABLES
    from repro.profiling import PROFILER
    from repro.sim import fastcore
    from repro.telemetry import TELEMETRY

    drivers = {**TABLES, **FIGURES}
    names = list(drivers) if args.experiment == "all" else [args.experiment]
    # CLOCK_MONOTONIC is system-wide, so the parent can subtract its
    # own spawn timestamp from this one.
    meta = {"ready": time.monotonic()}
    meta_path = Path(args.meta)
    if args.setup_only:
        meta_path.write_text(json.dumps(meta))
        return 0

    tracer = None
    if args.trace_dir:
        from tracer import Tracer  # this script's directory is on sys.path
        tracer = Tracer(args.trace_dir)
        tracer.install()

    for name in names:
        driver = drivers[name]
        kwargs = _driver_kwargs(driver, args)
        started = time.time()
        if tracer is not None:
            data = tracer.call(f"driver.{name}", driver, **kwargs)
        else:
            data = driver(**kwargs)
        print(data.render())
        print(f"  ({time.time() - started:.1f}s)")
        if args.out:
            from repro.experiments.io import write_csv, write_json
            base = (Path(args.out)
                    / data.experiment_id.lower().replace("-", "_"))
            write_csv(data, base.with_suffix(".csv"))
            write_json(data, base.with_suffix(".json"))
        print()
    sys.stdout.flush()

    if tracer is not None:
        tracer.finish()
    meta.update(
        python=sys.version.split()[0],
        numpy=np.__version__,
        core_info=fastcore.core_info(),
        telemetry=TELEMETRY.enabled,
        profiler=PROFILER.enabled,
    )
    meta_path.write_text(json.dumps(meta))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
