"""The sweep's command-line options.

One definition serves ``python -m repro.experiments.runner`` and
``repro experiment``.  It lives apart from :mod:`.runner` so that
building the ``repro`` parser imports no experiment module.
"""

from __future__ import annotations

import argparse

from .. import envconfig


def _positive_int(value: str) -> int:
    try:
        parsed = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}")
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {parsed}")
    return parsed


def add_sweep_options(parser: argparse.ArgumentParser) -> None:
    """Add the experiment names and every sweep option to ``parser``."""
    parser.add_argument(
        "names", nargs="*", metavar="experiment",
        help="experiments to run, in order (default: all)",
    )
    parser.add_argument(
        "--jobs", type=_positive_int, metavar="N",
        help="worker processes for cold cells (default REPRO_JOBS or the "
        "CPU count)",
    )
    parser.add_argument(
        "--json", dest="json_dir", metavar="DIR",
        help="also write each table as DIR/<name>.json",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="skip experiments the checkpoint manifest records as "
        "completed under the current parameters",
    )
    parser.add_argument(
        "--plan", choices=envconfig.PLAN_MODES,
        help="execution mode of every cold batch (default REPRO_PLAN or "
        "auto: the adaptive planner picks per batch)",
    )
    parser.add_argument(
        "--batch-cells", type=_positive_int, metavar="N",
        help="cells per batched pool dispatch (default REPRO_BATCH_CELLS "
        "or 8)",
    )
    parser.add_argument(
        "--kernel-backend", choices=envconfig.KERNEL_BACKENDS,
        help="bit-kernel backend (default REPRO_KERNEL_BACKEND or auto: "
        "compiled when it builds on this host, else python)",
    )
