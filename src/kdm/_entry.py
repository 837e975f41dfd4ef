"""Console entry point.

BLAS thread pools must be pinned through environment variables before numpy
first loads, which is why the package __init__ re-exports lazily and this
module touches the environment before importing anything numeric.  KDM_THREADS
(default 1) caps every pool; computations are sequential either way, so the
setting affects speed only, never results.
"""

import os


def pin_blas_threads() -> None:
    """Cap every BLAS thread pool at KDM_THREADS (default 1).

    Only takes effect before numpy first loads; a pool variable the
    environment already sets is left as it is.
    """
    threads = os.environ.get("KDM_THREADS", "1")
    for var in (
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "OMP_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    ):
        os.environ.setdefault(var, threads)


def main() -> int:
    pin_blas_threads()
    from .cli import main as cli_main

    return cli_main()
