"""``python -m influence_select`` and the ``influence-select`` script.

The command runs on one BLAS thread: a threaded BLAS may split a matrix
product's sums differently at another thread count, and then the outputs
would not be byte-identical from machine to machine. ``main`` sets the
variables before it imports ``cli``, because importing that loads numpy and
its BLAS.
"""

import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def main() -> int:
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    from .cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
