"""Process entry of the command line: ``python -m eragreats`` and the
installed ``eragreats`` script both start here.

numpy's OpenBLAS starts a thread pool when numpy is imported, and the one
command that imports numpy, ``tail --trials``, makes no BLAS call: its
draws are ``rng.binomial``, ``bincount`` and ``cumsum``.  So the process
asks for one BLAS thread before anything can import numpy, which about
halves the cost of ``import numpy`` on a 2-vCPU host.  An
``OPENBLAS_NUM_THREADS`` the user has set still wins.  ``cli.main`` called
in process, and the library, leave the environment alone: a process that
embeds them owns its BLAS.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
