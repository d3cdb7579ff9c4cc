"""``python -m catci``: the ``catci`` command line (see :mod:`catci.cli`)."""

import sys

from .cli import main

sys.exit(main())
