"""``python -m condorcet``: the command-line interface of ``condorcet.cli``."""

import sys

from .cli import run

sys.exit(run())
