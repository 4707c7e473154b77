"""``python -m phoscil``: the ``phoscil`` command, runnable from a checkout."""
import sys

from .cli import main

sys.exit(main())
