"""python -m valsel: the valsel command line."""

import sys

from .cli import main

sys.exit(main())
