"""``python -m efxlab <command>``: the same entry point as the ``efxlab`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
