"""Run the command line as `python -m evqc`."""

import sys

from evqc import cli

if __name__ == "__main__":
    sys.exit(cli.main())
