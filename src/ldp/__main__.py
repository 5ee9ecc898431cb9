"""`python -m ldp`: the `ldp` command."""

import sys

from .cli import main

sys.exit(main())
