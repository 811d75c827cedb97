"""Run the command-line interface: ``python -m mimo_dmt ...``."""
from .cli import main

raise SystemExit(main())
