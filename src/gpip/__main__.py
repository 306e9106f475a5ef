"""`python -m gpip run --config experiment.json`: the `gpip` command."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
