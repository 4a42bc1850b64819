"""``python -m momentext``: the same command line as the ``momentext`` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
