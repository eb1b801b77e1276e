"""``python -m pgc``: the ``pgc`` command line."""

from .cli import main

if __name__ == "__main__":
    main()
