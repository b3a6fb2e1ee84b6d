"""``python -m repro`` — dispatch to the command-line interface."""

from repro.cli import console_main

if __name__ == "__main__":
    console_main()
