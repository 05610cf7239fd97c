"""`python -m whittemore`: the command-line interface."""
from whittemore.cli import entry

if __name__ == "__main__":
    entry()
