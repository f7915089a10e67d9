import gc
import sys

from .cli import main

if __name__ == "__main__":
    code = main()
    # Interpreter teardown skips frozen objects in its final collection, a walk
    # over every object numpy and argparse made. Every output file is already
    # closed, and the process exit returns the memory.
    gc.freeze()
    sys.exit(code)
