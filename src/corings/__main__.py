import gc
import os
import sys

from .cli import main

try:
    code = main()
    sys.stdout.flush()
except BrokenPipeError:
    # The reader of the output went away, as `| head -1` does: the report is
    # lost, an I/O error (exit 2).  Point stdout at the null device so that
    # the interpreter's own flush at exit does not fail on the pipe again.
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    code = 2
# Once the report is written, the interpreter's exit is pure cost, and most of
# it is the final garbage collections walking and freeing every object the
# collector tracks, the modules loaded at start-up included.  Freezing moves
# every object out of their reach.  Exit stays normal otherwise: atexit
# handlers, the flush of the standard streams and the exit code.
# - Not `os._exit`: it skips all three, and a caller that runs this module and
#   catches SystemExit, such as a tracer that writes its spans afterwards,
#   would never get control back.
# - Not a freeze before `main`: everything the call builds would still be
#   left to the exit collections.
gc.freeze()
sys.exit(code)
