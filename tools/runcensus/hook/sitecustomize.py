"""The run census's recorder: note every package function a process enters.

``python -m runcensus`` puts this directory first on ``PYTHONPATH``, so
every interpreter it starts (and every interpreter those start, while
they keep the inherited ``PYTHONPATH``) imports this module at start-up.
With ``RUNCENSUS_PACKAGE`` (the package directory) and ``RUNCENSUS_OUT``
(a directory) set, it installs a profile hook on this thread and on every
thread started later, and at exit appends one ``path<TAB>qualname`` line
per package code object entered to ``RUNCENSUS_OUT/<pid>.tsv``; ``path``
is relative to the package directory.
"""

import atexit
import os
import sys
import threading

_PACKAGE = os.environ.get("RUNCENSUS_PACKAGE")
_OUT = os.environ.get("RUNCENSUS_OUT")

if _PACKAGE and _OUT:
    _entered = set()

    def _profile(frame, event, arg, _add=_entered.add):
        if event == "call":
            _add(frame.f_code)

    def _dump():
        sys.setprofile(None)
        prefix = os.path.join(_PACKAGE, "")
        rows = sorted(
            {
                f"{os.path.relpath(code.co_filename, _PACKAGE)}\t{code.co_qualname}\n"
                for code in list(_entered)
                if code.co_filename.startswith(prefix)
            }
        )
        with open(os.path.join(_OUT, f"{os.getpid()}.tsv"), "a", encoding="utf-8") as out:
            out.writelines(rows)

    atexit.register(_dump)
    threading.setprofile(_profile)
    sys.setprofile(_profile)
