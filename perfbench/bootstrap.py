"""Import inqcheck from the source tree of the checkout this file sits in.

The benchmark measures the code next to it, never an installed copy: it
puts `<root>/src` first on the path and refuses an inqcheck loaded from
anywhere else.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load_inqcheck():
    """Return the inqcheck package of this checkout, or exit with code 2."""
    sys.path.insert(0, str(SRC))
    try:
        import inqcheck
    except ImportError as e:
        raise SystemExit(f"perfbench: cannot import inqcheck from {SRC}: {e}") from e
    origin = Path(inqcheck.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"perfbench: inqcheck was loaded from {origin}, not from {SRC}")
    return inqcheck
