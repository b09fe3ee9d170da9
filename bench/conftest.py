import sys
from pathlib import Path

# The benchmark's tests import mraclab from this checkout's sources.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
