"""The size of the product: non-blank lines per ``src/prpwifi`` module, their
total, and the number of public exports (``len(prpwifi.__all__)``).

    python3 scripts/size.py

Run it from anywhere; it counts the ``src/`` next to this script. Modules
are listed largest first, ties by name.
"""
from __future__ import annotations

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> None:
    counts = {
        path.stem: sum(1 for line in path.read_text().splitlines() if line.strip())
        for path in (SRC / "prpwifi").glob("*.py")
    }
    for name, count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{name:<10} {count:>5}")
    print(f"{'total':<10} {sum(counts.values()):>5}")
    sys.path.insert(0, str(SRC))
    import prpwifi

    print(f"{'exports':<10} {len(prpwifi.__all__):>5}")


if __name__ == "__main__":
    main()
