"""Print the exact oracle's early-termination fraction of a full-trace log.

Usage: python3 oracle.py LOG T_LRE_NS   (prints ``numerator/denominator``)

The benchmark runs this in its own process during set-up, so decoding the
log here does not count towards the measured process's peak memory.
"""
import sys

from prpwifi.metrics import oracle_attempt_summary
from prpwifi.trace import read_log

if __name__ == "__main__":
    log, t_lre_ns = sys.argv[1], int(sys.argv[2])
    print(oracle_attempt_summary(read_log(log), t_lre_ns).early_bar_exact)
