#!/usr/bin/env python3
"""Manufactured-solution refinement sweep at several epsilon values.

Prints the fitted space-time L2 order and the divergence-defect slope for
each epsilon; both should sit near 2 and above 1 respectively.
"""

import sys
from pathlib import Path

from contact_stab.config import parse_config
from contact_stab.scenarios import run_mms
from contact_stab.solver import BlowUpError

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    worst = 0
    for eps in ("1e-1", "1e-2", "1e-3"):
        cfg = parse_config(str(ROOT / "configs" / "mms.cfg"), "mms",
                           overrides=[f"run.epsilon={eps}"])
        try:
            res = run_mms(cfg)
        except BlowUpError as exc:
            print(f"eps={eps}: blow-up at t = {exc.t:.6g} (exit 3)")
            worst = 3
            continue
        print(f"eps={eps}: order={res.data['order']:.3f} "
              f"div_slope={res.data['div_slope']:.3f} "
              f"{'PASS' if res.ok else 'FAIL'}")
        worst = max(worst, res.exit_code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
