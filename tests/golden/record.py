"""Record the golden CLI corpus: for each case, the stdout bytes and the
exit status of ``python -m modgeo ARGV`` under the case's environment.

Run from the repository root with the modgeo to record on the path:

    PYTHONPATH=src python tests/golden/record.py

It rewrites ``cases.json`` and one ``<name>.out`` file per case next to
this script.  ``tests/test_golden.py`` replays the corpus.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

SIEGEL_QUARTICS = {
    "x4m2": "x^4-2",
    "x4m3": "x^4-3",
    "x4px2m1": "x^4+x^2-1",
    "x4mxm1": "x^4-x-1",
    "x4m3xp1": "x^4-3*x+1",
    "2x4m1": "2*x^4-1",
}

# (name, argv, env)
CASES = [
    ("classify_rm", ["classify", "--sx", "sqrt(5)", "--sy", "-sqrt(5)"], {}),
    ("classify_matrix", ["classify", "--matrix", "1,sqrt(2),0,1", "--json"], {}),
    ("classify_generic", ["classify", "--sx", "0", "--sy", "generic:e"], {}),
    ("classify_split", ["classify", "--sx", "0", "--sy", "inf", "--json"], {}),
    ("cf_sqrt2", ["cf", "sqrt(2)"], {}),
    ("cf_rational", ["cf", "7/3", "--json"], {}),
    ("cf_golden", ["cf", "(1+sqrt(5))/2"], {}),
    ("cf_sqrt94", ["cf", "sqrt(94)", "--json"], {}),
    ("cf_mixed_radicands", ["cf", "sqrt(2)+sqrt(3)"], {}),
    ("cf_budget", ["cf", "sqrt(1000003)"], {"MODGEO_STEP_BUDGET": "5"}),
    ("equiv_yes", ["equiv", "sqrt(2)", "sqrt(2)/2"], {}),
    ("equiv_no", ["equiv", "sqrt(2)", "sqrt(3)", "--json"], {}),
    ("equiv_parse_error", ["equiv", "sqrt(", "1"], {}),
    ("classgroup_40", ["classgroup", "40", "--json"], {}),
    ("classgroup_4620", ["classgroup", "4620"], {}),
    ("classgroup_invalid", ["classgroup", "7", "--json"], {}),
    ("units_5", ["units", "5", "--json"], {}),
    ("units_94", ["units", "94"], {}),
    ("units_digits30", ["units", "13"], {"MODGEO_NUMERIC_DIGITS": "30"}),
    ("units_bad_env", ["units", "5"], {"MODGEO_NUMERIC_DIGITS": "zero"}),
    ("geodesics_5", ["geodesics", "5", "--json"], {}),
    ("geodesics_4620", ["geodesics", "4620"], {}),
    ("census_4", ["census", "--dmax", "4", "--json"], {}),
    ("census_60", ["census", "--dmax", "60"], {}),
    ("nct_equiv", ["nct", "equiv", "sqrt(2)", "1+sqrt(2)", "--json"], {}),
    ("nct_member", ["nct", "member", "3+2*sqrt(2)", "--theta", "sqrt(2)", "--json"], {}),
    ("nct_member_none", ["nct", "member", "1/2", "--theta", "sqrt(2)"], {}),
    ("nct_member_theta_inf", ["nct", "member", "1/3", "--theta", "inf"], {}),
    ("nct_levels_3", ["nct", "levels", "3", "--json"], {}),
    ("nct_levels_360", ["nct", "levels", "360"], {}),
    ("hilbert_e2", ["hilbert", "--E", "x^2-2", "--F", "x^4-10*x^2+1", "--json"], {}),
    ("hilbert_e3", ["hilbert", "--E", "x^2-3", "--F", "x^4-10*x^2+1"], {}),
    ("hilbert_not_subfield", ["hilbert", "--E", "x^2-7", "--F", "x^4-10*x^2+1"], {}),
    ("siegel_wrong_signature", ["siegel", "--K", "x^4-10*x^2+1", "--json"], {}),
    ("siegel_reducible", ["siegel", "--K", "x^4-4"], {}),
    ("siegel_default_bound", ["siegel", "--K", "x^4-2", "--json"], {}),
    ("siegel_x4mxm1_0", ["siegel", "--K", "x^4-x-1", "--psi-bound", "0"], {}),
    ("siegel_x4mxm1_5", ["siegel", "--K", "x^4-x-1", "--psi-bound", "5"], {}),
    ("siegel_x4mxm1_neg", ["siegel", "--K", "x^4-x-1", "--psi-bound", "-1"], {}),
] + [
    (f"siegel_{key}_{H}",
     ["siegel", "--K", K, "--psi-bound", str(H)] + (["--json"] if H % 2 == 0 else []),
     {})
    for key, K in SIEGEL_QUARTICS.items()
    for H in (1, 2, 3, 4)
]


def main() -> int:
    index = []
    for name, argv, env in CASES:
        full_env = dict(os.environ)
        full_env.update(env)
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "modgeo", *argv],
                              capture_output=True, env=full_env)
        secs = time.perf_counter() - start
        (HERE / f"{name}.out").write_bytes(proc.stdout)
        index.append({"name": name, "argv": argv, "env": env,
                      "exit": proc.returncode})
        print(f"{secs:6.2f}s  exit {proc.returncode}  {name}", file=sys.stderr)
    (HERE / "cases.json").write_text(json.dumps(index, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
