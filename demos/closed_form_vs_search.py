"""Cross-validate the closed-form economic life against blind search.

The classification returns minimizers in closed form without ever scanning
the cost curve.  As an independent check, a single grid scan with zoom
refinement locates the same minimizers from the cost's values and the signs
of its slope.
Near a smooth minimum the cost ties its least value over a band of ages, so
the two paths' ages may part in the eighth digit while their costs agree.
This script runs both paths side by side, including a deliberately nasty
knife-edge instance whose cost is flat to within double precision over a wide
range, where the only honest answer of a value-based search is a plateau.

Run:  python demos/closed_form_vs_search.py
"""

from econlife import AssetParams, brute_force_minimize, check_against_search, economic_life

instances = [
    ("replace immediately", AssetParams(100.0, 10.0, 20.0, 0.1)),
    ("keep 4.3 years", AssetParams(40.0, 5.0, 20.0, 0.1)),
    ("keep 18.4 years", AssetParams(100.0, 1.0, 20.0, 0.1)),
    ("numerically flat minimum", AssetParams(100.0, 1.6, 2.0, 0.8)),
]

for title, params in instances:
    result = economic_life(params)
    report = brute_force_minimize(params)

    print(f"{title}  ({result.case.value})")
    print(f"  closed form: minimizers {tuple(round(v, 9) for v in result.minimizers.values)}"
          f"  cost {result.min_cost:.12g}")
    if report.plateau is not None:
        lo, hi = report.plateau
        print(f"  search:      plateau [{lo:g}, {hi:g}] of value-tied ages"
              f"  cost {report.min_value:.12g}")
    else:
        print(f"  search:      minimizers {tuple(round(v, 9) for v in report.argmin_points)}"
              f"  cost {report.min_value:.12g}")
    verdict = check_against_search(params, result)
    print(f"  agreement:   {'OK' if verdict is None else verdict}\n")

print("the flat instance shows why the search reports plateaus: its cost")
print("varies by less than one part in 1e12 from age zero to far beyond the")
print("closed-form optimum, so no value comparison can single out a point.")
