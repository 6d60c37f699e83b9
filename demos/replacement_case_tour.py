"""Tour of the replacement regimes.

The global minimum of the yearly ownership cost falls into one of a handful
of regimes, decided by two comparisons: the maintenance slope against the
"depreciation speed" b*r, and against a closed-form slope threshold.  When
both local optima exist (age zero versus the interior optimum), a third
comparison of the purchase price against an acquisition threshold picks the
winner.  This script builds one instance of every reachable regime plus the
knife-edge tie.

Run:  python demos/replacement_case_tour.py
"""

from econlife import AssetParams, acquisition_threshold, economic_life

instances = [
    ("steep maintenance, cheap to replace", AssetParams(100.0, 10.0, 20.0, 0.1)),
    ("both optima, replacement wins", AssetParams(100.0, 5.0, 20.0, 0.1)),
    ("both optima, keeping wins", AssetParams(40.0, 5.0, 20.0, 0.1)),
    ("mild maintenance, keep well past depreciation", AssetParams(100.0, 1.0, 20.0, 0.1)),
    ("knife edge: maintenance slope equals b*r", AssetParams(100.0, 2.0, 20.0, 0.1)),
]

# exact tie between replacing now and keeping to the interior optimum
tie_acquisition = acquisition_threshold(AssetParams(100.0, 5.0, 20.0, 0.1))
instances.append(("constructed tie of both optima", AssetParams(tie_acquisition, 5.0, 20.0, 0.1)))

for title, params in instances:
    result = economic_life(params)
    m = result.minimizers
    if m.kind == "two_points":
        where = f"ages {m.values[0]:g} and {m.values[1]:.6g} (exact tie)"
    elif m.kind == "interval":
        where = f"every age in [{m.values[0]:g}, {m.values[1]:g}]"
    else:
        where = f"age {m.values[0]:.6g}"
    print(f"{title}")
    print(f"  params: A={params.acquisition_cost:.6g}, a={params.maint_slope:g}, "
          f"b={params.depreciation_rate:g}, r={params.interest_rate:g}")
    print(f"  case {result.case.value}: minimum {result.min_cost:.6f}/year at {where}")
    if result.interior_minimum_age is not None:
        print(f"  interior optimum sits at {result.interior_minimum_age:.6g} years "
              f"(beyond full depreciation at {params.junction:g})")
    print()

print("note: the flat (C2) and decreasing (C3) regimes of the case analysis")
print("require the maintenance slope to reach the slope threshold while not")
print("exceeding b*r, but the threshold is provably above b*r.  So exact")
print("classification never emits C3, and emits C2 only where r*junction is")
print("so large (beyond ~1e16) that the threshold rounds onto b*r, e.g.")
print("AssetParams(1e20, 0.5, 1.0, 0.5), flat on [0, 1e20].")
