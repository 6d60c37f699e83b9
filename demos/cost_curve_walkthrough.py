"""Walk through the ownership-cost model for a single machine.

A machine bought for 40 000 loses 20 000 of resale value per year (worthless
after two years) and its yearly maintenance bill grows by 5 000 per year of
age.  Money costs 10% nominally, compounded continuously.  Every holding
horizon is priced as a constant yearly amount, which makes "replace after t
years" plans directly comparable; the dip of the total curve is the economic
life.

Run:  python demos/cost_curve_walkthrough.py
"""

from econlife import AssetParams, curve, economic_life

params = AssetParams(
    acquisition_cost=40.0,  # thousands
    maint_slope=5.0,
    depreciation_rate=20.0,
    interest_rate=0.1,
)

print("asset:", params)
print(f"resale value hits zero at age {params.junction:g} years\n")

print(f"{'age':>5} | {'capital':>9} | {'maintenance':>11} | {'total':>9}")
print("-" * 45)
for t, capital, maintenance, total in zip(*curve(params, t_max=10.0, step=0.5)):
    print(f"{t:5.1f} | {capital:9.3f} | {maintenance:11.3f} | {total:9.3f}")

result = economic_life(params)
best = result.minimizers.values[0]
print("\ncapital falls with age, maintenance climbs; the sum dips once.")
print(f"case {result.case.value}: replace after {best:.4f} years "
      f"at {result.min_cost:.3f} per year.")
print("holding one year longer costs "
      f"{curve(params, 10.0, best + 1.0).property_cost[-1] - result.min_cost:+.3f} per year.")
