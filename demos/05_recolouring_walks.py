"""Recolouring walks: moving through the spectrum one colour at a time.

When the smallest part of sigma is at least r - beta + 1 and alpha = 2,
local moves connect the whole spectrum: repainting a class with a fresh
colour, or folding one colour private to a class into another (merging the
two into a fresh colour gives the same colouring up to renaming).  Each
step is validated as it is made.
"""

from sigma_spectra import (
    HypergraphSpec,
    build_sigma,
    mono_zone,
    spectrum,
    spectrum_walk,
    spectrum_walk_steps,
)

spec = HypergraphSpec(n=4, q=3, sigma=build_sigma([2, 2]), alpha=2, beta=3)
res = spectrum(spec)
print(f"{spec}")
print(f"spectrum: {list(res.feasible_k)} (no gaps: {not res.gaps})")

start = res.witnesses[res.chi_bar]
print(f"\nwalking down from {res.chi_bar} colours to n+1 = {spec.n + 1}:")
for ws in spectrum_walk_steps(spec, start, "down"):
    where = f"class {ws.step.class_index}" if ws.step.class_index is not None \
        else "engine"
    print(f"  {ws.step.kind:<28} {where:<9} -> {ws.colour_count} colours")

snapshots = spectrum_walk(spec, start, "down")
print("snapshot colour counts:", [c.colour_count for c in snapshots])

up_spec = HypergraphSpec(n=6, q=3, sigma=build_sigma([2, 2]),
                         alpha=2, beta=3)
up_res = spectrum(up_spec)
start_low = up_res.witnesses[up_res.chi]
print(f"\n{up_spec}")
print(f"spectrum: {list(up_res.feasible_k)}, zone: {mono_zone(up_spec)}")
print(f"walking up from {up_res.chi} colours towards the zone:")
for ws in spectrum_walk_steps(up_spec, start_low, "up"):
    print(f"  {ws.step.kind:<28} class {ws.step.class_index} "
          f"-> {ws.colour_count} colours")
