"""Sample a minimum-distance station layout and check it against the closed forms.

Run:  python3 demos/hard_core_process.py
"""

import math

import numpy as np

from hcppnet import HcppParams, Window, first_moment, pair_retention, sample_hcpp

LAMBDA_P = 1.0 / (math.pi * 800.0**2)  # one parent per 800 m disc
DELTA = 500.0


def closest_pair(pts):
    """Smallest distance between two of the points: a sweep over them sorted by x."""
    pts = pts[np.argsort(pts[:, 0])]
    best = np.inf
    for lag in range(1, len(pts)):
        dx = pts[lag:, 0] - pts[:-lag, 0]
        if dx.min() >= best:  # every later lag is at least as far apart in x
            break
        best = min(best, np.hypot(dx, pts[lag:, 1] - pts[:-lag, 1]).min())
    return best


def main():
    params = HcppParams(LAMBDA_P, DELTA)
    window = Window.square(60_000.0)
    rng = np.random.default_rng(7)

    pts = sample_hcpp(params, window, rng)
    density = len(pts) / window.area
    closest = closest_pair(pts)
    target = first_moment(params)
    print(f"window           : {window.x_max - window.x_min:.0f} m square")
    print(f"stations retained: {len(pts)}")
    print(f"empirical density: {density:.4e} per m^2")
    print(f"closed form      : {target:.4e} per m^2 "
          f"(ratio {density / target:.4f})")
    print(f"closest pair     : {closest:.1f} m  (floor {DELTA:.0f} m)")

    # pair survival against separation: zero below the floor, a raised band
    # just above it (overlapping exclusion discs share their threats), then
    # the independent-survival plateau from two disc widths out
    print("\nseparation r (m)   pair survival phi(r)")
    for r in (400.0, 501.0, 600.0, 750.0, 999.0, 1000.0, 1500.0):
        print(f"{r:14.0f}     {float(pair_retention(np.array([r]), params)[0]):.6f}")

    try:
        import matplotlib.pyplot as plt
    except ImportError:
        return
    fig, ax = plt.subplots(figsize=(6, 6))
    view = pts[Window.square(10_000.0).contains(pts)]
    ax.scatter(view[:, 0], view[:, 1], s=12)
    ax.set_aspect("equal")
    ax.set_title(f"stations with {DELTA:.0f} m minimum spacing")
    fig.savefig("hard_core_process.png", dpi=120)
    print("\nwrote hard_core_process.png")


if __name__ == "__main__":
    main()
