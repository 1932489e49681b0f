"""Average downlink interference: quadrature against Monte Carlo, and the
Poisson baseline that loses its protection distance.

Run:  python3 demos/interference_validation.py   (a few seconds)
"""

import math

import numpy as np

from hcppnet import (
    ChannelParams,
    HcppParams,
    InterferenceScenario,
    avg_interference_hcpp,
    avg_interference_ppp,
    db_to_linear,
    mc_interference,
)

LAMBDA_P = 1.0 / (math.pi * 800.0**2)
CHANNEL = ChannelParams(db_to_linear(-31.54), 3.8, 6.0)


def scenario(x_off, delta=500.0):
    return InterferenceScenario(HcppParams(LAMBDA_P, delta), CHANNEL, x_off, 2.0)


def main():
    rng = np.random.default_rng(42)
    reps = 2000

    print("user offset (m)   analytic (W)    monte carlo (W)   std err      z")
    for x_off in (0.0, 100.0, 200.0, 300.0):
        s = scenario(x_off)
        analytic = avg_interference_hcpp(s)
        est = mc_interference(s, reps, rng)
        z = (analytic - est.mean) / est.std_error
        print(f"{x_off:12.0f}     {analytic:.4e}      {est.mean:.4e}     "
              f"{est.std_error:.1e}   {z:+5.2f}")

    # the minimum-spacing network is quieter near the station but loses to
    # the Poisson layout once the user walks far enough from its server:
    # out there the Poisson exclusion disc (radius = user offset) protects
    # more than the spacing floor does
    print("\nuser offset (m)   spacing floor (W)   no floor, Poisson (W)")
    for x_off in (100.0, 200.0, 300.0, 400.0):
        print(f"{x_off:12.0f}       {avg_interference_hcpp(scenario(x_off)):.4e}"
              f"          {avg_interference_ppp(scenario(x_off)):.4e}")


if __name__ == "__main__":
    main()
