"""Network energy efficiency across antenna counts, with the Poisson layout
as the baseline the minimum-spacing layout is measured against.

Run:  python3 demos/energy_efficiency.py
"""

import math

import numpy as np

from hcppnet import (
    AntennaConfig,
    ChannelParams,
    EnergyModel,
    HcppParams,
    InterferenceScenario,
    TrafficModel,
    db_to_linear,
    energy_efficiency_quad,
    model_interference,
)
from hcppnet.config import DEFAULTS

LAMBDA_P = 1.0 / (math.pi * 800.0**2)
X_OFF = DEFAULTS["energy"]["x_off"]  # calibrated user offset, see README
ENERGY = EnergyModel(eta=0.38, p_rf_chain=0.05, p_sta=45.5, p_link_max=2.0, n_link=30)
TRAFFIC = TrafficModel(1.8, 2e4, 1e4)


def curve(n_t, stream_counts, model="hcpp"):
    s = InterferenceScenario(HcppParams(LAMBDA_P, 500.0), ChannelParams(db_to_linear(-31.54), 3.8, 6.0), X_OFF, 2.0)
    i_avg, intensity, _ = model_interference(model, s)
    return [
        energy_efficiency_quad(AntennaConfig(n_t, k), TRAFFIC, s, ENERGY,
                               i_avg=i_avg, station_intensity=intensity)
        for k in stream_counts
    ]


def main():
    print(f"user offset {X_OFF:.0f} m, station spacing floor 500 m\n")
    print("streams   spacing floor   Poisson   (bit/Hz/J, 8 antennas)")
    streams = list(range(1, 9))
    hc = curve(8, streams)
    pp = curve(8, streams, model="ppp")
    for k, a, b in zip(streams, hc, pp):
        tag = " <- max" if a == max(hc) else ""
        print(f"{k:7d}   {a:13.4f}   {b:7.4f}{tag}")

    print("\nantennas at station   best efficiency   at streams")
    for n_t in (8, 12, 16):
        vals = curve(n_t, range(1, n_t + 1))
        k = int(np.argmax(vals))
        print(f"{n_t:19d}   {vals[k]:15.4f}   {k + 1:10d}")

    try:
        import matplotlib.pyplot as plt
    except ImportError:
        return
    fig, ax = plt.subplots()
    ax.plot(streams, hc, "o-", label="minimum spacing")
    ax.plot(streams, pp, "s--", label="Poisson")
    ax.set_xlabel("streams served together")
    ax.set_ylabel("energy efficiency (bit/Hz/J)")
    ax.legend()
    fig.savefig("energy_efficiency.png", dpi=120)
    print("\nwrote energy_efficiency.png")


if __name__ == "__main__":
    main()
