#!/usr/bin/env python3
# Free-space path loss and the power that actually arrives at a device.
#
# Reference setup: 43 dBm transmit power into a 6.5 dBi antenna. The table
# shows why reception at tens of meters is plausible: even at 20 m the
# incident power is only ~17 dB below one milliwatt of EIRP headroom.

import numpy as np

from adcradio import RfChannel, dbm_to_mw, fspl_db

P_TX_DBM = 43.0
G_TX_DBI = 6.5
FREQ_HZ = 868e6

print(f"transmitter: {P_TX_DBM:.0f} dBm (+{G_TX_DBI} dBi antenna) at {FREQ_HZ/1e6:.0f} MHz")
print()
print("distance    FSPL      incident")
for d in (1.0, 3.0, 10.0, 20.0, 50.0):
    loss = fspl_db(d, FREQ_HZ)
    inc = RfChannel(g_tx_dbi=G_TX_DBI, distance_m=d).incident_dbm(P_TX_DBM, FREQ_HZ)
    print(f"{d:6.0f} m  {loss:6.2f} dB  {inc:+7.2f} dBm ({dbm_to_mw(inc):8.3f} mW)")

print()
print("FSPL across the sweep band at 1 m:")
for f in np.linspace(200e6, 1000e6, 5):
    print(f"  {f/1e6:5.0f} MHz: {fspl_db(1.0, f):5.2f} dB")
