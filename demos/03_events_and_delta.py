"""Switching events and the differential feature vector.

A motor hums along while a lamp toggles. The power track crosses the 5 W
threshold at each toggle; the differential vector averages three windows on
each side of the event (1, 10, and 20 windows out) and subtracts, which
cancels the steady background and isolates the toggled load - with the
pre-minus-post sign convention, a turn-on shows up negative.
"""

from nilmedge.events import delta_feature, detect_event, event_guard
from nilmedge.features import feature_matrix
from nilmedge.synth import (
    ApplianceModel,
    Mains,
    ScenarioEvent,
    ScenarioScript,
    synth_scenario,
)

REGISTRY = {
    "motor": ApplianceModel(kind="reactive", nominal_power_w=120, phase_rad=0.5),
    "lamp": ApplianceModel(kind="resistive", nominal_power_w=60),
}
script = ScenarioScript(
    mains=Mains(),
    events=(
        ScenarioEvent(0.0, "motor", "on"),
        ScenarioEvent(5.0, "lamp", "on"),
        ScenarioEvent(12.0, "lamp", "off"),
    ),
    duration_s=16.0,
    noise_rms_a=0.02,
)
stream, track = synth_scenario(script, REGISTRY, seed=5)

# one feature row per 100 ms window, row j = window j; column 0 is P
features = feature_matrix(stream)
events = []
for j in range(1, len(features)):
    ev = detect_event(features[j - 1, 0], features[j, 0], threshold_w=5.0, window_index=j)
    if ev:
        events.append(ev)
        print(f"event at window {ev.window_index}: dP = {ev.delta_p_w:+7.2f} W "
              f"({ev.direction})")
        if 20 <= j < len(features) - 20:
            delta = delta_feature(features, j)
            print(f"  delta vector over windows {j - 20}..{j + 20}: P component "
                  f"{delta[0]:+7.2f} W, |S| component {delta[1]:+7.2f} VA")

flags = event_guard(events)
print(f"\nguard: {sum(flags)}/{len(flags)} events valid "
      f"(none closer than 20 windows to a neighbour)")
