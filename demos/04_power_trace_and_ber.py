"""Trace power element by element around the ring, then sweep the BER model.

The trace's final point always agrees exactly with the closed-form received
power over the same losses and gains; the BER model maps received power to a
Q factor against a single receiver noise sigma.
"""

from fiberplan import estimate_ber, load_network, propagate, received_power, ring_spans, route_chain
from fiberplan.data import sleman_path


def main() -> None:
    doc = load_network(sleman_path())
    net = doc.network

    runs = route_chain(net, ring_spans(net))  # (kind, dB effect, count, part) rows
    trace = propagate(net.transceiver.tx_power, runs)

    print("Ring trace (amplifier points highlighted):")
    for label, power in zip(trace.labels, trace.powers):
        marker = " <-- gain" if label.startswith("edfa") else ""
        print(f"  {label:<34} {power:>8.2f} dBm{marker}")

    losses = [-effect for kind, effect, count, _ in runs if kind != "amplifier" for _ in range(count)]
    gains = [effect for kind, effect, count, _ in runs if kind == "amplifier" for _ in range(count)]
    closed_form = received_power(net.transceiver.tx_power, losses, gains)
    print(f"\nFinal point {trace.final_power:.6f} dBm vs closed form {closed_form:.6f} dBm "
          f"(difference {abs(trace.final_power - closed_form):.1e})")

    onu_power = trace.final_power - doc.distribution_loss
    estimate = estimate_ber(onu_power, net.transceiver.responsivity)
    print(f"\nAfter the {doc.distribution_loss:.2f} dB distribution leg: {onu_power:.2f} dBm")
    print(f"Q factor {estimate.q_factor:.1f} -> BER {estimate.ber:.2e}")

    print("\nBER versus received power (0.9 A/W detector, default noise):")
    for power in range(-34, -15, 3):
        estimate = estimate_ber(float(power), net.transceiver.responsivity)
        print(f"  {power:>4d} dBm -> Q {estimate.q_factor:>7.2f}  BER {estimate.ber:.2e}")


if __name__ == "__main__":
    main()
