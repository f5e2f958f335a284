"""Rise-time budgets for every ring link, plus a what-if on span length.

The total rise time is the root-sum-square of the transmitter, receiver, and
chromatic-dispersion contributions; the ceiling is 70% of the bit period for
NRZ. The transmitter/receiver pair alone already costs sqrt(60^2 + 35^2) =
69.46 ps here, which is why every link sits just under the 70 ps ceiling.
"""

from fiberplan import (
    builtin_profiles,
    dispersion_risetime,
    load_network,
    max_system_risetime,
    span_row,
    total_risetime,
)
from fiberplan.data import sleman_path
from fiberplan.model import LineCode, Span


def main() -> None:
    doc = load_network(sleman_path())
    net = doc.network
    profile = builtin_profiles()["gpon-onu-endpoint"]

    ceiling = max_system_risetime(profile.bit_rate, profile.line_code)
    print(f"Ceiling at {profile.bit_rate / 1e9:.0f} Gbps NRZ: {ceiling:.3f} ps")
    print(f"(RZ would halve it: {max_system_risetime(profile.bit_rate, LineCode.RZ):.3f} ps)\n")

    print(f"{'link':<20} {'km':>8} {'dispersion ps':>13} {'total ps':>9} {'splices':>8}  verdict")
    for span in sorted(net.spans, key=lambda s: s.id):
        row, _ = span_row(span, net, ceiling)  # columns 3 splices; 10 ceiling, 11 dispersion, 14 total (ps)
        flag = "pass" if row[14] <= row[10] else "FAIL"
        print(f"{span.id:<20} {span.length:>8.3f} {row[11]:>13.3f} {row[14]:>9.3f} {row[3]:>8d}  {flag}")

    # How far can a single span stretch before dispersion blows the budget?
    fiber = net.spans[0].fiber
    tx = net.transceiver
    print("\nStretching one span until it fails:")
    for length in (20.0, 40.0, 60.0, 80.0, 100.0):
        probe = Span(id="probe", from_node="a", to_node="b", length=length, fiber=fiber)
        row, _ = span_row(probe, net, ceiling)
        flag = "pass" if row[14] <= row[10] else "FAIL"
        print(f"  {length:>5.0f} km -> {row[14]:7.3f} ps  {flag}")

    t_f = dispersion_risetime(fiber.dispersion, tx.spectral_width, 100.0)
    print(f"\nAt 100 km the dispersion term alone is {t_f:.1f} ps and the total "
          f"{total_risetime(tx.tx_rise_time, tx.rx_rise_time, t_f):.2f} ps exceeds the ceiling.")


if __name__ == "__main__":
    main()
