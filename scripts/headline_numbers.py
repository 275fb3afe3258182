#!/usr/bin/env python3
"""Print the headline comparison between the qutrit and conventional
Toffoli compilations: per-Toffoli profiles, arithmetic operation counts at
a reference register size, the derivative-pricing benchmark conversion,
and the success probabilities at thirty Toffolis."""
from triarc import noise, resources, transpile
from triarc.transpile import LoweringStrategy


def main() -> None:
    print("== per-Toffoli cost profiles ==")
    for strategy in (LoweringStrategy.QUTRIT, LoweringStrategy.SELINGER_COST):
        profile = transpile.cost_profile(strategy)
        print(
            f"{strategy.value:>13}: gates={profile.table_gate_count} "
            f"(components {profile.component_gate_count}), depth={profile.depth_per_toffoli}, "
            f"t_depth={profile.t_depth_per_toffoli}, ancilla={profile.ancilla_wires}"
        )

    print("\n== arithmetic counts at n=16, p=4 ==")
    header = f"{'op':>8} {'toffoli':>12} {'ternary cnot':>14}"
    print(header)
    approx = resources.ApproxParams(k=2, M=4)
    for op in resources.OPERATIONS:
        toffoli = resources.estimate_operation(op, 16, 4, approx).toffoli_count
        cnot = resources.estimate_operation(
            op, 16, 4, approx, LoweringStrategy.QUTRIT
        ).cnot_count_ternary
        print(f"{op:>8} {toffoli:>12.2f} {cnot:>14.2f}")

    print("\n== derivative-pricing benchmark ==")
    baseline = resources.BaselineCosts(t_cost=12e9, t_depth=54e6, overall_depth=378e6)
    report = resources.benchmark_report(baseline)
    print(f"baseline: T-cost {baseline.t_cost:.3g}, T-depth {baseline.t_depth:.3g}, "
          f"depth {baseline.overall_depth:.3g}")
    print(f"  qutrit: T-cost {report.t_count:.3g}, T-depth {report.t_depth:.3g}, "
          f"depth {report.overall_depth:.3g}")

    print("\n== success probability at 30 Toffolis ==")
    params = noise.NoiseParams()
    for strategy, name in ((LoweringStrategy.QUTRIT, "qutrit"),
                           (LoweringStrategy.SELINGER_COST, "conventional")):
        value = noise.p_success(noise.census_for(strategy, 30), params)
        print(f"{name:>13}: {value:.4f}")
    quoted = noise.quoted_error_comparison()
    print(f"quoted errors: qutrit {quoted['qutrit_error_percent']}%, "
          f"conventional {quoted['conventional_error_percent']}%")
    print(f"note: {quoted['footnote']}")


if __name__ == "__main__":
    main()
