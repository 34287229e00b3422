"""Watch the agent detect an application switch autonomously.

Runs the ``mpegdec-tachyon`` inter-application scenario of Figure 3
under the proposed manager and logs every decision epoch: the normalised
stress/aging observation, the learning phase, and any intra/inter
variation events.  The interesting moment is the switch from the cool,
cycling mpeg decoder to the hot tachyon renderer — the moving-average
detector classifies it as an inter-application variation and the agent
re-learns, with no signal from the application layer.

Run with::

    python examples/inter_application_switching.py
"""

from repro.config import default_agent_config, default_reliability_config
from repro.core.manager import ProposedThermalManager
from repro.soc.simulator import Simulation
from repro.workloads.scenarios import scenario_applications


def main() -> None:
    reliability = default_reliability_config()
    manager = ProposedThermalManager(default_agent_config(), reliability)
    applications = scenario_applications(("mpeg_dec", "tachyon"), seed=1)
    sim = Simulation(
        applications,
        governor="ondemand",
        manager=manager,
        seed=1,
        max_time_s=30_000,
    )

    # Wrap the agent's state observation and decide() to narrate each
    # decision epoch.
    agent = manager.agent
    original_observe = agent.states.observe
    original_decide = agent.decide
    last_events = {"inter": 0, "intra": 0}
    observed = {}

    def recorded_observe(*args, **kwargs):
        observed["last"] = original_observe(*args, **kwargs)
        return observed["last"]

    def narrated_decide(performance, constraint, now_s=0.0):
        index = original_decide(performance, constraint, now_s)
        obs = observed["last"]
        marker = ""
        if agent.stats.inter_events > last_events["inter"]:
            marker = "  <<< INTER-APPLICATION VARIATION: re-learning"
            last_events["inter"] = agent.stats.inter_events
        elif agent.stats.intra_events > last_events["intra"]:
            marker = "  <<< intra-application variation: snapshot restored"
            last_events["intra"] = agent.stats.intra_events
        print(
            f"t={sim.now:7.1f}s app={sim.current_app.name:9s} "
            f"phase={agent.phase.value:26s} "
            f"stress={obs.stress_norm:4.2f} aging={obs.aging_norm:4.2f} "
            f"action={agent.actions[index].label}{marker}"
        )
        return index

    agent.states.observe = recorded_observe
    agent.decide = narrated_decide
    result = sim.run()

    print("\nscenario finished:")
    for record in result.app_records:
        print(
            f"  {record.name:9s} executed in {record.execution_time_s:7.1f}s "
            f"({record.completed_iterations} iterations)"
        )
    report = result.reliability(reliability)
    print(
        f"\nwhole-scenario thermal profile: avg {report['average_temp_c']:.1f} C, "
        f"cycling MTTF {report['cycling_mttf_years']:.2f} y, "
        f"aging MTTF {report['aging_mttf_years']:.2f} y"
    )
    print(
        f"agent events: {agent.stats.inter_events:.0f} inter, "
        f"{agent.stats.intra_events:.0f} intra, {agent.stats.epochs} epochs"
    )


if __name__ == "__main__":
    main()
