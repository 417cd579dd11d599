//! Integration: metamorphic relations between runs of different layouts.
//!
//! No single Table II cell has an exact expected value, but two runs can
//! be required to relate (Chen et al., "Metamorphic Testing: A Review of
//! Challenges and Opportunities", ACM CSUR 2018). R1, zero-cost
//! invisibility: with every compartment crossing, trampoline and service
//! lock free, a CHERI layout is the MMU Baseline with the same ports and
//! apps — the same wire trace, the same executed events, the same goodput
//! per app. A crossing charged where none is due, or a service lock that
//! costs a loop time at zero lock cost, breaks it.

use capnet::scenario::{ScenarioKind, ScenarioSpec, TrafficMode};
use capnet::SimOutcome;
use simkern::{CostModel, SimDuration};

/// Morello's calibration with every isolation cost at zero.
fn free_isolation() -> CostModel {
    CostModel {
        xcall_ns: 0,
        mutex_fast_ns: 0,
        trampoline_ns: 0,
        s2_loop_hold_ns: 0,
        ..CostModel::morello()
    }
}

fn run(kind: ScenarioKind, mode: TrafficMode) -> SimOutcome {
    ScenarioSpec::paper(kind, mode)
        .duration(SimDuration::from_millis(10))
        .costs(free_isolation())
        .run()
        .expect("paper scenario runs")
}

/// `(bytes, elapsed)` of every app's report, servers then clients: the
/// goodput of each, without the labels that name the design.
fn goodput(out: &SimOutcome) -> Vec<(u64, SimDuration)> {
    let reports = out.servers.iter().chain(&out.clients);
    reports.map(|r| (r.bytes, r.elapsed)).collect()
}

/// R1: each CHERI layout at zero isolation cost equals the Baseline with
/// its ports and apps, in both traffic modes.
#[test]
fn zero_cost_layouts_are_their_baseline() {
    let baseline_of = |kind: ScenarioKind| {
        let l = kind.layout();
        ScenarioKind::all().into_iter().find(|b| {
            let bl = b.layout();
            !bl.cheri && bl.ports == l.ports && bl.apps() == l.apps()
        })
    };
    let mut compared = Vec::new();
    for mode in [TrafficMode::Server, TrafficMode::Client] {
        for kind in ScenarioKind::all() {
            if !kind.layout().cheri {
                continue;
            }
            let Some(base) = baseline_of(kind) else {
                continue;
            };
            let (want, got) = (run(base, mode), run(kind, mode));
            let what = format!("{kind:?} vs {base:?}, {mode}");
            assert_eq!(got.trace.digest, want.trace.digest, "{what}: trace");
            assert_eq!(got.events, want.events, "{what}: events");
            assert_eq!(goodput(&got), goodput(&want), "{what}: goodput");
            assert!(want.trace.frames > 0, "{what}: traffic flowed");
            compared.push(kind);
        }
    }
    // The contended Scenario 2 has two apps on one port: no Baseline.
    use ScenarioKind::{Scenario1, Scenario2Uncontended, Scenario3, Scenario4};
    let each = [Scenario1, Scenario2Uncontended, Scenario3, Scenario4];
    assert_eq!(compared, [each, each].concat());
}
