//! Extension experiment — fairness control for contended Scenario 2.
//!
//! The paper's contended client rows are unbalanced (531/410 Mbit/s),
//! attributed to "the lack of mechanisms for fairness control", with QoS
//! deferred to future work. This example shows both worlds:
//!
//! * `AppSched::paper_barging()` — a mutex-convoy starvation model,
//!   calibrated to the paper's testbed asymmetry;
//! * `AppSched::RoundRobin` — the fairness fix: FIFO service of the app
//!   cVMs, under which the same two flows split the port evenly.
//!
//! Run with: `cargo run --release --example fairness`

use capnet::netsim::AppSched;
use capnet::scenario::{ScenarioKind, ScenarioSpec, TrafficMode};
use simkern::SimDuration;

fn row(mode: TrafficMode, sched: AppSched, name: &str) {
    let out = ScenarioSpec::paper(ScenarioKind::Scenario2Contended, mode)
        .duration(SimDuration::from_millis(150))
        .app_sched(sched)
        .run()
        .expect("contended run");
    let r = match mode {
        TrafficMode::Server => &out.servers,
        TrafficMode::Client => &out.clients,
    };
    let (a, b) = (r[0].mbit_per_sec(), r[1].mbit_per_sec());
    println!(
        "  {name:<22} {mode:<7}  cVM2 {a:>4.0}  cVM3 {b:>4.0}  joint {:>4.0}  ratio {:.2}",
        a + b,
        a.max(b) / a.min(b)
    );
}

fn main() {
    println!("Scenario 2 contended: two app cVMs sharing the F-Stack service mutex\n");
    row(
        TrafficMode::Client,
        AppSched::paper_barging(),
        "barging (paper model)",
    );
    println!(
        "  {:<22} {:<7}  cVM2  531  cVM3  410  joint  941  ratio 1.30",
        "paper Table II", "Client"
    );
    row(
        TrafficMode::Client,
        AppSched::RoundRobin,
        "round-robin (fair)",
    );
    row(
        TrafficMode::Client,
        AppSched::Weighted {
            weight_first: 2,
            weight_rest: 1,
        },
        "weighted 2:1 (QoS)",
    );
    println!();
    row(
        TrafficMode::Server,
        AppSched::paper_barging(),
        "barging (paper model)",
    );
    println!(
        "  {:<22} {:<7}  cVM2  470  cVM3  470  joint  940  ratio 1.00",
        "paper Table II", "Server"
    );
    row(
        TrafficMode::Server,
        AppSched::RoundRobin,
        "round-robin (fair)",
    );
    println!("\nreading: the barging model reproduces the paper's unbalanced client");
    println!("split; round-robin scheduling — the QoS fix the paper defers to future");
    println!("work — levels it. Both keep the aggregate at the port ceiling.");
}
