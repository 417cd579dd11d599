//! Extension experiment — the paper's future work: "investigate in details
//! the impact of different locking strategies to further reduce the
//! overhead of our designs."
//!
//! Fig. 6's contended Scenario 2 `ff_write` costs ≈19 µs because the
//! caller queues on the F-Stack service mutex behind the service loop's
//! critical section. This sweep walks the two knobs the cost model
//! exposes for that mutex:
//!
//! * the **strategy** — umtx-blocking (the paper's design: sleep in the
//!   kernel, pay block + wake on contention), pure spin (burn cycles,
//!   grant at release) and backoff spin (a bounded pause, modeled as a
//!   small fixed re-check latency after release);
//! * the **loop hold** — how long the service loop keeps the mutex per
//!   iteration.
//!
//! Every number is virtual time, so the table regenerates bit for bit.
//!
//! Run with: `cargo run --release --example locking_sweep`

use capnet::experiment::figs::measure;
use capnet::scenario::ScenarioKind;
use simkern::CostModel;

const ITERATIONS: usize = 20_000;

/// Contended Scenario 2 `ff_write` latency `(mean, median)` in ns.
fn contended(costs: CostModel, seed: u64) -> (f64, u64) {
    let run = measure(ScenarioKind::Scenario2Contended, ITERATIONS, costs, seed).expect("measure");
    (run.summary.mean, run.summary.median)
}

fn main() {
    let base = CostModel::morello();
    println!("contended Scenario 2 ff_write latency vs service-mutex design\n");

    println!(
        "{:>14}  {:>9}  {:>9}  {:>10}  {:>10}",
        "strategy", "block ns", "wake ns", "mean ns", "median ns"
    );
    for (name, umtx_block_ns, umtx_wake_ns) in [
        ("umtx_blocking", base.umtx_block_ns, base.umtx_wake_ns),
        ("pure_spin", 0, 0),
        // 260 ns: average re-check latency after the holder releases.
        ("backoff_spin", 0, 260),
    ] {
        let costs = CostModel {
            umtx_block_ns,
            umtx_wake_ns,
            ..base.clone()
        };
        let (mean, median) = contended(costs, 3);
        println!("{name:>14}  {umtx_block_ns:>9}  {umtx_wake_ns:>9}  {mean:>10.0}  {median:>10}");
    }

    println!(
        "\n{:>14}  {:>10}  {:>10}",
        "loop hold", "mean ns", "median ns"
    );
    for hold_us in [2u64, 4, 8, 16] {
        let costs = CostModel {
            s2_loop_hold_ns: hold_us * 1_000,
            ..base.clone()
        };
        let (mean, median) = contended(costs, 5);
        println!("{:>11} us  {mean:>10.0}  {median:>10}", hold_us);
    }

    println!("\nreading: the strategy matters more than the hold. Spinning instead of");
    println!("sleeping in the kernel cuts the contended ff_write by about two thirds");
    println!("(the umtx block + wake pair sits on the path of every contended");
    println!("acquisition); a backoff pause gives back only its re-check latency.");
    println!("Shrinking the service loop's critical section pays back one for one:");
    println!("each µs off the hold is a µs off the mean.");
}
