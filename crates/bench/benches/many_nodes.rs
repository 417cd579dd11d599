//! Ledger target for the **switched N-node topologies**: star fan-in,
//! switch-chain depth, and dumbbell fairness.
//!
//! Recorded into `BENCH_many_nodes.json` per case: aggregate Mbit/s
//! through the shared bottleneck, per-hop chain throughput, Jain's
//! fairness index, the hub switch's forwarding counters, and the run's
//! digest and event counters ([`BenchReport::record_outcome`]).
//!
//! Every star case is **also** a determinism gate: it must reproduce its
//! `workers = 1` digest at `workers = 2`.

use capnet::netsim::NetSim;
use capnet::scenario::fairness_index;
use capnet::topology::build_chain;
use capnet::{ScenarioSpec, SimOutcome};
use capnet_bench::BenchReport;
use simkern::{CostModel, SimDuration};

const SEED: u64 = 0x70B0;
const RUN: SimDuration = SimDuration::from_millis(25);

fn run_chain(hops: usize) -> SimOutcome {
    let mut sim = NetSim::new(CostModel::morello());
    sim.set_seed(SEED);
    let chain = build_chain(&mut sim, hops).expect("chain builds");
    sim.add_server(chain.b, "b-rx", 5501).expect("server");
    sim.add_client(chain.a, "a-tx", (chain.b_ip, 5501), RUN, SimDuration::ZERO)
        .expect("client");
    sim.run(RUN + SimDuration::from_millis(30)).expect("runs")
}

fn server_mbits(out: &SimOutcome) -> Vec<f64> {
    out.servers.iter().map(|r| r.mbit_per_sec()).collect()
}

fn main() {
    let mut report = BenchReport::new("many_nodes");

    // Star fan-in: N clients share the hub's one switch port.
    for clients in [2usize, 4, 8, 32] {
        let star = || ScenarioSpec::star(clients).duration(RUN).seed(SEED);
        let out = star().run().expect("star runs");
        // The sharded-run determinism gate: the same star at workers=2
        // must land on the byte-identical delivery-trace digest. Adaptive
        // selection is forced off so the rerun genuinely shards (these
        // stars are all small enough to collapse otherwise, which would
        // make the gate vacuous). A mismatch aborts the target, which
        // fails CI's behaviour-ledger job.
        let sharded = star()
            .workers(2)
            .adaptive_workers(false)
            .run()
            .expect("sharded star runs");
        assert_eq!(
            out.trace, sharded.trace,
            "star/{clients}: workers=2 digest diverged from workers=1 — sharded determinism broke"
        );
        assert_eq!(
            sharded.workers, 2,
            "star/{clients}: rerun must stay sharded"
        );
        let flows = server_mbits(&out);
        let aggregate: f64 = flows.iter().sum();
        let jain = fairness_index(&flows);
        eprintln!(
            "[many_nodes] star/{clients} clients: {aggregate:.0} Mbit/s aggregate, Jain {jain:.3}"
        );
        report.record_outcome(
            "star",
            &format!("clients={clients}"),
            &out,
            &[
                ("aggregate_mbit_per_sec", aggregate),
                ("fairness_jain", jain),
                ("flows", clients as f64),
                ("switch_forwarded", out.switch_stats[0].forwarded as f64),
                ("switch_dropped", out.switch_stats[0].dropped as f64),
                // 1.0 = the workers=2 rerun reproduced the digest (asserted
                // above; recorded so the JSON is self-documenting).
                ("workers2_digest_match", 1.0),
            ],
        );
    }

    // Chain depth: one flow across K store-and-forward hops.
    for hops in [1usize, 2, 4] {
        let out = run_chain(hops);
        let mbit = out.servers[0].mbit_per_sec();
        eprintln!("[many_nodes] chain/{hops} hops: {mbit:.0} Mbit/s");
        report.record_outcome(
            "chain",
            &format!("hops={hops}"),
            &out,
            &[("mbit_per_sec", mbit), ("hops", hops as f64)],
        );
    }

    // Dumbbell: pairs contending for one trunk.
    for pairs in [2usize, 4] {
        let out = ScenarioSpec::dumbbell(pairs)
            .duration(RUN)
            .seed(SEED)
            .run()
            .expect("dumbbell runs");
        let flows = server_mbits(&out);
        let aggregate: f64 = flows.iter().sum();
        let jain = fairness_index(&flows);
        eprintln!(
            "[many_nodes] dumbbell/{pairs} pairs: {aggregate:.0} Mbit/s aggregate, Jain {jain:.3}"
        );
        report.record_outcome(
            "dumbbell",
            &format!("pairs={pairs}"),
            &out,
            &[
                ("aggregate_mbit_per_sec", aggregate),
                ("fairness_jain", jain),
                ("flows", pairs as f64),
            ],
        );
    }

    let path = report.write().expect("BENCH_many_nodes.json written");
    eprintln!("[many_nodes] ledger: {}", path.display());
}
