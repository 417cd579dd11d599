//! Table II — TCP bandwidth in the three scenarios, server and client.
//!
//! Paper values (Mbit/s, efficiency = bandwidth / 1 Gbit/s per port):
//!
//! | Configuration | Server | Client |
//! |---|---|---|
//! | Baseline 2-proc, each port | 658 (65.8 %) | 757 (75.7 %) |
//! | Scenario 1, each cVM | 658 (65.8 %) | 757 (75.7 %) |
//! | Baseline 1-proc | 941 (94.1 %) | 941 (94.1 %) |
//! | Scenario 2 uncontended | 941 (94.1 %) | 941 (94.1 %) |
//! | Scenario 2 contended, per app | 470 / 470 | 531 / 410 |
//!
//! The dual-port rows are PCI-bus-limited; the single-port rows hit the
//! Ethernet TCP-goodput ceiling; the contended row shares one port between
//! two app cVMs (the paper notes the unbalance and attributes it to the
//! lack of fairness control).

use crate::netsim::AppSched;
use crate::scenario::{ScenarioKind, ScenarioSpec, TrafficMode};
use crate::CapnetError;
use serde::Serialize;
use simkern::cost::CostModel;
use simkern::time::SimDuration;
use std::fmt;

/// One measured cell of the table.
#[derive(Debug, Clone, Serialize)]
pub struct Cell {
    /// Row label (cVM1, cVM2, Baseline…).
    pub label: String,
    /// Measured bandwidth, Mbit/s.
    pub mbit: f64,
    /// Efficiency vs the 1 Gbit/s port.
    pub efficiency: f64,
}

/// One scenario block: server cells and client cells.
#[derive(Debug, Clone, Serialize)]
pub struct Block {
    /// Which scenario.
    pub scenario: String,
    /// DUT-side receiver measurements.
    pub server: Vec<Cell>,
    /// DUT-side sender measurements.
    pub client: Vec<Cell>,
}

/// The assembled table.
#[derive(Debug, Clone, Serialize)]
pub struct Table2 {
    /// One block per configuration, in paper order.
    pub blocks: Vec<Block>,
    /// Virtual seconds measured per cell.
    pub duration_s: f64,
}

impl fmt::Display for Table2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "TABLE II: RESULTS OF TCP BENCHMARKS (Mbit/s; efficiency vs 1 Gbit/s/port)"
        )?;
        writeln!(
            f,
            "{:<28} {:>9} {:>11} {:>9} {:>11}",
            "Modes", "Server", "Efficiency", "Client", "Efficiency"
        )?;
        for b in &self.blocks {
            writeln!(f, "--- {} ---", b.scenario)?;
            let rows = b.server.len().max(b.client.len());
            for i in 0..rows {
                let (sl, sm, se) = b
                    .server
                    .get(i)
                    .map(|c| {
                        (
                            c.label.clone(),
                            format!("{:.0}", c.mbit),
                            format!("{:.1}%", c.efficiency * 100.0),
                        )
                    })
                    .unwrap_or_default();
                let (cl, cm, ce) = b
                    .client
                    .get(i)
                    .map(|c| {
                        (
                            c.label.clone(),
                            format!("{:.0}", c.mbit),
                            format!("{:.1}%", c.efficiency * 100.0),
                        )
                    })
                    .unwrap_or_default();
                let label = if sl.is_empty() { cl } else { sl };
                writeln!(f, "{label:<28} {sm:>9} {se:>11} {cm:>9} {ce:>11}")?;
            }
        }
        Ok(())
    }
}

/// Runs the full table (all scenarios, both traffic modes).
///
/// `duration` is the virtual measurement window per cell; the paper runs
/// seconds of iperf — 150–300 ms of virtual time is past TCP convergence
/// and keeps the harness quick.
///
/// # Errors
///
/// Propagates the first failing configuration.
pub fn run(duration: SimDuration, costs: CostModel) -> Result<Table2, CapnetError> {
    run_scenarios(&ScenarioKind::all(), duration, costs)
}

/// Runs a chosen subset of scenarios.
///
/// # Errors
///
/// Propagates the first failing configuration.
pub fn run_scenarios(
    kinds: &[ScenarioKind],
    duration: SimDuration,
    costs: CostModel,
) -> Result<Table2, CapnetError> {
    let mut blocks = Vec::new();
    for &kind in kinds {
        let mut block = Block {
            scenario: kind.to_string(),
            server: Vec::new(),
            client: Vec::new(),
        };
        for mode in [TrafficMode::Server, TrafficMode::Client] {
            // The contended row is measured under the paper-calibrated
            // barging scheduler, which is what makes the regenerated client
            // split come out 531/410 like the paper's testbed (the fair
            // round-robin alternative is the `fairness` example/bench).
            let sched = if kind == ScenarioKind::Scenario2Contended {
                AppSched::paper_barging()
            } else {
                AppSched::RoundRobin
            };
            let out = ScenarioSpec::paper(kind, mode)
                .duration(duration)
                .costs(costs.clone())
                .app_sched(sched)
                .run()?;
            // DUT-side apps are the reports whose labels start with "cVM"
            // or "Baseline" (peer hosts are labeled host*).
            let dut_reports = match mode {
                TrafficMode::Server => &out.servers,
                TrafficMode::Client => &out.clients,
            };
            for r in dut_reports {
                if !r.label.starts_with("host") {
                    let cell = Cell {
                        label: r.label.clone(),
                        mbit: r.mbit_per_sec(),
                        efficiency: r.efficiency(costs.link_bps),
                    };
                    match mode {
                        TrafficMode::Server => block.server.push(cell),
                        TrafficMode::Client => block.client.push(cell),
                    }
                }
            }
        }
        blocks.push(block);
    }
    Ok(Table2 {
        blocks,
        duration_s: duration.as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The quick-shape check: single-port rows ≈941, dual-port rows are
    /// PCI-limited below line rate, contended flows share one port.
    /// (Exact-value checks per scenario live in the integration tests.)
    #[test]
    fn table_has_paper_shape() {
        let t = run_scenarios(
            &[
                ScenarioKind::Scenario1,
                ScenarioKind::Scenario2Uncontended,
                ScenarioKind::Scenario2Contended,
            ],
            SimDuration::from_millis(120),
            CostModel::morello(),
        )
        .unwrap();
        assert_eq!(t.blocks.len(), 3);

        let s1 = &t.blocks[0];
        assert_eq!(s1.server.len(), 2);
        for c in &s1.server {
            assert!((c.mbit - 658.0).abs() < 40.0, "{}: {:.0}", c.label, c.mbit);
        }
        for c in &s1.client {
            assert!((c.mbit - 757.0).abs() < 40.0, "{}: {:.0}", c.label, c.mbit);
        }

        let s2u = &t.blocks[1];
        assert!(
            (s2u.server[0].mbit - 941.0).abs() < 25.0,
            "{:.0}",
            s2u.server[0].mbit
        );

        let s2c = &t.blocks[2];
        assert_eq!(s2c.server.len(), 2);
        let total: f64 = s2c.server.iter().map(|c| c.mbit).sum();
        assert!(
            (total - 941.0).abs() < 50.0,
            "contended flows share the port ceiling, sum {total:.0}"
        );
        let text = t.to_string();
        assert!(text.contains("TABLE II"), "{text}");
    }
}
