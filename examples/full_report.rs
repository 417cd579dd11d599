//! Runs the complete evaluation — Table I, Table II, Fig. 3, Figs. 4–6,
//! plus the extension experiments (S3/S4 latency ladder, fairness split,
//! loss sweep) — and writes a consolidated report to
//! `target/capnet-report.txt` plus a machine-readable
//! `target/capnet-results.csv`. This is the one runner of the paper's
//! tables and figures.
//!
//! Run with: `cargo run --release --example full_report`
//! (pass `--quick` for shorter measurement windows).

use capnet::experiment::{fig3, figs, table1, table2};
use capnet::netsim::AppSched;
use capnet::scenario::{ScenarioKind, ScenarioSpec, TrafficMode};
use capnet::stats::ascii_boxplot;
use simkern::{CostModel, SimDuration};
use std::error::Error;
use std::fmt::Write as _;
use std::fs;
use updk::wire::Impairments;

/// The two app cVMs' Mbit/s in contended Scenario 2 under `sched`.
fn contended_split(
    mode: TrafficMode,
    sched: AppSched,
    ms: u64,
) -> Result<(f64, f64), Box<dyn Error>> {
    let out = ScenarioSpec::paper(ScenarioKind::Scenario2Contended, mode)
        .duration(SimDuration::from_millis(ms))
        .app_sched(sched)
        .run()?;
    let r = match mode {
        TrafficMode::Server => &out.servers,
        TrafficMode::Client => &out.clients,
    };
    Ok((r[0].mbit_per_sec(), r[1].mbit_per_sec()))
}

/// Server goodput of `kind` over a cable losing `per_mille` of its
/// frames, and the frames it lost.
fn lossy_goodput(
    kind: ScenarioKind,
    per_mille: u16,
    ms: u64,
) -> Result<(f64, u64), Box<dyn Error>> {
    let out = ScenarioSpec::paper(kind, TrafficMode::Server)
        .duration(SimDuration::from_millis(ms))
        .impairments(Impairments::lossy(per_mille))
        .run()?;
    Ok((out.servers[0].mbit_per_sec(), out.impairment_stats.lost))
}

fn main() -> Result<(), Box<dyn Error>> {
    let quick = std::env::args().any(|a| a == "--quick");
    let (bw_ms, iters) = if quick { (80, 50_000) } else { (250, 500_000) };
    let costs = CostModel::morello();
    let mut report = String::new();
    let mut csv = String::from("experiment,configuration,metric,value,paper_reference\n");

    writeln!(report, "capnet — full evaluation report")?;
    writeln!(report, "================================\n")?;

    // Table I.
    eprintln!("[1/7] Table I…");
    let t1 = table1::run();
    writeln!(report, "{t1}")?;
    writeln!(
        report,
        "paper reference: F-Stack 152 LoC, 0.99% of the library."
    )?;
    writeln!(
        report,
        "(the stack is capability-native; the rows measure its capability-specific\n \
         surface — the lines a hybrid-mode port would have had to add or modify)"
    )?;
    for row in &t1.rows {
        writeln!(csv, "table1,{},cap_loc,{},152", row.library, row.cap_loc)?;
        writeln!(
            csv,
            "table1,{},percent,{:.2},0.99",
            row.library,
            row.percent()
        )?;
    }

    // Table II.
    eprintln!("[2/7] Table II ({bw_ms} ms per cell)…");
    let t2 = table2::run(SimDuration::from_millis(bw_ms), costs.clone())?;
    writeln!(report, "\n{t2}")?;
    writeln!(
        report,
        "paper reference: dual-port 658/757, single-port 941/941,\n\
         contended 470+470 (server) and 531+410 (client) Mbit/s."
    )?;
    for block in &t2.blocks {
        for (mode, cells) in [("server", &block.server), ("client", &block.client)] {
            for c in cells {
                writeln!(
                    csv,
                    "table2,{} / {} / {},mbit_per_sec,{:.0},",
                    block.scenario, mode, c.label, c.mbit
                )?;
            }
        }
    }

    // Fig. 3.
    eprintln!("[3/7] Fig. 3…");
    let f3 = fig3::run()?;
    assert!(f3.fault.is_out_of_bounds());
    writeln!(report, "\nFIG. 3: CAPABILITY VIOLATION")?;
    writeln!(report, "{f3}")?;
    writeln!(
        report,
        "Intravisor fault log: {} capability exception(s) recorded",
        f3.faults_logged
    )?;
    writeln!(
        csv,
        "fig3,cross_compartment_load,fault,\"{}\",CAP out-of-bounds",
        f3.fault.kind()
    )?;

    // Figs. 4–6.
    eprintln!("[4/7] Figs. 4-6 ({iters} iterations per scenario)…");
    let runs = figs::run_scenarios(
        &[
            ScenarioKind::BaselineSingleProcess,
            ScenarioKind::Scenario1,
            ScenarioKind::Scenario2Uncontended,
            ScenarioKind::Scenario2Contended,
        ],
        iters,
        costs,
        0xF1C5,
    )?;
    writeln!(report, "\nFIGS. 4-6: ff_write() EXECUTION TIME")?;
    for r in &runs {
        writeln!(report, "{r}")?;
        writeln!(csv, "figs,{},mean_ns,{:.1},", r.scenario, r.summary.mean)?;
    }
    // Figs. 4–5 zoom the fast scenarios onto a sub-microsecond axis; Fig. 6
    // sets uncontended against contended on a microsecond one.
    writeln!(report, "\nFigs. 4-5 (zoom 0..1500 ns):")?;
    for r in &runs[..3] {
        let plot = ascii_boxplot(&r.summary, 0, 1_500, 56);
        writeln!(report, "{:<34} |{plot}|", r.scenario)?;
    }
    writeln!(report, "\nFig. 6 (0..40000 ns):")?;
    for r in &runs[2..] {
        let plot = ascii_boxplot(&r.summary, 0, 40_000, 56);
        writeln!(report, "{:<34} |{plot}|", r.scenario)?;
    }
    let d1 = runs[1].summary.mean - runs[0].summary.mean;
    let d2 = runs[2].summary.mean - runs[1].summary.mean;
    let d3 = runs[3].summary.mean - runs[2].summary.mean;
    let slowdown = d3 / 125.0;
    writeln!(report, "\ndeltas: S1-Base={d1:.0}ns (paper ~125), S2u-S1={d2:.0}ns (paper ~200), S2c-S2u={d3:.0}ns (paper ~19000)")?;
    writeln!(
        report,
        "contended mutex slowdown: {slowdown:.0}x the S1 crossing (paper ~152x)"
    )?;
    writeln!(csv, "figs,delta_s1_baseline,ns,{d1:.0},125")?;
    writeln!(csv, "figs,delta_s2u_s1,ns,{d2:.0},200")?;
    writeln!(csv, "figs,delta_s2c_s2u,ns,{d3:.0},19000")?;
    writeln!(csv, "figs,contended_slowdown,x,{slowdown:.0},152")?;

    // Extension: S3/S4 latency ladder.
    eprintln!("[5/7] extension scenarios S3/S4…");
    let ext = figs::run_scenarios(
        &[ScenarioKind::Scenario3, ScenarioKind::Scenario4],
        iters.min(100_000),
        CostModel::morello(),
        0xF1C5,
    )?;
    writeln!(report, "\nEXTENSIONS: DEEPER SPLITS (paper future work)")?;
    for r in &ext {
        writeln!(report, "{r}")?;
        writeln!(
            csv,
            "figs_ext,{},mean_ns,{:.1},",
            r.scenario, r.summary.mean
        )?;
    }
    let s2u = runs[2].summary.mean;
    let (d_s3, d_s4) = (ext[0].summary.mean - s2u, ext[1].summary.mean - s2u);
    writeln!(
        report,
        "deltas: S3-S2u={d_s3:.0}ns (one extra crossing), S4-S2u={d_s4:.0}ns (two extra crossings)"
    )?;
    writeln!(csv, "figs_ext,delta_s3_s2u,ns,{d_s3:.0},")?;
    writeln!(csv, "figs_ext,delta_s4_s2u,ns,{d_s4:.0},")?;

    // Extension: fairness — how the S2 service mutex splits the port
    // between the two contended app cVMs under each scheduling policy.
    eprintln!("[6/7] fairness (contended split)…");
    writeln!(report, "\nEXTENSION: CONTENDED FAIRNESS (cVM2 / cVM3)")?;
    let weighted = AppSched::Weighted {
        weight_first: 2,
        weight_rest: 1,
    };
    for (mode, name, sched, paper) in [
        (
            TrafficMode::Client,
            "barging (paper model)",
            AppSched::paper_barging(),
            "531/410",
        ),
        (
            TrafficMode::Client,
            "round-robin (fair)",
            AppSched::RoundRobin,
            "-",
        ),
        (TrafficMode::Client, "weighted 2:1 (QoS)", weighted, "-"),
        (
            TrafficMode::Server,
            "barging (paper model)",
            AppSched::paper_barging(),
            "470/470",
        ),
        (
            TrafficMode::Server,
            "round-robin (fair)",
            AppSched::RoundRobin,
            "-",
        ),
    ] {
        let (x, y) = contended_split(mode, sched, bw_ms)?;
        writeln!(
            report,
            "{name:<24} {mode:<7} {x:>4.0} / {y:<4.0} Mbit/s  joint {:>4.0}  ratio {:.2}  (paper {paper})",
            x + y,
            x.max(y) / x.min(y)
        )?;
        writeln!(
            csv,
            "fairness,{name} / {mode},split_mbit,{x:.0}/{y:.0},{paper}"
        )?;
    }

    // Extension: loss sweep — does the compartment split amplify loss?
    eprintln!("[7/7] loss sweep…");
    writeln!(report, "\nEXTENSION: GOODPUT UNDER FRAME LOSS (Mbit/s)")?;
    writeln!(
        report,
        "{:>6}  {:>8}  {:>9}  {:>7}",
        "loss", "Baseline", "Scenario2", "S2/Base"
    )?;
    for per_mille in [0u16, 1, 2, 5, 10, 20, 50] {
        let (base, _) = lossy_goodput(ScenarioKind::BaselineSingleProcess, per_mille, bw_ms)?;
        let (s2, lost) = lossy_goodput(ScenarioKind::Scenario2Uncontended, per_mille, bw_ms)?;
        writeln!(
            report,
            "{:>5.1}%  {base:>8.0}  {s2:>9.0}  {:>7.2}  ({lost} frames dropped)",
            per_mille as f64 / 10.0,
            s2 / base
        )?;
        writeln!(
            csv,
            "loss_sweep,baseline {per_mille}permille,mbit_per_sec,{base:.0},"
        )?;
        writeln!(
            csv,
            "loss_sweep,scenario2 {per_mille}permille,mbit_per_sec,{s2:.0},"
        )?;
    }

    fs::create_dir_all("target")?;
    fs::write("target/capnet-report.txt", &report)?;
    fs::write("target/capnet-results.csv", &csv)?;
    println!("{report}");
    println!("written: target/capnet-report.txt, target/capnet-results.csv");
    Ok(())
}
