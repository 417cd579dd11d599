//! Quickstart: boot an Intravisor, carve two compartments, demonstrate the
//! protection model, and run a short iperf measurement through the
//! simulated 82576.
//!
//! Run with: `cargo run --release --example quickstart`

use capnet::netsim::{IsolationProfile, NetSim};
use capnet::scenario::{ScenarioKind, ScenarioSpec, TrafficMode};
use intravisor::{CvmConfig, Intravisor};
use simkern::{CostModel, SimDuration};
use std::error::Error;
use std::net::Ipv4Addr;
use updk::nic::NicModel;

fn main() -> Result<(), Box<dyn Error>> {
    println!("== capnet quickstart ==\n");

    // --- 1. Compartments -------------------------------------------------
    let costs = CostModel::morello();
    let mut iv = Intravisor::new(1 << 20, costs.clone());
    let app = iv.create_cvm(CvmConfig::new("iperf-app").mem_size(64 * 1024))?;
    let net = iv.create_cvm(CvmConfig::new("fstack-dpdk").mem_size(256 * 1024))?;
    println!("booted Intravisor with {} cVMs:", iv.cvms().len());
    println!("  {}", iv.cvm(app));
    println!("  {}", iv.cvm(net));

    // The app works happily inside its own region…
    let buf = iv.cvm_alloc(app, 1024, 16)?;
    iv.memory_mut()
        .write(&buf, buf.base(), b"telemetry frame")?;
    println!("\napp wrote 15 bytes through its bounded capability: ok");

    // …and dies trying to touch the network compartment.
    let victim_addr = iv.cvm(net).ctx().ddc().base();
    match iv.cvm_load(app, victim_addr, 16) {
        Err(fault) => println!("app probing the net cVM -> {fault}"),
        Ok(_) => unreachable!("compartmentalization failed"),
    }

    // --- 2. Bandwidth ----------------------------------------------------
    println!("\nrunning a 100 ms iperf exchange over one simulated GbE port…");
    let mut sim = NetSim::new(costs.clone());
    let dut = sim.add_dev(NicModel::Dual82576)?;
    let host = sim.add_dev(NicModel::Host)?;
    sim.link(dut, 0, host, 0)?;
    let srv = sim.add_node(
        "dut",
        dut,
        0,
        Ipv4Addr::new(10, 0, 0, 1),
        IsolationProfile::default(),
    )?;
    let cli = sim.add_node(
        "host",
        host,
        0,
        Ipv4Addr::new(10, 0, 0, 2),
        IsolationProfile::default(),
    )?;
    sim.add_server(srv, "dut-rx", 5201)?;
    sim.add_client(
        cli,
        "host-tx",
        (Ipv4Addr::new(10, 0, 0, 1), 5201),
        SimDuration::from_millis(100),
        SimDuration::ZERO,
    )?;
    let out = sim.run(SimDuration::from_millis(130))?;
    for r in &out.servers {
        println!(
            "  {}: {:.0} Mbit/s ({:.1}% of line rate)",
            r.label,
            r.mbit_per_sec(),
            r.efficiency(1_000_000_000) * 100.0
        );
    }

    // --- 3. A full scenario ----------------------------------------------
    println!("\nScenario 2 (uncontended), server side, 100 ms:");
    let out = ScenarioSpec::paper(ScenarioKind::Scenario2Uncontended, TrafficMode::Server)
        .duration(SimDuration::from_millis(100))
        .costs(costs)
        .run()?;
    for r in &out.servers {
        if !r.label.starts_with("host") {
            println!(
                "  {}: {:.0} Mbit/s ({:.1}%)",
                r.label,
                r.mbit_per_sec(),
                r.efficiency(1_000_000_000) * 100.0
            );
        }
    }
    println!("\ndone — see examples/full_report.rs for every table and figure.");
    Ok(())
}
