//! The Morello-calibrated cost model.
//!
//! Every constant here stands in for a number the paper measured (or implies)
//! on the Arm Morello / CheriBSD testbed. The experiments never hard-code
//! nanoseconds: they compose these fields, so sweeping a field is an ablation
//! (see `examples/locking_sweep.rs`).
//!
//! Calibration targets, from the paper's §IV:
//!
//! * Scenario 1 `ff_write` is ≈ **125 ns** slower than Baseline — the
//!   musl→Intravisor trampoline indirection ([`CostModel::trampoline_ns`]).
//! * Scenario 2 (uncontended) is ≈ **200 ns** slower than Scenario 1 — one
//!   cross-cVM wrapper jump plus uncontended mutex handling
//!   ([`CostModel::xcall_ns`] + [`CostModel::mutex_fast_ns`]).
//! * Scenario 2 (contended) mutex operations cost ≈ **19 000 ns**, a 152×
//!   slowdown over the ≈ 125 ns uncontended mutex handling — reproduced by
//!   the umtx sleep/wake path and the F-Stack main-loop lock hold time.
//! * Table II bandwidth ceilings: 941 Mbit/s single-port TCP goodput (pure
//!   framing math) and 658 / 757 Mbit/s per port for dual-port RX / TX
//!   (shared PCI bus DMA limits, [`CostModel::pci_rx_ns_per_byte_x1000`] /
//!   [`CostModel::pci_tx_ns_per_byte_x1000`]).

use crate::time::SimDuration;

/// Cost constants for the simulated Morello/CheriBSD platform.
///
/// Construct with [`CostModel::morello`] (paper calibration) or
/// [`CostModel::default`] (same), then override fields for ablations.
///
/// # Example
///
/// ```
/// use simkern::cost::CostModel;
/// let mut costs = CostModel::morello();
/// assert_eq!(costs.trampoline_ns, 125);
/// costs.trampoline_ns = 0; // ablation: free trampolines
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostModel {
    // ---- CPU / libc ----
    /// One `clock_gettime(CLOCK_MONOTONIC_RAW)` executed natively (vDSO-less
    /// CheriBSD syscall path). Charged twice per timed iteration.
    pub clock_gettime_ns: u64,
    /// Resolution of the raw monotonic counter; readings are floored to a
    /// multiple of this, which is why the paper's box plots collapse
    /// (p25 = p75) for the fast scenarios.
    pub timer_tick_ns: u64,
    /// A generic native syscall entry/exit (CheriBSD, non-compartmentalized).
    pub syscall_ns: u64,
    /// Copying one byte between user buffers (memcpy steady-state).
    pub copy_ns_per_byte_x1000: u64,

    // ---- CHERI / Intravisor ----
    /// The musl→Intravisor trampoline: save registers, load the target
    /// PCC/DDC pair, `blrs` into the Intravisor and back. The paper reports
    /// the Scenario 1 vs Baseline `ff_write` delta as ≈ 125 ns.
    pub trampoline_ns: u64,
    /// A cross-cVM wrapper call (Scenario 2 app → F-Stack service cVM):
    /// sealed-pair invoke, argument capability re-derivation, return.
    pub xcall_ns: u64,
    /// Uncontended mutex lock+unlock pair (atomic fast path, no kernel).
    /// Together with the bookkeeping around it this is the "≈ 125 ns mutex
    /// handling" the paper's 152× slowdown is measured against.
    pub mutex_fast_ns: u64,
    /// Blocking on `umtx` (musl futex translated by the Intravisor):
    /// trampoline + kernel sleep enqueue + context switch away.
    pub umtx_block_ns: u64,
    /// Waking an `umtx` waiter: kernel wake + context switch in.
    pub umtx_wake_ns: u64,

    // ---- F-Stack / DPDK software path ----
    /// Fixed cost of `ff_write` excluding the per-byte copy: fd lookup,
    /// socket state checks, mbuf append bookkeeping.
    pub ff_write_fixed_ns: u64,
    /// One F-Stack main-loop iteration with idle rings (poll, timer check).
    pub mainloop_idle_ns: u64,
    /// Additional main-loop cost per frame processed (driver + protocol).
    pub mainloop_per_frame_ns: u64,
    /// While serving Scenario 2, the main loop holds the F-Stack mutex for
    /// the duration of its iteration; this is the dominant term of the
    /// ≈ 19 µs contended-mutex overhead.
    pub s2_loop_hold_ns: u64,

    // ---- NIC / PCI (Intel 82576 dual-port model) ----
    /// Line rate of each Ethernet port, bits per second.
    pub link_bps: u64,
    /// One-way propagation + PHY latency of the cable.
    pub wire_latency_ns: u64,
    /// Shared PCI bus DMA cost per byte on the receive path (device →
    /// memory), scaled by 1000 (i.e. 5 724 means 5.724 ns/byte). Calibrated
    /// so two ports receiving saturate at ≈ 658 Mbit/s each.
    pub pci_rx_ns_per_byte_x1000: u64,
    /// Shared PCI bus DMA cost per byte on the transmit path (memory →
    /// device), scaled by 1000. Calibrated so two ports sending saturate at
    /// ≈ 757 Mbit/s each.
    pub pci_tx_ns_per_byte_x1000: u64,
    /// Fixed per-DMA-transaction overhead on the PCI bus.
    pub pci_per_frame_ns: u64,
    /// Store-and-forward processing latency of a switching element
    /// (lookup + buffer copy), charged once per frame per switch hop on
    /// top of the egress-port serialization at [`CostModel::link_bps`].
    pub switch_latency_ns: u64,

    // ---- measurement noise ----
    /// Probability (per mille) that an iteration takes a long detour
    /// (interrupt, cache refill storm). The paper discards ≈ 10 % of
    /// iterations as IQR outliers; this is where they come from.
    pub jitter_per_mille: u64,
    /// Magnitude of a jitter detour.
    pub jitter_ns: u64,
}

impl CostModel {
    /// The calibration used for all paper-shaped experiments.
    pub fn morello() -> Self {
        CostModel {
            clock_gettime_ns: 60,
            timer_tick_ns: 25,
            syscall_ns: 140,
            copy_ns_per_byte_x1000: 45, // 0.045 ns/B ≈ 22 GB/s memcpy
            trampoline_ns: 125,
            xcall_ns: 170,
            mutex_fast_ns: 30,
            umtx_block_ns: 2_600,
            umtx_wake_ns: 1_900,
            ff_write_fixed_ns: 380,
            mainloop_idle_ns: 900,
            mainloop_per_frame_ns: 260,
            s2_loop_hold_ns: 8_100,
            link_bps: 1_000_000_000,
            wire_latency_ns: 1_000,
            pci_rx_ns_per_byte_x1000: 5_724,
            pci_tx_ns_per_byte_x1000: 4_975,
            pci_per_frame_ns: 0,
            switch_latency_ns: 2_000,
            jitter_per_mille: 100, // ~10% of iterations, as the paper removes
            jitter_ns: 2_400,
        }
    }

    /// An idealized platform with zero isolation overhead; useful in tests
    /// that want protocol behaviour without timing noise.
    pub fn zero_overhead() -> Self {
        CostModel {
            clock_gettime_ns: 0,
            timer_tick_ns: 0,
            syscall_ns: 0,
            copy_ns_per_byte_x1000: 0,
            trampoline_ns: 0,
            xcall_ns: 0,
            mutex_fast_ns: 0,
            umtx_block_ns: 0,
            umtx_wake_ns: 0,
            ff_write_fixed_ns: 0,
            mainloop_idle_ns: 100,
            mainloop_per_frame_ns: 0,
            s2_loop_hold_ns: 0,
            link_bps: 1_000_000_000,
            wire_latency_ns: 0,
            pci_rx_ns_per_byte_x1000: 0,
            pci_tx_ns_per_byte_x1000: 0,
            pci_per_frame_ns: 0,
            switch_latency_ns: 0,
            jitter_per_mille: 0,
            jitter_ns: 0,
        }
    }

    /// Cost of copying `bytes` bytes between user buffers.
    pub fn copy_cost(&self, bytes: u64) -> SimDuration {
        SimDuration::from_nanos(bytes * self.copy_ns_per_byte_x1000 / 1000)
    }

    /// PCI bus occupancy for a DMA of `bytes` in the receive direction.
    pub fn pci_rx_cost(&self, bytes: u64) -> SimDuration {
        SimDuration::from_nanos(
            bytes * self.pci_rx_ns_per_byte_x1000 / 1000 + self.pci_per_frame_ns,
        )
    }

    /// PCI bus occupancy for a DMA of `bytes` in the transmit direction.
    pub fn pci_tx_cost(&self, bytes: u64) -> SimDuration {
        SimDuration::from_nanos(
            bytes * self.pci_tx_ns_per_byte_x1000 / 1000 + self.pci_per_frame_ns,
        )
    }

    /// Wire serialization time for a frame of `wire_bytes` (including
    /// preamble and inter-frame gap) at the configured line rate.
    pub fn wire_cost(&self, wire_bytes: u64) -> SimDuration {
        SimDuration::for_bytes_at_rate(wire_bytes, self.link_bps)
    }

    /// The timer tick as a duration, for clock quantization.
    pub fn timer_tick(&self) -> SimDuration {
        SimDuration::from_nanos(self.timer_tick_ns)
    }

    /// The minimum latency any frame needs to traverse a cable of this
    /// cost model, per **link class** (who is emitting): propagation plus
    /// at least one minimum-frame serialization at line rate, plus the
    /// store-and-forward latency when the emitting side is a switch.
    ///
    /// These per-edge floors are what a conservative parallel simulation
    /// derives its lookahead from — a cut edge of a given class can never
    /// carry causality faster than its floor, so the wider the floor, the
    /// wider the safe execution window. `min_wire_bytes` is the smallest
    /// on-wire frame size of the protocol layer above (minimum frame plus
    /// preamble/IFG overhead; the cost model itself is protocol-agnostic).
    pub fn link_floor_ns(&self, min_wire_bytes: u64, from_switch: bool) -> u64 {
        self.wire_latency_ns
            + self.wire_cost(min_wire_bytes).as_nanos()
            + if from_switch {
                self.switch_latency_ns
            } else {
                0
            }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::morello()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn morello_matches_paper_deltas() {
        let c = CostModel::morello();
        // Scenario 1 vs Baseline: the trampoline indirection ≈ 125 ns.
        assert_eq!(c.trampoline_ns, 125);
        // Scenario 2 extra vs Scenario 1: wrapper + mutex ≈ 200 ns.
        assert_eq!(c.xcall_ns + c.mutex_fast_ns, 200);
    }

    #[test]
    fn pci_calibration_produces_table2_ceilings() {
        let c = CostModel::morello();
        // A full-size frame occupies the bus long enough that two RX ports
        // share ≈ 1316 Mbit/s of goodput (658 each). Wire frame: 1518 B
        // + 20 B preamble/IFG; payload 1448 B.
        let per_frame = c.pci_rx_cost(1538).as_nanos();
        let aggregate_bps = 1448.0 * 8.0 / (per_frame as f64 / 1e9);
        assert!(
            (aggregate_bps / 1e6 - 1316.0).abs() < 10.0,
            "rx aggregate {aggregate_bps}"
        );
        let per_frame = c.pci_tx_cost(1538).as_nanos();
        let aggregate_bps = 1448.0 * 8.0 / (per_frame as f64 / 1e9);
        assert!(
            (aggregate_bps / 1e6 - 1514.0).abs() < 10.0,
            "tx aggregate {aggregate_bps}"
        );
    }

    #[test]
    fn single_port_is_wire_limited_not_pci_limited() {
        let c = CostModel::morello();
        // One port: wire serialization (12 304 ns/frame) must exceed the PCI
        // cost per frame, so a single flow reaches the 941 Mbit/s goodput.
        assert!(c.pci_rx_cost(1538) < c.wire_cost(1538));
        assert!(c.pci_tx_cost(1538) < c.wire_cost(1538));
    }

    #[test]
    fn link_floors_split_by_link_class() {
        let c = CostModel::morello();
        // Ethernet minimum frame (64 B) + preamble/IFG (20 B) at 1 Gbit/s
        // serializes in 672 ns; NIC egress adds propagation, switch egress
        // adds store-and-forward on top.
        assert_eq!(c.link_floor_ns(84, false), 1_000 + 672);
        assert_eq!(c.link_floor_ns(84, true), 1_000 + 672 + 2_000);
        // Degenerate models floor at the (possibly zero) propagation.
        let z = CostModel::zero_overhead();
        assert_eq!(z.link_floor_ns(84, false), 672);
    }

    #[test]
    fn copy_cost_scales_linearly() {
        let c = CostModel::morello();
        assert_eq!(c.copy_cost(0), SimDuration::ZERO);
        assert_eq!(
            c.copy_cost(2000).as_nanos(),
            2 * c.copy_cost(1000).as_nanos()
        );
    }
}
