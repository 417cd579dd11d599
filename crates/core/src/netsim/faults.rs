//! Scheduled infrastructure faults: the scenario-facing [`Fault`]
//! vocabulary, its resolution against the cabling at run start, and the
//! event handler that applies each fault on the shard that owns its target.

use super::{Ep, NetEvent, NetSim, NodeId, SwitchId};
use crate::CapnetError;
use simkern::engine::Engine;
use simkern::time::{SimDuration, SimTime};

/// A schedulable infrastructure fault, in scenario-facing terms: the
/// entity it names plus the direction of the transition. Schedule with
/// [`NetSim::add_fault`]; resolution against the cabling happens at
/// [`NetSim::run`] start (so an impossible target is a configuration
/// error, not a silent no-op).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Administratively downs the cable on `node`'s NIC port: every frame
    /// either end would transmit onto that cable is blackholed at its TX
    /// hop (counted in [`updk::wire::ImpairmentStats::blackholed`]) until
    /// a matching [`Fault::LinkUp`]. Frames already in flight still
    /// deliver.
    LinkDown {
        /// The node whose uplink cable goes down.
        node: NodeId,
    },
    /// Restores the cable downed by [`Fault::LinkDown`].
    LinkUp {
        /// The node whose uplink cable comes back.
        node: NodeId,
    },
    /// Fails a switching fabric: every ingress frame is dropped (counted
    /// in [`updk::switch::SwitchStats::fail_drops`]) until recovery.
    SwitchFail {
        /// The failed switch.
        sw: SwitchId,
    },
    /// Recovers a failed switch. Its MAC table is flushed — the fabric
    /// comes back cold and re-floods until it re-learns stations, exactly
    /// like a rebooted switch.
    SwitchRecover {
        /// The recovering switch.
        sw: SwitchId,
    },
    /// Crashes a node: its stack (every TCB, listener, ARP entry) and all
    /// its applications vanish, its poll loop stops, and frames arriving
    /// at its NIC while dead are discarded (counted in
    /// [`FaultStats::frames_to_dead`]). Peers discover the death the way
    /// real peers do: retransmission give-up (`ETIMEDOUT`), or an RST
    /// when the restarted incarnation receives a segment for a
    /// connection it never heard of. Reports of the crashed incarnation's
    /// apps are discarded with it.
    NodeCrash {
        /// The node to crash.
        node: NodeId,
    },
    /// Restarts a crashed node: a fresh stack with the same interface
    /// config (cc/SACK knobs included), every app rebuilt from its
    /// install-time blueprint — listeners re-established, fleets
    /// re-launched on their original seed — and the poll loop rescheduled.
    NodeRestart {
        /// The node to restart.
        node: NodeId,
    },
}

/// A fault resolved against the cabling at run start: link faults carry
/// both cable endpoints (the TX-hop blackhole check tests the local
/// endpoint on whichever shard transmits) plus the device whose owning
/// shard tallies the event exactly once.
#[derive(Debug, Clone, Copy)]
pub(super) enum ResolvedFault {
    LinkDown { a: Ep, b: Ep, dev: usize },
    LinkUp { a: Ep, b: Ep, dev: usize },
    SwitchFail { sw: usize },
    SwitchRecover { sw: usize },
    NodeCrash { node: usize },
    NodeRestart { node: usize },
}

/// Per-run fault-plan tallies: what the scheduled faults did. Applied
/// exactly once per fault regardless of worker count (each counter bumps
/// only on the shard owning the faulted entity), so these are part of the
/// byte-identical outcome surface the determinism tests compare.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// `LinkDown` events applied.
    pub link_down_events: u64,
    /// `LinkUp` events applied.
    pub link_up_events: u64,
    /// `SwitchFail` events applied.
    pub switch_fail_events: u64,
    /// `SwitchRecover` events applied.
    pub switch_recover_events: u64,
    /// `NodeCrash` events applied.
    pub node_crashes: u64,
    /// `NodeRestart` events applied.
    pub node_restarts: u64,
    /// Frames that arrived at a crashed node's NIC and were discarded
    /// (the wire carried them; nobody was home).
    pub frames_to_dead: u64,
}

impl FaultStats {
    /// Accumulates another tally into this one (shard merge).
    pub(super) fn absorb(&mut self, o: FaultStats) {
        self.link_down_events += o.link_down_events;
        self.link_up_events += o.link_up_events;
        self.switch_fail_events += o.switch_fail_events;
        self.switch_recover_events += o.switch_recover_events;
        self.node_crashes += o.node_crashes;
        self.node_restarts += o.node_restarts;
        self.frames_to_dead += o.frames_to_dead;
    }
}

impl NetSim {
    /// Schedules an infrastructure fault at virtual instant `at`. Faults
    /// are resolved against the cabling when the run starts and executed
    /// as first-class engine events, so an identical plan produces
    /// byte-identical runs at any worker count; an empty plan leaves the
    /// run untouched (no events, no draws, no digest change).
    pub fn add_fault(&mut self, at: SimTime, fault: Fault) {
        self.fault_plan.push((at, fault));
    }

    /// Resolves the built fault plan against the cabling: link faults pin
    /// both endpoints of the target cable (the TX blackhole check is
    /// local to whichever side transmits), node/switch faults validate
    /// their targets exist. Runs on the parent simulation **before**
    /// sharding — shadow nodes carry no cabling to resolve against.
    pub(super) fn resolve_faults(&mut self) -> Result<(), CapnetError> {
        self.faults.clear();
        let known = |what: &str, idx: usize, len: usize| {
            if idx < len {
                Ok(idx)
            } else {
                Err(CapnetError::Config(format!("no such {what} {idx}")))
            }
        };
        let (nodes, switches) = (self.nodes.len(), self.switches.len());
        for &(at, fault) in &self.fault_plan {
            let resolved = match fault {
                Fault::LinkDown { node } | Fault::LinkUp { node } => {
                    let n = &self.nodes[known("node", node.0, nodes)?];
                    let a = Ep::Dev(n.dev, n.port);
                    let b = *self.links.get(&a).ok_or_else(|| {
                        CapnetError::Config(format!(
                            "link fault on node {} ({a}), which is not cabled",
                            node.0
                        ))
                    })?;
                    let dev = n.dev;
                    if matches!(fault, Fault::LinkDown { .. }) {
                        ResolvedFault::LinkDown { a, b, dev }
                    } else {
                        ResolvedFault::LinkUp { a, b, dev }
                    }
                }
                Fault::SwitchFail { sw } => ResolvedFault::SwitchFail {
                    sw: known("switch", sw.0, switches)?,
                },
                Fault::SwitchRecover { sw } => ResolvedFault::SwitchRecover {
                    sw: known("switch", sw.0, switches)?,
                },
                Fault::NodeCrash { node } => ResolvedFault::NodeCrash {
                    node: known("node", node.0, nodes)?,
                },
                Fault::NodeRestart { node } => ResolvedFault::NodeRestart {
                    node: known("node", node.0, nodes)?,
                },
            };
            self.faults.push((at, resolved));
        }
        Ok(())
    }

    /// Applies resolved fault `idx` (event handler). Every shard
    /// dispatches every fault event; link state is shared knowledge (the
    /// TX blackhole check runs wherever the transmitter lives), while
    /// node/switch mutations and the tallies land only on the owner
    /// shard — so the merged [`FaultStats`] counts each fault once.
    pub(super) fn apply_fault(&mut self, idx: usize, engine: &mut Engine<NetSim>) {
        let (_, fault) = self.faults[idx];
        match fault {
            ResolvedFault::LinkDown { a, b, dev } => {
                self.link_down.insert(a);
                self.link_down.insert(b);
                if self.local_dev(dev) {
                    self.fault_stats.link_down_events += 1;
                }
            }
            ResolvedFault::LinkUp { a, b, dev } => {
                self.link_down.remove(&a);
                self.link_down.remove(&b);
                if self.local_dev(dev) {
                    self.fault_stats.link_up_events += 1;
                }
            }
            ResolvedFault::SwitchFail { sw } => {
                if self.local_sw(sw) {
                    self.switches[sw].fail();
                    self.fault_stats.switch_fail_events += 1;
                }
            }
            ResolvedFault::SwitchRecover { sw } => {
                if self.local_sw(sw) {
                    self.switches[sw].recover();
                    self.fault_stats.switch_recover_events += 1;
                }
            }
            ResolvedFault::NodeCrash { node } => {
                if self.local_node(node) {
                    // A parked loop polled, in the model, right up to the
                    // crash.
                    self.fold_skipped(node, engine.now());
                    self.nodes[node].crash(engine);
                    self.fault_stats.node_crashes += 1;
                }
            }
            ResolvedFault::NodeRestart { node } => {
                if self.local_node(node) {
                    self.restart_node(node, engine);
                    self.fault_stats.node_restarts += 1;
                }
            }
        }
    }

    /// [`Fault::NodeRestart`]: the node comes back from its blueprints
    /// (`Node::restart`) and the poll loop boots again shortly after.
    /// A no-op unless the node is crashed.
    fn restart_node(&mut self, i: usize, engine: &mut Engine<NetSim>) {
        let now = engine.now();
        let node = &mut self.nodes[i];
        if !node.crashed {
            return;
        }
        node.restart(now);
        // The reborn host boots like the originals did: first poll
        // iteration a beat after the restart instant.
        let epoch = node.epoch;
        engine.schedule_from(
            Self::node_origin(i),
            now + SimDuration::from_nanos(97),
            NetEvent::LoopIter { node: i, epoch },
        );
    }
}
