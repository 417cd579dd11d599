//! Switched N-node topology builders on [`NetSim`].
//!
//! The paper's testbed is two hosts on a cable; these builders use the
//! [`updk::switch::LinkFabric`] learning switch to assemble the three
//! canonical multi-node shapes the scenario layer (and the `many_nodes`
//! bench) measure:
//!
//! * **star** — N leaf hosts and one hub host on a single switch; every
//!   leaf→hub flow shares the hub's one uplink port, the bottleneck;
//! * **chain** — two hosts separated by K switches in a row; each hop adds
//!   store-and-forward latency and another serialization;
//! * **dumbbell** — N client/server pairs on two switches joined by one
//!   trunk; all pairs contend for the trunk, the classic fairness shape.
//!
//! Builders only wire devices, nodes and cables; callers install apps on
//! the returned [`NodeId`]s (see [`crate::scenario::ScenarioSpec`]).

use crate::netsim::{DevId, IsolationProfile, NetSim, NodeId, SwitchId};
use crate::CapnetError;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use updk::nic::NicModel;

/// Most hosts a builder places in one topology (IP allocation limit; hosts
/// beyond the first /24's worth spill into sibling /24s, see
/// [`paged_ip`]).
const MAX_HOSTS: usize = 250;

/// Hosts addressed out of the first /24 page. Host `i < FIRST_PAGE` keeps
/// the historical `10.x.0.(base + i)` address — the pinned trace digests
/// depend on small topologies addressing exactly as they always did —
/// while `i >= FIRST_PAGE` pages into `10.x.(page).(i - FIRST_PAGE + 1)`.
const FIRST_PAGE: usize = 90;

/// The address of host `i` in net `10.net.0.0/16`: the historical
/// `10.net.0.(base+i)` for the first [`FIRST_PAGE`] hosts, then paged into
/// `10.net.page.(offset+1)` (every page leaves octet values `> 0` and
/// `< 255`, and page 0 is reserved for the historical range, so addresses
/// never collide across pages).
fn paged_ip(net: u8, page0: u8, base: u8, i: usize) -> Ipv4Addr {
    if i < FIRST_PAGE {
        Ipv4Addr::new(10, net, 0, base + i as u8)
    } else {
        let j = i - FIRST_PAGE;
        Ipv4Addr::new(10, net, page0 + (j / 200) as u8, 1 + (j % 200) as u8)
    }
}

/// Depth of **each** egress queue for a fabric with `ports` ports:
/// `64 × ports` frames, i.e. 64 frames (≈ one 64 KiB no-window-scale TCP
/// send window of MTU segments) per *potential sender*. A bottleneck port
/// can then absorb a full fan-in of window-limited flows from every other
/// port without tail loss — TCP self-clocks against queueing delay
/// instead of RTO-collapsing — while the bound still drops pathological
/// overload. Build topologies with `NetSim::add_switch_with_queue`
/// directly to study the shallow-buffer (loss-driven) regime.
fn fabric_queue(ports: usize) -> usize {
    64 * ports
}

fn add_fabric(sim: &mut NetSim, ports: usize) -> Result<SwitchId, CapnetError> {
    sim.add_switch_with_queue(ports, fabric_queue(ports))
}

fn host_on_switch(
    sim: &mut NetSim,
    name: String,
    ip: Ipv4Addr,
    sw: SwitchId,
    sw_port: usize,
) -> Result<(NodeId, DevId), CapnetError> {
    let dev = sim.add_dev(NicModel::Host)?;
    sim.attach(dev, 0, sw, sw_port)?;
    let node = sim.add_node(name, dev, 0, ip, IsolationProfile::default())?;
    Ok((node, dev))
}

/// A star built by [`build_star`].
#[derive(Debug)]
pub struct Star {
    /// The central fabric (`leaves + 1` ports; port 0 is the hub's).
    pub switch: SwitchId,
    /// The hub host (the shared-uplink side; iperf server in scenarios).
    pub hub: NodeId,
    /// The hub's address.
    pub hub_ip: Ipv4Addr,
    /// Leaf hosts, port `i + 1` each.
    pub leaves: Vec<NodeId>,
    /// Leaf addresses, same order as [`Star::leaves`].
    pub leaf_ips: Vec<Ipv4Addr>,
}

/// Builds a star: `leaves` hosts and one hub on a `leaves + 1`-port
/// switch, all in `10.1.0.0/24`. Every leaf-to-hub flow serializes
/// through the switch's port 0 — one shared 1 Gbit/s bottleneck.
///
/// # Errors
///
/// [`CapnetError::Config`] if `leaves` is 0 or exceeds the subnet
/// allocation; propagated wiring failures otherwise.
pub fn build_star(sim: &mut NetSim, leaves: usize) -> Result<Star, CapnetError> {
    if leaves == 0 || leaves > MAX_HOSTS {
        return Err(CapnetError::Config(format!(
            "star supports 1..={MAX_HOSTS} leaves, got {leaves}"
        )));
    }
    let switch = add_fabric(sim, leaves + 1)?;
    let hub_ip = Ipv4Addr::new(10, 1, 0, 100);
    let (hub, _) = host_on_switch(sim, "hub".into(), hub_ip, switch, 0)?;
    let mut nodes = Vec::with_capacity(leaves);
    let mut ips = Vec::with_capacity(leaves);
    for i in 0..leaves {
        let ip = paged_ip(1, 1, 1, i);
        let (node, _) = host_on_switch(sim, format!("leaf{i}"), ip, switch, i + 1)?;
        nodes.push(node);
        ips.push(ip);
    }
    Ok(Star {
        switch,
        hub,
        hub_ip,
        leaves: nodes,
        leaf_ips: ips,
    })
}

/// A chain built by [`build_chain`].
#[derive(Debug)]
pub struct Chain {
    /// The switches, end host `a` on the first, `b` on the last.
    pub switches: Vec<SwitchId>,
    /// The host on the first switch.
    pub a: NodeId,
    /// `a`'s address.
    pub a_ip: Ipv4Addr,
    /// The host on the last switch.
    pub b: NodeId,
    /// `b`'s address.
    pub b_ip: Ipv4Addr,
}

/// Builds a chain: host A — switch₀ — … — switch₍ₖ₋₁₎ — host B in
/// `10.3.0.0/24`. Every frame pays `hops` store-and-forward latencies and
/// serializations end to end.
///
/// # Errors
///
/// [`CapnetError::Config`] if `hops` is 0; propagated wiring failures.
pub fn build_chain(sim: &mut NetSim, hops: usize) -> Result<Chain, CapnetError> {
    if hops == 0 {
        return Err(CapnetError::Config(
            "a chain needs at least 1 switch".into(),
        ));
    }
    let switches: Vec<SwitchId> = (0..hops)
        .map(|_| add_fabric(sim, 4))
        .collect::<Result<_, _>>()?;
    for w in switches.windows(2) {
        // Port 3 of each switch trunks forward into port 2 of the next.
        sim.link_switches(w[0], 3, w[1], 2)?;
    }
    let a_ip = Ipv4Addr::new(10, 3, 0, 1);
    let b_ip = Ipv4Addr::new(10, 3, 0, 2);
    let (a, _) = host_on_switch(sim, "chain-a".into(), a_ip, switches[0], 0)?;
    let (b, _) = host_on_switch(sim, "chain-b".into(), b_ip, switches[hops - 1], 1)?;
    Ok(Chain {
        switches,
        a,
        a_ip,
        b,
        b_ip,
    })
}

/// A dumbbell built by [`build_dumbbell`].
#[derive(Debug)]
pub struct Dumbbell {
    /// The client-side switch (trunk on port 0).
    pub left: SwitchId,
    /// The server-side switch (trunk on port 0).
    pub right: SwitchId,
    /// Client hosts, one per pair.
    pub clients: Vec<NodeId>,
    /// Client addresses.
    pub client_ips: Vec<Ipv4Addr>,
    /// Server hosts, one per pair.
    pub servers: Vec<NodeId>,
    /// Server addresses.
    pub server_ips: Vec<Ipv4Addr>,
}

/// Builds a dumbbell: `pairs` clients on a left switch, `pairs` servers
/// on a right switch, one trunk between them, all in `10.2.0.0/24`.
/// Every pair's flow crosses the single 1 Gbit/s trunk — the canonical
/// shared-bottleneck fairness topology.
///
/// # Errors
///
/// [`CapnetError::Config`] if `pairs` is 0 or exceeds the subnet
/// allocation; propagated wiring failures otherwise.
pub fn build_dumbbell(sim: &mut NetSim, pairs: usize) -> Result<Dumbbell, CapnetError> {
    if pairs == 0 || pairs > MAX_HOSTS {
        return Err(CapnetError::Config(format!(
            "dumbbell supports 1..={MAX_HOSTS} pairs, got {pairs}"
        )));
    }
    let left = add_fabric(sim, pairs + 1)?;
    let right = add_fabric(sim, pairs + 1)?;
    sim.link_switches(left, 0, right, 0)?;
    let mut clients = Vec::with_capacity(pairs);
    let mut client_ips = Vec::with_capacity(pairs);
    let mut servers = Vec::with_capacity(pairs);
    let mut server_ips = Vec::with_capacity(pairs);
    for i in 0..pairs {
        let cip = paged_ip(2, 1, 1, i);
        let (c, _) = host_on_switch(sim, format!("cli{i}"), cip, left, i + 1)?;
        clients.push(c);
        client_ips.push(cip);
        let sip = paged_ip(2, 2, 100, i);
        let (s, _) = host_on_switch(sim, format!("srv{i}"), sip, right, i + 1)?;
        servers.push(s);
        server_ips.push(sip);
    }
    Ok(Dumbbell {
        left,
        right,
        clients,
        client_ips,
        servers,
        server_ips,
    })
}

// ---------------------------------------------------------------------
// Shard partitioning (the parallel NetSim's topology-aware planner)
// ---------------------------------------------------------------------

/// The cabling-and-constraint view of a simulation that the shard
/// partitioner works on — pure data, so it is property-testable without
/// building devices or stacks.
#[derive(Debug, Clone, Default)]
pub struct ShardGraph {
    /// Number of host nodes.
    pub nodes: usize,
    /// Number of switching fabrics.
    pub switches: usize,
    /// Relative work weight per node (e.g. `1 + installed apps`); a zero
    /// weight is treated as 1.
    pub node_weight: Vec<u64>,
    /// Node-to-switch cables.
    pub attachments: Vec<(usize, usize)>,
    /// Direct node-to-node cables (pairwise topologies).
    pub node_links: Vec<(usize, usize)>,
    /// Switch-to-switch trunks.
    pub trunks: Vec<(usize, usize)>,
    /// Groups of nodes that must share a shard: nodes on the same
    /// multi-port device, and every participant of the S2 service mutex.
    pub bind_groups: Vec<Vec<usize>>,
}

/// A shard assignment produced by [`partition_shards`]: every node and
/// every switch is covered exactly once.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// Number of shards actually used (≤ the requested worker count).
    pub workers: usize,
    /// `node_shard[n]` = owning shard of node `n`.
    pub node_shard: Vec<usize>,
    /// `switch_shard[s]` = owning shard of switch `s`.
    pub switch_shard: Vec<usize>,
}

/// Minimal union-find over node indices.
struct Dsu(Vec<usize>);

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu((0..n).collect())
    }
    fn find(&mut self, x: usize) -> usize {
        let mut r = x;
        while self.0[r] != r {
            r = self.0[r];
        }
        let mut c = x;
        while self.0[c] != r {
            let next = self.0[c];
            self.0[c] = r;
            c = next;
        }
        r
    }
    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.0[ra] = rb;
        }
    }
}

/// Partitions a topology into at most `workers` shards for parallel
/// execution, keeping each switch with its heaviest-attached nodes.
///
/// Constraint handling and placement policy:
///
/// * nodes in a [`ShardGraph::bind_groups`] group, and nodes joined by a
///   direct cable ([`ShardGraph::node_links`] — co-locating the two ends
///   keeps pairwise traffic off the barrier path), are merged into one
///   *atom* that is placed as a unit;
/// * switches are placed heaviest-first onto the least-loaded shard, and
///   each switch pulls its attached atoms with it — heaviest atoms first —
///   until the shard reaches the balance target, spilling only the
///   lightest attachments to other shards (the star hub therefore always
///   lands with its switch);
/// * a pure transit switch (no hosts of its own) follows an
///   already-placed trunk peer instead of fragmenting a chain across
///   shards; host-bearing trunked switches still spread out — a cut
///   trunk is often the best cut, carrying the largest lookahead;
/// * leftover atoms (pure pairwise worlds) fill the lightest shards;
/// * empty shards are compacted away, so [`ShardPlan::workers`] is the
///   number of shards actually populated.
///
/// The plan is a pure function of the graph, so every worker count yields
/// the same plan on every run — a precondition for the byte-identical
/// determinism contract of the sharded `NetSim`.
pub fn partition_shards(graph: &ShardGraph, workers: usize) -> ShardPlan {
    let workers = workers.max(1);
    let n = graph.nodes;
    let weight_of = |i: usize| -> u64 { graph.node_weight.get(i).copied().unwrap_or(1).max(1) };

    // 1. Merge must-co-locate nodes into atoms.
    let mut dsu = Dsu::new(n);
    for group in &graph.bind_groups {
        for w in group.windows(2) {
            if w[0] < n && w[1] < n {
                dsu.union(w[0], w[1]);
            }
        }
    }
    for &(a, b) in &graph.node_links {
        if a < n && b < n {
            dsu.union(a, b);
        }
    }
    // Atom id = DSU root, compacted in node order (deterministic).
    let mut atom_of_node = Vec::with_capacity(n);
    let mut atoms: Vec<(u64, Vec<usize>)> = Vec::new(); // (weight, members)
    let mut atom_of_root: HashMap<usize, usize> = HashMap::new();
    for node in 0..n {
        let root = dsu.find(node);
        let atom = *atom_of_root.entry(root).or_insert_with(|| {
            atoms.push((0, Vec::new()));
            atoms.len() - 1
        });
        atom_of_node.push(atom);
        atoms[atom].0 += weight_of(node);
        atoms[atom].1.push(node);
    }

    // 2. Switch weights: the sum of attached atom weights (an atom counts
    //    once per switch even when several members attach).
    let mut sw_atoms: Vec<Vec<usize>> = vec![Vec::new(); graph.switches];
    for &(node, sw) in &graph.attachments {
        if node < n && sw < graph.switches {
            let atom = atom_of_node[node];
            if !sw_atoms[sw].contains(&atom) {
                sw_atoms[sw].push(atom);
            }
        }
    }
    let sw_weight: Vec<u64> = sw_atoms
        .iter()
        .map(|ats| 1 + ats.iter().map(|&a| atoms[a].0).sum::<u64>())
        .collect();
    let total: u64 = (0..n).map(weight_of).sum::<u64>() + graph.switches as u64;
    let target = total.div_ceil(workers as u64).max(1);

    // 3. Greedy placement.
    let mut load = vec![0u64; workers];
    let mut node_shard = vec![usize::MAX; n];
    let mut switch_shard = vec![usize::MAX; graph.switches];
    let mut atom_shard = vec![usize::MAX; atoms.len()];
    let lightest = |load: &[u64]| -> usize {
        let mut best = 0;
        for s in 1..load.len() {
            if load[s] < load[best] {
                best = s;
            }
        }
        best
    };
    let place_atom = |atom: usize,
                      shard: usize,
                      load: &mut Vec<u64>,
                      atom_shard: &mut Vec<usize>,
                      node_shard: &mut Vec<usize>| {
        atom_shard[atom] = shard;
        load[shard] += atoms[atom].0;
        for &m in &atoms[atom].1 {
            node_shard[m] = shard;
        }
    };
    let mut trunk_peers: Vec<Vec<usize>> = vec![Vec::new(); graph.switches];
    for &(a, b) in &graph.trunks {
        if a < graph.switches && b < graph.switches && a != b {
            trunk_peers[a].push(b);
            trunk_peers[b].push(a);
        }
    }
    let mut sw_order: Vec<usize> = (0..graph.switches).collect();
    sw_order.sort_by_key(|&s| (std::cmp::Reverse(sw_weight[s]), s));
    for &sw in &sw_order {
        // A pure transit switch (no attached hosts of its own, e.g. the
        // middle of a chain) follows an already-placed trunk peer instead
        // of fragmenting onto whichever shard happens to be lightest; a
        // switch with its own hosts still goes to the lightest shard —
        // cutting a trunk is often the *best* cut, since the trunk
        // traversal carries the largest lookahead.
        let placed_peer = if sw_atoms[sw].is_empty() {
            trunk_peers[sw]
                .iter()
                .copied()
                .filter(|&p| switch_shard[p] != usize::MAX)
                .min_by_key(|&p| (load[switch_shard[p]], p))
                .map(|p| switch_shard[p])
        } else {
            None
        };
        let home = placed_peer.unwrap_or_else(|| lightest(&load));
        switch_shard[sw] = home;
        load[home] += 1;
        let mut pending: Vec<usize> = sw_atoms[sw]
            .iter()
            .copied()
            .filter(|&a| atom_shard[a] == usize::MAX)
            .collect();
        pending.sort_by_key(|&a| (std::cmp::Reverse(atoms[a].0), a));
        for (rank, atom) in pending.into_iter().enumerate() {
            // The heaviest attachment always stays with its switch; later
            // ones stay only while the shard is under the balance target.
            let shard = if rank == 0 || load[home] < target {
                home
            } else {
                lightest(&load)
            };
            place_atom(atom, shard, &mut load, &mut atom_shard, &mut node_shard);
        }
    }
    // 4. Leftover atoms (no switch attachment): fill the lightest shards.
    for atom in 0..atoms.len() {
        if atom_shard[atom] == usize::MAX {
            let shard = lightest(&load);
            place_atom(atom, shard, &mut load, &mut atom_shard, &mut node_shard);
        }
    }
    // 5. Compact away empty shards (more workers requested than the
    //    topology has placeable units): renumber used shards in ascending
    //    order so the runner builds no idle worlds.
    let mut remap = vec![usize::MAX; workers];
    for s in node_shard.iter().chain(switch_shard.iter()) {
        remap[*s] = 0; // mark as used; final ids assigned in shard order
    }
    let mut next_id = 0;
    for slot in remap.iter_mut() {
        if *slot != usize::MAX {
            *slot = next_id;
            next_id += 1;
        }
    }
    for s in node_shard.iter_mut().chain(switch_shard.iter_mut()) {
        *s = remap[*s];
    }
    ShardPlan {
        workers: next_id.max(1),
        node_shard,
        switch_shard,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkern::cost::CostModel;

    #[test]
    fn builders_validate_sizes() {
        let mut sim = NetSim::new(CostModel::morello());
        assert!(build_star(&mut sim, 0).is_err());
        assert!(build_star(&mut sim, MAX_HOSTS + 1).is_err());
        let mut sim = NetSim::new(CostModel::morello());
        assert!(build_chain(&mut sim, 0).is_err());
        let mut sim = NetSim::new(CostModel::morello());
        assert!(build_dumbbell(&mut sim, 0).is_err());
    }

    #[test]
    fn star_allocates_distinct_addresses() {
        let mut sim = NetSim::new(CostModel::morello());
        let star = build_star(&mut sim, 8).unwrap();
        assert_eq!(star.leaves.len(), 8);
        let mut ips = star.leaf_ips.clone();
        ips.push(star.hub_ip);
        ips.sort();
        ips.dedup();
        assert_eq!(ips.len(), 9, "no duplicate addresses");
    }

    #[test]
    fn dumbbell_wires_both_sides() {
        let mut sim = NetSim::new(CostModel::morello());
        let d = build_dumbbell(&mut sim, 3).unwrap();
        assert_eq!(d.clients.len(), 3);
        assert_eq!(d.servers.len(), 3);
        assert_ne!(d.left, d.right);
    }

    #[test]
    fn large_star_pages_addresses_without_collisions() {
        let mut sim = NetSim::new(CostModel::morello());
        let star = build_star(&mut sim, 128).unwrap();
        let mut ips = star.leaf_ips.clone();
        // The first page keeps the historical addressing.
        assert_eq!(ips[0], Ipv4Addr::new(10, 1, 0, 1));
        assert_eq!(ips[89], Ipv4Addr::new(10, 1, 0, 90));
        assert_eq!(ips[90], Ipv4Addr::new(10, 1, 1, 1));
        ips.push(star.hub_ip);
        ips.sort();
        ips.dedup();
        assert_eq!(ips.len(), 129, "no duplicate addresses at 128 leaves");
    }

    /// A star's shard plan keeps the heavy hub with its switch and covers
    /// every node exactly once.
    #[test]
    fn star_partition_keeps_hub_with_switch() {
        let leaves = 12;
        let mut g = ShardGraph {
            nodes: leaves + 1,
            switches: 1,
            node_weight: vec![2; leaves + 1],
            ..ShardGraph::default()
        };
        g.node_weight[0] = 1 + leaves as u64; // the hub runs every server
        for i in 0..=leaves {
            g.attachments.push((i, 0));
        }
        let plan = partition_shards(&g, 4);
        assert_eq!(plan.workers, 4);
        assert_eq!(plan.node_shard.len(), leaves + 1);
        assert!(plan.node_shard.iter().all(|&s| s < 4));
        assert_eq!(
            plan.node_shard[0], plan.switch_shard[0],
            "the heaviest-attached node stays with its switch"
        );
        // Every shard got some work (the leaves spread out).
        let mut used = [false; 4];
        for &s in &plan.node_shard {
            used[s] = true;
        }
        assert!(used.iter().all(|&u| u), "leaves spread over all shards");
    }

    /// Bind groups (shared device, S2 mutex) and direct cables co-shard.
    #[test]
    fn partition_respects_bind_groups_and_direct_cables() {
        let g = ShardGraph {
            nodes: 6,
            switches: 0,
            node_weight: vec![1; 6],
            node_links: vec![(0, 1), (2, 3)],
            bind_groups: vec![vec![3, 4]],
            ..ShardGraph::default()
        };
        let plan = partition_shards(&g, 3);
        assert_eq!(plan.node_shard[0], plan.node_shard[1]);
        assert_eq!(plan.node_shard[2], plan.node_shard[3]);
        assert_eq!(plan.node_shard[3], plan.node_shard[4]);
        assert!(plan.node_shard.iter().all(|&s| s < plan.workers));
    }

    /// workers=1 puts everything in shard 0 regardless of shape.
    #[test]
    fn single_worker_plan_is_trivial() {
        let g = ShardGraph {
            nodes: 5,
            switches: 2,
            node_weight: vec![1; 5],
            attachments: vec![(0, 0), (1, 0), (2, 1), (3, 1)],
            trunks: vec![(0, 1)],
            ..ShardGraph::default()
        };
        let plan = partition_shards(&g, 1);
        assert!(plan.node_shard.iter().all(|&s| s == 0));
        assert!(plan.switch_shard.iter().all(|&s| s == 0));
    }
}
