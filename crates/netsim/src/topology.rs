//! Network topologies: generic node/link/port graph with routing tables,
//! plus the two builders used in the evaluation — a k-ary fat-tree (the
//! paper's k=4, §7 Setup) and a dumbbell (single bottleneck, testbed-like).

/// A node index. Hosts occupy `0..num_hosts`; switches follow.
pub type NodeId = usize;
/// A port index local to a node.
pub type PortId = usize;

/// One duplex link between two (node, port) endpoints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// First endpoint.
    pub a: (NodeId, PortId),
    /// Second endpoint.
    pub b: (NodeId, PortId),
    /// Bandwidth in gigabits per second.
    pub bandwidth_gbps: f64,
    /// One-way propagation latency in nanoseconds.
    pub latency_ns: u64,
}

impl Link {
    /// Transmission time of `bytes` on this link in nanoseconds (rounded up,
    /// minimum 1 ns so events always advance).
    pub fn tx_time_ns(&self, bytes: u32) -> u64 {
        let ns = (bytes as f64 * 8.0) / self.bandwidth_gbps;
        (ns.ceil() as u64).max(1)
    }

    /// The peer endpoint of `(node, port)`.
    pub fn peer(&self, node: NodeId) -> (NodeId, PortId) {
        if self.a.0 == node {
            self.b
        } else {
            self.a
        }
    }
}

/// A network graph with per-switch routing tables, in flat arrays: one
/// lookup (plus its offsets) per route or link query, no nested vectors.
#[derive(Debug, Clone)]
pub struct Topology {
    /// Number of hosts (nodes `0..num_hosts`).
    pub num_hosts: usize,
    /// Number of switches (nodes `num_hosts..num_hosts+num_switches`).
    pub num_switches: usize,
    /// All links.
    pub links: Vec<Link>,
    /// `port_base[node]` = the flat index of `(node, 0)`
    /// ([`Self::port_index`]); one entry per node plus the total port count.
    port_base: Vec<usize>,
    /// `port_link[port_index(node, port)]` = index into `links`.
    port_link: Vec<usize>,
    /// `route_base[(switch - num_hosts) * num_hosts + dst_host]` = where that
    /// pair's ECMP set starts in `route_ports`; one entry per pair plus the
    /// total.
    route_base: Vec<usize>,
    /// Every ECMP set's candidate egress ports, pair after pair.
    route_ports: Vec<u32>,
    /// `zones[node]` = partition zone: a builder-assigned locality group
    /// (fat-tree: one zone per pod plus one for the core layer; dumbbell:
    /// left/right halves). The parallel simulator maps zones onto logical
    /// processes; nodes in one zone never split across partitions, so the
    /// dense intra-pod traffic stays partition-local.
    zones: Vec<usize>,
}

impl Topology {
    /// Total node count.
    pub fn num_nodes(&self) -> usize {
        self.num_hosts + self.num_switches
    }

    /// True if `node` is a host.
    pub fn is_host(&self, node: NodeId) -> bool {
        node < self.num_hosts
    }

    /// Ports on `node`.
    pub fn ports(&self, node: NodeId) -> usize {
        self.port_base[node + 1] - self.port_base[node]
    }

    /// Ports across all nodes.
    pub fn total_ports(&self) -> usize {
        self.port_link.len()
    }

    /// The flat index of `(node, port)`, dense in `0..total_ports()`: nodes
    /// in order, a node's ports in order.
    pub fn port_index(&self, node: NodeId, port: PortId) -> usize {
        self.port_base[node] + port
    }

    /// The link attached to `(node, port)`.
    pub fn link_at(&self, node: NodeId, port: PortId) -> &Link {
        &self.links[self.port_link[self.port_index(node, port)]]
    }

    /// The ECMP set at `switch` toward `dst_host`.
    fn candidates(&self, switch: NodeId, dst_host: NodeId) -> &[u32] {
        let pair = (switch - self.num_hosts) * self.num_hosts + dst_host;
        &self.route_ports[self.route_base[pair]..self.route_base[pair + 1]]
    }

    /// Picks the egress port at `switch` toward `dst_host` for a flow with
    /// ECMP hash `flow_hash` (per-flow, not per-packet, so flows never
    /// reorder).
    pub fn route(&self, switch: NodeId, dst_host: NodeId, flow_hash: u64) -> PortId {
        let candidates = self.candidates(switch, dst_host);
        assert!(
            !candidates.is_empty(),
            "no route from switch {switch} to host {dst_host}"
        );
        candidates[(flow_hash % candidates.len() as u64) as usize] as PortId
    }

    /// ECMP candidate count (for tests).
    pub fn route_candidates(&self, switch: NodeId, dst_host: NodeId) -> usize {
        self.candidates(switch, dst_host).len()
    }

    /// The partition zone of `node` (see the `zones` field).
    pub fn zone(&self, node: NodeId) -> usize {
        self.zones[node]
    }

    /// Number of distinct partition zones. Topologies built by
    /// [`Topology::from_edges`] directly have a single zone (no parallelism
    /// available); the fat-tree and dumbbell builders assign finer zones.
    pub fn num_zones(&self) -> usize {
        self.zones.iter().copied().max().unwrap_or(0) + 1
    }

    /// Generic constructor from an edge list. `edges` entries are
    /// `(node_a, node_b, bandwidth_gbps, latency_ns)`; ports are assigned in
    /// order of appearance. Routing tables are built by BFS over hop count,
    /// keeping every minimal-hop egress as an ECMP candidate.
    pub fn from_edges(
        num_hosts: usize,
        num_switches: usize,
        edges: &[(NodeId, NodeId, f64, u64)],
    ) -> Self {
        let num_nodes = num_hosts + num_switches;
        // Ports: count each node's, then number them in edge order.
        let mut port_base = vec![0; num_nodes + 1];
        for &(a, b, _, _) in edges {
            assert!(a < num_nodes && b < num_nodes, "edge endpoint out of range");
            port_base[a + 1] += 1;
            port_base[b + 1] += 1;
        }
        for n in 0..num_nodes {
            port_base[n + 1] += port_base[n];
        }
        let mut next_port = vec![0; num_nodes];
        let mut port_link = vec![0; port_base[num_nodes]];
        let mut take_port = |node: NodeId, link: usize| {
            let port = next_port[node];
            next_port[node] += 1;
            port_link[port_base[node] + port] = link;
            port
        };
        let links: Vec<Link> = (edges.iter().enumerate())
            .map(|(idx, &(a, b, bw, lat))| Link {
                a: (a, take_port(a, idx)),
                b: (b, take_port(b, idx)),
                bandwidth_gbps: bw,
                latency_ns: lat,
            })
            .collect();
        let (base, port_links, all_links) = (&port_base, &port_link, &links);
        let peers = move |node: NodeId| {
            (base[node]..base[node + 1])
                .map(move |i| (all_links[port_links[i]].peer(node).0, i - base[node]))
        };

        // BFS from every host to get hop distances, then each switch keeps
        // all neighbors one hop closer to the destination host. The sets
        // come out destination-major; a counting sort files them
        // switch-major, each set's ports in scan order.
        let mut found: Vec<(usize, u32)> = Vec::new();
        let mut route_base = vec![0; num_switches * num_hosts + 1];
        let mut dist = vec![usize::MAX; num_nodes];
        let mut frontier = std::collections::VecDeque::new();
        for dst in 0..num_hosts {
            dist.fill(usize::MAX);
            dist[dst] = 0;
            frontier.push_back(dst);
            while let Some(n) = frontier.pop_front() {
                for (peer, _) in peers(n) {
                    if dist[peer] == usize::MAX {
                        dist[peer] = dist[n] + 1;
                        frontier.push_back(peer);
                    }
                }
            }
            for sw in 0..num_switches {
                let node = num_hosts + sw;
                if dist[node] == usize::MAX {
                    continue;
                }
                let pair = sw * num_hosts + dst;
                for (peer, port) in peers(node) {
                    if dist[peer] + 1 == dist[node] {
                        found.push((pair, port as u32));
                        route_base[pair + 1] += 1;
                    }
                }
            }
        }
        for pair in 0..num_switches * num_hosts {
            route_base[pair + 1] += route_base[pair];
        }
        let mut route_ports = vec![0; found.len()];
        let mut fill = route_base.clone();
        for (pair, port) in found {
            route_ports[fill[pair]] = port;
            fill[pair] += 1;
        }

        Self {
            num_hosts,
            num_switches,
            links,
            port_base,
            port_link,
            route_base,
            route_ports,
            zones: vec![0; num_nodes],
        }
    }

    /// A k-ary fat-tree: `k²/4` core switches, `k` pods of `k/2` aggregation
    /// and `k/2` edge switches, `k/2` hosts per edge switch — for k=4 this is
    /// the paper's 16-host, 20-switch fabric. All links share `bw_gbps` and
    /// `latency_ns` (paper: 100 Gbps, 1 μs per hop).
    pub fn fat_tree(k: usize, bw_gbps: f64, latency_ns: u64) -> Self {
        assert!(
            k >= 2 && k.is_multiple_of(2),
            "fat-tree requires even k >= 2"
        );
        let half = k / 2;
        let num_hosts = k * k * k / 4;
        let num_edge = k * half;
        let num_agg = k * half;
        let num_core = half * half;
        let num_switches = num_edge + num_agg + num_core;

        // Node layout: hosts, then edge, agg, core switches.
        let edge = |pod: usize, i: usize| num_hosts + pod * half + i;
        let agg = |pod: usize, i: usize| num_hosts + num_edge + pod * half + i;
        let core = |i: usize, j: usize| num_hosts + num_edge + num_agg + i * half + j;

        let mut edges = Vec::new();
        for pod in 0..k {
            for e in 0..half {
                // Hosts under this edge switch.
                for h in 0..half {
                    let host = pod * half * half + e * half + h;
                    edges.push((host, edge(pod, e), bw_gbps, latency_ns));
                }
                // Edge ↔ every aggregation switch in the pod.
                for a in 0..half {
                    edges.push((edge(pod, e), agg(pod, a), bw_gbps, latency_ns));
                }
            }
            // Aggregation ↔ core: agg switch `a` connects to core row `a`.
            for a in 0..half {
                for j in 0..half {
                    edges.push((agg(pod, a), core(a, j), bw_gbps, latency_ns));
                }
            }
        }
        let mut topo = Self::from_edges(num_hosts, num_switches, &edges);
        // Zones: one per pod (its hosts + edge + agg switches), plus a
        // dedicated zone `k` for the core layer. Pod-local traffic — the
        // bulk of every workload — never crosses a zone boundary.
        for pod in 0..k {
            for e in 0..half {
                for h in 0..half {
                    topo.zones[pod * half * half + e * half + h] = pod;
                }
                topo.zones[edge(pod, e)] = pod;
            }
            for a in 0..half {
                topo.zones[agg(pod, a)] = pod;
            }
        }
        for i in 0..half {
            for j in 0..half {
                topo.zones[core(i, j)] = k;
            }
        }
        topo
    }

    /// A dumbbell: `n` sender hosts and `n` receiver hosts joined by two
    /// switches with a single bottleneck link between them. Used for the
    /// testbed-style single-bottleneck experiments (Figures 1, 9, 13).
    pub fn dumbbell(n: usize, bw_gbps: f64, latency_ns: u64) -> Self {
        let num_hosts = 2 * n;
        let left = num_hosts;
        let right = num_hosts + 1;
        let mut edges = Vec::new();
        for h in 0..n {
            edges.push((h, left, bw_gbps, latency_ns));
        }
        for h in n..2 * n {
            edges.push((h, right, bw_gbps, latency_ns));
        }
        edges.push((left, right, bw_gbps, latency_ns));
        let mut topo = Self::from_edges(num_hosts, 2, &edges);
        // Zones: senders + left switch vs receivers + right switch. The
        // only cut link is the bottleneck itself.
        for h in n..2 * n {
            topo.zones[h] = 1;
        }
        topo.zones[right] = 1;
        topo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fat_tree_k4_has_paper_dimensions() {
        let t = Topology::fat_tree(4, 100.0, 1000);
        assert_eq!(t.num_hosts, 16);
        assert_eq!(t.num_switches, 20); // 8 edge + 8 agg + 4 core
                                        // k=4: each host 1 port; edge switches 4 ports; total links:
                                        // 16 host + 8 edge×2 agg... = 16 + 16 + 16 = 48.
        assert_eq!(t.links.len(), 48);
    }

    #[test]
    fn fat_tree_k4_port_counts_per_node() {
        let t = Topology::fat_tree(4, 100.0, 1000);
        for h in 0..t.num_hosts {
            assert_eq!(t.ports(h), 1, "host {h} has a single uplink");
        }
        for sw in t.num_hosts..t.num_nodes() {
            assert_eq!(t.ports(sw), 4, "switch {sw} must have k = 4 ports");
        }
        // Port/link consistency: every (node, port) maps to a link that
        // names that exact endpoint.
        for node in 0..t.num_nodes() {
            for port in 0..t.ports(node) {
                let l = t.link_at(node, port);
                assert!(
                    l.a == (node, port) || l.b == (node, port),
                    "link at ({node}, {port}) does not reference it"
                );
            }
        }
    }

    #[test]
    fn fat_tree_link_count_is_3k3_over_4() {
        for k in [2usize, 4, 6, 8] {
            let t = Topology::fat_tree(k, 100.0, 1000);
            assert_eq!(t.links.len(), 3 * k * k * k / 4, "k={k}");
        }
    }

    #[test]
    fn fat_tree_routes_use_ecmp_across_pods() {
        let t = Topology::fat_tree(4, 100.0, 1000);
        // From an edge switch to a host in another pod there are 2 agg
        // choices (ECMP), from agg 2 core choices.
        let edge0 = 16; // first edge switch (pod 0)
        assert_eq!(
            t.route_candidates(edge0, 15),
            2,
            "edge→remote host via 2 aggs"
        );
        // Same-rack host: single downlink.
        assert_eq!(t.route_candidates(edge0, 0), 1);
    }

    #[test]
    fn routing_reaches_every_host_from_every_switch() {
        let t = Topology::fat_tree(4, 100.0, 1000);
        for sw in t.num_hosts..t.num_nodes() {
            for dst in 0..t.num_hosts {
                let port = t.route(sw, dst, 12345);
                assert!(port < t.ports(sw));
            }
        }
    }

    #[test]
    fn ecmp_is_flow_stable() {
        let t = Topology::fat_tree(4, 100.0, 1000);
        let p1 = t.route(16, 15, 777);
        let p2 = t.route(16, 15, 777);
        assert_eq!(p1, p2);
    }

    #[test]
    fn fat_tree_path_lengths_are_correct() {
        // Same rack: host→edge→host (2 links). Cross-pod: 6 links.
        let t = Topology::fat_tree(4, 100.0, 1000);
        // Walk a packet's path manually from host 0 to host 1 (same rack).
        let hops = walk(&t, 0, 1, 99);
        assert_eq!(hops, vec![16usize]); // single edge switch between them
        let hops = walk(&t, 0, 15, 99);
        assert_eq!(hops.len(), 5, "cross-pod path crosses 5 switches: {hops:?}");
    }

    /// Follows routing from `src` to `dst`, returning switches visited.
    fn walk(t: &Topology, src: NodeId, dst: NodeId, hash: u64) -> Vec<NodeId> {
        let mut visited = Vec::new();
        // Host egress: its only port.
        let mut link = t.link_at(src, 0);
        let mut node = link.peer(src).0;
        let mut guard = 0;
        while node != dst {
            visited.push(node);
            let port = t.route(node, dst, hash);
            link = t.link_at(node, port);
            node = link.peer(node).0;
            guard += 1;
            assert!(guard < 10, "routing loop");
        }
        visited
    }

    #[test]
    fn dumbbell_shape() {
        let t = Topology::dumbbell(3, 40.0, 500);
        assert_eq!(t.num_hosts, 6);
        assert_eq!(t.num_switches, 2);
        assert_eq!(t.links.len(), 7);
        // Sender 0 → receiver 4 passes both switches.
        let hops = walk(&t, 0, 4, 5);
        assert_eq!(hops, vec![6, 7]);
    }

    #[test]
    fn tx_time_rounds_up_and_scales() {
        let l = Link {
            a: (0, 0),
            b: (1, 0),
            bandwidth_gbps: 100.0,
            latency_ns: 1000,
        };
        // 1000 B at 100 Gbps = 80 ns.
        assert_eq!(l.tx_time_ns(1000), 80);
        // 64 B = 5.12 ns → rounds to 6.
        assert_eq!(l.tx_time_ns(64), 6);
    }

    #[test]
    #[should_panic(expected = "even k")]
    fn odd_k_rejected() {
        Topology::fat_tree(3, 100.0, 1000);
    }

    #[test]
    fn larger_fat_trees_have_the_canonical_dimensions() {
        for k in [6usize, 8] {
            let t = Topology::fat_tree(k, 100.0, 1000);
            assert_eq!(t.num_hosts, k * k * k / 4, "k={k} hosts");
            assert_eq!(t.num_switches, k * k + k * k / 4, "k={k} switches");
            // Every host reaches every other host.
            let samples = [(0usize, t.num_hosts - 1), (1, t.num_hosts / 2)];
            for (src, dst) in samples {
                let hops = walk(&t, src, dst, 7);
                assert!(hops.len() <= 5, "k={k}: path {hops:?} too long");
            }
        }
    }

    #[test]
    fn k8_cross_pod_ecmp_width() {
        // k=8: 4 aggregation choices at the edge, 4 core choices per agg.
        let t = Topology::fat_tree(8, 100.0, 1000);
        let first_edge = t.num_hosts;
        let remote_host = t.num_hosts - 1;
        assert_eq!(t.route_candidates(first_edge, remote_host), 4);
    }

    #[test]
    fn fat_tree_zones_follow_pods_plus_core() {
        let t = Topology::fat_tree(4, 100.0, 1000);
        assert_eq!(t.num_zones(), 5); // 4 pods + core
        for host in 0..16 {
            assert_eq!(t.zone(host), host / 4, "host {host} zone follows pod");
        }
        // Edge and agg switches share their pod's zone.
        for pod in 0..4 {
            for i in 0..2 {
                assert_eq!(t.zone(16 + pod * 2 + i), pod, "edge zone");
                assert_eq!(t.zone(24 + pod * 2 + i), pod, "agg zone");
            }
        }
        // Core switches form their own zone.
        for c in 32..36 {
            assert_eq!(t.zone(c), 4, "core zone");
        }
    }

    #[test]
    fn dumbbell_zones_split_at_the_bottleneck() {
        let t = Topology::dumbbell(2, 100.0, 1000);
        assert_eq!(t.num_zones(), 2);
        assert_eq!((t.zone(0), t.zone(1)), (0, 0));
        assert_eq!((t.zone(2), t.zone(3)), (1, 1));
        assert_eq!((t.zone(4), t.zone(5)), (0, 1)); // left/right switches
    }

    #[test]
    fn from_edges_topologies_are_single_zone() {
        let t = Topology::from_edges(2, 1, &[(0, 2, 10.0, 100), (1, 2, 10.0, 100)]);
        assert_eq!(t.num_zones(), 1);
    }

    #[test]
    fn all_fat_tree_links_share_configured_parameters() {
        let t = Topology::fat_tree(4, 40.0, 500);
        for l in &t.links {
            assert_eq!(l.bandwidth_gbps, 40.0);
            assert_eq!(l.latency_ns, 500);
        }
    }
}
