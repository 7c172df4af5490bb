//! Workload definitions and their seeded inputs.
//!
//! Every workload replays `cells` independent networks ("cells"), one
//! after another, each with its own engine. One network's figures swing
//! with the seed (where its hotspot pairs land decides how contended it
//! is), so a run sums several independent cells to keep the per-seed
//! spread of every metric inside its bound.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use ufp_engine::{Arrival, TopologyEvent};
use ufp_netgraph::generators;
use ufp_netgraph::graph::Graph;
use ufp_shard::{NodeBlocks, Partitioner, ShardPlan};
use ufp_workloads::arrivals::{arrival_trace, ArrivalProcess, ArrivalTraceConfig};
use ufp_workloads::failures::{failure_trace, FailureTraceConfig};
use ufp_workloads::random_ufp::required_b;
use ufp_workloads::sharded::{block_shard_map, sharded_arrival_trace, ShardedTraceConfig};

/// One workload: the generator flags of each cell plus how it is driven.
#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    /// Independent networks per run.
    pub cells: usize,
    pub nodes: usize,
    pub edges: usize,
    /// `> 0`: community digraph with this many id-block communities.
    pub communities: usize,
    pub inter_edges: usize,
    pub cross_fraction: f64,
    pub eps: f64,
    /// Fixed endpoint pairs per network (0: fresh uniform pairs).
    pub hotspots: usize,
    pub mean: f64,
    pub churn: (u32, u32),
    pub epochs: usize,
    /// Critical-value payments (otherwise none).
    pub paid: bool,
    /// `1`: a single `Engine`; more: a `ShardedEngine` over node blocks.
    pub shards: usize,
    pub flap_rate: f64,
    pub outage_rate: f64,
    /// Take a snapshot after every `snapshot_every`-th epoch (0: never).
    pub snapshot_every: usize,
    /// Restore from the snapshot taken after this epoch and continue on
    /// the restored engine (0: never). A multiple of `snapshot_every`.
    pub restore_after: usize,
    /// Traced run only: solve the fractional LP on every `lp_every`-th
    /// epoch's frozen inputs (0: never).
    pub lp_every: usize,
}

const BASE: Spec = Spec {
    name: "",
    cells: 1,
    nodes: 0,
    edges: 0,
    communities: 0,
    inter_edges: 0,
    cross_fraction: 0.0,
    eps: 0.5,
    hotspots: 0,
    mean: 0.0,
    churn: (2, 4),
    epochs: 0,
    paid: false,
    shards: 1,
    flap_rate: 0.0,
    outage_rate: 0.0,
    snapshot_every: 0,
    restore_after: 0,
    lp_every: 0,
};

/// The benchmark's workloads. `WORKLOADS.md` gives the reason for each.
pub const SPECS: [Spec; 3] = [
    // Pricing-bound: critical-value payments on small, contended cells.
    Spec {
        name: "paid_contended",
        cells: 2,
        nodes: 40,
        edges: 160,
        eps: 0.8,
        mean: 60.0,
        epochs: 40,
        paid: true,
        lp_every: 20,
        ..BASE
    },
    // Allocation-bound: no payments, thousands of arrivals per epoch.
    Spec {
        name: "bulk_alloc",
        cells: 6,
        nodes: 250,
        edges: 1250,
        eps: 0.5,
        hotspots: 16,
        mean: 2000.0,
        epochs: 10,
        ..BASE
    },
    // Sharded, paid, with link failures, snapshots and one restore.
    Spec {
        name: "sharded_faults",
        cells: 4,
        nodes: 120,
        edges: 480,
        communities: 4,
        inter_edges: 24,
        cross_fraction: 0.15,
        eps: 0.7,
        hotspots: 8,
        mean: 60.0,
        epochs: 30,
        paid: true,
        shards: 4,
        flap_rate: 0.3,
        outage_rate: 0.1,
        snapshot_every: 5,
        restore_after: 15,
        ..BASE
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

impl Spec {
    /// The cell's generator settings, in `engine_sim`'s flag syntax.
    pub fn flags(&self) -> String {
        let mut f = format!(
            "--nodes {} --edges {} --eps {} --mean {} --churn {},{} --epochs {} \
             --payments {} --shards {}",
            self.nodes,
            self.edges,
            self.eps,
            self.mean,
            self.churn.0,
            self.churn.1,
            self.epochs,
            if self.paid { "critical" } else { "none" },
            self.shards
        );
        f += &match self.hotspots {
            0 => " (uniform endpoint pairs)".to_string(),
            k => format!(" --hotspots {k}"),
        };
        if self.communities > 0 {
            f += &format!(
                " --communities {} --inter-edges {} --cross-fraction {}",
                self.communities, self.inter_edges, self.cross_fraction
            );
        }
        if self.flap_rate > 0.0 || self.outage_rate > 0.0 {
            f += &format!(
                " --flap-rate {} --outage-rate {}",
                self.flap_rate, self.outage_rate
            );
        }
        f
    }
}

/// The generated inputs of one cell.
pub struct Cell {
    pub graph: Arc<Graph>,
    pub trace: Vec<Vec<Arrival>>,
    /// Topology events applied before each epoch (empty: no faults).
    pub faults: Vec<Vec<TopologyEvent>>,
    /// Node-block partition (sharded workloads only).
    pub plan: Option<ShardPlan>,
}

/// Inputs of one run plus how long each generator took.
pub struct Inputs {
    pub cells: Vec<Cell>,
    pub graph_s: f64,
    pub trace_s: f64,
    pub total_s: f64,
}

/// SplitMix64: independent per-cell, per-stream seeds from the run seed.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Generate every cell's graph, arrival trace and failure trace from
/// `seed`. `construct` builds (and drops) the engines the replay will
/// use, so their construction counts toward set-up time.
pub fn generate(spec: &Spec, seed: u64, construct: impl Fn(&Cell)) -> Inputs {
    let started = Instant::now();
    let (mut graph_s, mut trace_s) = (0.0, 0.0);
    let cells = (0..spec.cells as u64)
        .map(|c| {
            let t = Instant::now();
            let b = required_b(spec.edges, spec.eps).ceil();
            let mut rng = StdRng::seed_from_u64(mix(seed, 3 * c));
            let graph = if spec.communities > 0 {
                let k = spec.communities;
                generators::community_digraph(
                    k,
                    spec.nodes / k,
                    spec.edges / k,
                    spec.inter_edges,
                    (b, 2.0 * b),
                    (b, 2.0 * b),
                    &mut rng,
                )
            } else {
                generators::gnm_digraph(spec.nodes, spec.edges, (b, 2.0 * b), &mut rng)
            };
            graph_s += t.elapsed().as_secs_f64();

            let t = Instant::now();
            let process = ArrivalProcess::Poisson { mean: spec.mean };
            let trace_seed = mix(seed, 3 * c + 1);
            let trace = if spec.communities > 0 {
                let labels = block_shard_map(graph.num_nodes(), spec.communities);
                sharded_arrival_trace(
                    &graph,
                    &labels,
                    &ShardedTraceConfig {
                        epochs: spec.epochs,
                        process,
                        cross_fraction: spec.cross_fraction,
                        hotspot_pairs: Some((spec.hotspots / spec.communities).max(1)),
                        demand_range: (0.2, 1.0),
                        ttl_range: Some(spec.churn),
                        seed: trace_seed,
                        ..Default::default()
                    },
                )
            } else {
                arrival_trace(
                    &graph,
                    &ArrivalTraceConfig {
                        epochs: spec.epochs,
                        process,
                        hotspot_pairs: (spec.hotspots > 0).then_some(spec.hotspots),
                        demand_range: (0.2, 1.0),
                        ttl_range: Some(spec.churn),
                        seed: trace_seed,
                        ..Default::default()
                    },
                )
            };
            let faults = if spec.flap_rate > 0.0 || spec.outage_rate > 0.0 {
                failure_trace(
                    &graph,
                    &FailureTraceConfig {
                        epochs: spec.epochs as u32,
                        seed: mix(seed, 3 * c + 2),
                        flap_rate: spec.flap_rate,
                        outage_rate: spec.outage_rate,
                        ..FailureTraceConfig::default()
                    },
                )
            } else {
                Vec::new()
            };
            trace_s += t.elapsed().as_secs_f64();

            let plan = (spec.shards > 1).then(|| NodeBlocks.partition(&graph, spec.shards));
            let cell = Cell {
                graph: Arc::new(graph),
                trace,
                faults,
                plan,
            };
            construct(&cell);
            cell
        })
        .collect();
    Inputs {
        cells,
        graph_s,
        trace_s,
        total_s: started.elapsed().as_secs_f64(),
    }
}

/// Digest of every generated input, to check that set-up is a pure
/// function of the seed.
pub fn inputs_digest(inputs: &Inputs) -> u64 {
    let mut d = crate::stats::Digest::default();
    for cell in &inputs.cells {
        d.u64(cell.graph.num_edges() as u64);
        for e in 0..cell.graph.num_edges() {
            let edge = cell.graph.edge(ufp_netgraph::ids::EdgeId(e as u32));
            d.u64(u64::from(edge.src.0) << 32 | u64::from(edge.dst.0));
            d.f64(edge.capacity);
        }
        for batch in &cell.trace {
            d.u64(batch.len() as u64);
            for a in batch {
                d.u64(u64::from(a.request.src.0) << 32 | u64::from(a.request.dst.0));
                d.f64(a.request.demand);
                d.f64(a.request.value);
                d.u64(a.ttl.map_or(u64::MAX, u64::from));
            }
        }
        for events in &cell.faults {
            d.bytes(format!("{events:?}").as_bytes());
        }
    }
    d.finish()
}
