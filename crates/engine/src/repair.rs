//! Topology-repair decisions shared by [`crate::Engine`] and sharded
//! orchestrators: the deterministic eviction scan, the
//! effective-capacity feasibility audit, and the re-admission of an
//! evicted flow. A sharded engine stays bit-identical to a single
//! engine only if both make these decisions the same way over the same
//! admission order, so both call the functions here.

use ufp_core::Request;
use ufp_netgraph::path::Path;
use ufp_netgraph::topology::Topology;

use crate::engine::Arrival;

/// One active admission as the repair pass sees it: the caller's index
/// for it (what [`select_evictions`] returns), its route, its demand,
/// and its eviction key `(admission epoch, request id)`. Callers list
/// the active admissions in admission order — the order loads are
/// summed in, which the repaired residual state must reproduce.
pub type ActiveFlow<'a> = (usize, &'a Path, f64, (u64, u32));

/// Whether `load` exceeds `cap` beyond the feasibility tolerance.
fn over(load: f64, cap: f64) -> bool {
    load > cap * (1.0 + 1e-9) + 1e-9
}

/// Per-edge committed load of `active`, summed in admission order.
fn edge_loads(active: &[ActiveFlow<'_>], edges: usize) -> Vec<f64> {
    let mut loads = vec![0.0f64; edges];
    for &(_, path, demand, _) in active {
        for &e in path.edges() {
            loads[e.index()] += demand;
        }
    }
    loads
}

/// Deterministic eviction scan over the post-mutation overlay:
/// committed loads are re-derived from `active`, then the admissions
/// are visited in eviction-key order and evicted while they touch a
/// still-violating edge. The violating set only shrinks as loads drop,
/// so one ordered pass suffices and the result is independent of scan
/// bookkeeping. Returns the evicted admissions' caller indices in
/// eviction order.
pub fn select_evictions(active: &[ActiveFlow<'_>], topology: &Topology) -> Vec<usize> {
    let caps = topology.effective_capacities();
    let mut loads = edge_loads(active, caps.len());
    let mut violating: Vec<bool> = loads.iter().zip(&caps).map(|(&l, &c)| over(l, c)).collect();
    let mut remaining = violating.iter().filter(|&&v| v).count();
    if remaining == 0 {
        return Vec::new();
    }
    let mut order: Vec<&ActiveFlow<'_>> = active.iter().collect();
    order.sort_by_key(|flow| flow.3);
    let mut evict = Vec::new();
    for &(index, path, demand, _) in order {
        if remaining == 0 {
            break;
        }
        if !path.edges().iter().any(|e| violating[e.index()]) {
            continue;
        }
        for &e in path.edges() {
            let e = e.index();
            loads[e] -= demand;
            let was = violating[e];
            violating[e] = over(loads[e], caps[e]);
            if was && !violating[e] {
                remaining -= 1;
            }
        }
        evict.push(index);
    }
    evict
}

/// Audit `active` against the **effective** (topology-aware)
/// capacities: recompute per-edge loads and check every edge within the
/// feasibility tolerance. This is the post-mutation replacement for
/// `check_feasible`, whose base-graph capacities are wrong once links
/// have been resized.
pub fn verify_feasibility(active: &[ActiveFlow<'_>], topology: &Topology) -> Result<(), String> {
    let caps = topology.effective_capacities();
    let loads = edge_loads(active, caps.len());
    for (e, (&load, &cap)) in loads.iter().zip(&caps).enumerate() {
        if over(load, cap) {
            return Err(format!(
                "edge {e} overloaded: load {load} > effective capacity {cap}"
            ));
        }
    }
    Ok(())
}

/// The re-admission arrival for an evicted flow, submitted in epoch
/// `next_epoch`: the original request with its absolute expiry epoch
/// preserved. A flow whose TTL lapses by `next_epoch` is not re-queued
/// (it would be released on arrival).
pub fn readmission(request: Request, expires_at: Option<u64>, next_epoch: u64) -> Option<Arrival> {
    match expires_at {
        None => Some(Arrival::permanent(request)),
        Some(exp) if exp > next_epoch => {
            Some(Arrival::with_ttl(request, (exp - next_epoch) as u32))
        }
        Some(_) => None,
    }
}
