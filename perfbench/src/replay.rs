//! Closed-loop replay of one workload through the engines' public API,
//! with the output checks every run applies.
//!
//! One caller drives each cell: an epoch is the topology repair, the
//! readmission drain and the batch call (plus, where the workload asks
//! for them, the snapshot and the restore that follow it), and the next
//! epoch starts only after the previous one returned. Untraced replays
//! call `submit_batch`; traced replays drive a single engine as
//! `open_epoch` → `plan_epoch_in` → `commit_epoch` (equivalent while
//! health telemetry is off) and time every layer call from here, with
//! the `ufp_obs` recorder on for its counts.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use ufp_core::{Request, StopReason};
use ufp_engine::{
    Admission, Arrival, Engine, EngineConfig, EngineEvent, EpochReport, EventLevel, HealthConfig,
    PaymentPolicy, TopologyEvent,
};
use ufp_lp::{sanitize_commodities, solve_fractional_ufp_with_caps, Commodity};
use ufp_netgraph::ids::EdgeId;
use ufp_obs::{Phase, Recorder, PHASE_COUNT};
use ufp_par::Pool;
use ufp_shard::{ShardConfig, ShardedEngine};

use crate::stats::Digest;
use crate::workload::{Cell, Spec};

/// Span buffer of a traced cell: large enough that no `payment.probe`
/// span is dropped on any workload (a dropped span prints a warning).
const SPAN_CAPACITY: usize = 1 << 21;

/// How a replay runs.
#[derive(Clone, Copy, Debug)]
pub struct Mode {
    pub threads: usize,
    /// Recorder on and every layer call timed.
    pub traced: bool,
    /// Restore-and-continue at `Spec::restore_after` (otherwise the run
    /// is unbroken).
    pub restore: bool,
    /// Solve the fractional LP every `Spec::lp_every` epochs (traced
    /// single-engine replays only; outside the timed epochs).
    pub lp: bool,
}

/// Per-layer totals of one replay.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    pub open_s: f64,
    pub plan_s: f64,
    pub commit_s: f64,
    pub submit_s: f64,
    pub repair_s: f64,
    pub readmit_s: f64,
    pub snapshot_s: f64,
    pub restore_s: f64,
    pub lp_s: f64,
    pub steps: u64,
    pub guard_stops: u64,
    pub released: u64,
    pub evicted: u64,
    pub readmitted: u64,
    pub cross: u64,
    pub snapshots: u64,
    pub snapshot_bytes: u64,
    pub lp_samples: u64,
    pub lp_iterations: u64,
    pub lp_ratio_sum: f64,
    pub lease_granted: f64,
    pub lease_used: f64,
    /// Recorder phase totals (inclusive: nested spans overlap).
    pub phase_ns: [u64; PHASE_COUNT],
    pub phase_hits: [u64; PHASE_COUNT],
    /// Σ `suffix_len` over `payment.probe` spans.
    pub steps_replayed: u64,
    pub spans_dropped: u64,
}

/// Everything one replay produced.
#[derive(Clone, Debug, Default)]
pub struct Replay {
    /// Wall time of every epoch, in ms.
    pub epoch_ms: Vec<f64>,
    /// Σ epoch wall time, in s.
    pub wall_s: f64,
    /// Σ epoch wall time without snapshot and restore calls, in s.
    pub core_s: f64,
    pub epochs: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub arrivals: u64,
    pub accepted: u64,
    pub value: f64,
    /// Σ payments minus Σ refunds.
    pub revenue: f64,
    /// Digest of reports, events, admissions and payments.
    pub digest: u64,
    pub layers: Layers,
}

fn engine_config(spec: &Spec, threads: usize, obs: Recorder) -> EngineConfig {
    EngineConfig {
        events: EventLevel::Epoch,
        payments: if spec.paid {
            PaymentPolicy::critical_value()
        } else {
            PaymentPolicy::None
        },
        obs,
        health: HealthConfig::default(),
        ..EngineConfig::with_epsilon(spec.eps).parallel(Pool::new(threads))
    }
}

/// The engine a cell is replayed on.
pub enum Target {
    Single(Box<Engine>),
    Sharded(Box<ShardedEngine>),
}

impl Target {
    pub fn new(spec: &Spec, cell: &Cell, threads: usize, obs: Recorder) -> Target {
        let config = engine_config(spec, threads, obs);
        match &cell.plan {
            None => Target::Single(Box::new(Engine::from_shared(
                Arc::clone(&cell.graph),
                config,
            ))),
            Some(plan) => Target::Sharded(Box::new(ShardedEngine::new(
                Arc::clone(&cell.graph),
                plan.clone(),
                ShardConfig {
                    engine: config,
                    ..ShardConfig::default()
                },
            ))),
        }
    }

    fn restore(&self, bytes: &[u8], cell: &Cell) -> Result<Target, String> {
        let err = |e: ufp_engine::CodecError| format!("restore failed: {e}");
        Ok(match self {
            Target::Single(e) => Target::Single(Box::new(
                Engine::restore_from_bytes(bytes, Arc::clone(&cell.graph), e.config().clone())
                    .map_err(err)?,
            )),
            Target::Sharded(e) => Target::Sharded(Box::new(
                ShardedEngine::restore_from_bytes(
                    bytes,
                    Arc::clone(&cell.graph),
                    e.partition().clone(),
                    e.config().clone(),
                )
                .map_err(err)?,
            )),
        })
    }

    fn apply_topology(
        &mut self,
        events: &[TopologyEvent],
    ) -> Result<ufp_engine::TopologyReport, String> {
        match self {
            Target::Single(e) => e.apply_topology(events),
            Target::Sharded(e) => e.apply_topology(events),
        }
        .map_err(|e| format!("topology event refused: {e}"))
    }

    fn drain_readmissions(&mut self) -> Vec<Arrival> {
        match self {
            Target::Single(e) => e.drain_readmissions(),
            Target::Sharded(e) => e.drain_readmissions(),
        }
    }

    fn snapshot_bytes(&self) -> Vec<u8> {
        match self {
            Target::Single(e) => e.snapshot_bytes(),
            Target::Sharded(e) => e.snapshot_bytes(),
        }
    }

    fn drain_events(&mut self) -> Vec<EngineEvent> {
        match self {
            Target::Single(e) => e.drain_events(),
            Target::Sharded(e) => e.drain_events(),
        }
    }

    fn verify_active_feasibility(&self) -> Result<(), String> {
        match self {
            Target::Single(e) => e.verify_active_feasibility(),
            Target::Sharded(e) => e.verify_active_feasibility(),
        }
    }

    fn requests(&self) -> &[Request] {
        match self {
            Target::Single(e) => e.requests(),
            Target::Sharded(e) => e.requests(),
        }
    }

    fn num_admissions(&self) -> usize {
        match self {
            Target::Single(e) => e.admissions().len(),
            Target::Sharded(e) => e.num_admissions(),
        }
    }

    /// Admissions `from..` in admission order.
    fn admissions_from(&self, from: usize) -> Vec<Admission> {
        match self {
            Target::Single(e) => e.admissions()[from..].to_vec(),
            Target::Sharded(e) => (from..e.num_admissions()).map(|i| e.admission(i)).collect(),
        }
    }

    fn metrics(&self) -> &ufp_engine::EngineMetrics {
        match self {
            Target::Single(e) => e.metrics(),
            Target::Sharded(e) => e.metrics(),
        }
    }
}

/// Individual rationality: every admission pays at least 0 and at most
/// its declared value. NaN payments fail.
pub fn check_payments(admissions: &[Admission], requests: &[Request]) -> Result<(), String> {
    for a in admissions {
        let value = requests[a.request.index()].value;
        if !(a.payment >= 0.0 && a.payment <= value) {
            return Err(format!(
                "request {} pays {} outside [0, declared value {value}]",
                a.request.index(),
                a.payment
            ));
        }
    }
    Ok(())
}

/// Σ refunds in the event log must equal Σ payments of the evicted
/// admissions (up to summation order).
pub fn check_refunds(event_refunds: f64, admissions: &[Admission]) -> Result<(), String> {
    let evicted: f64 = admissions
        .iter()
        .filter(|a| a.evicted)
        .map(|a| a.payment)
        .sum();
    let tol = 1e-9 * event_refunds.abs().max(evicted.abs()).max(1.0);
    if (event_refunds - evicted).abs() <= tol {
        Ok(())
    } else {
        Err(format!(
            "refunds {event_refunds} != payments of evicted admissions {evicted}"
        ))
    }
}

fn digest_admissions(d: &mut Digest, admissions: &[Admission]) {
    for a in admissions {
        d.u64(a.request.index() as u64);
        d.u64(a.epoch);
        d.u64(a.expires_at.unwrap_or(u64::MAX));
        d.f64(a.payment);
        d.u64(u64::from(a.released) | u64::from(a.evicted) << 1);
        d.u64(a.path.edges().len() as u64);
        for e in a.path.edges() {
            d.u64(e.index() as u64);
        }
    }
}

fn digest_report(d: &mut Digest, r: &EpochReport) {
    d.u64(r.epoch);
    d.u64(r.arrivals as u64);
    d.u64(r.accepted as u64);
    d.u64(r.rejected as u64);
    d.u64(r.released as u64);
    d.f64(r.value_admitted);
    d.f64(r.revenue);
    d.u64(r.stop as u64);
    d.f64(r.min_residual);
    d.f64(r.total_utilization);
}

/// Frozen inputs of one LP solve: the masked pre-plan residuals and the
/// epoch's batch.
struct LpInput {
    capacities: Vec<f64>,
    commodities: Vec<Commodity>,
}

fn capture_lp(engine: &Engine, batch: &[Arrival]) -> LpInput {
    let config = engine.config();
    let floor = config
        .residual_floor
        .resolve(engine.graph().num_edges(), config.epsilon);
    let residual = engine.residual();
    let usable = residual.usable_mask(floor);
    let topology = engine.topology();
    let capacities = residual
        .residuals()
        .into_iter()
        .zip(usable)
        .enumerate()
        .map(|(e, (c, u))| {
            if u && topology.available(EdgeId(e as u32)) {
                c
            } else {
                0.0
            }
        })
        .collect();
    let commodities = batch
        .iter()
        .map(|a| Commodity {
            src: a.request.src,
            dst: a.request.dst,
            demand: a.request.demand,
            value: a.request.value,
        })
        .collect();
    LpInput {
        capacities,
        commodities,
    }
}

/// Solve the fractional LP of a frozen epoch; returns (iterations,
/// online value ÷ fractional bound).
fn solve_lp(engine: &Engine, input: &LpInput, online_value: f64) -> (u64, f64) {
    let (kept, _) = sanitize_commodities(&input.commodities);
    if kept.is_empty() {
        return (0, 1.0);
    }
    let health = HealthConfig::default();
    let sol = solve_fractional_ufp_with_caps(
        engine.graph(),
        &input.capacities,
        &kept,
        health.regret_epsilon,
        health.regret_max_iterations,
    );
    let ratio = if sol.upper_bound.is_finite() && sol.upper_bound > 0.0 {
        (online_value / sol.upper_bound).clamp(0.0, 1.0)
    } else {
        1.0
    };
    (sol.iterations as u64, ratio)
}

/// Replay every cell of a run and merge the results.
pub fn replay(spec: &Spec, cells: &[Cell], mode: Mode) -> Replay {
    let mut out = Replay::default();
    let mut digest = Digest::default();
    for cell in cells {
        let d = replay_cell(spec, cell, mode, &mut out);
        digest.u64(d);
    }
    out.digest = digest.finish();
    out
}

/// Per-epoch outcome handed from the (panic-guarded) epoch body back to
/// the replay loop.
struct Epoch {
    report: EpochReport,
    wall_s: f64,
    /// The part of `wall_s` spent in snapshot and restore calls.
    codec_s: f64,
    lp: Option<LpInput>,
}

fn replay_cell(spec: &Spec, cell: &Cell, mode: Mode, out: &mut Replay) -> u64 {
    let obs = if mode.traced {
        Recorder::enabled_with_capacity(SPAN_CAPACITY)
    } else {
        Recorder::off()
    };
    let mut target = Target::new(spec, cell, mode.threads, obs.clone());
    let mut digest = Digest::default();
    let mut checked = 0usize;
    let mut event_refunds = 0.0f64;
    let fail = |out: &mut Replay, epoch: usize, why: String| {
        out.failed += 1;
        out.errors
            .push(format!("{}: epoch {epoch}: {why}", spec.name));
    };

    for (t, scheduled) in cell.trace.iter().enumerate() {
        let number = t + 1;
        out.epochs += 1;
        let layers = &mut out.layers;
        let body = catch_unwind(AssertUnwindSafe(|| -> Result<Epoch, String> {
            let started = Instant::now();
            if let Some(events) = cell.faults.get(t).filter(|e| !e.is_empty()) {
                let s = Instant::now();
                let repair = target.apply_topology(events)?;
                layers.repair_s += s.elapsed().as_secs_f64();
                layers.evicted += repair.evicted as u64;
            }
            let s = Instant::now();
            let readmitted = target.drain_readmissions();
            layers.readmit_s += s.elapsed().as_secs_f64();
            layers.readmitted += readmitted.len() as u64;
            let merged: Vec<Arrival>;
            let batch: &[Arrival] = if readmitted.is_empty() {
                scheduled
            } else {
                merged = readmitted
                    .into_iter()
                    .chain(scheduled.iter().copied())
                    .collect();
                &merged
            };

            let mut lp = None;
            let mut lp_capture_s = 0.0;
            let report = match &mut target {
                Target::Single(e) if mode.traced => {
                    let s = Instant::now();
                    let released = e.open_epoch(batch.len());
                    layers.open_s += s.elapsed().as_secs_f64();
                    if mode.lp && spec.lp_every > 0 && number % spec.lp_every == 0 {
                        let s = Instant::now();
                        lp = Some(capture_lp(e, batch));
                        lp_capture_s = s.elapsed().as_secs_f64();
                    }
                    let s = Instant::now();
                    let plan = e.plan_epoch_in(batch, released, None);
                    layers.plan_s += s.elapsed().as_secs_f64();
                    layers.steps += plan.num_steps() as u64;
                    let s = Instant::now();
                    let report = e.commit_epoch(plan, None);
                    layers.commit_s += s.elapsed().as_secs_f64();
                    report
                }
                Target::Single(e) => e.submit_batch(batch),
                Target::Sharded(e) => {
                    let s = Instant::now();
                    let report = e.submit_batch(batch);
                    layers.submit_s += s.elapsed().as_secs_f64();
                    report
                }
            };

            let mut codec_s = 0.0;
            if spec.snapshot_every > 0 && number % spec.snapshot_every == 0 {
                let s = Instant::now();
                let bytes = target.snapshot_bytes();
                codec_s = s.elapsed().as_secs_f64();
                layers.snapshot_s += codec_s;
                layers.snapshots += 1;
                layers.snapshot_bytes += bytes.len() as u64;
                if mode.restore && number == spec.restore_after {
                    let s = Instant::now();
                    target = target.restore(&bytes, cell)?;
                    let restore_s = s.elapsed().as_secs_f64();
                    layers.restore_s += restore_s;
                    codec_s += restore_s;
                }
            }
            let wall_s = started.elapsed().as_secs_f64() - lp_capture_s;
            Ok(Epoch {
                report,
                wall_s,
                codec_s,
                lp,
            })
        }));
        let epoch = match body {
            Ok(Ok(epoch)) => epoch,
            Ok(Err(why)) => {
                fail(out, number, why);
                return digest.finish();
            }
            Err(panic) => {
                let why = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                fail(out, number, format!("panicked: {why}"));
                return digest.finish();
            }
        };

        // Bookkeeping and checks, outside the timed epoch.
        let r = &epoch.report;
        out.epoch_ms.push(epoch.wall_s * 1e3);
        out.wall_s += epoch.wall_s;
        out.core_s += epoch.wall_s - epoch.codec_s;
        out.arrivals += r.arrivals as u64;
        out.accepted += r.accepted as u64;
        out.value += r.value_admitted;
        out.layers.released += r.released as u64;
        out.layers.guard_stops += u64::from(r.stop == StopReason::Guard);
        digest_report(&mut digest, r);
        for event in target.drain_events() {
            if let EngineEvent::Evicted { refund, .. } = event {
                event_refunds += refund;
            }
            digest.bytes(format!("{event:?}").as_bytes());
        }
        let fresh = target.admissions_from(checked);
        checked = target.num_admissions();
        let check = target
            .verify_active_feasibility()
            .and_then(|()| check_payments(&fresh, target.requests()));
        if let Err(why) = check {
            fail(out, number, why);
        }
        if let (Some(input), Target::Single(e)) = (&epoch.lp, &target) {
            let s = Instant::now();
            let (iterations, ratio) = solve_lp(e, input, r.value_admitted);
            out.layers.lp_s += s.elapsed().as_secs_f64();
            out.layers.lp_samples += 1;
            out.layers.lp_iterations += iterations;
            out.layers.lp_ratio_sum += ratio;
        }
    }

    let admissions = target.admissions_from(0);
    digest_admissions(&mut digest, &admissions);
    if let Err(why) = check_refunds(event_refunds, &admissions) {
        fail(out, cell.trace.len(), why);
    }
    let metrics = target.metrics();
    out.revenue += metrics.revenue - metrics.refunded;

    let layers = &mut out.layers;
    if let Target::Sharded(e) = &target {
        let ledger = e.ledger();
        for s in 0..e.shards() {
            layers.lease_granted += ledger.granted(s);
            layers.lease_used += ledger.used(s);
        }
        let partition = e.partition();
        layers.cross += cell
            .trace
            .iter()
            .flatten()
            .filter(|a| partition.request_shard(&a.request).is_none())
            .count() as u64;
    }
    if let Some(snap) = obs.snapshot() {
        for p in Phase::ALL {
            layers.phase_ns[p.index()] += snap.phase_ns[p.index()];
            layers.phase_hits[p.index()] += snap.phase_hits[p.index()];
        }
        layers.steps_replayed += snap
            .spans
            .iter()
            .filter(|s| s.phase == Phase::PaymentProbe)
            .filter_map(|s| s.attr.map(|(_, v)| v))
            .sum::<u64>();
        layers.spans_dropped += snap.spans_dropped;
    }
    digest.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate, spec};

    /// One short cell; sharded runs still snapshot and restore.
    fn small(name: &str) -> Spec {
        let full = spec(name).unwrap();
        Spec {
            cells: 1,
            epochs: 8,
            snapshot_every: full.snapshot_every.min(2),
            restore_after: full.restore_after.min(4),
            ..full.clone()
        }
    }

    #[test]
    fn corrupted_payment_trips_the_ir_check() {
        let spec = small("paid_contended");
        let inputs = generate(&spec, 3, |_| {});
        let cell = &inputs.cells[0];
        let Target::Single(mut engine) = Target::new(&spec, cell, 1, Recorder::off()) else {
            unreachable!("paid_contended runs a single engine");
        };
        for batch in &cell.trace {
            engine.submit_batch(batch);
        }
        let mut admissions = engine.admissions().to_vec();
        assert!(
            admissions.iter().any(|a| a.payment > 0.0),
            "no payment charged"
        );
        check_payments(&admissions, engine.requests()).unwrap();

        let value = engine.requests()[admissions[0].request.index()].value;
        for corrupt in [value * (1.0 + 1e-12), -1e-12, f64::NAN] {
            admissions[0].payment = corrupt;
            assert!(check_payments(&admissions, engine.requests()).is_err());
        }
    }

    #[test]
    fn refund_identity_flags_a_missing_refund() {
        let spec = small("paid_contended");
        let inputs = generate(&spec, 3, |_| {});
        let Target::Single(mut engine) = Target::new(&spec, &inputs.cells[0], 1, Recorder::off())
        else {
            unreachable!("paid_contended runs a single engine");
        };
        for batch in &inputs.cells[0].trace {
            engine.submit_batch(batch);
        }
        let mut admissions = engine.admissions().to_vec();
        assert!(check_refunds(0.0, &admissions).is_ok());
        let paid = admissions.iter().position(|a| a.payment > 0.0).unwrap();
        admissions[paid].evicted = true;
        let payment = admissions[paid].payment;
        assert!(check_refunds(payment, &admissions).is_ok());
        assert!(check_refunds(0.0, &admissions).is_err());
    }

    #[test]
    fn digest_matches_across_modes_and_restore() {
        for name in ["paid_contended", "sharded_faults"] {
            let spec = small(name);
            let inputs = generate(&spec, 11, |_| {});
            let run = |threads, traced, restore| {
                let mode = Mode {
                    threads,
                    traced,
                    restore,
                    lp: traced,
                };
                let r = replay(&spec, &inputs.cells, mode);
                assert_eq!(r.failed, 0, "{:?}", r.errors);
                assert_eq!(r.layers.restore_s > 0.0, restore && spec.restore_after > 0);
                r.digest
            };
            let reference = run(1, false, false);
            assert_eq!(run(2, false, true), reference, "{name}");
            assert_eq!(run(2, true, false), reference, "{name}");
            assert_eq!(run(1, true, true), reference, "{name}");
        }
    }

    #[test]
    fn digest_changes_with_the_seed() {
        let spec = small("paid_contended");
        let mode = Mode {
            threads: 1,
            traced: false,
            restore: false,
            lp: false,
        };
        let a = replay(&spec, &generate(&spec, 1, |_| {}).cells, mode);
        let b = replay(&spec, &generate(&spec, 2, |_| {}).cells, mode);
        assert_ne!(a.digest, b.digest);
    }
}
