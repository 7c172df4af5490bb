//! `perfbench` — the admission engine's benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paid_contended --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Builds every input from `--seed`, times closed-loop replays with
//! tracing off for `--seconds`, then replays twice more with the
//! recorder on (at all cores and at one thread) for the per-layer
//! figures and the identity checks. Prints the host record and every
//! metric by name and unit, then, as the last line, one JSON object:
//! the end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`. Exits 1 when any output check fails.

mod host;
mod replay;
mod stats;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use ufp_obs::Phase;

use crate::host::Host;
use crate::replay::{replay, Mode, Replay, Target};
use crate::stats::{median, percentile, tail_percentile};
use crate::workload::{generate, inputs_digest, spec, Spec};

/// Set-up runs at least this many times and for at least
/// `SETUP_MIN_S` seconds (at most `SETUP_MAX_REPS` times); `setup_s` is
/// the median.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_S: f64 = 0.25;
const SETUP_MAX_REPS: usize = 2000;

/// End-to-end metrics (`--trace 0`), as listed in `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("throughput_rps", "req/s"),
    ("epoch_p50_ms", "ms"),
    ("epoch_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("admitted_value", "value"),
    ("accept_rate", "ratio"),
];

/// Per-layer metrics (`--trace 1`), as listed in `BENCHMARK.json`.
const PER_LAYER: [(&str, &str); 33] = [
    ("workloads.gen_ms", "ms"),
    ("netgraph.gen_ms", "ms"),
    ("engine.open_ms", "ms"),
    ("engine.plan_ms", "ms"),
    ("engine.commit_ms", "ms"),
    ("engine.coverage", "ratio"),
    ("core.steps", "count"),
    ("core.guard_stop_share", "ratio"),
    ("engine.released", "count"),
    ("mechanism.winners", "count"),
    ("mechanism.ms_per_winner", "ms"),
    ("mechanism.revenue", "value"),
    ("core.dijkstra_calls", "count"),
    ("core.dirty_refreshes", "count"),
    ("mechanism.probes", "count"),
    ("mechanism.steps_replayed", "count"),
    ("core.dijkstra_incl_ms", "ms"),
    ("mechanism.probe_incl_ms", "ms"),
    ("shard.submit_ms", "ms"),
    ("shard.repair_ms", "ms"),
    ("shard.readmit_ms", "ms"),
    ("shard.evicted", "count"),
    ("shard.readmitted", "count"),
    ("shard.cross_share", "ratio"),
    ("shard.lease_util", "ratio"),
    ("shard.snapshot_ms", "ms"),
    ("shard.snapshot_bytes", "bytes"),
    ("shard.restore_ms", "ms"),
    ("lp.solve_ms", "ms"),
    ("lp.iterations", "count"),
    ("lp.regret_ratio", "ratio"),
    ("par.speedup", "x"),
    ("obs.overhead_pct", "%"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"want 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// `a / b`, or 0 when `b` is 0 (a layer the workload does not use).
fn share(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn json_metrics(metrics: &[(&str, &str)], value: impl Fn(&str) -> f64) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                value(name)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = spec(&args.workload) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    let host = Host::probe();
    let threads = host.nproc;
    println!(
        "perfbench workload={} seed={} seconds={} cells={} flags: {}",
        spec.name,
        args.seed,
        args.seconds,
        spec.cells,
        spec.flags()
    );
    println!("host {}", host.json(threads));
    if host.oversubscribed(threads) {
        println!("warning: {threads} threads exceed the cores; thread scaling is not measured");
    }
    run(spec, &args, threads)
}

fn run(spec: &Spec, args: &Args, threads: usize) -> ExitCode {
    let mut errors: Vec<String> = Vec::new();

    // Set-up: generators and engine construction, repeated.
    let construct = |cell: &workload::Cell| {
        drop(Target::new(spec, cell, threads, ufp_obs::Recorder::off()));
    };
    let mut setups = Vec::new();
    let mut inputs = generate(spec, args.seed, construct);
    let reference = inputs_digest(&inputs);
    let started = Instant::now();
    loop {
        setups.push((inputs.total_s, inputs.graph_s, inputs.trace_s));
        let enough =
            setups.len() >= SETUP_MIN_REPS && started.elapsed().as_secs_f64() >= SETUP_MIN_S;
        if enough || setups.len() == SETUP_MAX_REPS {
            break;
        }
        inputs = generate(spec, args.seed, construct);
        if inputs_digest(&inputs) != reference {
            errors.push("set-up is not a function of the seed".to_string());
            break;
        }
    }
    let setup_s = median(&setups.iter().map(|s| s.0).collect::<Vec<_>>());
    let graph_ms = 1e3 * median(&setups.iter().map(|s| s.1).collect::<Vec<_>>());
    let trace_ms = 1e3 * median(&setups.iter().map(|s| s.2).collect::<Vec<_>>());

    // Timed replays: tracing off, all cores, restore-and-continue on.
    let timed_mode = Mode {
        threads,
        traced: false,
        restore: true,
        lp: false,
    };
    let jiffies = host::cpu_jiffies();
    let window = Instant::now();
    let mut timed: Vec<Replay> = Vec::new();
    while timed.is_empty() || window.elapsed().as_secs_f64() < args.seconds {
        timed.push(replay(spec, &inputs.cells, timed_mode));
    }
    let peak_rss = host::peak_rss_mib().unwrap_or(0.0);
    if let (Some((t0, s0)), Some((t1, s1))) = (jiffies, host::cpu_jiffies()) {
        let steal = 100.0 * share((s1 - s0) as f64, (t1 - t0) as f64);
        println!("host steal during the timed replays: {steal:.1}% of CPU time");
    }

    // Traced replays: per-layer figures and the identity checks. The
    // one-thread run is unbroken (no restore).
    let traced = replay(
        spec,
        &inputs.cells,
        Mode {
            threads,
            traced: true,
            restore: true,
            lp: true,
        },
    );
    let traced_1 = replay(
        spec,
        &inputs.cells,
        Mode {
            threads: 1,
            traced: true,
            restore: false,
            lp: false,
        },
    );

    let first = &timed[0];
    let mut attempted = 0;
    let mut failed = 0;
    for r in timed.iter().chain([&traced, &traced_1]) {
        attempted += r.epochs;
        failed += r.failed;
        errors.extend(r.errors.iter().cloned());
    }
    let mut identity = |ok: bool, what: &str| {
        if !ok {
            failed += 1;
            errors.push(format!("digest differs: {what}"));
        }
    };
    identity(
        timed.iter().all(|r| r.digest == first.digest),
        "between repeated untraced replays",
    );
    identity(traced.digest == first.digest, "traced vs untraced");
    identity(
        traced_1.digest == first.digest,
        "1 thread unbroken vs all threads with restore-and-continue",
    );

    // End-to-end figures over every timed replay.
    let epoch_ms: Vec<f64> = timed
        .iter()
        .flat_map(|r| r.epoch_ms.iter().copied())
        .collect();
    let wall_s: f64 = timed.iter().map(|r| r.wall_s).sum();
    let arrivals: u64 = timed.iter().map(|r| r.arrivals).sum();
    let accepted: u64 = timed.iter().map(|r| r.accepted).sum();
    // The tail percentile is fixed by one replay's epochs, so it does not
    // change with how many replays fit the window.
    let Some(tail_p) = tail_percentile(first.epoch_ms.len()) else {
        eprintln!(
            "perfbench: {} epochs per replay are too few for a tail",
            first.epoch_ms.len()
        );
        return ExitCode::FAILURE;
    };
    let tail_ms = percentile(&epoch_ms, tail_p);
    let error_rate = share(failed as f64, attempted as f64);
    let e2e = |name: &str| match name {
        "setup_s" => setup_s,
        "throughput_rps" => share(arrivals as f64, wall_s),
        "epoch_p50_ms" => median(&epoch_ms),
        "epoch_tail_ms" => tail_ms,
        "peak_rss_mb" => peak_rss,
        "admitted_value" => first.value,
        "accept_rate" => share(accepted as f64, arrivals as f64),
        other => unreachable!("no end-to-end metric {other}"),
    };

    let l = &traced.layers;
    let ms = |s: f64| 1e3 * s;
    let phase = |p: Phase| (l.phase_ns[p.index()], l.phase_hits[p.index()]);
    let untraced_wall = median(&timed.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let layer_calls = l.open_s
        + l.plan_s
        + l.commit_s
        + l.submit_s
        + l.repair_s
        + l.readmit_s
        + l.snapshot_s
        + l.restore_s;
    let per_layer = |name: &str| -> f64 {
        match name {
            "workloads.gen_ms" => trace_ms,
            "netgraph.gen_ms" => graph_ms,
            "engine.open_ms" => ms(l.open_s),
            "engine.plan_ms" => ms(l.plan_s),
            "engine.commit_ms" => ms(l.commit_s),
            "engine.coverage" => share(layer_calls, traced.wall_s),
            "core.steps" => l.steps as f64,
            "core.guard_stop_share" => share(l.guard_stops as f64, traced.epochs as f64),
            "engine.released" => l.released as f64,
            "mechanism.winners" => traced.accepted as f64,
            "mechanism.ms_per_winner" => share(ms(l.commit_s), traced.accepted as f64),
            "mechanism.revenue" => traced.revenue,
            "core.dijkstra_calls" => phase(Phase::SelectionDijkstra).1 as f64,
            "core.dirty_refreshes" => phase(Phase::SelectionDirtyRefresh).1 as f64,
            "mechanism.probes" => phase(Phase::PaymentProbe).1 as f64,
            "mechanism.steps_replayed" => l.steps_replayed as f64,
            "core.dijkstra_incl_ms" => phase(Phase::SelectionDijkstra).0 as f64 / 1e6,
            "mechanism.probe_incl_ms" => phase(Phase::PaymentProbe).0 as f64 / 1e6,
            "shard.submit_ms" => ms(l.submit_s),
            "shard.repair_ms" => ms(l.repair_s),
            "shard.readmit_ms" => ms(l.readmit_s),
            "shard.evicted" => l.evicted as f64,
            "shard.readmitted" => l.readmitted as f64,
            "shard.cross_share" => share(l.cross as f64, traced.arrivals as f64),
            "shard.lease_util" => share(l.lease_used, l.lease_granted),
            "shard.snapshot_ms" => ms(l.snapshot_s),
            "shard.snapshot_bytes" => share(l.snapshot_bytes as f64, l.snapshots as f64),
            "shard.restore_ms" => ms(l.restore_s),
            "lp.solve_ms" => ms(l.lp_s),
            "lp.iterations" => l.lp_iterations as f64,
            "lp.regret_ratio" => share(l.lp_ratio_sum, l.lp_samples as f64),
            "par.speedup" => share(traced_1.core_s, traced.core_s),
            "obs.overhead_pct" => 100.0 * (share(traced.wall_s, untraced_wall) - 1.0),
            other => unreachable!("no per-layer metric {other}"),
        }
    };

    // Human-readable report: all nine end-to-end figures, then layers.
    for (name, unit) in END_TO_END {
        let note = match name {
            "epoch_tail_ms" => format!(
                "  (p{tail_p} of {} epochs in {} timed replays)",
                epoch_ms.len(),
                timed.len()
            ),
            "throughput_rps" => format!("  ({arrivals} arrivals in {wall_s:.3} s)"),
            _ => String::new(),
        };
        println!("e2e {name} {} {unit}{note}", e2e(name));
    }
    println!("e2e error_rate {error_rate} ratio  ({failed} of {attempted} epochs failed)");
    let walls: Vec<String> = timed.iter().map(|r| format!("{:.3}", r.wall_s)).collect();
    println!(
        "replay walls: untraced [{}] s, traced {:.3} s, traced at 1 thread {:.3} s",
        walls.join(", "),
        traced.wall_s,
        traced_1.wall_s
    );
    println!("e2e revenue {} value", first.revenue);
    for (name, unit) in PER_LAYER {
        println!("layer {name} {} {unit}", per_layer(name));
    }
    if l.spans_dropped > 0 {
        println!(
            "warning: the recorder dropped {} spans; mechanism.steps_replayed is a lower bound",
            l.spans_dropped
        );
    }
    if per_layer("obs.overhead_pct") >= 3.0 {
        println!("warning: tracing overhead is above the 3% gate");
    }
    for e in &errors {
        println!("error: {e}");
    }

    let correct = failed == 0 && errors.is_empty();
    let metrics = if args.trace {
        json_metrics(&PER_LAYER, per_layer)
    } else {
        json_metrics(&END_TO_END, e2e)
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {metrics}}}"
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{valid_name, valid_unit};

    #[test]
    fn metric_names_follow_the_grammar_and_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
            assert!(seen.insert(*name), "duplicate {name}");
        }
        for s in workload::SPECS.iter() {
            assert!(valid_name(s.name), "{}", s.name);
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let listed = |name: &str, unit: &str| {
            text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\""))
        };
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                listed(name, unit),
                "{name} [{unit}] missing from BENCHMARK.json"
            );
        }
        let entries = text.matches("\"name\": ").count();
        assert_eq!(
            entries,
            END_TO_END.len() + PER_LAYER.len() + workload::SPECS.len(),
            "BENCHMARK.json lists names this benchmark does not print"
        );
        for s in workload::SPECS.iter() {
            assert!(text.contains(&format!("{{\"name\": \"{}\", \"why\": ", s.name)));
        }
    }
}
