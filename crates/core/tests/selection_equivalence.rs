//! PR 4's load-bearing contract: [`SelectionStrategy::Incremental`] and
//! [`SelectionStrategy::FanOut`] are **bit-identical** in every
//! observable output — selections, paths, [`IterationRecord`]s (every
//! float compared by bits), stop reasons, carried dual exponents, resume
//! traces, checkpoints, and one-pass critical prices — across random
//! graphs, epoch contexts (masked edges, scaled residuals, carried
//! weights, routable masks), residual-gated path search, and weight
//! re-centering. Everything prefix-resumed payments and snapshots built
//! on the fan-out loop must keep working unchanged on top of the
//! incremental one. Pricing from warm selectors
//! ([`EpochResumeTrace::price_winners`]) must match pricing from cold
//! checkpoints field for field.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ufp_core::{
    bounded_ufp, bounded_ufp_epoch, bounded_ufp_epoch_critical_value, bounded_ufp_epoch_resume,
    bounded_ufp_epoch_traced, BoundedUfpConfig, CriticalPrice, DualWeights, EpochContext,
    EpochOutcome, EpochResumeTrace, Request, RequestId, SelectionStrategy, StopReason, UfpInstance,
};
use ufp_netgraph::generators;
use ufp_netgraph::graph::GraphBuilder;
use ufp_netgraph::ids::NodeId;
use ufp_obs::{Phase, Recorder};
use ufp_par::Pool;

/// Random instance with enough request mass that paths collide: a few
/// hotspot pairs concentrate traffic (the dirty-storm case) on top of
/// background pairs (the sparse-dirty case). About a third of the
/// hotspot requests copy an earlier hotspot request's `(demand, value)`
/// exactly, so one query class holds runs of equal densities whose
/// order only the request id decides.
fn arb_instance() -> impl Strategy<Value = (UfpInstance, f64)> {
    (4usize..10, 4usize..40, 2usize..36, any::<u64>(), 1usize..10).prop_map(
        |(n, extra_edges, requests, seed, eps_decile)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let max_edges = n * (n - 1);
            let m = (extra_edges % max_edges).max(2).min(max_edges);
            let cap = 3.0 + (seed % 17) as f64;
            let graph = generators::gnm_digraph(n, m, (cap, cap * 2.0), &mut rng);
            let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
            let mut attempts = 0;
            while pairs.len() < 3 && attempts < 400 {
                attempts += 1;
                let src = NodeId(rng.random_range(0..n as u32));
                let dst = NodeId(rng.random_range(0..n as u32));
                if src != dst && ufp_netgraph::bfs::is_reachable(&graph, src, dst) {
                    pairs.push((src, dst));
                }
            }
            let mut reqs = Vec::new();
            let mut hot_types: Vec<(f64, f64)> = Vec::new();
            if !pairs.is_empty() {
                for i in 0..requests {
                    // Two thirds hotspot traffic, one third background.
                    let hotspot = i % 3 != 2;
                    let (src, dst) = pairs[if hotspot {
                        0
                    } else {
                        rng.random_range(0..pairs.len())
                    }];
                    let (demand, value) =
                        if hotspot && !hot_types.is_empty() && rng.random_range(0..3u32) == 0 {
                            hot_types[rng.random_range(0..hot_types.len())]
                        } else {
                            (rng.random_range(0.1..=1.0), rng.random_range(0.1..=4.0))
                        };
                    if hotspot {
                        hot_types.push((demand, value));
                    }
                    reqs.push(Request::new(src, dst, demand, value));
                }
            }
            let eps = eps_decile as f64 / 10.0;
            (UfpInstance::new(graph, reqs), eps)
        },
    )
}

fn with_strategy(eps: f64, s: SelectionStrategy) -> BoundedUfpConfig {
    BoundedUfpConfig::with_epsilon(eps).with_selection(s)
}

/// Bit-level equality of two epoch outcomes.
fn assert_outcomes_bit_identical(a: &EpochOutcome, b: &EpochOutcome) {
    assert_eq!(
        a.run.solution.routed.len(),
        b.run.solution.routed.len(),
        "selection counts diverged"
    );
    for (x, y) in a.run.solution.routed.iter().zip(&b.run.solution.routed) {
        assert_eq!(x.0, y.0, "selection order diverged");
        assert_eq!(x.1.nodes(), y.1.nodes(), "paths diverged");
        assert_eq!(x.1.edges(), y.1.edges(), "path edges diverged");
    }
    assert_eq!(a.run.trace.stop_reason, b.run.trace.stop_reason);
    assert_eq!(a.run.trace.records.len(), b.run.trace.records.len());
    for (x, y) in a.run.trace.records.iter().zip(&b.run.trace.records) {
        assert_eq!(x.selected, y.selected);
        assert_eq!(x.ln_alpha.to_bits(), y.ln_alpha.to_bits(), "ln_alpha bits");
        assert_eq!(x.ln_d1.to_bits(), y.ln_d1.to_bits(), "ln_d1 bits");
        assert_eq!(
            x.routed_value_before.to_bits(),
            y.routed_value_before.to_bits()
        );
    }
    assert_eq!(a.carry.len(), b.carry.len());
    for (x, y) in a.carry.iter().zip(&b.carry) {
        assert_eq!(x.to_bits(), y.to_bits(), "carry diverged");
    }
}

/// Price the first few winners of a `FanOut`-traced run under both
/// strategies, from checkpoints at their selection steps, and require
/// bit-identical [`CriticalPrice`]s. Returns how many were compared.
fn assert_prices_agree(
    inst: &UfpInstance,
    fan_cfg: &BoundedUfpConfig,
    inc_cfg: &BoundedUfpConfig,
    ctx: Option<&EpochContext<'_>>,
    winners: usize,
) -> usize {
    let (full, trace) = bounded_ufp_epoch_traced(inst, fan_cfg, ctx);
    let mut compared = 0;
    for (rid, _) in full.run.solution.routed.iter().take(winners) {
        let k = trace.selection_step(*rid).unwrap();
        let price = |cfg: &BoundedUfpConfig| -> CriticalPrice {
            let ckpt = trace.checkpoint(inst, cfg, ctx, k);
            bounded_ufp_epoch_critical_value(inst, cfg, ctx, ckpt, *rid)
        };
        let fan = price(fan_cfg);
        let inc = price(inc_cfg);
        assert_eq!(
            fan.value.to_bits(),
            inc.value.to_bits(),
            "price diverged for {rid:?}: {fan:?} vs {inc:?}"
        );
        assert_eq!(fan, inc, "binding step, rival or stop diverged for {rid:?}");
        assert!((0.0..=inst.request(*rid).value).contains(&fan.value));
        compared += 1;
    }
    compared
}

/// A context exercising masks, scaled residuals, and carried weights,
/// derived deterministically from the seed.
fn context_vectors(inst: &UfpInstance, seed: u64) -> (Vec<f64>, Vec<bool>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15);
    let caps: Vec<f64> = inst
        .graph()
        .edges()
        .iter()
        .map(|e| e.capacity * rng.random_range(0.5..=1.0))
        .collect();
    // Mask a minority of edges so paths still exist often.
    let usable: Vec<bool> = (0..caps.len())
        .map(|_| rng.random_range(0..5u32) != 0)
        .collect();
    let carry: Vec<f64> = (0..caps.len())
        .map(|_| rng.random_range(0.0..0.8))
        .collect();
    (caps, usable, carry)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn one_shot_runs_bit_identical((inst, eps) in arb_instance()) {
        let fan = bounded_ufp_epoch(&inst, &with_strategy(eps, SelectionStrategy::FanOut), None);
        let inc = bounded_ufp_epoch(&inst, &with_strategy(eps, SelectionStrategy::Incremental), None);
        assert_outcomes_bit_identical(&fan, &inc);
        // Parallel pools change nothing either.
        let inc_par = bounded_ufp_epoch(
            &inst,
            &with_strategy(eps, SelectionStrategy::Incremental).parallel(Pool::new(4)),
            None,
        );
        assert_outcomes_bit_identical(&fan, &inc_par);
    }

    #[test]
    fn epoch_context_runs_bit_identical((inst, eps) in arb_instance(), seed in any::<u64>()) {
        let (caps, usable, carry) = context_vectors(&inst, seed);
        let ctx = EpochContext { capacities: &caps, usable: &usable, carry: &carry,
            routable: None,
        };
        let fan = bounded_ufp_epoch(&inst, &with_strategy(eps, SelectionStrategy::FanOut), Some(&ctx));
        let inc = bounded_ufp_epoch(&inst, &with_strategy(eps, SelectionStrategy::Incremental), Some(&ctx));
        assert_outcomes_bit_identical(&fan, &inc);
    }

    #[test]
    fn respect_residual_runs_bit_identical((inst, eps) in arb_instance()) {
        let mut fan_cfg = with_strategy(eps, SelectionStrategy::FanOut);
        fan_cfg.respect_residual = true;
        let mut inc_cfg = with_strategy(eps, SelectionStrategy::Incremental);
        inc_cfg.respect_residual = true;
        let fan = bounded_ufp_epoch(&inst, &fan_cfg, None);
        let inc = bounded_ufp_epoch(&inst, &inc_cfg, None);
        assert_outcomes_bit_identical(&fan, &inc);
    }

    #[test]
    fn traces_and_resumes_cross_strategies((inst, eps) in arb_instance(), seed in any::<u64>()) {
        // A trace recorded under one strategy must checkpoint and resume
        // bit-identically under the other — this is what lets PR 2's
        // resumed payments and PR 3's snapshots run unchanged on top.
        let fan_cfg = with_strategy(eps, SelectionStrategy::FanOut);
        let inc_cfg = with_strategy(eps, SelectionStrategy::Incremental);
        let (fan_full, fan_trace) = bounded_ufp_epoch_traced(&inst, &fan_cfg, None);
        let (inc_full, inc_trace) = bounded_ufp_epoch_traced(&inst, &inc_cfg, None);
        assert_outcomes_bit_identical(&fan_full, &inc_full);
        prop_assert_eq!(fan_trace.num_steps(), inc_trace.num_steps());
        if fan_trace.num_steps() > 0 {
            let prefix = (seed as usize) % (fan_trace.num_steps() + 1);
            // FanOut-recorded trace, resumed incrementally...
            let ckpt = fan_trace.checkpoint(&inst, &inc_cfg, None, prefix);
            let resumed = bounded_ufp_epoch_resume(&inst, &inc_cfg, None, ckpt);
            assert_outcomes_bit_identical(&fan_full, &resumed);
            // ...and the other way around.
            let ckpt = inc_trace.checkpoint(&inst, &fan_cfg, None, prefix);
            let resumed = bounded_ufp_epoch_resume(&inst, &fan_cfg, None, ckpt);
            assert_outcomes_bit_identical(&fan_full, &resumed);
        }
    }

    #[test]
    fn critical_prices_agree_across_strategies(
        (inst, eps) in arb_instance(),
        seed in any::<u64>(),
        respect_residual in any::<bool>(),
    ) {
        // The pricing primitive: one agent-absent suffix run per winner,
        // observing the argmin score and the agent's own distance. Both
        // strategies must return the same bits under an epoch context
        // with a routable mask, with and without the residual gate.
        let (caps, usable, carry) = context_vectors(&inst, seed);
        let mut rng = StdRng::seed_from_u64(seed.rotate_left(17));
        let routable: Vec<bool> = (0..caps.len())
            .map(|_| rng.random_range(0..6u32) != 0)
            .collect();
        let ctx = EpochContext { capacities: &caps, usable: &usable, carry: &carry,
            routable: Some(&routable),
        };
        let mut fan_cfg = with_strategy(eps, SelectionStrategy::FanOut);
        fan_cfg.respect_residual = respect_residual;
        let mut inc_cfg = with_strategy(eps, SelectionStrategy::Incremental);
        inc_cfg.respect_residual = respect_residual;
        assert_prices_agree(&inst, &fan_cfg, &inc_cfg, Some(&ctx), 3);
        assert_prices_agree(&inst, &fan_cfg, &inc_cfg, None, 3);
    }

    #[test]
    fn warm_prices_match_cold_checkpoints(
        (inst, eps) in arb_instance(),
        seed in any::<u64>(),
        respect_residual in any::<bool>(),
    ) {
        // Carry, usable and routable masks, with and without the residual
        // gate; every winner, and a sparse subset that makes the cursor
        // walk steps it does not price.
        let (caps, usable, carry) = context_vectors(&inst, seed);
        let mut rng = StdRng::seed_from_u64(seed.rotate_left(29));
        let routable: Vec<bool> = (0..caps.len())
            .map(|_| rng.random_range(0..6u32) != 0)
            .collect();
        let ctx = EpochContext { capacities: &caps, usable: &usable, carry: &carry,
            routable: Some(&routable),
        };
        for ctx in [Some(&ctx), None] {
            let mut cfg = with_strategy(eps, SelectionStrategy::Incremental);
            cfg.respect_residual = respect_residual;
            let (_, trace) = bounded_ufp_epoch_traced(&inst, &cfg, ctx);
            let all = winners_by_id(&trace, |_| true);
            assert_warm_matches_cold(&inst, &cfg, ctx, &trace, &all);
            let sparse = winners_by_id(&trace, |k| (k as u64 ^ seed).is_multiple_of(3));
            assert_warm_matches_cold(&inst, &cfg, ctx, &trace, &sparse);
        }
    }
}

/// The winners of `trace` at the steps `keep` accepts, as `(request,
/// step)` pairs in ascending request order (the engine's order, which
/// is not step order).
fn winners_by_id(
    trace: &EpochResumeTrace,
    keep: impl Fn(usize) -> bool,
) -> Vec<(RequestId, usize)> {
    let mut winners: Vec<(RequestId, usize)> = (0..trace.num_steps())
        .filter(|&k| keep(k))
        .map(|k| (trace.step(k).selected, k))
        .collect();
    winners.sort_unstable();
    winners
}

/// Every field of two prices, the value by its bits.
fn assert_price_bits(warm: &CriticalPrice, cold: &CriticalPrice, what: &str) {
    assert_eq!(
        warm.value.to_bits(),
        cold.value.to_bits(),
        "{what}: value diverged: {warm:?} vs {cold:?}"
    );
    assert_eq!(warm.step, cold.step, "{what}: binding step diverged");
    assert_eq!(warm.rival, cold.rival, "{what}: rival diverged");
    assert_eq!(warm.stop, cold.stop, "{what}: stop diverged");
}

/// The oracle: price `winners` of `trace` through
/// [`EpochResumeTrace::price_winners_in_runs`] — runs of 1, 2 and all
/// winners, pools of 1 and 4 threads, and the default split — and
/// through [`bounded_ufp_epoch_critical_value`] on a cold
/// [`EpochResumeTrace::checkpoint`] per winner, under both selection
/// strategies. Everything must agree bit for bit. Returns the cold
/// prices.
fn assert_warm_matches_cold(
    inst: &UfpInstance,
    cfg: &BoundedUfpConfig,
    ctx: Option<&EpochContext<'_>>,
    trace: &EpochResumeTrace,
    winners: &[(RequestId, usize)],
) -> Vec<CriticalPrice> {
    let cold: Vec<CriticalPrice> = winners
        .iter()
        .map(|&(rid, k)| {
            let ckpt = trace.checkpoint(inst, cfg, ctx, k);
            bounded_ufp_epoch_critical_value(inst, cfg, ctx, ckpt, rid)
        })
        .collect();
    for strategy in [SelectionStrategy::Incremental, SelectionStrategy::FanOut] {
        for threads in [1, 4] {
            let mut cfg = cfg.clone().parallel(Pool::new(threads));
            cfg.selection = strategy;
            let mut splits = vec![1, 2, winners.len()];
            splits.dedup();
            for run_len in splits {
                let warm = trace.price_winners_in_runs(inst, &cfg, ctx, winners, run_len);
                assert_eq!(warm.len(), winners.len());
                for (i, (w, c)) in warm.iter().zip(&cold).enumerate() {
                    let what = format!(
                        "{strategy:?}, {threads} threads, runs of {run_len}, winner {:?}",
                        winners[i]
                    );
                    assert_price_bits(w, c, &what);
                }
            }
            let default_split = trace.price_winners(inst, &cfg, ctx, winners);
            for (w, c) in default_split.iter().zip(&cold) {
                assert_price_bits(w, c, "default split");
            }
        }
    }
    cold
}

/// Every winner of a traced run, priced warm and cold (see
/// [`assert_warm_matches_cold`]). Returns the cold prices.
fn assert_all_winners_warm_match_cold(
    inst: &UfpInstance,
    cfg: &BoundedUfpConfig,
    ctx: Option<&EpochContext<'_>>,
) -> Vec<CriticalPrice> {
    let (_, trace) = bounded_ufp_epoch_traced(inst, cfg, ctx);
    assert!(trace.is_native(), "a recorded trace is native");
    let winners = winners_by_id(&trace, |_| true);
    assert_warm_matches_cold(inst, cfg, ctx, &trace, &winners)
}

/// The oracle over fixtures whose agent-absent runs stop in each way —
/// `Guard`, `NoPath` and `Exhausted` — plus rounded-score ties, the
/// eager-refresh storm and a residual-gated class split.
#[test]
fn warm_prices_match_cold_on_every_stop() {
    let mut stops = Vec::new();

    // Guard: one edge of capacity 4 and eps 1, so every selection adds
    // 1 to ln D₁ and the guard (ln D₁ > 3) trips after four of twenty.
    let mut gb = GraphBuilder::directed(2);
    gb.add_edge(NodeId(0), NodeId(1), 4.0);
    let guard = UfpInstance::new(
        gb.build(),
        (0..20)
            .map(|i| Request::new(NodeId(0), NodeId(1), 1.0, 1.0 + (i % 7) as f64))
            .collect(),
    );
    let prices = assert_all_winners_warm_match_cold(
        &guard,
        &with_strategy(1.0, SelectionStrategy::Incremental),
        None,
    );
    stops.extend(prices.iter().map(|p| p.stop));

    // Exhausted and NoPath: ample capacity, and a request between
    // disconnected nodes that never routes.
    let mut gb = GraphBuilder::directed(5);
    gb.add_edge(NodeId(0), NodeId(1), 200.0);
    gb.add_edge(NodeId(1), NodeId(2), 200.0);
    gb.add_edge(NodeId(0), NodeId(2), 150.0);
    let graph = gb.build();
    let mut reqs: Vec<Request> = (0..8)
        .map(|i| Request::new(NodeId(0), NodeId(2 - (i % 2)), 0.5, 1.0 + i as f64))
        .collect();
    let exhausted = UfpInstance::new(graph.clone(), reqs.clone());
    reqs.push(Request::new(NodeId(3), NodeId(4), 0.5, 5.0));
    let no_path = UfpInstance::new(graph, reqs);
    for inst in [&exhausted, &no_path] {
        let prices = assert_all_winners_warm_match_cold(
            inst,
            &with_strategy(0.5, SelectionStrategy::Incremental),
            None,
        );
        stops.extend(prices.iter().map(|p| p.stop));
    }
    for stop in [StopReason::Guard, StopReason::NoPath, StopReason::Exhausted] {
        assert!(
            stops.contains(&stop),
            "no agent-absent run stopped {stop:?}: {stops:?}"
        );
    }

    // Rounded-score ties across densities (see the fixture below).
    let mut gb = GraphBuilder::directed(3);
    gb.add_edge(NodeId(0), NodeId(1), 10.0);
    gb.add_edge(NodeId(1), NodeId(2), 30.0);
    let graph = gb.build();
    let w = DualWeights::new(&graph).weights().to_vec();
    let dist = 0.0 + w[0] + w[1];
    let next = |d: f64| f64::from_bits(d.to_bits() + 1);
    let low = (0..1_000_000u64)
        .map(|k| f64::from_bits(0.9f64.to_bits() + k))
        .find(|&d| d * dist == next(d) * dist)
        .expect("adjacent densities with a rounded score tie");
    let tie = UfpInstance::new(
        graph,
        vec![
            Request::new(NodeId(0), NodeId(2), next(low), 1.0),
            Request::new(NodeId(0), NodeId(2), low, 1.0),
            Request::new(NodeId(0), NodeId(2), low, 1.0),
        ],
    );
    let prices = assert_all_winners_warm_match_cold(
        &tie,
        &with_strategy(0.5, SelectionStrategy::Incremental),
        None,
    );
    assert!(!prices.is_empty());

    // Eighty classes behind one bottleneck: the warm selector takes the
    // eager grouped refresh on every step.
    let mut gb = GraphBuilder::directed(82);
    gb.add_edge(NodeId(0), NodeId(1), 120.0);
    for leaf in 2..82 {
        gb.add_edge(NodeId(1), NodeId(leaf), 60.0);
    }
    let storm = UfpInstance::new(
        gb.build(),
        (0..240)
            .map(|i| {
                Request::new(
                    NodeId(0),
                    NodeId(2 + (i * 7) % 80),
                    0.5 + 0.05 * (i % 10) as f64,
                    0.7 + ((i * 11) % 17) as f64,
                )
            })
            .collect(),
    );
    let cfg = with_strategy(0.3, SelectionStrategy::Incremental);
    let (_, trace) = bounded_ufp_epoch_traced(&storm, &cfg, None);
    let sampled = winners_by_id(&trace, |k| k % 7 == 0);
    assert!(sampled.len() >= 3);
    assert_warm_matches_cold(&storm, &cfg, None, &trace, &sampled);

    // The residual gate splits one pair into classes by demand.
    let mut gb = GraphBuilder::directed(2);
    gb.add_edge(NodeId(0), NodeId(1), 1.2);
    let gated = UfpInstance::new(
        gb.build(),
        vec![
            Request::new(NodeId(0), NodeId(1), 0.9, 9.0),
            Request::new(NodeId(0), NodeId(1), 0.2, 0.2),
            Request::new(NodeId(0), NodeId(1), 0.5, 10.0),
        ],
    );
    let ctx = EpochContext {
        capacities: &[1.2],
        usable: &[true],
        carry: &[-30.0],
        routable: None,
    };
    let mut cfg = with_strategy(0.5, SelectionStrategy::Incremental);
    cfg.respect_residual = true;
    let prices = assert_all_winners_warm_match_cold(&gated, &cfg, Some(&ctx));
    assert_eq!(prices.len(), 2);
}

/// Suffix runs that cross weight re-centrings: the warm selector was
/// seeded before the shift moved and must flush on it exactly like a
/// cold one seeded after.
#[test]
fn warm_prices_match_cold_across_recentering() {
    // 650 unit selections of exponent 1 cross RECENTER_AT = 600 inside
    // the suffix of every sampled early winner and, for the late ones,
    // inside the cursor's own walk.
    let mut gb = GraphBuilder::directed(2);
    gb.add_edge(NodeId(0), NodeId(1), 2000.0);
    let inst = UfpInstance::new(
        gb.build(),
        (0..650)
            .map(|i| Request::new(NodeId(0), NodeId(1), 1.0, 1.0 + (i % 13) as f64))
            .collect(),
    );
    let cfg = with_strategy(1.0, SelectionStrategy::Incremental);
    let (_, trace) = bounded_ufp_epoch_traced(&inst, &cfg, None);
    assert!(
        trace.num_steps() > 600,
        "fixture must cross the recenter threshold"
    );
    let sampled = winners_by_id(&trace, |k| {
        k < 3 || k % 97 == 5 || k + 2 >= trace.num_steps()
    });
    assert_warm_matches_cold(&inst, &cfg, None, &trace, &sampled);
}

/// Hits of `phase` while `f` runs under an enabled recorder.
fn phase_hits<T>(phase: Phase, f: impl FnOnce(&Recorder) -> T) -> (u64, T) {
    let obs = Recorder::enabled();
    let out = f(&obs);
    let (_, hits) = obs.phase_totals().expect("recorder is on");
    (hits[phase.index()], out)
}

/// A trace assembled with `push_step` is merged: it never takes the warm
/// path, even when it holds exactly a native trace's steps. Its winners
/// are priced one per job from cold selectors — the same eager seeding
/// refreshes as pricing each winner from its own cold checkpoint — and
/// at the same prices, while the native original seeds once per job.
#[test]
fn pushed_trace_never_takes_the_warm_path() {
    let mut gb = GraphBuilder::directed(4);
    gb.add_edge(NodeId(0), NodeId(1), 12.0);
    gb.add_edge(NodeId(1), NodeId(3), 12.0);
    gb.add_edge(NodeId(0), NodeId(2), 10.0);
    gb.add_edge(NodeId(2), NodeId(3), 10.0);
    gb.add_edge(NodeId(1), NodeId(2), 10.0);
    let inst = UfpInstance::new(
        gb.build(),
        (0..24)
            .map(|i| {
                Request::new(
                    NodeId(i % 2),
                    NodeId(3 - (i % 3 == 0) as u32),
                    0.4 + 0.1 * (i % 5) as f64,
                    1.0 + (i * 7 % 11) as f64,
                )
            })
            .collect(),
    );
    let cfg = with_strategy(0.6, SelectionStrategy::Incremental);
    let (full, native) = bounded_ufp_epoch_traced(&inst, &cfg, None);
    let mut merged = EpochResumeTrace::default();
    for (k, record) in full.run.trace.records.iter().enumerate() {
        let step = native.step(k);
        merged.push_step(
            step.selected,
            step.ln_alpha,
            step.raw_score,
            record.ln_d1,
            record.routed_value_before,
            step.path.clone(),
            step.bumps.to_vec(),
        );
    }
    assert!(native.is_native());
    assert!(!merged.is_native(), "push_step makes a trace merged");
    let winners = winners_by_id(&native, |_| true);
    assert!(winners.len() >= 4, "fixture must price several winners");
    let all = winners.len();

    let with_obs = |obs: &Recorder| cfg.clone().with_obs(obs.clone());
    let (cold_seeds, cold) = phase_hits(Phase::SelectionDirtyRefresh, |obs| {
        let cfg = with_obs(obs);
        winners
            .iter()
            .map(|&(rid, k)| {
                let ckpt = merged.checkpoint(&inst, &cfg, None, k);
                bounded_ufp_epoch_critical_value(&inst, &cfg, None, ckpt, rid)
            })
            .collect::<Vec<_>>()
    });
    let (merged_seeds, merged_prices) = phase_hits(Phase::SelectionDirtyRefresh, |obs| {
        merged.price_winners_in_runs(&inst, &with_obs(obs), None, &winners, all)
    });
    let (native_seeds, native_prices) = phase_hits(Phase::SelectionDirtyRefresh, |obs| {
        native.price_winners_in_runs(&inst, &with_obs(obs), None, &winners, all)
    });
    assert_eq!(merged_seeds, cold_seeds, "a merged trace must price cold");
    assert!(
        native_seeds < cold_seeds,
        "a native trace prices warm ({native_seeds} vs {cold_seeds} seeding refreshes)"
    );
    for ((m, n), c) in merged_prices.iter().zip(&native_prices).zip(&cold) {
        assert_price_bits(m, c, "merged");
        assert_price_bits(n, c, "native");
    }
    // One payment.probe span per winner either way.
    let (probes, _) = phase_hits(Phase::PaymentProbe, |obs| {
        native.price_winners(&inst, &with_obs(obs), None, &winners)
    });
    assert_eq!(probes, all as u64);
}

/// Pricing runs that cross weight re-centerings: the agent's cached
/// distance changes scale with every re-centre, and both strategies must
/// still return bit-identical prices.
#[test]
fn critical_prices_agree_across_recentering() {
    // The recentering fixture below, shortened: 650 unit selections of
    // exponent 1 still cross the RECENTER_AT = 600 threshold inside
    // every early winner's suffix run.
    let mut gb = GraphBuilder::directed(2);
    gb.add_edge(NodeId(0), NodeId(1), 2000.0);
    let inst = UfpInstance::new(
        gb.build(),
        (0..650)
            .map(|i| Request::new(NodeId(0), NodeId(1), 1.0, 1.0 + (i % 13) as f64))
            .collect(),
    );
    let fan_cfg = with_strategy(1.0, SelectionStrategy::FanOut);
    let inc_cfg = with_strategy(1.0, SelectionStrategy::Incremental);
    let (_, trace) = bounded_ufp_epoch_traced(&inst, &inc_cfg, None);
    assert!(
        trace.num_steps() > 600,
        "fixture must cross the recenter threshold"
    );
    assert_eq!(assert_prices_agree(&inst, &fan_cfg, &inc_cfg, None, 2), 2);
}

/// Weight re-centering rescales every materialized Dijkstra weight,
/// which invalidates the incremental cache's distance *scale*. Force
/// hundreds of recenters in one run and require bit-identity throughout.
#[test]
fn recentering_flush_preserves_bit_identity() {
    // One wide edge, capacity 2000: each selection bumps the edge by
    // ε·B·d/c = 1, so the run crosses the RECENTER_AT = 600 threshold
    // repeatedly while admitting many hundreds of requests.
    let mut gb = GraphBuilder::directed(2);
    gb.add_edge(NodeId(0), NodeId(1), 2000.0);
    let inst = UfpInstance::new(
        gb.build(),
        (0..700)
            .map(|i| Request::new(NodeId(0), NodeId(1), 1.0, 1.0 + (i % 13) as f64))
            .collect(),
    );
    let fan = bounded_ufp_epoch(&inst, &with_strategy(1.0, SelectionStrategy::FanOut), None);
    let inc = bounded_ufp_epoch(
        &inst,
        &with_strategy(1.0, SelectionStrategy::Incremental),
        None,
    );
    assert!(
        fan.run.solution.routed.len() > 600,
        "fixture must cross the recenter threshold (routed {})",
        fan.run.solution.routed.len()
    );
    assert_outcomes_bit_identical(&fan, &inc);
}

/// A bottleneck shared by every request: each winner dirties *all*
/// remaining requests. On one endpoint pair that is one query class
/// re-queried lazily; spread over 80 destinations behind the bottleneck
/// it is 80 classes, which drives the selector through its eager grouped
/// fan-out refresh (the large-dirty-set path) on every iteration.
#[test]
fn dirty_storm_takes_the_eager_path_bit_identically() {
    let mut gb = GraphBuilder::directed(3);
    gb.add_edge(NodeId(0), NodeId(1), 120.0);
    gb.add_edge(NodeId(1), NodeId(2), 120.0);
    let one_pair = UfpInstance::new(
        gb.build(),
        (0..150)
            .map(|i| {
                Request::new(
                    NodeId(0),
                    NodeId(2),
                    0.5 + 0.05 * (i % 10) as f64,
                    0.7 + ((i * 11) % 17) as f64,
                )
            })
            .collect(),
    );
    let mut gb = GraphBuilder::directed(82);
    gb.add_edge(NodeId(0), NodeId(1), 120.0);
    for leaf in 2..82 {
        gb.add_edge(NodeId(1), NodeId(leaf), 60.0);
    }
    let many_pairs = UfpInstance::new(
        gb.build(),
        (0..240)
            .map(|i| {
                Request::new(
                    NodeId(0),
                    NodeId(2 + (i * 7) % 80),
                    0.5 + 0.05 * (i % 10) as f64,
                    0.7 + ((i * 11) % 17) as f64,
                )
            })
            .collect(),
    );
    for (inst, eps) in [
        (&one_pair, 0.3),
        (&one_pair, 0.8),
        (&many_pairs, 0.3),
        (&many_pairs, 0.8),
    ] {
        let fan = bounded_ufp_epoch(inst, &with_strategy(eps, SelectionStrategy::FanOut), None);
        let inc = bounded_ufp_epoch(
            inst,
            &with_strategy(eps, SelectionStrategy::Incremental),
            None,
        );
        assert!(!fan.run.solution.routed.is_empty());
        assert_outcomes_bit_identical(&fan, &inc);
        // Parallel eager refresh changes nothing.
        let inc_par = bounded_ufp_epoch(
            inst,
            &with_strategy(eps, SelectionStrategy::Incremental).parallel(Pool::new(4)),
            None,
        );
        assert_outcomes_bit_identical(&fan, &inc_par);
    }
}

/// Residual-gated search with a dirty storm: the per-demand edge filter
/// (demand vs residual) flows through the eager refresh too. Ten
/// distinct demands make ten query classes (lazy refreshes); 120
/// distinct demands make 120 (the eager path).
#[test]
fn residual_gate_dirty_storm_bit_identical() {
    let mut gb = GraphBuilder::directed(4);
    gb.add_edge(NodeId(0), NodeId(1), 40.0);
    gb.add_edge(NodeId(1), NodeId(3), 40.0);
    gb.add_edge(NodeId(0), NodeId(2), 45.0);
    gb.add_edge(NodeId(2), NodeId(3), 45.0);
    let graph = gb.build();
    let mut fan_cfg = with_strategy(0.6, SelectionStrategy::FanOut);
    fan_cfg.respect_residual = true;
    let mut inc_cfg = with_strategy(0.6, SelectionStrategy::Incremental);
    inc_cfg.respect_residual = true;
    for demands in [10, 120] {
        let inst = UfpInstance::new(
            graph.clone(),
            (0..120)
                .map(|i| {
                    Request::new(
                        NodeId(0),
                        NodeId(3),
                        0.3 + 0.7 * (i % demands) as f64 / demands as f64,
                        0.5 + ((i * 7) % 19) as f64,
                    )
                })
                .collect(),
        );
        let fan = bounded_ufp_epoch(&inst, &fan_cfg, None);
        let inc = bounded_ufp_epoch(&inst, &inc_cfg, None);
        assert!(!fan.run.solution.routed.is_empty());
        assert_outcomes_bit_identical(&fan, &inc);
    }
}

/// Two requests on one endpoint pair whose *different* densities round
/// to the same score at the path's distance, the lower id holding the
/// higher density. The fan-out breaks the tie by id, so the incremental
/// selector must look past the lowest-density member of the class.
#[test]
fn rounded_score_tie_across_densities_goes_to_the_lower_id() {
    let mut gb = GraphBuilder::directed(3);
    gb.add_edge(NodeId(0), NodeId(1), 10.0);
    gb.add_edge(NodeId(1), NodeId(2), 30.0);
    let graph = gb.build();
    // The only path's length under the initial weights, summed in
    // Dijkstra's order.
    let w = DualWeights::new(&graph).weights().to_vec();
    let dist = 0.0 + w[0] + w[1];
    // With value 1, density is the demand itself: find adjacent floats
    // whose products with `dist` round to one float.
    let next = |d: f64| f64::from_bits(d.to_bits() + 1);
    let low = (0..1_000_000u64)
        .map(|k| f64::from_bits(0.9f64.to_bits() + k))
        .find(|&d| d * dist == next(d) * dist)
        .expect("adjacent densities with a rounded score tie");
    let high = next(low);
    assert!(high > low && high * dist == low * dist);
    let inst = UfpInstance::new(
        graph,
        vec![
            Request::new(NodeId(0), NodeId(2), high, 1.0),
            Request::new(NodeId(0), NodeId(2), low, 1.0),
        ],
    );
    let fan = bounded_ufp_epoch(&inst, &with_strategy(0.5, SelectionStrategy::FanOut), None);
    let inc = bounded_ufp_epoch(
        &inst,
        &with_strategy(0.5, SelectionStrategy::Incremental),
        None,
    );
    assert_eq!(fan.run.solution.routed[0].0, RequestId(0));
    assert_eq!(inc.run.solution.routed[0].0, RequestId(0));
    assert_outcomes_bit_identical(&fan, &inc);
}

/// Under `respect_residual` the demand is part of the query: demands
/// 0.9 and 0.2 on one pair issue different queries. A 0.5 request takes
/// the only edge's residual from 1.2 to 0.7, after which the 0.9 request
/// (the lower density) is unroutable while the 0.2 request still routes.
/// A negative carried exponent keeps the guard sum far below its bound —
/// with `carry = 0` the guard stops every run while residuals are >= 1,
/// so the gate never bites.
#[test]
fn residual_gate_splits_classes_by_demand() {
    let mut gb = GraphBuilder::directed(2);
    gb.add_edge(NodeId(0), NodeId(1), 1.2);
    let inst = UfpInstance::new(
        gb.build(),
        vec![
            Request::new(NodeId(0), NodeId(1), 0.9, 9.0),
            Request::new(NodeId(0), NodeId(1), 0.2, 0.2),
            Request::new(NodeId(0), NodeId(1), 0.5, 10.0),
        ],
    );
    let ctx = EpochContext {
        capacities: &[1.2],
        usable: &[true],
        carry: &[-30.0],
        routable: None,
    };
    let mut fan_cfg = with_strategy(0.5, SelectionStrategy::FanOut);
    fan_cfg.respect_residual = true;
    let mut inc_cfg = with_strategy(0.5, SelectionStrategy::Incremental);
    inc_cfg.respect_residual = true;
    let fan = bounded_ufp_epoch(&inst, &fan_cfg, Some(&ctx));
    let inc = bounded_ufp_epoch(&inst, &inc_cfg, Some(&ctx));
    let order: Vec<RequestId> = fan.run.solution.routed.iter().map(|(r, _)| *r).collect();
    assert_eq!(order, vec![RequestId(2), RequestId(1)]);
    assert_eq!(fan.run.trace.stop_reason, StopReason::NoPath);
    assert_outcomes_bit_identical(&fan, &inc);
}

/// `bounded_ufp` (the public one-shot entry) defaults to Incremental;
/// explicit FanOut must agree on the classic fixtures.
#[test]
fn default_strategy_is_incremental_and_equivalent() {
    assert_eq!(
        BoundedUfpConfig::default().selection,
        SelectionStrategy::Incremental
    );
    let mut gb = GraphBuilder::directed(4);
    gb.add_edge(NodeId(0), NodeId(1), 20.0);
    gb.add_edge(NodeId(1), NodeId(3), 20.0);
    gb.add_edge(NodeId(0), NodeId(2), 20.0);
    gb.add_edge(NodeId(2), NodeId(3), 20.0);
    let inst = UfpInstance::new(
        gb.build(),
        (0..30)
            .map(|i| Request::new(NodeId(0), NodeId(3), 1.0, 1.0 + (i % 5) as f64))
            .collect(),
    );
    let default_run = bounded_ufp(&inst, &BoundedUfpConfig::with_epsilon(0.5));
    let fan_run = bounded_ufp(
        &inst,
        &BoundedUfpConfig::with_epsilon(0.5).with_selection(SelectionStrategy::FanOut),
    );
    assert_eq!(
        default_run.solution.routed.len(),
        fan_run.solution.routed.len()
    );
    for (a, b) in default_run
        .solution
        .routed
        .iter()
        .zip(&fan_run.solution.routed)
    {
        assert_eq!(a.0, b.0);
        assert_eq!(a.1.nodes(), b.1.nodes());
    }
}
