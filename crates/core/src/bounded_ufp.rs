//! Algorithm 1 — `Bounded-UFP(ε)`: the paper's monotone deterministic
//! primal–dual algorithm for the `Ω(ln m / ε²)`-bounded unsplittable flow
//! problem, with approximation ratio approaching `e/(e−1)` (Theorem 3.1).
//!
//! Faithful to the paper's pseudocode:
//!
//! 1. `y_e ← 1/c_e` for every edge.
//! 2. While requests remain and `Σ c_e y_e ≤ e^{ε(B−1)}`:
//!    a. for every unrouted request `r`, find the shortest `s_r → t_r`
//!    path `p_r` under weights `y`;
//!    b. select `r̂` minimizing the *normalized length*
//!    `(d_r / v_r)·|p_r|` (ties broken by request id — any fixed rule
//!    preserves monotonicity);
//!    c. multiply `y_e ← y_e · e^{εB d_{r̂} / c_e}` along `p_{r̂}`;
//!    d. route `r̂` on `p_{r̂}`.
//!
//! Production details beyond the pseudocode (see DESIGN.md §4):
//! log-space weights so small ε cannot overflow, per-iteration parallel
//! shortest-path fan-out grouped by source vertex, and the Claim 3.6 dual
//! certificate recorded per iteration so every run carries a certified
//! bound on its own approximation ratio.

use ufp_netgraph::dijkstra::{Dijkstra, Targets};
use ufp_netgraph::ids::NodeId;
use ufp_netgraph::path::Path;
use ufp_obs::{Phase, Recorder};
use ufp_par::Pool;

use crate::instance::UfpInstance;
use crate::request::RequestId;
use crate::selection::{IncrementalSelector, SelectInputs, SelectionStrategy};
use crate::solution::UfpSolution;
use crate::trace::{Certificate, IterationRecord, RunTrace, StopReason};
use crate::weights::DualWeights;

/// Configuration for [`bounded_ufp`].
#[derive(Clone, Debug)]
pub struct BoundedUfpConfig {
    /// Accuracy parameter ε ∈ (0, 1]. Theorem 3.1 calls the algorithm
    /// with `ε/6` to obtain a `(1+ε)·e/(e−1)` guarantee when
    /// `B ≥ ln(m)/ε²`.
    pub epsilon: f64,
    /// Parallelism for the per-iteration shortest-path fan-out.
    pub pool: Pool,
    /// Extension (not in the paper): restrict path search to edges with
    /// residual capacity ≥ the request's demand. Feasibility then holds
    /// by construction instead of by the guard, but the Claim 3.6 dual
    /// certificate no longer applies (`α` may be inflated). Monotonicity
    /// is preserved: lowering one's demand only enlarges one's own path
    /// set. Used by the E10/E11 ablations.
    pub respect_residual: bool,
    /// How each iteration's argmin is found. Both strategies are
    /// bit-identical in every output; see [`SelectionStrategy`].
    pub selection: SelectionStrategy,
    /// Observability recorder (off by default). Strictly out-of-band:
    /// it sees guard slack, dual-weight growth, and selection phases,
    /// and feeds nothing back — runs are bit-identical with it on or
    /// off.
    pub obs: Recorder,
}

impl Default for BoundedUfpConfig {
    fn default() -> Self {
        BoundedUfpConfig {
            epsilon: 0.1,
            pool: Pool::sequential(),
            respect_residual: false,
            selection: SelectionStrategy::default(),
            obs: Recorder::off(),
        }
    }
}

impl BoundedUfpConfig {
    /// Paper-faithful configuration with the given ε.
    pub fn with_epsilon(epsilon: f64) -> Self {
        assert!(
            epsilon > 0.0 && epsilon <= 1.0,
            "epsilon must lie in (0, 1], got {epsilon}"
        );
        BoundedUfpConfig {
            epsilon,
            ..Default::default()
        }
    }

    /// Same configuration with a parallel pool.
    pub fn parallel(mut self, pool: Pool) -> Self {
        self.pool = pool;
        self
    }

    /// Same configuration with the given selection strategy.
    pub fn with_selection(mut self, selection: SelectionStrategy) -> Self {
        self.selection = selection;
        self
    }

    /// Same configuration with an observability recorder attached.
    pub fn with_obs(mut self, obs: Recorder) -> Self {
        self.obs = obs;
        self
    }
}

/// Result of a [`bounded_ufp`] run.
#[derive(Clone, Debug)]
pub struct UfpRunResult {
    /// The allocation `W`.
    pub solution: UfpSolution,
    /// Analysis trace (α, D₁, P per iteration) and stop reason.
    pub trace: RunTrace,
}

impl UfpRunResult {
    /// Certified upper bound on OPT via Claim 3.6, if applicable.
    pub fn dual_upper_bound(&self) -> Option<f64> {
        self.trace.dual_upper_bound()
    }

    /// Certified upper bound on OPT, tightened with the trivial bound
    /// `OPT ≤ Σ_r v_r` (which is what makes exhausted runs — the paper's
    /// "if L = ∅ the output is optimal" case — certify ratio 1).
    pub fn tight_upper_bound(&self, instance: &UfpInstance) -> Option<f64> {
        self.dual_upper_bound()
            .map(|d| d.min(instance.total_value()))
    }

    /// Certified approximation ratio `bound / value` (≥ 1 up to fp noise).
    pub fn certified_ratio(&self, instance: &UfpInstance) -> Option<f64> {
        let v = self.solution.value(instance);
        if v <= 0.0 {
            return None;
        }
        self.tight_upper_bound(instance).map(|d| d / v)
    }
}

/// Per-request shortest-path query result within one iteration.
///
/// The argmin selection needs every remaining request's distance, but
/// only the *selected* request's path is ever used. For large remaining
/// sets the fan-out therefore skips the `O(remaining · hops)` path
/// reconstructions (`path: None`) and the main loop re-derives the one
/// chosen path with a single targeted Dijkstra — bit-identical, since
/// pop order and parent pointers do not depend on the target set. For
/// small remaining sets (fewer than the graph has nodes) the
/// reconstructions are cheaper than an extra Dijkstra, so the fan-out
/// keeps collecting paths. Either mode yields identical results; the
/// switch is purely a cost model.
struct PathFinding {
    request: RequestId,
    /// Distance in *materialized* (shifted) weight scale.
    dist: f64,
}

/// Residual-epoch inputs that let `ufp-engine` reuse Algorithm 1
/// incrementally across streaming batches. All three slices are indexed
/// by edge id of the instance graph.
///
/// With a trivial context (full capacities, everything usable, zero
/// carry) the epoch run produces the identical allocation — same
/// selection order, same paths, bit-identical trace records — as the
/// one-shot [`bounded_ufp`]; the engine/offline equivalence tests rely
/// on that. The only difference: epoch runs never carry a Claim 3.6
/// certificate (`dual_upper_bound()` is `None`), because the claim's
/// premise does not survive masked edges or carried weights.
#[derive(Clone, Copy, Debug)]
pub struct EpochContext<'a> {
    /// Effective (residual) capacity per edge; replaces `c_e` in the
    /// weight initialization, the guard bound `B`, and the line-10
    /// exponent.
    pub capacities: &'a [f64],
    /// Edges admissible this epoch. Unusable (saturated) edges are
    /// excluded from path search, from `B`, and from the guard sum `D₁`.
    pub usable: &'a [bool],
    /// Carried ln-space dual exponents from earlier epochs:
    /// `y_e` starts at `e^{carry_e}/c_e` instead of `1/c_e`, preserving
    /// congestion memory across batches.
    pub carry: &'a [f64],
    /// Edges this run may *route over*, on top of `usable` (`None` = all
    /// usable edges, the pre-sharding behavior). A sharded engine hands
    /// every shard the **global** `capacities`/`usable`/`carry` — so the
    /// bound `B`, the guard sum `D₁`, and the line-10 exponents are
    /// bit-identical to a single global engine's — while restricting
    /// path search to the shard's own territory through this mask.
    /// Routable-but-unusable edges stay excluded; usable-but-unroutable
    /// edges still count toward `B` and `D₁` but never appear on paths.
    pub routable: Option<&'a [bool]>,
}

/// Result of a [`bounded_ufp_epoch`] run: the ordinary run result plus
/// the carried-forward dual exponents (input carry + this epoch's
/// line-10 bumps).
#[derive(Clone, Debug)]
pub struct EpochOutcome {
    /// Allocation and trace, exactly as from [`bounded_ufp`].
    pub run: UfpRunResult,
    /// `carry_in + Σ bumps` per edge — hand this to the next epoch.
    /// Empty for context-free (one-shot) runs, which have no next epoch;
    /// tracking it there would tax every `critical_value` probe.
    pub carry: Vec<f64>,
}

/// Run Algorithm 1. The instance must be normalized (`d_r ∈ (0,1]`).
pub fn bounded_ufp(instance: &UfpInstance, config: &BoundedUfpConfig) -> UfpRunResult {
    bounded_ufp_epoch(instance, config, None).run
}

/// One recorded selection step of an epoch run: everything needed to
/// re-apply the step's state mutations *without* re-running its
/// shortest-path queries. The bump exponents are stored verbatim so the
/// replay is bit-identical to the original arithmetic sequence.
#[derive(Clone, Debug)]
struct ResumeStep {
    path: Path,
    /// Line-10 exponent per path edge, in `path.edges()` order.
    bumps: Vec<f64>,
    /// Raw (materialized-scale) argmin score `(d/v)·|p|` at selection
    /// time — the exact `f64` the selection loop compared, before the
    /// `ln`+shift round-trip that produces `record.ln_alpha`. Kept so
    /// external mergers can break `ln α` ties by the loop's own key.
    raw_score: f64,
    record: IterationRecord,
}

/// Per-step checkpoint trace of an epoch run, produced by
/// [`bounded_ufp_epoch_traced`]. From it, [`EpochResumeTrace::checkpoint`]
/// reconstructs the run's exact state after any step prefix in
/// `O(prefix · path length)` arithmetic — no shortest-path work — and
/// [`bounded_ufp_epoch_resume`] continues the run from there.
///
/// The point (Lemma 3.4's monotonicity made operational): when one
/// agent's declared value is *lowered*, the selection sequence is
/// unchanged up to the step that originally selected that agent — its
/// score `(d/v)·|p|` only rises, and every earlier argmin already beat
/// it. Pricing that agent ([`bounded_ufp_epoch_critical_value`])
/// therefore only re-runs the *suffix* from that step, once, which is
/// what makes truthful pricing viable at 10⁴-request epochs.
///
/// A trace recorded by [`bounded_ufp_epoch_traced`] is *native*: its
/// steps are the argmin sequence of one run, so a selector that follows
/// them selects each recorded winner in turn, and
/// [`EpochResumeTrace::price_winners`] reuses that selector's state.
/// Pushing a step ([`EpochResumeTrace::push_step`]) makes a trace
/// *merged*: an interleaving of several runs' steps, which no single
/// selector reproduces, so its winners are priced from cold selectors.
#[derive(Clone, Debug, Default)]
pub struct EpochResumeTrace {
    steps: Vec<ResumeStep>,
    native: bool,
}

/// Read-only view of one recorded selection step, exposed so external
/// replayers — in particular `ufp_shard`'s cross-shard reconciliation,
/// which merges several shards' traces into one global order and
/// re-applies the recorded bumps through a global [`DualWeights`] — can
/// reproduce the exact arithmetic of the traced run without re-running
/// any shortest-path work.
#[derive(Clone, Copy, Debug)]
pub struct TraceStep<'a> {
    /// The request this step selected.
    pub selected: RequestId,
    /// `ln α` of the selected path at selection time (shift-invariant,
    /// so scores recorded by runs with different materialization scales
    /// remain comparable).
    pub ln_alpha: f64,
    /// Raw argmin score `(d/v)·|p|` exactly as the selection loop
    /// compared it — the full-precision key behind `ln_alpha`, which
    /// loses up to one ulp in the `ln` round-trip. Tie-break on this
    /// (then on id) to reproduce single-run selection order exactly.
    /// Unlike `ln_alpha` it is in the run's materialization scale, so it
    /// is only comparable across runs whose `DualWeights` shifts agree
    /// (true for shards replaying the same epoch context until a
    /// re-center diverges — and a divergent re-center already perturbs
    /// `ln_alpha`'s own bits).
    pub raw_score: f64,
    /// The routed path.
    pub path: &'a Path,
    /// Line-10 exponent per path edge, verbatim as applied.
    pub bumps: &'a [f64],
}

impl EpochResumeTrace {
    /// Number of recorded selection steps.
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// The step index at which `r` was selected, if it was.
    pub fn selection_step(&self, r: RequestId) -> Option<usize> {
        self.steps.iter().position(|s| s.record.selected == r)
    }

    /// Whether the steps are one run's own argmin sequence (recorded by
    /// [`bounded_ufp_epoch_traced`] and never pushed to).
    pub fn is_native(&self) -> bool {
        self.native
    }

    /// Read-only view of step `i` (panics past the end of the trace).
    pub fn step(&self, i: usize) -> TraceStep<'_> {
        let s = &self.steps[i];
        TraceStep {
            selected: s.record.selected,
            ln_alpha: s.record.ln_alpha,
            raw_score: s.raw_score,
            path: &s.path,
            bumps: &s.bumps,
        }
    }

    /// Append one externally supplied step — the assembly primitive for
    /// *merged* traces. A sharded engine's merge-replay interleaves the
    /// shards' recorded steps into the global `(ln α, raw score, id)`
    /// order; pushing each merged step here (with its request id remapped
    /// into the global epoch instance, `ln_d1` read from the global dual
    /// weights, and `routed_value_before` the global running value sum)
    /// yields an [`EpochResumeTrace`] over the global instance that
    /// behaves exactly like one produced by [`bounded_ufp_epoch_traced`]:
    /// [`Self::checkpoint`] / [`Self::prefix_outcome`] replay it by
    /// arithmetic, and [`bounded_ufp_epoch_critical_value`] prices
    /// winners against it with the same O(suffix) resume discipline.
    ///
    /// `bumps` must hold one line-10 exponent per `path.edges()` entry,
    /// and `routed_value_before` must equal the sum of the previously
    /// pushed steps' request values in push order (the replay
    /// debug-asserts this ordering invariant). The trace is merged from
    /// then on ([`EpochResumeTrace::is_native`] is `false`).
    #[allow(clippy::too_many_arguments)] // mirrors the recorded step verbatim
    pub fn push_step(
        &mut self,
        selected: RequestId,
        ln_alpha: f64,
        raw_score: f64,
        ln_d1: f64,
        routed_value_before: f64,
        path: Path,
        bumps: Vec<f64>,
    ) {
        assert_eq!(
            path.edges().len(),
            bumps.len(),
            "one bump exponent per path edge"
        );
        self.native = false;
        self.steps.push(ResumeStep {
            path,
            bumps,
            raw_score,
            record: IterationRecord {
                selected,
                ln_alpha,
                ln_d1,
                routed_value_before,
            },
        });
    }

    /// Repackage the first `steps` selections as a completed
    /// [`EpochOutcome`] with the given stop reason — bit-identical
    /// solution, records, and carry prefix, reconstructed by arithmetic
    /// replay. This is how a sharded engine truncates a shard's
    /// over-admission when the *global* guard (which the shard could not
    /// see) tripped mid-epoch: the kept prefix is exactly the run the
    /// shard would have produced had it stopped there.
    pub fn prefix_outcome(
        &self,
        instance: &UfpInstance,
        config: &BoundedUfpConfig,
        ctx: Option<&EpochContext<'_>>,
        steps: usize,
        stop_reason: StopReason,
    ) -> EpochOutcome {
        let checkpoint = self.checkpoint(instance, config, ctx, steps);
        let b = epoch_bound_b(instance, ctx);
        let ln_guard = config.epsilon * (b - 1.0);
        finish_outcome(
            config,
            ctx.is_some(),
            checkpoint.state,
            stop_reason,
            ln_guard,
        )
    }

    /// Reconstruct the run state after the first `steps` selections, by
    /// replaying the recorded mutations (no shortest-path queries).
    /// `instance`, `config` and `ctx` must match the traced run — except
    /// that requests not selected within the prefix may carry different
    /// declared values (the counterfactuals of payment probes).
    pub fn checkpoint(
        &self,
        instance: &UfpInstance,
        config: &BoundedUfpConfig,
        ctx: Option<&EpochContext<'_>>,
        steps: usize,
    ) -> EpochCheckpoint {
        validate_epoch_inputs(instance, config, ctx);
        let mut cursor = TraceCursor::new(self, instance, config, ctx, None, false);
        cursor.advance_to(steps);
        cursor.into_checkpoint()
    }

    /// Price `winners` — `(request, its selection step)` pairs of this
    /// trace — at their exact critical values, one
    /// [`bounded_ufp_epoch_critical_value`] suffix run each, returned in
    /// `winners` order. `instance`, `config` and `ctx` must be the traced
    /// run's own.
    ///
    /// The winners are sorted by step and split into about two contiguous
    /// runs per pool thread; each run is one pool job. A job replays the
    /// trace by arithmetic up to its first winner and then walks the
    /// recorded steps forward, forking a checkpoint at each winner's
    /// step. On a native trace under [`SelectionStrategy::Incremental`]
    /// the job's selector follows the recorded steps (`select` +
    /// `after_step`, seeded once per job), and each fork carries a clone
    /// of it, so a suffix run starts from the traced run's own cached
    /// paths instead of re-seeding every query class. A merged trace is
    /// priced one winner per job from a cold selector. Each winner's
    /// work runs under a `payment.probe` span whose `suffix_len` counts
    /// the steps past its step. The split never changes a price.
    pub fn price_winners(
        &self,
        instance: &UfpInstance,
        config: &BoundedUfpConfig,
        ctx: Option<&EpochContext<'_>>,
        winners: &[(RequestId, usize)],
    ) -> Vec<CriticalPrice> {
        let jobs = 2 * config.pool.threads().max(1);
        let run_len = winners.len().div_ceil(jobs);
        self.price_winners_in_runs(instance, config, ctx, winners, run_len)
    }

    /// [`EpochResumeTrace::price_winners`] with an explicit run length:
    /// each pool job prices up to `run_len` consecutive winners (by
    /// step). Merged traces always use runs of one. Exposed so tests can
    /// pin the split; prices are bit-identical for every `run_len`.
    pub fn price_winners_in_runs(
        &self,
        instance: &UfpInstance,
        config: &BoundedUfpConfig,
        ctx: Option<&EpochContext<'_>>,
        winners: &[(RequestId, usize)],
        run_len: usize,
    ) -> Vec<CriticalPrice> {
        validate_epoch_inputs(instance, config, ctx);
        for &(agent, step) in winners {
            assert_eq!(
                self.step(step).selected,
                agent,
                "winner step does not match the trace"
            );
        }
        let warm = self.native && config.selection == SelectionStrategy::Incremental;
        let run_len = if self.native { run_len.max(1) } else { 1 };
        let merged_mask = path_mask(ctx);
        let usable = merged_mask.as_deref().or(ctx.map(|c| c.usable));
        let total_steps = self.num_steps();

        let mut order: Vec<usize> = (0..winners.len()).collect();
        order.sort_unstable_by_key(|&i| winners[i].1);
        let runs: Vec<&[usize]> = order.chunks(run_len).collect();
        // The suffix runs execute *inside* pool workers. Nested dispatch
        // (the selector's grouped refresh) is deadlock-free since
        // `ufp_par` waits help-first, and results are unaffected either
        // way: parallel and sequential fan-outs are bit-identical by
        // `ufp_par`'s ordered reduction.
        let priced: Vec<Vec<CriticalPrice>> = config.pool.map(&runs, |_, run| {
            let mut cursor = Some(TraceCursor::new(self, instance, config, ctx, usable, warm));
            let mut prices = Vec::with_capacity(run.len());
            for (j, &i) in run.iter().enumerate() {
                let (agent, step) = winners[i];
                let _span = config.obs.span_attr(
                    Phase::PaymentProbe,
                    "suffix_len",
                    (total_steps - step) as u64,
                );
                let c = cursor.as_mut().expect("the cursor outlives its run");
                c.advance_to(step);
                let checkpoint = if j + 1 == run.len() {
                    cursor.take().expect("taken once").into_checkpoint()
                } else {
                    c.fork()
                };
                prices.push(bounded_ufp_epoch_critical_value(
                    instance, config, ctx, checkpoint, agent,
                ));
            }
            prices
        });

        let mut out = vec![None; winners.len()];
        for (&i, price) in order.iter().zip(priced.into_iter().flatten()) {
            out[i] = Some(price);
        }
        out.into_iter()
            .map(|p| p.expect("every winner is priced"))
            .collect()
    }
}

/// A forward cursor over a recorded trace: the run state after
/// `state.steps_done` steps, advanced by arithmetic replay. A *warm*
/// cursor also drives an [`IncrementalSelector`] through the recorded
/// steps, mirroring the traced run's own `select` + `after_step` and
/// checking each selection against the recorded winner, so checkpoints
/// forked from it carry the selector instead of re-seeding one. The
/// selector is seeded at the first fork; the prefix before it is pure
/// arithmetic either way. Only native traces may be walked warm.
struct TraceCursor<'a> {
    trace: &'a EpochResumeTrace,
    instance: &'a UfpInstance,
    config: &'a BoundedUfpConfig,
    usable: Option<&'a [bool]>,
    state: EpochRunState,
    warm: bool,
    selector: Option<IncrementalSelector>,
}

impl<'a> TraceCursor<'a> {
    fn new(
        trace: &'a EpochResumeTrace,
        instance: &'a UfpInstance,
        config: &'a BoundedUfpConfig,
        ctx: Option<&EpochContext<'_>>,
        usable: Option<&'a [bool]>,
        warm: bool,
    ) -> Self {
        debug_assert!(!warm || trace.native, "only native traces are walked warm");
        TraceCursor {
            trace,
            instance,
            config,
            usable,
            state: EpochRunState::init(instance, ctx),
            warm,
            selector: None,
        }
    }

    /// Replay forward to just before step `step` (steps already applied
    /// stay applied: a cursor never moves back).
    fn advance_to(&mut self, step: usize) {
        assert!(
            step <= self.trace.steps.len(),
            "checkpoint past the end of the trace ({step} > {})",
            self.trace.steps.len()
        );
        debug_assert!(self.state.steps_done <= step, "cursors only move forward");
        while self.state.steps_done < step {
            let recorded = &self.trace.steps[self.state.steps_done];
            if self.selector.is_some() {
                self.select_recorded();
            }
            self.state.replay(self.instance, recorded);
            if let Some(selector) = self.selector.as_mut() {
                selector.after_step(
                    recorded.record.selected,
                    &recorded.path,
                    &self.state.weights,
                );
            }
        }
    }

    /// Mirror the traced run's selection at the current step (seeding the
    /// selector on first use) and check it against the recorded winner.
    fn select_recorded(&mut self) {
        let k = self.state.steps_done;
        let recorded = self.trace.steps[k].record.selected;
        let instance = self.instance;
        let selector = self
            .selector
            .get_or_insert_with(|| IncrementalSelector::new(instance));
        let inputs = select_inputs(instance, self.config, self.usable, &self.state);
        let picked = selector
            .select(&self.state.remaining, &inputs)
            .map(|(r, _)| r);
        assert_eq!(
            picked,
            Some(recorded),
            "warm selector diverged from the native trace at step {k}"
        );
    }

    /// A checkpoint at the current step; a warm cursor first selects the
    /// step's recorded winner, and the checkpoint gets a clone of its
    /// selector.
    fn fork(&mut self) -> EpochCheckpoint {
        if self.warm {
            self.select_recorded();
        }
        EpochCheckpoint {
            state: self.state.clone(),
            selector: self.selector.clone(),
        }
    }

    /// [`TraceCursor::fork`] without the copy.
    fn into_checkpoint(mut self) -> EpochCheckpoint {
        if self.warm {
            self.select_recorded();
        }
        EpochCheckpoint {
            state: self.state,
            selector: self.selector,
        }
    }
}

/// Materialized state of an epoch run after some step prefix — the
/// resumable snapshot handed to [`bounded_ufp_epoch_resume`] and
/// [`bounded_ufp_epoch_critical_value`].
///
/// Checkpoints from [`EpochResumeTrace::checkpoint`] are cold: the
/// resumed run seeds a fresh selector. Checkpoints forked inside
/// [`EpochResumeTrace::price_winners`] may also carry a warm
/// incremental selector that has just selected the step's recorded
/// winner; the resumed loop uses it in place of a fresh one.
#[derive(Clone, Debug)]
pub struct EpochCheckpoint {
    state: EpochRunState,
    selector: Option<IncrementalSelector>,
}

impl EpochCheckpoint {
    /// Number of selection steps already applied in this snapshot.
    pub fn steps(&self) -> usize {
        self.state.steps_done
    }
}

/// Everything the Algorithm 1 main loop mutates, factored out so runs
/// can be checkpointed, cloned, and resumed.
#[derive(Clone, Debug)]
struct EpochRunState {
    weights: DualWeights,
    carry: Option<Vec<f64>>,
    remaining: Vec<RequestId>,
    residual: Vec<f64>,
    solution: UfpSolution,
    routed_value: f64,
    records: Vec<IterationRecord>,
    /// Selection steps applied so far ([`EpochCheckpoint::steps`]).
    steps_done: usize,
}

impl EpochRunState {
    fn init(instance: &UfpInstance, ctx: Option<&EpochContext<'_>>) -> Self {
        let graph = instance.graph();
        let weights = match ctx {
            None => DualWeights::new(graph),
            Some(c) => DualWeights::with_context(c.capacities, c.usable, c.carry),
        };
        let carry: Option<Vec<f64>> = ctx.map(|c| c.carry.to_vec());
        let remaining: Vec<RequestId> = instance.request_ids().collect();
        let residual: Vec<f64> = match ctx {
            None => graph.edges().iter().map(|e| e.capacity).collect(),
            Some(c) => c.capacities.to_vec(),
        };
        let n = remaining.len();
        EpochRunState {
            weights,
            carry,
            remaining,
            residual,
            solution: UfpSolution::empty(),
            routed_value: 0.0,
            records: Vec::with_capacity(n),
            steps_done: 0,
        }
    }

    /// Re-apply one recorded step: identical mutation order (record,
    /// bumps, carry, residual, value, solution, remaining) and identical
    /// arithmetic to the live loop, so the resulting state is
    /// bit-identical to having executed the step.
    fn replay(&mut self, instance: &UfpInstance, step: &ResumeStep) {
        let req = *instance.request(step.record.selected);
        debug_assert_eq!(
            step.record.routed_value_before, self.routed_value,
            "resume trace replayed out of order"
        );
        self.records.push(step.record);
        for (&e, &exponent) in step.path.edges().iter().zip(&step.bumps) {
            self.weights.bump(e, exponent);
            if let Some(k) = self.carry.as_mut() {
                k[e.index()] += exponent;
            }
            self.residual[e.index()] -= req.demand;
        }
        self.routed_value += req.value;
        self.solution
            .routed
            .push((step.record.selected, step.path.clone()));
        let selected = step.record.selected;
        self.remaining.retain(|r| *r != selected);
        self.steps_done += 1;
    }
}

/// Shared input validation for all epoch entry points.
fn validate_epoch_inputs(
    instance: &UfpInstance,
    config: &BoundedUfpConfig,
    ctx: Option<&EpochContext<'_>>,
) {
    assert!(
        instance.is_normalized(),
        "Bounded-UFP requires a normalized instance (demands in (0,1]); \
         call UfpInstance::normalized() first"
    );
    assert!(
        config.epsilon > 0.0 && config.epsilon <= 1.0,
        "epsilon must lie in (0, 1]"
    );
    if let Some(c) = ctx {
        let m = instance.graph().num_edges();
        assert_eq!(c.capacities.len(), m);
        assert_eq!(c.usable.len(), m);
        assert_eq!(c.carry.len(), m);
        if let Some(r) = c.routable {
            assert_eq!(r.len(), m);
        }
    }
}

/// The loop's path-search filter: `usable ∧ routable`, materialized only
/// when the context actually restricts routing beyond usability.
fn path_mask(ctx: Option<&EpochContext<'_>>) -> Option<Vec<bool>> {
    let c = ctx?;
    let r = c.routable?;
    Some(c.usable.iter().zip(r).map(|(&u, &x)| u && x).collect())
}

/// The guard bound `B`: minimum capacity over (usable) edges.
fn epoch_bound_b(instance: &UfpInstance, ctx: Option<&EpochContext<'_>>) -> f64 {
    match ctx {
        None => instance.graph().min_capacity(),
        Some(c) => c
            .capacities
            .iter()
            .zip(c.usable)
            .filter(|&(_, &u)| u)
            .map(|(&cap, _)| cap)
            .fold(f64::INFINITY, f64::min),
    }
}

/// The Algorithm 1 main loop over an [`EpochRunState`], dispatching on
/// the configured [`SelectionStrategy`]. Both bodies drive the same
/// [`apply_step`], and their selections are bit-identical by the
/// monotonicity contract (proptested) — strategy choice changes cost,
/// never results.
///
/// * `record_steps` — when set, every executed step is appended as a
///   [`ResumeStep`] (the traced run).
/// * `observer` — when set, it sees every iteration's argmin and score
///   *before* the step is applied (the pricing suffix run); it reads the
///   state and never changes the run.
/// * `warm` — a selector consistent with `state` (from a warm
///   [`EpochCheckpoint`]); the incremental loop continues with it
///   instead of seeding a new one, and the fan-out loop, which has no
///   selector, ignores it.
#[allow(clippy::too_many_arguments)] // internal: one call site per entry point
fn run_epoch_loop(
    instance: &UfpInstance,
    config: &BoundedUfpConfig,
    usable: Option<&[bool]>,
    b: f64,
    ln_guard: f64,
    state: &mut EpochRunState,
    record_steps: Option<&mut Vec<ResumeStep>>,
    observer: Option<&mut CriticalWatch<'_>>,
    warm: Option<IncrementalSelector>,
) -> StopReason {
    match config.selection {
        SelectionStrategy::FanOut => run_epoch_loop_fanout(
            instance,
            config,
            usable,
            b,
            ln_guard,
            state,
            record_steps,
            observer,
        ),
        SelectionStrategy::Incremental => run_epoch_loop_incremental(
            instance,
            config,
            usable,
            b,
            ln_guard,
            state,
            record_steps,
            observer,
            warm.unwrap_or_else(|| IncrementalSelector::new(instance)),
        ),
    }
}

/// The selector's view of the loop state.
fn select_inputs<'s>(
    instance: &'s UfpInstance,
    config: &'s BoundedUfpConfig,
    usable: Option<&'s [bool]>,
    state: &'s EpochRunState,
) -> SelectInputs<'s> {
    SelectInputs {
        instance,
        weights: &state.weights,
        residual: &state.residual,
        usable,
        respect_residual: config.respect_residual,
        pool: &config.pool,
        obs: &config.obs,
    }
}

/// Apply one selected step to the loop state: the iteration record, the
/// line-10 weight bumps, carry, residuals, routed value, the remaining
/// set, and the solution/trace appends — in exactly this order, which
/// [`EpochRunState::replay`] reproduces for bit-identical resumes. Both
/// selection strategies funnel through here so the mutation sequence
/// cannot diverge between them.
#[allow(clippy::too_many_arguments)] // internal: the loop bodies are the only callers
fn apply_step(
    instance: &UfpInstance,
    config: &BoundedUfpConfig,
    b: f64,
    state: &mut EpochRunState,
    record_steps: Option<&mut Vec<ResumeStep>>,
    selected: RequestId,
    score: f64,
    ln_d1: f64,
    path: Path,
) {
    let eps = config.epsilon;
    let req = *instance.request(selected);

    // Claim 3.6 bookkeeping: α(i) in log space (shift restores the
    // true scale of the materialized distance).
    let ln_alpha = if score > 0.0 {
        score.ln() + state.weights.shift()
    } else {
        f64::NEG_INFINITY
    };
    let record = IterationRecord {
        selected,
        ln_alpha,
        ln_d1,
        routed_value_before: state.routed_value,
    };
    state.records.push(record);

    // Line 10: y_e ← y_e · e^{εB d / c_e} along the chosen path.
    let mut bumps = record_steps
        .is_some()
        .then(|| Vec::with_capacity(path.edges().len()));
    for &e in path.edges() {
        let c = state.weights.capacity(e);
        let exponent = eps * b * req.demand / c;
        state.weights.bump(e, exponent);
        if let Some(k) = state.carry.as_mut() {
            k[e.index()] += exponent;
        }
        state.residual[e.index()] -= req.demand;
        if let Some(bs) = bumps.as_mut() {
            bs.push(exponent);
        }
    }

    state.routed_value += req.value;
    state.remaining.retain(|r| *r != selected);
    state.steps_done += 1;
    if let Some(steps) = record_steps {
        state.solution.routed.push((selected, path.clone()));
        steps.push(ResumeStep {
            path,
            bumps: bumps.unwrap_or_default(),
            raw_score: score,
            record,
        });
    } else {
        state.solution.routed.push((selected, path));
    }
}

/// The paper-literal loop: full shortest-path fan-out every iteration.
#[allow(clippy::too_many_arguments)]
fn run_epoch_loop_fanout(
    instance: &UfpInstance,
    config: &BoundedUfpConfig,
    usable: Option<&[bool]>,
    b: f64,
    ln_guard: f64,
    state: &mut EpochRunState,
    mut record_steps: Option<&mut Vec<ResumeStep>>,
    mut observer: Option<&mut CriticalWatch<'_>>,
) -> StopReason {
    let mut path_scratch = Dijkstra::new(instance.graph().num_nodes());
    let mut path_buf = Path::trivial(NodeId(0));
    loop {
        if state.remaining.is_empty() {
            return StopReason::Exhausted;
        }
        let ln_d1 = state.weights.ln_dual_sum();
        if ln_d1 > ln_guard {
            return StopReason::Guard;
        }

        // Cost model only — results are identical either way (see
        // `PathFinding`): below one path-reconstruction per node, the
        // fan-out collects paths inline; above it, distances only plus
        // one targeted re-run for the winner. Both fan-out variants
        // (grouped and residual-gated) follow the same model.
        let collect_paths = state.remaining.len() < instance.graph().num_nodes();
        let (findings, mut paths) = {
            let _span = config.obs.span(Phase::SelectionDijkstra);
            if config.respect_residual {
                shortest_findings_residual(
                    instance,
                    &state.remaining,
                    &state.weights,
                    &state.residual,
                    usable,
                    &config.pool,
                    collect_paths,
                )
            } else {
                shortest_findings_grouped(
                    instance,
                    &state.remaining,
                    &state.weights,
                    usable,
                    &config.pool,
                    collect_paths,
                )
            }
        };

        // Select r̂ minimizing (d/v)·|p| — deterministic tie-break on
        // request id (`<` keeps the first minimum among equal scores,
        // and every fan-out yields findings in an order where explicit
        // id comparison resolves ties identically).
        let mut best: Option<(f64, usize)> = None;
        for (i, f) in findings.iter().enumerate() {
            let score = instance.request(f.request).density() * f.dist;
            let better = match best {
                None => true,
                Some((bs, bi)) => score < bs || (score == bs && f.request < findings[bi].request),
            };
            if better {
                best = Some((score, i));
            }
        }
        let Some((score, idx)) = best else {
            return StopReason::NoPath;
        };
        let selected = findings[idx].request;
        if let Some(o) = observer.as_deref_mut() {
            o.observe(state, selected, score);
        }
        // Materialize only the winner's path: taken from the fan-out if
        // it collected paths, re-derived with one targeted query into
        // the reusable buffer if not.
        let path = if paths.is_empty() {
            chosen_path_into(
                &mut path_scratch,
                &mut path_buf,
                instance,
                &state.weights,
                config.respect_residual.then_some(state.residual.as_slice()),
                usable,
                selected,
            );
            path_buf.clone()
        } else {
            // Index-aligned with findings; order is dead after this read.
            paths.swap_remove(idx)
        };

        apply_step(
            instance,
            config,
            b,
            state,
            record_steps.as_deref_mut(),
            selected,
            score,
            ln_d1,
            path,
        );
    }
}

/// The incremental loop: dirty-set path cache + lazy score heap (see
/// [`crate::selection`]), driven by `selector` — a fresh one, or a warm
/// one consistent with `state`. Selector state is *derived*, so which of
/// the two drives the loop never changes its selections.
#[allow(clippy::too_many_arguments)]
fn run_epoch_loop_incremental(
    instance: &UfpInstance,
    config: &BoundedUfpConfig,
    usable: Option<&[bool]>,
    b: f64,
    ln_guard: f64,
    state: &mut EpochRunState,
    mut record_steps: Option<&mut Vec<ResumeStep>>,
    mut observer: Option<&mut CriticalWatch<'_>>,
    mut selector: IncrementalSelector,
) -> StopReason {
    loop {
        if state.remaining.is_empty() {
            return StopReason::Exhausted;
        }
        let ln_d1 = state.weights.ln_dual_sum();
        if ln_d1 > ln_guard {
            return StopReason::Guard;
        }

        let selection = {
            let inputs = select_inputs(instance, config, usable, state);
            selector.select(&state.remaining, &inputs)
        };
        let Some((selected, score)) = selection else {
            return StopReason::NoPath;
        };
        if let Some(o) = observer.as_deref_mut() {
            o.observe(state, selected, score);
        }
        // The winner's path comes straight from the cache: its exactness
        // is the invariant the dirty-set bookkeeping maintains. The
        // clone is the copy the solution owns either way.
        let path = selector.winner_path(selected).clone();
        apply_step(
            instance,
            config,
            b,
            state,
            record_steps.as_deref_mut(),
            selected,
            score,
            ln_d1,
            path,
        );
        let applied = &state
            .solution
            .routed
            .last()
            .expect("apply_step appends the routed path")
            .1;
        selector.after_step(selected, applied, &state.weights);
    }
}

/// Package a finished run state into an [`EpochOutcome`].
fn finish_outcome(
    config: &BoundedUfpConfig,
    had_ctx: bool,
    state: EpochRunState,
    stop_reason: StopReason,
    ln_guard: f64,
) -> EpochOutcome {
    let trace = RunTrace {
        records: state.records,
        ln_guard_threshold: ln_guard,
        stop_reason,
        certificate: if config.respect_residual || had_ctx {
            Certificate::None
        } else {
            Certificate::Claim36
        },
    };
    EpochOutcome {
        run: UfpRunResult {
            solution: state.solution,
            trace,
        },
        carry: state.carry.unwrap_or_default(),
    }
}

/// Run Algorithm 1 over one epoch of a long-lived network. `ctx` carries
/// the residual state; `None` reproduces the one-shot behavior exactly.
///
/// Per-epoch feasibility: with `B = min` *usable* residual capacity, the
/// Lemma 3.3 argument gives load `≤ c_e(B−1)/B + d ≤ c_e` on every edge
/// whenever every admitted demand satisfies `d ≤ c_e/B`, which holds for
/// normalized demands as long as unusable edges are exactly those with
/// residual below the caller's floor `≥ 1`. The streaming engine keeps
/// cumulative feasibility by induction over epochs.
pub fn bounded_ufp_epoch(
    instance: &UfpInstance,
    config: &BoundedUfpConfig,
    ctx: Option<&EpochContext<'_>>,
) -> EpochOutcome {
    run_epoch(instance, config, ctx, None)
}

/// [`bounded_ufp_epoch`] that additionally records a per-step
/// [`EpochResumeTrace`]. The outcome is bit-identical to the untraced
/// run; the trace enables prefix-resumed counterfactual probes.
pub fn bounded_ufp_epoch_traced(
    instance: &UfpInstance,
    config: &BoundedUfpConfig,
    ctx: Option<&EpochContext<'_>>,
) -> (EpochOutcome, EpochResumeTrace) {
    let mut trace = EpochResumeTrace {
        steps: Vec::new(),
        native: true,
    };
    let outcome = run_epoch(instance, config, ctx, Some(&mut trace.steps));
    (outcome, trace)
}

fn run_epoch(
    instance: &UfpInstance,
    config: &BoundedUfpConfig,
    ctx: Option<&EpochContext<'_>>,
    record_steps: Option<&mut Vec<ResumeStep>>,
) -> EpochOutcome {
    validate_epoch_inputs(instance, config, ctx);
    let b = epoch_bound_b(instance, ctx);
    let ln_guard = config.epsilon * (b - 1.0);
    let merged_mask = path_mask(ctx);
    let usable = merged_mask.as_deref().or(ctx.map(|c| c.usable));
    let mut state = EpochRunState::init(instance, ctx);
    let stop_reason = run_epoch_loop(
        instance,
        config,
        usable,
        b,
        ln_guard,
        &mut state,
        record_steps,
        None,
        None,
    );
    if config.obs.is_enabled() {
        // The paper's internal signals, gauged once per epoch run:
        // remaining guard headroom `ε(B−1) − ln D₁`, dual-weight
        // growth, and how often the log-sum-exp scale re-centered.
        // Counterfactual pricing runs (the resume entry points) are
        // deliberately not gauged — they would drown the real epoch's
        // signal in replay noise.
        let obs = &config.obs;
        obs.gauge_set("core.guard_slack", ln_guard - state.weights.ln_dual_sum());
        obs.gauge_set("core.dual_weight_max_ln_y", state.weights.max_ln_y());
        obs.gauge_set("core.weight_recenters", state.weights.recenters() as f64);
        obs.counter_add("core.epoch_runs", 1);
        obs.counter_add("core.steps_applied", state.steps_done as u64);
    }
    finish_outcome(config, ctx.is_some(), state, stop_reason, ln_guard)
}

/// Resume an epoch run from `checkpoint` and drive it to completion.
///
/// Provided `instance` differs from the traced instance only in ways
/// that cannot alter the checkpointed prefix — in particular, lowering
/// the declared value of a request selected *at or after* the
/// checkpoint's step — the outcome is **bit-identical** to running
/// [`bounded_ufp_epoch`] on `instance` from scratch with the same
/// `config` and `ctx` (which must match the traced run).
pub fn bounded_ufp_epoch_resume(
    instance: &UfpInstance,
    config: &BoundedUfpConfig,
    ctx: Option<&EpochContext<'_>>,
    checkpoint: EpochCheckpoint,
) -> EpochOutcome {
    validate_epoch_inputs(instance, config, ctx);
    let b = epoch_bound_b(instance, ctx);
    let ln_guard = config.epsilon * (b - 1.0);
    let merged_mask = path_mask(ctx);
    let usable = merged_mask.as_deref().or(ctx.map(|c| c.usable));
    let EpochCheckpoint {
        mut state,
        selector,
    } = checkpoint;
    let stop_reason = run_epoch_loop(
        instance, config, usable, b, ln_guard, &mut state, None, None, selector,
    );
    finish_outcome(config, ctx.is_some(), state, stop_reason, ln_guard)
}

/// A winner's exact critical value (Theorem 2.3), read off one
/// counterfactual suffix run by [`bounded_ufp_epoch_critical_value`],
/// together with the step and rival that set it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CriticalPrice {
    /// The critical value, clamped to `[0, declared]`: the agent is
    /// selected when it declares more and not when it declares less.
    pub value: f64,
    /// The binding step, in the trace's step numbering: the step of the
    /// agent-absent run where the minimum was attained or, for a zero
    /// price, the step at which that run ran out of rivals.
    pub step: usize,
    /// The request the agent has to outbid at `step` (that step's argmin
    /// in the agent-absent run); `None` for a zero price.
    pub rival: Option<RequestId>,
    /// How the agent-absent suffix run stopped.
    pub stop: StopReason,
}

/// Price `agent` exactly with one counterfactual suffix run.
///
/// `checkpoint` must sit at or before the step that selected `agent` in
/// a traced run of `instance` under the same `config` and `ctx`
/// (normally exactly at it). Declaring any value `v` below its bid, the
/// agent leaves every earlier selection alone (Lemma 3.4), and the run
/// follows the *agent-absent* run from the checkpoint until the agent is
/// chosen. At step `k` of that run the agent is chosen iff
/// `(d/v)·dist_k < best_k` (ties to the lower id), where `best_k` is the
/// step's argmin score and `dist_k` the agent's shortest distance under
/// its own edge filter (usable ∧ routable, and residual ≥ `d` under
/// `respect_residual`). The critical value is therefore
/// `min_k d·dist_k / best_k`, and 0 when the agent-absent run ends
/// `Exhausted` or `NoPath` while the guard still has room and the agent
/// is routable; a `Guard` stop adds nothing.
///
/// The agent's distance comes from one targeted query, cached and re-run
/// only when a step's path crosses the cached path or the dual weights
/// re-centre — the invariant the incremental selector's path cache
/// rests on — so pricing costs one suffix run plus a few agent queries.
/// `FanOut` and `Incremental` selection return bit-identical prices, and
/// so do cold and warm checkpoints.
pub fn bounded_ufp_epoch_critical_value(
    instance: &UfpInstance,
    config: &BoundedUfpConfig,
    ctx: Option<&EpochContext<'_>>,
    checkpoint: EpochCheckpoint,
    agent: RequestId,
) -> CriticalPrice {
    validate_epoch_inputs(instance, config, ctx);
    let b = epoch_bound_b(instance, ctx);
    let ln_guard = config.epsilon * (b - 1.0);
    let merged_mask = path_mask(ctx);
    let usable = merged_mask.as_deref().or(ctx.map(|c| c.usable));
    let EpochCheckpoint {
        mut state,
        selector,
    } = checkpoint;
    // A warm checkpoint sits at the agent's own step, where its selector
    // selects the agent (again — `select` is idempotent while nothing
    // changes). The agent then leaves its class without its step being
    // applied: the selector describes the agent-absent run.
    let warm = selector.map(|mut selector| {
        let inputs = select_inputs(instance, config, usable, &state);
        let picked = selector.select(&state.remaining, &inputs).map(|(r, _)| r);
        assert_eq!(
            picked,
            Some(agent),
            "a warm checkpoint must sit at the agent's selection step"
        );
        selector.leave(agent);
        selector
    });
    let before = state.remaining.len();
    state.remaining.retain(|r| *r != agent);
    assert_eq!(
        state.remaining.len() + 1,
        before,
        "the priced agent must still be unselected at the checkpoint"
    );
    let mut watch = CriticalWatch::new(instance, config, usable, agent);
    let stop = run_epoch_loop(
        instance,
        config,
        usable,
        b,
        ln_guard,
        &mut state,
        None,
        Some(&mut watch),
        warm,
    );
    watch.finish(&state, stop, ln_guard)
}

/// The pricing run's step observer: follows one agent's exact distance
/// through the agent-absent run and keeps the running minimum of its
/// per-step threshold `d·dist_k / best_k`.
struct CriticalWatch<'a> {
    instance: &'a UfpInstance,
    config: &'a BoundedUfpConfig,
    usable: Option<&'a [bool]>,
    agent: RequestId,
    scratch: Dijkstra,
    /// The agent's cached shortest path, and the same edges as a mask.
    path: Path,
    on_path: Vec<bool>,
    /// Cached distance: `None` before the first query, `Some(None)` once
    /// the agent is unroutable — final, since within an epoch weights
    /// only grow and residuals only shrink.
    dist: Option<Option<f64>>,
    /// Weight shift the cached distance was computed under.
    shift: f64,
    /// Steps applied when the cache was last checked.
    steps: usize,
    /// Running minimum `(value, step, rival)`.
    best: Option<(f64, usize, Option<RequestId>)>,
}

impl<'a> CriticalWatch<'a> {
    fn new(
        instance: &'a UfpInstance,
        config: &'a BoundedUfpConfig,
        usable: Option<&'a [bool]>,
        agent: RequestId,
    ) -> Self {
        let graph = instance.graph();
        CriticalWatch {
            instance,
            config,
            usable,
            agent,
            scratch: Dijkstra::new(graph.num_nodes()),
            path: Path::trivial(instance.request(agent).src),
            on_path: vec![false; graph.num_edges()],
            dist: None,
            shift: 0.0,
            steps: 0,
            best: None,
        }
    }

    /// One iteration of the agent-absent run chose `rival` at `score`:
    /// the agent is chosen instead iff it declares more than
    /// `d·dist / score`.
    fn observe(&mut self, state: &EpochRunState, rival: RequestId, score: f64) {
        let Some(dist) = self.agent_distance(state) else {
            return;
        };
        let threshold = if score > 0.0 {
            self.instance.request(self.agent).demand * dist / score
        } else if dist == 0.0 && self.agent < rival {
            0.0
        } else {
            // A zero-score rival beats the agent at every declaration.
            return;
        };
        self.offer(threshold, state.steps_done, Some(rival));
    }

    /// Close the run: a run that ran out of rivals with guard room left
    /// prices a still-routable agent at zero.
    fn finish(mut self, state: &EpochRunState, stop: StopReason, ln_guard: f64) -> CriticalPrice {
        let ran_dry = match stop {
            // The loop counts exhaustion before it checks the guard; with
            // the agent present the guard check comes first.
            StopReason::Exhausted => state.weights.ln_dual_sum() <= ln_guard,
            StopReason::NoPath => true,
            StopReason::Guard | StopReason::IterationCap => false,
        };
        if ran_dry && self.agent_distance(state).is_some() {
            self.offer(0.0, state.steps_done, None);
        }
        let declared = self.instance.request(self.agent).value;
        let (value, step, rival) = self.best.unwrap_or((declared, state.steps_done, None));
        CriticalPrice {
            value: value.clamp(0.0, declared),
            step,
            rival,
            stop,
        }
    }

    fn offer(&mut self, value: f64, step: usize, rival: Option<RequestId>) {
        if self.best.is_none_or(|(v, _, _)| value < v) {
            self.best = Some((value, step, rival));
        }
    }

    /// The agent's exact current distance, re-queried only when the last
    /// applied step crossed its cached path or the weights re-centred.
    /// Called once per iteration, so at most one step applied since.
    fn agent_distance(&mut self, state: &EpochRunState) -> Option<f64> {
        let fresh = match self.dist {
            None => false,
            Some(None) => return None,
            Some(Some(_)) => {
                debug_assert!(state.steps_done <= self.steps + 1, "one step per call");
                state.weights.shift() == self.shift
                    && (state.steps_done == self.steps
                        || state.solution.routed.last().is_some_and(|(_, p)| {
                            p.edges().iter().all(|e| !self.on_path[e.index()])
                        }))
            }
        };
        self.steps = state.steps_done;
        if !fresh {
            let _span = self.config.obs.span(Phase::SelectionDijkstra);
            let req = self.instance.request(self.agent);
            let usable = self.usable;
            let gate = self.config.respect_residual.then_some(&state.residual);
            self.scratch.run(
                self.instance.graph(),
                state.weights.weights(),
                req.src,
                Targets::One(req.dst),
                |e| {
                    usable.is_none_or(|u| u[e.index()])
                        && gate.is_none_or(|res| res[e.index()] >= req.demand - 1e-12)
                },
            );
            for e in self.path.edges() {
                self.on_path[e.index()] = false;
            }
            let dist = self.scratch.distance(req.dst);
            if dist.is_some() {
                let found = self.scratch.path_to_into(req.dst, &mut self.path);
                debug_assert!(found, "settled target must reconstruct");
                for e in self.path.edges() {
                    self.on_path[e.index()] = true;
                }
            }
            self.dist = Some(dist);
            self.shift = state.weights.shift();
        }
        self.dist.flatten()
    }
}

/// Shortest-path *distances* for all remaining requests, one Dijkstra
/// per *distinct source* (requests sharing a source reuse the tree),
/// fanned out over the pool. Results are flattened in (source-group,
/// request) order, which is ascending request id within groups.
/// Group requests by source vertex, deterministically: sorted by
/// `(src, id)`, so within each group ids ascend and groups ascend by
/// source. Both the main loop's distance fan-out and the repetitions
/// variant derive their query order — and therefore the argmin
/// tie-break order — from this one function.
pub(crate) fn group_by_source(
    instance: &UfpInstance,
    remaining: &[RequestId],
) -> Vec<(NodeId, Vec<RequestId>)> {
    let mut sorted: Vec<RequestId> = remaining.to_vec();
    sorted.sort_unstable_by_key(|r| (instance.request(*r).src, *r));
    let mut groups: Vec<(NodeId, Vec<RequestId>)> = Vec::new();
    for r in sorted {
        let src = instance.request(r).src;
        match groups.last_mut() {
            Some((s, members)) if *s == src => members.push(r),
            _ => groups.push((src, vec![r])),
        }
    }
    groups
}

/// When `collect_paths` is set, the second vector holds the realizing
/// path of each finding, index-aligned with the first; otherwise it is
/// empty and the caller re-derives the one path it needs. Keeping paths
/// out of [`PathFinding`] keeps the per-iteration findings rebuild at
/// 16 bytes per remaining request in the (large-epoch) distances-only
/// mode.
fn shortest_findings_grouped(
    instance: &UfpInstance,
    remaining: &[RequestId],
    weights: &DualWeights,
    usable: Option<&[bool]>,
    pool: &Pool,
    collect_paths: bool,
) -> (Vec<PathFinding>, Vec<Path>) {
    let graph = instance.graph();
    let groups = group_by_source(instance, remaining);
    let w = weights.weights();
    let per_group: Vec<(Vec<PathFinding>, Vec<Path>)> = pool.map_with(
        &groups,
        || (Dijkstra::new(graph.num_nodes()), Path::trivial(NodeId(0))),
        |(dij, pbuf), _, (src, members)| {
            let targets: Vec<NodeId> = members.iter().map(|r| instance.request(*r).dst).collect();
            dij.run(graph, w, *src, Targets::Set(&targets), |e| {
                usable.is_none_or(|u| u[e.index()])
            });
            let mut findings = Vec::with_capacity(members.len());
            let mut paths = Vec::new();
            for &r in members.iter() {
                let dst = instance.request(r).dst;
                let Some(dist) = dij.distance(dst) else {
                    continue;
                };
                if collect_paths {
                    // Reconstruct into the worker's reusable buffer,
                    // then clone exact-sized into the result.
                    assert!(dij.path_to_into(dst, pbuf), "settled target has a path");
                    paths.push(pbuf.clone());
                }
                findings.push(PathFinding { request: r, dist });
            }
            (findings, paths)
        },
    );
    let mut findings = Vec::new();
    let mut paths = Vec::new();
    for (f, p) in per_group {
        findings.extend(f);
        paths.extend(p);
    }
    (findings, paths)
}

/// Full paths-for-everyone variant, shared with the repetitions
/// algorithm (which routes *every* queried request, so it really does
/// need all the paths).
pub(crate) fn shortest_paths_grouped_for_repeat(
    instance: &UfpInstance,
    remaining: &[RequestId],
    weights: &DualWeights,
    pool: &Pool,
) -> Vec<(RequestId, f64, Path)> {
    let graph = instance.graph();
    let groups = group_by_source(instance, remaining);
    let w = weights.weights();
    let per_group: Vec<Vec<(RequestId, f64, Path)>> = pool.map_with(
        &groups,
        || (Dijkstra::new(graph.num_nodes()), Path::trivial(NodeId(0))),
        |(dij, pbuf), _, (src, members)| {
            let targets: Vec<NodeId> = members.iter().map(|r| instance.request(*r).dst).collect();
            dij.run(graph, w, *src, Targets::Set(&targets), |_| true);
            members
                .iter()
                .filter_map(|&r| {
                    let dst = instance.request(r).dst;
                    let dist = dij.distance(dst)?;
                    dij.path_to_into(dst, pbuf).then(|| (r, dist, pbuf.clone()))
                })
                .collect()
        },
    );
    per_group.into_iter().flatten().collect()
}

/// Residual-capacity variant: the edge filter depends on each request's
/// demand, so requests are queried individually. Follows the same
/// `collect_paths` cost model as [`shortest_findings_grouped`]: below
/// the one-reconstruction-per-node threshold the realizing paths come
/// back inline (second vector, index-aligned with the findings) and the
/// caller skips the winner's targeted re-derivation.
#[allow(clippy::too_many_arguments)]
fn shortest_findings_residual(
    instance: &UfpInstance,
    remaining: &[RequestId],
    weights: &DualWeights,
    residual: &[f64],
    usable: Option<&[bool]>,
    pool: &Pool,
    collect_paths: bool,
) -> (Vec<PathFinding>, Vec<Path>) {
    let graph = instance.graph();
    let w = weights.weights();
    let mut sorted: Vec<RequestId> = remaining.to_vec();
    sorted.sort_unstable();
    let results: Vec<Option<(PathFinding, Option<Path>)>> = pool.map_with(
        &sorted,
        || (Dijkstra::new(graph.num_nodes()), Path::trivial(NodeId(0))),
        |(dij, pbuf), _, &r| {
            let req = instance.request(r);
            dij.run(graph, w, req.src, Targets::One(req.dst), |e| {
                usable.is_none_or(|u| u[e.index()]) && residual[e.index()] >= req.demand - 1e-12
            });
            let dist = dij.distance(req.dst)?;
            let path = collect_paths.then(|| {
                assert!(dij.path_to_into(req.dst, pbuf), "settled target");
                pbuf.clone()
            });
            Some((PathFinding { request: r, dist }, path))
        },
    );
    let mut findings = Vec::new();
    let mut paths = Vec::new();
    for (finding, path) in results.into_iter().flatten() {
        findings.push(finding);
        if let Some(p) = path {
            paths.push(p);
        }
    }
    (findings, paths)
}

/// Re-derive the selected request's path with one targeted Dijkstra,
/// into a reusable buffer (allocation-free after warm-up). Bit-identical
/// to the path the fan-out would have reconstructed: pop order and
/// parent pointers depend only on (graph, weights, source, filter),
/// never on the target set, and every ancestor of the target is settled
/// before it.
fn chosen_path_into(
    scratch: &mut Dijkstra,
    out: &mut Path,
    instance: &UfpInstance,
    weights: &DualWeights,
    residual_gate: Option<&[f64]>,
    usable: Option<&[bool]>,
    r: RequestId,
) {
    let graph = instance.graph();
    let req = instance.request(r);
    let w = weights.weights();
    scratch.run(graph, w, req.src, Targets::One(req.dst), |e| {
        usable.is_none_or(|u| u[e.index()])
            && residual_gate.is_none_or(|res| res[e.index()] >= req.demand - 1e-12)
    });
    let found = scratch.path_to_into(req.dst, out);
    assert!(
        found,
        "argmin request must have a path under the query weights"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Request;
    use ufp_netgraph::graph::GraphBuilder;
    use ufp_netgraph::ids::NodeId;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// A wide single edge easily fits everything.
    #[test]
    fn routes_everything_when_capacity_abounds() {
        let mut gb = GraphBuilder::directed(2);
        gb.add_edge(n(0), n(1), 100.0);
        let inst = UfpInstance::new(
            gb.build(),
            (0..10)
                .map(|_| Request::new(n(0), n(1), 1.0, 1.0))
                .collect(),
        );
        let res = bounded_ufp(&inst, &BoundedUfpConfig::with_epsilon(0.5));
        assert_eq!(res.solution.len(), 10);
        assert_eq!(res.trace.stop_reason, StopReason::Exhausted);
        assert!(res.solution.check_feasible(&inst, false).is_ok());
    }

    #[test]
    fn output_is_always_capacity_feasible() {
        // Lemma 3.3: the guard alone keeps the output feasible, even with
        // far more demand than capacity.
        let mut gb = GraphBuilder::directed(2);
        gb.add_edge(n(0), n(1), 10.0);
        let inst = UfpInstance::new(
            gb.build(),
            (0..100)
                .map(|i| Request::new(n(0), n(1), 1.0, 1.0 + (i % 7) as f64))
                .collect(),
        );
        for eps in [0.1, 0.3, 0.5, 1.0] {
            let res = bounded_ufp(&inst, &BoundedUfpConfig::with_epsilon(eps));
            assert!(
                res.solution.check_feasible(&inst, false).is_ok(),
                "eps={eps}: infeasible output"
            );
            assert!(res.solution.len() <= 10, "eps={eps}: capacity is 10");
        }
    }

    #[test]
    fn prefers_high_value_per_demand() {
        // One slot: capacity exactly fits one unit-demand request. The
        // request with the lowest d/v (= highest value) must win.
        let mut gb = GraphBuilder::directed(2);
        gb.add_edge(n(0), n(1), 2.0);
        let inst = UfpInstance::new(
            gb.build(),
            vec![
                Request::new(n(0), n(1), 1.0, 1.0),
                Request::new(n(0), n(1), 1.0, 10.0),
                Request::new(n(0), n(1), 1.0, 3.0),
            ],
        );
        let res = bounded_ufp(&inst, &BoundedUfpConfig::with_epsilon(0.5));
        assert!(res.solution.contains(crate::request::RequestId(1)));
        // first pick is the most valuable request
        assert_eq!(res.solution.routed[0].0, crate::request::RequestId(1));
    }

    #[test]
    fn avoids_congested_edges() {
        // Diamond: after loading the top path, the algorithm should route
        // via the bottom.
        let mut gb = GraphBuilder::directed(4);
        gb.add_edge(n(0), n(1), 20.0); // top
        gb.add_edge(n(1), n(3), 20.0);
        gb.add_edge(n(0), n(2), 20.0); // bottom
        gb.add_edge(n(2), n(3), 20.0);
        let inst = UfpInstance::new(
            gb.build(),
            (0..30)
                .map(|_| Request::new(n(0), n(3), 1.0, 1.0))
                .collect(),
        );
        let res = bounded_ufp(&inst, &BoundedUfpConfig::with_epsilon(0.5));
        assert!(res.solution.check_feasible(&inst, false).is_ok());
        // both paths must be used — one path alone holds only 20
        assert!(
            res.solution.len() > 20,
            "routed {} requests",
            res.solution.len()
        );
        let loads = res.solution.edge_loads(&inst);
        assert!(loads[0] > 0.0 && loads[2] > 0.0, "loads {loads:?}");
    }

    #[test]
    fn parallel_equals_sequential() {
        let mut gb = GraphBuilder::directed(6);
        for i in 0..5u32 {
            for j in 0..5u32 {
                if i != j {
                    gb.add_edge(n(i), n(j), 8.0);
                }
            }
            gb.add_edge(n(i), n(5), 8.0);
        }
        let inst = UfpInstance::new(
            gb.build(),
            (0..40)
                .map(|i| {
                    Request::new(
                        n(i % 5),
                        n(5),
                        0.5 + 0.1 * ((i % 4) as f64),
                        1.0 + (i % 9) as f64,
                    )
                })
                .collect(),
        );
        let seq = bounded_ufp(&inst, &BoundedUfpConfig::with_epsilon(0.3));
        let par = bounded_ufp(
            &inst,
            &BoundedUfpConfig::with_epsilon(0.3).parallel(Pool::new(4)),
        );
        assert_eq!(seq.solution.routed.len(), par.solution.routed.len());
        for (a, b) in seq.solution.routed.iter().zip(&par.solution.routed) {
            assert_eq!(a.0, b.0, "selection order must match");
            assert_eq!(a.1.nodes(), b.1.nodes(), "paths must match");
        }
    }

    #[test]
    fn dual_certificate_bounds_the_optimum() {
        // OPT here is exactly 10 (capacity 10, unit demands, unit values).
        let mut gb = GraphBuilder::directed(2);
        gb.add_edge(n(0), n(1), 10.0);
        let inst = UfpInstance::new(
            gb.build(),
            (0..30)
                .map(|_| Request::new(n(0), n(1), 1.0, 1.0))
                .collect(),
        );
        let res = bounded_ufp(&inst, &BoundedUfpConfig::with_epsilon(0.4));
        let bound = res.dual_upper_bound().expect("certificate applies");
        assert!(bound >= 10.0 - 1e-6, "dual bound {bound} below OPT 10");
        let ratio = res.certified_ratio(&inst).unwrap();
        assert!(ratio >= 1.0 - 1e-9);
    }

    #[test]
    fn disconnected_requests_stop_cleanly() {
        let gb = GraphBuilder::directed(4);
        let inst = UfpInstance::new(gb.build(), vec![Request::new(n(0), n(1), 1.0, 1.0)]);
        let res = bounded_ufp(&inst, &BoundedUfpConfig::default());
        assert!(res.solution.is_empty());
        assert_eq!(res.trace.stop_reason, StopReason::NoPath);
    }

    #[test]
    fn residual_mode_is_feasible_and_certificate_free() {
        let mut gb = GraphBuilder::directed(2);
        gb.add_edge(n(0), n(1), 3.0);
        let inst = UfpInstance::new(
            gb.build(),
            (0..9).map(|_| Request::new(n(0), n(1), 1.0, 1.0)).collect(),
        );
        let mut cfg = BoundedUfpConfig::with_epsilon(0.5);
        cfg.respect_residual = true;
        let res = bounded_ufp(&inst, &cfg);
        assert!(res.solution.check_feasible(&inst, false).is_ok());
        assert_eq!(res.solution.len(), 3);
        assert!(res.dual_upper_bound().is_none());
    }

    #[test]
    #[should_panic(expected = "normalized")]
    fn rejects_unnormalized_instances() {
        let mut gb = GraphBuilder::directed(2);
        gb.add_edge(n(0), n(1), 10.0);
        let inst = UfpInstance::new(gb.build(), vec![Request::new(n(0), n(1), 2.0, 1.0)]);
        bounded_ufp(&inst, &BoundedUfpConfig::default());
    }

    #[test]
    fn trivial_epoch_context_is_bit_identical_to_one_shot() {
        let mut gb = GraphBuilder::directed(4);
        gb.add_edge(n(0), n(1), 12.0);
        gb.add_edge(n(1), n(3), 9.0);
        gb.add_edge(n(0), n(2), 11.0);
        gb.add_edge(n(2), n(3), 10.0);
        let inst = UfpInstance::new(
            gb.build(),
            (0..25)
                .map(|i| {
                    Request::new(
                        n(0),
                        n(3),
                        0.5 + 0.05 * (i % 10) as f64,
                        1.0 + (i % 4) as f64,
                    )
                })
                .collect(),
        );
        let cfg = BoundedUfpConfig::with_epsilon(0.4);
        let one_shot = bounded_ufp(&inst, &cfg);
        let caps: Vec<f64> = inst.graph().edges().iter().map(|e| e.capacity).collect();
        let usable = vec![true; caps.len()];
        let carry = vec![0.0; caps.len()];
        let ctx = EpochContext {
            capacities: &caps,
            usable: &usable,
            carry: &carry,
            routable: None,
        };
        let epoch = bounded_ufp_epoch(&inst, &cfg, Some(&ctx));
        assert_eq!(
            one_shot.solution.routed.len(),
            epoch.run.solution.routed.len()
        );
        for (a, b) in one_shot
            .solution
            .routed
            .iter()
            .zip(&epoch.run.solution.routed)
        {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.nodes(), b.1.nodes());
        }
        // Carry must record exactly the line-10 exponents of this run.
        let loads = epoch.run.solution.edge_loads(&inst);
        for (e, &k) in epoch.carry.iter().enumerate() {
            let expected = 0.4 * inst.graph().min_capacity() * loads[e] / caps[e];
            assert!(
                (k - expected).abs() < 1e-9,
                "edge {e}: carry {k} != {expected}"
            );
        }
    }

    #[test]
    fn saturated_edges_do_not_stall_the_epoch() {
        // Edge 0 is saturated (residual 0, unusable); the bottom path must
        // still admit traffic even though min-over-all-residuals is 0.
        let mut gb = GraphBuilder::directed(4);
        gb.add_edge(n(0), n(1), 10.0); // saturated top
        gb.add_edge(n(1), n(3), 10.0);
        gb.add_edge(n(0), n(2), 10.0); // free bottom
        gb.add_edge(n(2), n(3), 10.0);
        let inst = UfpInstance::new(
            gb.build(),
            (0..6).map(|_| Request::new(n(0), n(3), 1.0, 1.0)).collect(),
        );
        let caps = [0.0, 10.0, 10.0, 10.0];
        let usable = [false, true, true, true];
        let carry = [0.0; 4];
        let ctx = EpochContext {
            capacities: &caps,
            usable: &usable,
            carry: &carry,
            routable: None,
        };
        let cfg = BoundedUfpConfig::with_epsilon(0.5);
        let epoch = bounded_ufp_epoch(&inst, &cfg, Some(&ctx));
        assert!(!epoch.run.solution.is_empty(), "bottom path should admit");
        let loads = epoch.run.solution.edge_loads(&inst);
        assert_eq!(loads[0], 0.0, "saturated edge must stay untouched");
        assert!(loads[2] > 0.0);
    }

    #[test]
    fn carried_weights_steer_later_epochs() {
        // Same diamond; heavy carry on the top path pushes epoch-2 routes
        // to the bottom even with full residual capacity everywhere.
        let mut gb = GraphBuilder::directed(4);
        gb.add_edge(n(0), n(1), 20.0);
        gb.add_edge(n(1), n(3), 20.0);
        gb.add_edge(n(0), n(2), 20.0);
        gb.add_edge(n(2), n(3), 20.0);
        let inst = UfpInstance::new(
            gb.build(),
            (0..4).map(|_| Request::new(n(0), n(3), 1.0, 1.0)).collect(),
        );
        let caps = [20.0; 4];
        let usable = [true; 4];
        let carry = [5.0, 5.0, 0.0, 0.0];
        let ctx = EpochContext {
            capacities: &caps,
            usable: &usable,
            carry: &carry,
            routable: None,
        };
        let cfg = BoundedUfpConfig::with_epsilon(0.5);
        let epoch = bounded_ufp_epoch(&inst, &cfg, Some(&ctx));
        let loads = epoch.run.solution.edge_loads(&inst);
        assert!(
            loads[0] == 0.0 && loads[2] > 0.0,
            "carry ignored: {loads:?}"
        );
    }

    /// A congested diamond with heterogeneous requests — enough structure
    /// that selections, guard stops, and paths all come into play.
    fn resume_fixture() -> (UfpInstance, BoundedUfpConfig) {
        let mut gb = GraphBuilder::directed(5);
        gb.add_edge(n(0), n(1), 9.0);
        gb.add_edge(n(1), n(4), 8.0);
        gb.add_edge(n(0), n(2), 10.0);
        gb.add_edge(n(2), n(4), 9.0);
        gb.add_edge(n(0), n(3), 7.0);
        gb.add_edge(n(3), n(4), 7.0);
        let inst = UfpInstance::new(
            gb.build(),
            (0..22)
                .map(|i| {
                    Request::new(
                        n(0),
                        n(4),
                        0.4 + 0.06 * (i % 9) as f64,
                        0.8 + 0.9 * ((i * 7) % 11) as f64,
                    )
                })
                .collect(),
        );
        (inst, BoundedUfpConfig::with_epsilon(0.4))
    }

    fn assert_outcomes_identical(a: &EpochOutcome, b: &EpochOutcome) {
        assert_eq!(a.run.solution.routed.len(), b.run.solution.routed.len());
        for (x, y) in a.run.solution.routed.iter().zip(&b.run.solution.routed) {
            assert_eq!(x.0, y.0, "selection order diverged");
            assert_eq!(x.1.nodes(), y.1.nodes(), "paths diverged");
        }
        assert_eq!(a.run.trace.stop_reason, b.run.trace.stop_reason);
        assert_eq!(a.run.trace.records.len(), b.run.trace.records.len());
        for (x, y) in a.run.trace.records.iter().zip(&b.run.trace.records) {
            assert_eq!(x.selected, y.selected);
            assert_eq!(x.ln_alpha.to_bits(), y.ln_alpha.to_bits());
            assert_eq!(x.ln_d1.to_bits(), y.ln_d1.to_bits());
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

    #[test]
    fn traced_run_is_bit_identical_to_plain_run() {
        let (inst, cfg) = resume_fixture();
        let plain = bounded_ufp_epoch(&inst, &cfg, None);
        let (traced, trace) = bounded_ufp_epoch_traced(&inst, &cfg, None);
        assert_outcomes_identical(&plain, &traced);
        assert_eq!(trace.num_steps(), plain.run.solution.routed.len());
    }

    #[test]
    fn resume_from_any_prefix_is_bit_identical() {
        let (inst, cfg) = resume_fixture();
        let caps: Vec<f64> = inst.graph().edges().iter().map(|e| e.capacity).collect();
        let usable = vec![true; caps.len()];
        let carry = vec![0.1; caps.len()];
        let ctx = EpochContext {
            capacities: &caps,
            usable: &usable,
            carry: &carry,
            routable: None,
        };
        let (full, trace) = bounded_ufp_epoch_traced(&inst, &cfg, Some(&ctx));
        for prefix in 0..=trace.num_steps() {
            let ckpt = trace.checkpoint(&inst, &cfg, Some(&ctx), prefix);
            assert_eq!(ckpt.steps(), prefix);
            let resumed = bounded_ufp_epoch_resume(&inst, &cfg, Some(&ctx), ckpt);
            assert_outcomes_identical(&full, &resumed);
        }
    }

    #[test]
    fn lowered_value_probe_resumes_bit_identically() {
        // The payment-probe contract: lower a winner's declared value,
        // resume from its selection step — identical outcome to a full
        // re-run on the probed instance.
        let (inst, cfg) = resume_fixture();
        let (full, trace) = bounded_ufp_epoch_traced(&inst, &cfg, None);
        for (rid, _) in &full.run.solution.routed {
            let k = trace.selection_step(*rid).unwrap();
            let declared = inst.request(*rid).value;
            for factor in [0.9, 0.5, 0.11, 0.01] {
                let probe =
                    inst.with_declared_type(*rid, inst.request(*rid).demand, declared * factor);
                let scratch = bounded_ufp_epoch(&probe, &cfg, None);
                let ckpt = trace.checkpoint(&probe, &cfg, None, k);
                let resumed = bounded_ufp_epoch_resume(&probe, &cfg, None, ckpt);
                assert_outcomes_identical(&scratch, &resumed);
            }
        }
    }

    /// Price `rid` from the checkpoint at its selection step in the
    /// traced run — how the engine prices a winner.
    fn price(inst: &UfpInstance, cfg: &BoundedUfpConfig, rid: RequestId) -> CriticalPrice {
        let (_, trace) = bounded_ufp_epoch_traced(inst, cfg, None);
        let k = trace.selection_step(rid).expect("priced agent must win");
        let ckpt = trace.checkpoint(inst, cfg, None, k);
        bounded_ufp_epoch_critical_value(inst, cfg, None, ckpt, rid)
    }

    /// Whether `rid` is selected by a full re-run declaring `value`, and
    /// at which step.
    fn selected_at(
        inst: &UfpInstance,
        cfg: &BoundedUfpConfig,
        rid: RequestId,
        value: f64,
    ) -> Option<usize> {
        let probe = inst.with_declared_type(rid, inst.request(rid).demand, value);
        bounded_ufp_epoch(&probe, cfg, None)
            .run
            .solution
            .routed
            .iter()
            .position(|(r, _)| *r == rid)
    }

    #[test]
    fn critical_price_is_sharp_against_full_reruns() {
        // Declaring just above the one-pass price wins — no earlier than
        // the agent's own step, no later than the binding step — and
        // declaring just below it loses, on full re-runs.
        let (inst, cfg) = resume_fixture();
        let (full, trace) = bounded_ufp_epoch_traced(&inst, &cfg, None);
        let mut priced = 0;
        for (rid, _) in &full.run.solution.routed {
            let k = trace.selection_step(*rid).unwrap();
            let declared = inst.request(*rid).value;
            let p = bounded_ufp_epoch_critical_value(
                &inst,
                &cfg,
                None,
                trace.checkpoint(&inst, &cfg, None, k),
                *rid,
            );
            assert!((0.0..=declared).contains(&p.value), "{rid:?}: {p:?}");
            assert!(p.step >= k, "{rid:?}: binding step before its own");
            assert_ne!(p.rival, Some(*rid));
            let above = selected_at(&inst, &cfg, *rid, p.value * (1.0 + 1e-9) + 1e-12)
                .unwrap_or_else(|| panic!("{rid:?} loses just above its price {p:?}"));
            assert!(
                (k..=p.step).contains(&above),
                "{rid:?}: selected at {above}"
            );
            if p.value > 0.0 {
                assert_eq!(
                    selected_at(&inst, &cfg, *rid, p.value * (1.0 - 1e-9)),
                    None,
                    "{rid:?} still wins just below its price {p:?}"
                );
                priced += 1;
            }
        }
        assert!(priced > 0, "the fixture must charge some winner");
    }

    #[test]
    fn critical_price_survives_a_recentre_off_the_agent_path() {
        // Links a and b, capacity 640, ε = 1: each unit selection adds 1
        // to its link's ln y. The agent (bid 20) takes link a at step 0;
        // without it, 640 rivals fill link b, re-centring the weights at
        // the 601st (ln y − shift > 600) until the guard 639 trips. The
        // agent's path is never crossed, so only the shift check can
        // refresh its cached distance; a stale one would keep the
        // pre-re-centre minimum, which full re-runs just below it reject.
        let mut gb = GraphBuilder::directed(4);
        gb.add_edge(n(0), n(1), 640.0);
        gb.add_edge(n(2), n(3), 640.0);
        let mut requests = vec![Request::new(n(0), n(1), 1.0, 20.0)];
        requests.extend((0..700).map(|i| Request::new(n(2), n(3), 1.0, 1.0 + (i % 13) as f64)));
        let inst = UfpInstance::new(gb.build(), requests);
        let cfg = BoundedUfpConfig::with_epsilon(1.0);
        let agent = RequestId(0);
        let p = price(&inst, &cfg, agent);
        assert_eq!(p.stop, StopReason::Guard);
        assert!(
            p.step > 600,
            "binding step {} is before the re-centre",
            p.step
        );
        assert!(p.value > 0.0);
        assert!(selected_at(&inst, &cfg, agent, p.value * (1.0 + 1e-9)).is_some());
        assert_eq!(
            selected_at(&inst, &cfg, agent, p.value * (1.0 - 1e-9)),
            None
        );
    }

    fn one_link_auction(capacity: f64, values: &[f64]) -> UfpInstance {
        let mut gb = GraphBuilder::directed(2);
        gb.add_edge(n(0), n(1), capacity);
        UfpInstance::new(
            gb.build(),
            values
                .iter()
                .map(|&v| Request::new(n(0), n(1), 1.0, v))
                .collect(),
        )
    }

    // Hand-worked Vickrey fixtures. On one link of capacity 1.5 with
    // ε = 0.5, one unit selection bumps ln y by εB·d/c = 0.5, which
    // passes the guard ε(B − 1) = 0.25: exactly one request fits. Every
    // request has the same distance w, so a bid v scores w/v.

    #[test]
    fn vickrey_one_slot_pays_the_second_bid() {
        // Declaring v < 10, request 0 first meets request 1's score w/7
        // at step 0 and wins iff w/v < w/7. The request-0-absent run is
        // then exhausted, but with ln D₁ = 0.5 past the guard: request 0
        // could not have followed, so there is no zero price.
        let inst = one_link_auction(1.5, &[10.0, 7.0]);
        let cfg = BoundedUfpConfig::with_epsilon(0.5);
        let p = price(&inst, &cfg, RequestId(0));
        assert!(
            (p.value - 7.0).abs() <= 4.0 * 2f64.powi(-50),
            "paid {} not 7 to within 4 ulp",
            p.value
        );
        assert_eq!(p.step, 0);
        assert_eq!(p.rival, Some(RequestId(1)));
        assert_eq!(p.stop, StopReason::Exhausted);
    }

    #[test]
    fn vickrey_room_for_both_pays_zero() {
        // Capacity 100: after request 1 the request-0-absent run has
        // nobody left while the guard has room, so request 0 is chosen at
        // step 1 whatever it bids.
        let inst = one_link_auction(100.0, &[10.0, 7.0]);
        let cfg = BoundedUfpConfig::with_epsilon(0.5);
        let p = price(&inst, &cfg, RequestId(0));
        assert_eq!(p.value, 0.0);
        assert_eq!(p.step, 1);
        assert_eq!(p.rival, None);
        assert_eq!(p.stop, StopReason::Exhausted);
    }

    #[test]
    fn vickrey_equal_bids_lower_id_wins_and_pays_the_rival_bid() {
        let inst = one_link_auction(1.5, &[5.0, 5.0]);
        let cfg = BoundedUfpConfig::with_epsilon(0.5);
        let run = bounded_ufp(&inst, &cfg);
        assert_eq!(run.solution.routed.len(), 1);
        assert_eq!(
            run.solution.routed[0].0,
            RequestId(0),
            "ties go to the lower id"
        );
        let p = price(&inst, &cfg, RequestId(0));
        assert!(
            (p.value - 5.0).abs() <= 4.0 * 2f64.powi(-50),
            "paid {} not 5",
            p.value
        );
        assert_eq!(p.step, 0);
        assert_eq!(p.rival, Some(RequestId(1)));
        assert_eq!(p.stop, StopReason::Exhausted);
    }

    #[test]
    fn vickrey_sole_bidder_pays_zero() {
        // The agent-absent run is exhausted at once, with ln D₁ = 0 below
        // the guard 0.25.
        let inst = one_link_auction(1.5, &[5.0]);
        let cfg = BoundedUfpConfig::with_epsilon(0.5);
        let p = price(&inst, &cfg, RequestId(0));
        assert_eq!(p.value, 0.0);
        assert_eq!(p.step, 0);
        assert_eq!(p.rival, None);
        assert_eq!(p.stop, StopReason::Exhausted);
    }

    #[test]
    fn rival_after_one_bump_sets_a_later_binding_step() {
        // Two disjoint links of capacity 2.5, ε = 1: each unit selection
        // adds exactly 1 to its link's ln y, so ln D₁ runs ln 2 → ln(1+e)
        // → ln 2 + 1 against the guard ε(B − 1) = 1.5 — two selections
        // fit. Requests 0 (bid 10) and 2 (bid 6) share link a; requests
        // 1 (bid 8) and 3 (bid 1) share link b. The run picks 0, then 1.
        let mut gb = GraphBuilder::directed(4);
        gb.add_edge(n(0), n(1), 2.5);
        gb.add_edge(n(2), n(3), 2.5);
        let inst = UfpInstance::new(
            gb.build(),
            vec![
                Request::new(n(0), n(1), 1.0, 10.0),
                Request::new(n(2), n(3), 1.0, 8.0),
                Request::new(n(0), n(1), 1.0, 6.0),
                Request::new(n(2), n(3), 1.0, 1.0),
            ],
        );
        let cfg = BoundedUfpConfig::with_epsilon(1.0);
        let run = bounded_ufp(&inst, &cfg);
        let order: Vec<RequestId> = run.solution.routed.iter().map(|(r, _)| *r).collect();
        assert_eq!(order, vec![RequestId(0), RequestId(1)]);
        assert_eq!(run.trace.stop_reason, StopReason::Guard);

        // Request 0 below 10: request 1 goes first at step 0 (threshold
        // 8) without touching link a, then request 0 meets request 2's
        // w/6 at step 1 (threshold 6); request 3 is left to the guard.
        let p = price(&inst, &cfg, RequestId(0));
        assert!((p.value - 6.0).abs() <= 4.0 * 2f64.powi(-50), "{p:?}");
        assert_eq!(p.step, 1, "the binding step is after the agent's own");
        assert_eq!(p.rival, Some(RequestId(2)));
        assert_eq!(p.stop, StopReason::Guard);

        // Request 1 below 8, from step 1 (link a bumped once): request 2
        // scores e·w/6 against request 3's w, so request 1 meets it at
        // threshold 6/e; then ln(e² + 1) is past the guard.
        let p = price(&inst, &cfg, RequestId(1));
        let want = 6.0 / std::f64::consts::E;
        assert!((p.value - want).abs() <= 1e-12 * want, "{p:?} vs {want}");
        assert_eq!(p.step, 1);
        assert_eq!(p.rival, Some(RequestId(2)));
        assert_eq!(p.stop, StopReason::Guard);
    }

    /// Reassemble a recorded trace step by step through the public
    /// [`EpochResumeTrace::push_step`] API — the merged-trace assembly
    /// path a sharded engine uses — from the read-only step views plus
    /// the run's iteration records.
    fn reassemble(full: &EpochOutcome, trace: &EpochResumeTrace) -> EpochResumeTrace {
        let mut rebuilt = EpochResumeTrace::default();
        for i in 0..trace.num_steps() {
            let s = trace.step(i);
            let rec = &full.run.trace.records[i];
            rebuilt.push_step(
                s.selected,
                s.ln_alpha,
                s.raw_score,
                rec.ln_d1,
                rec.routed_value_before,
                s.path.clone(),
                s.bumps.to_vec(),
            );
        }
        rebuilt
    }

    #[test]
    fn pushed_steps_checkpoint_and_resume_like_the_recorded_trace() {
        let (inst, cfg) = resume_fixture();
        let caps: Vec<f64> = inst.graph().edges().iter().map(|e| e.capacity).collect();
        let usable = vec![true; caps.len()];
        let carry = vec![0.1; caps.len()];
        let ctx = EpochContext {
            capacities: &caps,
            usable: &usable,
            carry: &carry,
            routable: None,
        };
        let (full, trace) = bounded_ufp_epoch_traced(&inst, &cfg, Some(&ctx));
        let rebuilt = reassemble(&full, &trace);
        assert_eq!(rebuilt.num_steps(), trace.num_steps());
        for prefix in 0..=rebuilt.num_steps() {
            let a = bounded_ufp_epoch_resume(
                &inst,
                &cfg,
                Some(&ctx),
                trace.checkpoint(&inst, &cfg, Some(&ctx), prefix),
            );
            let b = bounded_ufp_epoch_resume(
                &inst,
                &cfg,
                Some(&ctx),
                rebuilt.checkpoint(&inst, &cfg, Some(&ctx), prefix),
            );
            assert_outcomes_identical(&a, &b);
            let pa = trace.prefix_outcome(&inst, &cfg, Some(&ctx), prefix, StopReason::Guard);
            let pb = rebuilt.prefix_outcome(&inst, &cfg, Some(&ctx), prefix, StopReason::Guard);
            assert_outcomes_identical(&pa, &pb);
        }
    }

    #[test]
    fn critical_price_over_a_pushed_trace_is_bit_identical() {
        // The global-payment contract: winners priced against an
        // externally assembled trace get the same bits as against the
        // engine-recorded one, and lowered-value runs resume from it
        // like a full re-run.
        let (inst, cfg) = resume_fixture();
        let (full, trace) = bounded_ufp_epoch_traced(&inst, &cfg, None);
        let rebuilt = reassemble(&full, &trace);
        for (rid, _) in &full.run.solution.routed {
            let k = rebuilt.selection_step(*rid).unwrap();
            assert_eq!(k, trace.selection_step(*rid).unwrap());
            let recorded = bounded_ufp_epoch_critical_value(
                &inst,
                &cfg,
                None,
                trace.checkpoint(&inst, &cfg, None, k),
                *rid,
            );
            let pushed = bounded_ufp_epoch_critical_value(
                &inst,
                &cfg,
                None,
                rebuilt.checkpoint(&inst, &cfg, None, k),
                *rid,
            );
            assert_eq!(recorded.value.to_bits(), pushed.value.to_bits());
            assert_eq!(recorded, pushed);
            let declared = inst.request(*rid).value;
            for factor in [0.9, 0.5, 0.11, 0.01] {
                let probe =
                    inst.with_declared_type(*rid, inst.request(*rid).demand, declared * factor);
                let scratch = bounded_ufp_epoch(&probe, &cfg, None);
                let ckpt = rebuilt.checkpoint(&probe, &cfg, None, k);
                let resumed = bounded_ufp_epoch_resume(&probe, &cfg, None, ckpt);
                assert_outcomes_identical(&scratch, &resumed);
            }
        }
    }

    #[test]
    fn raw_score_is_the_pre_ln_selection_key() {
        // The recorded raw score is the selection loop's own comparison
        // key: ln_alpha = ln(raw_score) + shift, so on a run that never
        // re-centers the offset is a single constant across all steps,
        // and argmin scores never decrease (weights only grow) — the two
        // properties the cross-shard merge tie-break leans on.
        let (inst, cfg) = resume_fixture();
        let (_, trace) = bounded_ufp_epoch_traced(&inst, &cfg, None);
        assert!(trace.num_steps() > 1);
        let shift = trace.step(0).ln_alpha - trace.step(0).raw_score.ln();
        let mut prev = f64::NEG_INFINITY;
        for i in 0..trace.num_steps() {
            let s = trace.step(i);
            assert!(s.raw_score > 0.0 && s.raw_score.is_finite());
            assert!(
                (s.ln_alpha - s.raw_score.ln() - shift).abs() <= 1e-12 * shift.abs().max(1.0),
                "step {i}: ln_alpha is not ln(raw_score) + shift"
            );
            assert!(s.raw_score >= prev, "argmin scores must be nondecreasing");
            prev = s.raw_score;
        }
    }

    #[test]
    fn monotone_in_value_on_a_small_instance() {
        // Lemma 3.4 spot check: a selected request stays selected when its
        // value rises.
        let mut gb = GraphBuilder::directed(3);
        gb.add_edge(n(0), n(1), 4.0);
        gb.add_edge(n(1), n(2), 4.0);
        let base = vec![
            Request::new(n(0), n(2), 1.0, 2.0),
            Request::new(n(0), n(2), 1.0, 3.0),
            Request::new(n(0), n(1), 1.0, 1.0),
            Request::new(n(1), n(2), 0.7, 2.5),
        ];
        let inst = UfpInstance::new(gb.build(), base);
        let cfg = BoundedUfpConfig::with_epsilon(0.4);
        let res = bounded_ufp(&inst, &cfg);
        for rid in inst.request_ids() {
            if !res.solution.contains(rid) {
                continue;
            }
            for factor in [1.1, 2.0, 10.0] {
                let v = inst.request(rid).value * factor;
                let probe = inst.with_declared_type(rid, inst.request(rid).demand, v);
                let res2 = bounded_ufp(&probe, &cfg);
                assert!(
                    res2.solution.contains(rid),
                    "raising value of {rid} by {factor} dropped it"
                );
            }
        }
    }
}
