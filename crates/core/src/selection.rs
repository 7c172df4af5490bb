//! Incremental argmin selection for Algorithm 1's main loop.
//!
//! The paper's pseudocode re-solves one shortest-path query per
//! still-unrouted request on *every* iteration, yet each iteration only
//! bumps dual weights (and decrements residuals) along the single
//! winner's path. Within an epoch the dynamics are **monotone**: edge
//! weights never decrease, residual capacities never increase, the
//! `usable` mask never changes. Two consequences carry the whole module:
//!
//! 1. **Cached answers stay exact until touched.** If none of the edges
//!    on a cached shortest path changed, a fresh Dijkstra for the same
//!    query would return the *bit-identical* distance and path: the
//!    cached path's edge weights are unchanged, every alternative path
//!    only got heavier (or vanished), and Dijkstra's `(distance,
//!    node-id)` pop order together with its first-strict-improvement
//!    parent rule means the set of nodes settling before any cached-path
//!    node can only shrink — so the same parents are assigned by the same
//!    float arithmetic. (See `crates/core/README.md` for the full
//!    argument.)
//! 2. **Stale scores are lower bounds.** A request's score
//!    `density(r) · dist(r)` can only grow over time, so a score
//!    computed at an earlier iteration under-estimates the current one.
//!    A min-heap over possibly-stale scores therefore supports *lazy*
//!    argmin: pop the minimum; if its entry is stale, refresh and
//!    re-insert (the key only rises); the first fresh minimum popped is
//!    the true argmin, with the heap's `(score, request-id)` order
//!    reproducing the deterministic tie-break of the full fan-out.
//!
//! **The unit of caching is a query class**, not a request. A request's
//! shortest-path query depends on it only through `(src, dst)` — plus
//! its demand when `respect_residual` gates edges by residual capacity —
//! so the live requests of one epoch run sharing that key all issue the
//! *identical* query and get the identical `(distance, path)` answer.
//! Invariant 2 therefore carries over from requests to classes
//! unchanged: one Dijkstra, one cached path, one dirty flag per class.
//! Within a class at distance `D` the fan-out's argmin can only be the
//! member minimising `(density · D, id)`, the class's *representative*;
//! the heap holds one entry per live class, keyed by its
//! representative's `(score, request-id)`, so selections and scores are
//! those of the per-request heap bit for bit:
//!
//! * Members are sorted once at seeding by `(class key, density, id)`
//!   into one flat array, grouped into runs of equal density. Products
//!   `density · D` are monotone in density, but distinct densities can
//!   round to the same product, so the representative is the lowest id
//!   among the fronts of the leading runs whose products tie. Only
//!   representatives are ever selected, so members leave a run only from
//!   its front and one cursor per run tracks its live part.
//! * When the winner leaves its class, the next representative is
//!   chosen and inserted under the class's cached (stale) distance —
//!   still a lower bound, and on a tied score its id is at most the true
//!   representative's. The winner's own weight bumps then dirty the
//!   class through the interest index.
//! * An unroutable answer retires the whole class: every member issued
//!   the same query.
//!
//! [`IncrementalSelector`] combines a [`PathCache`] (cached paths per
//! class + an edge→class interest index, so a winner's weight bumps dirty
//! exactly the classes whose cached paths cross the bumped edges), an
//! [`IndexedMinHeap`] over representatives' scores, and two refresh
//! paths: lazy single-class re-queries for small dirty sets, and the
//! `ufp_par` grouped fan-out for large ones (same-source classes share
//! one Dijkstra). The one event that invalidates everything is a
//! [`DualWeights`] re-centering: it rescales every materialized weight,
//! so cached distances change *scale* and stale keys stop being lower
//! bounds — the selector detects the shift change and refreshes every
//! live class before the next selection.
//!
//! The output contract is strict: selections, scores, paths, iteration
//! records, resume traces, and stop reasons are **bit-identical** to the
//! full per-iteration fan-out ([`SelectionStrategy::FanOut`]), proptested
//! in `tests/selection_equivalence.rs`.

use ufp_netgraph::dijkstra::{Dijkstra, Targets};
use ufp_netgraph::heap::IndexedMinHeap;
use ufp_netgraph::ids::{EdgeId, NodeId};
use ufp_netgraph::path::Path;
use ufp_netgraph::pathcache::PathCache;
use ufp_obs::{Phase, Recorder};
use ufp_par::Pool;

use crate::instance::UfpInstance;
use crate::request::RequestId;
use crate::weights::DualWeights;

/// How the main loop finds each iteration's argmin request.
///
/// Both strategies produce **bit-identical** runs — same selections,
/// same paths, same [`crate::IterationRecord`]s, same resume traces and
/// payments — so the choice is purely a performance knob, and snapshots
/// taken under one restore under the other (the engine keeps them in one
/// config-fingerprint class).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SelectionStrategy {
    /// Dirty-set shortest-path cache + lazy score heap: per iteration,
    /// only the query classes (requests sharing one shortest-path query)
    /// whose cached paths cross the previous winner's edges are
    /// re-queried. The default — `O(iters · dirtied classes)` queries
    /// instead of `O(iters · remaining)`.
    #[default]
    Incremental,
    /// The paper-literal full fan-out: every remaining request re-queried
    /// every iteration. Kept as the reference for equivalence tests and
    /// speedup benchmarks (`BENCH_PR4.json`).
    FanOut,
}

/// Dirty sets of at least this many query classes are refreshed eagerly
/// through the grouped `ufp_par` fan-out instead of lazily one class at a
/// time at the heap top. Pure cost model: grouped refresh shares one
/// Dijkstra among same-source classes and can use the worker pool; lazy
/// refresh skips classes that never become competitive. Results are
/// identical either way.
const EAGER_REFRESH_MIN: usize = 64;

/// Below this many source groups, the grouped refresh stays on the
/// calling thread (`Pool::map_with_floor`) — dispatch latency would
/// exceed the Dijkstra work.
const PARALLEL_GROUP_FLOOR: usize = 4;

/// A run of equal-density members of one class: positions
/// `front..end` of [`IncrementalSelector::members`] are still live.
/// Ids ascend within a run and a run's lowest live id is the only one
/// that can be selected, so members leave only from the front.
#[derive(Clone, Copy, Debug)]
struct Run {
    front: u32,
    end: u32,
}

impl Run {
    #[inline]
    fn is_exhausted(self) -> bool {
        self.front == self.end
    }
}

/// One query class: runs `head..end_run` of
/// [`IncrementalSelector::runs`], ascending by density.
#[derive(Clone, Copy, Debug)]
struct Class {
    /// First run with a live member (while the class is alive).
    head: u32,
    end_run: u32,
    /// The run whose front member is the class's representative.
    rep_run: u32,
    /// Still in play: has live members and was not proven unreachable.
    alive: bool,
    dirty: bool,
}

/// The per-epoch incremental selection state. It is derived state: a
/// fresh selector seeded from the loop state at any point selects
/// exactly what one that followed the run from its start selects. Resume
/// traces and snapshots therefore never store it. A pricing checkpoint
/// may carry a *warm* clone instead of re-seeding (see
/// `EpochResumeTrace::price_winners`): the clone has followed the traced
/// run's own steps, so its cached answers are that run's answers.
#[derive(Clone, Debug)]
pub(crate) struct IncrementalSelector {
    /// One slot per class (built at seeding).
    cache: PathCache,
    /// Lazy min-heap over `(score, request-id)` of each live class's
    /// representative; slots are request ids.
    heap: IndexedMinHeap,
    /// `(density, id)` of every seeded request, sorted by
    /// `(class key, density, id)`.
    members: Vec<(f64, RequestId)>,
    runs: Vec<Run>,
    classes: Vec<Class>,
    /// Request id → class (meaningful for seeded requests only).
    class_of: Vec<u32>,
    /// Classes flagged dirty since the last eager refresh (entries whose
    /// flag was cleared by a lazy refresh are skipped when drained).
    dirty_list: Vec<u32>,
    dirty_count: usize,
    /// Weight scale the cached distances were computed under; a shift
    /// change (re-centering) forces a full refresh.
    shift_seen: f64,
    /// `true` until the first [`IncrementalSelector::select`] builds the
    /// classes from the loop's current remaining set.
    unseeded: bool,
    /// Forces the next refresh to be eager and complete (set by scale
    /// flushes, where stale keys are not lower bounds).
    must_refresh_all: bool,
    scratch: Dijkstra,
    drain_buf: Vec<u32>,
}

/// One refreshed cache answer: a class's representative and, when the
/// class still has a path, the new `(distance, path)` pair.
type Refreshed = (RequestId, Option<(f64, Path)>);

/// Everything `select` needs from the surrounding loop, bundled so the
/// borrow of the loop state stays in one place.
pub(crate) struct SelectInputs<'a> {
    pub instance: &'a UfpInstance,
    pub weights: &'a DualWeights,
    /// Residual capacities (consulted only when `respect_residual`).
    pub residual: &'a [f64],
    pub usable: Option<&'a [bool]>,
    pub respect_residual: bool,
    pub pool: &'a Pool,
    /// Observability handle (off by default; never affects selection).
    pub obs: &'a Recorder,
}

impl SelectInputs<'_> {
    /// The edge filter for request-independent queries.
    #[inline]
    fn passable(&self, e: EdgeId) -> bool {
        self.usable.is_none_or(|u| u[e.index()])
    }

    /// The edge filter for `r`'s queries (residual-gated when enabled).
    #[inline]
    fn passable_for(&self, e: EdgeId, demand: f64) -> bool {
        self.passable(e) && (!self.respect_residual || self.residual[e.index()] >= demand - 1e-12)
    }
}

impl IncrementalSelector {
    pub(crate) fn new(instance: &UfpInstance) -> Self {
        let n = instance.num_requests();
        let graph = instance.graph();
        IncrementalSelector {
            cache: PathCache::new(0, 0),
            heap: IndexedMinHeap::new(n),
            members: Vec::new(),
            runs: Vec::new(),
            classes: Vec::new(),
            class_of: vec![0; n],
            dirty_list: Vec::new(),
            dirty_count: 0,
            shift_seen: 0.0,
            unseeded: true,
            must_refresh_all: false,
            scratch: Dijkstra::new(graph.num_nodes()),
            drain_buf: Vec::new(),
        }
    }

    /// Sort `remaining` into classes and runs, and dirty every class.
    fn seed(&mut self, remaining: &[RequestId], inputs: &SelectInputs<'_>) {
        let instance = inputs.instance;
        let mut sorted: Vec<((NodeId, NodeId, u64), f64, RequestId)> = remaining
            .iter()
            .map(|&r| {
                let req = instance.request(r);
                let demand_bits = if inputs.respect_residual {
                    req.demand.to_bits()
                } else {
                    0
                };
                ((req.src, req.dst, demand_bits), req.density(), r)
            })
            .collect();
        sorted.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)).then(a.2.cmp(&b.2)));
        self.members.reserve(sorted.len());
        for (i, &(key, density, r)) in sorted.iter().enumerate() {
            let new_class = i == 0 || sorted[i - 1].0 != key;
            if new_class {
                let at = self.runs.len() as u32;
                self.classes.push(Class {
                    head: at,
                    end_run: at,
                    rep_run: at,
                    alive: true,
                    dirty: false,
                });
            }
            if new_class || sorted[i - 1].1 != density {
                self.runs.push(Run {
                    front: i as u32,
                    end: i as u32,
                });
            }
            self.runs.last_mut().expect("run pushed above").end += 1;
            let c = self.classes.len() - 1;
            self.classes[c].end_run = self.runs.len() as u32;
            self.class_of[r.index()] = c as u32;
            self.members.push((density, r));
        }
        self.cache = PathCache::new(self.classes.len(), instance.graph().num_edges());
        for c in 0..self.classes.len() as u32 {
            self.mark_dirty(c);
        }
        self.must_refresh_all = true;
    }

    #[inline]
    fn mark_dirty(&mut self, c: u32) {
        let class = &mut self.classes[c as usize];
        if class.alive && !class.dirty {
            class.dirty = true;
            self.dirty_list.push(c);
            self.dirty_count += 1;
        }
    }

    /// The front member of run `run`.
    #[inline]
    fn front(&self, run: u32) -> (f64, RequestId) {
        self.members[self.runs[run as usize].front as usize]
    }

    /// Class `c`'s representative at distance `dist`: its run and its
    /// `(request, score)`. The lowest id among live members whose
    /// `density · dist` equals the class minimum; products are monotone
    /// in density, so the scan stops at the first run past the tie.
    fn representative(&self, c: u32, dist: f64) -> (u32, RequestId, f64) {
        let class = self.classes[c as usize];
        let (density, id) = self.front(class.head);
        let mut best = (class.head, id, density * dist);
        for run in class.head + 1..class.end_run {
            if self.runs[run as usize].is_exhausted() {
                continue;
            }
            let (density, id) = self.front(run);
            if density * dist != best.2 {
                break;
            }
            if id < best.1 {
                best = (run, id, best.2);
            }
        }
        best
    }

    /// Re-key class `c` at distance `dist`: replace its heap entry by
    /// its representative's `(score, id)`.
    fn place(&mut self, c: u32, dist: f64) {
        let (run, id, score) = self.representative(c, dist);
        let class = &mut self.classes[c as usize];
        let old_run = std::mem::replace(&mut class.rep_run, run);
        let old = self.front(old_run).1;
        if old != id {
            self.heap.remove(old.0);
        }
        self.heap.update(id.0, score);
    }

    /// Take class `c` out of play: no member can be selected any more.
    fn retire(&mut self, c: u32) {
        let class = &mut self.classes[c as usize];
        class.alive = false;
        if class.dirty {
            class.dirty = false;
            self.dirty_count -= 1;
        }
        let rep_run = class.rep_run;
        let rep = self.front(rep_run).1;
        self.heap.remove(rep.0);
        self.cache.evict(c);
    }

    /// The argmin `(request, score)` under the current weights —
    /// bit-identical (selection, score, tie-break) to scanning a full
    /// fan-out's findings. `None` when no live request has a path
    /// (the fan-out's `NoPath` condition).
    pub(crate) fn select(
        &mut self,
        remaining: &[RequestId],
        inputs: &SelectInputs<'_>,
    ) -> Option<(RequestId, f64)> {
        if self.unseeded {
            self.unseeded = false;
            self.shift_seen = inputs.weights.shift();
            self.seed(remaining, inputs);
        }
        if self.dirty_count > 0 && (self.must_refresh_all || self.dirty_count >= EAGER_REFRESH_MIN)
        {
            self.refresh_eager(inputs);
            self.must_refresh_all = false;
        }
        // `selection.heap` covers the lazy pop loop (peeks, staleness
        // checks, re-inserts); the per-class re-queries it triggers
        // nest inside it as `selection.dijkstra` spans.
        let _heap = inputs.obs.span(Phase::SelectionHeap);
        loop {
            let (rep, key) = self.heap.peek()?;
            let c = self.class_of[rep as usize];
            if self.classes[c as usize].dirty {
                self.refresh_one(c, inputs);
                continue;
            }
            return Some((RequestId(rep), key));
        }
    }

    /// The cached path of the just-selected winner. Valid immediately
    /// after [`IncrementalSelector::select`] returned that request.
    pub(crate) fn winner_path(&self, r: RequestId) -> &Path {
        self.cache
            .get(self.class_of[r.index()])
            .expect("winner must have a cached path")
            .1
    }

    /// Account for an applied step: [`IncrementalSelector::leave`] for
    /// the winner, then [`IncrementalSelector::dirty_crossed`] for its
    /// path.
    pub(crate) fn after_step(&mut self, selected: RequestId, path: &Path, weights: &DualWeights) {
        self.leave(selected);
        self.dirty_crossed(path, weights);
    }

    /// The winner leaves its class: promote the class's next
    /// representative under its cached distance, or retire the class
    /// when it was the last member. `selected` must be the request the
    /// last [`IncrementalSelector::select`] returned (its class is
    /// fresh). A pricing run calls this alone to take the priced agent
    /// out of a warm selector without applying its step.
    pub(crate) fn leave(&mut self, selected: RequestId) {
        let c = self.class_of[selected.index()];
        self.heap.remove(selected.0);
        let class = &mut self.classes[c as usize];
        let run = &mut self.runs[class.rep_run as usize];
        debug_assert_eq!(self.members[run.front as usize].1, selected);
        run.front += 1;
        while class.head < class.end_run && self.runs[class.head as usize].is_exhausted() {
            class.head += 1;
        }
        if class.head == class.end_run {
            // The last member left; its heap entry is already gone.
            debug_assert!(!class.dirty, "the winner's class was fresh");
            class.alive = false;
            self.cache.evict(c);
        } else {
            // The winner's run may be exhausted: point the representative
            // at a live run before `place` reads it.
            class.rep_run = class.head;
            let dist = self.cache.get(c).expect("winner's class is cached").0;
            self.place(c, dist);
        }
    }

    /// Dirty the classes whose cached paths cross `path`'s edges (their
    /// weights were bumped and their residuals decremented), and detect
    /// weight re-centering (which invalidates every cached distance's
    /// scale).
    pub(crate) fn dirty_crossed(&mut self, path: &Path, weights: &DualWeights) {
        if weights.shift() != self.shift_seen {
            // Re-centering rescaled every materialized weight: cached
            // distances are in the wrong scale and stale keys are no
            // longer lower bounds. Refresh everything before the next
            // selection.
            self.shift_seen = weights.shift();
            self.must_refresh_all = true;
            for c in 0..self.classes.len() as u32 {
                self.mark_dirty(c);
            }
            return;
        }
        let mut buf = std::mem::take(&mut self.drain_buf);
        for &e in path.edges() {
            buf.clear();
            self.cache.drain_interested(e, &mut buf);
            for &c in &buf {
                self.mark_dirty(c);
            }
        }
        self.drain_buf = buf;
    }

    /// Re-query one class at the heap top (the lazy path). Clears its
    /// dirty flag; retires it permanently if it no longer has a path
    /// (monotonicity: paths never come back within an epoch).
    fn refresh_one(&mut self, c: u32, inputs: &SelectInputs<'_>) {
        let _span = inputs.obs.span(Phase::SelectionDijkstra);
        let class = &mut self.classes[c as usize];
        debug_assert!(class.alive && class.dirty);
        class.dirty = false;
        let rep_run = class.rep_run;
        self.dirty_count -= 1;
        let req = inputs.instance.request(self.front(rep_run).1);
        let graph = inputs.instance.graph();
        self.scratch.run(
            graph,
            inputs.weights.weights(),
            req.src,
            Targets::One(req.dst),
            |e| inputs.passable_for(e, req.demand),
        );
        match self.scratch.distance(req.dst) {
            None => self.retire(c),
            Some(dist) => {
                let filled = self
                    .scratch
                    .path_to_into(req.dst, self.cache.refresh_buffer(c));
                debug_assert!(filled, "settled target must reconstruct");
                self.cache.commit(c, dist);
                self.place(c, dist);
            }
        }
    }

    /// Refresh every dirty class through the grouped fan-out (the
    /// large-dirty-set / post-flush path). Same queries as
    /// [`IncrementalSelector::refresh_one`], batched: same-source classes
    /// share one Dijkstra (unless residual-gated, where the filter
    /// depends on the class's demand) and groups fan out over the worker
    /// pool. Each class is queried through its representative.
    fn refresh_eager(&mut self, inputs: &SelectInputs<'_>) {
        let _span = inputs.obs.span(Phase::SelectionDirtyRefresh);
        let mut reps: Vec<RequestId> = Vec::with_capacity(self.dirty_count);
        for c in self.dirty_list.drain(..) {
            let class = &mut self.classes[c as usize];
            if class.dirty {
                class.dirty = false;
                let run = self.runs[class.rep_run as usize];
                reps.push(self.members[run.front as usize].1);
            }
        }
        self.dirty_count = 0;
        if reps.is_empty() {
            return;
        }
        let instance = inputs.instance;
        let graph = instance.graph();
        let w = inputs.weights.weights();

        let refreshed: Vec<Refreshed> = if inputs.respect_residual {
            // Per-demand edge filter: no Dijkstra sharing possible.
            reps.sort_unstable();
            inputs.pool.map_with_floor(
                &reps,
                EAGER_REFRESH_MIN,
                || (Dijkstra::new(graph.num_nodes()), Path::trivial(NodeId(0))),
                |(dij, pbuf), _, &r| {
                    let req = instance.request(r);
                    dij.run(graph, w, req.src, Targets::One(req.dst), |e| {
                        inputs.passable_for(e, req.demand)
                    });
                    let found = dij.distance(req.dst).map(|dist| {
                        dij.path_to_into(req.dst, pbuf);
                        (dist, pbuf.clone())
                    });
                    (r, found)
                },
            )
        } else {
            let groups = crate::bounded_ufp::group_by_source(instance, &reps);
            let per_group: Vec<Vec<Refreshed>> = inputs.pool.map_with_floor(
                &groups,
                PARALLEL_GROUP_FLOOR,
                || (Dijkstra::new(graph.num_nodes()), Path::trivial(NodeId(0))),
                |(dij, pbuf), _, (src, members)| {
                    let targets: Vec<_> =
                        members.iter().map(|r| instance.request(*r).dst).collect();
                    dij.run(graph, w, *src, Targets::Set(&targets), |e| {
                        inputs.passable(e)
                    });
                    members
                        .iter()
                        .map(|&r| {
                            let dst = instance.request(r).dst;
                            let found = dij.distance(dst).map(|dist| {
                                dij.path_to_into(dst, pbuf);
                                (dist, pbuf.clone())
                            });
                            (r, found)
                        })
                        .collect()
                },
            );
            per_group.into_iter().flatten().collect()
        };

        for (rep, found) in refreshed {
            let c = self.class_of[rep.index()];
            match found {
                None => self.retire(c),
                Some((dist, path)) => {
                    self.cache.install(c, dist, path);
                    self.place(c, dist);
                }
            }
        }
    }
}
