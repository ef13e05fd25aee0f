//! End-to-end transpile pipelines: the paper's `Qiskit+SABRE` baseline and
//! `Qiskit+NASSC`, with optional noise-aware (HA) distance matrices.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use nassc_circuit::{DagCircuit, Gate, QuantumCircuit};
use nassc_parallel::{Budget, ThreadPool};
use nassc_passes::{
    apply_layout, standard_optimization_pipeline, PassError, PassManager, UnrollToBasis,
};
use nassc_sabre::{
    route_prepared_budgeted, sabre_layout_prepared_budgeted, LayoutTrials, RoutingResult,
    SabreConfig, SabrePolicy, SwapPolicy,
};
use nassc_synthesis::{swap_decomposition, SwapOrientation};
use nassc_topology::{
    noise_aware_distance, Calibration, CouplingMap, DistanceMatrix, Layout, NoiseAwareAlphas,
};

use crate::cost::OptimizationFlags;
use crate::policy::NasscPolicy;
use crate::session::CacheStats;

/// Which routing algorithm a [`TranspileOptions`] selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterKind {
    /// The SABRE baseline (Li et al., ASPLOS 2019).
    Sabre,
    /// The paper's optimization-aware router.
    Nassc,
}

/// Options controlling a full transpilation.
///
/// Construct via the fluent builder —
/// `TranspileOptions::new().router(RouterKind::Sabre).layout_trials(4).seed(7)`
/// — or one of the named presets ([`sabre`](Self::sabre),
/// [`nassc`](Self::nassc)). Struct-literal construction over the public
/// fields keeps working for existing callers.
#[derive(Debug, Clone)]
pub struct TranspileOptions {
    /// Which router to use.
    pub router: RouterKind,
    /// Shared SABRE/NASSC heuristic parameters (extended-layer size 20 and
    /// weight 0.5 by default, as in the paper).
    pub config: SabreConfig,
    /// NASSC's optimization flags (`b_k` bits); ignored by SABRE.
    pub flags: OptimizationFlags,
    /// When set, routing uses the noise-aware distance matrix of Eq. 3
    /// (the `+HA` variants of Figure 11).
    pub calibration: Option<Calibration>,
    /// Number of independent layout trials (see
    /// [`nassc_sabre::LayoutTrials`]). `1` (the default) selects the
    /// single-trial compatibility path, whose outputs are bit-identical to
    /// the historical single-`StdRng` [`nassc_sabre::sabre_layout`]; `N > 1` runs `N`
    /// independently seeded trials refined through the router's own
    /// [`nassc_sabre::SwapPolicy`] and keeps the one whose full routing pass
    /// costs least — fewest SWAPs for SABRE, fewest CNOTs surviving the
    /// optimization-aware decomposition for NASSC (ties break to the lowest
    /// trial index).
    pub layout_trials: usize,
    /// When set, the transpile runs under a cooperative deadline measured
    /// from request entry ([`Transpiler`] methods anchor it when they start
    /// the request): an in-flight transpile aborts at its next checkpoint —
    /// per layout trial, per routing step, per optimization pass — with
    /// [`Error::Deadline`]. `None` (the default) never aborts. Honoured by
    /// the session API only; the deprecated free functions ignore it.
    ///
    /// [`Transpiler`]: crate::session::Transpiler
    /// [`Error::Deadline`]: crate::error::Error::Deadline
    pub deadline: Option<Duration>,
}

/// `deadline` is deliberately **excluded**: options are the layout-cache
/// key, and two requests differing only in how long they may run must share
/// cache entries (the cached result is bit-identical either way).
impl PartialEq for TranspileOptions {
    fn eq(&self, other: &Self) -> bool {
        self.router == other.router
            && self.config == other.config
            && self.flags == other.flags
            && self.calibration == other.calibration
            && self.layout_trials == other.layout_trials
    }
}

impl Default for TranspileOptions {
    /// The paper's headline configuration: `Qiskit+NASSC` with every
    /// optimization enabled and the default seed ([`SabreConfig::default`]).
    fn default() -> Self {
        Self {
            router: RouterKind::Nassc,
            config: SabreConfig::default(),
            flags: OptimizationFlags::all(),
            calibration: None,
            layout_trials: 1,
            deadline: None,
        }
    }
}

impl TranspileOptions {
    /// Starts the fluent builder from the [`Default`] configuration
    /// (`Qiskit+NASSC`, all optimizations, default seed, one layout trial).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the routing algorithm and resets [`flags`](Self::flags) to
    /// that router's canonical set (none for SABRE, which ignores them; all
    /// for NASSC) — so `new().router(RouterKind::Sabre).seed(s)` equals
    /// [`sabre(s)`](Self::sabre) exactly. Set custom flags *after* the
    /// router.
    #[must_use]
    pub fn router(mut self, router: RouterKind) -> Self {
        self.router = router;
        self.flags = match router {
            RouterKind::Sabre => OptimizationFlags::none(),
            RouterKind::Nassc => OptimizationFlags::all(),
        };
        self
    }

    /// Sets the layout/routing RNG seed, keeping the other heuristic
    /// parameters as configured.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Replaces the full SABRE/NASSC heuristic configuration.
    #[must_use]
    pub fn config(mut self, config: SabreConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets NASSC's optimization flags (`b_k` bits); ignored by SABRE.
    #[must_use]
    pub fn flags(mut self, flags: OptimizationFlags) -> Self {
        self.flags = flags;
        self
    }

    /// Builder alias of [`with_calibration`](Self::with_calibration): route
    /// on the noise-aware distance matrix of Eq. 3.
    #[must_use]
    pub fn calibration(self, calibration: Calibration) -> Self {
        self.with_calibration(calibration)
    }

    /// Builder alias of [`with_layout_trials`](Self::with_layout_trials):
    /// run `trials` independent layout trials (clamped to at least 1).
    #[must_use]
    pub fn layout_trials(self, trials: usize) -> Self {
        self.with_layout_trials(trials)
    }

    /// `Qiskit+SABRE` with the given seed.
    pub fn sabre(seed: u64) -> Self {
        Self {
            router: RouterKind::Sabre,
            config: SabreConfig::with_seed(seed),
            flags: OptimizationFlags::none(),
            calibration: None,
            layout_trials: 1,
            deadline: None,
        }
    }

    /// `Qiskit+NASSC` with all optimizations enabled and the given seed.
    pub fn nassc(seed: u64) -> Self {
        Self {
            router: RouterKind::Nassc,
            config: SabreConfig::with_seed(seed),
            flags: OptimizationFlags::all(),
            calibration: None,
            layout_trials: 1,
            deadline: None,
        }
    }

    /// `Qiskit+NASSC` with a specific optimization-flag combination
    /// (used by the Figure 9 sweep).
    pub fn nassc_with_flags(seed: u64, flags: OptimizationFlags) -> Self {
        Self {
            flags,
            ..Self::nassc(seed)
        }
    }

    /// The noise-aware variant (`SABRE+HA` / `NASSC+HA`).
    #[must_use]
    pub fn with_calibration(mut self, calibration: Calibration) -> Self {
        self.calibration = Some(calibration);
        self
    }

    /// Runs `trials` independent layout trials (clamped to at least 1) and
    /// keeps the cheapest-to-route layout. `1` preserves the historical
    /// single-trial outputs bit-for-bit.
    #[must_use]
    pub fn with_layout_trials(mut self, trials: usize) -> Self {
        self.layout_trials = trials.max(1);
        self
    }

    /// Caps how long the transpile may run (measured from request entry by
    /// the session API): past the limit the in-flight transpile aborts at
    /// its next checkpoint with [`Error::Deadline`]. A deadline never
    /// changes results — outputs are bit-identical whenever the transpile
    /// finishes in time — and never affects cache keys (see the manual
    /// [`PartialEq`] impl).
    ///
    /// [`Error::Deadline`]: crate::error::Error::Deadline
    #[must_use]
    pub fn deadline(mut self, limit: Duration) -> Self {
        self.deadline = Some(limit);
        self
    }
}

/// The outcome of a full transpilation.
#[derive(Debug, Clone)]
pub struct TranspileResult {
    /// The final physical circuit in the IBM basis.
    pub circuit: QuantumCircuit,
    /// The chosen initial layout.
    pub initial_layout: Layout,
    /// The layout after all SWAPs.
    pub final_layout: Layout,
    /// Number of SWAPs inserted during routing (before optimization).
    pub swap_count: usize,
    /// Index of the layout trial whose layout was used (always 0 in the
    /// single-trial compatibility mode).
    pub chosen_layout_trial: usize,
    /// Scoring cost of every layout trial, in trial order. The unit is
    /// router-specific: SWAPs inserted by the trial's full routing pass for
    /// SABRE, CNOTs surviving the optimization-aware SWAP decomposition for
    /// NASSC — comparable within a run, not across routers. Empty in
    /// single-trial mode, where no scoring pass runs.
    pub layout_trial_costs: Vec<f64>,
    /// Cache activity this request observed on the [`Transpiler`] session
    /// that served it: hits and misses against the distance, prepared and
    /// layout caches. All zero on the cache-less free-function paths.
    ///
    /// [`Transpiler`]: crate::session::Transpiler
    pub cache: CacheStats,
    /// Wall-clock time of the whole pipeline.
    pub elapsed: Duration,
}

impl TranspileResult {
    /// CNOT count of the final circuit.
    pub fn cx_count(&self) -> usize {
        self.circuit.cx_count()
    }

    /// Depth of the final circuit.
    pub fn depth(&self) -> usize {
        self.circuit.depth()
    }
}

/// The pre-routing pipeline: basis unrolling followed by the standard
/// optimizations (this is also what the paper's "original circuit optimized
/// by Qiskit" baseline columns report).
pub fn optimize_without_routing(circuit: &QuantumCircuit) -> Result<QuantumCircuit, PassError> {
    optimize_without_routing_budgeted(circuit, &Budget::unlimited())
}

/// [`optimize_without_routing`] under a cooperative [`Budget`], checked
/// before each pass (see [`PassManager::run_with_budget`]).
pub(crate) fn optimize_without_routing_budgeted(
    circuit: &QuantumCircuit,
    budget: &Budget,
) -> Result<QuantumCircuit, PassError> {
    let _span = nassc_trace::span!("prepare");
    let mut pm = PassManager::new();
    pm.push(UnrollToBasis);
    let unrolled = pm.run_with_budget(circuit, budget)?;
    standard_optimization_pipeline().run_with_budget(&unrolled, budget)
}

/// Builds the distance matrix a transpilation over `coupling` uses: plain
/// hop counts, or the noise-aware Eq. 3 variant when a calibration is given.
///
/// The result depends only on `(coupling, calibration)`, never on the circuit
/// or seed — the [`Transpiler`] session computes it once per device and
/// shares it across every request through its distance cache.
///
/// [`Transpiler`]: crate::session::Transpiler
#[deprecated(note = "use Transpiler — its distance cache owns this computation")]
pub fn distances_for(coupling: &CouplingMap, calibration: Option<&Calibration>) -> DistanceMatrix {
    distances_for_impl(coupling, calibration)
}

/// Non-deprecated internal behind [`distances_for`], shared by the session
/// caches and the legacy shims.
pub(crate) fn distances_for_impl(
    coupling: &CouplingMap,
    calibration: Option<&Calibration>,
) -> DistanceMatrix {
    match calibration {
        Some(cal) => noise_aware_distance(coupling, cal, NoiseAwareAlphas::default()),
        None => coupling.distance_matrix(),
    }
}

/// Runs the full pipeline: pre-routing optimization, SABRE layout, routing
/// (SABRE or NASSC), SWAP decomposition and post-routing optimization.
///
/// # Errors
///
/// Propagates [`PassError`] from any optimization pass.
#[deprecated(note = "use Transpiler::transpile — it reuses distances, prepared \
                     baselines and layout winners across requests")]
pub fn transpile(
    circuit: &QuantumCircuit,
    coupling: &CouplingMap,
    options: &TranspileOptions,
) -> Result<TranspileResult, PassError> {
    transpile_impl(circuit, coupling, options)
}

pub(crate) fn transpile_impl(
    circuit: &QuantumCircuit,
    coupling: &CouplingMap,
    options: &TranspileOptions,
) -> Result<TranspileResult, PassError> {
    let start = Instant::now();
    let distances = distances_for_impl(coupling, options.calibration.as_ref());
    let mut result = transpile_with_distances_impl(circuit, coupling, &distances, options)?;
    // Keep the historical meaning of `elapsed` for this entry point: the
    // whole pipeline, distance-matrix construction included.
    result.elapsed = start.elapsed();
    Ok(result)
}

/// [`transpile`] with a precomputed distance matrix.
///
/// `distances` must be what [`distances_for`] returns for `coupling` and
/// `options.calibration` — callers that sweep many seeds over one device
/// (the batch engine, the bench harness) compute it once instead of
/// rebuilding the all-pairs matrix on every call. Output is identical to
/// [`transpile`] for matching inputs.
///
/// # Errors
///
/// Propagates [`PassError`] from any optimization pass.
#[deprecated(note = "use Transpiler::transpile — its distance cache makes the \
                     precomputed-matrix plumbing unnecessary")]
pub fn transpile_with_distances(
    circuit: &QuantumCircuit,
    coupling: &CouplingMap,
    distances: &DistanceMatrix,
    options: &TranspileOptions,
) -> Result<TranspileResult, PassError> {
    transpile_with_distances_impl(circuit, coupling, distances, options)
}

pub(crate) fn transpile_with_distances_impl(
    circuit: &QuantumCircuit,
    coupling: &CouplingMap,
    distances: &DistanceMatrix,
    options: &TranspileOptions,
) -> Result<TranspileResult, PassError> {
    let start = Instant::now();
    // Pre-routing optimization (moved before routing, as NASSC requires).
    let prepared = optimize_without_routing(circuit)?;
    let mut result = transpile_prepared_impl(&prepared, coupling, distances, options)?;
    // Report the whole pipeline's wall-clock, including preparation.
    result.elapsed = start.elapsed();
    Ok(result)
}

/// The seed-dependent tail of the pipeline: layout, routing, SWAP
/// decomposition and post-routing optimization of an **already prepared**
/// circuit (one that [`optimize_without_routing`] has produced).
///
/// Preparation is deterministic and seed-independent, so seed sweeps over
/// one circuit can run it once and share `prepared` across every job — the
/// batch engine (`crate::batch`) does exactly that. `elapsed` covers only
/// this call.
///
/// Layout trials (when `options.layout_trials > 1`) fan across the default
/// thread pool; callers that already own a worker budget — the batch engine
/// splits one between jobs and trials — use [`transpile_prepared_on`].
///
/// # Errors
///
/// Propagates [`PassError`] from any optimization pass.
#[deprecated(note = "use Transpiler::transpile — its prepared-baseline cache \
                     shares preparation across requests automatically")]
pub fn transpile_prepared(
    prepared: &QuantumCircuit,
    coupling: &CouplingMap,
    distances: &DistanceMatrix,
    options: &TranspileOptions,
) -> Result<TranspileResult, PassError> {
    transpile_prepared_impl(prepared, coupling, distances, options)
}

pub(crate) fn transpile_prepared_impl(
    prepared: &QuantumCircuit,
    coupling: &CouplingMap,
    distances: &DistanceMatrix,
    options: &TranspileOptions,
) -> Result<TranspileResult, PassError> {
    transpile_prepared_on_impl(
        prepared,
        coupling,
        distances,
        options,
        &ThreadPool::with_default_parallelism(),
    )
}

/// [`transpile_prepared`] with an explicit worker budget.
///
/// Layout trials fan across the whole budget; each routing pass scores its
/// SWAP candidates serially, so a single-trial transpile runs on one
/// worker. The pool size affects wall clock only: every layout trial owns a
/// private seed stream, so the output is bit-identical at any worker count.
///
/// # Errors
///
/// Propagates [`PassError`] from any optimization pass.
#[deprecated(note = "use Transpiler::with_pool(..).transpile — the session \
                     owns the worker budget")]
pub fn transpile_prepared_on(
    prepared: &QuantumCircuit,
    coupling: &CouplingMap,
    distances: &DistanceMatrix,
    options: &TranspileOptions,
    trial_pool: &ThreadPool,
) -> Result<TranspileResult, PassError> {
    transpile_prepared_on_impl(prepared, coupling, distances, options, trial_pool)
}

pub(crate) fn transpile_prepared_on_impl(
    prepared: &QuantumCircuit,
    coupling: &CouplingMap,
    distances: &DistanceMatrix,
    options: &TranspileOptions,
    trial_pool: &ThreadPool,
) -> Result<TranspileResult, PassError> {
    transpile_prepared_on_budgeted_impl(
        prepared,
        coupling,
        distances,
        options,
        trial_pool,
        &Budget::unlimited(),
    )
}

/// The cold-path tail under a cooperative [`Budget`]: layout trials, every
/// routing step and every optimization pass checkpoint it, so an exhausted
/// budget aborts the transpile by unwinding with a typed `Cancelled`
/// payload (caught and classified at the session boundary).
pub(crate) fn transpile_prepared_on_budgeted_impl(
    prepared: &QuantumCircuit,
    coupling: &CouplingMap,
    distances: &DistanceMatrix,
    options: &TranspileOptions,
    trial_pool: &ThreadPool,
    budget: &Budget,
) -> Result<TranspileResult, PassError> {
    let start = Instant::now();

    // Layout, routing and SWAP decomposition; the two arms differ only in
    // the SWAP policy, the trial cost and how SWAPs are decomposed. SABRE
    // prices every SWAP at three CNOTs, so the SWAP count of a trial's
    // scoring pass is (up to a constant factor) the CNOT overhead that
    // layout costs — the same trial score Qiskit's SabreLayout uses.
    // NASSC's whole point is that not all SWAPs have the same cost: its
    // decomposition cancels CNOTs against neighbouring gates, so trials are
    // scored by the CNOTs that actually survive the policy's
    // optimization-aware decomposition.
    let (routed, decomposed, chosen_layout_trial, layout_trial_costs) = match options.router {
        RouterKind::Sabre => layout_route_decompose(
            prepared,
            coupling,
            distances,
            options,
            trial_pool,
            budget,
            || SabrePolicy,
            |routed, _| routed.swap_count as f64,
            |routed, _| decompose_swaps_fixed(&routed.circuit),
        ),
        RouterKind::Nassc => layout_route_decompose(
            prepared,
            coupling,
            distances,
            options,
            trial_pool,
            budget,
            || NasscPolicy::new(options.flags),
            |routed, policy| policy.decompose_swaps(&routed.circuit).cx_count() as f64,
            |routed, policy| policy.decompose_swaps(&routed.circuit),
        ),
    };

    // Post-routing optimization shared by both arms.
    let optimized = {
        let _span = nassc_trace::span!("post_optimize");
        standard_optimization_pipeline().run_with_budget(&decomposed, budget)?
    };

    Ok(TranspileResult {
        circuit: optimized,
        initial_layout: routed.initial_layout,
        final_layout: routed.final_layout,
        swap_count: routed.swap_count,
        chosen_layout_trial,
        layout_trial_costs,
        cache: CacheStats::default(),
        elapsed: start.elapsed(),
    })
}

/// The warm-cache tail used by the [`Transpiler`] layout cache: route the
/// prepared circuit **from an already-chosen initial layout** (the cached
/// winner of a previous request's layout search), then decompose and
/// post-optimize as usual.
///
/// Bit-identity with the cold path follows from how the cold path itself
/// routes: in single-trial mode the production route is exactly
/// [`route_from`] on the refined layout, and in multi-trial mode the
/// winner's scoring pass already runs on the production RNG, so its route
/// *is* the production route (see [`LayoutTrials::run_routed`]). Either way,
/// re-running [`route_from`] on the cached initial layout with the same
/// options reproduces the cold route gate-for-gate. One routing pass is
/// serial, so this path takes no worker budget.
///
/// `chosen_trial` and `trial_costs` are the cached diagnostics of the
/// original layout search, echoed so warm results equal cold results field
/// by field.
///
/// [`Transpiler`]: crate::session::Transpiler
/// [`LayoutTrials::run_routed`]: nassc_sabre::LayoutTrials::run_routed
#[allow(clippy::too_many_arguments)]
pub(crate) fn transpile_prepared_from_layout(
    prepared: &QuantumCircuit,
    coupling: &CouplingMap,
    distances: &DistanceMatrix,
    options: &TranspileOptions,
    initial_layout: &Layout,
    chosen_trial: usize,
    trial_costs: Vec<f64>,
    budget: &Budget,
) -> Result<TranspileResult, PassError> {
    let start = Instant::now();
    let mut route_span = nassc_trace::span!("route_from");
    route_span.arg_u64("chosen_trial", chosen_trial as u64);
    let (routed, decomposed) = match options.router {
        RouterKind::Sabre => {
            let (routed, _) = route_from(
                prepared,
                coupling,
                distances,
                initial_layout,
                options,
                &|| SabrePolicy,
                budget,
            );
            let decomposed = decompose_swaps_fixed(&routed.circuit);
            (routed, decomposed)
        }
        RouterKind::Nassc => {
            let (routed, policy) = route_from(
                prepared,
                coupling,
                distances,
                initial_layout,
                options,
                &|| NasscPolicy::new(options.flags),
                budget,
            );
            let decomposed = policy.decompose_swaps(&routed.circuit);
            (routed, decomposed)
        }
    };
    drop(route_span);
    let optimized = {
        let _span = nassc_trace::span!("post_optimize");
        standard_optimization_pipeline().run_with_budget(&decomposed, budget)?
    };
    Ok(TranspileResult {
        circuit: optimized,
        initial_layout: routed.initial_layout,
        final_layout: routed.final_layout,
        swap_count: routed.swap_count,
        chosen_layout_trial: chosen_trial,
        layout_trial_costs: trial_costs,
        cache: CacheStats::default(),
        elapsed: start.elapsed(),
    })
}

/// The router-generic layout + routing + decomposition core of
/// [`transpile_prepared_on`]: returns the routing result, the decomposed
/// circuit and the layout-trial diagnostics.
///
/// `options.layout_trials <= 1` takes the compatibility path — the
/// single-trial [`sabre_layout`] refinement followed by one routing pass on
/// the production RNG, bit-identical to the historical pipeline. Multiple
/// trials run the policy-aware [`LayoutTrials`] engine; since each trial's
/// scoring pass already routes on the production RNG, the winner's scoring
/// route *is* the production route and is reused directly instead of paying
/// a duplicate routing pass.
#[allow(clippy::too_many_arguments)]
fn layout_route_decompose<P, F, S, D>(
    prepared: &QuantumCircuit,
    coupling: &CouplingMap,
    distances: &DistanceMatrix,
    options: &TranspileOptions,
    trial_pool: &ThreadPool,
    budget: &Budget,
    make_policy: F,
    score: S,
    decompose: D,
) -> (RoutingResult, QuantumCircuit, usize, Vec<f64>)
where
    P: SwapPolicy + Send,
    F: Fn() -> P + Sync,
    S: Fn(&RoutingResult, &P) -> f64 + Sync,
    D: Fn(&RoutingResult, &P) -> QuantumCircuit,
{
    if options.layout_trials <= 1 {
        // Build the dependency DAG once per circuit and share it between the
        // layout search and the production routing pass — at 100k gates the
        // per-pass rebuild used to dominate the single-trial path.
        let dag = {
            let _span = nassc_trace::span!("dag_build");
            DagCircuit::from_circuit(prepared)
        };
        let layout = if prepared.two_qubit_gate_count() == 0 {
            Layout::trivial(coupling.num_qubits())
        } else {
            let reversed_dag = DagCircuit::from_circuit(&prepared.reversed());
            sabre_layout_prepared_budgeted(
                &dag,
                &reversed_dag,
                coupling,
                distances,
                &options.config,
                &ThreadPool::new(1),
                budget,
            )
        };
        let routed = {
            let _span = nassc_trace::span!("route");
            let mut policy = make_policy();
            let routed = route_prepared_budgeted(
                &dag,
                coupling,
                distances,
                &layout,
                &options.config,
                &mut policy,
                &mut StdRng::seed_from_u64(options.config.seed),
                &ThreadPool::new(1),
                budget,
            );
            (routed, policy)
        };
        let (routed, policy) = routed;
        let decomposed = {
            let _span = nassc_trace::span!("decompose");
            decompose(&routed, &policy)
        };
        return (routed, decomposed, 0, Vec::new());
    }

    let engine = LayoutTrials::new(prepared, coupling, distances, &options.config)
        .trials(options.layout_trials)
        .pool(*trial_pool)
        .budget(budget.clone());
    let (selection, winner) = engine.run_routed(&make_policy, score);
    let costs = selection.trial_costs();
    let (routed, policy) = match winner {
        Some(winner) => winner,
        // Degenerate no-two-qubit-gate circuit: no trial ever routed, so
        // route once from the engine's identity layout.
        None => route_from(
            prepared,
            coupling,
            distances,
            &selection.layout,
            options,
            &make_policy,
            budget,
        ),
    };
    let decomposed = {
        let _span = nassc_trace::span!("decompose");
        decompose(&routed, &policy)
    };
    (routed, decomposed, selection.chosen_trial, costs)
}

/// One production routing pass: fresh policy, RNG seeded from
/// `options.config.seed`.
#[allow(clippy::too_many_arguments)]
fn route_from<P, F>(
    prepared: &QuantumCircuit,
    coupling: &CouplingMap,
    distances: &DistanceMatrix,
    layout: &Layout,
    options: &TranspileOptions,
    make_policy: &F,
    budget: &Budget,
) -> (RoutingResult, P)
where
    P: SwapPolicy,
    F: Fn() -> P,
{
    let mut policy = make_policy();
    let dag = DagCircuit::from_circuit(prepared);
    let routed = route_prepared_budgeted(
        &dag,
        coupling,
        distances,
        layout,
        &options.config,
        &mut policy,
        &mut StdRng::seed_from_u64(options.config.seed),
        &ThreadPool::new(1),
        budget,
    );
    (routed, policy)
}

/// Embeds a logical circuit on the device with a layout but no routing —
/// useful for fully connected topologies and tests.
pub fn embed(circuit: &QuantumCircuit, coupling: &CouplingMap, layout: &Layout) -> QuantumCircuit {
    apply_layout(circuit, layout, coupling.num_qubits())
}

/// Expands every SWAP with the fixed default template (what the baseline
/// Qiskit+SABRE flow does).
pub fn decompose_swaps_fixed(circuit: &QuantumCircuit) -> QuantumCircuit {
    let mut out = QuantumCircuit::new(circuit.num_qubits());
    for inst in circuit.iter() {
        if inst.gate == Gate::Swap {
            for cx in swap_decomposition(
                inst.qubit(0),
                inst.qubit(1),
                SwapOrientation::FirstQubitControl,
            ) {
                out.push(cx);
            }
        } else {
            out.push(inst.clone());
        }
    }
    out
}

// The tests exercise the deprecated free functions on purpose: they pin the
// behavior the legacy shims must keep until removal.
#[cfg(test)]
#[allow(deprecated)]
mod tests {
    use super::*;
    use nassc_passes::is_mapped;

    fn sample_circuit() -> QuantumCircuit {
        let mut qc = QuantumCircuit::new(5);
        qc.h(0);
        for i in 0..4 {
            qc.cx(i, i + 1);
        }
        qc.cx(0, 4).cx(1, 3).cx(0, 2);
        qc
    }

    #[test]
    fn sabre_pipeline_produces_mapped_basis_circuit() {
        let device = CouplingMap::linear(5);
        let result = transpile(&sample_circuit(), &device, &TranspileOptions::sabre(3)).unwrap();
        assert!(is_mapped(&result.circuit, &device));
        assert!(result.circuit.iter().all(|i| i.gate.in_ibm_basis()));
        assert!(result.cx_count() > 0);
    }

    #[test]
    fn nassc_pipeline_produces_mapped_basis_circuit() {
        let device = CouplingMap::linear(5);
        let result = transpile(&sample_circuit(), &device, &TranspileOptions::nassc(3)).unwrap();
        assert!(is_mapped(&result.circuit, &device));
        assert!(result.circuit.iter().all(|i| i.gate.in_ibm_basis()));
    }

    #[test]
    fn nassc_does_not_use_more_cnots_than_sabre_on_average() {
        let device = CouplingMap::linear(5);
        let circuit = sample_circuit();
        let mut sabre_total = 0usize;
        let mut nassc_total = 0usize;
        for seed in 0..5 {
            sabre_total += transpile(&circuit, &device, &TranspileOptions::sabre(seed))
                .unwrap()
                .cx_count();
            nassc_total += transpile(&circuit, &device, &TranspileOptions::nassc(seed))
                .unwrap()
                .cx_count();
        }
        assert!(
            nassc_total <= sabre_total,
            "NASSC used {nassc_total} CNOTs vs SABRE's {sabre_total}"
        );
    }

    #[test]
    fn optimize_without_routing_reaches_basis() {
        let out = optimize_without_routing(&sample_circuit()).unwrap();
        assert!(out.iter().all(|i| i.gate.in_ibm_basis()));
    }

    #[test]
    fn fixed_swap_decomposition_removes_swaps() {
        let mut qc = QuantumCircuit::new(3);
        qc.swap(0, 1).cx(1, 2).swap(1, 2);
        let out = decompose_swaps_fixed(&qc);
        assert_eq!(out.swap_count(), 0);
        assert_eq!(out.cx_count(), 7);
    }

    #[test]
    fn noise_aware_options_run() {
        let device = CouplingMap::ibmq_montreal();
        let cal = Calibration::synthetic(&device, 5);
        let mut qc = QuantumCircuit::new(4);
        qc.h(0).cx(0, 1).cx(1, 2).cx(2, 3).cx(0, 3);
        for options in [
            TranspileOptions::sabre(1).with_calibration(cal.clone()),
            TranspileOptions::nassc(1).with_calibration(cal),
        ] {
            let result = transpile(&qc, &device, &options).unwrap();
            assert!(is_mapped(&result.circuit, &device));
        }
    }

    #[test]
    fn precomputed_distances_match_the_inline_path() {
        let device = CouplingMap::ibmq_montreal();
        let cal = Calibration::synthetic(&device, 5);
        let circuit = sample_circuit();
        for options in [
            TranspileOptions::sabre(7),
            TranspileOptions::nassc(7),
            TranspileOptions::nassc(7).with_calibration(cal),
        ] {
            let distances = distances_for(&device, options.calibration.as_ref());
            let inline = transpile(&circuit, &device, &options).unwrap();
            let precomputed =
                transpile_with_distances(&circuit, &device, &distances, &options).unwrap();
            assert_eq!(inline.circuit, precomputed.circuit);
            assert_eq!(inline.initial_layout, precomputed.initial_layout);
            assert_eq!(inline.final_layout, precomputed.final_layout);
            assert_eq!(inline.swap_count, precomputed.swap_count);
        }
    }

    #[test]
    fn single_trial_mode_records_no_trial_diagnostics() {
        let device = CouplingMap::linear(5);
        let result = transpile(&sample_circuit(), &device, &TranspileOptions::nassc(3)).unwrap();
        assert_eq!(result.chosen_layout_trial, 0);
        assert!(result.layout_trial_costs.is_empty());
    }

    #[test]
    fn multi_trial_pipeline_is_mapped_and_records_diagnostics() {
        let device = CouplingMap::ibmq_montreal();
        let circuit = sample_circuit();
        for options in [
            TranspileOptions::sabre(3).with_layout_trials(4),
            TranspileOptions::nassc(3).with_layout_trials(4),
        ] {
            let result = transpile(&circuit, &device, &options).unwrap();
            assert!(is_mapped(&result.circuit, &device));
            assert_eq!(result.layout_trial_costs.len(), 4);
            assert!(result.chosen_layout_trial < 4);
            let best = result.layout_trial_costs[result.chosen_layout_trial];
            assert!(result.layout_trial_costs.iter().all(|&c| c >= best));
        }
    }

    #[test]
    fn multi_trial_results_are_reproducible() {
        let device = CouplingMap::ibmq_montreal();
        let circuit = sample_circuit();
        let options = TranspileOptions::nassc(5).with_layout_trials(3);
        let a = transpile(&circuit, &device, &options).unwrap();
        let b = transpile(&circuit, &device, &options).unwrap();
        assert_eq!(a.circuit, b.circuit);
        assert_eq!(a.initial_layout, b.initial_layout);
        assert_eq!(a.chosen_layout_trial, b.chosen_layout_trial);
        assert_eq!(a.layout_trial_costs, b.layout_trial_costs);
    }

    #[test]
    fn transpile_reports_timing_and_swaps() {
        let device = CouplingMap::linear(5);
        let result = transpile(&sample_circuit(), &device, &TranspileOptions::nassc(9)).unwrap();
        assert!(result.elapsed > Duration::ZERO);
        assert!(result.depth() > 0);
        // The sample circuit cannot be routed on a line without SWAPs.
        assert!(result.swap_count > 0);
    }
}
