//! The traced run: the single-trial cold pipeline rebuilt from each layer's
//! public functions, so every layer can be timed from outside the program.
//!
//! The composition mirrors `Transpiler::transpile_qasm` on a session whose
//! distance matrix is built and whose other caches are cold (the
//! single-trial path of `transpile_prepared_on_budgeted_impl` in
//! `crates/core/src/pipeline.rs`): parse, prepare, forward and reversed
//! DAG, SABRE layout, routing, SWAP decomposition, the six post-routing
//! passes one at a time, export. Its output must be byte-identical to the
//! session's; a difference is a failed operation (`layers.mismatches`).
//!
//! Layout and routing run twice, once on a one-worker pool (`.seq`) and
//! once on the default pool the session uses; both must agree. Routing work
//! is counted by a delegating [`SwapPolicy`] on the one-worker run, not by
//! the trace recorder, which stays disabled throughout.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use nassc::circuit::{DagCircuit, QuantumCircuit};
use nassc::passes::{
    standard_optimization_pipeline, CommutativeCancellation, Optimize1qGates, PassManager,
    TranspilePass, TwoQubitBlockResynthesis, UnrollToBasis,
};
use nassc::sabre::{
    route_prepared_budgeted, sabre_layout_prepared_budgeted, RoutingContext, RoutingResult,
    RoutingState, SabrePolicy, SwapPolicy,
};
use nassc::topology::{CouplingMap, DistanceMatrix, Layout};
use nassc::{
    decompose_swaps_fixed, optimize_without_routing, qasm, worker_pool_status, Budget, NasscPolicy,
    RouterKind, ThreadPool, TranspileOptions,
};
use nassc_bench::alloc;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Number of post-routing pass positions in `standard_optimization_pipeline`.
pub const PASSES: usize = 6;

/// Layer measurements of one composed compile (times in seconds,
/// allocations in bytes allocated, counts as counts).
#[derive(Debug, Default, Clone)]
pub struct LayerSample {
    pub parse: f64,
    pub parse_alloc: f64,
    pub prepare: f64,
    pub prepare_alloc: f64,
    pub prepare_gates_out: f64,
    pub dag: f64,
    pub dag_alloc: f64,
    pub layout: f64,
    pub layout_seq: f64,
    pub layout_alloc: f64,
    pub route: f64,
    pub route_seq: f64,
    pub route_alloc: f64,
    pub swaps: f64,
    pub candidates: f64,
    pub pool_batches: f64,
    pub pool_items: f64,
    pub decompose: f64,
    pub decompose_cx_out: f64,
    pub pass_secs: [f64; PASSES],
    pub pass_gates_removed: [f64; PASSES],
    pub passes_alloc: f64,
    pub passes_cx_removed: f64,
    pub export: f64,
    pub export_alloc: f64,
}

impl LayerSample {
    /// The layers on the session's path (the `.seq` reruns excluded).
    pub fn path_secs(&self) -> f64 {
        self.parse
            + self.prepare
            + self.dag
            + self.layout
            + self.route
            + self.decompose
            + self.pass_secs.iter().sum::<f64>()
            + self.export
    }

    /// Adds `k` times `other`, field by field.
    pub fn add_scaled(&mut self, other: &LayerSample, k: f64) {
        macro_rules! sum {
            ($($field:ident),*) => { $(self.$field += k * other.$field;)* };
        }
        sum!(
            parse,
            parse_alloc,
            prepare,
            prepare_alloc,
            prepare_gates_out,
            dag,
            dag_alloc,
            layout,
            layout_seq,
            layout_alloc,
            route,
            route_seq,
            route_alloc,
            swaps,
            candidates,
            pool_batches,
            pool_items,
            decompose,
            decompose_cx_out,
            passes_alloc,
            passes_cx_removed,
            export,
            export_alloc
        );
        for i in 0..PASSES {
            self.pass_secs[i] += k * other.pass_secs[i];
            self.pass_gates_removed[i] += k * other.pass_gates_removed[i];
        }
    }
}

/// Runs `f`, returning its value, wall seconds and bytes allocated.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let before = alloc::total_bytes();
    let start = Instant::now();
    let value = f();
    let secs = start.elapsed().as_secs_f64();
    (
        value,
        secs,
        alloc::total_bytes().saturating_sub(before) as f64,
    )
}

/// Delegates to `inner`, counting the candidates it scores and the SWAPs
/// the router emits.
struct Counted<P> {
    inner: P,
    scored: AtomicU64,
    swaps: u64,
}

impl<P: SwapPolicy> SwapPolicy for Counted<P> {
    fn score(&self, ctx: &RoutingContext<'_>, p1: usize, p2: usize) -> f64 {
        self.scored.fetch_add(1, Ordering::Relaxed);
        self.inner.score(ctx, p1, p2)
    }

    fn before_swap_emit(
        &mut self,
        output: &mut RoutingState,
        layout: &Layout,
        p1: usize,
        p2: usize,
    ) {
        self.inner.before_swap_emit(output, layout, p1, p2);
    }

    fn after_swap_emit(
        &mut self,
        output: &mut RoutingState,
        swap_index: usize,
        p1: usize,
        p2: usize,
    ) {
        self.swaps += 1;
        self.inner.after_swap_emit(output, swap_index, p1, p2);
    }
}

/// `standard_optimization_pipeline`, one single-pass manager per position.
fn post_routing_passes() -> Vec<(String, PassManager)> {
    fn one(pass: impl TranspilePass + 'static) -> (String, PassManager) {
        let name = pass.name().to_string();
        let mut pm = PassManager::new();
        pm.push(pass);
        (name, pm)
    }
    vec![
        one(TwoQubitBlockResynthesis),
        one(CommutativeCancellation::default()),
        one(TwoQubitBlockResynthesis),
        one(UnrollToBasis),
        one(CommutativeCancellation::default()),
        one(Optimize1qGates),
    ]
}

/// Pass names by position, checked against the shipped pipeline's own
/// listing so a reordered pipeline fails the run instead of mislabelling it.
pub fn pass_names() -> Result<Vec<String>, String> {
    let names: Vec<String> = post_routing_passes().into_iter().map(|(n, _)| n).collect();
    let shipped = format!("{:?}", standard_optimization_pipeline());
    let listed = format!("{names:?}");
    if shipped.contains(&listed) {
        Ok(names)
    } else {
        Err(format!("pipeline is {shipped}, composition is {listed}"))
    }
}

/// One composed compile: its output QASM and layer measurements.
pub struct Composed {
    pub qasm: String,
    pub sample: LayerSample,
}

/// Composes the cold single-trial pipeline for `source` under `options`.
pub fn compose(
    source: &str,
    coupling: &CouplingMap,
    distances: &DistanceMatrix,
    options: &TranspileOptions,
) -> Result<Composed, String> {
    match options.router {
        RouterKind::Sabre => compose_with(
            source,
            coupling,
            distances,
            options,
            || SabrePolicy,
            |routed, _| decompose_swaps_fixed(&routed.circuit),
        ),
        RouterKind::Nassc => compose_with(
            source,
            coupling,
            distances,
            options,
            || NasscPolicy::new(options.flags),
            |routed, policy| policy.decompose_swaps(&routed.circuit),
        ),
    }
}

fn compose_with<P, F, D>(
    source: &str,
    coupling: &CouplingMap,
    distances: &DistanceMatrix,
    options: &TranspileOptions,
    make_policy: F,
    decompose: D,
) -> Result<Composed, String>
where
    P: SwapPolicy + Sync,
    F: Fn() -> P,
    D: Fn(&RoutingResult, &P) -> QuantumCircuit,
{
    let mut s = LayerSample::default();
    let config = &options.config;
    let unlimited = Budget::unlimited();
    let sequential = ThreadPool::new(1);
    let parallel = ThreadPool::with_default_parallelism();

    let (circuit, secs, bytes) = timed(|| qasm::parse(source));
    let circuit = circuit.map_err(|e| format!("parse: {e}"))?;
    (s.parse, s.parse_alloc) = (secs, bytes);
    if circuit.num_qubits() > coupling.num_qubits() {
        return Err("circuit is wider than the device".into());
    }

    let (prepared, secs, bytes) = timed(|| optimize_without_routing(&circuit));
    let prepared = prepared.map_err(|e| format!("prepare: {e}"))?;
    (s.prepare, s.prepare_alloc) = (secs, bytes);
    s.prepare_gates_out = prepared.num_gates() as f64;

    let ((dag, reversed), secs, bytes) = timed(|| {
        (
            DagCircuit::from_circuit(&prepared),
            DagCircuit::from_circuit(&prepared.reversed()),
        )
    });
    (s.dag, s.dag_alloc) = (secs, bytes);

    let layout_on = |pool: &ThreadPool| {
        if prepared.two_qubit_gate_count() == 0 {
            Layout::trivial(coupling.num_qubits())
        } else {
            sabre_layout_prepared_budgeted(
                &dag, &reversed, coupling, distances, config, pool, &unlimited,
            )
        }
    };
    let (layout_seq, secs, _) = timed(|| layout_on(&sequential));
    s.layout_seq = secs;
    let (layout, secs, bytes) = timed(|| layout_on(&parallel));
    (s.layout, s.layout_alloc) = (secs, bytes);
    if layout != layout_seq {
        return Err("layout differs between one worker and the default pool".into());
    }

    let mut counted = Counted {
        inner: make_policy(),
        scored: AtomicU64::new(0),
        swaps: 0,
    };
    let (routed_seq, secs, _) = timed(|| {
        route_prepared_budgeted(
            &dag,
            coupling,
            distances,
            &layout,
            config,
            &mut counted,
            &mut StdRng::seed_from_u64(config.seed),
            &sequential,
            &unlimited,
        )
    });
    s.route_seq = secs;
    s.candidates = counted.scored.load(Ordering::Relaxed) as f64;
    s.swaps = counted.swaps as f64;

    let mut policy = make_policy();
    let pool_before = worker_pool_status();
    let (routed, secs, bytes) = timed(|| {
        route_prepared_budgeted(
            &dag,
            coupling,
            distances,
            &layout,
            config,
            &mut policy,
            &mut StdRng::seed_from_u64(config.seed),
            &parallel,
            &unlimited,
        )
    });
    let pool_after = worker_pool_status();
    (s.route, s.route_alloc) = (secs, bytes);
    s.pool_batches = (pool_after.batches_completed - pool_before.batches_completed) as f64;
    s.pool_items = (pool_after.items_completed - pool_before.items_completed) as f64;
    if routed.circuit != routed_seq.circuit || routed.swap_count != routed_seq.swap_count {
        return Err("routing differs between one worker and the default pool".into());
    }
    if routed.swap_count as f64 != s.swaps {
        return Err(format!(
            "counting policy saw {} SWAPs, router reports {}",
            s.swaps, routed.swap_count
        ));
    }

    let (mut current, secs, _) = timed(|| decompose(&routed, &policy));
    s.decompose = secs;
    s.decompose_cx_out = current.cx_count() as f64;

    let cx_before_passes = current.cx_count();
    for (k, (name, pass)) in post_routing_passes().iter().enumerate() {
        let gates_before = current.num_gates() as f64;
        let (next, secs, bytes) = timed(|| pass.run(&current));
        current = next.map_err(|e| format!("{name}: {e}"))?;
        s.pass_secs[k] = secs;
        s.pass_gates_removed[k] = gates_before - current.num_gates() as f64;
        s.passes_alloc += bytes;
    }
    s.passes_cx_removed = cx_before_passes as f64 - current.cx_count() as f64;

    let (exported, secs, bytes) = timed(|| qasm::export(&current));
    (s.export, s.export_alloc) = (secs, bytes);
    let qasm = exported.map_err(|e| format!("export: {e}"))?;
    Ok(Composed { qasm, sample: s })
}
