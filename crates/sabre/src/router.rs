//! The SWAP-insertion routing engine.
//!
//! The engine implements the SABRE traversal (front layer / extended layer /
//! decay, eager execution of gates that already fit the device) and delegates
//! the *scoring* of SWAP candidates to a [`SwapPolicy`]. The plain SABRE
//! heuristic is provided here as [`SabrePolicy`]; the NASSC crate plugs in
//! its optimization-aware cost function through the same interface.
//!
//! # Hot-loop architecture
//!
//! The inner loop is built around incremental state so one routing pass is
//! O(gates · window) instead of quadratic in the output size:
//!
//! * the output circuit lives in a [`RoutingState`], whose per-qubit touch
//!   indices answer "which recent gates touch this pair?" in O(window) —
//!   this is what NASSC's commutation searches consume;
//! * candidates are priced against a per-step [`StepEndpoints`]: the front
//!   and extended layers resolved to physical qubit pairs, each layer's
//!   distance sum, and a per-qubit index of the gates on each qubit. A SWAP
//!   on `(p1, p2)` moves only the gates on `p1` and `p2`, so
//!   [`RoutingContext::front_distance_after_swap`] returns the base sum
//!   minus those gates' old distances plus their new ones — a handful of
//!   lookups instead of a rescan of both layers, no [`Layout`] clone and no
//!   allocation. That is exact only when every partial sum is, so it runs
//!   on [integer-weight](DistanceMatrix::integral_weights) matrices; on
//!   fractional (noise-aware) or disconnected (∞) matrices the engine keeps
//!   the ordered rescan, the only bit-exact choice for those inputs;
//! * candidates are scored serially, with the argmin taken in shuffled
//!   candidate order (ties keep the first minimum). A step prices about a
//!   hundred candidates at roughly 0.1 µs each, so a thread-pool dispatch
//!   per step costs more than it saves; parallelism lives one level up,
//!   across layout trials and batch jobs;
//! * all per-step buffers (front layer, extended set, candidate edges,
//!   endpoint index) are reused scratch owned by the routing loop.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

use nassc_circuit::{DagCircuit, Gate, QuantumCircuit};
use nassc_parallel::{Budget, ThreadPool};
use nassc_topology::{CouplingMap, DistanceMatrix, Layout};

use crate::config::SabreConfig;
use crate::state::RoutingState;

/// End of a per-qubit slot list in [`LayerEndpoints`].
const NO_SLOT: u32 = u32::MAX;

/// Most gates a layer may hold and still be priced by delta: with weights
/// of magnitude at most 2³² (see [`DistanceMatrix::integral_weights`]),
/// every partial sum over this many gates stays below 2⁵³, so it is exact.
const MAX_DELTA_GATES: usize = 1 << 20;

/// One layer (front or extended) of a routing step, resolved to physical
/// endpoint pairs, plus what delta pricing needs: the layer's distance sum
/// and, per physical qubit, a linked list of the endpoint slots on it.
///
/// Slot `2·g + side` is side `side` (0 or 1) of gate `g`; `head[p]` is the
/// first slot on qubit `p` and `next[slot]` the one after it.
#[derive(Debug, Default)]
struct LayerEndpoints {
    pairs: Vec<(u32, u32)>,
    /// Whether `base`/`head`/`next` describe `pairs` (delta mode).
    indexed: bool,
    base: f64,
    head: Vec<u32>,
    next: Vec<u32>,
}

impl LayerEndpoints {
    /// Replaces the layer with `pairs`, indexing it for delta pricing when
    /// `distances` allows exact delta sums.
    fn prepare(&mut self, pairs: impl Iterator<Item = (u32, u32)>, distances: &DistanceMatrix) {
        if self.indexed {
            // Only the old pairs' qubits have list heads to clear.
            for &(a, b) in &self.pairs {
                self.head[a as usize] = NO_SLOT;
                self.head[b as usize] = NO_SLOT;
            }
        }
        self.pairs.clear();
        self.pairs.extend(pairs);
        self.indexed = distances.integral_weights() && self.pairs.len() <= MAX_DELTA_GATES;
        if !self.indexed {
            return;
        }
        if self.head.len() < distances.num_qubits() {
            self.head.resize(distances.num_qubits(), NO_SLOT);
        }
        self.next.clear();
        self.next.resize(2 * self.pairs.len(), NO_SLOT);
        for (gate, &(a, b)) in self.pairs.iter().enumerate() {
            for (side, p) in [a, b].into_iter().enumerate() {
                let slot = (2 * gate + side) as u32;
                self.next[slot as usize] = self.head[p as usize];
                self.head[p as usize] = slot;
            }
        }
        self.base = self
            .pairs
            .iter()
            .map(|&(a, b)| distances.weight(a as usize, b as usize))
            .sum();
    }

    /// The layer's summed distance after a SWAP on `(p1, p2)`.
    ///
    /// Delta mode: the base sum with each gate on `p1` or `p2` repriced —
    /// its old distance subtracted, its new one added — once per gate, even
    /// when gates share a qubit or one gate sits on both. Every weight is a
    /// small integer there, so the result equals the ordered rescan's
    /// exactly. Otherwise: the ordered rescan itself.
    fn distance_after_swap(&self, distances: &DistanceMatrix, p1: u32, p2: u32) -> f64 {
        let weight_after =
            |(a, b): (u32, u32)| distances.weight(after_swap(a, p1, p2), after_swap(b, p1, p2));
        if !self.indexed {
            return self.pairs.iter().map(|&pair| weight_after(pair)).sum();
        }
        let mut sum = self.base;
        for qubit in [p1, p2] {
            let mut slot = self.head[qubit as usize];
            while slot != NO_SLOT {
                let (a, b) = self.pairs[slot as usize / 2];
                // A gate on both swapped qubits is on `p1`'s list too;
                // reprice it there only. (A gate's two qubits are distinct.)
                if qubit == p1 || (a != p1 && b != p1) {
                    sum = sum - distances.weight(a as usize, b as usize) + weight_after((a, b));
                }
                slot = self.next[slot as usize];
            }
        }
        sum
    }
}

/// Per-step cache of the front/extended layers' *physical* endpoints, their
/// distance sums and a per-qubit gate index.
///
/// Candidate scoring asks for the front and extended distance after a
/// hypothetical SWAP, for every candidate. Resolving each gate's logical
/// qubits through the layout once per step (instead of once per candidate)
/// lets [`RoutingContext::front_distance_after_swap`] answer without a
/// layout clone, DAG chasing or allocation; on
/// [integer-weight](DistanceMatrix::integral_weights) matrices it also
/// reprices only the gates on the swapped qubits (see the
/// [module docs](self)). The layers may share qubits, within and across
/// each other.
#[derive(Debug, Default)]
pub struct StepEndpoints {
    front: LayerEndpoints,
    extended: LayerEndpoints,
}

impl StepEndpoints {
    /// An empty cache (fill it with [`prepare`](Self::prepare)).
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolves the physical endpoint pairs of `front` and `extended` under
    /// `layout` and indexes them for pricing against `distances` (which
    /// must be the matrix of the [`RoutingContext`] built over this cache),
    /// reusing the internal buffers.
    pub fn prepare(
        &mut self,
        dag: &DagCircuit,
        front: &[usize],
        extended: &[usize],
        layout: &Layout,
        distances: &DistanceMatrix,
    ) {
        let resolve = |node: &usize| {
            let inst = &dag.node(*node).instruction;
            (
                layout.physical_of(inst.qubit(0)) as u32,
                layout.physical_of(inst.qubit(1)) as u32,
            )
        };
        self.front.prepare(front.iter().map(resolve), distances);
        self.extended
            .prepare(extended.iter().map(resolve), distances);
    }
}

/// The physical qubit `p` maps to after a SWAP on `(p1, p2)`.
#[inline]
fn after_swap(p: u32, p1: u32, p2: u32) -> usize {
    if p == p1 {
        p2 as usize
    } else if p == p2 {
        p1 as usize
    } else {
        p as usize
    }
}

/// Read-only view of the router's state handed to a [`SwapPolicy`] when
/// scoring a SWAP candidate.
#[derive(Debug)]
pub struct RoutingContext<'a> {
    /// The device connectivity.
    pub coupling: &'a CouplingMap,
    /// The distance matrix used by the heuristic (plain or noise-aware).
    pub distances: &'a DistanceMatrix,
    /// The current logical→physical layout (before the candidate SWAP).
    pub layout: &'a Layout,
    /// DAG node ids of the unroutable two-qubit gates in the front layer.
    pub front: &'a [usize],
    /// DAG node ids of the lookahead (extended) layer.
    pub extended: &'a [usize],
    /// The logical circuit's dependency DAG.
    pub dag: &'a DagCircuit,
    /// The physical circuit emitted so far (resolved gates and earlier
    /// SWAPs), with its per-qubit touch index for windowed queries.
    pub state: &'a RoutingState,
    /// The heuristic configuration.
    pub config: &'a SabreConfig,
    endpoints: &'a StepEndpoints,
}

impl<'a> RoutingContext<'a> {
    /// Builds a context over an explicitly prepared [`StepEndpoints`]
    /// (`endpoints.prepare` must have been called with the same
    /// `front`/`extended`/`layout`/`distances`). The router does this once
    /// per step; exposed so tests and embedders can score candidates
    /// directly.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        coupling: &'a CouplingMap,
        distances: &'a DistanceMatrix,
        layout: &'a Layout,
        front: &'a [usize],
        extended: &'a [usize],
        dag: &'a DagCircuit,
        state: &'a RoutingState,
        config: &'a SabreConfig,
        endpoints: &'a StepEndpoints,
    ) -> Self {
        Self {
            coupling,
            distances,
            layout,
            front,
            extended,
            dag,
            state,
            config,
            endpoints,
        }
    }

    /// The output circuit emitted so far.
    pub fn output(&self) -> &QuantumCircuit {
        self.state.circuit()
    }

    /// The summed front-layer distance under a layout (reference path; the
    /// score path uses [`front_distance_after_swap`](Self::front_distance_after_swap)).
    pub fn front_distance(&self, layout: &Layout) -> f64 {
        self.front
            .iter()
            .map(|&node| {
                let inst = &self.dag.node(node).instruction;
                let a = layout.physical_of(inst.qubit(0));
                let b = layout.physical_of(inst.qubit(1));
                self.distances.weight(a, b)
            })
            .sum()
    }

    /// The summed extended-layer distance under a layout (reference path).
    pub fn extended_distance(&self, layout: &Layout) -> f64 {
        self.extended
            .iter()
            .map(|&node| {
                let inst = &self.dag.node(node).instruction;
                let a = layout.physical_of(inst.qubit(0));
                let b = layout.physical_of(inst.qubit(1));
                self.distances.weight(a, b)
            })
            .sum()
    }

    /// The layout obtained by applying the candidate SWAP (reference path —
    /// the score path never clones a layout).
    pub fn layout_after_swap(&self, p1: usize, p2: usize) -> Layout {
        let mut trial = self.layout.clone();
        trial.swap_physical(p1, p2);
        trial
    }

    /// The summed front-layer distance after a SWAP on `(p1, p2)`,
    /// bit-identical to `front_distance(&layout_after_swap(p1, p2))` with
    /// zero clones and zero allocation.
    ///
    /// On an [integer-weight](DistanceMatrix::integral_weights) matrix this
    /// is the step's base sum with only the gates on `p1` or `p2` repriced;
    /// otherwise it rescans the layer in order, which is the only bit-exact
    /// way to sum fractional or infinite weights.
    pub fn front_distance_after_swap(&self, p1: usize, p2: usize) -> f64 {
        self.endpoints
            .front
            .distance_after_swap(self.distances, p1 as u32, p2 as u32)
    }

    /// The summed extended-layer distance after a SWAP on `(p1, p2)` (see
    /// [`front_distance_after_swap`](Self::front_distance_after_swap)).
    pub fn extended_distance_after_swap(&self, p1: usize, p2: usize) -> f64 {
        self.endpoints
            .extended
            .distance_after_swap(self.distances, p1 as u32, p2 as u32)
    }

    /// SABRE's lookahead distance term: normalised front-layer distance plus
    /// the weighted, normalised extended-layer distance, evaluated after the
    /// candidate SWAP.
    pub fn lookahead_cost(&self, p1: usize, p2: usize) -> f64 {
        let front_len = self.front.len().max(1) as f64;
        let front_term = self.front_distance_after_swap(p1, p2) / front_len;
        let extended_term = if self.extended.is_empty() {
            0.0
        } else {
            self.config.extended_set_weight * self.extended_distance_after_swap(p1, p2)
                / self.extended.len() as f64
        };
        front_term + extended_term
    }
}

/// Scoring hook for SWAP candidates plus emission callbacks.
///
/// Lower scores are better. The engine multiplies the returned score by the
/// SABRE decay factor of the two physical qubits before comparing.
///
/// [`score`](Self::score) takes `&self` — a score must be a pure function of
/// the context and the candidate, so it does not matter how often or in
/// which order the engine asks (it scores every candidate of a step, in
/// shuffled order, before emitting anything). Mutable state belongs in the
/// emission hooks, which run exactly once per inserted SWAP.
pub trait SwapPolicy {
    /// Scores the SWAP on physical qubits `(p1, p2)`.
    fn score(&self, ctx: &RoutingContext<'_>, p1: usize, p2: usize) -> f64;

    /// Called just before the SWAP instruction is appended to the output,
    /// allowing the policy to rearrange trailing gates (NASSC moves
    /// single-qubit gates through the SWAP here). Mutations must go through
    /// [`RoutingState::push`]/[`RoutingState::pop`] so the touch index stays
    /// exact.
    fn before_swap_emit(
        &mut self,
        _output: &mut RoutingState,
        _layout: &Layout,
        _p1: usize,
        _p2: usize,
    ) {
    }

    /// Called after the SWAP has been appended at `swap_index`. The output
    /// is mutable so policies can re-append gates they detached in
    /// [`SwapPolicy::before_swap_emit`] (e.g. single-qubit gates commuted
    /// through the SWAP).
    fn after_swap_emit(
        &mut self,
        _output: &mut RoutingState,
        _swap_index: usize,
        _p1: usize,
        _p2: usize,
    ) {
    }
}

/// The plain SABRE heuristic: front-layer distance with extended-layer
/// lookahead (Li et al., ASPLOS 2019) — the paper's baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct SabrePolicy;

impl SwapPolicy for SabrePolicy {
    fn score(&self, ctx: &RoutingContext<'_>, p1: usize, p2: usize) -> f64 {
        ctx.lookahead_cost(p1, p2)
    }
}

/// The product of routing a circuit onto a device.
#[derive(Debug, Clone)]
pub struct RoutingResult {
    /// The physical circuit: resolved gates plus inserted SWAPs (kept as
    /// `swap` instructions so later passes can decompose them as they wish).
    pub circuit: QuantumCircuit,
    /// The layout in force before the first gate.
    pub initial_layout: Layout,
    /// The layout in force after the last gate (differs from the initial one
    /// by the net effect of the inserted SWAPs).
    pub final_layout: Layout,
    /// Number of SWAP gates inserted.
    pub swap_count: usize,
}

/// Routes a logical circuit with the given SWAP policy.
///
/// Every gate of the output acts on physical qubits and every two-qubit gate
/// respects the coupling map (inserted SWAPs included).
///
/// # Panics
///
/// Panics when the device is smaller than the circuit, the coupling graph is
/// disconnected, or routing fails to make progress (which would indicate an
/// internal bug).
pub fn route_with_policy<P: SwapPolicy>(
    circuit: &QuantumCircuit,
    coupling: &CouplingMap,
    distances: &DistanceMatrix,
    initial_layout: &Layout,
    config: &SabreConfig,
    policy: &mut P,
    rng: &mut StdRng,
) -> RoutingResult {
    let dag = DagCircuit::from_circuit(circuit);
    route_prepared_budgeted(
        &dag,
        coupling,
        distances,
        initial_layout,
        config,
        policy,
        rng,
        &ThreadPool::new(1),
        &Budget::unlimited(),
    )
}

/// [`route_with_policy`] over a prebuilt dependency DAG, under a
/// cooperative [`Budget`].
///
/// Layout search routes the same circuit (and its reversal) many times;
/// building the DAG once per circuit instead of once per pass is what this
/// entry point exists for. The routing loop checks the budget once per SWAP
/// step and aborts by unwinding with a typed [`Cancelled`] payload when it
/// is exhausted. The checkpoint is one relaxed atomic load on an unexpired
/// budget, so the routed output — and its cost — is unchanged whenever the
/// budget does not trip.
///
/// `_pool` is unused: candidates are scored serially (see the
/// [module docs](self)). It stays in the signature for existing callers.
///
/// [`Cancelled`]: nassc_parallel::Cancelled
#[allow(clippy::too_many_arguments)]
pub fn route_prepared_budgeted<P: SwapPolicy>(
    dag: &DagCircuit,
    coupling: &CouplingMap,
    distances: &DistanceMatrix,
    initial_layout: &Layout,
    config: &SabreConfig,
    policy: &mut P,
    rng: &mut StdRng,
    _pool: &ThreadPool,
    budget: &Budget,
) -> RoutingResult {
    assert!(
        dag.num_qubits() <= coupling.num_qubits(),
        "circuit needs {} qubits but the device has {}",
        dag.num_qubits(),
        coupling.num_qubits()
    );
    let num_physical = coupling.num_qubits();
    let mut in_deg = dag.in_degrees();
    let mut executed = vec![false; dag.num_nodes()];
    let mut ready: Vec<usize> = dag.front_layer();
    let mut layout = initial_layout.clone();
    let mut state = RoutingState::new(num_physical);
    let mut decay = vec![1.0_f64; num_physical];
    let mut swaps_since_reset = 0usize;
    let mut swap_count = 0usize;
    let mut remaining = dag.num_nodes();

    let max_swaps = 10 + 20 * dag.num_nodes() * num_physical;
    let mut total_swaps_guard = 0usize;

    // Reusable per-step scratch: nothing below allocates after warm-up.
    let mut next_ready: Vec<usize> = Vec::new();
    let mut front: Vec<usize> = Vec::new();
    let mut extended_scratch = ExtendedScratch::new(dag.num_nodes());
    let mut candidates: Vec<(usize, usize)> = Vec::new();
    let mut edge_seen = vec![false; num_physical * num_physical];
    let mut endpoints = StepEndpoints::new();

    // Trace totals, accumulated locally and emitted once per route call:
    // per-step counter events would dominate the enabled-mode overhead on
    // small circuits (and a cancellation unwinds without emitting — the
    // trace of a cancelled route is best-effort).
    let mut trace_steps = 0u64;
    let mut trace_swap_candidates = 0u64;

    while remaining > 0 {
        // A deadline mid-routing aborts here — before the step's scoring,
        // the expensive part — by unwinding with `Cancelled`.
        budget.checkpoint();
        nassc_circuit::failpoints::hit("route_step");

        // Execute everything that fits under the current layout.
        let mut progress = true;
        while progress {
            progress = false;
            next_ready.clear();
            for &node in &ready {
                if executed[node] {
                    continue;
                }
                let inst = &dag.node(node).instruction;
                let runnable = if inst.is_two_qubit() {
                    let a = layout.physical_of(inst.qubit(0));
                    let b = layout.physical_of(inst.qubit(1));
                    coupling.are_connected(a, b)
                } else {
                    true
                };
                if runnable {
                    state.push(inst.map_qubits(|q| layout.physical_of(q)));
                    executed[node] = true;
                    remaining -= 1;
                    progress = true;
                    for &succ in dag.node(node).successors() {
                        in_deg[succ] -= 1;
                        if in_deg[succ] == 0 {
                            next_ready.push(succ);
                        }
                    }
                } else {
                    next_ready.push(node);
                }
            }
            std::mem::swap(&mut ready, &mut next_ready);
            ready.sort_unstable();
            ready.dedup();
        }
        if remaining == 0 {
            break;
        }

        // The remaining ready gates are two-qubit gates that need SWAPs.
        front.clear();
        front.extend(
            ready
                .iter()
                .copied()
                .filter(|&n| !executed[n] && dag.node(n).instruction.is_two_qubit()),
        );
        assert!(
            !front.is_empty(),
            "routing stalled: unresolved gates remain but the front layer is empty"
        );
        let extended = collect_extended_set(
            dag,
            &front,
            &executed,
            config.extended_set_size,
            &mut extended_scratch,
        );

        // Candidate SWAPs: every coupling edge incident to a front-layer
        // qubit, deduplicated through a per-edge bitset (insertion order is
        // preserved, so the shuffle below sees the same vector as ever).
        candidates.clear();
        for &node in &front {
            for logical in dag.node(node).instruction.qubits().iter() {
                let p = layout.physical_of(logical);
                for &n in coupling.neighbors(p) {
                    let edge = (p.min(n), p.max(n));
                    let slot = edge.0 * num_physical + edge.1;
                    if !edge_seen[slot] {
                        edge_seen[slot] = true;
                        candidates.push(edge);
                    }
                }
            }
        }
        for &(a, b) in &candidates {
            edge_seen[a * num_physical + b] = false;
        }
        candidates.shuffle(rng);
        trace_steps += 1;
        trace_swap_candidates += candidates.len() as u64;

        endpoints.prepare(dag, &front, extended, &layout, distances);
        let ctx = RoutingContext::new(
            coupling, distances, &layout, &front, extended, dag, &state, config, &endpoints,
        );
        // Argmin in shuffled candidate order: ties keep the first minimum.
        let mut best: Option<((usize, usize), f64)> = None;
        for &(p1, p2) in &candidates {
            let score = policy.score(&ctx, p1, p2) * decay[p1].max(decay[p2]);
            if best.is_none_or(|(_, b)| score < b) {
                best = Some(((p1, p2), score));
            }
        }
        let ((p1, p2), _) = best.expect("at least one SWAP candidate");

        policy.before_swap_emit(&mut state, &layout, p1, p2);
        state.push(nassc_circuit::Instruction::new(Gate::Swap, [p1, p2]));
        let swap_index = state.num_gates() - 1;
        policy.after_swap_emit(&mut state, swap_index, p1, p2);
        layout.swap_physical(p1, p2);
        swap_count += 1;
        total_swaps_guard += 1;
        assert!(
            total_swaps_guard <= max_swaps,
            "routing exceeded the SWAP budget; the coupling graph may be disconnected"
        );
        decay[p1] += config.decay_delta;
        decay[p2] += config.decay_delta;
        swaps_since_reset += 1;
        if swaps_since_reset >= config.decay_reset_interval {
            decay.iter_mut().for_each(|d| *d = 1.0);
            swaps_since_reset = 0;
        }
    }

    nassc_trace::counter("route.steps", trace_steps);
    nassc_trace::counter("route.swap_candidates", trace_swap_candidates);

    RoutingResult {
        circuit: state.into_circuit(),
        initial_layout: initial_layout.clone(),
        final_layout: layout,
        swap_count,
    }
}

/// Routes with the plain SABRE heuristic.
pub fn sabre_route(
    circuit: &QuantumCircuit,
    coupling: &CouplingMap,
    distances: &DistanceMatrix,
    initial_layout: &Layout,
    config: &SabreConfig,
    rng: &mut StdRng,
) -> RoutingResult {
    route_with_policy(
        circuit,
        coupling,
        distances,
        initial_layout,
        config,
        &mut SabrePolicy,
        rng,
    )
}

/// Reusable buffers for [`collect_extended_set`]: the BFS queue, the visited
/// bitmap (cleared via the touched list, so a step costs O(visited) rather
/// than O(nodes)) and the output vector.
struct ExtendedScratch {
    queue: VecDeque<usize>,
    seen: Vec<bool>,
    seen_touched: Vec<usize>,
    extended: Vec<usize>,
}

impl ExtendedScratch {
    fn new(num_nodes: usize) -> Self {
        Self {
            queue: VecDeque::new(),
            seen: vec![false; num_nodes],
            seen_touched: Vec::new(),
            extended: Vec::new(),
        }
    }
}

/// Collects up to `limit` not-yet-executed two-qubit gates reachable from the
/// front layer — the lookahead (extended) layer. Returns a slice into the
/// scratch's output buffer.
fn collect_extended_set<'s>(
    dag: &DagCircuit,
    front: &[usize],
    executed: &[bool],
    limit: usize,
    scratch: &'s mut ExtendedScratch,
) -> &'s [usize] {
    for node in scratch.seen_touched.drain(..) {
        scratch.seen[node] = false;
    }
    scratch.queue.clear();
    scratch.extended.clear();
    for &node in front {
        if !scratch.seen[node] {
            scratch.seen[node] = true;
            scratch.seen_touched.push(node);
        }
        scratch.queue.push_back(node);
    }
    while let Some(node) = scratch.queue.pop_front() {
        if scratch.extended.len() >= limit {
            break;
        }
        for &succ in dag.node(node).successors() {
            if !scratch.seen[succ] {
                scratch.seen[succ] = true;
                scratch.seen_touched.push(succ);
                if !executed[succ] {
                    if dag.node(succ).instruction.is_two_qubit() {
                        scratch.extended.push(succ);
                        if scratch.extended.len() >= limit {
                            break;
                        }
                    }
                    scratch.queue.push_back(succ);
                }
            }
        }
    }
    &scratch.extended
}

/// Returns a uniformly random tie-broken integer in `0..n` (helper for
/// policies that need reproducible randomness).
pub fn random_index(rng: &mut StdRng, n: usize) -> usize {
    rng.gen_range(0..n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nassc_circuit::circuits_equivalent_up_to_permutation;
    use nassc_passes::is_mapped;
    use rand::SeedableRng;

    fn route(circuit: &QuantumCircuit, coupling: &CouplingMap, seed: u64) -> RoutingResult {
        let config = SabreConfig::with_seed(seed);
        let distances = coupling.distance_matrix();
        let layout = Layout::trivial(coupling.num_qubits());
        let mut rng = StdRng::seed_from_u64(seed);
        sabre_route(circuit, coupling, &distances, &layout, &config, &mut rng)
    }

    /// Expands SWAPs so the equivalence checker sees plain unitaries and
    /// verifies the routed circuit implements the original (up to the final
    /// qubit permutation induced by the SWAPs and layout).
    fn assert_routing_preserves_semantics(original: &QuantumCircuit, result: &RoutingResult) {
        // Embed the original on the device width with the initial layout.
        let device_width = result.circuit.num_qubits();
        let embedded = original.map_qubits(device_width, |q| result.initial_layout.physical_of(q));
        let perm = result.initial_layout.permutation_to(&result.final_layout);
        // The routed circuit applies: initial-embedding followed by extra
        // SWAPs, so original ∘ permutation == routed.
        assert!(
            circuits_equivalent_up_to_permutation(&embedded, &result.circuit, &perm, 1e-7),
            "routing changed circuit semantics"
        );
    }

    #[test]
    fn already_mapped_circuit_needs_no_swaps() {
        let line = CouplingMap::linear(3);
        let mut qc = QuantumCircuit::new(3);
        qc.h(0).cx(0, 1).cx(1, 2);
        let result = route(&qc, &line, 1);
        assert_eq!(result.swap_count, 0);
        assert_eq!(result.circuit.num_gates(), 3);
    }

    #[test]
    fn routes_distant_cnot_on_a_line() {
        let line = CouplingMap::linear(4);
        let mut qc = QuantumCircuit::new(4);
        qc.cx(0, 3);
        let result = route(&qc, &line, 3);
        assert!(result.swap_count >= 2);
        assert!(is_mapped(&result.circuit, &line));
        assert_routing_preserves_semantics(&qc, &result);
    }

    #[test]
    fn figure1_linear_example_routes_with_one_swap() {
        // The paper's Figure 1: gates on (1,2), (0,1), (0,2) on a 3-qubit line.
        let line = CouplingMap::linear(3);
        let mut qc = QuantumCircuit::new(3);
        qc.cx(1, 2).cx(0, 1).cx(0, 2);
        let result = route(&qc, &line, 5);
        assert_eq!(result.swap_count, 1);
        assert!(is_mapped(&result.circuit, &line));
        assert_routing_preserves_semantics(&qc, &result);
    }

    #[test]
    fn routing_preserves_semantics_on_random_circuits() {
        use rand::Rng;
        let grid = CouplingMap::grid(2, 3);
        let mut rng = StdRng::seed_from_u64(11);
        for trial in 0..10 {
            let mut qc = QuantumCircuit::new(5);
            for _ in 0..15 {
                let a = rng.gen_range(0..5);
                let b = (a + rng.gen_range(1..5)) % 5;
                if rng.gen_bool(0.3) {
                    qc.h(a);
                } else {
                    qc.cx(a, b);
                }
            }
            let result = route(&qc, &grid, trial as u64);
            assert!(
                is_mapped(&result.circuit, &grid),
                "trial {trial} not mapped"
            );
            assert_routing_preserves_semantics(&qc, &result);
        }
    }

    #[test]
    fn measurements_are_mapped_to_physical_qubits() {
        let line = CouplingMap::linear(3);
        let mut qc = QuantumCircuit::new(2);
        qc.cx(0, 1).measure(0).measure(1);
        let mut layout = Layout::trivial(3);
        layout.swap_physical(0, 2);
        let config = SabreConfig::default();
        let distances = line.distance_matrix();
        let mut rng = StdRng::seed_from_u64(0);
        let result = sabre_route(&qc, &line, &distances, &layout, &config, &mut rng);
        let measures: Vec<_> = result
            .circuit
            .iter()
            .filter(|i| i.gate == Gate::Measure)
            .map(|i| i.qubit(0))
            .collect();
        assert_eq!(measures.len(), 2);
        assert!(measures.contains(&2) || measures.contains(&1));
    }

    #[test]
    fn extended_set_respects_limit() {
        let mut qc = QuantumCircuit::new(6);
        for i in 0..5 {
            qc.cx(i, i + 1);
        }
        let dag = DagCircuit::from_circuit(&qc);
        let executed = vec![false; dag.num_nodes()];
        let mut scratch = ExtendedScratch::new(dag.num_nodes());
        let extended = collect_extended_set(&dag, &[0], &executed, 2, &mut scratch);
        assert!(extended.len() <= 2);
    }
}
