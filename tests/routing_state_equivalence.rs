//! The incremental-routing-state contract: the windowed per-qubit touch
//! index and the delta-priced (base-sum, zero-clone) scoring helpers agree
//! *exactly* — same booleans, same float bits — with the full-recompute
//! reference implementations, on random circuits, random push/pop
//! histories, every qubit pair, and hop-count, asymmetric integer,
//! noise-aware (fractional) and disconnected (∞) distance matrices.
//! `SabrePolicy` routes exactly like a scorer that clones the layout per
//! candidate, and `NasscPolicy`'s memoized `C_2q` routes exactly like an
//! unmemoized scorer.

use proptest::prelude::*;

use nassc::circuit::{DagCircuit, Gate, Instruction, QuantumCircuit};
use nassc::sabre::{
    route_with_policy, RoutingContext, RoutingResult, RoutingState, SabreConfig, SabrePolicy,
    StepEndpoints, SwapPolicy,
};
use nassc::{
    evaluate_swap_reduction, evaluate_swap_reduction_windowed, NasscPolicy, OptimizationFlags,
};
use nassc_topology::{
    noise_aware_distance, Calibration, CouplingMap, DistanceMatrix, Layout, NoiseAwareAlphas,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const WIDTH: usize = 5;

/// Decodes simple proptest primitives into a physical-circuit instruction
/// stream (the gate mix routing actually emits: 1q unitaries, CNOTs, SWAPs
/// and measurements) plus "pop" events exercising the un-index path.
fn build_state(ops: &[(u8, usize, usize, f64)]) -> RoutingState {
    let mut state = RoutingState::new(WIDTH);
    for &(kind, a, b, angle) in ops {
        let a = a % WIDTH;
        let b = b % WIDTH;
        match kind % 8 {
            0 => state.push(Instruction::new(Gate::Rz(angle), vec![a])),
            1 => state.push(Instruction::new(Gate::Sx, vec![a])),
            2 => state.push(Instruction::new(Gate::U(angle, 0.2, 0.7), vec![a])),
            3 => state.push(Instruction::new(Gate::Measure, vec![a])),
            4 | 5 => {
                if a != b {
                    state.push(Instruction::new(Gate::Cx, vec![a, b]));
                }
            }
            6 => {
                if a != b {
                    state.push(Instruction::new(Gate::Swap, vec![a, b]));
                }
            }
            _ => {
                state.pop();
            }
        }
    }
    state
}

/// The reference window: a full backwards scan of the output circuit.
fn reference_window(circuit: &QuantumCircuit, p1: usize, p2: usize, limit: usize) -> Vec<u32> {
    circuit
        .iter()
        .enumerate()
        .rev()
        .filter(|(_, inst)| inst.acts_on(p1) || inst.acts_on(p2))
        .take(limit)
        .map(|(idx, _)| idx as u32)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `RoutingState::rev_touching_window` equals the full backwards scan
    /// for every pair and several window limits, after arbitrary push/pop
    /// histories.
    #[test]
    fn touch_windows_match_full_scans(
        ops in proptest::collection::vec((any::<u8>(), 0usize..WIDTH, 0usize..WIDTH, -3.0f64..3.0), 0..60),
    ) {
        let state = build_state(&ops);
        let rebuilt = RoutingState::from_circuit(state.circuit().clone());
        prop_assert_eq!(&state, &rebuilt, "push/pop history desynced the index");
        let mut buf = [0u32; 32];
        for p1 in 0..WIDTH {
            for p2 in 0..WIDTH {
                if p1 == p2 {
                    continue;
                }
                for limit in [1usize, 3, 20, 32] {
                    let n = state.rev_touching_window(p1, p2, &mut buf[..limit]);
                    let expect = reference_window(state.circuit(), p1, p2, limit);
                    prop_assert_eq!(&buf[..n], &expect[..], "pair ({}, {}) limit {}", p1, p2, limit);
                }
            }
        }
    }

    /// The windowed Eq. 2 reduction terms equal the full-recompute reference
    /// — gains, orientations and sandwich partners — for every pair and
    /// every flag combination.
    #[test]
    fn windowed_swap_reductions_match_reference(
        ops in proptest::collection::vec((any::<u8>(), 0usize..WIDTH, 0usize..WIDTH, -3.0f64..3.0), 0..50),
    ) {
        let state = build_state(&ops);
        for flags in OptimizationFlags::all_combinations() {
            for p1 in 0..WIDTH {
                for p2 in 0..WIDTH {
                    if p1 == p2 {
                        continue;
                    }
                    let fast = evaluate_swap_reduction_windowed(&state, p1, p2, &flags);
                    let reference = evaluate_swap_reduction(state.circuit(), p1, p2, &flags);
                    prop_assert_eq!(
                        fast, reference,
                        "pair ({}, {}) flags {}", p1, p2, flags.label()
                    );
                }
            }
        }
    }

    /// The zero-clone after-swap distances equal (bitwise) the reference
    /// clone-the-layout-and-resum path, for every candidate pair.
    #[test]
    fn after_swap_distances_match_layout_clones(
        ops in proptest::collection::vec((4u8..6, 0usize..WIDTH, 0usize..WIDTH, 0.0f64..1.0), 1..25),
        layout_seed in 0u64..1000,
    ) {
        // A logical circuit of CNOTs; its 2q nodes provide front/extended layers.
        let mut qc = QuantumCircuit::new(WIDTH);
        for &(_, a, b, _) in &ops {
            let (a, b) = (a % WIDTH, b % WIDTH);
            if a != b {
                qc.cx(a, b);
            }
        }
        if qc.is_empty() {
            qc.cx(0, 1); // every case needs at least one 2q node
        }
        let dag = DagCircuit::from_circuit(&qc);
        let nodes: Vec<usize> = (0..dag.num_nodes()).collect();
        let (front, extended) = nodes.split_at(nodes.len().div_ceil(2));

        let device = CouplingMap::linear(WIDTH);
        let distances = device.distance_matrix();
        let layout = Layout::random(WIDTH, &mut StdRng::seed_from_u64(layout_seed));
        let config = SabreConfig::default();
        let state = RoutingState::new(WIDTH);
        let mut endpoints = StepEndpoints::new();
        endpoints.prepare(&dag, front, extended, &layout, &distances);
        let ctx = RoutingContext::new(
            &device, &distances, &layout, front, extended, &dag, &state, &config, &endpoints,
        );
        for p1 in 0..WIDTH {
            for p2 in 0..WIDTH {
                if p1 == p2 {
                    continue;
                }
                let trial = ctx.layout_after_swap(p1, p2);
                // Bitwise equality: same gates, same summation order.
                prop_assert_eq!(
                    ctx.front_distance_after_swap(p1, p2).to_bits(),
                    ctx.front_distance(&trial).to_bits()
                );
                prop_assert_eq!(
                    ctx.extended_distance_after_swap(p1, p2).to_bits(),
                    ctx.extended_distance(&trial).to_bits()
                );
            }
        }
    }
}

/// Checks, bitwise and for every candidate pair, that the after-swap
/// distances priced from `distances` equal the clone-the-layout-and-resum
/// reference. `ops` builds a logical CNOT circuit whose DAG nodes are split
/// into a front and an extended layer that may share qubits.
fn check_after_swap_distances(
    ops: &[(u8, usize, usize, f64)],
    layout_seed: u64,
    device: &CouplingMap,
    distances: &DistanceMatrix,
) {
    let mut qc = QuantumCircuit::new(WIDTH);
    for &(_, a, b, _) in ops {
        let (a, b) = (a % WIDTH, b % WIDTH);
        if a != b {
            qc.cx(a, b);
        }
    }
    if qc.is_empty() {
        qc.cx(0, 1);
    }
    let dag = DagCircuit::from_circuit(&qc);
    let nodes: Vec<usize> = (0..dag.num_nodes()).collect();
    let (front, extended) = nodes.split_at(nodes.len().div_ceil(2));
    let layout = Layout::random(WIDTH, &mut StdRng::seed_from_u64(layout_seed));
    let config = SabreConfig::default();
    let state = RoutingState::new(WIDTH);
    let mut endpoints = StepEndpoints::new();
    endpoints.prepare(&dag, front, extended, &layout, distances);
    let ctx = RoutingContext::new(
        device, distances, &layout, front, extended, &dag, &state, &config, &endpoints,
    );
    for p1 in 0..WIDTH {
        for p2 in 0..WIDTH {
            if p1 == p2 {
                continue;
            }
            let trial = ctx.layout_after_swap(p1, p2);
            assert_eq!(
                ctx.front_distance_after_swap(p1, p2).to_bits(),
                ctx.front_distance(&trial).to_bits(),
                "front, swap ({p1}, {p2})"
            );
            assert_eq!(
                ctx.extended_distance_after_swap(p1, p2).to_bits(),
                ctx.extended_distance(&trial).to_bits(),
                "extended, swap ({p1}, {p2})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The after-swap distances stay bitwise exact on a noise-aware
    /// matrix, whose fractional weights rule out delta pricing.
    #[test]
    fn after_swap_distances_match_layout_clones_on_calibrated_weights(
        ops in proptest::collection::vec((4u8..6, 0usize..WIDTH, 0usize..WIDTH, 0.0f64..1.0), 1..25),
        layout_seed in 0u64..1000,
        calibration_seed in 0u64..1000,
    ) {
        let device = CouplingMap::linear(WIDTH);
        let calibration = Calibration::synthetic(&device, calibration_seed);
        let distances = noise_aware_distance(&device, &calibration, NoiseAwareAlphas::default());
        prop_assert!(!distances.integral_weights());
        check_after_swap_distances(&ops, layout_seed, &device, &distances);
    }

    /// Delta pricing stays bitwise exact on an asymmetric integer matrix,
    /// where a gate on both swapped qubits changes weight (`w(a, b)` to
    /// `w(b, a)`) and must be repriced exactly once.
    #[test]
    fn after_swap_distances_match_layout_clones_on_asymmetric_integer_weights(
        ops in proptest::collection::vec((4u8..6, 0usize..WIDTH, 0usize..WIDTH, 0.0f64..1.0), 1..25),
        layout_seed in 0u64..1000,
    ) {
        let device = CouplingMap::linear(WIDTH);
        let hops = device.distance_matrix();
        let weights = (0..WIDTH * WIDTH)
            .map(|i| {
                let (a, b) = (i / WIDTH, i % WIDTH);
                (2 * hops.hops(a, b) + usize::from(a < b)) as f64
            })
            .collect();
        let distances = DistanceMatrix::from_weights(WIDTH, weights);
        prop_assert!(distances.integral_weights());
        check_after_swap_distances(&ops, layout_seed, &device, &distances);
    }

    /// The after-swap distances stay bitwise exact on a disconnected
    /// device, whose unreachable pairs weigh ∞.
    #[test]
    fn after_swap_distances_match_layout_clones_on_disconnected_devices(
        ops in proptest::collection::vec((4u8..6, 0usize..WIDTH, 0usize..WIDTH, 0.0f64..1.0), 1..25),
        layout_seed in 0u64..1000,
    ) {
        let device = CouplingMap::new(WIDTH, &[(0, 1), (1, 2), (3, 4)]);
        let distances = device.distance_matrix();
        prop_assert!(!distances.integral_weights());
        check_after_swap_distances(&ops, layout_seed, &device, &distances);
    }
}

/// Plain SABRE scored the reference way: clone the layout per candidate
/// and rescan both layers, instead of pricing the SWAP against the step's
/// base sums.
struct ReferenceSabre;

impl SwapPolicy for ReferenceSabre {
    fn score(&self, ctx: &RoutingContext<'_>, p1: usize, p2: usize) -> f64 {
        let trial = ctx.layout_after_swap(p1, p2);
        let front_term = ctx.front_distance(&trial) / ctx.front.len().max(1) as f64;
        let extended_term = if ctx.extended.is_empty() {
            0.0
        } else {
            ctx.config.extended_set_weight * ctx.extended_distance(&trial)
                / ctx.extended.len() as f64
        };
        front_term + extended_term
    }
}

/// `SabrePolicy`, which prices candidates by delta on these integer-weight
/// matrices, routes exactly like the clone-and-rescan `ReferenceSabre`:
/// same circuit, final layout and SWAP count.
#[test]
fn delta_priced_sabre_routes_like_the_rescanning_reference() {
    for (name, device) in differential_devices() {
        assert!(device.distance_matrix().integral_weights(), "{name}");
        for seed in 0..4u64 {
            let qc = random_logical_circuit(device.num_qubits().min(9), 80, seed);
            let fast = route(&qc, &device, seed, &mut SabrePolicy);
            let slow = route(&qc, &device, seed, &mut ReferenceSabre);
            let label = format!("{name} seed {seed}");
            assert!(fast.swap_count > 0, "{label}: no SWAP step exercised");
            assert_eq!(
                fast.circuit, slow.circuit,
                "{label}: routed circuits differ"
            );
            assert_eq!(
                fast.final_layout, slow.final_layout,
                "{label}: final layouts differ"
            );
            assert_eq!(
                fast.swap_count, slow.swap_count,
                "{label}: SWAP counts differ"
            );
        }
    }
}

/// NASSC's Eq. 2 scored through the public, unmemoized windowed evaluator.
/// The emission hooks (orientations, single-qubit movement) delegate to a
/// `NasscPolicy`, whose hooks never consult its `C_2q` memo.
struct UnmemoizedNassc {
    flags: OptimizationFlags,
    emit: NasscPolicy,
}

impl SwapPolicy for UnmemoizedNassc {
    fn score(&self, ctx: &RoutingContext<'_>, p1: usize, p2: usize) -> f64 {
        let front_len = ctx.front.len().max(1) as f64;
        let reduction = evaluate_swap_reduction_windowed(ctx.state, p1, p2, &self.flags);
        let basic = (3.0 * ctx.front_distance_after_swap(p1, p2) - reduction.total()) / front_len;
        let extended = if ctx.extended.is_empty() {
            0.0
        } else {
            ctx.config.extended_set_weight * ctx.extended_distance_after_swap(p1, p2)
                / ctx.extended.len() as f64
        };
        basic + extended
    }

    fn before_swap_emit(
        &mut self,
        output: &mut RoutingState,
        layout: &Layout,
        p1: usize,
        p2: usize,
    ) {
        self.emit.before_swap_emit(output, layout, p1, p2);
    }

    fn after_swap_emit(
        &mut self,
        output: &mut RoutingState,
        swap_index: usize,
        p1: usize,
        p2: usize,
    ) {
        self.emit.after_swap_emit(output, swap_index, p1, p2);
    }
}

/// A random logical circuit over `width` qubits: CNOTs between random
/// pairs mixed with the 1q gates that form `C_2q` blocks around them.
fn random_logical_circuit(width: usize, gates: usize, seed: u64) -> QuantumCircuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut qc = QuantumCircuit::new(width);
    for _ in 0..gates {
        let a = rng.gen_range(0..width);
        match rng.gen_range(0..6u8) {
            0 => qc.rz(rng.gen_range(-3.0..3.0), a),
            1 => qc.h(a),
            2 => qc.t(a),
            _ => {
                let b = (a + rng.gen_range(1..width)) % width;
                qc.cx(a, b)
            }
        };
    }
    qc
}

fn route<P: SwapPolicy>(
    qc: &QuantumCircuit,
    device: &CouplingMap,
    seed: u64,
    policy: &mut P,
) -> RoutingResult {
    let layout = Layout::random(device.num_qubits(), &mut StdRng::seed_from_u64(seed));
    route_with_policy(
        qc,
        device,
        &device.distance_matrix(),
        &layout,
        &SabreConfig::with_seed(seed),
        policy,
        &mut StdRng::seed_from_u64(seed),
    )
}

fn differential_devices() -> Vec<(&'static str, CouplingMap)> {
    vec![
        ("linear", CouplingMap::linear(7)),
        ("grid", CouplingMap::grid(3, 3)),
        ("heavy-hex", CouplingMap::heavy_hex(3)),
    ]
}

/// The memoized `NasscPolicy` routes exactly like the unmemoized scorer:
/// same circuit, same SWAP count, same recorded orientations, under every
/// flag combination.
#[test]
fn memoized_nassc_routes_like_the_unmemoized_scorer() {
    // The memo reports its traffic through the trace recorder; no other
    // test in this binary records, so its totals show this test's hits.
    nassc::trace::enable();
    for (name, device) in differential_devices() {
        for seed in 0..3u64 {
            let qc = random_logical_circuit(device.num_qubits().min(9), 60, seed);
            for flags in OptimizationFlags::all_combinations() {
                let mut memoized = NasscPolicy::new(flags);
                let mut reference = UnmemoizedNassc {
                    flags,
                    emit: NasscPolicy::new(flags),
                };
                let fast = route(&qc, &device, seed, &mut memoized);
                let slow = route(&qc, &device, seed, &mut reference);
                let label = format!("{name} seed {seed} flags {}", flags.label());
                assert_eq!(
                    fast.circuit, slow.circuit,
                    "{label}: routed circuits differ"
                );
                assert_eq!(
                    fast.swap_count, slow.swap_count,
                    "{label}: SWAP counts differ"
                );
                assert_eq!(
                    memoized.orientations(),
                    reference.emit.orientations(),
                    "{label}: orientations differ"
                );
            }
        }
    }
    let report = nassc::trace::take_report();
    nassc::trace::disable();
    assert!(
        report.counter_total("nassc.c2q_memo.hits") > 0,
        "the memo was never hit"
    );
    assert!(report.counter_total("nassc.c2q_memo.misses") > 0);
}

/// One policy reused for two consecutive routes (its memo still holding
/// the first route's entries) routes the second exactly like a fresh one.
#[test]
fn reused_nassc_policy_routes_like_fresh_policies() {
    for (name, device) in differential_devices() {
        let width = device.num_qubits().min(9);
        let first = random_logical_circuit(width, 60, 11);
        let second = random_logical_circuit(width, 60, 12);
        let mut reused = NasscPolicy::new(OptimizationFlags::all());
        let reused_first = route(&first, &device, 11, &mut reused);
        let reused_second = route(&second, &device, 12, &mut reused);
        let fresh_first = route(&first, &device, 11, &mut NasscPolicy::default());
        let fresh_second = route(&second, &device, 12, &mut NasscPolicy::default());
        for (reused, fresh, which) in [
            (&reused_first, &fresh_first, "first"),
            (&reused_second, &fresh_second, "second"),
        ] {
            assert_eq!(
                reused.circuit, fresh.circuit,
                "{name}: {which} route differs"
            );
            assert_eq!(
                reused.swap_count, fresh.swap_count,
                "{name}: {which} route differs"
            );
        }
    }
}
