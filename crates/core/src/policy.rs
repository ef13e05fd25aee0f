//! The NASSC routing policy: SABRE's traversal with the optimization-aware
//! cost function of Eq. 2 and optimization-aware SWAP decomposition.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

use nassc_circuit::{Gate, Instruction, QuantumCircuit};
use nassc_math::Matrix4;
use nassc_sabre::{RoutingContext, RoutingState, SwapPolicy};
use nassc_synthesis::{swap_decomposition, SwapOrientation};
use nassc_topology::Layout;

use crate::cost::{
    block_unitary_c2q, evaluate_swap_reduction_pricing, evaluate_swap_reduction_windowed,
    OptimizationFlags, SwapReduction,
};

/// NASSC's SWAP-scoring policy.
///
/// The score of a candidate SWAP is the paper's Eq. 2:
///
/// ```text
/// H = (3·Σ_F D − Σ_k b_k·C_k) / |F|  +  W·Σ_E D / |E|
/// ```
///
/// where the `C_k` reductions are evaluated against the already-routed
/// output circuit. Alongside scoring, the policy records the SWAP
/// decomposition orientation each cancellation requires and commutes
/// trailing single-qubit gates through the SWAP (the single-qubit movement
/// of §IV-E).
///
/// Reductions are memoized per qubit pair under the routing state's edit
/// stamps (see the [`cost`](crate::cost) module docs). Scores are exactly
/// those of [`evaluate_swap_reduction_windowed`], and one policy may be
/// reused across routing passes.
#[derive(Debug, Clone, Default)]
pub struct NasscPolicy {
    flags: OptimizationFlags,
    memo: ReductionMemo,
    orientations: HashMap<usize, SwapOrientation>,
    pending_orientation: Option<SwapOrientation>,
    pending_partner: Option<usize>,
    detached_gates: Vec<Instruction>,
}

impl NasscPolicy {
    /// Creates a policy with the given optimization flags.
    pub fn new(flags: OptimizationFlags) -> Self {
        Self {
            flags,
            ..Self::default()
        }
    }

    /// The orientation recorded for the SWAP emitted at `output_index`
    /// (defaults to [`SwapOrientation::FirstQubitControl`] when no
    /// cancellation constrained it).
    pub fn orientation_of(&self, output_index: usize) -> SwapOrientation {
        self.orientations
            .get(&output_index)
            .copied()
            .unwrap_or_default()
    }

    /// All recorded orientations keyed by output instruction index.
    pub fn orientations(&self) -> &HashMap<usize, SwapOrientation> {
        &self.orientations
    }

    /// Expands every `swap` instruction of a routed circuit into three CNOTs
    /// using the orientations this policy recorded during routing.
    pub fn decompose_swaps(&self, routed: &QuantumCircuit) -> QuantumCircuit {
        let mut out = QuantumCircuit::new(routed.num_qubits());
        for (idx, inst) in routed.iter().enumerate() {
            if inst.gate == Gate::Swap {
                let orientation = self.orientation_of(idx);
                for cx in swap_decomposition(inst.qubit(0), inst.qubit(1), orientation) {
                    out.push(cx);
                }
            } else {
                out.push(inst.clone());
            }
        }
        out
    }
}

impl SwapPolicy for NasscPolicy {
    fn score(&self, ctx: &RoutingContext<'_>, p1: usize, p2: usize) -> f64 {
        let front_len = ctx.front.len().max(1) as f64;
        let reduction = self.memo.reduction(ctx.state, p1, p2, &self.flags);
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
        _layout: &Layout,
        p1: usize,
        p2: usize,
    ) {
        // Re-evaluate the winning candidate to fix its decomposition
        // orientation (and its sandwich partner's). Only the commutation
        // terms set those, so `C_2q` is skipped.
        let flags = OptimizationFlags {
            block_resynthesis: false,
            ..self.flags
        };
        let reduction = evaluate_swap_reduction_windowed(output, p1, p2, &flags);
        self.pending_orientation = reduction.orientation;
        self.pending_partner = reduction.partner_swap_index;

        // Single-qubit movement: trailing one-qubit gates on the swapped
        // wires can hop over the SWAP (retargeted to the partner wire), so
        // they no longer block commutation-based cancellation. Detaching
        // goes through `RoutingState::pop`, which keeps the touch index
        // exact without rebuilding the instruction vector.
        self.detached_gates.clear();
        loop {
            let movable = match output.circuit().instructions().last() {
                Some(last) => {
                    last.gate.is_unitary()
                        && last.num_qubits() == 1
                        && (last.qubit(0) == p1 || last.qubit(0) == p2)
                }
                None => false,
            };
            if !movable {
                break;
            }
            let gate = output.pop().expect("checked non-empty");
            let other = if gate.qubit(0) == p1 { p2 } else { p1 };
            self.detached_gates
                .push(Instruction::new(gate.gate, vec![other]));
        }
        self.detached_gates.reverse();
    }

    fn after_swap_emit(
        &mut self,
        output: &mut RoutingState,
        swap_index: usize,
        _p1: usize,
        _p2: usize,
    ) {
        if let Some(orientation) = self.pending_orientation.take() {
            self.orientations.insert(swap_index, orientation);
            if let Some(partner) = self.pending_partner.take() {
                // The sandwich partner's *last* CNOT must match our first:
                // for the symmetric 3-CNOT template that means the same
                // orientation on both SWAPs.
                self.orientations.insert(partner, orientation);
            }
        }
        self.pending_partner = None;
        for inst in self.detached_gates.drain(..) {
            output.push(inst);
        }
    }
}

/// The per-pair memo behind [`NasscPolicy::score`]: for each qubit pair,
/// the reduction last computed for it under the pair's
/// [`RoutingState::stamp`]s, and the last trailing-block unitary priced for
/// it with its `C_2q`.
///
/// A reduction is a function of the instructions touching the pair, and the
/// stamps change on every edit to those and never repeat, so an entry whose
/// stamps match the state's is exact — whatever states, clones or routing
/// passes the memo has seen. On a stamp miss the reduction is recomputed,
/// but a trailing block whose unitary is bit-for-bit the one last priced for
/// the pair (a lone CNOT on it, say) reuses that `C_2q` and skips the two
/// Weyl decompositions: the same input to the same pure function.
///
/// The memo holds at most one entry per pair ever scored (a coupling edge)
/// and allocates only when a pair is first seen. Stamp hits and misses are
/// emitted as the `nassc.c2q_memo.hits`/`.misses` trace counters when the
/// memo is dropped: once per routing pass, since every pipeline pass builds
/// its own policy.
///
/// [`SwapPolicy::score`] takes `&self`, so the table sits behind a `Mutex`.
/// A routing pass scores serially, so the lock is never contended; it keeps
/// `NasscPolicy` `Sync` for callers that share a policy by reference.
#[derive(Debug, Default)]
struct ReductionMemo {
    table: Mutex<MemoTable>,
}

#[derive(Debug, Default)]
struct MemoTable {
    /// Keyed by the `(low, high)` qubit pair.
    entries: HashMap<(usize, usize), MemoEntry>,
    hits: u64,
    misses: u64,
}

#[derive(Debug, Clone, Copy)]
struct MemoEntry {
    /// `(stamp(low), stamp(high))` when `reduction` was computed.
    stamps: (u64, u64),
    reduction: SwapReduction,
    /// The last trailing-block unitary priced for the pair, and its `C_2q`.
    block: Option<(Matrix4, f64)>,
}

impl ReductionMemo {
    /// The reduction of a SWAP on `(p1, p2)` under `flags`: memoized if the
    /// pair is unedited since it was computed, else computed (outside the
    /// lock) and memoized.
    fn reduction(
        &self,
        state: &RoutingState,
        p1: usize,
        p2: usize,
        flags: &OptimizationFlags,
    ) -> SwapReduction {
        let pair = (p1.min(p2), p1.max(p2));
        let stamps = (state.stamp(pair.0), state.stamp(pair.1));
        let mut block = {
            let mut table = self.lock();
            match table.entries.get(&pair) {
                Some(entry) if entry.stamps == stamps => {
                    let reduction = entry.reduction;
                    table.hits += 1;
                    return reduction;
                }
                Some(entry) => entry.block,
                None => None,
            }
        };
        let reduction =
            evaluate_swap_reduction_pricing(state, p1, p2, flags, |unitary| match block {
                Some((priced, c_2q)) if same_bits(&priced, unitary) => c_2q,
                _ => {
                    let c_2q = block_unitary_c2q(unitary);
                    block = Some((*unitary, c_2q));
                    c_2q
                }
            });
        let mut table = self.lock();
        table.misses += 1;
        table.entries.insert(
            pair,
            MemoEntry {
                stamps,
                reduction,
                block,
            },
        );
        reduction
    }

    /// Poison-tolerant: every update under the lock (a counter bump, one
    /// insert) leaves the table valid, so a panicking scorer elsewhere must
    /// not wedge the memo.
    fn lock(&self) -> MutexGuard<'_, MemoTable> {
        self.table.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Bitwise matrix equality: `==` on floats would equate `0.0` and `-0.0`,
/// which the Weyl decomposition need not treat alike.
fn same_bits(a: &Matrix4, b: &Matrix4) -> bool {
    (0..4).all(|r| {
        (0..4).all(|c| {
            let (x, y) = (a.get(r, c), b.get(r, c));
            x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits()
        })
    })
}

impl Clone for ReductionMemo {
    /// A clone starts empty: entries only ever save work.
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl Drop for ReductionMemo {
    fn drop(&mut self) {
        let table = self.table.get_mut().unwrap_or_else(PoisonError::into_inner);
        if table.hits + table.misses > 0 {
            nassc_trace::counter("nassc.c2q_memo.hits", table.hits);
            nassc_trace::counter("nassc.c2q_memo.misses", table.misses);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nassc_circuit::circuits_equivalent;
    use nassc_sabre::{route_with_policy, SabreConfig};
    use nassc_topology::CouplingMap;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn routes_figure1_circuit_with_one_swap() {
        let line = CouplingMap::linear(3);
        let mut qc = QuantumCircuit::new(3);
        qc.cx(1, 2).cx(0, 1).cx(0, 2);
        let mut policy = NasscPolicy::new(OptimizationFlags::all());
        let distances = line.distance_matrix();
        let layout = Layout::trivial(3);
        let config = SabreConfig::with_seed(1);
        let mut rng = StdRng::seed_from_u64(1);
        let result = route_with_policy(
            &qc,
            &line,
            &distances,
            &layout,
            &config,
            &mut policy,
            &mut rng,
        );
        assert_eq!(result.swap_count, 1);
    }

    #[test]
    fn decompose_swaps_preserves_semantics() {
        let grid = CouplingMap::grid(2, 2);
        let mut qc = QuantumCircuit::new(4);
        qc.cx(0, 3).h(1).cx(1, 2).cx(0, 3).cx(2, 3);
        let mut policy = NasscPolicy::new(OptimizationFlags::all());
        let distances = grid.distance_matrix();
        let layout = Layout::trivial(4);
        let config = SabreConfig::with_seed(4);
        let mut rng = StdRng::seed_from_u64(4);
        let result = route_with_policy(
            &qc,
            &grid,
            &distances,
            &layout,
            &config,
            &mut policy,
            &mut rng,
        );
        let decomposed = policy.decompose_swaps(&result.circuit);
        assert_eq!(decomposed.swap_count(), 0);
        assert!(circuits_equivalent(&result.circuit, &decomposed, 1e-8));
    }

    #[test]
    fn orientation_defaults_when_unconstrained() {
        let policy = NasscPolicy::new(OptimizationFlags::all());
        assert_eq!(
            policy.orientation_of(42),
            SwapOrientation::FirstQubitControl
        );
    }

    #[test]
    fn single_qubit_gates_move_through_the_swap() {
        // Manually exercise the emission hooks: a trailing U3 on one of the
        // swapped wires must end up after the SWAP, on the other wire.
        let mut circuit = QuantumCircuit::new(2);
        circuit.cx(0, 1).u(0.1, 0.2, 0.3, 0);
        let before = circuit.clone();
        let mut output = RoutingState::from_circuit(circuit);
        let mut policy = NasscPolicy::new(OptimizationFlags::all());
        let layout = Layout::trivial(2);
        policy.before_swap_emit(&mut output, &layout, 0, 1);
        output.push(Instruction::new(Gate::Swap, vec![0, 1]));
        let swap_index = output.num_gates() - 1;
        policy.after_swap_emit(&mut output, swap_index, 0, 1);
        let output = output.into_circuit();
        // The U3 now sits after the SWAP on wire 1.
        let last = output.instructions().last().unwrap();
        assert_eq!(last.gate.name(), "u");
        assert_eq!(last.qubits().to_vec(), vec![1]);
        // Semantics: original + SWAP == transformed output.
        let mut reference = before;
        reference.swap(0, 1);
        assert!(circuits_equivalent(&reference, &output, 1e-9));
    }

    #[test]
    fn routed_circuits_respect_coupling_and_semantics() {
        use nassc_circuit::circuits_equivalent_up_to_permutation;
        use nassc_passes::is_mapped;
        use rand::Rng;
        let line = CouplingMap::linear(5);
        let distances = line.distance_matrix();
        let mut rng = StdRng::seed_from_u64(33);
        for trial in 0..8 {
            let mut qc = QuantumCircuit::new(5);
            for _ in 0..12 {
                let a = rng.gen_range(0..5);
                let b = (a + rng.gen_range(1..5)) % 5;
                if rng.gen_bool(0.25) {
                    qc.t(a);
                } else {
                    qc.cx(a, b);
                }
            }
            let mut policy = NasscPolicy::new(OptimizationFlags::all());
            let layout = Layout::trivial(5);
            let config = SabreConfig::with_seed(trial);
            let mut route_rng = StdRng::seed_from_u64(trial);
            let result = route_with_policy(
                &qc,
                &line,
                &distances,
                &layout,
                &config,
                &mut policy,
                &mut route_rng,
            );
            assert!(is_mapped(&result.circuit, &line));
            let decomposed = policy.decompose_swaps(&result.circuit);
            assert!(is_mapped(&decomposed, &line));
            let perm = result.initial_layout.permutation_to(&result.final_layout);
            let embedded = qc.map_qubits(5, |q| result.initial_layout.physical_of(q));
            assert!(
                circuits_equivalent_up_to_permutation(&embedded, &decomposed, &perm, 1e-7),
                "trial {trial}: NASSC routing changed semantics"
            );
        }
    }
}
