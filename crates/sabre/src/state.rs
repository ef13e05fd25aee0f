//! Incremental routing state: the output circuit plus per-qubit touch
//! indices, kept in sync under push/pop.
//!
//! Both SABRE's traversal and NASSC's optimization-aware cost (Eq. 2) keep
//! asking the same question about the circuit emitted so far: *which recent
//! instructions touch this physical qubit pair?* Answering it by re-scanning
//! the whole output from the back — what `touching_window`/`trailing_block`
//! used to do — makes every candidate-SWAP score O(output), and the routing
//! pass as a whole quadratic in circuit size.
//!
//! [`RoutingState`] makes the question O(window): alongside the output
//! circuit it maintains, per physical qubit, the ascending list of output
//! indices whose instruction touches that qubit. A pair query then merges the
//! tails of two lists — at most `limit` steps — instead of scanning the
//! circuit. Updates are O(instruction arity): [`RoutingState::push`] appends
//! the new index to each touched qubit's list, [`RoutingState::pop`] removes
//! it again, so policies that detach trailing gates (NASSC's single-qubit
//! movement) keep the index exact without any rebuild.
//!
//! The lists hold *every* touching index, not just the last `W`: a capped
//! ring buffer could not survive [`RoutingState::pop`] (an entry evicted by a
//! push is unrecoverable once the push is popped back off), and the full
//! lists cost the same order of memory as the output circuit itself. Queries
//! stay O(window) either way because they walk the tails only.
//!
//! Every push and pop also gives each qubit it touches a fresh *edit stamp*
//! ([`RoutingState::stamp`]), drawn from one process-wide monotonic counter.
//! A stamp is therefore never handed out twice — not across clones, not
//! across states, not after a pop and a re-push at the same index — so two
//! qubits' stamps name the exact contents of their touch lists, and anything
//! computed from those lists can be memoized under the stamps (NASSC's
//! `C_2q` block cost is).
//!
//! # Example
//!
//! ```
//! use nassc_circuit::{Gate, Instruction};
//! use nassc_sabre::RoutingState;
//!
//! let mut state = RoutingState::new(3);
//! state.push(Instruction::new(Gate::H, vec![0]));
//! state.push(Instruction::new(Gate::Cx, vec![0, 1]));
//! state.push(Instruction::new(Gate::Cx, vec![1, 2]));
//! let mut buf = [0u32; 4];
//! // Most-recent-first indices of instructions touching qubit 0 or 2.
//! let n = state.rev_touching_window(0, 2, &mut buf);
//! assert_eq!(&buf[..n], &[2, 1, 0]);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};

use nassc_circuit::{Instruction, QuantumCircuit};

/// The next edit stamp. Process-wide, so stamps never repeat between states.
/// `Relaxed` suffices: a stamp publishes no other data, and each atomic
/// read-modify-write returns a distinct value under any ordering.
static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);

/// The router's output circuit plus the per-qubit index lists that make
/// windowed queries O(window) instead of O(circuit).
///
/// See the [module docs](self) for the design rationale. All mutation goes
/// through [`push`](Self::push)/[`pop`](Self::pop), which keep the circuit
/// and the lists consistent by construction; read access to the instructions
/// goes through [`circuit`](Self::circuit).
#[derive(Debug, Clone)]
pub struct RoutingState {
    circuit: QuantumCircuit,
    /// For each physical qubit, the ascending output indices touching it.
    touched: Vec<Vec<u32>>,
    /// For each physical qubit, the stamp of the last push/pop touching it
    /// (0 while untouched).
    stamps: Vec<u64>,
}

impl RoutingState {
    /// An empty state over `num_qubits` physical qubits.
    pub fn new(num_qubits: usize) -> Self {
        Self {
            circuit: QuantumCircuit::new(num_qubits),
            touched: vec![Vec::new(); num_qubits],
            stamps: vec![0; num_qubits],
        }
    }

    /// Rebuilds the state from an existing circuit (used by tests and by
    /// callers that already hold a routed prefix).
    pub fn from_circuit(circuit: QuantumCircuit) -> Self {
        let mut state = Self::new(circuit.num_qubits());
        for inst in circuit.iter() {
            state.push(inst.clone());
        }
        state
    }

    /// The output circuit emitted so far.
    pub fn circuit(&self) -> &QuantumCircuit {
        &self.circuit
    }

    /// Number of instructions emitted so far.
    pub fn num_gates(&self) -> usize {
        self.circuit.num_gates()
    }

    /// Number of physical qubits.
    pub fn num_qubits(&self) -> usize {
        self.circuit.num_qubits()
    }

    /// Consumes the state, returning the output circuit.
    pub fn into_circuit(self) -> QuantumCircuit {
        self.circuit
    }

    /// Appends an instruction, indexing it on every qubit it touches and
    /// giving each of them a fresh stamp. O(arity).
    pub fn push(&mut self, instruction: Instruction) {
        let index = self.circuit.num_gates() as u32;
        let stamp = NEXT_STAMP.fetch_add(1, Ordering::Relaxed);
        for q in instruction.qubits().iter() {
            self.touched[q].push(index);
            self.stamps[q] = stamp;
        }
        self.circuit.push(instruction);
    }

    /// Removes and returns the last instruction, un-indexing it and giving
    /// each qubit it touched a fresh stamp. O(arity).
    pub fn pop(&mut self) -> Option<Instruction> {
        let instruction = self.circuit.pop()?;
        let index = self.circuit.num_gates() as u32;
        let stamp = NEXT_STAMP.fetch_add(1, Ordering::Relaxed);
        for q in instruction.qubits().iter() {
            let popped = self.touched[q].pop();
            debug_assert_eq!(popped, Some(index), "touch list out of sync on pop");
            self.stamps[q] = stamp;
        }
        Some(instruction)
    }

    /// The edit stamp of qubit `q`: 0 until an instruction touching `q` is
    /// pushed, then replaced by a never-before-issued value on every push or
    /// pop touching `q`.
    ///
    /// Two states (or one state at two times) that agree on the stamps of
    /// `p1` and `p2` hold the same instructions touching either qubit, so
    /// any function of [`rev_touching_window`](Self::rev_touching_window)
    /// over that pair can be cached under the two stamps.
    pub fn stamp(&self, q: usize) -> u64 {
        self.stamps[q]
    }

    /// Fills `buf` with the output indices of the most recent instructions
    /// touching `p1` or `p2`, most-recent-first, stopping at `buf.len()`
    /// entries. Returns how many were written.
    ///
    /// This is the windowed replacement for scanning the whole output
    /// backwards: the per-qubit lists are ascending, so the query merges
    /// their tails in O(`buf.len()`), deduplicating instructions that touch
    /// both qubits. Equivalent to
    /// `circuit.iter().enumerate().rev().filter(touches p1 or p2).take(buf.len())`.
    pub fn rev_touching_window(&self, p1: usize, p2: usize, buf: &mut [u32]) -> usize {
        let a = &self.touched[p1];
        let b = &self.touched[p2];
        let (mut i, mut j) = (a.len(), b.len());
        let mut written = 0;
        while written < buf.len() {
            let next = match (i.checked_sub(1), j.checked_sub(1)) {
                (Some(ai), Some(bj)) => {
                    if a[ai] == b[bj] {
                        // One instruction touching both qubits: emit once.
                        i -= 1;
                        j -= 1;
                        a[ai]
                    } else if a[ai] > b[bj] {
                        i -= 1;
                        a[ai]
                    } else {
                        j -= 1;
                        b[bj]
                    }
                }
                (Some(ai), None) => {
                    i -= 1;
                    a[ai]
                }
                (None, Some(bj)) => {
                    j -= 1;
                    b[bj]
                }
                (None, None) => break,
            };
            buf[written] = next;
            written += 1;
        }
        written
    }

    /// The instruction at output index `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn instruction(&self, index: usize) -> &Instruction {
        &self.circuit.instructions()[index]
    }
}

impl PartialEq for RoutingState {
    fn eq(&self, other: &Self) -> bool {
        // The touch lists are derived data and the stamps record edit
        // history, not content; the circuit is the identity.
        self.circuit == other.circuit && self.touched == other.touched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nassc_circuit::Gate;

    /// Reference implementation: full backwards scan of the circuit.
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

    fn sample_state() -> RoutingState {
        let mut state = RoutingState::new(4);
        state.push(Instruction::new(Gate::H, vec![0]));
        state.push(Instruction::new(Gate::Cx, vec![0, 1]));
        state.push(Instruction::new(Gate::Cx, vec![2, 3]));
        state.push(Instruction::new(Gate::Swap, vec![1, 2]));
        state.push(Instruction::new(Gate::T, vec![1]));
        state
    }

    #[test]
    fn windows_match_the_reference_scan() {
        let state = sample_state();
        let mut buf = [0u32; 8];
        for p1 in 0..4 {
            for p2 in 0..4 {
                if p1 == p2 {
                    continue;
                }
                for limit in 1..=5 {
                    let n = state.rev_touching_window(p1, p2, &mut buf[..limit]);
                    let expect = reference_window(state.circuit(), p1, p2, limit);
                    assert_eq!(&buf[..n], &expect[..], "({p1},{p2}) limit {limit}");
                }
            }
        }
    }

    #[test]
    fn push_pop_round_trips_and_keeps_the_index_exact() {
        let mut state = sample_state();
        let before = state.circuit().clone();
        let popped = state.pop().unwrap();
        assert_eq!(popped.gate, Gate::T);
        // The popped instruction no longer appears in any window.
        let mut buf = [0u32; 8];
        let n = state.rev_touching_window(1, 2, &mut buf);
        assert_eq!(&buf[..n], &[3, 2, 1]);
        // Re-pushing restores the exact previous state.
        state.push(popped);
        assert_eq!(state.circuit(), &before);
        assert_eq!(state, RoutingState::from_circuit(before));
    }

    #[test]
    fn from_circuit_matches_incremental_pushes() {
        let incremental = sample_state();
        let rebuilt = RoutingState::from_circuit(incremental.circuit().clone());
        assert_eq!(incremental, rebuilt);
    }

    #[test]
    fn window_deduplicates_pair_touching_instructions() {
        let mut state = RoutingState::new(2);
        state.push(Instruction::new(Gate::Cx, vec![0, 1]));
        state.push(Instruction::new(Gate::Cx, vec![1, 0]));
        let mut buf = [0u32; 4];
        let n = state.rev_touching_window(0, 1, &mut buf);
        assert_eq!(&buf[..n], &[1, 0]);
    }

    #[test]
    fn push_restamps_exactly_the_touched_qubits() {
        let mut state = sample_state();
        let before: Vec<u64> = (0..4).map(|q| state.stamp(q)).collect();
        state.push(Instruction::new(Gate::Cx, vec![3, 0]));
        for (q, &old) in before.iter().enumerate() {
            if q == 0 || q == 3 {
                assert!(state.stamp(q) > old, "qubit {q} must be restamped");
            } else {
                assert_eq!(state.stamp(q), old, "qubit {q} must keep its stamp");
            }
        }
        assert_eq!(state.stamp(0), state.stamp(3), "one push, one stamp");
    }

    #[test]
    fn pop_then_push_at_the_same_index_issues_unseen_stamps() {
        let mut state = sample_state();
        let mut seen: Vec<u64> = (0..4).map(|q| state.stamp(q)).collect();
        state.pop(); // the T on qubit 1
        assert!(!seen.contains(&state.stamp(1)), "a pop restamps its qubits");
        seen.extend((0..4).map(|q| state.stamp(q)));
        state.push(Instruction::new(Gate::H, vec![1]));
        assert_eq!(state.num_gates(), 5, "the push reuses the popped index");
        assert!(!seen.contains(&state.stamp(1)));
    }

    #[test]
    fn diverging_clones_never_share_a_stamp() {
        let mut a = sample_state();
        let mut b = a.clone();
        a.push(Instruction::new(Gate::X, vec![2]));
        b.push(Instruction::new(Gate::Z, vec![2]));
        assert_ne!(a.stamp(2), b.stamp(2));
        // Even the same instruction pushed on both sides gets two stamps.
        a.push(Instruction::new(Gate::Cx, vec![0, 1]));
        b.push(Instruction::new(Gate::Cx, vec![0, 1]));
        assert_ne!(a.stamp(0), b.stamp(0));
        assert_ne!(a.stamp(1), b.stamp(1));
    }

    #[test]
    fn equality_ignores_stamps() {
        let mut a = sample_state();
        let b = sample_state();
        assert_ne!(a.stamp(1), b.stamp(1));
        assert_eq!(a, b);
        let popped = a.pop().unwrap();
        a.push(popped);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_state_yields_empty_windows() {
        let state = RoutingState::new(3);
        let mut buf = [0u32; 4];
        assert_eq!(state.rev_touching_window(0, 2, &mut buf), 0);
    }
}
