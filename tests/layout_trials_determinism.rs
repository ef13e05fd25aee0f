//! The layout-trials determinism contract: transpile output is bit-identical
//! at every worker count (`NASSC_THREADS` ∈ {1, 2, 8}) for both the
//! single-trial compatibility mode and multi-trial selection, and trial
//! selection is reproducible with deterministic lowest-index tie-breaking.

// This file deliberately exercises the deprecated pre-session free
// functions: it pins the legacy entry points' behavior (the contract the
// `Transpiler` session must keep matching) until the shims are removed.
// New coverage belongs in `transpiler_session_determinism.rs`.
#![allow(deprecated)]

use nassc::circuit::QuantumCircuit;
use nassc::parallel::ThreadPool;
use nassc::{
    transpile, transpile_batch_on, BatchJob, RouterKind, TranspileOptions, TranspileResult,
};
use nassc_topology::CouplingMap;

fn sample_circuit() -> QuantumCircuit {
    let mut qc = QuantumCircuit::new(6);
    qc.h(0);
    for i in 0..5 {
        qc.cx(i, i + 1);
    }
    qc.cx(0, 5).cx(1, 4).cx(2, 5).cx(0, 3);
    qc
}

fn options_for(router: RouterKind, trials: usize) -> TranspileOptions {
    let base = match router {
        RouterKind::Sabre => TranspileOptions::sabre(7),
        RouterKind::Nassc => TranspileOptions::nassc(7),
    };
    base.with_layout_trials(trials)
}

/// Everything except wall-clock must match, gate for gate.
fn assert_identical(reference: &TranspileResult, other: &TranspileResult, context: &str) {
    assert_eq!(
        reference.initial_layout, other.initial_layout,
        "{context}: initial layout"
    );
    assert_eq!(
        reference.final_layout, other.final_layout,
        "{context}: final layout"
    );
    assert_eq!(
        reference.swap_count, other.swap_count,
        "{context}: swap count"
    );
    assert_eq!(
        reference.chosen_layout_trial, other.chosen_layout_trial,
        "{context}: chosen trial"
    );
    assert_eq!(
        reference.layout_trial_costs, other.layout_trial_costs,
        "{context}: trial costs"
    );
    for (i, (a, b)) in reference
        .circuit
        .iter()
        .zip(other.circuit.iter())
        .enumerate()
    {
        assert_eq!(a, b, "{context}: instruction {i}");
    }
    assert_eq!(reference.circuit, other.circuit, "{context}: circuit");
}

/// The headline contract: `NASSC_THREADS` ∈ {1, 2, 8} × trial counts {1, 4}
/// × both routers, all bit-identical to the single-threaded run.
///
/// This is the only test in this binary that touches `NASSC_THREADS`, so the
/// env sweep cannot race a concurrent reader.
#[test]
fn transpile_is_bit_identical_across_thread_and_trial_counts() {
    let device = CouplingMap::ibmq_montreal();
    let circuit = sample_circuit();
    for router in [RouterKind::Sabre, RouterKind::Nassc] {
        for trials in [1usize, 4] {
            let options = options_for(router, trials);
            let mut reference: Option<TranspileResult> = None;
            for threads in ["1", "2", "8"] {
                std::env::set_var("NASSC_THREADS", threads);
                let result = transpile(&circuit, &device, &options).unwrap();
                let expected_costs = if trials == 1 { 0 } else { trials };
                assert_eq!(result.layout_trial_costs.len(), expected_costs);
                match &reference {
                    None => reference = Some(result),
                    Some(reference) => assert_identical(
                        reference,
                        &result,
                        &format!("{router:?}, {trials} trials, NASSC_THREADS={threads}"),
                    ),
                }
            }
        }
    }
    std::env::remove_var("NASSC_THREADS");
}

/// The batch engine splits its explicit worker budget between jobs and
/// trials; whatever the split, multi-trial results match the serial run.
#[test]
fn batched_multi_trial_jobs_match_serial_pools() {
    let device = CouplingMap::grid(5, 5);
    let circuit = sample_circuit();
    let jobs: Vec<BatchJob> = (0..3)
        .flat_map(|seed| {
            [
                BatchJob::new(
                    &circuit,
                    &device,
                    TranspileOptions::sabre(seed).with_layout_trials(4),
                ),
                BatchJob::new(
                    &circuit,
                    &device,
                    TranspileOptions::nassc(seed).with_layout_trials(4),
                ),
            ]
        })
        .collect();
    let serial = transpile_batch_on(&ThreadPool::new(1), &jobs);
    for workers in [2, 3, 8] {
        let parallel = transpile_batch_on(&ThreadPool::new(workers), &jobs);
        for (index, (s, p)) in serial.iter().zip(&parallel).enumerate() {
            assert_identical(
                s.as_ref().expect("serial"),
                p.as_ref().expect("parallel"),
                &format!("{workers} workers, job {index}"),
            );
        }
    }
}

/// Trial selection picks the first trial achieving the minimum cost, and the
/// reported diagnostics are internally consistent.
#[test]
fn chosen_trial_is_the_first_cost_minimum() {
    let device = CouplingMap::ibmq_montreal();
    let circuit = sample_circuit();
    for seed in 0..4 {
        let options = TranspileOptions::nassc(seed).with_layout_trials(6);
        let jobs = [BatchJob::new(&circuit, &device, options)];
        let result = transpile_batch_on(&ThreadPool::new(2), &jobs)
            .pop()
            .unwrap()
            .unwrap();
        assert_eq!(result.layout_trial_costs.len(), 6);
        let best = result.layout_trial_costs[result.chosen_layout_trial];
        let first_min = result
            .layout_trial_costs
            .iter()
            .position(|&c| c == best)
            .unwrap();
        assert_eq!(
            result.chosen_layout_trial, first_min,
            "seed {seed}: tie must break to the lowest trial index"
        );
        assert!(result.layout_trial_costs.iter().all(|&c| c >= best));
    }
}
