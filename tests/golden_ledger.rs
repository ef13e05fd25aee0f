//! The golden routing ledger: layout, routing and post-routing output of a
//! fixed case grid, pinned row by row in `tests/golden/routing_ledger.txt`.
//!
//! Each row records one compile: the initial and final layouts, the SWAP
//! count, the output's `structural_hash`, its CNOT count and its depth. The
//! grid covers the committed OpenQASM corpus on Montreal, a 2000-gate
//! QV-style circuit on Eagle, a 2000-gate repeated QFT on Montreal and a
//! 1000-gate QV-style circuit on a calibrated Montreal (noise-aware,
//! fractional distances) — each under both routers × layout trials {1, 4} ×
//! two seeds. The QV circuits are generated from the row's seed.
//!
//! Any change to routing, layout search or the optimization passes that
//! moves a single gate shows up here. On a mismatch the test prints the
//! whole actual ledger, so an intended change can be reviewed row by row and
//! committed as the new ledger.

use std::fmt::Write;
use std::path::PathBuf;

use nassc::circuit::QuantumCircuit;
use nassc::qasm;
use nassc::topology::{Calibration, Layout};
use nassc::{Device, RouterKind, TranspileOptions, Transpiler};
use nassc_bench::scale::{qft_style, qv_style};

const SEEDS: [u64; 2] = [1, 2];
const TRIALS: [usize; 2] = [1, 4];

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("benchmarks/qasm")
}

fn layout_field(layout: &Layout) -> String {
    let physical: Vec<String> = layout
        .logical_to_physical()
        .iter()
        .map(usize::to_string)
        .collect();
    physical.join(",")
}

/// One row per (router, trials, seed) for the circuit `circuit_for(seed)`
/// on `device`.
fn rows(case: &str, device: &Device, circuit_for: impl Fn(u64) -> QuantumCircuit) -> String {
    let mut rows = String::new();
    for router in [RouterKind::Sabre, RouterKind::Nassc] {
        for trials in TRIALS {
            for seed in SEEDS {
                let options = match router {
                    RouterKind::Sabre => TranspileOptions::sabre(seed),
                    RouterKind::Nassc => TranspileOptions::nassc(seed),
                }
                .with_layout_trials(trials);
                let result = Transpiler::new(device.clone(), options)
                    .transpile(&circuit_for(seed))
                    .unwrap_or_else(|e| panic!("{case} {router:?} t{trials} s{seed}: {e}"));
                writeln!(
                    rows,
                    "{case} {router:?} trials={trials} seed={seed} swaps={} cx={} depth={} \
                     hash={:016x} initial={} final={}",
                    result.swap_count,
                    result.circuit.cx_count(),
                    result.circuit.depth(),
                    result.circuit.structural_hash(),
                    layout_field(&result.initial_layout),
                    layout_field(&result.final_layout),
                )
                .expect("writing to a String cannot fail");
            }
        }
    }
    rows
}

/// The ledger in its fixed row order. The four case groups are independent,
/// so they run on their own threads and are concatenated in order.
fn actual_ledger() -> String {
    let corpus = || {
        let files = qasm::load_corpus(&corpus_dir()).expect("corpus directory must be readable");
        files
            .iter()
            .map(|file| {
                let circuit = file
                    .circuit
                    .as_ref()
                    .unwrap_or_else(|e| panic!("{}: {e}", file.path.display()));
                rows(
                    &format!("corpus/{}", file.name),
                    &Device::montreal(),
                    |_| circuit.clone(),
                )
            })
            .collect::<String>()
    };
    let eagle = || {
        rows("eagle/qv2000", &Device::eagle(), |seed| {
            qv_style(127, 2000, seed)
        })
    };
    let qft = || {
        rows("montreal/qft2000", &Device::montreal(), |_| {
            qft_style(27, 2000)
        })
    };
    let calibrated = || {
        let montreal = Device::montreal();
        let calibration = Calibration::synthetic(montreal.coupling(), 2022);
        rows(
            "montreal-calibrated/qv1000",
            &montreal.with_calibration(calibration),
            |seed| qv_style(27, 1000, seed),
        )
    };
    let groups: [&(dyn Fn() -> String + Sync); 4] = [&corpus, &eagle, &qft, &calibrated];
    std::thread::scope(|scope| {
        let handles: Vec<_> = groups.iter().map(|&group| scope.spawn(group)).collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("ledger group panicked"))
            .collect()
    })
}

#[test]
fn routing_matches_the_golden_ledger() {
    let expected = include_str!("golden/routing_ledger.txt");
    let actual = actual_ledger();
    if actual != expected {
        let differing = actual
            .lines()
            .zip(expected.lines())
            .filter(|(a, e)| a != e)
            .count();
        panic!(
            "routing ledger mismatch ({differing} differing rows, {} actual vs {} expected \
             rows); full actual ledger:\n{actual}",
            actual.lines().count(),
            expected.lines().count(),
        );
    }
}
