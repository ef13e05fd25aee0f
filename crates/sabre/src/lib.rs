//! SABRE qubit layout and routing — the paper's baseline router.
//!
//! SABRE (Li, Ding, Xie — ASPLOS 2019) routes a logical circuit onto a
//! constrained device by repeatedly inserting the SWAP that minimises a
//! lookahead distance heuristic over the front and extended layers. This
//! crate provides:
//!
//! * [`sabre_layout`] — random initial layout refined by reverse traversal
//!   (the single-trial compatibility path),
//! * [`LayoutTrials`] — the multi-trial layout engine: N independently
//!   seeded trials refined through any [`SwapPolicy`], scored by a full
//!   routing pass, argmin kept with deterministic lowest-index tie-breaking,
//!   optionally fanned across a thread pool without affecting results,
//! * [`sabre_route`] — SWAP insertion with the plain SABRE heuristic,
//! * [`route_with_policy`] / [`SwapPolicy`] — the same traversal engine with
//!   a pluggable cost function, which is how the NASSC router reuses the
//!   machinery while replacing the scoring,
//! * [`RoutingState`] — the incremental output-circuit state (per-qubit
//!   touch index with O(1) push/pop and O(window) pair queries) the hot
//!   loop is built around,
//! * [`route_prepared_budgeted`] / [`sabre_layout_prepared_budgeted`] —
//!   the same routing pass and layout search over prebuilt dependency DAGs,
//!   under a cooperative deadline.
//!
//! # Example
//!
//! ```
//! use nassc_circuit::QuantumCircuit;
//! use nassc_sabre::{sabre_layout, sabre_route, SabreConfig};
//! use nassc_topology::CouplingMap;
//! use rand::SeedableRng;
//!
//! let mut qc = QuantumCircuit::new(3);
//! qc.cx(1, 2).cx(0, 1).cx(0, 2);
//! let device = CouplingMap::linear(3);
//! let distances = device.distance_matrix();
//! let config = SabreConfig::with_seed(7);
//! let layout = sabre_layout(&qc, &device, &distances, &config);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let routed = sabre_route(&qc, &device, &distances, &layout, &config, &mut rng);
//! assert!(routed.swap_count <= 2);
//! ```

pub mod config;
pub mod layout;
pub mod router;
pub mod state;

pub use config::SabreConfig;
pub use layout::{
    sabre_layout, sabre_layout_prepared_budgeted, select_best_trial, split_seed, LayoutSelection,
    LayoutTrials, TrialOutcome,
};
pub use router::{
    route_prepared_budgeted, route_with_policy, sabre_route, RoutingContext, RoutingResult,
    SabrePolicy, StepEndpoints, SwapPolicy,
};
pub use state::RoutingState;
