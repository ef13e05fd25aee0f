//! Cold in-process compiles through the `Transpiler` session, and the
//! output gate every compiled circuit must pass.

use std::time::Instant;

use nassc::circuit::QuantumCircuit;
use nassc::passes::is_mapped;
use nassc::topology::CouplingMap;
use nassc::{qasm, Device, RouterKind, TranspileOptions, Transpiler};
use nassc_bench::alloc;

/// The two routers every in-process workload compiles with.
pub const ROUTERS: [RouterKind; 2] = [RouterKind::Nassc, RouterKind::Sabre];

pub fn router_name(router: RouterKind) -> &'static str {
    match router {
        RouterKind::Nassc => "nassc",
        RouterKind::Sabre => "sabre",
    }
}

/// Default options for `router` with the workload seed.
pub fn options(router: RouterKind, seed: u64) -> TranspileOptions {
    TranspileOptions::new().router(router).seed(seed)
}

/// A fresh session whose distance matrix is already built: the device is
/// constructed, the session created, and a one-CNOT circuit transpiled so
/// the distance cache holds the device's matrix. Returns the session and
/// how long that took. The prepared and layout caches stay cold for any
/// other circuit.
pub fn setup(device: &str, options: &TranspileOptions) -> (Transpiler, f64) {
    let start = Instant::now();
    let device: Device = device.parse().expect("workload device specs are valid");
    let session = Transpiler::new(device, options.clone());
    let mut probe = QuantumCircuit::new(2);
    probe.cx(0, 1);
    session
        .transpile(&probe)
        .expect("a one-CNOT circuit transpiles");
    (session, start.elapsed().as_secs_f64())
}

/// One cold compile: QASM text in, QASM text out.
pub struct Compiled {
    pub secs: f64,
    /// Peak live heap during the compile, above what was live before it.
    pub peak_heap_bytes: usize,
    pub circuit: QuantumCircuit,
    pub qasm: String,
}

/// Compiles `source` on a primed session (see [`setup`]), timing parse,
/// transpile and export together.
pub fn compile(session: &Transpiler, source: &str) -> Result<Compiled, String> {
    alloc::reset();
    let live_before = alloc::live_bytes();
    let start = Instant::now();
    let result = session
        .transpile_qasm(source)
        .map_err(|e| format!("transpile: {e}"))?;
    let qasm = qasm::export(&result.circuit).map_err(|e| format!("export: {e}"))?;
    let secs = start.elapsed().as_secs_f64();
    Ok(Compiled {
        secs,
        peak_heap_bytes: alloc::peak_bytes().saturating_sub(live_before),
        circuit: result.circuit,
        qasm,
    })
}

/// The correctness gate on a compiled circuit: every two-qubit gate sits on
/// a coupling edge, every gate is in the IBM basis, and the exported QASM
/// parses back to the same circuit.
pub fn check_output(
    circuit: &QuantumCircuit,
    exported: &str,
    coupling: &CouplingMap,
) -> Result<(), String> {
    if !is_mapped(circuit, coupling) {
        return Err("output violates the coupling map".into());
    }
    if let Some(inst) = circuit.iter().find(|inst| !inst.gate.in_ibm_basis()) {
        return Err(format!("non-basis gate {:?} in output", inst.gate));
    }
    match qasm::parse(exported) {
        Ok(reparsed) if reparsed == *circuit => Ok(()),
        Ok(_) => Err("exported QASM re-parses to a different circuit".into()),
        Err(e) => Err(format!("exported QASM does not re-parse: {e}")),
    }
}
