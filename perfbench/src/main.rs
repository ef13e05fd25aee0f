//! `perfbench`: the repository benchmark (see `README.md` beside this
//! crate). Usually started through `run.py`, which builds it and the
//! `nassc-serve` daemon first:
//!
//! ```text
//! perfbench --workload eagle-qv --seed 1 --seconds 40 --trace 0 \
//!           --serve-bin .bench_build/release/nassc-serve
//! ```
//!
//! The last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it
//! records the run's provenance.

mod compile;
mod layers;
mod serve;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use nassc::qasm;
use nassc::RouterKind;
use nassc_bench::alloc;
use nassc_bench::scale::{qft_style, qv_style};

use compile::{check_output, options, router_name, ROUTERS};
use stats::{median, Metrics, Tally};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Session set-ups timed for `setup_s` at the start of each segment,
/// besides those of the compiles.
const SETUP_REPS: usize = 10;
/// Share of `--seconds` spent compiling in process; the rest drives the
/// daemon.
const COMPILE_SHARE: f64 = 0.7;
/// Gates in the generated circuits of the in-process workloads.
const GATES: usize = 10_000;
/// Circuits per run, each with a seed derived from the run's: one
/// compile's CNOT count, depth and time swing by several percent from seed
/// to seed, a sum over three seeds less.
const SEEDS: u64 = 3;
/// How far the traced layers' summed time may stray from the session time
/// of the same compiles, as a share of the latter. The composition clones
/// the circuit once per pass where the session clones it once per
/// pipeline, and the two are timed moments apart on a shared machine.
const COVERAGE_BOUND: f64 = 0.15;
/// Where the committed QASM corpus lives, relative to the checkout root.
const CORPUS_DIR: &str = "benchmarks/qasm";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut map = std::collections::HashMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} expects a value"))?;
        map.insert(flag, value);
    }
    let get = |flag: &str| map.get(flag).cloned().ok_or(format!("missing {flag}"));
    let number = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse()
            .map_err(|_| format!("{flag} expects a whole number"))
    };
    let trace = match number("--trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace expects 0 or 1".into()),
    };
    Ok(Args {
        workload: get("--workload")?,
        seed: number("--seed")?,
        seconds: number("--seconds")?.max(1) as f64,
        trace,
        serve_bin: PathBuf::from(get("--serve-bin")?),
    })
}

/// One input circuit and the seed it is compiled with.
struct Circuit {
    name: String,
    qasm: String,
    seed: u64,
}

/// A workload: the device and the circuits compiled in process, one per
/// segment of the run (see [`run`]).
struct Workload {
    device: &'static str,
    circuits: Vec<Circuit>,
}

/// The corpus the served part sends, one QASM source per file.
fn corpus() -> Result<Vec<String>, String> {
    let files = qasm::load_corpus(std::path::Path::new(CORPUS_DIR))
        .map_err(|e| format!("reading {CORPUS_DIR}: {e}"))?;
    if files.is_empty() {
        return Err(format!("no .qasm files in {CORPUS_DIR}"));
    }
    files
        .into_iter()
        .map(|file| {
            let text = std::fs::read_to_string(&file.path)
                .map_err(|e| format!("reading {}: {e}", file.path.display()))?;
            Ok(text)
        })
        .collect()
}

fn workload(name: &str, seed: u64) -> Result<Workload, String> {
    // Generated circuits are exported to QASM here, before anything is timed.
    let generated = |generate: &dyn Fn(u64) -> nassc::circuit::QuantumCircuit| {
        (0..SEEDS)
            .map(|i| seed.wrapping_mul(SEEDS).wrapping_add(i))
            .map(|seed| {
                let qasm = qasm::export(&generate(seed)).map_err(|e| format!("export: {e}"))?;
                Ok(Circuit {
                    name: format!("{name}[seed {seed}]"),
                    qasm,
                    seed,
                })
            })
            .collect::<Result<Vec<_>, String>>()
    };
    Ok(match name {
        "eagle-qv" => Workload {
            device: "eagle",
            circuits: generated(&|seed| qv_style(127, GATES, seed))?,
        },
        "montreal-qft" => Workload {
            device: "montreal",
            circuits: generated(&|_| qft_style(27, GATES))?,
        },
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// One line recording where and how the run was made.
fn provenance(args: &Args) -> String {
    let output = |program: &str, argv: &[&str]| {
        std::process::Command::new(program)
            .args(argv)
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let threads = std::env::var(nassc::parallel::THREADS_ENV_VAR)
        .map_or("null".into(), |v| format!("\"{}\"", v.escape_default()));
    format!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"rustc\": \"{}\", \"git_sha\": \"{}\", \"nassc_threads\": {threads}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        output("rustc", &["-V"]).escape_default(),
        output("git", &["rev-parse", "HEAD"]).escape_default(),
    )
}

/// Alternates which router goes first from one compile to the next.
fn router_order(turn: usize) -> [RouterKind; 2] {
    if turn.is_multiple_of(2) {
        ROUTERS
    } else {
        [ROUTERS[1], ROUTERS[0]]
    }
}

/// Runs `pass` (one compile of the segment's circuit under both routers)
/// at least once, and again while another fits in `budget` seconds.
fn passes_within(budget: f64, mut pass: impl FnMut(usize)) {
    let start = Instant::now();
    let mut done = 0;
    loop {
        pass(done);
        done += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + elapsed / done as f64 > budget {
            break;
        }
    }
}

fn coupling_of(device: &str) -> nassc::topology::CouplingMap {
    let device: nassc::Device = device.parse().expect("workload device specs are valid");
    device.coupling().clone()
}

/// Cold compiles through fresh sessions, accumulated over the segments.
struct Compiles {
    /// Per router and circuit: every compile's seconds.
    secs: [Vec<Vec<f64>>; 2],
    /// Per router and circuit: the first compile's output, which every
    /// later compile must reproduce exactly.
    outputs: [Vec<Option<String>>; 2],
    /// Per router: total CNOT count and depth of the outputs.
    quality: [(usize, usize); 2],
    /// Per router and circuit: every compile's peak heap, in bytes.
    peak_heap: [Vec<Vec<f64>>; 2],
    setups: Vec<f64>,
}

impl Compiles {
    fn new(circuits: usize) -> Self {
        Compiles {
            secs: [vec![Vec::new(); circuits], vec![Vec::new(); circuits]],
            outputs: [vec![None; circuits], vec![None; circuits]],
            quality: [(0, 0); 2],
            peak_heap: [vec![Vec::new(); circuits], vec![Vec::new(); circuits]],
            setups: Vec::new(),
        }
    }

    fn segment(&mut self, w: &Workload, seg: usize, budget: f64, tally: &mut Tally) {
        let coupling = coupling_of(w.device);
        let circuit = &w.circuits[seg];
        passes_within(budget, |pass| {
            for router in router_order(pass + seg) {
                let r = ROUTERS
                    .iter()
                    .position(|&x| x == router)
                    .expect("known router");
                let (session, setup) = compile::setup(w.device, &options(router, circuit.seed));
                self.setups.push(setup);
                let outcome = compile::compile(&session, &circuit.qasm).and_then(|c| {
                    check_output(&c.circuit, &c.qasm, &coupling)?;
                    self.secs[r][seg].push(c.secs);
                    self.peak_heap[r][seg].push(c.peak_heap_bytes as f64);
                    match &self.outputs[r][seg] {
                        None => {
                            self.quality[r].0 += c.circuit.cx_count();
                            self.quality[r].1 += c.circuit.depth();
                            self.outputs[r][seg] = Some(c.qasm);
                            Ok(())
                        }
                        Some(first) if *first == c.qasm => Ok(()),
                        Some(_) => Err("output differs from the first compile".into()),
                    }
                });
                let what = format!("{} under {}", circuit.name, router_name(router));
                tally.record(&what, outcome);
            }
        });
    }

    /// Pushes the compile metrics: each router's time is the sum over the
    /// circuits of each circuit's median compile time, the peak heap the
    /// largest of the per-circuit medians.
    fn finish(&self, metrics: &mut Metrics) {
        let medians = |samples: &[Vec<f64>]| -> Vec<f64> {
            samples
                .iter()
                .filter(|s| !s.is_empty())
                .map(|s| median(s))
                .collect()
        };
        let total = |r: usize| medians(&self.secs[r]).iter().sum::<f64>();
        let peak = self
            .peak_heap
            .iter()
            .flat_map(|p| medians(p))
            .fold(0.0, f64::max);
        metrics.push("nassc_compile_s", total(0), "s");
        metrics.push("sabre_compile_s", total(1), "s");
        metrics.push("peak_heap_mb", peak / (1024.0 * 1024.0), "MB");
        metrics.push("nassc_cx", self.quality[0].0 as f64, "count");
        metrics.push("sabre_cx", self.quality[1].0 as f64, "count");
        metrics.push("nassc_depth", self.quality[0].1 as f64, "count");
    }
}

/// The traced run's layer measurements, accumulated over the segments.
struct Traced {
    names: Vec<String>,
    coupling: nassc::topology::CouplingMap,
    distances: nassc::topology::DistanceMatrix,
    /// Per router and circuit: the sum of its layer samples and their count.
    samples: [Vec<(layers::LayerSample, f64)>; 2],
    session_secs: f64,
    composed_secs: f64,
    mismatches: usize,
}

impl Traced {
    fn new(w: &Workload) -> Result<Self, String> {
        let coupling = coupling_of(w.device);
        let distances = coupling.distance_matrix();
        let empty = vec![(layers::LayerSample::default(), 0.0); w.circuits.len()];
        Ok(Traced {
            names: layers::pass_names()?,
            coupling,
            distances,
            samples: [empty.clone(), empty],
            session_secs: 0.0,
            composed_secs: 0.0,
            mismatches: 0,
        })
    }

    /// For the segment's circuit under each router: an untraced cold
    /// session compile, then the composition, whose output must match it.
    fn segment(&mut self, w: &Workload, seg: usize, budget: f64, tally: &mut Tally) {
        let circuit = &w.circuits[seg];
        passes_within(budget, |pass| {
            for router in router_order(pass + seg) {
                let r = ROUTERS
                    .iter()
                    .position(|&x| x == router)
                    .expect("known router");
                let opts = options(router, circuit.seed);
                let (session, _) = compile::setup(w.device, &opts);
                let outcome = compile::compile(&session, &circuit.qasm).and_then(|reference| {
                    let c = layers::compose(&circuit.qasm, &self.coupling, &self.distances, &opts)?;
                    self.session_secs += reference.secs;
                    self.composed_secs += c.sample.path_secs();
                    self.samples[r][seg].0.add_scaled(&c.sample, 1.0);
                    self.samples[r][seg].1 += 1.0;
                    if c.qasm == reference.qasm {
                        Ok(())
                    } else {
                        self.mismatches += 1;
                        Err("composition output differs from the session's".into())
                    }
                });
                let what = format!("traced {} under {}", circuit.name, router_name(router));
                tally.record(&what, outcome);
            }
        });
    }

    /// Pushes the layer metrics: per circuit the mean over its compiles,
    /// summed over the circuits. Unsuffixed metrics of router-independent
    /// layers add both routers' compiles. The layers must account for the
    /// session's time within [`COVERAGE_BOUND`].
    fn finish(&self, metrics: &mut Metrics, tally: &mut Tally) {
        let mut per_router = [
            layers::LayerSample::default(),
            layers::LayerSample::default(),
        ];
        for (r, circuits) in self.samples.iter().enumerate() {
            for (sum, n) in circuits.iter().filter(|(_, n)| *n > 0.0) {
                per_router[r].add_scaled(sum, 1.0 / n);
            }
        }
        let mut s = per_router[0].clone();
        s.add_scaled(&per_router[1], 1.0);
        let ms = |secs: f64| 1000.0 * secs;
        let mb = |bytes: f64| bytes / (1024.0 * 1024.0);
        metrics.push("qasm.parse_ms", ms(s.parse), "ms");
        metrics.push("qasm.export_ms", ms(s.export), "ms");
        metrics.push("qasm.parse_alloc_mb", mb(s.parse_alloc), "MB");
        metrics.push("qasm.export_alloc_mb", mb(s.export_alloc), "MB");
        metrics.push("prepare_ms", ms(s.prepare), "ms");
        metrics.push("prepare_alloc_mb", mb(s.prepare_alloc), "MB");
        // Preparation does not depend on the router: count its output once.
        metrics.push(
            "prepare.gates_out",
            per_router[0].prepare_gates_out,
            "count",
        );
        metrics.push("dag_build_ms", ms(s.dag), "ms");
        metrics.push("dag_build_alloc_mb", mb(s.dag_alloc), "MB");
        metrics.push("layout_ms", ms(s.layout), "ms");
        metrics.push("layout_ms.seq", ms(s.layout_seq), "ms");
        metrics.push("layout_alloc_mb", mb(s.layout_alloc), "MB");
        for (r, router) in ROUTERS.iter().enumerate() {
            let name = router_name(*router);
            let p = &per_router[r];
            metrics.push(format!("route_ms.{name}"), ms(p.route), "ms");
            metrics.push(format!("route_ms.{name}.seq"), ms(p.route_seq), "ms");
            metrics.push(format!("route_alloc_mb.{name}"), mb(p.route_alloc), "MB");
            metrics.push(format!("route.swaps.{name}"), p.swaps, "count");
            metrics.push(format!("route.candidates.{name}"), p.candidates, "count");
            let per_candidate = 1e9 * p.route / p.candidates.max(1.0);
            metrics.push(
                format!("route.ns_per_candidate.{name}"),
                per_candidate,
                "ns",
            );
            metrics.push(format!("pool.batches.{name}"), p.pool_batches, "count");
            let per_batch = p.pool_items / p.pool_batches.max(1.0);
            metrics.push(format!("pool.items_per_batch.{name}"), per_batch, "count");
            metrics.push(format!("decompose_ms.{name}"), ms(p.decompose), "ms");
            metrics.push(
                format!("decompose.cx_out.{name}"),
                p.decompose_cx_out,
                "count",
            );
            metrics.push(format!("passes.alloc_mb.{name}"), mb(p.passes_alloc), "MB");
            metrics.push(
                format!("passes.cx_removed.{name}"),
                p.passes_cx_removed,
                "count",
            );
        }
        for (k, pass) in self.names.iter().enumerate() {
            metrics.push(format!("passes.{pass}.{k}_ms"), ms(s.pass_secs[k]), "ms");
            let removed = s.pass_gates_removed[k];
            metrics.push(format!("passes.{pass}.{k}.gates_removed"), removed, "count");
        }
        let coverage = self.composed_secs / self.session_secs;
        tally.record(
            "layer coverage",
            if (coverage - 1.0).abs() <= COVERAGE_BOUND {
                Ok(())
            } else {
                Err(format!("layers sum to {coverage:.3} of the session time"))
            },
        );
        metrics.push("layers.coverage", coverage, "ratio");
        metrics.push("layers.mismatches", self.mismatches as f64, "count");
    }
}

/// One run: one segment per circuit, each doing its compile (or traced)
/// work and then dealing its share of the served traffic, so every metric
/// samples the whole run rather than one stretch of it.
fn run(args: &Args) -> Result<(Metrics, Tally), String> {
    let w = workload(&args.workload, args.seed)?;
    let mut metrics = Metrics::default();
    let mut tally = Tally::default();
    let sources = corpus()?;
    let segments = w.circuits.len();
    let compile_budget = args.seconds * COMPILE_SHARE / segments as f64;

    let mut setups = Vec::new();
    let mut compiles = Compiles::new(segments);
    let mut traced = if args.trace {
        Some(Traced::new(&w)?)
    } else {
        None
    };
    let mut served =
        serve::Served::start(&args.serve_bin, &sources, args.seed, segments, &mut tally)?;
    for seg in 0..segments {
        match &mut traced {
            Some(traced) => traced.segment(&w, seg, compile_budget, &mut tally),
            None => {
                for _ in 0..SETUP_REPS {
                    setups.push(compile::setup(w.device, &options(RouterKind::Nassc, args.seed)).1);
                }
                compiles.segment(&w, seg, compile_budget, &mut tally);
            }
        }
        served.segment(seg)?;
    }
    served.finish(args.trace, &mut metrics, &mut tally)?;
    match traced {
        Some(traced) => traced.finish(&mut metrics, &mut tally),
        None => {
            compiles.finish(&mut metrics);
            setups.extend(&compiles.setups);
            metrics.push("setup_s", median(&setups), "s");
            metrics.push("pass_ratio", tally.pass_ratio(), "ratio");
        }
    }
    Ok((metrics, tally))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <eagle-qv|montreal-qft> --seed N \
                 --seconds N --trace <0|1> --serve-bin PATH"
            );
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok((metrics, tally)) => {
            println!("{}", provenance(&args));
            println!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                tally.failed == 0,
                tally.attempted,
                tally.failed,
                metrics.to_json()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
