//! The served path: `nassc-serve` as a child process, fed the QASM corpus
//! by an open-loop generator at a fixed rate and then by a closed loop.
//!
//! Every request's body is compared byte for byte with an in-process
//! `Transpiler::transpile_qasm_with` reference computed before timing.

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use nassc::topology::CouplingMap;
use nassc::{qasm, RouterKind, Transpiler};
use nassc_serve::client;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::compile::{check_output, options, router_name, ROUTERS};
use crate::stats::{percentile, Metrics, Tally};

/// Open-loop arrival rate.
const RATE_PER_SEC: f64 = 100.0;
/// Latency limit of the open loop: a request answered later than this after
/// its due time counts as a miss in the percentiles.
const LATENCY_LIMIT_MS: f64 = 250.0;
/// How long the daemon may take to start answering `/health`.
const STARTUP_LIMIT: Duration = Duration::from_secs(30);

/// A running daemon; killed and reaped on drop.
pub struct Daemon {
    child: Child,
    pub addr: String,
    stderr_drain: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Spawns `bin` with its default configuration (montreal, four handler
    /// workers) on a free port and waits for the first `200` on `/health`.
    /// Returns the daemon and the seconds from spawn to that answer.
    pub fn spawn(bin: &Path) -> Result<(Daemon, f64), String> {
        let start = Instant::now();
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        // The daemon logs its address, then one line per request, on
        // stderr: read the address and keep draining so it never blocks.
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        let stderr_drain = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(rest) = line.split("listening on ").nth(1) {
                    let addr = rest.split_whitespace().next().unwrap_or_default();
                    let _ = tx.send(addr.to_string());
                }
            }
        });
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            stderr_drain: Some(stderr_drain),
        };
        daemon.addr = rx
            .recv_timeout(STARTUP_LIMIT)
            .map_err(|_| "the daemon did not report its address".to_string())?;
        while start.elapsed() < STARTUP_LIMIT {
            if matches!(client::get(&daemon.addr, "/health"), Ok(r) if r.status == 200) {
                return Ok((daemon, start.elapsed().as_secs_f64()));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Err("the daemon never answered /health".into())
    }

    /// The daemon's peak resident set (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("reading the daemon's status: {e}"))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| {
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM line".to_string())
    }

    /// The per-device cumulative `cache_hits` of `/metrics`.
    fn cache_hits(&self) -> Result<u64, String> {
        let body = client::get(&self.addr, "/metrics")
            .map_err(|e| format!("GET /metrics: {e}"))?
            .body;
        let rest = body
            .split("\"cache_hits\":")
            .nth(1)
            .ok_or("no cache_hits in /metrics")?;
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        digits.parse().map_err(|_| "bad cache_hits".to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.stderr_drain.take() {
            let _ = drain.join();
        }
    }
}

/// One request of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Request {
    file: usize,
    /// Index into [`ROUTERS`].
    router: usize,
    seed: u64,
    trials: usize,
}

impl Request {
    fn path(&self) -> String {
        format!(
            "/transpile?router={}&seed={}&layout-trials={}",
            router_name(ROUTERS[self.router]),
            self.seed,
            self.trials
        )
    }
}

/// Requests per (file, router) pair in one deck: eight repeat the triple
/// the warm-up sent, two carry fresh seeds (layout-cache misses). That is
/// 80% repeats and 20% fresh requests.
const DECK_PER_PAIR: usize = 10;
const DECK_REPEATS: usize = 8;

/// The seeded request mix, dealt in decks: every deck holds each request
/// kind in the same proportion for every (file, router) pair, shuffled by
/// the workload seed. The seed changes the order and the fresh seeds, never
/// the composition, so a run's latency percentiles do not hinge on how
/// many slow requests the draw happened to contain.
///
/// In each deck one fresh request, of a pair that rotates from deck to
/// deck, asks for four layout trials. Four-trial requests on the largest
/// files take several times longer than anything else; kept this rare
/// (0.4% of requests) they stay above the 99th percentile, which then lies
/// in the dense tail of single-trial layout searches instead of on the
/// cliff between the two groups, where it would jump from run to run.
struct Mix {
    rng: StdRng,
    files: usize,
    seed: u64,
    fresh: u64,
    decks: usize,
}

impl Mix {
    fn new(files: usize, seed: u64) -> Self {
        Mix {
            rng: StdRng::seed_from_u64(seed ^ 0x5EED_5E4E),
            files,
            seed,
            fresh: 0,
            decks: 0,
        }
    }

    fn pairs(&self) -> impl Iterator<Item = (usize, usize)> {
        (0..self.files).flat_map(|file| (0..ROUTERS.len()).map(move |router| (file, router)))
    }

    fn repeat(&self, (file, router): (usize, usize)) -> Request {
        Request {
            file,
            router,
            seed: self.seed,
            trials: 1,
        }
    }

    /// One request per (file, router) pair, each repeated by every deck.
    fn warm_set(&self) -> Vec<Request> {
        self.pairs().map(|pair| self.repeat(pair)).collect()
    }

    fn deck(&mut self) -> Vec<Request> {
        let pairs: Vec<_> = self.pairs().collect();
        // Striding by 7 moves the four-trial request across files and routers.
        let multi_trial = (self.decks * 7) % pairs.len();
        let mut deck = Vec::with_capacity(pairs.len() * DECK_PER_PAIR);
        for (p, &pair) in pairs.iter().enumerate() {
            deck.extend(std::iter::repeat_n(self.repeat(pair), DECK_REPEATS));
            for k in DECK_REPEATS..DECK_PER_PAIR {
                self.fresh += 1;
                let four = p == multi_trial && k == DECK_REPEATS;
                deck.push(Request {
                    file: pair.0,
                    router: pair.1,
                    seed: self.seed.wrapping_mul(1_000_003).wrapping_add(self.fresh),
                    trials: if four { 4 } else { 1 },
                });
            }
        }
        self.decks += 1;
        deck.shuffle(&mut self.rng);
        deck
    }
}

/// What one request saw, in milliseconds.
struct Sample {
    /// How late the generator sent it after its due time.
    lag: f64,
    /// Due (open loop) or send (closed loop) time to the complete answer.
    latency: f64,
    /// Send to complete answer.
    client: f64,
    queue: f64,
    handler: f64,
    status: u16,
    cache_hits: u64,
    outcome: Result<(), String>,
}

fn send(addr: &str, request: &Request, source: &str, expected: &str, due: Instant) -> Sample {
    let sent = Instant::now();
    let response = client::post(addr, &request.path(), source);
    let done = Instant::now();
    let ms = |d: Duration| d.as_secs_f64() * 1000.0;
    let mut sample = Sample {
        lag: ms(sent.saturating_duration_since(due)),
        latency: ms(done - due),
        client: ms(done - sent),
        queue: 0.0,
        handler: 0.0,
        status: 0,
        cache_hits: 0,
        outcome: Ok(()),
    };
    match response {
        Err(e) => sample.outcome = Err(format!("{}: {e}", request.path())),
        Ok(r) => {
            let header = |name| r.header(name).and_then(|v| v.parse::<f64>().ok());
            sample.status = r.status;
            sample.queue = header("x-queue-ms").unwrap_or(0.0);
            sample.handler = header("x-elapsed-ms").unwrap_or(0.0);
            sample.cache_hits = header("x-cache-hits").unwrap_or(0.0) as u64;
            sample.outcome = if r.status != 200 {
                Err(format!("{}: status {}", request.path(), r.status))
            } else if r.body != expected {
                Err(format!(
                    "{}: body differs from the reference",
                    request.path()
                ))
            } else {
                Ok(())
            };
        }
    }
    sample
}

/// The served phase, dealt out in segments between the compile work so
/// that both sample the same stretch of machine time.
pub struct Served<'a> {
    daemon: Daemon,
    sources: &'a [String],
    references: HashMap<Request, String>,
    connections: usize,
    open: Vec<Vec<Request>>,
    closed: Vec<Vec<Request>>,
    open_samples: Vec<Sample>,
    closed_samples: Vec<Sample>,
    closed_secs: f64,
    header_hits: u64,
    metrics_hits: u64,
    /// Seconds from spawning the daemon to its first `200` on `/health`.
    startup_secs: f64,
}

impl<'a> Served<'a> {
    /// Computes every reference (outside any timed region), starts the
    /// daemon and sends the warm-up pass. Each of `segments` segments will
    /// deal one deck in the open loop and one in the closed loop.
    pub fn start(
        bin: &Path,
        sources: &'a [String],
        seed: u64,
        segments: usize,
        tally: &mut Tally,
    ) -> Result<Self, String> {
        let mut mix = Mix::new(sources.len(), seed);
        let warm = mix.warm_set();
        let open: Vec<Vec<Request>> = (0..segments).map(|_| mix.deck()).collect();
        let closed: Vec<Vec<Request>> = (0..segments).map(|_| mix.deck()).collect();

        let reference =
            Transpiler::new(nassc::Device::montreal(), options(RouterKind::Nassc, seed));
        let coupling: CouplingMap = reference.coupling().clone();
        let mut references: HashMap<Request, String> = HashMap::new();
        for request in warm.iter().chain(open.iter().chain(&closed).flatten()) {
            if references.contains_key(request) {
                continue;
            }
            let opts = options(ROUTERS[request.router], request.seed).layout_trials(request.trials);
            let text = reference
                .transpile_qasm_with(&sources[request.file], &opts)
                .map_err(|e| e.to_string())
                .and_then(|result| {
                    let text = qasm::export(&result.circuit).map_err(|e| e.to_string())?;
                    check_output(&result.circuit, &text, &coupling)?;
                    Ok(text)
                })
                .map_err(|e| format!("reference for {}: {e}", request.path()))?;
            references.insert(*request, text);
        }

        let (daemon, startup_secs) = Daemon::spawn(bin)?;
        let served = Served {
            daemon,
            sources,
            references,
            connections: std::thread::available_parallelism().map_or(1, usize::from),
            open,
            closed,
            open_samples: Vec::new(),
            closed_samples: Vec::new(),
            closed_secs: 0.0,
            header_hits: 0,
            metrics_hits: 0,
            startup_secs,
        };
        for sample in served.drive(&warm, 1, None).0 {
            tally.record("serve warm-up request", sample.outcome);
        }
        Ok(served)
    }

    /// Deals segment `i`: one deck at the fixed rate, then one in the
    /// closed loop.
    pub fn segment(&mut self, i: usize) -> Result<(), String> {
        let interval = Duration::from_secs_f64(1.0 / RATE_PER_SEC);
        let before = self.daemon.cache_hits()?;
        let (open, _) = self.drive(&self.open[i], self.connections, Some(interval));
        self.metrics_hits += self.daemon.cache_hits()? - before;
        self.header_hits += open.iter().map(|s| s.cache_hits).sum::<u64>();
        self.open_samples.extend(open);
        let (closed, secs) = self.drive(&self.closed[i], self.connections, None);
        self.closed_samples.extend(closed);
        self.closed_secs += secs;
        Ok(())
    }

    /// Sends `requests` over `connections` client threads. With `interval`,
    /// request `i` is due at `start + i * interval` (open loop); without,
    /// each thread sends its next request as soon as the last one is
    /// answered. Returns the samples in request order and the elapsed time.
    fn drive(
        &self,
        requests: &[Request],
        connections: usize,
        interval: Option<Duration>,
    ) -> (Vec<Sample>, f64) {
        let next = AtomicUsize::new(0);
        let start = Instant::now();
        let mut samples: Vec<(usize, Sample)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..connections)
                .map(|_| {
                    scope.spawn(|| {
                        let mut mine = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(request) = requests.get(i) else {
                                break;
                            };
                            let due = match interval {
                                Some(step) => {
                                    let due = start + step * i as u32;
                                    std::thread::sleep(
                                        due.saturating_duration_since(Instant::now()),
                                    );
                                    due
                                }
                                None => Instant::now(),
                            };
                            let source = &self.sources[request.file];
                            let expected = &self.references[request];
                            mine.push((i, send(&self.daemon.addr, request, source, expected, due)));
                        }
                        mine
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("client threads do not panic"))
                .collect()
        });
        let elapsed = start.elapsed().as_secs_f64();
        samples.sort_by_key(|(i, _)| *i);
        (samples.into_iter().map(|(_, s)| s).collect(), elapsed)
    }

    /// Stops the daemon, counts every request, and pushes the end-to-end
    /// serve metrics, or with `trace` the serve layer metrics.
    pub fn finish(
        self,
        trace: bool,
        metrics: &mut Metrics,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let rss_mb = self.daemon.peak_rss_mb()?;
        drop(self.daemon);
        let open = &self.open_samples;
        let closed = &self.closed_samples;
        for sample in open.iter().chain(closed) {
            tally.record("serve request", sample.outcome.clone());
        }
        tally.record(
            "serve cache accounting",
            if self.header_hits == self.metrics_hits {
                Ok(())
            } else {
                Err(format!(
                    "X-Cache-Hits sum to {}, /metrics moved by {}",
                    self.header_hits, self.metrics_hits
                ))
            },
        );

        if trace {
            // A refused, failed or late request misses the latency limit.
            let latencies: Vec<f64> = open
                .iter()
                .map(|s| match s.outcome {
                    Ok(()) if s.latency <= LATENCY_LIMIT_MS => s.latency,
                    _ => f64::INFINITY,
                })
                .collect();
            let latency = |p: f64| percentile(&latencies, p).min(LATENCY_LIMIT_MS);
            // Open-loop latency moves with the host's load on a shared
            // machine, the tail two- to threefold, too much for a
            // regression bound: it is reported with the layers, which
            // carry none.
            metrics.push("serve.startup_ms", 1000.0 * self.startup_secs, "ms");
            metrics.push("serve_p50_ms", latency(50.0), "ms");
            metrics.push("serve_p99_ms", latency(99.0), "ms");
            let answered: Vec<&Sample> = open.iter().filter(|s| s.status == 200).collect();
            let of = |f: fn(&Sample) -> f64| answered.iter().map(|s| f(s)).collect::<Vec<f64>>();
            let queue = of(|s| s.queue);
            let handler = of(|s| s.handler);
            let wire = of(|s| s.client - s.queue - s.handler);
            let lag: Vec<f64> = open.iter().map(|s| s.lag).collect();
            let share = |hits: u64| {
                let n = open.iter().filter(|s| s.cache_hits >= hits).count();
                n as f64 / open.len() as f64
            };
            // Every timed request hits the distance cache, so one more hit
            // means the prepared cache hit and one more the layout cache.
            metrics.push("cache.layout_hit_ratio", share(3), "ratio");
            metrics.push("cache.prepared_hit_ratio", share(2), "ratio");
            metrics.push("serve.queue_ms_p50", percentile(&queue, 50.0), "ms");
            metrics.push("serve.queue_ms_p99", percentile(&queue, 99.0), "ms");
            metrics.push("serve.handler_ms_p50", percentile(&handler, 50.0), "ms");
            metrics.push("serve.handler_ms_p99", percentile(&handler, 99.0), "ms");
            metrics.push("serve.wire_ms_p50", percentile(&wire, 50.0), "ms");
            metrics.push("serve.wire_ms_p99", percentile(&wire, 99.0), "ms");
            let rejected = open
                .iter()
                .chain(closed)
                .filter(|s| s.status == 429)
                .count();
            metrics.push("serve.rejected", rejected as f64, "count");
            metrics.push("serve.gen_lag_ms_p99", percentile(&lag, 99.0), "ms");
        } else {
            let ok = closed.iter().filter(|s| s.outcome.is_ok()).count();
            metrics.push("serve_capacity_rps", ok as f64 / self.closed_secs, "1/s");
            metrics.push("daemon_rss_mb", rss_mb, "MB");
        }
        Ok(())
    }
}
