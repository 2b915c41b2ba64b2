//! The repository benchmark: four named workloads over the five engines, checked for
//! correctness, measured end to end untraced and per layer from a traced run.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload sparsify-dense [--seed 1] [--seconds 10] [--trace 0|1] [--size full|tiny]
//! ```
//!
//! Run it from the repository root. It writes its inputs and spill files under
//! `.perfbench_work/` there and removes them on exit. Every wall-clock figure is
//! taken in a 1-thread rayon pool. Human-readable lines go first; the last line of
//! standard output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. `--trace 0` reports the end-to-end metrics of
//! [`metrics::END_TO_END`], `--trace 1` the per-layer metrics of
//! [`metrics::PER_LAYER`]; see `README.md` beside this package.

mod heap;
mod metrics;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use sgs_obs::RecordingSink;

use metrics::{Metric, END_TO_END, PER_LAYER};
use workloads::{Rep, Spec, Workload};

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// Named measurements of one operation or phase.
pub type Values = BTreeMap<&'static str, f64>;

const USAGE: &str =
    "usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--size full|tiny]";
const DEFAULT_SEED: u64 = 1;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest timed operations per measuring phase, however long they take.
const MIN_REPS: usize = 3;
/// Rounds of layer probes in a traced run; each probe metric is their median.
const PROBE_ROUNDS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: DEFAULT_SEED,
            seconds: 10.0,
            trace: false,
            tiny: false,
        };
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag} takes {what}, got {value:?}");
            match flag.as_str() {
                "--workload" => args.workload = value,
                "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
                "--seconds" => {
                    args.seconds = value.parse().map_err(|_| bad("a number"))?;
                    if args.seconds.is_nan() || args.seconds <= 0.0 {
                        return Err(bad("a positive number"));
                    }
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    }
                }
                "--size" => {
                    args.tiny = match value.as_str() {
                        "full" => false,
                        "tiny" => true,
                        _ => return Err(bad("full or tiny")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !workloads::NAMES.contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {:?}, got {:?}",
                workloads::NAMES,
                args.workload
            ));
        }
        Ok(args)
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match measure(&args) {
        Ok(result) => {
            result.print(&args.workload);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Operations attempted and failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Runs one checked operation; an error or a panic counts as a failure.
    fn attempt<T>(&mut self, op: impl FnOnce() -> Result<T, String>) -> Option<T> {
        let outcome = panic::catch_unwind(AssertUnwindSafe(op))
            .unwrap_or_else(|_| Err("the operation panicked".into()));
        self.record(outcome)
    }

    /// Counts an operation that has already run.
    fn record<T>(&mut self, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        outcome
            .map_err(|e| {
                self.failed += 1;
                eprintln!("perfbench: operation failed: {e}");
            })
            .ok()
    }
}

struct Outcome {
    tally: Tally,
    /// The metrics the JSON line reports, in registry order.
    table: &'static [Metric],
    values: Values,
}

impl Outcome {
    fn print(&self, workload: &str) {
        for (name, value) in &self.values {
            let (unit, target) = metrics::find(name).map_or(("", ""), |m| (m.unit, m.target));
            println!("{workload:>15}  {name:<26} {value:>16.6} {unit:<5}  {target}");
        }
        println!(
            "{workload:>15}  operations attempted {} failed {}",
            self.tally.attempted, self.tally.failed
        );
        let metrics: Vec<String> = self
            .table
            .iter()
            .map(|m| {
                let v = self.values.get(m.name).copied().unwrap_or(0.0);
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(v),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.failed == 0,
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        );
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        eprintln!("perfbench: non-finite value {v} reported as 0");
        "0".into()
    }
}

pub fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let k = xs.len();
    match k {
        0 => f64::NAN,
        _ if k % 2 == 1 => xs[k / 2],
        _ => 0.5 * (xs[k / 2 - 1] + xs[k / 2]),
    }
}

/// Per-key medians over several operations' values.
fn medians<'a>(all: impl IntoIterator<Item = &'a Values>) -> Values {
    let mut columns: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for values in all {
        for (&k, &v) in values {
            columns.entry(k).or_default().push(v);
        }
    }
    columns.into_iter().map(|(k, v)| (k, median(v))).collect()
}

fn walls(reps: &[Rep]) -> f64 {
    median(reps.iter().map(|r| r.wall_s).collect())
}

/// The process's peak resident set (`VmHWM`), in bytes.
fn peak_rss_bytes() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb * 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// The scratch directory of one run, removed when the run ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(workload: &str) -> Result<WorkDir, String> {
        let dir =
            PathBuf::from(".perfbench_work").join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Fails while another run still uses it, which is fine.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// The workload after its last set-up.
struct SetUp {
    workload: Box<dyn Workload>,
    /// Median set-up time.
    seconds: f64,
    /// In a traced run, the median set-up time of the graph layers.
    layers: Values,
}

/// Sets the workload up [`SETUPS`] times, each time generating and writing its inputs
/// and running one warm-up operation; keeps the last. In a traced run `sink` collects
/// each set-up's spans.
fn set_up(
    args: &Args,
    spec: &Spec<'_>,
    tally: &mut Tally,
    sink: Option<&RecordingSink>,
) -> Result<SetUp, String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut traced = Vec::new();
    let mut last: Option<Box<dyn Workload>> = None;
    for _ in 0..SETUPS {
        // Free the previous set-up first, so the memory peak holds one set of inputs.
        drop(last.take());
        let start = Instant::now();
        let mut w = workloads::setup(&args.workload, spec)?;
        tally.attempt(|| w.run());
        times.push(start.elapsed().as_secs_f64());
        if let Some(sink) = sink {
            let mut v = trace::aggregate(&sink.take()).values(true);
            // The warm-up's spans belong to the operation, not to set-up.
            v.retain(|k, _| ["graph.generate_ms", "graph.io_write_ms"].contains(k));
            traced.push(v);
        }
        last = Some(w);
    }
    Ok(SetUp {
        workload: last.expect("at least one set-up"),
        seconds: median(times),
        layers: medians(&traced),
    })
}

/// Runs checked operations for `seconds` (and at least `min_reps`), calling `after`
/// with each successful one.
fn repeat(
    w: &mut dyn Workload,
    tally: &mut Tally,
    seconds: f64,
    min_reps: usize,
    mut after: impl FnMut(&Rep),
) -> Result<Vec<Rep>, String> {
    let start = Instant::now();
    let mut reps = Vec::new();
    let mut tries = 0;
    while tries < min_reps || start.elapsed().as_secs_f64() < seconds {
        tries += 1;
        if let Some(rep) = tally.attempt(|| w.run()) {
            after(&rep);
            reps.push(rep);
        }
    }
    if reps.is_empty() {
        return Err("every operation failed; nothing to measure".into());
    }
    Ok(reps)
}

fn thread_pool(threads: usize) -> Result<rayon::ThreadPool, String> {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .map_err(|e| e.to_string())
}

fn measure(args: &Args) -> Result<Outcome, String> {
    let dir = WorkDir::create(&args.workload)?;
    let spec = Spec {
        seed: args.seed,
        tiny: args.tiny,
        dir: &dir.0,
    };
    let pool = thread_pool(1)?;
    if args.trace {
        measure_layers(args, &spec, &pool)
    } else {
        pool.install(|| measure_end_to_end(args, &spec))
    }
}

/// The untraced run: set-up time, the median operation, peak memory, then the
/// quality check.
fn measure_end_to_end(args: &Args, spec: &Spec<'_>) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let SetUp {
        workload: mut w,
        seconds: setup_s,
        ..
    } = set_up(args, spec, &mut tally, None)?;
    let reps = repeat(w.as_mut(), &mut tally, args.seconds, MIN_REPS, |_| {})?;
    // Taken before the quality check, which builds structures the operation never does.
    let peak_heap_bytes = heap::peak_bytes() as f64;
    let max_rss_bytes = peak_rss_bytes()?;
    let mut values = medians(reps.iter().map(|r| &r.values));
    if let Some(cert) = w.certify() {
        values.extend(tally.record(cert).unwrap_or_default());
    }
    values.extend([
        ("setup_s", setup_s),
        ("op_s", walls(&reps)),
        ("peak_heap_bytes", peak_heap_bytes),
        ("max_rss_bytes", max_rss_bytes),
    ]);
    Ok(Outcome {
        tally,
        table: END_TO_END,
        values,
    })
}

/// The traced run. Its time is split in three: untraced operations (the baseline of
/// the overhead and speed-up ratios), traced operations (the per-layer sums), and
/// operations in a pool as wide as the machine. Probes and the quality check follow
/// under the trace.
fn measure_layers(
    args: &Args,
    spec: &Spec<'_>,
    pool: &rayon::ThreadPool,
) -> Result<Outcome, String> {
    let sink: &'static RecordingSink = Box::leak(Box::new(RecordingSink::new()));
    let phase = args.seconds / 3.0;
    let mut tally = Tally::default();
    let min_reps = MIN_REPS - 1;

    let (mut w, untraced, traced, traced_values) = pool.install(|| {
        sgs_obs::install(sink);
        let set = set_up(args, spec, &mut tally, Some(sink));
        sgs_obs::clear();
        let SetUp {
            workload: mut w,
            layers,
            ..
        } = set?;

        let untraced = repeat(w.as_mut(), &mut tally, phase, min_reps, |_| {})?;

        sgs_obs::install(sink);
        sink.take();
        let mut per_rep = Vec::new();
        let traced = repeat(w.as_mut(), &mut tally, phase, min_reps, |rep| {
            let t = trace::aggregate(&sink.take());
            let mut v = t.values(false);
            v.insert("obs.events", t.events as f64);
            v.insert(
                "obs.unattributed_share",
                1.0 - t.attributed_ms / (rep.wall_s * 1e3),
            );
            per_rep.push(v);
        });
        sgs_obs::clear();
        let traced = traced?;

        let mut values = medians(untraced.iter().map(|r| &r.values));
        values.extend(medians(&per_rep));
        values.extend(layers);
        Ok::<_, String>((w, untraced, traced, values))
    })?;

    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let wide = thread_pool(threads)?;
    let wide_reps = wide.install(|| repeat(w.as_mut(), &mut tally, phase, min_reps, |_| {}))?;

    let mut values = traced_values;
    values.insert("max_rss_bytes", peak_rss_bytes()?);
    pool.install(|| {
        sgs_obs::install(sink);
        sink.take();
        let mut rounds = Vec::with_capacity(PROBE_ROUNDS);
        for _ in 0..PROBE_ROUNDS {
            let mut probed = tally.attempt(|| w.probes()).unwrap_or_default();
            probed.extend(trace::aggregate(&sink.take()).values(true));
            rounds.push(probed);
        }
        let cert = w.certify().and_then(|c| tally.record(c));
        sgs_obs::clear();
        values.extend(medians(&rounds));
        values.extend(trace::aggregate(&sink.take()).values(true));
        values.extend(cert.unwrap_or_default());
    });

    if let Some(&sample) = values.get("core.sample_ms") {
        let parts: f64 = ["spanner.engine_build_ms", "spanner.bundle_ms"]
            .iter()
            .filter_map(|k| values.get(k))
            .sum();
        values.insert("core.sample_rest_ms", sample - parts);
    }
    let base = walls(&untraced);
    values.insert("obs.overhead_ratio", walls(&traced) / base);
    values.insert("exec.nproc_speedup", base / walls(&wide_reps));
    Ok(Outcome {
        tally,
        table: PER_LAYER,
        values,
    })
}
