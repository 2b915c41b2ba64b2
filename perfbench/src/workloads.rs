//! The four workloads. Each one is set up from the seed, runs one checked operation
//! per [`Workload::run`], certifies its output outside the timed region, and offers
//! single-call layer probes for the traced run.
//!
//! A run's figures must not hinge on one random draw, so each workload generates
//! [`INPUTS`] inputs and operation `i` runs on input `i mod INPUTS`. Where outputs
//! need not repeat, operation `i` also draws its own algorithm seed. Everything
//! derives from the run's seed, so the same seed gives the same operations.

use std::path::{Path, PathBuf};
use std::time::Instant;

use sgs_core::{parallel_sample, parallel_sparsify, BundleSizing, SamplingPolicy, SparsifyConfig};
use sgs_distributed::{
    distributed_spanner, distributed_sparsify, distributed_sparsify_with_faults, DistSpannerConfig,
    FaultConfig, FaultPlan, ReliabilityConfig,
};
use sgs_graph::connectivity::is_connected;
use sgs_graph::io::{read_bin_file, write_bin_file, BinEdgeReader, BinEdgeWriter};
use sgs_graph::{generators, Edge, Graph, GraphError};
use sgs_linalg::approximation_bounds;
use sgs_linalg::cg::LinearOperator;
use sgs_linalg::resistance::approx_effective_resistances;
use sgs_linalg::spectral::CertifyOptions;
use sgs_solver::{ChainScratch, SddSolver, SolveOutcome, SolverConfig, SolverMethod};
use sgs_spanner::{t_bundle_on_engine, BundleConfig, SpannerEngine};
use sgs_stream::store::EDGE_BYTES;
use sgs_stream::{FinalPassConfig, SpillConfig, StreamConfig, StreamSparsifier};

use crate::trace::{layer, layer_reps};
use crate::{median, Values};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: &[&str] = &[
    "sparsify-dense",
    "stream-spill",
    "solve-image",
    "congest-loss",
];

/// Inputs generated per workload; operations cycle through them.
pub const INPUTS: usize = 4;

/// What a workload is built from.
pub struct Spec<'a> {
    pub seed: u64,
    /// Self-test sizes: every workload shrunk to run in well under a second.
    pub tiny: bool,
    /// Per-run directory, under the working directory, for SGSB inputs and spill files.
    pub dir: &'a Path,
}

/// One checked operation: its wall time and the values it reports.
pub struct Rep {
    pub wall_s: f64,
    pub values: Values,
}

pub trait Workload {
    /// Runs the next operation, timed around the library calls only, then checks
    /// its output. A failed check is an error.
    fn run(&mut self) -> Result<Rep, String>;

    /// Certifies the last output against its input, outside the timed region.
    fn certify(&self) -> Option<Result<Values, String>> {
        None
    }

    /// Single calls into the layers the operation uses, for the traced run.
    fn probes(&mut self) -> Result<Values, String>;
}

/// Builds workload `name`: generates its inputs and writes them as SGSB files.
pub fn setup(name: &str, spec: &Spec<'_>) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "sparsify-dense" => Box::new(SparsifyDense::new(spec)?),
        "stream-spill" => Box::new(StreamSpill::new(spec)?),
        "solve-image" => Box::new(SolveImage::new(spec)?),
        "congest-loss" => Box::new(CongestLoss::new(spec)?),
        _ => {
            return Err(format!(
                "unknown workload {name:?}; expected one of {NAMES:?}"
            ))
        }
    })
}

fn graph_err(e: GraphError) -> String {
    format!("GraphError: {e}")
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const INPUT_STREAM: u64 = 1;
const OP_STREAM: u64 = 2;
const RHS_STREAM: u64 = 3;

/// Seed number `i` of one of a run's seed streams.
fn derive(seed: u64, stream: u64, i: u64) -> u64 {
    splitmix64(splitmix64(seed ^ stream) ^ i)
}

/// Which input and which algorithm seed the next operation uses.
struct Rotation {
    seed: u64,
    ops: u64,
}

impl Rotation {
    fn new(seed: u64) -> Rotation {
        Rotation { seed, ops: 0 }
    }

    fn next(&mut self) -> (usize, u64) {
        let i = self.ops;
        self.ops += 1;
        (
            (i % INPUTS as u64) as usize,
            derive(self.seed, OP_STREAM, i),
        )
    }
}

/// `INPUTS` seeded graphs, each written to an SGSB file and read back, so the
/// engines consume what the files hold.
fn inputs(spec: &Spec<'_>, generate: impl Fn(u64) -> Graph) -> Result<Vec<Graph>, String> {
    (0..INPUTS)
        .map(|k| {
            let g = layer("bench.graph.generate", || {
                generate(derive(spec.seed, INPUT_STREAM, k as u64))
            });
            let path = spec.dir.join(format!("input-{k}.sgsb"));
            layer("bench.graph.io_write", || write_bin_file(&g, &path)).map_err(graph_err)?;
            read_bin_file(&path).map_err(graph_err)
        })
        .collect()
}

fn er(n: usize, deg: usize, seed: u64) -> Graph {
    let p = (deg as f64 / (n as f64 - 1.0)).min(1.0);
    generators::erdos_renyi(n, p, 1.0, seed)
}

/// The output keeps every vertex and is connected.
fn check_spanning(h: &Graph, n: usize, what: &str) -> Result<(), String> {
    if h.n() != n {
        return Err(format!("{what} has {} vertices, expected {n}", h.n()));
    }
    if !is_connected(h) {
        return Err(format!("{what} is disconnected"));
    }
    Ok(())
}

/// `m_out` and `spectral_kappa` = λmax/λmin of `approximation_bounds(g, h)`.
fn certify(g: &Graph, h: &Graph) -> Result<Values, String> {
    let b = layer("bench.linalg.cert", || {
        approximation_bounds(g, h, &CertifyOptions::default())
    });
    let kappa = b.upper / b.lower;
    if !(b.lower > 0.0 && kappa.is_finite()) {
        return Err(format!("certification failed: {b:?}"));
    }
    Ok(Values::from([
        ("m_out", h.m() as f64),
        ("spectral_kappa", kappa),
    ]))
}

/// `parallel_sparsify` (ε = 0.75, ρ = 8, t = 4) on dense Erdős–Rényi graphs.
struct SparsifyDense {
    inputs: Vec<Graph>,
    rotation: Rotation,
    /// The last output and the input it came from.
    last: Option<(usize, Graph)>,
}

fn sparsify_config(seed: u64) -> SparsifyConfig {
    SparsifyConfig::new(0.75, 8.0)
        .with_bundle_sizing(BundleSizing::Fixed(4))
        .with_seed(seed)
}

impl SparsifyDense {
    fn new(spec: &Spec<'_>) -> Result<Self, String> {
        let (n, deg) = if spec.tiny { (300, 30) } else { (4000, 150) };
        Ok(SparsifyDense {
            inputs: inputs(spec, |seed| er(n, deg, seed))?,
            rotation: Rotation::new(spec.seed),
            last: None,
        })
    }
}

impl Workload for SparsifyDense {
    fn run(&mut self) -> Result<Rep, String> {
        let (k, seed) = self.rotation.next();
        let g = &self.inputs[k];
        let cfg = sparsify_config(seed);
        let start = Instant::now();
        let out = parallel_sparsify(g, &cfg);
        let wall_s = start.elapsed().as_secs_f64();
        check_spanning(&out.sparsifier, g.n(), "sparsifier")?;
        let values = Values::from([
            ("sparsify_s", wall_s),
            ("m_out", out.sparsifier.m() as f64),
            ("core.rounds", out.rounds_executed as f64),
            ("spanner.work_ops", out.stats.spanner_work as f64),
        ]);
        self.last = Some((k, out.sparsifier));
        Ok(Rep { wall_s, values })
    }

    fn certify(&self) -> Option<Result<Values, String>> {
        let (k, h) = self.last.as_ref()?;
        Some(certify(&self.inputs[*k], h))
    }

    fn probes(&mut self) -> Result<Values, String> {
        let g = &self.inputs[0];
        let cfg = sparsify_config(self.rotation.seed);
        let mut engine = layer("bench.spanner.engine_build", || {
            SpannerEngine::from_graph(g)
        });
        let bundle = layer("bench.spanner.bundle", || {
            t_bundle_on_engine(&mut engine, &BundleConfig::new(4).with_seed(cfg.seed))
        });
        layer("bench.core.sample", || parallel_sample(g, &cfg));
        Ok(Values::from([(
            "spanner.bundle_edges",
            bundle.bundle_size as f64,
        )]))
    }
}

/// Generated edge streams read back from SGSB into `StreamSparsifier` under
/// `SpillStore`, with ER interior sampling and the ER final pass. Each input keeps
/// one configuration, because every repetition must reproduce the input's first
/// output exactly.
struct StreamSpill {
    n: usize,
    batch_edges: usize,
    /// Per input: the SGSB file, its configuration and its first output.
    inputs: Vec<(PathBuf, StreamConfig, Option<Vec<Edge>>)>,
    rotation: Rotation,
    last: Option<(usize, Graph)>,
}

impl StreamSpill {
    fn new(spec: &Spec<'_>) -> Result<Self, String> {
        let (n, total, tree_budget, store_budget, batch_edges) = if spec.tiny {
            (200, 20_000, 4_000, 500, 2_048)
        } else {
            (1000, 600_000, 100_000, 12_500, 65_536)
        };
        let mut inputs = Vec::with_capacity(INPUTS);
        for k in 0..INPUTS {
            let seed = derive(spec.seed, INPUT_STREAM, k as u64);
            let path = spec.dir.join(format!("stream-{k}.sgsb"));
            let mut writer = BinEdgeWriter::create(&path, n, total).map_err(graph_err)?;
            let mut edges = generators::streaming_edges(n, total, seed);
            let mut batch = Vec::with_capacity(batch_edges);
            loop {
                batch.clear();
                layer("bench.graph.generate", || {
                    batch.extend(edges.by_ref().take(batch_edges))
                });
                if batch.is_empty() {
                    break;
                }
                layer("bench.graph.io_write", || writer.write_batch(&batch)).map_err(graph_err)?;
            }
            layer("bench.graph.io_write", || writer.finish()).map_err(graph_err)?;
            let cfg = StreamConfig::new(0.75, tree_budget)
                .with_bundle_sizing(BundleSizing::Fixed(2))
                .with_seed(splitmix64(seed))
                .with_interior_sampling(SamplingPolicy::effective_resistance(8, 1e-4))
                .with_final_pass(FinalPassConfig::new().with_oversample(0.02))
                .with_spill(SpillConfig::new(store_budget * EDGE_BYTES).with_directory(spec.dir));
            inputs.push((path, cfg, None));
        }
        Ok(StreamSpill {
            n,
            batch_edges,
            inputs,
            rotation: Rotation::new(spec.seed),
            last: None,
        })
    }
}

impl Workload for StreamSpill {
    fn run(&mut self) -> Result<Rep, String> {
        let (k, _) = self.rotation.next();
        let batch_edges = self.batch_edges;
        let (path, cfg, first) = &mut self.inputs[k];
        let start = Instant::now();
        let mut reader = BinEdgeReader::open(path).map_err(graph_err)?;
        let mut stream = StreamSparsifier::new(reader.n(), cfg.clone());
        let mut batch = Vec::with_capacity(batch_edges);
        loop {
            batch.clear();
            let read = layer("bench.graph.io_read", || {
                reader.next_batch(batch_edges, &mut batch)
            })
            .map_err(graph_err)?;
            if read == 0 {
                break;
            }
            layer("bench.stream.ingest", || stream.ingest_batch(&batch)).map_err(graph_err)?;
        }
        let out = layer("bench.stream.finish", || stream.finish());
        let wall_s = start.elapsed().as_secs_f64();

        check_spanning(&out.sparsifier, self.n, "stream sparsifier")?;
        let first = first.get_or_insert_with(|| out.sparsifier.edges().to_vec());
        if first.as_slice() != out.sparsifier.edges() {
            return Err(format!("stream output differs from input {k}'s first run"));
        }
        let s = &out.stats;
        let values = Values::from([
            ("stream_s", wall_s),
            ("m_out", out.sparsifier.m() as f64),
            ("peak_resident_bytes", s.peak_resident_bytes as f64),
            ("stream.leaves", s.leaves as f64),
            (
                "stream.reductions",
                s.levels.iter().map(|l| l.reductions).sum::<u64>() as f64,
            ),
            ("stream.forced", s.forced_reductions as f64),
            ("stream.eps_spent", s.epsilon_spent()),
            ("stream.spill_bytes", s.spill.spilled_bytes as f64),
            ("stream.readback_bytes", s.spill.readback_bytes as f64),
            ("stream.spilled_nodes", s.spill.spilled_nodes as f64),
            (
                "core.er_solves",
                s.er_pass.as_ref().map_or(0, |p| p.solves) as f64,
            ),
            (
                "spanner.work_ops",
                s.levels.iter().map(|l| l.spanner_work).sum::<u64>() as f64,
            ),
        ]);
        self.last = Some((k, out.sparsifier));
        Ok(Rep { wall_s, values })
    }

    fn certify(&self) -> Option<Result<Values, String>> {
        let (k, h) = self.last.as_ref()?;
        let g = read_bin_file(&self.inputs[*k].0).map_err(graph_err);
        Some(g.and_then(|g| certify(&g, h)))
    }

    fn probes(&mut self) -> Result<Values, String> {
        let (_, h) = self.last.as_ref().ok_or("no stream output to probe")?;
        layer("bench.linalg.er_estimate", || {
            approx_effective_resistances(h, 1.0, self.rotation.seed)
        });
        Ok(Values::new())
    }
}

/// Chain-PCG (Section 4) on synthetic image-affinity grids.
struct SolveImage {
    /// Per input: the grid and its right-hand sides.
    inputs: Vec<(Graph, Vec<Vec<f64>>)>,
    rotation: Rotation,
    /// The last solver and the input it was built for.
    last: Option<(usize, SddSolver)>,
}

/// Seeded right-hand side with entries in [-1, 1), shifted to sum to zero.
fn rhs(n: usize, seed: u64) -> Vec<f64> {
    let mut b: Vec<f64> = (0..n as u64)
        .map(|i| (splitmix64(seed ^ splitmix64(i)) >> 11) as f64 / (1u64 << 52) as f64 - 1.0)
        .collect();
    let mean = b.iter().sum::<f64>() / n as f64;
    b.iter_mut().for_each(|x| *x -= mean);
    b
}

const SOLVE_TOLERANCE: f64 = 1e-8;
/// SPMV applies timed in one span: a single apply on the grid is a few microseconds.
const SPMV_REPS: u64 = 1000;

impl SolveImage {
    fn new(spec: &Spec<'_>) -> Result<Self, String> {
        let (side, systems) = if spec.tiny { (12, 2) } else { (48, 3) };
        let grids = inputs(spec, |seed| {
            generators::image_affinity_grid(side, side, 80.0, seed)
        })?;
        let inputs = grids
            .into_iter()
            .enumerate()
            .map(|(k, g)| {
                let rhs = (0..systems)
                    .map(|j| {
                        rhs(
                            g.n(),
                            derive(spec.seed, RHS_STREAM, (k * systems + j) as u64),
                        )
                    })
                    .collect();
                (g, rhs)
            })
            .collect();
        Ok(SolveImage {
            inputs,
            rotation: Rotation::new(spec.seed),
            last: None,
        })
    }
}

impl Workload for SolveImage {
    fn run(&mut self) -> Result<Rep, String> {
        let (k, seed) = self.rotation.next();
        let (g, rhs) = &self.inputs[k];
        let mut cfg = SolverConfig {
            tolerance: SOLVE_TOLERANCE,
            ..SolverConfig::default()
        };
        cfg.chain.seed = seed;
        let g = g.clone();
        let start = Instant::now();
        let solver = SddSolver::for_laplacian(g, cfg);
        let build_s = start.elapsed().as_secs_f64();
        let mut outcomes = Vec::with_capacity(rhs.len());
        let mut solve_s = Vec::with_capacity(rhs.len());
        for b in rhs {
            let t = Instant::now();
            outcomes.push(solver.solve(b));
            solve_s.push(t.elapsed().as_secs_f64());
        }
        let wall_s = start.elapsed().as_secs_f64();

        for out in &outcomes {
            if !out.converged || out.relative_residual > SOLVE_TOLERANCE {
                return Err(format!(
                    "chain-PCG stopped at relative residual {:e} after {} iterations",
                    out.relative_residual, out.iterations
                ));
            }
        }
        let chain = solver.chain().ok_or("solver built no chain")?;
        let of = |f: fn(&SolveOutcome) -> f64| median(outcomes.iter().map(f).collect());
        let values = Values::from([
            ("chain_build_s", build_s),
            ("solve_s", median(solve_s)),
            ("solver.chain_depth", chain.depth() as f64),
            ("solver.chain_edges", chain.total_edges() as f64),
            (
                "solver.chain_edges_per_m",
                chain.total_edges() as f64 / solver.system().m() as f64,
            ),
            ("solver.pcg_iters", of(|o| o.iterations as f64)),
            (
                "solver.precond_applies",
                of(|o| o.stats.preconditioner_applies as f64),
            ),
        ]);
        self.last = Some((k, solver));
        Ok(Rep { wall_s, values })
    }

    fn probes(&mut self) -> Result<Values, String> {
        let (k, solver) = self.last.as_ref().ok_or("no solver to probe")?;
        let chain = solver.chain().ok_or("solver built no chain")?;
        let b = &self.inputs[*k].1[0];
        let mut out = vec![0.0; b.len()];
        let mut scratch = ChainScratch::new();
        layer("bench.solver.apply_inverse", || {
            chain.apply_inverse_in(b, &mut out, &mut scratch)
        });
        let system = solver.system();
        layer_reps("bench.linalg.spmv", SPMV_REPS, || {
            system.apply_into(b, &mut out)
        });
        let jacobi = layer("bench.solver.jacobi_pcg", || {
            solver.solve_with(b, SolverMethod::JacobiPcg)
        });
        if !jacobi.converged {
            return Err("Jacobi-PCG reference did not converge".into());
        }
        // Computed, not measured: each edge record (24 bytes) is read once, and x,
        // y and the excess diagonal are touched once per vertex.
        let spmv_bytes = 24 * system.m() + 24 * system.n();
        Ok(Values::from([
            ("linalg.spmv_bytes", spmv_bytes as f64),
            ("solver.jacobi_iters", jacobi.iterations as f64),
        ]))
    }
}

/// `distributed_sparsify` (ε = 0.75, ρ = 4, t = 2) once clean and once under 5%
/// i.i.d. message loss behind the reliable-delivery layer; the lossy run must
/// recover the clean output exactly.
struct CongestLoss {
    inputs: Vec<Graph>,
    rotation: Rotation,
    last: Option<(usize, Graph)>,
}

/// Reliable delivery that recovers every message at 5% loss. The default budget of
/// 4 retransmissions abandons about 30 of the 3M messages of one lossy run, which
/// changes the output on some seeds; 12 fixed-timeout retries make abandonment
/// (≈ 0.1¹³ per message) negligible, and without backoff the waits stay short.
const RELIABILITY: ReliabilityConfig = ReliabilityConfig {
    timeout_rounds: 2,
    retry_budget: 12,
    backoff: false,
    max_subrounds: 512,
};

fn congest_config(seed: u64) -> SparsifyConfig {
    SparsifyConfig::new(0.75, 4.0)
        .with_bundle_sizing(BundleSizing::Fixed(2))
        .with_seed(seed)
}

impl CongestLoss {
    fn new(spec: &Spec<'_>) -> Result<Self, String> {
        let (n, deg) = if spec.tiny { (200, 16) } else { (2000, 60) };
        Ok(CongestLoss {
            inputs: inputs(spec, |seed| er(n, deg, seed))?,
            rotation: Rotation::new(spec.seed),
            last: None,
        })
    }
}

impl Workload for CongestLoss {
    fn run(&mut self) -> Result<Rep, String> {
        let (k, seed) = self.rotation.next();
        let g = &self.inputs[k];
        let cfg = congest_config(seed);
        let faults = FaultConfig {
            plan: FaultPlan::iid_loss(splitmix64(seed), 0.05),
            reliability: Some(RELIABILITY),
        };
        let start = Instant::now();
        let clean = distributed_sparsify(g, &cfg);
        let clean_s = start.elapsed().as_secs_f64();
        let t = Instant::now();
        let lossy = distributed_sparsify_with_faults(g, &cfg, &faults);
        let lossy_s = t.elapsed().as_secs_f64();
        let wall_s = start.elapsed().as_secs_f64();

        check_spanning(&clean.sparsifier, g.n(), "clean sparsifier")?;
        if lossy.sparsifier.edges() != clean.sparsifier.edges() {
            return Err("lossy run did not recover the clean output".into());
        }
        let (c, l) = (&clean.metrics, &lossy.metrics);
        let values = Values::from([
            ("congest_s", clean_s),
            ("congest_ft_s", lossy_s),
            ("congest_rounds", c.rounds as f64),
            ("congest_ft_rounds", l.rounds as f64),
            ("congest_messages", c.messages as f64),
            ("m_out", clean.sparsifier.m() as f64),
            ("distributed.retransmits", l.retransmits as f64),
            ("distributed.acks", l.acks as f64),
            ("distributed.dropped", l.dropped as f64),
            ("distributed.abandoned", l.abandoned as f64),
            (
                "distributed.useful_ratio",
                c.messages as f64 / l.messages as f64,
            ),
        ]);
        self.last = Some((k, clean.sparsifier));
        Ok(Rep { wall_s, values })
    }

    fn certify(&self) -> Option<Result<Values, String>> {
        let (k, h) = self.last.as_ref()?;
        Some(certify(&self.inputs[*k], h))
    }

    fn probes(&mut self) -> Result<Values, String> {
        let g = &self.inputs[0];
        layer("bench.distributed.spanner", || {
            distributed_spanner(g, &DistSpannerConfig::with_seed(self.rotation.seed))
        });
        Ok(Values::new())
    }
}
