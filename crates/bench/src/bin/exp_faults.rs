//! Experiment E8 — fault tolerance: loss rate vs output quality and overhead.
//!
//! Sweeps i.i.d. message-loss rates over the distributed spanner in two transports:
//!
//! * **raw** — faults hit the protocol directly; the construction degrades gracefully
//!   (terminates, stays connected) but the spanner may grow and stretch may worsen;
//! * **ft** — the reliable ack/retransmit layer (default retry budget) recovers lost
//!   messages, trading extra rounds/messages for clean output.
//!
//! Columns report output quality (`m_out`, `max_stretch`, `connected`) and cost
//! (`rounds`, `messages`, overhead ratios vs the loss-free baseline, plus the
//! fault/recovery counters).
//!
//! Run with: `cargo run --release -p sgs-bench --bin exp_faults [--json]
//! [--loss 0,0.05,0.10] [--json-out PATH]`

use sgs_bench::{print_table, Cli, Row, Workload};
use sgs_distributed::{distributed_spanner, DistSpannerConfig, FaultPlan, ReliabilityConfig};
use sgs_graph::{connectivity, stretch, Graph};

fn loss_rates(cli: &Cli) -> Vec<f64> {
    cli.value("--loss")
        .map(|v| {
            v.split(',')
                .map(|t| {
                    t.trim()
                        .parse()
                        .expect("--loss takes a comma list of rates")
                })
                .collect()
        })
        .unwrap_or_else(|| vec![0.0, 0.02, 0.05, 0.10, 0.20])
}

fn run(
    g: &Graph,
    seed: u64,
    loss: f64,
    ft: bool,
) -> (usize, f64, bool, sgs_distributed::NetworkMetrics) {
    let mut cfg = DistSpannerConfig::with_seed(seed);
    if loss > 0.0 {
        cfg = cfg.with_faults(FaultPlan::iid_loss(seed ^ 0xFA_17, loss));
    }
    if ft {
        cfg = cfg.with_fault_tolerance(ReliabilityConfig::default());
    }
    let r = distributed_spanner(g, &cfg);
    let h = g.with_edge_ids(&r.edge_ids);
    let s = stretch::max_stretch(g, &h);
    (
        r.edge_ids.len(),
        s,
        connectivity::is_connected(&h),
        r.metrics,
    )
}

fn main() {
    let cli = Cli::parse();
    let seed = cli.seed(3);
    let losses = loss_rates(&cli);
    let workload = Workload::ErdosRenyi { n: 400, deg: 16 };
    let g = workload.build(9);
    println!(
        "fault sweep input: {} (n = {}, m = {})",
        workload.label(),
        g.n(),
        g.m()
    );

    let mut all_rows = Vec::new();
    for ft in [false, true] {
        let transport = if ft { "ft" } else { "raw" };
        // Loss-free baseline for overhead ratios (per transport: the reliable layer
        // pays its ack traffic even on a clean network).
        let (_, _, _, base) = run(&g, seed, 0.0, ft);
        let mut rows = Vec::new();
        for &loss in &losses {
            let (m_out, s, connected, metrics) = run(&g, seed, loss, ft);
            rows.push(
                Row::new(format!("loss={loss:.2} {transport}"))
                    .push("m_out", m_out as f64)
                    .push("max_stretch", s)
                    .push("connected", if connected { 1.0 } else { 0.0 })
                    .push("rounds", metrics.rounds as f64)
                    .push("messages", metrics.messages as f64)
                    .push("rounds_x", metrics.rounds as f64 / base.rounds as f64)
                    .push("messages_x", metrics.messages as f64 / base.messages as f64)
                    .push("dropped", metrics.dropped as f64)
                    .push("retransmits", metrics.retransmits as f64)
                    .push("acks", metrics.acks as f64)
                    .push("dup_suppressed", metrics.dup_suppressed as f64)
                    .push("abandoned", metrics.abandoned as f64),
            );
        }
        let title = if ft {
            "E8b: loss vs quality/overhead behind the reliable delivery layer (default retry budget)"
        } else {
            "E8a: loss vs quality/overhead on the raw transport (graceful degradation)"
        };
        print_table(title, &rows);
        all_rows.extend(rows);
    }

    cli.write_json_out(&all_rows);
}
