//! Per-layer numbers summed from what the library's public calls return:
//! `BfsResult.{level_trace, records, report, recovery}`, `MultiBfsResult`
//! and `BatchReport`. Nothing here reads the library's internals.

use enterprise::{BatchReport, LevelRecord, RecoveryReport};
use gpu_sim::{DeviceReport, FaultStats, KernelRecord};

/// Sums over every op of a run. Simulated milliseconds are summed here
/// and reported as means per op; counts are reported as run totals.
#[derive(Default)]
pub struct Layers {
    pub td_levels: u64,
    pub bu_levels: u64,
    pub expand_ms: f64,
    pub queue_gen_ms: f64,
    pub run_ms: f64,
    /// Σ kernel `time_ms` of the Thread, Warp, CTA and Grid expand
    /// kernels, top-down and bottom-up together.
    pub class_ms: [f64; 4],
    pub scan_ms: f64,
    pub filter_copy_ms: f64,
    pub hub_ms: f64,
    pub kernels: u64,
    pub warp_instructions: u64,
    pub gld_transactions: u64,
    pub transactions: u64,
    pub l2_hits: u64,
    pub dram_transactions: u64,
    pub shared_accesses: u64,
    pub lane_instructions: u64,
    pub lane_slots: u64,
    /// Σ ipc × cycles and Σ cycles, for a cycle-weighted IPC.
    pub ipc_cycles: f64,
    pub cycles: f64,
    pub comm_bytes: u64,
    pub comm_edges: u64,
    pub batch_ms: f64,
    pub lane_ms: f64,
    pub sources: u64,
    pub completed: u64,
    pub hedge_wins: u64,
    pub poisoned: u64,
    pub shed: u64,
    pub retries: u64,
    pub hedges: u64,
    pub batch_backoff_ms: f64,
    pub rec: RecoverySums,
}

/// Every numeric field of `RecoveryReport` and `FaultStats` the
/// benchmark reports, summed over ok results.
#[derive(Default)]
pub struct RecoverySums {
    pub levels_replayed: u64,
    pub exchange_retries: u64,
    pub cpu_fallbacks: u64,
    pub link_retries: u64,
    pub link_reroutes: u64,
    pub host_bounces: u64,
    pub link_verdict_hits: u64,
    pub backoff_ms: f64,
    pub rebalances: u64,
    pub rebalance_ms: f64,
    pub devices_lost: u64,
    pub link_isolated: u64,
    pub repartition_ms: f64,
    pub sdc_detected: u64,
    pub sdc_repaired: u64,
    pub validation_replays: u64,
    pub faults_injected: u64,
}

/// The strict no-op gate: with every plane off, a run must report no
/// recovery and no injected or retried fault of any kind.
pub fn is_quiet(r: &RecoveryReport, device_faults: Option<&FaultStats>) -> bool {
    *r == RecoveryReport::default() && device_faults.is_none_or(|f| *f == FaultStats::default())
}

impl Layers {
    pub fn add_levels(&mut self, trace: &[LevelRecord], run_ms: f64) {
        // A level record names the direction of the *next* level; the
        // first level always runs top-down.
        let mut dir = "top-down";
        for l in trace {
            if dir == "top-down" {
                self.td_levels += 1;
            } else {
                self.bu_levels += 1;
            }
            dir = l.direction;
            self.expand_ms += l.expand_ms;
            self.queue_gen_ms += l.queue_gen_ms;
        }
        self.run_ms += run_ms;
    }

    pub fn add_device(&mut self, records: &[KernelRecord], report: &DeviceReport) {
        for k in records {
            let base = k.name.strip_suffix("(bu)").unwrap_or(&k.name);
            match base {
                "Thread" => self.class_ms[0] += k.time_ms,
                "Warp" => self.class_ms[1] += k.time_ms,
                "CTA" => self.class_ms[2] += k.time_ms,
                "Grid" => self.class_ms[3] += k.time_ms,
                "filter_queues" | "copy_bins" => self.filter_copy_ms += k.time_ms,
                n if n.starts_with("scan_") || n == "reduce_warp_tiles" => {
                    self.scan_ms += k.time_ms
                }
                n if n.contains("hub") => self.hub_ms += k.time_ms,
                _ => {}
            }
            self.lane_instructions += k.lane_instructions;
            self.lane_slots += k.lane_slots;
        }
        self.kernels += report.kernels as u64;
        self.warp_instructions += report.warp_instructions;
        self.gld_transactions += report.gld_transactions;
        self.transactions += report.gld_transactions + report.gst_transactions;
        self.l2_hits += report.l2_hits;
        self.dram_transactions += report.dram_transactions;
        self.shared_accesses += report.shared_accesses;
        self.ipc_cycles += report.ipc * report.total_cycles;
        self.cycles += report.total_cycles;
    }

    pub fn add_recovery(&mut self, r: &RecoveryReport) {
        let s = &mut self.rec;
        s.levels_replayed += u64::from(r.levels_replayed);
        s.exchange_retries += u64::from(r.exchange_retries);
        s.cpu_fallbacks += u64::from(r.cpu_fallback);
        s.link_retries += u64::from(r.link_retries);
        s.link_reroutes += u64::from(r.link_reroutes);
        s.host_bounces += u64::from(r.host_bounces);
        s.link_verdict_hits += u64::from(r.link_verdict_hits);
        s.backoff_ms += r.backoff_ms;
        s.rebalances += u64::from(r.rebalances);
        s.rebalance_ms += r.rebalance_ms;
        s.devices_lost += r.devices_lost.len() as u64;
        s.link_isolated += r.link_isolated.len() as u64;
        s.repartition_ms += r.repartition_ms;
        s.sdc_detected += r.sdc_detected;
        s.sdc_repaired += r.sdc_repaired;
        s.validation_replays += u64::from(r.validation_replays);
        s.faults_injected += r.faults.total_faults();
    }

    pub fn add_batch<R>(&mut self, r: &BatchReport<R>) {
        self.batch_ms += r.batch_ms;
        self.lane_ms += r.runs.iter().map(|s| s.time_ms).sum::<f64>();
        self.sources += r.sources as u64;
        self.completed += r.completed as u64;
        self.hedge_wins += r.hedge_wins as u64;
        self.poisoned += r.poisoned as u64;
        self.shed += r.shed as u64;
        self.retries += u64::from(r.retries);
        self.hedges += u64::from(r.hedges);
        self.batch_backoff_ms += r.backoff_ms;
    }

    /// Every per-layer metric computed from returned structs, as
    /// `(name, value, unit)`. `ops` turns simulated-ms sums into means
    /// per op.
    pub fn metrics(&self, ops: usize) -> Vec<(&'static str, f64, &'static str)> {
        let per_op = |ms: f64| ms / ops.max(1) as f64;
        let s = &self.rec;
        vec![
            ("direction.td_levels", self.td_levels as f64, "count"),
            ("direction.bu_levels", self.bu_levels as f64, "count"),
            ("kernels.expand_sim_ms", per_op(self.expand_ms), "ms"),
            ("kernels.thread_sim_ms", per_op(self.class_ms[0]), "ms"),
            ("kernels.warp_sim_ms", per_op(self.class_ms[1]), "ms"),
            ("kernels.cta_sim_ms", per_op(self.class_ms[2]), "ms"),
            ("kernels.grid_sim_ms", per_op(self.class_ms[3]), "ms"),
            ("frontier.queue_gen_sim_ms", per_op(self.queue_gen_ms), "ms"),
            (
                "frontier.queue_gen_fraction",
                ratio(self.queue_gen_ms, self.run_ms),
                "ratio",
            ),
            ("frontier.scan_sim_ms", per_op(self.scan_ms), "ms"),
            (
                "frontier.filter_copy_sim_ms",
                per_op(self.filter_copy_ms),
                "ms",
            ),
            ("state.hub_sim_ms", per_op(self.hub_ms), "ms"),
            (
                "gpu_sim.shared_accesses",
                self.shared_accesses as f64,
                "count",
            ),
            ("gpu_sim.kernels", self.kernels as f64, "count"),
            (
                "gpu_sim.warp_instructions",
                self.warp_instructions as f64,
                "count",
            ),
            (
                "gpu_sim.gld_transactions",
                self.gld_transactions as f64,
                "count",
            ),
            (
                "gpu_sim.dram_transactions",
                self.dram_transactions as f64,
                "count",
            ),
            (
                "gpu_sim.l2_hit_ratio",
                ratio(self.l2_hits as f64, self.transactions as f64),
                "ratio",
            ),
            (
                "gpu_sim.lane_efficiency",
                ratio(self.lane_instructions as f64, self.lane_slots as f64),
                "ratio",
            ),
            (
                "gpu_sim.ipc",
                ratio(self.ipc_cycles, self.cycles),
                "instr/cycle",
            ),
            (
                "multi.comm_bytes_per_edge",
                ratio(self.comm_bytes as f64, self.comm_edges as f64),
                "B/edge",
            ),
            ("batch.sim_ms", per_op(self.batch_ms), "ms"),
            (
                "batch.lane_overlap",
                ratio(self.lane_ms, self.batch_ms),
                "ratio",
            ),
            ("batch.retries", self.retries as f64, "count"),
            ("batch.hedges", self.hedges as f64, "count"),
            ("batch.hedge_wins", self.hedge_wins as f64, "count"),
            ("batch.poisoned", self.poisoned as f64, "count"),
            ("batch.shed", self.shed as f64, "count"),
            ("batch.backoff_sim_ms", per_op(self.batch_backoff_ms), "ms"),
            (
                "batch.useful_attempt_ratio",
                ratio(
                    (self.completed + self.hedge_wins) as f64,
                    (self.sources + self.retries + self.hedges) as f64,
                ),
                "ratio",
            ),
            (
                "recovery.levels_replayed",
                s.levels_replayed as f64,
                "count",
            ),
            (
                "recovery.exchange_retries",
                s.exchange_retries as f64,
                "count",
            ),
            ("recovery.cpu_fallbacks", s.cpu_fallbacks as f64, "count"),
            ("route.link_retries", s.link_retries as f64, "count"),
            ("route.link_reroutes", s.link_reroutes as f64, "count"),
            ("route.host_bounces", s.host_bounces as f64, "count"),
            (
                "route.link_verdict_hits",
                s.link_verdict_hits as f64,
                "count",
            ),
            ("route.backoff_sim_ms", per_op(s.backoff_ms), "ms"),
            ("rebalance.count", s.rebalances as f64, "count"),
            ("rebalance.sim_ms", per_op(s.rebalance_ms), "ms"),
            ("repartition.devices_lost", s.devices_lost as f64, "count"),
            ("repartition.link_isolated", s.link_isolated as f64, "count"),
            ("repartition.sim_ms", per_op(s.repartition_ms), "ms"),
            ("validate.sdc_detected", s.sdc_detected as f64, "count"),
            ("validate.sdc_repaired", s.sdc_repaired as f64, "count"),
            (
                "validate.repair_ratio",
                ratio(s.sdc_repaired as f64, s.sdc_detected as f64),
                "ratio",
            ),
            (
                "validate.validation_replays",
                s.validation_replays as f64,
                "count",
            ),
            ("fault.injected", s.faults_injected as f64, "count"),
        ]
    }
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
