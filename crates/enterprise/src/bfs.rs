//! The Enterprise BFS driver: level-synchronous traversal combining
//! streamlined queue generation (TS), four-granularity workload balancing
//! (WB), and the hub-vertex direction optimization (HC + γ).
//!
//! Feature toggles expose the Figure 13 ablation points: `TS` alone
//! (single queue at fixed warp granularity), `TS+WB`, and `TS+WB+HC`.

use crate::classify::ClassifyThresholds;
use crate::device_graph::DeviceGraph;
use crate::direction::{DirectionPolicy, SwitchDecision, SwitchSignals};
use crate::error::{BfsError, RecoveryPolicy, RecoveryReport};
use crate::frontier::{
    enqueue_seed, try_generate_queues, try_measure_total_hubs, GenWorkflow,
};
use crate::kernels::{try_expand_level, Direction};
use crate::persist::{
    DeviceCheckpoint, DriverKind, Durability, FleetRecord, GraphFingerprint, LayoutSnapshot,
    PersistPolicy, SnapshotStore,
};
use crate::repartition::{build_1d, rebuild_queues};
use crate::state::BfsState;
use crate::status::{levels_from_raw, NO_PARENT, UNVISITED};
use crate::validate::{audit, check_level, repair_vertices, validate, ValidationError, VerifyPolicy};
use crate::watchdog::{StallDetector, WatchdogPolicy};
use enterprise_graph::{stats::hub_threshold_for_capacity, Csr, VertexId};
use gpu_sim::{
    Device, DeviceConfig, DeviceError, DeviceMem, DeviceReport, EccMode, FaultBundle, FaultPlan,
    FaultSpec, KernelRecord,
};
use std::collections::VecDeque;

/// Configuration of an Enterprise instance.
#[derive(Clone, Debug)]
pub struct EnterpriseConfig {
    /// Simulated device preset.
    pub device: DeviceConfig,
    /// Out-degree classification thresholds (§4.2 defaults).
    pub thresholds: ClassifyThresholds,
    /// WB: classify into four queues serviced at matching granularity.
    /// Off = the TS-only ablation (single queue, warp granularity).
    pub workload_balancing: bool,
    /// HC: shared-memory hub-vertex cache for bottom-up levels.
    pub hub_cache: bool,
    /// Hub-cache slots (paper: ~1,000 ids in a 6 KB per-CTA allocation).
    pub hub_cache_entries: usize,
    /// Direction-switching policy (γ > 30% by default).
    pub policy: DirectionPolicy,
    /// Deterministic fault-injection plan for the device; `None` (the
    /// default) leaves the substrate fault-free and is a strict no-op on
    /// timing, counters and results.
    pub faults: Option<FaultSpec>,
    /// Bounds on checkpoint replay and retry-with-backoff recovery.
    pub recovery: RecoveryPolicy,
    /// Device-memory sanitizer: bounds, initialization and race checking
    /// on every kernel access. Defaults from the `GPU_SIM_SANITIZER`
    /// environment knob; `false` is a strict no-op on timing, counters
    /// and results.
    pub sanitize: bool,
    /// Traversal watchdog (deadlines and livelock detection). The default
    /// disabled policy is a strict no-op.
    pub watchdog: WatchdogPolicy,
    /// Silent-data-corruption verification ladder (end-of-level invariant
    /// checks, localized repair, end-of-run audit). The default disabled
    /// policy is a strict no-op on timing, counters and results.
    pub verify: VerifyPolicy,
    /// SECDED ECC mode of the simulated device memory. `Off` (the
    /// default) matches today's behaviour bit for bit; `On` absorbs
    /// single-bit upsets at a correction-latency and DRAM-bandwidth cost.
    pub ecc: EccMode,
    /// Background-scrubber cadence: scrub the device after every this
    /// many levels (clearing latent single-bit ECC errors before they
    /// pair into uncorrectable ones). `None` (the default) never scrubs.
    pub scrub_levels: Option<u32>,
    /// Crash-consistent persistence: when `Some`, the learned layout (hub
    /// census) is durably saved after each successful run and, if
    /// [`PersistPolicy::checkpoint_levels`] is set, a mid-traversal
    /// checkpoint is published at level boundaries so a killed process
    /// can resume. `None` (the default) is a strict no-op on timing,
    /// counters and results.
    pub persist: Option<PersistPolicy>,
}

impl Default for EnterpriseConfig {
    fn default() -> Self {
        Self {
            device: DeviceConfig::k40_repro(),
            thresholds: ClassifyThresholds::default(),
            workload_balancing: true,
            hub_cache: true,
            hub_cache_entries: 1024,
            policy: DirectionPolicy::gamma_default(),
            faults: None,
            recovery: RecoveryPolicy::default(),
            sanitize: gpu_sim::sanitizer::env_enabled(),
            watchdog: WatchdogPolicy::default(),
            verify: VerifyPolicy::disabled(),
            ecc: EccMode::Off,
            scrub_levels: None,
            persist: None,
        }
    }
}

impl EnterpriseConfig {
    /// The TS-only ablation point of Figure 13.
    pub fn ts_only() -> Self {
        Self { workload_balancing: false, hub_cache: false, ..Self::default() }
    }

    /// The TS+WB ablation point of Figure 13.
    pub fn ts_wb() -> Self {
        Self { hub_cache: false, ..Self::default() }
    }
}

/// One level of the traversal, for instrumentation (Figures 4, 8, 10).
#[derive(Clone, Debug)]
pub struct LevelRecord {
    /// Level index.
    pub level: u32,
    /// Direction the *next* level will run (decided by this level's
    /// queue generation).
    pub direction: &'static str,
    /// Frontiers generated for the next level, per class queue.
    pub sizes: [usize; 4],
    /// γ of the generated queue, in percent.
    pub gamma_pct: f64,
    /// Beamer's α for the generated queue (instrumentation).
    pub alpha: f64,
    /// Vertices discovered at this level's expansion.
    pub newly_visited: usize,
    /// Simulated milliseconds spent expanding this level.
    pub expand_ms: f64,
    /// Simulated milliseconds spent generating the next queue.
    pub queue_gen_ms: f64,
}

/// Result of one BFS run.
#[derive(Clone, Debug)]
pub struct BfsResult {
    /// BFS root.
    pub source: VertexId,
    /// Per-vertex BFS level (`None` = unreachable).
    pub levels: Vec<Option<u32>>,
    /// Per-vertex parent (`None` = unreachable; the source is its own
    /// parent).
    pub parents: Vec<Option<VertexId>>,
    /// Reachable vertices (including the source).
    pub visited: usize,
    /// Directed edges traversed (Graph 500 accounting: out-edges of every
    /// visited vertex, duplicates and self-loops included).
    pub traversed_edges: u64,
    /// Simulated milliseconds for the whole search.
    pub time_ms: f64,
    /// Traversed edges per simulated second.
    pub teps: f64,
    /// Deepest level reached.
    pub depth: u32,
    /// Level at which the direction switched to bottom-up, if it did.
    pub switched_at: Option<u32>,
    /// Per-level instrumentation.
    pub level_trace: Vec<LevelRecord>,
    /// Every kernel launched during the search (nvprof-style timeline).
    pub records: Vec<KernelRecord>,
    /// Aggregate hardware-counter report.
    pub report: DeviceReport,
    /// What fault recovery happened during the run (all zero on a
    /// fault-free substrate).
    pub recovery: RecoveryReport,
}

impl BfsResult {
    /// Share of the search spent generating frontier queues (the paper
    /// reports ~11% on average, §4.1).
    pub fn queue_gen_fraction(&self) -> f64 {
        let gen: f64 = self.level_trace.iter().map(|l| l.queue_gen_ms).sum();
        if self.time_ms > 0.0 {
            gen / self.time_ms
        } else {
            0.0
        }
    }
}

/// An Enterprise BFS system bound to one graph on one simulated device.
pub struct Enterprise {
    config: EnterpriseConfig,
    device: Device,
    graph: DeviceGraph,
    state: BfsState,
    /// Host copy of out-degrees (TEPS accounting and α instrumentation).
    out_degrees: Vec<u32>,
    total_out_edges: u64,
    /// Host copy of the CSR, kept only when the verification ladder is
    /// enabled (the checker and repair re-relax against real edges).
    verify_csr: Option<Csr>,
    /// The durability path: snapshot store, cadence and checkpoint writer.
    persist: Durability,
    /// Parked per-slot lane states for pipelined batches, reused across
    /// admissions (the simulator never frees device buffers, so lanes
    /// allocate once per slot, not once per source).
    lane_pool: Vec<Option<BfsState>>,
}

/// Per-source lane state for pipelined batch execution (MS-BFS): the
/// source's own device buffers, host loop variables, stall detector,
/// and scoped fault universe, co-scheduled with sibling lanes on the
/// shared device (DESIGN.md §5j).
pub struct SingleLane {
    slot: usize,
    /// The lane's working state; `None` transiently while swapped onto
    /// the driver during a slice, and after parking back in the pool.
    state: Option<BfsState>,
    walk: Walk,
    /// The lane's fault universe, parked here between slices so sibling
    /// lanes never draw from it.
    bundle: FaultBundle,
    /// Kernels launched while this lane's slot was active, with start
    /// times rebased onto the lane's own stream.
    records: Vec<KernelRecord>,
    /// The lane's stream position: simulated time its slices have
    /// charged since admission.
    clock_ms: f64,
}

/// One traversal in flight: its root, host loop variables, level trace,
/// recovery counters, level counter and stall detector. Every driver's
/// sequential run and pipeline lanes advance a walk one level per step
/// (DESIGN.md §5j); the two kinds differ only in the capabilities the
/// constructor records.
pub(crate) struct Walk {
    pub(crate) source: VertexId,
    pub(crate) vars: LoopVars,
    pub(crate) trace: Vec<LevelRecord>,
    pub(crate) recovery: RecoveryReport,
    pub(crate) level: u32,
    pub(crate) level_cap: u32,
    pub(crate) stall: Option<StallDetector>,
    /// Publishes durable mid-traversal checkpoints on the configured
    /// cadence. Sequential walks only: a pipelined lane's resume
    /// granularity is the batch ledger.
    pub(crate) durable: bool,
    /// Reshapes the fleet on a device loss, link isolation or straggler
    /// verdict (splice, migration, rebalance). Sequential walks only: a
    /// reshape would move sibling lanes' state, so a lane surfaces the
    /// trigger as an error and the batch plane de-pipelines the source.
    pub(crate) reshapes: bool,
}

impl Walk {
    /// Opens a walk from `source` at the initial loop variables, refusing
    /// a root outside the graph's `vertices` before any device work. A
    /// `lane` walk gets neither durable checkpoints nor reshapes; a
    /// sequential walk gets both. The recovery report starts from the
    /// instance's warm-restart flag and takes over its pending setup-time
    /// persistence errors.
    pub(crate) fn open(
        source: VertexId,
        vertices: usize,
        lane: bool,
        watchdog: &WatchdogPolicy,
        persist: &mut Durability,
    ) -> Result<Self, BfsError> {
        if source as usize >= vertices {
            return Err(BfsError::SourceOutOfRange { source, vertices });
        }
        let mut recovery =
            RecoveryReport { warm_restart: persist.warm_restart, ..RecoveryReport::default() };
        recovery.snapshot_errors.append(&mut persist.errors);
        Ok(Walk {
            source,
            vars: LoopVars {
                dir: Direction::TopDown,
                switched_at: None,
                // Probing an empty cache is pure overhead; expansion
                // enables the cache only when the last generation staged
                // at least one hub.
                cache_filled: false,
                visited_edge_sum: 0,
                bu_queue_edge_sum: 0,
                prev_frontier_edges: 0,
            },
            trace: Vec::new(),
            recovery,
            level: 0,
            level_cap: watchdog.level_cap(vertices),
            stall: StallDetector::new(watchdog.stall_levels),
            durable: !lane,
            reshapes: !lane,
        })
    }

    /// A level checkpoint of this walk over the `devices`' snapshots.
    pub(crate) fn checkpoint(&self, devices: Vec<DeviceSnapshot>) -> Checkpoint {
        Checkpoint { devices, vars: self.vars.clone(), trace_len: self.trace.len() }
    }

    /// Rolls this walk's loop variables and trace back to `ckpt` (the
    /// caller restores the devices).
    pub(crate) fn rewind(&mut self, ckpt: &Checkpoint) {
        self.vars = ckpt.vars.clone();
        self.trace.truncate(ckpt.trace_len);
    }
}

/// What the end-of-level verifier concluded about the completed level.
enum LevelVerdict {
    /// All invariants hold; the level's results are accepted as-is.
    Clean,
    /// Corruption was found and healed in place from the checkpoint;
    /// `done` is the recomputed termination decision.
    Repaired { done: bool },
    /// Corruption was found and localized repair could not restore a
    /// consistent state: the caller must replay the level.
    Corrupt(ValidationError),
}

/// One device's traversal state, copied to the host at the top of a
/// level.
pub(crate) struct DeviceSnapshot {
    pub(crate) status: Vec<u32>,
    pub(crate) parent: Vec<u32>,
    pub(crate) queues: [Vec<u32>; 4],
    pub(crate) queue_sizes: [usize; 4],
}

impl DeviceSnapshot {
    /// Copies `state`'s buffers out of `mem`.
    pub(crate) fn capture(mem: &DeviceMem, state: &BfsState) -> Self {
        DeviceSnapshot {
            status: mem.view(state.status).to_vec(),
            parent: mem.view(state.parent).to_vec(),
            queues: state.queues.map(|q| mem.view(q).to_vec()),
            queue_sizes: state.queue_sizes,
        }
    }

    /// Uploads the copy back into `state` on `mem`.
    pub(crate) fn restore(&self, mem: &mut DeviceMem, state: &mut BfsState) {
        mem.upload(state.status, &self.status);
        mem.upload(state.parent, &self.parent);
        for (buf, data) in state.queues.iter().zip(&self.queues) {
            mem.upload(*buf, data);
        }
        state.queue_sizes = self.queue_sizes;
    }
}

/// The traversal state saved at the top of each level — every device's
/// buffers plus the walk's loop variables — so a faulted level can be
/// replayed instead of aborting the search, and a durable walk can
/// publish it.
pub(crate) struct Checkpoint {
    /// Indexed by device id.
    pub(crate) devices: Vec<DeviceSnapshot>,
    pub(crate) vars: LoopVars,
    pub(crate) trace_len: usize,
}

/// Host loop variables of a traversal, bundled so checkpoints can
/// snapshot and restore them alongside the device buffers. The fleets
/// never feed the single-GPU α sums, which stay zero there.
#[derive(Clone)]
pub(crate) struct LoopVars {
    pub(crate) dir: Direction,
    pub(crate) switched_at: Option<u32>,
    pub(crate) cache_filled: bool,
    pub(crate) visited_edge_sum: u64,
    pub(crate) bu_queue_edge_sum: u64,
    pub(crate) prev_frontier_edges: u64,
}

impl crate::batch::BatchHost for Enterprise {
    type Run = BfsResult;

    fn kind(&self) -> DriverKind {
        DriverKind::Single
    }

    fn base_faults(&self) -> Option<FaultSpec> {
        self.config.faults
    }

    fn set_faults(&mut self, spec: Option<FaultSpec>) {
        self.config.faults = spec;
    }

    // A single device has no shrunken fleet to brown out to: the per-run
    // revive stays, so a lost device poisons only its own source and
    // sibling sources run on revived hardware.
    fn set_pinned(&mut self, _pinned: bool) {}

    fn run_source(&mut self, source: VertexId) -> Result<BfsResult, BfsError> {
        self.try_bfs(source)
    }

    fn run_time_ms(run: &BfsResult) -> f64 {
        run.time_ms
    }

    fn run_digest(run: &BfsResult) -> u64 {
        crate::batch::result_digest(&run.levels, &run.parents)
    }

    fn elapsed_ms(&self) -> f64 {
        self.device.elapsed_ms()
    }

    fn relax_deadlines(&mut self) -> (Option<f64>, Option<f64>) {
        let saved =
            (self.config.watchdog.kernel_deadline_ms, self.config.watchdog.level_deadline_ms);
        self.config.watchdog.kernel_deadline_ms = None;
        self.config.watchdog.level_deadline_ms = None;
        self.device.set_kernel_deadline_ms(None);
        saved
    }

    fn restore_deadlines(&mut self, (kernel, level): (Option<f64>, Option<f64>)) {
        self.config.watchdog.kernel_deadline_ms = kernel;
        self.config.watchdog.level_deadline_ms = level;
        self.device.set_kernel_deadline_ms(kernel);
    }

    fn manifest_store(&mut self) -> Option<(&mut SnapshotStore, GraphFingerprint)> {
        self.persist.manifest_store()
    }

    type Lane = SingleLane;

    // A single device's layout never reshapes mid-batch (no partitions
    // to splice, no siblings to evict), so lanes never go stale.
    fn fleet_epoch(&self) -> u64 {
        0
    }

    fn sweep_begin(&mut self, width: usize) {
        // Whatever ran between sweeps (a de-pipelined sequential run,
        // whose result already holds its records) belongs to no lane.
        self.device.drain_records();
        self.device.begin_fused(width);
    }

    fn sweep_switch(&mut self, slot: usize) {
        self.device.fused_switch(slot);
    }

    fn sweep_end(&mut self, _width: usize) -> Vec<f64> {
        self.device.end_fused()
    }

    fn lane_open(
        &mut self,
        source: VertexId,
        slot: usize,
        spec: Option<FaultSpec>,
    ) -> Result<SingleLane, BfsError> {
        if let Some(spec) = spec {
            self.device.set_fault_plan(Some(FaultPlan::new(spec)));
        }
        let t0 = self.device.elapsed_ms();
        let result = self.lane_open_inner(source, slot);
        // Park the lane's universe (even a refused open's) in a bundle,
        // so sibling slices in the same sweep never draw from it.
        let mut bundle = FaultBundle::default();
        self.device.swap_fault_bundle(&mut bundle);
        match result {
            Ok(mut lane) => {
                lane.bundle = bundle;
                self.take_slice_records(&mut lane, t0);
                Ok(lane)
            }
            Err(e) => {
                self.device.drain_records();
                Err(e)
            }
        }
    }

    fn lane_step(&mut self, lane: &mut SingleLane) -> Result<bool, BfsError> {
        self.device.swap_fault_bundle(&mut lane.bundle);
        let t0 = self.device.elapsed_ms();
        let mut parked = lane.state.take().expect("lane state present");
        std::mem::swap(&mut self.state, &mut parked);
        let out = self.step_level(&mut lane.walk);
        std::mem::swap(&mut self.state, &mut parked);
        lane.state = Some(parked);
        self.take_slice_records(lane, t0);
        self.device.swap_fault_bundle(&mut lane.bundle);
        out
    }

    fn lane_finish(&mut self, mut lane: SingleLane, time_ms: f64) -> Result<BfsResult, BfsError> {
        // The lane's fault counters live in its parked plan; the device
        // plan belongs to whoever ran last.
        lane.walk.recovery.faults = lane.bundle.stats();
        let source = lane.walk.source;
        let mut parked = lane.state.take().expect("lane state present");
        std::mem::swap(&mut self.state, &mut parked);
        self.persist_finish(&mut lane.walk.recovery);
        let mut result = self.collect_result(lane.walk);
        std::mem::swap(&mut self.state, &mut parked);
        self.park_lane_state(lane.slot, parked);
        // The run's time is its lane stream's serial charge, not the
        // device clock (which advanced by the overlapped sweep spans);
        // its timeline and report cover only the kernels its slot
        // launched, and its fault counters are its own universe's.
        result.time_ms = time_ms;
        result.teps =
            if time_ms > 0.0 { result.traversed_edges as f64 / (time_ms / 1e3) } else { 0.0 };
        result.records = lane.records;
        result.report = DeviceReport::from_records(&result.records, self.device.config(), time_ms);
        result.report.faults = lane.bundle.stats();
        if self.config.verify.end_of_run {
            let csr = self.verify_csr.as_ref().expect("end-of-run audit requires the host CSR");
            // A dirty audit demotes the source to the de-pipelined
            // ladder (the sequential engine's full replay) instead of
            // replaying inside the lane.
            if let Err(e) = audit(csr, source, &result.levels, &result.parents) {
                return Err(BfsError::ValidationFailedAfterReplay(e));
            }
        }
        Ok(result)
    }

    fn lane_abort(&mut self, mut lane: SingleLane) {
        if let Some(state) = lane.state.take() {
            self.park_lane_state(lane.slot, state);
        }
    }

    fn capture_fleet(&mut self) -> Option<FleetRecord> {
        None
    }

    fn restore_fleet(&mut self, _fleet: &FleetRecord) -> bool {
        false
    }
}

impl Enterprise {
    /// Uploads `csr` and allocates working state.
    ///
    /// # Panics
    /// Panics on device OOM or an injected allocation fault; see
    /// [`Enterprise::try_new`].
    pub fn new(config: EnterpriseConfig, csr: &Csr) -> Self {
        Self::try_new(config, csr).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor: device OOM (the graph not fitting) and
    /// injected allocation faults surface as [`BfsError`] so the caller
    /// can degrade to a CPU traversal ([`Enterprise::run_resilient`]).
    pub fn try_new(config: EnterpriseConfig, csr: &Csr) -> Result<Self, BfsError> {
        let mut device = Device::new(config.device.clone());
        // Enable the sanitizer before any allocation so write-initialization
        // tracking covers every BFS buffer from birth.
        if config.sanitize {
            device.enable_sanitizer();
        }
        device.set_kernel_deadline_ms(config.watchdog.kernel_deadline_ms);
        if let Some(spec) = config.faults {
            device.set_fault_plan(Some(FaultPlan::new(spec)));
        }
        device.set_ecc(config.ecc);
        let graph = DeviceGraph::try_upload(&mut device, csr)?;
        let tau = hub_threshold_for_capacity(csr, config.hub_cache_entries);
        let thresholds = if config.workload_balancing {
            config.thresholds
        } else {
            // Single-queue mode: every frontier classifies as Small.
            ClassifyThresholds {
                small_below: u32::MAX - 2,
                middle_below: u32::MAX - 1,
                large_below: u32::MAX,
            }
        };
        let mut state =
            BfsState::try_new(&mut device, &graph, thresholds, config.hub_cache_entries, tau)?;
        // Crash-consistent persistence: a valid layout snapshot for this
        // exact graph and configuration warm-starts the instance with the
        // persisted hub census instead of re-measuring it. Any defect
        // degrades to a cold start with a typed error.
        let mut persist = Durability::open(
            DriverKind::Single,
            config.persist.as_ref(),
            config.faults.as_ref(),
            csr,
        );
        let ranges = [(state.td_range.clone(), state.bu_range.clone())];
        let fits = |snap: &LayoutSnapshot| snap.grid == (1, 1) && snap.slices == ranges;
        if let Some(snap) = persist.load_layout(tau, fits) {
            state.total_hubs = snap.total_hubs;
        }
        // T_h (γ's denominator) is a graph property: measured on device
        // once at setup and reused by every search, as the paper
        // amortizes it ("calculated very quickly at the first level").
        // The measurement is idempotent, so transient launch faults are
        // absorbed by simple re-runs. A warm restart reuses the persisted
        // census instead.
        if !persist.warm_restart {
            let mut attempts = 0u32;
            loop {
                match try_measure_total_hubs(&mut device, &graph, &mut state) {
                    Ok(()) => break,
                    Err(e) => {
                        attempts += 1;
                        if attempts > config.recovery.max_level_retries {
                            return Err(e.into());
                        }
                    }
                }
            }
        }
        let out_degrees: Vec<u32> = csr.vertices().map(|v| csr.out_degree(v)).collect();
        let total_out_edges = csr.edge_count();
        let verify_csr = (!config.verify.is_disabled()).then(|| csr.clone());
        Ok(Self {
            config,
            device,
            graph,
            state,
            out_degrees,
            total_out_edges,
            verify_csr,
            persist,
            lane_pool: Vec::new(),
        })
    }

    /// Runs one BFS end to end with full degradation: if the device graph
    /// cannot be allocated (OOM or injected allocation fault) or the
    /// search exhausts its recovery budget, the traversal falls back to
    /// the host CPU baseline and the result records the fallback in
    /// [`RecoveryReport::cpu_fallback`].
    ///
    /// # Panics
    /// Panics if `source` is not a vertex of `csr`: the CPU baseline has
    /// no typed error to degrade to.
    pub fn run_resilient(config: EnterpriseConfig, csr: &Csr, source: VertexId) -> BfsResult {
        match Self::try_new(config.clone(), csr) {
            Ok(mut e) => match e.try_bfs(source) {
                Ok(r) => r,
                Err(_) => cpu_fallback_bfs(&config, csr, source),
            },
            Err(_) => cpu_fallback_bfs(&config, csr, source),
        }
    }

    /// The configuration this instance was built with.
    pub fn config(&self) -> &EnterpriseConfig {
        &self.config
    }

    /// The simulated device (for counter inspection).
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Caps the device's in-driver relaunch budget for faulted kernels.
    /// `0` disables in-driver retry entirely, so every injected kernel
    /// fault escalates to a level replay (useful for testing recovery).
    pub fn set_launch_retries(&mut self, retries: u32) {
        self.device.set_launch_retries(retries);
    }

    /// Hub threshold τ chosen for this graph.
    pub fn hub_tau(&self) -> u32 {
        self.state.hub_tau
    }

    /// Total hub count `T_h` measured by the last run.
    pub fn total_hubs(&self) -> u64 {
        self.state.total_hubs
    }

    /// Runs one BFS from `source`. Timing covers everything from seeding
    /// the source to the final (empty) queue generation, matching the
    /// paper's methodology (§5).
    ///
    /// # Panics
    /// Panics if the recovery budget is exhausted under fault injection;
    /// see [`Enterprise::try_bfs`].
    pub fn bfs(&mut self, source: VertexId) -> BfsResult {
        self.try_bfs(source).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs a queue of sources as one supervised batch on this warm
    /// instance (DESIGN.md §5i): per-source fault isolation, retries,
    /// hedging, deadline shedding, and — with persistence armed — a
    /// durable outcome ledger. With `policy` disabled this is
    /// bit-identical to calling [`Enterprise::try_bfs`] per source.
    pub fn batch(
        &mut self,
        sources: &[crate::batch::BatchSource],
        policy: &crate::batch::BatchPolicy,
    ) -> crate::batch::BatchReport<BfsResult> {
        crate::batch::run_batch(self, sources, policy)
    }

    /// Simulated milliseconds on the device clock since the last run
    /// started. Right after construction this is the setup cost the warm
    /// instance amortizes across a batch (hub census measurement).
    pub fn sim_elapsed_ms(&self) -> f64 {
        self.device.elapsed_ms()
    }

    /// Fallible BFS with level-replay recovery: each level checkpoints
    /// the traversal state (device status/parent/queues plus the host
    /// loop variables) before expanding, and a kernel fault that escapes
    /// the in-driver launch retries rolls the level back and replays it.
    /// The replay budget is [`RecoveryPolicy::max_level_retries`] per
    /// level; exhausting it yields [`BfsError::LevelRetriesExhausted`].
    pub fn try_bfs(&mut self, source: VertexId) -> Result<BfsResult, BfsError> {
        // Reinstall the plan from its seed so every run of this instance
        // draws the same fault sequence (bit-reproducibility).
        if let Some(spec) = self.config.faults {
            self.device.set_fault_plan(Some(FaultPlan::new(spec)));
        }
        let result = self.try_bfs_once(source)?;
        if !self.config.verify.end_of_run {
            return Ok(result);
        }
        let clean = {
            let csr = self.verify_csr.as_ref().expect("end-of-run audit requires the host CSR");
            audit(csr, source, &result.levels, &result.parents)
        };
        if clean.is_ok() {
            return Ok(result);
        }
        // Full replay *without* reinstalling the fault plan: the replay
        // continues the fault stream instead of deterministically
        // reproducing the exact corruption that failed the audit. Fault
        // counters are cumulative across the replay.
        let mut replay = self.try_bfs_once(source)?;
        replay.recovery.validation_replays += 1;
        let verdict = {
            let csr = self.verify_csr.as_ref().expect("end-of-run audit requires the host CSR");
            audit(csr, source, &replay.levels, &replay.parents)
        };
        match verdict {
            Ok(()) => Ok(replay),
            Err(e) => Err(BfsError::ValidationFailedAfterReplay(e)),
        }
    }

    /// One attempt of the traversal (no end-of-run audit): the body of
    /// [`Enterprise::try_bfs`], which may invoke it twice when the audit
    /// demands a full replay.
    fn try_bfs_once(&mut self, source: VertexId) -> Result<BfsResult, BfsError> {
        let mut walk = self.open_walk(source, false)?;
        // Device loss is per-run in the simulator: revive the device so a
        // replay after a loss has hardware to run on.
        self.device.revive();
        self.device.reset_stats();
        seed(&mut self.device, &mut self.state, source, self.out_degrees[source as usize]);
        // Warm restart from a durable mid-traversal checkpoint: overwrite
        // the freshly seeded state with the persisted level boundary and
        // continue from there. Any snapshot defect degrades to the cold
        // start already seeded above.
        let states = std::iter::once(&self.state);
        let n = self.graph.vertex_count;
        if let Some(snap) =
            self.persist.load_checkpoint(source, states, n, false, &mut walk.recovery)
        {
            snap.devices[0].upload(self.device.mem(), &mut self.state);
            snap.resume(&mut walk);
        }
        while !self.step_level(&mut walk)? {}
        walk.recovery.faults = self.device.fault_stats();
        self.persist_finish(&mut walk.recovery);
        Ok(self.collect_result(walk))
    }

    /// Opens a walk from `source` (sequential run or pipeline `lane`).
    fn open_walk(&mut self, source: VertexId, lane: bool) -> Result<Walk, BfsError> {
        let n = self.graph.vertex_count;
        let mut walk = Walk::open(source, n, lane, &self.config.watchdog, &mut self.persist)?;
        // Running sum of out-degrees of visited vertices, for α.
        walk.vars.visited_edge_sum = self.out_degrees[source as usize] as u64;
        Ok(walk)
    }

    /// Advances `walk` one BFS level on the resident state: checkpoint
    /// (published durably on a durable walk's cadence), expansion and
    /// queue generation under the attempt/replay ladder, then the
    /// post-level bookkeeping. Returns `Ok(true)` when the frontier
    /// drained. A sequential run loops over this; a pipeline lane calls
    /// it once per slice with its own state swapped in.
    fn step_level(&mut self, walk: &mut Walk) -> Result<bool, BfsError> {
        let level = walk.level;
        // Structural liveness bound: a level-synchronous BFS can run at
        // most n+1 levels, so a counter past the cap means the frontier
        // never drained.
        if level > walk.level_cap {
            let frontier = self.state.total_frontier();
            return Err(BfsError::Hang { level, frontier, stalled_levels: 0 });
        }
        let ckpt =
            walk.checkpoint(vec![DeviceSnapshot::capture(self.device.mem_ref(), &self.state)]);
        if walk.durable && self.persist.due(level) {
            let image = DeviceCheckpoint::of(&ckpt.devices[0], &self.state, self.device.mem_ref());
            self.persist.write(walk, vec![image], Vec::new());
        }
        let mut attempts: u32 = 0;
        let done = loop {
            let t_level = self.device.elapsed_ms();
            match self.level_pass(level, &mut walk.vars, &mut walk.trace) {
                Ok(done) => {
                    // Level deadline: an overrun is replayed like a
                    // kernel fault (the budget covers transient slowness,
                    // e.g. injected relaunch storms), then surfaces as a
                    // typed deadline error.
                    if let Some(budget_ms) = self.config.watchdog.level_deadline_ms {
                        let elapsed_ms = self.device.elapsed_ms() - t_level;
                        if elapsed_ms > budget_ms {
                            attempts += 1;
                            if attempts > self.config.recovery.max_level_retries {
                                return Err(BfsError::Deadline {
                                    level,
                                    attempts,
                                    elapsed_ms,
                                    budget_ms,
                                });
                            }
                            walk.recovery.levels_replayed += 1;
                            self.restore(&ckpt, walk);
                            continue;
                        }
                    }
                    // End-of-level SDC gate: check invariants on the
                    // settled arrays, heal in place from the verified
                    // checkpoint if possible, replay the level if not.
                    if self.config.verify.end_of_level {
                        match self.verify_level(&ckpt, walk) {
                            LevelVerdict::Clean => {}
                            LevelVerdict::Repaired { done } => break done,
                            LevelVerdict::Corrupt(err) => {
                                attempts += 1;
                                if attempts > self.config.recovery.max_level_retries {
                                    return Err(BfsError::ValidationFailedAfterReplay(err));
                                }
                                walk.recovery.levels_replayed += 1;
                                self.restore(&ckpt, walk);
                                continue;
                            }
                        }
                    }
                    break done;
                }
                Err(e) => {
                    // Permanent device loss is terminal on a single GPU —
                    // there is nothing to replay onto (a lane's batch
                    // plane de-pipelines the source, whose ladder replay
                    // revives the device). A kernel-deadline overrun on a
                    // lost device is the same loss seen through the
                    // watchdog.
                    if matches!(e, DeviceError::DeviceLost { .. }) || self.device.is_lost() {
                        return Err(BfsError::Device(e));
                    }
                    attempts += 1;
                    if attempts > self.config.recovery.max_level_retries {
                        return Err(BfsError::LevelRetriesExhausted { level, attempts, last: e });
                    }
                    walk.recovery.levels_replayed += 1;
                    self.restore(&ckpt, walk);
                }
            }
        };
        if done {
            return Ok(true);
        }
        // Injected livelock (fault plane): roll the completed level back
        // to its checkpoint but keep advancing the level counter, so the
        // frontier reproduces forever — exactly the failure mode the
        // stall detector and level cap exist for.
        if self.device.should_inject_livelock() {
            self.restore(&ckpt, walk);
        }
        if let Some(det) = walk.stall.as_mut() {
            let frontier = self.state.total_frontier();
            let visited = self
                .device
                .mem_ref()
                .view(self.state.status)
                .iter()
                .filter(|&&s| s != UNVISITED)
                .count();
            if let Some(stalled) = det.observe(visited, frontier) {
                return Err(BfsError::Hang { level, frontier, stalled_levels: stalled });
            }
        }
        // Background scrubbing: clear latent single-bit ECC errors on
        // cadence, before a second upset in the same word makes one
        // uncorrectable. No-op (zero time) with ECC off.
        if let Some(every) = self.config.scrub_levels {
            if every > 0 && (level + 1) % every == 0 {
                self.device.scrub();
            }
        }
        // Throttle-onset clock: one more level finished (drives
        // `FaultSpec::throttle_onset_levels`).
        self.device.note_level_end();
        walk.level += 1;
        Ok(false)
    }

    /// Moves the kernels a lane slice launched (since `slice_start_ms`
    /// on the device clock) into the lane, rebasing their start times
    /// onto the lane's own stream, and advances that stream by the
    /// slice's charge: a lane's records read like a sequential run's,
    /// starting at zero, however long the fleet has been serving.
    fn take_slice_records(&mut self, lane: &mut SingleLane, slice_start_ms: f64) {
        let base = lane.clock_ms;
        lane.records.extend(self.device.drain_records().into_iter().map(|mut r| {
            r.start_ms = base + (r.start_ms - slice_start_ms);
            r
        }));
        lane.clock_ms += self.device.elapsed_ms() - slice_start_ms;
    }

    /// Returns a lane's working state to its per-slot pool. The simulator
    /// never frees device buffers, so pooling (rather than dropping) keeps
    /// a long batch's footprint bounded at `width` extra states instead of
    /// leaking one allocation set per source.
    fn park_lane_state(&mut self, slot: usize, state: BfsState) {
        if self.lane_pool.len() <= slot {
            self.lane_pool.resize_with(slot + 1, || None);
        }
        self.lane_pool[slot] = Some(state);
    }

    /// Seeds a pipeline lane in `slot` for a traversal from `source`:
    /// takes (or allocates) the slot's pooled state and seeds it exactly
    /// as a sequential run seeds the resident state.
    fn lane_open_inner(&mut self, source: VertexId, slot: usize) -> Result<SingleLane, BfsError> {
        let walk = self.open_walk(source, true)?;
        // Device loss is per-run in the simulator; a fresh lane gets
        // hardware to run on, like a sequential run's revive.
        self.device.revive();
        if self.lane_pool.len() <= slot {
            self.lane_pool.resize_with(slot + 1, || None);
        }
        let n = self.graph.vertex_count;
        let mut state = match self.lane_pool[slot].take() {
            Some(st) => st,
            None => BfsState::try_new_labeled(
                &mut self.device,
                &self.graph,
                self.state.thresholds,
                self.state.hub_cache_entries,
                self.state.hub_tau,
                0..n,
                0..n,
                &format!("lane{slot}."),
            )
            .map_err(BfsError::Device)?,
        };
        // The hub census is a graph property measured once at setup;
        // every lane shares it (γ's denominator).
        state.total_hubs = self.state.total_hubs;
        seed(&mut self.device, &mut state, source, self.out_degrees[source as usize]);
        Ok(SingleLane {
            slot,
            state: Some(state),
            walk,
            bundle: FaultBundle::default(),
            records: Vec::new(),
            clock_ms: 0.0,
        })
    }

    /// End-of-run persistence: publish the learned layout (the hub
    /// census) and retire the checkpoint chain.
    fn persist_finish(&mut self, recovery: &mut RecoveryReport) {
        if let Some(fingerprint) = self.persist.fingerprint() {
            let layout = LayoutSnapshot {
                kind: DriverKind::Single,
                fingerprint,
                hub_tau: self.state.hub_tau,
                total_hubs: self.state.total_hubs,
                grid: (1, 1),
                collapsed: false,
                slices: vec![(self.state.td_range.clone(), self.state.bu_range.clone())],
                evicted: Vec::new(),
            };
            self.persist.finish(Some(layout), recovery);
        }
    }

    /// Runs [`Enterprise::try_bfs`] and gates the result on the CPU
    /// validation oracle. A validation failure triggers one full replay
    /// (recorded in [`RecoveryReport::validation_replays`]); if the
    /// replay also fails validation the error is surfaced.
    pub fn bfs_validated(&mut self, csr: &Csr, source: VertexId) -> Result<BfsResult, BfsError> {
        let result = self.try_bfs(source)?;
        if validate(csr, &result).is_ok() {
            return Ok(result);
        }
        let mut replay = self.try_bfs(source)?;
        replay.recovery.validation_replays = 1;
        match validate(csr, &replay) {
            Ok(()) => Ok(replay),
            Err(e) => Err(BfsError::ValidationFailedAfterReplay(e)),
        }
    }

    /// Downloads the settled arrays, runs the end-of-level invariant
    /// checker, and attempts localized repair from the level checkpoint
    /// (taken after the *previous* level verified clean, so trusted).
    /// A successful repair uploads the healed arrays, rebuilds the next
    /// level's queues host-side from the healed status (the same rule
    /// the repartitioner uses after a device loss), and recomputes the
    /// termination decision; an unrepairable state escalates to a level
    /// replay via [`LevelVerdict::Corrupt`].
    fn verify_level(&mut self, ckpt: &Checkpoint, walk: &mut Walk) -> LevelVerdict {
        let (source, level, dir) = (walk.source, walk.level, walk.vars.dir);
        let recovery = &mut walk.recovery;
        let csr =
            self.verify_csr.as_ref().expect("end-of-level verification requires the host CSR");
        let mut status = self.device.mem_ref().view(self.state.status).to_vec();
        let mut parent = self.device.mem_ref().view(self.state.parent).to_vec();
        let flagged = check_level(csr, &status, &parent, source, level);
        if flagged.is_empty() {
            return LevelVerdict::Clean;
        }
        recovery.sdc_detected += flagged.len() as u64;
        if self.config.verify.repair {
            repair_vertices(
                csr,
                &mut status,
                &mut parent,
                &ckpt.devices[0].status,
                &ckpt.devices[0].parent,
                &flagged,
                level,
            );
            if check_level(csr, &status, &parent, source, level).is_empty() {
                let n = csr.vertex_count();
                self.device.mem().upload(self.state.status, &status);
                self.device.mem().upload(self.state.parent, &parent);
                let view = build_1d(csr, &(0..n));
                let rebuilt = rebuild_queues(
                    &status,
                    dir,
                    level + 1,
                    &self.state.td_range,
                    &self.state.bu_range,
                    &view.out_offsets,
                    &view.in_offsets,
                    &self.state.thresholds,
                );
                for (k, q) in rebuilt.queues.iter().enumerate() {
                    let mut padded = q.clone();
                    padded.resize(n, 0);
                    self.device.mem().upload(self.state.queues[k], &padded);
                }
                self.state.queue_sizes = rebuilt.sizes;
                recovery.sdc_repaired += flagged.len() as u64;
                let total_next: usize = rebuilt.sizes.iter().sum();
                let done = match dir {
                    Direction::TopDown => total_next == 0,
                    Direction::BottomUp => {
                        let newly = status.iter().filter(|&&s| s == level + 1).count();
                        newly == 0 || total_next == 0
                    }
                };
                return LevelVerdict::Repaired { done };
            }
        }
        LevelVerdict::Corrupt(ValidationError::SilentCorruption {
            vertex: flagged[0],
            detail: format!(
                "{} vertices failed end-of-level invariants at level {level}",
                flagged.len()
            ),
        })
    }

    /// Rolls the traversal back to `ckpt`. Elapsed simulated time is NOT
    /// rolled back: faulted work costs wall-clock, exactly like a real
    /// relaunch.
    fn restore(&mut self, ckpt: &Checkpoint, walk: &mut Walk) {
        ckpt.devices[0].restore(self.device.mem(), &mut self.state);
        walk.rewind(ckpt);
    }

    /// One level of the traversal: expand the current queues, generate
    /// the next ones, decide direction, and append the trace record.
    /// Returns `Ok(true)` when the search has terminated.
    fn level_pass(
        &mut self,
        level: u32,
        vars: &mut LoopVars,
        trace: &mut Vec<LevelRecord>,
    ) -> Result<bool, DeviceError> {
        let n = self.graph.vertex_count;
        let wb = self.config.workload_balancing;
        let hc = self.config.hub_cache;
        let policy = self.config.policy;

        let t0 = self.device.elapsed_ms();
        try_expand_level(
            &mut self.device,
            &self.graph,
            &self.state,
            level,
            vars.dir,
            wb,
            hc && vars.cache_filled,
        )?;
        let expand_ms = self.device.elapsed_ms() - t0;

        let prev_total = self.state.total_frontier();
        let t1 = self.device.elapsed_ms();
        let (result, newly, next_dir) = match vars.dir {
            Direction::TopDown => {
                let r = try_generate_queues(
                    &mut self.device,
                    &self.graph,
                    &mut self.state,
                    GenWorkflow::TopDown { frontier_level: level + 1 },
                    false,
                )?;
                let newly = self.state.total_frontier();
                let new_edges = self.queue_edge_sum();
                vars.visited_edge_sum += new_edges;
                let signals = SwitchSignals {
                    gamma_pct: r.gamma_pct,
                    frontier_edges: new_edges,
                    unexplored_edges: self.total_out_edges.saturating_sub(vars.visited_edge_sum),
                    frontier_vertices: newly,
                    total_vertices: n,
                    frontier_growing: new_edges > vars.prev_frontier_edges,
                };
                vars.prev_frontier_edges = new_edges;
                match policy.evaluate_topdown(&signals, vars.switched_at.is_some()) {
                    SwitchDecision::ToBottomUp => {
                        vars.switched_at = Some(level + 1);
                        let r2 = try_generate_queues(
                            &mut self.device,
                            &self.graph,
                            &mut self.state,
                            GenWorkflow::Switch { newly_level: level + 1 },
                            hc,
                        )?;
                        vars.bu_queue_edge_sum = self.queue_edge_sum();
                        ((r2, signals), newly, Direction::BottomUp)
                    }
                    _ => ((r, signals), newly, Direction::TopDown),
                }
            }
            Direction::BottomUp => {
                let r = try_generate_queues(
                    &mut self.device,
                    &self.graph,
                    &mut self.state,
                    GenWorkflow::Filter { newly_level: level + 1 },
                    hc,
                )?;
                // Saturating: corrupted device counters (bit-flip
                // campaign) must not panic the instrumentation math.
                let newly = prev_total.saturating_sub(self.state.total_frontier());
                let remaining_edges = self.queue_edge_sum();
                vars.visited_edge_sum += vars.bu_queue_edge_sum.saturating_sub(remaining_edges);
                vars.bu_queue_edge_sum = remaining_edges;
                let signals = SwitchSignals {
                    gamma_pct: r.gamma_pct,
                    frontier_edges: 0,
                    unexplored_edges: remaining_edges,
                    frontier_vertices: self.state.total_frontier(),
                    total_vertices: n,
                    frontier_growing: false,
                };
                match policy.evaluate_bottomup(&signals, newly) {
                    SwitchDecision::ToTopDown if newly > 0 => {
                        let r2 = try_generate_queues(
                            &mut self.device,
                            &self.graph,
                            &mut self.state,
                            GenWorkflow::TopDown { frontier_level: level + 1 },
                            false,
                        )?;
                        ((r2, signals), newly, Direction::TopDown)
                    }
                    _ => ((r, signals), newly, Direction::BottomUp),
                }
            }
        };
        let queue_gen_ms = self.device.elapsed_ms() - t1;
        vars.cache_filled = result.0.hub_fills > 0;

        trace.push(LevelRecord {
            level,
            direction: next_dir.label(),
            sizes: self.state.queue_sizes,
            gamma_pct: result.1.gamma_pct,
            alpha: result.1.alpha(),
            newly_visited: newly,
            expand_ms,
            queue_gen_ms,
        });

        // Termination: a top-down level with an empty next queue, or a
        // bottom-up level that discovered nothing.
        let done = match next_dir {
            Direction::TopDown => self.state.total_frontier() == 0,
            Direction::BottomUp => newly == 0 || self.state.total_frontier() == 0,
        };
        vars.dir = next_dir;
        Ok(done)
    }

    /// Host-side sum of out-degrees over all queue entries (free
    /// instrumentation read of device memory).
    fn queue_edge_sum(&self) -> u64 {
        let mut sum = 0u64;
        for (k, &size) in self.state.queue_sizes.iter().enumerate() {
            let q = self.device.mem_ref().view(self.state.queues[k]);
            // A flipped queue entry may name a non-vertex; count it as
            // degree 0 rather than indexing out of the host table.
            sum += q[..size.min(q.len())]
                .iter()
                .map(|&v| self.out_degrees.get(v as usize).copied().unwrap_or(0) as u64)
                .sum::<u64>();
        }
        sum
    }

    fn collect_result(&self, walk: Walk) -> BfsResult {
        let raw_status = self.device.mem_ref().view(self.state.status);
        let raw_parent = self.device.mem_ref().view(self.state.parent);
        let levels = levels_from_raw(raw_status);
        let parents: Vec<Option<VertexId>> =
            raw_parent.iter().map(|&p| (p != NO_PARENT).then_some(p)).collect();
        let visited = raw_status.iter().filter(|&&s| s != UNVISITED).count();
        let traversed_edges: u64 = raw_status
            .iter()
            .zip(&self.out_degrees)
            .filter(|(&s, _)| s != UNVISITED)
            .map(|(_, &d)| d as u64)
            .sum();
        let depth = raw_status.iter().filter(|&&s| s != UNVISITED).max().copied().unwrap_or(0);
        let time_ms = self.device.elapsed_ms();
        let teps = if time_ms > 0.0 { traversed_edges as f64 / (time_ms / 1e3) } else { 0.0 };
        BfsResult {
            source: walk.source,
            levels,
            parents,
            visited,
            traversed_edges,
            time_ms,
            teps,
            depth,
            switched_at: walk.vars.switched_at,
            level_trace: walk.trace,
            records: self.device.records().to_vec(),
            report: self.device.report(),
            recovery: walk.recovery,
        }
    }
}

/// Clears `state` and seeds a traversal from `source` on it:
/// `status[source] = 0`, `parent[source] = source`, queue = {source}.
fn seed(device: &mut Device, state: &mut BfsState, source: VertexId, out_degree: u32) {
    state.reset(device);
    enqueue_seed(device, state, source, out_degree);
}

/// Host BFS baseline used when the device path is unavailable (graph does
/// not fit on the device, or the recovery budget was exhausted). Produces
/// a correct traversal with zero simulated device time; the fallback is
/// recorded in [`RecoveryReport::cpu_fallback`].
fn cpu_fallback_bfs(config: &EnterpriseConfig, csr: &Csr, source: VertexId) -> BfsResult {
    let n = csr.vertex_count();
    assert!((source as usize) < n, "source {source} out of range ({n} vertices)");
    let mut levels: Vec<Option<u32>> = vec![None; n];
    let mut parents: Vec<Option<VertexId>> = vec![None; n];
    levels[source as usize] = Some(0);
    parents[source as usize] = Some(source);
    let mut queue = VecDeque::new();
    queue.push_back(source);
    let mut depth = 0u32;
    while let Some(v) = queue.pop_front() {
        let next = levels[v as usize].expect("queued vertex has a level") + 1;
        for &w in csr.out_neighbors(v) {
            if levels[w as usize].is_none() {
                levels[w as usize] = Some(next);
                parents[w as usize] = Some(v);
                depth = depth.max(next);
                queue.push_back(w);
            }
        }
    }
    let visited = levels.iter().filter(|l| l.is_some()).count();
    let traversed_edges: u64 = csr
        .vertices()
        .filter(|&v| levels[v as usize].is_some())
        .map(|v| csr.out_degree(v) as u64)
        .sum();
    let recovery = RecoveryReport { cpu_fallback: true, ..RecoveryReport::default() };
    BfsResult {
        source,
        levels,
        parents,
        visited,
        traversed_edges,
        time_ms: 0.0,
        teps: 0.0,
        depth,
        switched_at: None,
        level_trace: Vec::new(),
        records: Vec::new(),
        report: DeviceReport::from_records(&[], &config.device, 0.0),
        recovery,
    }
}
