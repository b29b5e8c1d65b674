//! 2-D partitioned multi-GPU Enterprise — the paper's stated future work
//! ("We leave the study of 2-D partition as future work", §4.4),
//! implemented as an extension.
//!
//! Devices form an `r x c` grid. The vertex set is partitioned two ways:
//! into `c` *column blocks* (sources) and `r` *row blocks* (targets).
//! Device `(i, j)` stores the adjacency-matrix block — edges `(u, v)`
//! with `u` in column block `j` and `v` in row block `i` — so a column
//! of devices cooperatively expands one frontier slice, each device
//! producing discoveries only inside its row block.
//!
//! Communication per level is the classic 2-D pattern: merge discoveries
//! along rows (each device's row block, `n/r` bits, across `c` peers),
//! then share row results along columns — per-device wire traffic of
//! `(c-1 + r-1) * n/r` bits instead of 1-D's `(P-1) * n` bits, which is
//! the scalability argument for 2-D partitioning.
//!
//! Differences from the 1-D driver, by design of the decomposition:
//! γ-based direction switching works (hub counts duplicate uniformly in
//! numerator and denominator), but the shared-memory hub cache is
//! disabled — a device's out-degree view covers only its column block,
//! so hub identification is not local (a known cost of 2-D layouts).

use crate::bfs::LevelRecord;
use crate::classify::ClassifyThresholds;
use crate::device_graph::DeviceGraph;
use crate::direction::{DirectionPolicy, SwitchDecision, SwitchSignals};
use crate::error::{BfsError, RecoveryPolicy, RecoveryReport};
use crate::frontier::{measure_total_hubs, try_generate_queues, GenWorkflow};
use crate::kernels::{try_expand_level, Direction};
use crate::multi_gpu::{
    cpu_fallback_result, loss_of, slices_tile_1d, slow_of,
    verify_merged_level, DeviceSnapshot, DeviceVerifyInfo, MergedVerdict, MultiBfsResult,
    MultiCheckpoint, MultiLoopVars,
};
use crate::persist::{
    load_checkpoint_chain, truncate_queues, CheckpointSnapshot, DeviceCheckpoint, DriverKind,
    FleetRecord, GraphFingerprint, LayoutSnapshot, PersistError, PersistPolicy, SnapshotStore,
    CHECKPOINT_FILE, DELTA_FILE,
};
use crate::rebalance::{self, DeviceTiming, ImbalanceDetector, RebalancePolicy};
use crate::repartition;
use crate::state::BfsState;
use crate::status::{levels_from_raw, NO_PARENT, UNVISITED};
use crate::validate::{audit, VerifyPolicy};
use crate::watchdog::{StallDetector, WatchdogPolicy};
use enterprise_graph::{stats::hub_threshold_for_capacity, Csr, VertexId};
use gpu_sim::{
    ballot_compressed_bytes, DeviceConfig, EccMode, FaultSpec, FleetFaultBundle,
    InterconnectConfig, MultiDevice,
};

/// Configuration of the 2-D grid system.
#[derive(Clone, Debug)]
pub struct Grid2DConfig {
    /// Grid rows (target partitions).
    pub rows: usize,
    /// Grid columns (source partitions).
    pub cols: usize,
    /// Per-device preset.
    pub device: DeviceConfig,
    /// Interconnect model.
    pub interconnect: InterconnectConfig,
    /// Classification thresholds.
    pub thresholds: ClassifyThresholds,
    /// Hub-cache capacity used for the γ machinery (τ selection).
    pub hub_cache_entries: usize,
    /// Direction policy (`Gamma` or `TopDownOnly`).
    pub policy: DirectionPolicy,
    /// Deterministic fault injection across devices and the interconnect;
    /// `None` (the default) is a strict no-op on timing and results.
    pub faults: Option<FaultSpec>,
    /// Bounds on level replay and exchange retry-with-backoff.
    pub recovery: RecoveryPolicy,
    /// Device-memory sanitizer on every grid device; defaults from the
    /// `GPU_SIM_SANITIZER` environment knob.
    pub sanitize: bool,
    /// Traversal watchdog; disabled by default (strict no-op).
    pub watchdog: WatchdogPolicy,
    /// Silent-data-corruption verification ladder on the merged global
    /// view; the default disabled policy is a strict no-op.
    pub verify: VerifyPolicy,
    /// SECDED ECC mode of every grid device's memory; `Off` (the
    /// default) matches today's behaviour bit for bit.
    pub ecc: EccMode,
    /// Background-scrubber cadence: scrub every device after this many
    /// levels. `None` (the default) never scrubs.
    pub scrub_levels: Option<u32>,
    /// Adaptive straggler mitigation (DESIGN.md §5f). When the detector
    /// confirms a straggler, the grid collapses to throughput-weighted
    /// 1-D slices over the alive devices (the rule-3 layout). The default
    /// disabled policy is a strict no-op.
    pub rebalance: RebalancePolicy,
    /// Crash-consistent persistence: durable layout snapshots (including
    /// a straggler-collapsed 1-D layout), optional mid-traversal
    /// checkpoints, and warm restarts from a state directory. `None`
    /// (the default) is a strict no-op on timing and results.
    pub persist: Option<PersistPolicy>,
    /// Topology-aware exchange routing over the per-link fault plane
    /// (DESIGN.md §5h): probe/backoff on flapping links, two-hop relay
    /// and host bounce around dead ones, isolation-triggered migration.
    /// The default disabled policy is a strict no-op.
    pub route: crate::route::RoutePolicy,
}

impl Grid2DConfig {
    /// An `rows x cols` grid of reproduction-scale K40s.
    pub fn k40s(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            device: DeviceConfig::k40_repro(),
            interconnect: InterconnectConfig::default(),
            thresholds: ClassifyThresholds::default(),
            hub_cache_entries: 1024,
            policy: DirectionPolicy::gamma_default(),
            faults: None,
            recovery: RecoveryPolicy::default(),
            sanitize: gpu_sim::sanitizer::env_enabled(),
            watchdog: WatchdogPolicy::default(),
            verify: VerifyPolicy::disabled(),
            ecc: EccMode::Off,
            scrub_levels: None,
            rebalance: RebalancePolicy::disabled(),
            persist: None,
            route: crate::route::RoutePolicy::disabled(),
        }
    }
}

struct GridDevice {
    graph: DeviceGraph,
    state: BfsState,
    /// Column block (sources this device expands).
    col: std::ops::Range<usize>,
}

/// A 2-D partitioned Enterprise system.
pub struct MultiGpu2DEnterprise {
    config: Grid2DConfig,
    multi: MultiDevice,
    parts: Vec<GridDevice>, // row-major: index = i * cols + j
    vertex_count: usize,
    out_degrees: Vec<u32>,
    /// Host copy of the graph, needed to rebuild a block view when a lost
    /// device is spliced away (and for the CPU fallback baseline).
    csr: Csr,
    /// Hub threshold τ, reused by repartition-time state allocation.
    tau: u32,
    /// Partitions displaced by in-run evictions, restored at the start of
    /// the next run so device loss stays per-run (bit-reproducibility).
    retired: Vec<(usize, GridDevice)>,
    /// Per-device busy time accumulated by the current level pass
    /// (expansion + queue generation, barriers excluded) — the telemetry
    /// the imbalance detector consumes.
    level_busy: Vec<f64>,
    /// Durable snapshot store, present when persistence is configured.
    store: Option<SnapshotStore>,
    /// Graph identity the snapshots are bound to.
    fingerprint: Option<GraphFingerprint>,
    /// Setup-time persistence defects, drained into the next
    /// run's [`RecoveryReport::snapshot_errors`].
    persist_errors: Vec<PersistError>,
    /// Whether setup warm-started from a persisted layout snapshot.
    warm_restart: bool,
    /// Whether the grid has collapsed to rebalanced 1-D slices (set by
    /// [`rebalance_collapse`](Self::rebalance_collapse), which outlives
    /// the run, or restored from a persisted collapsed layout).
    collapsed: bool,
    /// Brownout pin (batch serving plane, DESIGN.md §5i): while set, the
    /// per-run fleet restoration — revive, retired-partition restore,
    /// detector and link-verdict reset — is skipped, so evictions and
    /// learned layouts carry across the sources of one batch.
    pinned: bool,
    /// Imbalance detector, a field so its streak/cooldown state can
    /// carry across the sources of a pinned batch; reset at run start
    /// otherwise.
    detector: ImbalanceDetector,
    /// Hard-down link verdicts carried across exchanges (and, pinned,
    /// across batch sources); cleared at run start otherwise.
    link_verdicts: crate::route::LinkVerdicts,
    /// Fleet-shape generation counter: bumped whenever the block layout
    /// or alive set changes (eviction merge, grid collapse). Pipeline
    /// lanes opened against an older epoch hold stale per-device state
    /// and must be re-admitted.
    fleet_epoch: u64,
    /// Parked per-slot, per-device lane states (pipelined batch mode);
    /// see the 1-D driver's field of the same name.
    lane_pool: Vec<Vec<Option<BfsState>>>,
}

/// Per-source lane state for pipelined (MS-BFS) batch execution on the
/// 2-D grid: one private [`BfsState`] per surviving device plus the host
/// loop variables and the source's scoped fault universe, swapped onto
/// the grid for the duration of one level slice.
pub struct GridLane {
    source: VertexId,
    slot: usize,
    /// Indexed by device id; `None` for devices already dead at
    /// admission.
    states: Vec<Option<BfsState>>,
    vars: MultiLoopVars,
    trace: Vec<LevelRecord>,
    recovery: RecoveryReport,
    level: u32,
    level_cap: u32,
    stall: Option<StallDetector>,
    /// The lane's parked fleet fault universe, swapped in per slice so
    /// sibling lanes never draw from it.
    bundle: FleetFaultBundle,
    /// Interconnect bytes this lane's own levels moved (exchanges,
    /// replays and reroutes included; the seed moves none).
    comm_bytes: u64,
}

impl crate::batch::BatchHost for MultiGpu2DEnterprise {
    type Run = MultiBfsResult;

    fn kind(&self) -> DriverKind {
        DriverKind::TwoD
    }

    fn base_faults(&self) -> Option<FaultSpec> {
        self.config.faults
    }

    fn set_faults(&mut self, spec: Option<FaultSpec>) {
        self.config.faults = spec;
    }

    fn set_pinned(&mut self, pinned: bool) {
        self.pinned = pinned;
    }

    fn run_source(&mut self, source: VertexId) -> Result<MultiBfsResult, BfsError> {
        self.try_bfs(source)
    }

    fn run_time_ms(run: &MultiBfsResult) -> f64 {
        run.time_ms
    }

    fn run_digest(run: &MultiBfsResult) -> u64 {
        crate::batch::result_digest(&run.levels, &run.parents)
    }

    fn elapsed_ms(&self) -> f64 {
        self.multi.elapsed_ms()
    }

    fn relax_deadlines(&mut self) -> (Option<f64>, Option<f64>) {
        let saved =
            (self.config.watchdog.kernel_deadline_ms, self.config.watchdog.level_deadline_ms);
        self.config.watchdog.kernel_deadline_ms = None;
        self.config.watchdog.level_deadline_ms = None;
        for d in self.multi.devices_mut() {
            d.set_kernel_deadline_ms(None);
        }
        saved
    }

    fn restore_deadlines(&mut self, (kernel, level): (Option<f64>, Option<f64>)) {
        self.config.watchdog.kernel_deadline_ms = kernel;
        self.config.watchdog.level_deadline_ms = level;
        for d in self.multi.devices_mut() {
            d.set_kernel_deadline_ms(kernel);
        }
    }

    fn manifest_store(&mut self) -> Option<(&mut SnapshotStore, GraphFingerprint)> {
        match (self.store.as_mut(), self.fingerprint) {
            (Some(store), Some(fp)) => Some((store, fp)),
            _ => None,
        }
    }

    type Lane = GridLane;

    fn fleet_epoch(&self) -> u64 {
        self.fleet_epoch
    }

    fn sweep_begin(&mut self, width: usize) {
        self.multi.begin_fused(width);
    }

    fn sweep_switch(&mut self, slot: usize) {
        self.multi.fused_switch(slot);
    }

    fn sweep_end(&mut self, width: usize) -> Vec<f64> {
        let charges = self.multi.end_fused(width);
        // Lane results carry no kernel records, so the sweep's records
        // are dropped here; otherwise a warm fleet's timeline would grow
        // with every batch it serves.
        self.multi.discard_records();
        charges
    }

    fn lane_open(
        &mut self,
        source: VertexId,
        slot: usize,
        spec: Option<FaultSpec>,
    ) -> Result<GridLane, BfsError> {
        if let Some(spec) = spec {
            self.multi.install_faults(spec);
        }
        let result = self.lane_open_inner(source, slot);
        // Park the lane's universe (even a refused open's) in a bundle,
        // so sibling slices in the same sweep never draw from it.
        let mut bundle = FleetFaultBundle::healthy(self.parts.len());
        self.multi.swap_fleet_fault_bundle(&mut bundle);
        result.map(|mut lane| {
            lane.bundle = bundle;
            lane
        })
    }

    fn lane_step(&mut self, lane: &mut GridLane) -> Result<bool, BfsError> {
        self.multi.swap_fleet_fault_bundle(&mut lane.bundle);
        self.swap_lane_states(lane);
        let bytes0 = self.multi.transferred_bytes();
        let out = self.lane_level(lane);
        lane.comm_bytes += self.multi.transferred_bytes() - bytes0;
        self.swap_lane_states(lane);
        self.multi.swap_fleet_fault_bundle(&mut lane.bundle);
        out
    }

    fn lane_finish(
        &mut self,
        mut lane: GridLane,
        time_ms: f64,
    ) -> Result<MultiBfsResult, BfsError> {
        lane.recovery.faults = lane.bundle.stats();
        self.swap_lane_states(&mut lane);
        self.persist_finish(&mut lane.recovery);
        let mut result = self.collect(
            lane.source,
            lane.vars.switched_at,
            std::mem::take(&mut lane.trace),
            lane.recovery.clone(),
        );
        self.swap_lane_states(&mut lane);
        self.park_lane_states(&mut lane);
        // The run's time is its lane stream's serial charge, not the
        // fleet clock (which advanced by the overlapped sweep spans);
        // likewise its traffic is what its own levels moved, not the
        // fleet's cumulative total.
        result.time_ms = time_ms;
        result.communication_bytes = lane.comm_bytes;
        result.teps =
            if time_ms > 0.0 { result.traversed_edges as f64 / (time_ms / 1e3) } else { 0.0 };
        if self.config.verify.end_of_run {
            // A dirty audit demotes the source to the de-pipelined
            // ladder instead of replaying inside the lane.
            if let Err(e) = audit(&self.csr, lane.source, &result.levels, &result.parents) {
                return Err(BfsError::ValidationFailedAfterReplay(e));
            }
        }
        Ok(result)
    }

    fn lane_abort(&mut self, mut lane: GridLane) {
        self.park_lane_states(&mut lane);
    }

    // Durable degraded-fleet records belong to the elastic 1-D driver:
    // a degraded grid has merged *block* views (or collapsed outright)
    // whose shape the record's 1-D boundary list cannot express, and
    // the 2-D setup path rejects evicted layouts anyway. A killed
    // degraded 2-D batch therefore resumes on the cold grid.
    fn capture_fleet(&mut self) -> Option<FleetRecord> {
        None
    }

    fn restore_fleet(&mut self, _fleet: &FleetRecord) -> bool {
        false
    }
}

impl MultiGpu2DEnterprise {
    /// Partitions and uploads `csr` onto the grid.
    pub fn new(config: Grid2DConfig, csr: &Csr) -> Self {
        assert!(config.rows >= 1 && config.cols >= 1);
        assert!(
            matches!(config.policy, DirectionPolicy::Gamma { .. } | DirectionPolicy::TopDownOnly),
            "2-D driver supports Gamma and TopDownOnly policies"
        );
        let n = csr.vertex_count();
        let (r, c) = (config.rows, config.cols);
        assert!(n >= r * c, "fewer vertices than devices");
        let mut multi = MultiDevice::new(r * c, config.device.clone(), config.interconnect);
        multi.set_ecc(config.ecc);
        let tau = hub_threshold_for_capacity(csr, config.hub_cache_entries);

        let row_block = |i: usize| (i * n / r)..((i + 1) * n / r);
        let col_block = |j: usize| (j * n / c)..((j + 1) * n / c);

        // Crash-consistent persistence: a valid layout snapshot for this
        // exact graph/grid restores the layout a previous process
        // converged to — including a straggler-collapsed 1-D layout —
        // plus the hub census, skipping hub measurement. Defects degrade
        // to a cold start.
        let mut store = None;
        let mut persist_errors: Vec<PersistError> = Vec::new();
        let fingerprint = config.persist.as_ref().map(|_| GraphFingerprint::of(csr));
        if let Some(policy) = &config.persist {
            match SnapshotStore::open(&policy.state_dir, config.faults.as_ref()) {
                Ok(s) => store = Some(s),
                Err(e) => persist_errors.push(e),
            }
        }
        let mut restored: Option<LayoutSnapshot> = None;
        if let (Some(st), Some(fp)) = (store.as_mut(), fingerprint.as_ref()) {
            match LayoutSnapshot::load(st) {
                Ok(Some(snap)) => {
                    // A degraded-fleet (evicted) layout belongs to the
                    // elastic 1-D driver; this grid cannot host it.
                    let shape_ok = snap.kind == DriverKind::TwoD
                        && snap.evicted.is_empty()
                        && snap.hub_tau == tau
                        && snap.grid == (r as u32, c as u32)
                        && snap.slices.len() == r * c;
                    let layout_ok = shape_ok
                        && if snap.collapsed {
                            slices_tile_1d(&snap.slices, n)
                        } else {
                            (0..r).all(|i| {
                                (0..c).all(|j| {
                                    snap.slices[i * c + j] == (col_block(j), row_block(i))
                                })
                            })
                        };
                    if snap.fingerprint != *fp {
                        persist_errors.push(PersistError::GraphMismatch);
                    } else if !layout_ok {
                        persist_errors.push(PersistError::LayoutMismatch);
                    } else {
                        restored = Some(snap);
                    }
                }
                Ok(None) => {}
                Err(e) => persist_errors.push(e),
            }
        }
        let warm_restart = restored.is_some();
        let collapsed = restored.as_ref().map(|s| s.collapsed).unwrap_or(false);

        let mut parts = Vec::with_capacity(r * c);
        for i in 0..r {
            for j in 0..c {
                let d = i * c + j;
                let device = multi.device(d);
                // Sanitize/deadline before any allocation so
                // initialization tracking covers every buffer from birth.
                if config.sanitize {
                    device.enable_sanitizer();
                }
                device.set_kernel_deadline_ms(config.watchdog.kernel_deadline_ms);
                let (td, bu) = match &restored {
                    Some(snap) => (snap.slices[d].0.clone(), snap.slices[d].1.clone()),
                    None => (col_block(j), row_block(i)),
                };
                // A collapsed layout stores contiguous 1-D slices, so the
                // device view is the full out/in view over the slice, not
                // a 2-D adjacency block.
                let graph = if collapsed {
                    let view = repartition::build_1d(csr, &td);
                    DeviceGraph::upload_parts(
                        device,
                        n,
                        csr.edge_count(),
                        csr.is_directed(),
                        &view.out_offsets,
                        &view.out_targets,
                        &view.in_offsets,
                        &view.in_sources,
                    )
                } else {
                    upload_block(device, csr, bu.clone(), td.clone())
                };
                let mut state = BfsState::new_partitioned2(
                    device,
                    &graph,
                    config.thresholds,
                    config.hub_cache_entries,
                    tau,
                    td.clone(),
                    bu,
                );
                if restored.is_none() {
                    measure_total_hubs(device, &graph, &mut state);
                }
                parts.push(GridDevice { graph, state, col: td });
            }
        }
        // Share the global hub total (each column's devices count the
        // same hubs; summing over one row of the grid gives T_h). A warm
        // restart reuses the persisted census instead.
        let total: u64 = match &restored {
            Some(snap) => snap.total_hubs,
            None => (0..c).map(|j| parts[j].state.total_hubs).sum(),
        };
        for p in &mut parts {
            p.state.total_hubs = total;
        }
        multi.barrier();
        let out_degrees = csr.vertices().map(|v| csr.out_degree(v)).collect();
        let detector = ImbalanceDetector::new(config.rebalance);
        Self {
            config,
            multi,
            parts,
            vertex_count: n,
            out_degrees,
            csr: csr.clone(),
            tau,
            retired: Vec::new(),
            level_busy: vec![0.0; r * c],
            store,
            fingerprint,
            persist_errors,
            warm_restart,
            collapsed,
            pinned: false,
            detector,
            link_verdicts: crate::route::LinkVerdicts::default(),
            fleet_epoch: 0,
            lane_pool: Vec::new(),
        }
    }

    /// Devices still alive (not evicted by the current/last run).
    pub fn alive_devices(&self) -> usize {
        self.multi.alive_count()
    }

    /// Caps every device's in-driver relaunch budget for faulted kernels
    /// (`0` escalates every injected kernel fault to a level replay).
    pub fn set_launch_retries(&mut self, retries: u32) {
        for d in self.multi.devices_mut() {
            d.set_launch_retries(retries);
        }
    }

    /// Runs a queue of sources as one supervised batch over this warm
    /// grid (DESIGN.md §5i): per-source fault isolation, retries,
    /// hedging, deadline shedding, graceful brownout on the shrinking
    /// (possibly collapsed) grid, and — with persistence armed — a
    /// durable outcome ledger. With `policy` disabled this is
    /// bit-identical to calling [`MultiGpu2DEnterprise::try_bfs`] per
    /// source.
    pub fn batch(
        &mut self,
        sources: &[crate::batch::BatchSource],
        policy: &crate::batch::BatchPolicy,
    ) -> crate::batch::BatchReport<MultiBfsResult> {
        crate::batch::run_batch(self, sources, policy)
    }

    /// Simulated milliseconds on the fleet clock since the last run
    /// started. Right after construction this is the setup cost the warm
    /// grid amortizes across a batch (hub census measurement).
    pub fn sim_elapsed_ms(&self) -> f64 {
        self.multi.elapsed_ms()
    }

    /// Runs one BFS from `source` across the grid, degrading through the
    /// full recovery ladder: in-driver relaunch, level replay, exchange
    /// retry, device eviction + grid repartitioning, and finally the host
    /// CPU baseline when the typed-error budget is exhausted (the
    /// fallback is recorded in [`RecoveryReport::cpu_fallback`]).
    pub fn bfs(&mut self, source: VertexId) -> MultiBfsResult {
        match self.try_bfs(source) {
            Ok(r) => r,
            Err(_) => cpu_fallback_result(
                &self.csr,
                &self.out_degrees,
                source,
                self.multi.elapsed_ms(),
                self.multi.transferred_bytes(),
                self.multi.fault_stats(),
            ),
        }
    }

    /// Fallible 2-D BFS with level-replay recovery, checksummed exchange
    /// retry, and elastic device eviction, mirroring
    /// [`MultiGpuEnterprise::try_bfs`](crate::multi_gpu::MultiGpuEnterprise::try_bfs).
    /// A permanent loss shrinks the grid: the lost block merges into a
    /// row- or column-adjacent survivor when one exists, else the whole
    /// grid collapses to a 1-D layout over the survivors.
    pub fn try_bfs(&mut self, source: VertexId) -> Result<MultiBfsResult, BfsError> {
        // Reinstall the fault plan from its seed so repeated runs draw
        // the same fault sequence (bit-reproducibility).
        if let Some(spec) = self.config.faults {
            self.multi.install_faults(spec);
        }
        let result = self.try_bfs_once(source)?;
        if !self.config.verify.end_of_run {
            return Ok(result);
        }
        if audit(&self.csr, source, &result.levels, &result.parents).is_ok() {
            return Ok(result);
        }
        // Full replay *without* reinstalling the fault plan: the replay
        // continues the fault stream instead of reproducing the exact
        // corruption the audit rejected. Fault counters are cumulative
        // across the replay.
        let mut replay = self.try_bfs_once(source)?;
        replay.recovery.validation_replays += 1;
        match audit(&self.csr, source, &replay.levels, &replay.parents) {
            Ok(()) => Ok(replay),
            Err(e) => Err(BfsError::ValidationFailedAfterReplay(e)),
        }
    }

    /// One attempt of the traversal (no end-of-run audit): the body of
    /// [`MultiGpu2DEnterprise::try_bfs`], which may invoke it twice when
    /// the audit demands a full replay.
    fn try_bfs_once(&mut self, source: VertexId) -> Result<MultiBfsResult, BfsError> {
        let n = self.vertex_count;
        assert!((source as usize) < n);

        // Device loss is per-run: revive the substrate and restore the
        // original partitions displaced by the previous run's evictions,
        // so repeated runs of one instance stay bit-reproducible. Under
        // a batch brownout pin the restoration is skipped — the shrunken
        // fleet, learned layout (including a grid collapse), detector
        // state, and link verdicts carry to the next source instead
        // (DESIGN.md §5i).
        if !self.pinned {
            self.multi.revive_all();
            for (d, part) in self.retired.drain(..).rev() {
                self.parts[d] = part;
            }
            self.detector = ImbalanceDetector::new(self.config.rebalance);
            self.link_verdicts.clear();
        }
        self.multi.reset_stats();

        for (d, part) in self.parts.iter_mut().enumerate() {
            if !self.multi.is_alive(d) {
                continue;
            }
            part.state.reset(self.multi.device(d));
            let mem = self.multi.device(d).mem();
            mem.set(part.state.status, source as usize, 0);
            part.state.queue_sizes = [0; 4];
            if part.col.contains(&(source as usize)) {
                mem.set(part.state.parent, source as usize, source);
                let deg = {
                    // Resident graph arrays can carry silent bit rot from an
                    // earlier batch source; kernels clamp corrupt offsets, and
                    // the host must tolerate them too. A wrong class is caught
                    // by the verifier, not here.
                    let offs = mem.view(part.graph.out_offsets);
                    offs[source as usize + 1].saturating_sub(offs[source as usize])
                };
                let k = part.state.thresholds.classify(deg).index();
                mem.set(part.state.queues[k], 0, source);
                part.state.queue_sizes[k] = 1;
            }
        }

        let mut vars = MultiLoopVars {
            dir: Direction::TopDown,
            switched_at: None,
            cache_filled: false,
        };
        let mut trace = Vec::new();
        let mut recovery =
            RecoveryReport { warm_restart: self.warm_restart, ..RecoveryReport::default() };
        recovery.snapshot_errors.append(&mut self.persist_errors);
        // A durable mid-traversal checkpoint for this source overrides
        // the freshly seeded state with the persisted level boundary and
        // queues, resuming where the dead process left off.
        let mut level: u32 = self.try_resume(source, &mut vars, &mut recovery).unwrap_or(0);
        let level_cap = self.config.watchdog.level_cap(n);
        let mut stall = StallDetector::new(self.config.watchdog.stall_levels);
        let mut link_mark: u64 = self.multi.fault_stats().link_slow_us;

        'levels: loop {
            // Structural liveness bound (previously an assert).
            if level > level_cap {
                let frontier = self.alive_frontier();
                return Err(BfsError::Hang { level, frontier, stalled_levels: 0 });
            }
            // Link-isolation poll (routing ladder rung 5, proactive
            // form): a device whose every route is down cannot take part
            // in the row/column exchanges, so migrate its block onto
            // reachable survivors *now* — before the watchdog would have
            // to declare the (perfectly healthy) device dead.
            if self.config.route.enabled {
                if let Some(isolated) = crate::route::find_isolated(&self.multi) {
                    let ckpt = self.checkpoint(&vars, trace.len());
                    self.handle_loss(isolated, level, &ckpt, &mut vars, &mut trace, &mut recovery)?;
                    recovery.link_isolated.push(isolated);
                    continue 'levels;
                }
            }
            let ckpt = self.checkpoint(&vars, trace.len());
            self.maybe_persist_checkpoint(source, level, &ckpt, &mut recovery);
            let mut attempts: u32 = 0;
            let done = loop {
                let t_level = self.multi.elapsed_ms();
                match self.level_pass(level, &mut vars, &mut trace, &mut recovery) {
                    Ok(done) => {
                        if let Some(budget_ms) = self.config.watchdog.level_deadline_ms {
                            let elapsed_ms = self.multi.elapsed_ms() - t_level;
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
                                recovery.levels_replayed += 1;
                                self.restore(&ckpt, &mut vars, &mut trace);
                                continue;
                            }
                        }
                        // End-of-level SDC gate on the merged global
                        // view: heal from the checkpoint if possible,
                        // replay the level if not.
                        if self.config.verify.end_of_level {
                            let infos = self.verify_infos();
                            match verify_merged_level(
                                &mut self.multi,
                                &self.csr,
                                &infos,
                                &ckpt,
                                source,
                                level,
                                vars.dir,
                                self.config.verify.repair,
                                &self.config.thresholds,
                                view_2d,
                                &mut recovery,
                            ) {
                                MergedVerdict::Clean => {}
                                MergedVerdict::Repaired { done, sizes } => {
                                    for (d, s) in sizes {
                                        self.parts[d].state.queue_sizes = s;
                                    }
                                    break done;
                                }
                                MergedVerdict::Corrupt(err) => {
                                    attempts += 1;
                                    if attempts > self.config.recovery.max_level_retries {
                                        return Err(BfsError::ValidationFailedAfterReplay(err));
                                    }
                                    recovery.levels_replayed += 1;
                                    self.restore(&ckpt, &mut vars, &mut trace);
                                    continue;
                                }
                            }
                        }
                        break done;
                    }
                    Err(BfsError::Device(e)) => {
                        // Permanent device loss: evict, merge the lost
                        // block into the shrunken grid, and replay the
                        // level with a fresh checkpoint.
                        if let Some(lost) = loss_of(&e, &self.multi) {
                            self.handle_loss(lost, level, &ckpt, &mut vars, &mut trace, &mut recovery)?;
                            continue 'levels;
                        }
                        // Slow-but-alive: a kernel-deadline overrun on a
                        // straggler device. Collapse the grid to weighted
                        // 1-D slices and replay, instead of burning the
                        // level-replay budget on deterministic overruns.
                        if let Some((slow, overrun)) = slow_of(&e, &self.multi) {
                            if self.detector.force() {
                                recovery.stragglers_detected += 1;
                                self.restore(&ckpt, &mut vars, &mut trace);
                                let weights: Vec<(usize, f64)> = self
                                    .multi
                                    .alive_ids()
                                    .into_iter()
                                    .map(|d| (d, if d == slow { 1.0 / overrun } else { 1.0 }))
                                    .collect();
                                self.rebalance_collapse(&weights, level, vars.dir, &mut recovery)?;
                                recovery.rebalances += 1;
                                recovery.levels_replayed += 1;
                                continue 'levels;
                            }
                        }
                        attempts += 1;
                        if attempts > self.config.recovery.max_level_retries {
                            return Err(BfsError::LevelRetriesExhausted {
                                level,
                                attempts,
                                last: e,
                            });
                        }
                        recovery.levels_replayed += 1;
                        self.restore(&ckpt, &mut vars, &mut trace);
                    }
                    // Routed-exchange verdict: one endpoint of a dead
                    // link is unreachable by probe, relay *and* host
                    // bounce. Same splice path as a watchdog loss, but
                    // the trigger is routing — the device itself is fine.
                    Err(BfsError::LinkIsolated { device, .. }) => {
                        self.handle_loss(device, level, &ckpt, &mut vars, &mut trace, &mut recovery)?;
                        recovery.link_isolated.push(device);
                        continue 'levels;
                    }
                    Err(other) => return Err(other),
                }
            };
            if done {
                break;
            }
            // Injected livelock: device 0's plan is the coordinator draw.
            let livelocked = self.multi.device(0).should_inject_livelock();
            if livelocked {
                self.restore(&ckpt, &mut vars, &mut trace);
            }
            if let Some(det) = stall.as_mut() {
                let frontier = self.alive_frontier();
                let d0 = self.multi.alive_ids()[0];
                let visited = self
                    .multi
                    .device_ref(d0)
                    .mem_ref()
                    .view(self.parts[d0].state.status)
                    .iter()
                    .filter(|&&s| s != UNVISITED)
                    .count();
                if let Some(stalled) = det.observe(visited, frontier) {
                    return Err(BfsError::Hang { level, frontier, stalled_levels: stalled });
                }
            }
            // Background scrubbing across the grid: clear latent
            // single-bit ECC errors on cadence. No-op with ECC off.
            if let Some(every) = self.config.scrub_levels {
                if every > 0 && (level + 1) % every == 0 {
                    self.multi.scrub_all();
                }
            }
            // Throttle-onset clock: every surviving device has finished
            // one more level (drives `FaultSpec::throttle_onset_levels`).
            for d in self.multi.alive_ids() {
                self.multi.device(d).note_level_end();
            }
            // Per-link flap windows advance on completed levels (no-op
            // without an armed link topology).
            self.multi.tick_link_level();
            // Adaptive rebalance (§5f rung 2): on a confirmed straggler
            // the grid collapses to throughput-weighted 1-D slices.
            // Skipped after a livelock rollback — the state was rewound
            // to the level checkpoint, so this level's queues no longer
            // exist to rebuild.
            if self.config.rebalance.enabled && !livelocked {
                let timings: Vec<DeviceTiming> = self
                    .multi
                    .alive_ids()
                    .into_iter()
                    .map(|d| DeviceTiming {
                        device: d,
                        busy_ms: self.level_busy[d],
                        work_items: self.parts[d].col.len() as u64,
                    })
                    .collect();
                if let Some(weights) = self.detector.observe(&timings) {
                    recovery.stragglers_detected += 1;
                    self.rebalance_collapse(&weights, level + 1, vars.dir, &mut recovery)?;
                    recovery.rebalances += 1;
                } else {
                    // Degraded-link fold (§5f): per-device busy time never
                    // sees a slow wire (exec clocks exclude exchanges), so
                    // the level's growth of the fault plane's accumulated
                    // link slow-down feeds the same streak/cooldown ladder
                    // and collapses the grid by measured throughput.
                    let slow_ms = (self.multi.fault_stats().link_slow_us - link_mark) as f64 / 1e3;
                    if self.detector.observe_link(slow_ms) {
                        recovery.link_slow_detections += 1;
                        let usable = timings.len() >= 2
                            && timings.iter().all(|t| t.busy_ms > 0.0 && t.work_items > 0);
                        if usable {
                            let weights: Vec<(usize, f64)> = timings
                                .iter()
                                .map(|t| (t.device, t.work_items as f64 / t.busy_ms))
                                .collect();
                            self.rebalance_collapse(&weights, level + 1, vars.dir, &mut recovery)?;
                            recovery.rebalances += 1;
                        }
                    }
                }
                link_mark = self.multi.fault_stats().link_slow_us;
            }
            level += 1;
        }

        recovery.faults = self.multi.fault_stats();
        self.persist_finish(&mut recovery);
        Ok(self.collect(source, vars.switched_at, trace, recovery))
    }

    /// Attempts to resume from a durable mid-traversal checkpoint. Returns
    /// the level to continue at, or `None` for a cold start (no snapshot,
    /// persistence disabled, or a typed defect recorded in `recovery`).
    fn try_resume(
        &mut self,
        source: VertexId,
        vars: &mut MultiLoopVars,
        recovery: &mut RecoveryReport,
    ) -> Option<u32> {
        let fp = *self.fingerprint.as_ref()?;
        let store = self.store.as_mut()?;
        let snap = match load_checkpoint_chain(store, &mut recovery.snapshot_errors) {
            Ok(Some(s)) => s,
            Ok(None) => return None,
            Err(e) => {
                recovery.snapshot_errors.push(e);
                return None;
            }
        };
        if snap.fingerprint != fp {
            recovery.snapshot_errors.push(PersistError::GraphMismatch);
            return None;
        }
        if snap.source != source {
            recovery.snapshot_errors.push(PersistError::SourceMismatch);
            return None;
        }
        let n = self.vertex_count;
        // 2-D eviction splices collapse the grid to 1-D slices this
        // driver cannot re-host across a process boundary; a degraded
        // snapshot is a layout mismatch here (the 1-D driver resumes it).
        let compatible = snap.evicted.is_empty()
            // Lane-bound checkpoints (written inside a pipelined window)
            // must not be adopted by a sequential resume.
            && snap.lanes.is_empty()
            && snap.kind == DriverKind::TwoD
            && snap.devices.len() == self.parts.len()
            && snap.devices.iter().zip(&self.parts).all(|(dev, part)| {
                dev.td == part.state.td_range
                    && dev.bu == part.state.bu_range
                    && dev.status.len() == n
                    && dev.parent.len() == n
                    && dev.hub_src.len() == part.state.hub_cache_entries
                    && dev.queues.iter().all(|q| q.len() <= n)
            });
        if !compatible {
            recovery.snapshot_errors.push(PersistError::LayoutMismatch);
            return None;
        }
        for (d, (dev, part)) in snap.devices.iter().zip(&mut self.parts).enumerate() {
            let mem = self.multi.device(d).mem();
            mem.upload(part.state.status, &dev.status);
            mem.upload(part.state.parent, &dev.parent);
            for (k, q) in dev.queues.iter().enumerate() {
                let mut padded = q.clone();
                padded.resize(n, 0);
                mem.upload(part.state.queues[k], &padded);
                part.state.queue_sizes[k] = q.len();
            }
            mem.upload(part.state.hub_src, &dev.hub_src);
        }
        *vars = MultiLoopVars {
            dir: if snap.dir_bottom_up { Direction::BottomUp } else { Direction::TopDown },
            switched_at: snap.switched_at,
            cache_filled: snap.cache_filled,
        };
        recovery.resumed_at_level = Some(snap.level);
        Some(snap.level)
    }

    /// Publishes a durable mid-traversal checkpoint at the configured
    /// level cadence. Skipped once any device has been evicted this run:
    /// eviction splices are per-run state a fresh process cannot rebuild
    /// (it will start with all devices revived). Failures are absorbed.
    fn maybe_persist_checkpoint(
        &mut self,
        source: VertexId,
        level: u32,
        ckpt: &MultiCheckpoint,
        recovery: &mut RecoveryReport,
    ) {
        let every = match self.config.persist.as_ref().and_then(|p| p.checkpoint_levels) {
            Some(e) => e,
            None => return,
        };
        if level == 0 || level % every != 0 {
            return;
        }
        if !self.retired.is_empty() || self.multi.alive_count() != self.parts.len() {
            return;
        }
        let (Some(fp), Some(_)) = (self.fingerprint.as_ref(), self.store.as_ref()) else {
            return;
        };
        let devices = self
            .parts
            .iter()
            .enumerate()
            .map(|(d, part)| DeviceCheckpoint {
                td: part.state.td_range.clone(),
                bu: part.state.bu_range.clone(),
                status: ckpt.devices[d].status.clone(),
                parent: ckpt.devices[d].parent.clone(),
                queues: truncate_queues(&ckpt.devices[d].queues, &ckpt.devices[d].queue_sizes),
                hub_src: self.multi.device_ref(d).mem_ref().view(part.state.hub_src).to_vec(),
            })
            .collect();
        let snap = CheckpointSnapshot {
            kind: DriverKind::TwoD,
            fingerprint: *fp,
            source,
            level,
            dir_bottom_up: matches!(ckpt.vars.dir, Direction::BottomUp),
            switched_at: ckpt.vars.switched_at,
            cache_filled: ckpt.vars.cache_filled,
            visited_edge_sum: 0,
            bu_queue_edge_sum: 0,
            prev_frontier_edges: 0,
            devices,
            evicted: Vec::new(),
            lanes: Vec::new(),
        };
        let store = self.store.as_mut().expect("checked above");
        match snap.save(store) {
            Ok(()) => recovery.snapshots_persisted += 1,
            Err(e) => recovery.snapshot_errors.push(e),
        }
    }

    /// End-of-run persistence: durably publish the learned layout — the
    /// original grid blocks, or the straggler-collapsed 1-D slices that
    /// outlive the run — plus the hub census, and retire the
    /// mid-traversal checkpoint. Eviction splices are per-run, so the
    /// persisted slices substitute each retired partition's range back
    /// in — exactly the layout the next run (or process) starts from.
    fn persist_finish(&mut self, recovery: &mut RecoveryReport) {
        let (Some(fp), Some(_)) = (self.fingerprint.as_ref(), self.store.as_ref()) else {
            return;
        };
        let n = self.vertex_count;
        let (r, c) = (self.config.rows, self.config.cols);
        let mut slices: Vec<(std::ops::Range<usize>, std::ops::Range<usize>)> = self
            .parts
            .iter()
            .map(|p| (p.state.td_range.clone(), p.state.bu_range.clone()))
            .collect();
        for (d, part) in self.retired.iter().rev() {
            slices[*d] = (part.state.td_range.clone(), part.state.bu_range.clone());
        }
        let row_block = |i: usize| (i * n / r)..((i + 1) * n / r);
        let col_block = |j: usize| (j * n / c)..((j + 1) * n / c);
        let shape_ok = if self.collapsed {
            slices_tile_1d(&slices, n)
        } else {
            (0..r).all(|i| (0..c).all(|j| slices[i * c + j] == (col_block(j), row_block(i))))
        };
        let layout = LayoutSnapshot {
            kind: DriverKind::TwoD,
            fingerprint: *fp,
            hub_tau: self.tau,
            total_hubs: self.parts[0].state.total_hubs,
            grid: (r as u32, c as u32),
            collapsed: self.collapsed,
            slices,
            evicted: Vec::new(),
        };
        let store = self.store.as_mut().expect("checked above");
        if shape_ok {
            match layout.save(store) {
                Ok(()) => recovery.snapshots_persisted += 1,
                Err(e) => recovery.snapshot_errors.push(e),
            }
        } else {
            recovery.snapshot_errors.push(PersistError::LayoutMismatch);
        }
        for file in [CHECKPOINT_FILE, DELTA_FILE] {
            if let Err(e) = store.remove(file) {
                recovery.snapshot_errors.push(e);
            }
        }
        recovery.faults.merge(&store.take_stats());
    }

    /// Verifier handles for every alive grid device (td = column block,
    /// bu = row block).
    fn verify_infos(&self) -> Vec<DeviceVerifyInfo> {
        self.multi
            .alive_ids()
            .into_iter()
            .map(|d| {
                let part = &self.parts[d];
                DeviceVerifyInfo {
                    device: d,
                    status: part.state.status,
                    parent: part.state.parent,
                    queues: part.state.queues,
                    td_range: part.state.td_range.clone(),
                    bu_range: part.state.bu_range.clone(),
                }
            })
            .collect()
    }

    /// Snapshots every grid device's traversal state for level replay.
    fn checkpoint(&self, vars: &MultiLoopVars, trace_len: usize) -> MultiCheckpoint {
        let devices = self
            .parts
            .iter()
            .enumerate()
            .map(|(d, part)| {
                let mem = self.multi.device_ref(d).mem_ref();
                DeviceSnapshot {
                    status: mem.view(part.state.status).to_vec(),
                    parent: mem.view(part.state.parent).to_vec(),
                    queues: [
                        mem.view(part.state.queues[0]).to_vec(),
                        mem.view(part.state.queues[1]).to_vec(),
                        mem.view(part.state.queues[2]).to_vec(),
                        mem.view(part.state.queues[3]).to_vec(),
                    ],
                    queue_sizes: part.state.queue_sizes,
                }
            })
            .collect();
        MultiCheckpoint { devices, vars: vars.clone(), trace_len }
    }

    /// Rolls every surviving grid device back to `ckpt` (a lost device's
    /// buffers are never read again, so it is skipped; simulated time is
    /// not rolled back).
    fn restore(
        &mut self,
        ckpt: &MultiCheckpoint,
        vars: &mut MultiLoopVars,
        trace: &mut Vec<LevelRecord>,
    ) {
        for ((d, part), snap) in self.parts.iter_mut().enumerate().zip(&ckpt.devices) {
            if !self.multi.is_alive(d) {
                continue;
            }
            let mem = self.multi.device(d).mem();
            mem.upload(part.state.status, &snap.status);
            mem.upload(part.state.parent, &snap.parent);
            for (buf, data) in part.state.queues.iter().zip(&snap.queues) {
                mem.upload(*buf, data);
            }
            part.state.queue_sizes = snap.queue_sizes;
        }
        *vars = ckpt.vars.clone();
        trace.truncate(ckpt.trace_len);
    }

    /// Frontier total over surviving devices.
    fn alive_frontier(&self) -> usize {
        self.parts
            .iter()
            .enumerate()
            .filter(|(d, _)| self.multi.is_alive(*d))
            .map(|(_, p)| p.state.total_frontier())
            .sum()
    }

    /// Advances every surviving timeline by the serialized cost of
    /// moving `moved_words`, counts the bytes as interconnect traffic,
    /// and returns the span.
    fn charge_migration(&mut self, moved_words: u64) -> f64 {
        let n = self.vertex_count;
        let span_ms = repartition::repartition_cost_ms(&self.config.interconnect, moved_words, n);
        self.multi.advance_all(span_ms);
        self.multi.count_transfer(repartition::migration_bytes(moved_words, n));
        span_ms
    }

    /// Per-device kernel-execution clocks (indexed by device id). The
    /// exec clock excludes launch overheads and host charges, so its
    /// delta is the clock-rate-sensitive component a thermal straggler
    /// actually stretches.
    fn device_clocks(&self) -> Vec<f64> {
        (0..self.parts.len()).map(|d| self.multi.device_ref(d).exec_elapsed_ms()).collect()
    }

    /// Accumulates each device's exec-clock advance since `mark` into
    /// the level telemetry. Must be called *before* the next barrier so
    /// wait time is not attributed to fast devices.
    fn add_level_busy(&mut self, mark: &[f64]) {
        for (d, m) in mark.iter().enumerate().take(self.parts.len()) {
            self.level_busy[d] += self.multi.device_ref(d).exec_elapsed_ms() - m;
        }
    }

    /// Straggler mitigation for the grid: collapse every alive device to
    /// a contiguous 1-D slice whose length is proportional to its
    /// measured throughput (`weights`), via the same
    /// [`splice_device`](Self::splice_device) machinery rule 3 of
    /// [`handle_loss`](Self::handle_loss) uses. Each device keeps its
    /// *own* parent array (it stays alive), the merged status is
    /// re-uploaded as-is, and queues are rebuilt for `rebuild_level` over
    /// the new slices. The whole layout moves once across the
    /// interconnect, charged to [`RecoveryReport::rebalance_ms`].
    fn rebalance_collapse(
        &mut self,
        weights: &[(usize, f64)],
        rebuild_level: u32,
        dir: Direction,
        recovery: &mut RecoveryReport,
    ) -> Result<(), BfsError> {
        if weights.len() < 2 {
            return Ok(());
        }
        let n = self.vertex_count;
        // Stable layout order: current column block, then row position.
        let mut order: Vec<(usize, f64)> = weights.to_vec();
        order.sort_by_key(|&(d, _)| (self.parts[d].col.start, d));
        let w: Vec<f64> = order.iter().map(|&(_, w)| w).collect();
        let slices = if self.config.rebalance.edge_balanced {
            repartition::weighted_slices_by_degree(&self.out_degrees, &w)
        } else {
            rebalance::weighted_slices(n, &w)
        };

        // Any alive device's status is the merged global view.
        let d0 = self.multi.alive_ids()[0];
        let status = self.multi.device_ref(d0).mem_ref().view(self.parts[d0].state.status).to_vec();

        let views: Vec<repartition::PartitionArrays> =
            slices.iter().map(|s| repartition::build_1d(&self.csr, s)).collect();
        // Serialized, not per-link: every device receives a whole new
        // view gathered from the old block owners, so one charge covers
        // the fleet-wide volume.
        let moved: u64 = views.iter().map(|v| v.moved_words()).sum();
        recovery.rebalance_ms += self.charge_migration(moved);

        // splice_device retires the old parts so *eviction* splices can
        // be undone at the next run start (device loss is per-run). A
        // rebalanced layout is different: the collapsed boundaries
        // outlive this run, so one interconnect move amortizes over a
        // multi-source workload. Drop what the splice loop retired.
        let mark = self.retired.len();
        for ((&(d, _), slice), view) in order.iter().zip(&slices).zip(&views) {
            let parent =
                self.multi.device_ref(d).mem_ref().view(self.parts[d].state.parent).to_vec();
            self.splice_device(
                d,
                slice.clone(),
                slice.clone(),
                view,
                &status,
                &parent,
                dir,
                rebuild_level,
            )?;
        }
        self.retired.truncate(mark);
        self.collapsed = true;
        self.fleet_epoch += 1;
        Ok(())
    }

    /// Evicts `lost` and shrinks the grid around the hole, then lets the
    /// caller replay the level with a fresh checkpoint. Merge rules, in
    /// priority order:
    ///
    /// 1. a survivor covering the *same row block* with a
    ///    *column-adjacent* block absorbs the lost columns (its expansion
    ///    slice widens);
    /// 2. a survivor covering the *same column block* with a
    ///    *row-adjacent* block absorbs the lost rows (its inspection
    ///    slice widens);
    /// 3. otherwise the whole grid collapses to a 1-D layout over the
    ///    survivors (each gets a contiguous vertex slice, as in the 1-D
    ///    driver).
    ///
    /// Fails with [`BfsError::AllDevicesLost`] when the eviction budget
    /// ([`RecoveryPolicy::min_surviving_devices`]) is exhausted.
    fn handle_loss(
        &mut self,
        lost: usize,
        level: u32,
        ckpt: &MultiCheckpoint,
        vars: &mut MultiLoopVars,
        trace: &mut Vec<LevelRecord>,
        recovery: &mut RecoveryReport,
    ) -> Result<(), BfsError> {
        let min_survivors = self.config.recovery.min_surviving_devices.max(1);
        if self.multi.alive_count() <= min_survivors {
            return Err(BfsError::AllDevicesLost {
                level,
                lost: recovery.devices_lost.len() as u32 + 1,
            });
        }
        self.multi.evict(lost);
        self.restore(ckpt, vars, trace);

        let lost_rows = self.parts[lost].state.bu_range.clone();
        let lost_cols = self.parts[lost].col.clone();
        let alive = self.multi.alive_ids();
        let same_row = alive.iter().copied().find(|&d| {
            self.parts[d].state.bu_range == lost_rows
                && repartition::adjacent(&self.parts[d].col, &lost_cols)
        });
        let same_col = alive.iter().copied().find(|&d| {
            self.parts[d].col == lost_cols
                && repartition::adjacent(&self.parts[d].state.bu_range, &lost_rows)
        });

        if let Some(rcv) = same_row {
            let rows = lost_rows.clone();
            let cols = repartition::union_range(&self.parts[rcv].col, &lost_cols);
            let moved = repartition::build_2d(&self.csr, &lost_rows, &lost_cols).moved_words();
            recovery.repartition_ms += self.charge_migration(moved);
            let view = repartition::build_2d(&self.csr, &rows, &cols);
            let status = ckpt.devices[rcv].status.clone();
            let mut parent = ckpt.devices[rcv].parent.clone();
            repartition::merge_parents(&mut parent, &ckpt.devices[lost].parent);
            self.splice_device(rcv, rows, cols, &view, &status, &parent, vars.dir, level)?;
        } else if let Some(rcv) = same_col {
            let rows = repartition::union_range(&self.parts[rcv].state.bu_range, &lost_rows);
            let cols = lost_cols.clone();
            let moved = repartition::build_2d(&self.csr, &lost_rows, &lost_cols).moved_words();
            recovery.repartition_ms += self.charge_migration(moved);
            let view = repartition::build_2d(&self.csr, &rows, &cols);
            let status = ckpt.devices[rcv].status.clone();
            let mut parent = ckpt.devices[rcv].parent.clone();
            repartition::merge_parents(&mut parent, &ckpt.devices[lost].parent);
            self.splice_device(rcv, rows, cols, &view, &status, &parent, vars.dir, level)?;
        } else {
            // Rule 3: every survivor is re-laid-out, so the whole graph
            // moves once across the interconnect.
            let p = alive.len();
            let n = self.vertex_count;
            let views: Vec<(usize, std::ops::Range<usize>, repartition::PartitionArrays)> = alive
                .iter()
                .enumerate()
                .map(|(k, &d)| {
                    let slice = (k * n / p)..((k + 1) * n / p);
                    let view = repartition::build_1d(&self.csr, &slice);
                    (d, slice, view)
                })
                .collect();
            let moved: u64 = views.iter().map(|(_, _, v)| v.moved_words()).sum();
            recovery.repartition_ms += self.charge_migration(moved);
            for (k, (d, slice, view)) in views.iter().enumerate() {
                let status = ckpt.devices[*d].status.clone();
                let mut parent = ckpt.devices[*d].parent.clone();
                // The lost device's discoveries survive on exactly one
                // recipient (collect() takes the first recorded parent).
                if k == 0 {
                    repartition::merge_parents(&mut parent, &ckpt.devices[lost].parent);
                }
                self.splice_device(
                    *d,
                    slice.clone(),
                    slice.clone(),
                    view,
                    &status,
                    &parent,
                    vars.dir,
                    level,
                )?;
            }
        }
        recovery.devices_lost.push(lost);
        recovery.levels_replayed += 1;
        self.fleet_epoch += 1;
        Ok(())
    }

    /// Re-uploads device `d`'s partition as the `(rows, cols)` block view
    /// and splices the checkpointed traversal state onto it: status and
    /// parents as given, frontier queues rebuilt host-side from the
    /// status array. The displaced partition goes on the retired stack
    /// for restoration at the next run's start.
    #[allow(clippy::too_many_arguments)]
    fn splice_device(
        &mut self,
        d: usize,
        rows: std::ops::Range<usize>,
        cols: std::ops::Range<usize>,
        view: &repartition::PartitionArrays,
        status: &[u32],
        parent: &[u32],
        dir: Direction,
        level: u32,
    ) -> Result<(), BfsError> {
        let device = self.multi.device(d);
        let graph = DeviceGraph::try_upload_parts(
            device,
            self.csr.vertex_count(),
            self.csr.edge_count(),
            self.csr.is_directed(),
            &view.out_offsets,
            &view.out_targets,
            &view.in_offsets,
            &view.in_sources,
        )?;
        let mut state = BfsState::try_new_partitioned2(
            device,
            &graph,
            self.config.thresholds,
            self.config.hub_cache_entries,
            self.tau,
            cols.clone(),
            rows.clone(),
        )?;
        // T_h is a global graph property, unchanged by repartitioning.
        state.total_hubs = self.parts[d].state.total_hubs;
        let rebuilt = repartition::rebuild_queues(
            status,
            dir,
            level,
            &cols,
            &rows,
            &view.out_offsets,
            &view.in_offsets,
            &self.config.thresholds,
        );
        let n = self.vertex_count;
        let mem = self.multi.device(d).mem();
        mem.upload(state.status, status);
        mem.upload(state.parent, parent);
        for (buf, q) in state.queues.iter().zip(&rebuilt.queues) {
            let mut padded = q.clone();
            padded.resize(n, 0);
            mem.upload(*buf, &padded);
        }
        state.queue_sizes = rebuilt.sizes;
        let old = std::mem::replace(&mut self.parts[d], GridDevice { graph, state, col: cols });
        self.retired.push((d, old));
        Ok(())
    }

    /// One global level of the 2-D traversal. Returns `Ok(true)` when the
    /// search has terminated.
    fn level_pass(
        &mut self,
        level: u32,
        vars: &mut MultiLoopVars,
        trace: &mut Vec<LevelRecord>,
        recovery: &mut RecoveryReport,
    ) -> Result<bool, BfsError> {
        let n = self.vertex_count;
        let (r, c) = (self.config.rows, self.config.cols);
        let policy = self.config.policy;
        let total_hubs = self.parts[0].state.total_hubs;
        let dir = vars.dir;

        // Expansion is deliberately *not* straggler telemetry: it
        // follows the frontier, which wanders between column blocks from
        // level to level, so its skew reads graph shape, not device
        // speed. The queue-generation scan below is slice-proportional
        // and is what the detector consumes.
        let t0 = self.multi.elapsed_ms();
        for (d, part) in self.parts.iter().enumerate() {
            if !self.multi.is_alive(d) {
                continue;
            }
            try_expand_level(
                self.multi.device(d),
                &part.graph,
                &part.state,
                level,
                dir,
                true,
                false,
            )?;
        }
        // Row-merge + column-share of the freshly visited bits. The wire
        // cost keeps the configured grid shape even after an eviction
        // shrinks it — a conservative (over-charging) simplification of
        // the degraded communication pattern.
        let wire_bits = (c - 1 + r - 1) as u64 * ballot_compressed_bytes(n.div_ceil(r));
        if self.config.faults.is_none() {
            // Fault-free substrate: bit-identical to the pre-fault-plane
            // driver.
            self.multi.exchange_serialized(wire_bits);
        } else {
            // The logical wire content is the union bitmap of newly
            // visited vertices; checksummed, retried on drop/corruption.
            let mut bitmap = vec![0u8; ballot_compressed_bytes(n) as usize];
            for (d, part) in self.parts.iter().enumerate() {
                if !self.multi.is_alive(d) {
                    continue;
                }
                let status = self.multi.device_ref(d).mem_ref().view(part.state.status);
                for (v, &s) in status.iter().enumerate() {
                    if s == level + 1 {
                        bitmap[v / 8] |= 1 << (v % 8);
                    }
                }
            }
            crate::route::exchange_routed(
                &mut self.multi,
                &bitmap,
                &self.config.recovery,
                &self.config.route,
                level,
                recovery,
                &mut self.link_verdicts,
                |m| m.exchange_serialized_with_faults(wire_bits),
            )?;
        }
        let newly = self.merge_level(level + 1);
        let expand_ms = self.multi.elapsed_ms() - t0;

        let t1 = self.multi.elapsed_ms();
        // Straggler telemetry window: the queue-generation scan walks
        // each device's owned slice, so per-device exec time here is
        // directly proportional to slice length — a clean read of
        // relative device speed.
        self.level_busy.iter_mut().for_each(|b| *b = 0.0);
        let gen_mark = self.device_clocks();
        let mut hub_frontiers = 0u64;
        let mut sizes = [0usize; 4];
        for (d, part) in self.parts.iter_mut().enumerate() {
            if !self.multi.is_alive(d) {
                continue;
            }
            let wf = match dir {
                Direction::TopDown => GenWorkflow::TopDown { frontier_level: level + 1 },
                Direction::BottomUp => GenWorkflow::Filter { newly_level: level + 1 },
            };
            let res =
                try_generate_queues(self.multi.device(d), &part.graph, &mut part.state, wf, false)?;
            hub_frontiers += res.hub_frontiers;
            for (size, part_size) in sizes.iter_mut().zip(res.sizes) {
                *size += part_size;
            }
        }
        self.add_level_busy(&gen_mark);
        self.multi.barrier();

        let gamma_pct = crate::direction::gamma_pct(hub_frontiers, total_hubs);
        let mut next_dir = dir;
        if dir == Direction::TopDown {
            let signals = SwitchSignals {
                gamma_pct,
                frontier_vertices: newly,
                total_vertices: n,
                ..Default::default()
            };
            if policy.evaluate_topdown(&signals, vars.switched_at.is_some())
                == SwitchDecision::ToBottomUp
            {
                vars.switched_at = Some(level + 1);
                next_dir = Direction::BottomUp;
                sizes = [0; 4];
                let switch_mark = self.device_clocks();
                for (d, part) in self.parts.iter_mut().enumerate() {
                    if !self.multi.is_alive(d) {
                        continue;
                    }
                    let res = try_generate_queues(
                        self.multi.device(d),
                        &part.graph,
                        &mut part.state,
                        GenWorkflow::Switch { newly_level: level + 1 },
                        false,
                    )?;
                    for (size, part_size) in sizes.iter_mut().zip(res.sizes) {
                        *size += part_size;
                    }
                }
                self.add_level_busy(&switch_mark);
                self.multi.barrier();
            }
        }
        let queue_gen_ms = self.multi.elapsed_ms() - t1;

        trace.push(LevelRecord {
            level,
            direction: next_dir.label(),
            sizes,
            gamma_pct,
            alpha: 0.0,
            newly_visited: newly,
            expand_ms,
            queue_gen_ms,
        });

        let total_next: usize = sizes.iter().sum();
        let done = match next_dir {
            Direction::TopDown => total_next == 0,
            Direction::BottomUp => newly == 0 || total_next == 0,
        };
        vars.dir = next_dir;
        Ok(done)
    }

    /// Host-side union merge of the level's discoveries (the data the
    /// row/column exchange carried); returns how many vertices were
    /// newly visited.
    fn merge_level(&mut self, newly_level: u32) -> usize {
        let n = self.vertex_count;
        let mut newly = vec![false; n];
        for (d, part) in self.parts.iter().enumerate() {
            if !self.multi.is_alive(d) {
                continue;
            }
            let status = self.multi.device_ref(d).mem_ref().view(part.state.status);
            for (v, &s) in status.iter().enumerate() {
                if s == newly_level {
                    newly[v] = true;
                }
            }
        }
        for (d, part) in self.parts.iter().enumerate() {
            if !self.multi.is_alive(d) {
                continue;
            }
            let buf = part.state.status;
            let device = self.multi.device(d);
            for (v, &is_new) in newly.iter().enumerate() {
                if is_new && device.mem_ref().get(buf, v) == UNVISITED {
                    device.mem().set(buf, v, newly_level);
                }
            }
        }
        newly.iter().filter(|&&b| b).count()
    }

    fn collect(
        &mut self,
        source: VertexId,
        switched_at: Option<u32>,
        trace: Vec<LevelRecord>,
        recovery: RecoveryReport,
    ) -> MultiBfsResult {
        let n = self.vertex_count;
        // Any surviving device's status works post-merge; a lost device's
        // buffers are stale (they missed the post-loss rollback).
        let d0 = self.multi.alive_ids()[0];
        let status = self.multi.device_ref(d0).mem_ref().view(self.parts[d0].state.status).to_vec();
        let levels = levels_from_raw(&status);
        let mut parents: Vec<Option<VertexId>> = vec![None; n];
        for (d, part) in self.parts.iter().enumerate() {
            if !self.multi.is_alive(d) {
                continue;
            }
            let p = self.multi.device_ref(d).mem_ref().view(part.state.parent);
            for v in 0..n {
                if parents[v].is_none() && p[v] != NO_PARENT {
                    parents[v] = Some(p[v]);
                }
            }
        }
        let visited = levels.iter().filter(|l| l.is_some()).count();
        let traversed_edges: u64 = levels
            .iter()
            .zip(&self.out_degrees)
            .filter(|(l, _)| l.is_some())
            .map(|(_, &deg)| deg as u64)
            .sum();
        let depth = levels.iter().flatten().max().copied().unwrap_or(0);
        let time_ms = self.multi.elapsed_ms();
        let teps = if time_ms > 0.0 { traversed_edges as f64 / (time_ms / 1e3) } else { 0.0 };
        MultiBfsResult {
            source,
            levels,
            parents,
            visited,
            traversed_edges,
            time_ms,
            teps,
            depth,
            switched_at,
            communication_bytes: self.multi.transferred_bytes(),
            level_trace: trace,
            recovery,
        }
    }

    /// Swaps a lane's per-device states onto the grid (and back — the
    /// operation is its own inverse). Devices dead at the lane's
    /// admission hold `None` and keep the grid's resident state.
    fn swap_lane_states(&mut self, lane: &mut GridLane) {
        for (part, st) in self.parts.iter_mut().zip(&mut lane.states) {
            if let Some(st) = st.as_mut() {
                std::mem::swap(&mut part.state, st);
            }
        }
    }

    /// Returns a lane's states to its slot's pool; a pooled state whose
    /// scan ranges no longer match the device's block is never reused.
    fn park_lane_states(&mut self, lane: &mut GridLane) {
        if self.lane_pool.len() <= lane.slot {
            self.lane_pool.resize_with(lane.slot + 1, Vec::new);
        }
        let pool = &mut self.lane_pool[lane.slot];
        if pool.len() < lane.states.len() {
            pool.resize_with(lane.states.len(), || None);
        }
        for (d, st) in lane.states.iter_mut().enumerate() {
            if let Some(st) = st.take() {
                pool[d] = Some(st);
            }
        }
    }

    /// Allocates (or reuses pooled) per-device lane state and seeds
    /// `source` on it — every survivor learns the source, only column-
    /// block owners enqueue it, exactly like the sequential seed. Runs
    /// inside the fused window with the lane's slot switched in.
    fn lane_open_inner(&mut self, source: VertexId, slot: usize) -> Result<GridLane, BfsError> {
        let n = self.vertex_count;
        assert!((source as usize) < n);
        let p = self.parts.len();
        if self.lane_pool.len() <= slot {
            self.lane_pool.resize_with(slot + 1, Vec::new);
        }
        if self.lane_pool[slot].len() < p {
            self.lane_pool[slot].resize_with(p, || None);
        }
        let mut states: Vec<Option<BfsState>> = Vec::with_capacity(p);
        for d in 0..p {
            if !self.multi.is_alive(d) {
                states.push(None);
                continue;
            }
            let td = self.parts[d].state.td_range.clone();
            let bu = self.parts[d].state.bu_range.clone();
            let pooled = self.lane_pool[slot][d]
                .take()
                .filter(|st| st.td_range == td && st.bu_range == bu);
            let mut st = match pooled {
                Some(st) => st,
                None => BfsState::try_new_labeled(
                    self.multi.device(d),
                    &self.parts[d].graph,
                    self.config.thresholds,
                    self.config.hub_cache_entries,
                    self.tau,
                    td,
                    bu,
                    &format!("lane{slot}."),
                )
                .map_err(BfsError::Device)?,
            };
            st.total_hubs = self.parts[d].state.total_hubs;
            st.reset(self.multi.device(d));
            let mem = self.multi.device(d).mem();
            mem.set(st.status, source as usize, 0);
            st.queue_sizes = [0; 4];
            if self.parts[d].col.contains(&(source as usize)) {
                mem.set(st.parent, source as usize, source);
                // Classify by this device's block-view out-degree;
                // corrupt resident offsets are tolerated here and caught
                // by the verifier, exactly like the sequential seed.
                let deg = {
                    let offs = mem.view(self.parts[d].graph.out_offsets);
                    offs[source as usize + 1].saturating_sub(offs[source as usize])
                };
                let k = st.thresholds.classify(deg).index();
                mem.set(st.queues[k], 0, source);
                st.queue_sizes[k] = 1;
            }
            states.push(Some(st));
        }
        let mut recovery =
            RecoveryReport { warm_restart: self.warm_restart, ..RecoveryReport::default() };
        recovery.snapshot_errors.append(&mut self.persist_errors);
        Ok(GridLane {
            source,
            slot,
            states,
            vars: MultiLoopVars {
                dir: Direction::TopDown,
                switched_at: None,
                cache_filled: false,
            },
            trace: Vec::new(),
            recovery,
            level: 0,
            level_cap: self.config.watchdog.level_cap(n),
            stall: StallDetector::new(self.config.watchdog.stall_levels),
            bundle: FleetFaultBundle::healthy(p),
            comm_bytes: 0,
        })
    }

    /// One lane BFS level: the body of the sequential `try_bfs_once`
    /// level loop, minus everything that reshapes the grid. Device loss,
    /// link isolation, and straggler overruns are *lane-fatal* — the
    /// source de-pipelines and the sequential ladder performs the block
    /// merge or grid collapse (bumping the fleet epoch, which re-admits
    /// sibling lanes). Adaptive rebalance and mid-run checkpoint
    /// persistence are likewise sequential-only. Runs with the lane's
    /// states and fault bundle swapped onto the grid.
    fn lane_level(&mut self, lane: &mut GridLane) -> Result<bool, BfsError> {
        if lane.level > lane.level_cap {
            let frontier = self.alive_frontier();
            return Err(BfsError::Hang { level: lane.level, frontier, stalled_levels: 0 });
        }
        // Link-isolation poll: migration reshapes the grid under every
        // sibling lane, so isolation de-pipelines instead of splicing.
        if self.config.route.enabled {
            if let Some(isolated) = crate::route::find_isolated(&self.multi) {
                return Err(BfsError::LinkIsolated { level: lane.level, device: isolated });
            }
        }
        let ckpt = self.checkpoint(&lane.vars, lane.trace.len());
        let mut attempts: u32 = 0;
        let done = loop {
            let t_level = self.multi.elapsed_ms();
            match self.level_pass(lane.level, &mut lane.vars, &mut lane.trace, &mut lane.recovery)
            {
                Ok(done) => {
                    if let Some(budget_ms) = self.config.watchdog.level_deadline_ms {
                        let elapsed_ms = self.multi.elapsed_ms() - t_level;
                        if elapsed_ms > budget_ms {
                            attempts += 1;
                            if attempts > self.config.recovery.max_level_retries {
                                return Err(BfsError::Deadline {
                                    level: lane.level,
                                    attempts,
                                    elapsed_ms,
                                    budget_ms,
                                });
                            }
                            lane.recovery.levels_replayed += 1;
                            self.restore(&ckpt, &mut lane.vars, &mut lane.trace);
                            continue;
                        }
                    }
                    // End-of-level SDC gate on the merged global view.
                    if self.config.verify.end_of_level {
                        let infos = self.verify_infos();
                        match verify_merged_level(
                            &mut self.multi,
                            &self.csr,
                            &infos,
                            &ckpt,
                            lane.source,
                            lane.level,
                            lane.vars.dir,
                            self.config.verify.repair,
                            &self.config.thresholds,
                            view_2d,
                            &mut lane.recovery,
                        ) {
                            MergedVerdict::Clean => {}
                            MergedVerdict::Repaired { done, sizes } => {
                                // Lane states are swapped in, so the
                                // repaired sizes land on the lane.
                                for (d, s) in sizes {
                                    self.parts[d].state.queue_sizes = s;
                                }
                                break done;
                            }
                            MergedVerdict::Corrupt(err) => {
                                attempts += 1;
                                if attempts > self.config.recovery.max_level_retries {
                                    return Err(BfsError::ValidationFailedAfterReplay(err));
                                }
                                lane.recovery.levels_replayed += 1;
                                self.restore(&ckpt, &mut lane.vars, &mut lane.trace);
                                continue;
                            }
                        }
                    }
                    break done;
                }
                Err(BfsError::Device(e)) => {
                    // Grid reshapes — eviction merge, forced straggler
                    // collapse — are lane-fatal; the de-pipelined ladder
                    // owns them (and its detector's streak state).
                    if loss_of(&e, &self.multi).is_some() || slow_of(&e, &self.multi).is_some() {
                        return Err(BfsError::Device(e));
                    }
                    // A transient kernel fault that escaped the launch
                    // retries: roll back and replay the level in-lane.
                    attempts += 1;
                    if attempts > self.config.recovery.max_level_retries {
                        return Err(BfsError::LevelRetriesExhausted {
                            level: lane.level,
                            attempts,
                            last: e,
                        });
                    }
                    lane.recovery.levels_replayed += 1;
                    self.restore(&ckpt, &mut lane.vars, &mut lane.trace);
                }
                // Routed-exchange verdict or exchange-budget exhaustion:
                // both de-pipeline (the former splices there).
                Err(other) => return Err(other),
            }
        };
        if done {
            return Ok(true);
        }
        // Injected livelock: device 0's plan is the coordinator draw
        // (the lane's scoped plan is installed, so the draw is lane-
        // local); the lane rolls back while its level counter advances.
        if self.multi.device(0).should_inject_livelock() {
            self.restore(&ckpt, &mut lane.vars, &mut lane.trace);
        }
        if let Some(det) = lane.stall.as_mut() {
            let frontier = self.alive_frontier();
            let d0 = self.multi.alive_ids()[0];
            let visited = self
                .multi
                .device_ref(d0)
                .mem_ref()
                .view(self.parts[d0].state.status)
                .iter()
                .filter(|&&s| s != UNVISITED)
                .count();
            if let Some(stalled) = det.observe(visited, frontier) {
                return Err(BfsError::Hang {
                    level: lane.level,
                    frontier,
                    stalled_levels: stalled,
                });
            }
        }
        if let Some(every) = self.config.scrub_levels {
            if every > 0 && (lane.level + 1) % every == 0 {
                self.multi.scrub_all();
            }
        }
        for d in self.multi.alive_ids() {
            self.multi.device(d).note_level_end();
        }
        self.multi.tick_link_level();
        lane.level += 1;
        Ok(false)
    }
}

/// 2-D block view for the shared verifier: out-view over the device's
/// column block restricted to its row block, in-view transposed.
fn view_2d(csr: &Csr, info: &DeviceVerifyInfo) -> repartition::PartitionArrays {
    repartition::build_2d(csr, &info.bu_range, &info.td_range)
}

/// Uploads the `(rows, cols)` adjacency block: out-edges of column-block
/// sources restricted to row-block targets, plus the transposed in-view.
/// The same view builder serves setup and post-eviction repartitioning,
/// so a merged device's block-view degrees match what the separate blocks
/// would have seen.
fn upload_block(
    device: &mut gpu_sim::Device,
    csr: &Csr,
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
) -> DeviceGraph {
    let view = repartition::build_2d(csr, &rows, &cols);
    DeviceGraph::upload_parts(
        device,
        csr.vertex_count(),
        csr.edge_count(),
        csr.is_directed(),
        &view.out_offsets,
        &view.out_targets,
        &view.in_offsets,
        &view.in_sources,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::cpu_levels;
    use enterprise_graph::gen::{kronecker, rmat};

    /// A warm fleet serving pipelined batches keeps a flat timeline:
    /// lane results return no records, so each sweep end drops them and
    /// the per-device record count after batch 10 equals that after
    /// batch 2.
    #[test]
    fn warm_pipelined_fleet_keeps_a_flat_timeline() {
        let g = kronecker(9, 8, 5);
        let queue: Vec<crate::BatchSource> =
            [3u32, 17, 101, 255, 7, 64].iter().map(|&s| crate::BatchSource::new(s)).collect();
        let mut sys = MultiGpu2DEnterprise::new(Grid2DConfig::k40s(2, 2), &g);
        let counts = |sys: &MultiGpu2DEnterprise| -> Vec<usize> {
            (0..sys.multi.count()).map(|d| sys.multi.device_ref(d).records().len()).collect()
        };
        let mut after_two = Vec::new();
        for batch in 1..=10 {
            let report = sys.batch(&queue, &crate::BatchPolicy::pipelined(4));
            assert_eq!(report.completed, queue.len());
            if batch == 2 {
                after_two = counts(&sys);
            }
        }
        assert_eq!(counts(&sys), after_two, "2x2 fleet timeline grew across batches");
    }

    #[test]
    fn grid_shapes_match_oracle() {
        let g = kronecker(9, 8, 5);
        let oracle = cpu_levels(&g, 3);
        for (r, c) in [(1, 1), (1, 2), (2, 1), (2, 2), (2, 4), (4, 2)] {
            let mut sys = MultiGpu2DEnterprise::new(Grid2DConfig::k40s(r, c), &g);
            let res = sys.bfs(3);
            assert_eq!(res.levels, oracle, "{r}x{c} grid");
        }
    }

    #[test]
    fn directed_graph_on_grid() {
        let g = rmat(9, 8, 7);
        let oracle = cpu_levels(&g, 11);
        let mut sys = MultiGpu2DEnterprise::new(Grid2DConfig::k40s(2, 2), &g);
        let res = sys.bfs(11);
        assert_eq!(res.levels, oracle);
    }

    #[test]
    fn two_d_communicates_less_than_one_d() {
        use crate::multi_gpu::{MultiGpuConfig, MultiGpuEnterprise};
        let g = kronecker(11, 8, 9);
        let mut one_d = MultiGpuEnterprise::new(MultiGpuConfig::k40s(8), &g);
        let r1 = one_d.bfs(0);
        let mut two_d = MultiGpu2DEnterprise::new(Grid2DConfig::k40s(4, 2), &g);
        let r2 = two_d.bfs(0);
        assert_eq!(r1.levels, r2.levels);
        assert!(
            r2.communication_bytes * 2 < r1.communication_bytes,
            "2-D must cut traffic: {} vs {}",
            r2.communication_bytes,
            r1.communication_bytes
        );
    }

    #[test]
    fn gamma_switch_still_fires_on_grid() {
        let g = kronecker(11, 16, 13);
        let mut sys = MultiGpu2DEnterprise::new(Grid2DConfig::k40s(2, 2), &g);
        let src = (0..g.vertex_count() as u32).max_by_key(|&v| g.out_degree(v)).unwrap();
        let res = sys.bfs(src);
        assert!(res.switched_at.is_some(), "trace: {:?}", res.level_trace);
        assert_eq!(res.levels, cpu_levels(&g, src));
    }
}
