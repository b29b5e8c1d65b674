//! Multi-GPU Enterprise (§4.4).
//!
//! 1-D vertex partitioning: each device owns an equal slice of the vertex
//! range (and therefore a similar number of edges). Per level:
//!
//! 1. each GPU expands its private frontier queue, marking discoveries in
//!    its *private* status array (top-down discoveries may be remote
//!    vertices);
//! 2. all GPUs exchange their private status arrays as
//!    `__ballot()`-compressed bitmaps — one bit per vertex, a 90%
//!    reduction versus the byte array — and merge the union of
//!    just-visited vertices;
//! 3. each GPU scans the updated private status array *restricted to its
//!    owned range* to generate its next private queue.
//!
//! Parents are private to the discovering device; the final parent tree
//! is gathered host-side (any device's recorded parent is valid because
//! every discovery wrote a parent at the correct preceding level).

use crate::bfs::LevelRecord;
use crate::classify::ClassifyThresholds;
use crate::device_graph::DeviceGraph;
use crate::direction::{DirectionPolicy, SwitchDecision, SwitchSignals};
use crate::error::{BfsError, RecoveryPolicy, RecoveryReport};
use crate::frontier::{measure_total_hubs, try_generate_queues, GenWorkflow};
use crate::kernels::{try_expand_level, Direction};
use crate::persist::{
    load_checkpoint_chain, truncate_queues, CheckpointSnapshot, CheckpointWriter,
    DeviceCheckpoint, DriverKind, FleetRecord, GraphFingerprint, LayoutSnapshot, PersistError,
    PersistPolicy, SnapshotStore, CHECKPOINT_FILE, DELTA_FILE,
};
use crate::rebalance::{self, DeviceTiming, ImbalanceDetector, RebalancePolicy};
use crate::repartition;
use crate::state::BfsState;
use crate::status::{levels_from_raw, NO_PARENT, UNVISITED};
use crate::validate::{audit, check_level, repair_vertices, ValidationError, VerifyPolicy};
use crate::watchdog::{StallDetector, WatchdogPolicy};
use enterprise_graph::{stats::hub_threshold_for_capacity, Csr, VertexId};
use gpu_sim::{
    ballot_compressed_bytes, payload_checksum, DeviceConfig, DeviceError, EccMode, ExchangeFault,
    FaultSpec, FleetFaultBundle, InterconnectConfig, MultiDevice,
};
use std::collections::BTreeSet;

/// Configuration of a multi-GPU Enterprise system.
#[derive(Clone, Debug)]
pub struct MultiGpuConfig {
    /// Number of simulated devices.
    pub gpu_count: usize,
    /// Per-device preset.
    pub device: DeviceConfig,
    /// Interconnect model.
    pub interconnect: InterconnectConfig,
    /// Classification thresholds (§4.2 defaults).
    pub thresholds: ClassifyThresholds,
    /// Hub-cache slots per device.
    pub hub_cache_entries: usize,
    /// Whether bottom-up expansion uses the shared-memory hub cache.
    pub hub_cache: bool,
    /// Direction policy; only `Gamma` and `TopDownOnly` are supported in
    /// the multi-GPU driver (as in the paper).
    pub policy: DirectionPolicy,
    /// Deterministic fault injection across devices and the interconnect;
    /// `None` (the default) is a strict no-op on timing and results.
    pub faults: Option<FaultSpec>,
    /// Bounds on level replay and exchange retry-with-backoff.
    pub recovery: RecoveryPolicy,
    /// Device-memory sanitizer on every device; defaults from the
    /// `GPU_SIM_SANITIZER` environment knob.
    pub sanitize: bool,
    /// Traversal watchdog; disabled by default (strict no-op).
    pub watchdog: WatchdogPolicy,
    /// Silent-data-corruption verification ladder on the merged global
    /// view; the default disabled policy is a strict no-op.
    pub verify: VerifyPolicy,
    /// SECDED ECC mode of every device's memory; `Off` (the default)
    /// matches today's behaviour bit for bit.
    pub ecc: EccMode,
    /// Background-scrubber cadence: scrub every device after this many
    /// levels. `None` (the default) never scrubs.
    pub scrub_levels: Option<u32>,
    /// Adaptive straggler mitigation (DESIGN.md §5f): per-level timing
    /// telemetry drives boundary-shifting repartitions toward faster
    /// devices. The default disabled policy is a strict no-op.
    pub rebalance: RebalancePolicy,
    /// Crash-consistent persistence: durable layout snapshots (rebalanced
    /// boundaries + hub census) after each successful run, and optional
    /// mid-traversal checkpoints for warm restarts. `None` (the default)
    /// is a strict no-op on timing, counters and results.
    pub persist: Option<PersistPolicy>,
    /// Topology-aware exchange routing over the per-link fault plane
    /// (DESIGN.md §5h): probe/backoff on flapping links, two-hop relay
    /// and host bounce around dead ones, isolation-triggered migration.
    /// The default disabled policy is a strict no-op.
    pub route: crate::route::RoutePolicy,
}

impl MultiGpuConfig {
    /// K40s on PCIe with the paper's defaults.
    pub fn k40s(gpu_count: usize) -> Self {
        Self {
            gpu_count,
            device: DeviceConfig::k40_repro(),
            interconnect: InterconnectConfig::default(),
            thresholds: ClassifyThresholds::default(),
            hub_cache_entries: 1024,
            hub_cache: true,
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

/// Result of one multi-GPU BFS.
#[derive(Clone, Debug)]
pub struct MultiBfsResult {
    /// BFS root.
    pub source: VertexId,
    /// Per-vertex level (`None` = unreachable).
    pub levels: Vec<Option<u32>>,
    /// Per-vertex parent, gathered across devices.
    pub parents: Vec<Option<VertexId>>,
    /// Reachable vertex count.
    pub visited: usize,
    /// Graph 500 traversed-edge count.
    pub traversed_edges: u64,
    /// Makespan across all devices, interconnect time included.
    pub time_ms: f64,
    /// Traversed edges per simulated second.
    pub teps: f64,
    /// Deepest level reached.
    pub depth: u32,
    /// Level at which the direction switched, if it did.
    pub switched_at: Option<u32>,
    /// Interconnect bytes moved during the search: frontier exchanges,
    /// reroutes, and the partition slices that rebalances and eviction
    /// splices migrate.
    pub communication_bytes: u64,
    /// Per-level global trace.
    pub level_trace: Vec<LevelRecord>,
    /// What fault recovery happened during the run (all zero on a
    /// fault-free substrate).
    pub recovery: RecoveryReport,
}

struct PerDevice {
    graph: DeviceGraph,
    state: BfsState,
    owned: std::ops::Range<usize>,
}

/// Classifies a device error as a permanent device loss, given the
/// substrate's view of the named device. A kernel-deadline overrun on a
/// device the fault plane marked lost is a loss, not a hang: the host
/// waited out the watchdog budget for a kernel that will never complete.
pub(crate) fn loss_of(e: &DeviceError, multi: &MultiDevice) -> Option<usize> {
    match e {
        DeviceError::DeviceLost { device } => Some(*device),
        DeviceError::KernelDeadline { device, .. } if multi.device_ref(*device).is_lost() => {
            Some(*device)
        }
        _ => None,
    }
}

/// The deadline classifier's third verdict: a kernel-deadline overrun on
/// a device that is *not* lost but carries an armed straggler slowdown is
/// slow-but-alive. Returns the device id and the observed
/// `elapsed / budget` overrun factor — the mitigation's estimate of how
/// far the device has fallen behind when no level telemetry is available
/// (the level never completed).
pub(crate) fn slow_of(e: &DeviceError, multi: &MultiDevice) -> Option<(usize, f64)> {
    match e {
        DeviceError::KernelDeadline { device, elapsed_us, budget_us, .. }
            if !multi.device_ref(*device).is_lost()
                && multi.device_ref(*device).is_straggler() =>
        {
            let overrun = *elapsed_us as f64 / (*budget_us).max(1) as f64;
            Some((*device, overrun.max(1.0)))
        }
        _ => None,
    }
}

/// Per-device state snapshot used for level replay.
pub(crate) struct DeviceSnapshot {
    pub(crate) status: Vec<u32>,
    pub(crate) parent: Vec<u32>,
    pub(crate) queues: [Vec<u32>; 4],
    pub(crate) queue_sizes: [usize; 4],
}

/// Cross-device checkpoint taken at the top of each level.
pub(crate) struct MultiCheckpoint {
    pub(crate) devices: Vec<DeviceSnapshot>,
    pub(crate) vars: MultiLoopVars,
    pub(crate) trace_len: usize,
}

/// Host loop variables shared by the multi-GPU drivers.
#[derive(Clone)]
pub(crate) struct MultiLoopVars {
    pub(crate) dir: Direction,
    pub(crate) switched_at: Option<u32>,
    pub(crate) cache_filled: bool,
}

/// Runs one fault-aware exchange whose wire payload is `payload` plus a
/// Fletcher checksum, retrying dropped attempts (detected by timeout) and
/// corrupted ones (detected by checksum mismatch on the received copy)
/// with exponential backoff. `do_exchange` performs one attempt; the
/// retry budget is [`RecoveryPolicy::max_exchange_retries`].
pub(crate) fn exchange_resilient<F>(
    multi: &mut MultiDevice,
    payload: &[u8],
    policy: &RecoveryPolicy,
    level: u32,
    recovery: &mut RecoveryReport,
    mut do_exchange: F,
) -> Result<(), BfsError>
where
    F: FnMut(&mut MultiDevice) -> gpu_sim::ExchangeOutcome,
{
    let expected = payload_checksum(payload);
    let mut attempts: u32 = 0;
    let mut backoff = policy.backoff_ms;
    loop {
        let outcome = do_exchange(multi);
        let Some(fault) = outcome.fault else { return Ok(()) };
        if let ExchangeFault::Corrupted { bit, .. } = fault {
            // Receiver-side detection: flip the faulted bit in a copy of
            // the payload and confirm the checksum catches it.
            let mut received = payload.to_vec();
            let bit = bit as usize % (received.len() * 8);
            received[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(
                payload_checksum(&received),
                expected,
                "checksum failed to detect a single-bit corruption"
            );
        }
        attempts += 1;
        if attempts > policy.max_exchange_retries {
            return Err(BfsError::ExchangeRetriesExhausted { level, attempts });
        }
        recovery.exchange_retries += 1;
        multi.advance_all(backoff);
        recovery.backoff_ms += backoff;
        backoff *= policy.backoff_multiplier;
    }
}

/// Per-device handles the shared end-of-level verifier needs: the
/// device's buffers and the scan ranges its queues are built over.
pub(crate) struct DeviceVerifyInfo {
    pub(crate) device: usize,
    pub(crate) status: gpu_sim::BufferId,
    pub(crate) parent: gpu_sim::BufferId,
    pub(crate) queues: [gpu_sim::BufferId; 4],
    pub(crate) td_range: std::ops::Range<usize>,
    pub(crate) bu_range: std::ops::Range<usize>,
}

/// What the shared multi-GPU end-of-level verifier concluded.
pub(crate) enum MergedVerdict {
    /// All invariants hold on the merged view.
    Clean,
    /// Corruption healed in place; `done` is the recomputed termination
    /// decision and `sizes` the rebuilt queue sizes per device id.
    Repaired { done: bool, sizes: Vec<(usize, [usize; 4])> },
    /// Localized repair could not restore consistency: replay the level.
    Corrupt(ValidationError),
}

/// End-of-level SDC verification shared by the 1-D and 2-D drivers: the
/// merged global view (first alive device's post-merge status, first-wins
/// parent gather) is checked against the level invariants; on a finding,
/// localized repair restores from the merged checkpoint view and, if the
/// re-check is clean, uploads the healed arrays to **every** alive device
/// and rebuilds each device's queues host-side against its own partition
/// view (`view_of` is a capture-free builder so the two drivers can
/// supply 1-D and 2-D block views respectively).
#[allow(clippy::too_many_arguments)]
pub(crate) fn verify_merged_level(
    multi: &mut MultiDevice,
    csr: &Csr,
    infos: &[DeviceVerifyInfo],
    ckpt: &MultiCheckpoint,
    source: VertexId,
    level: u32,
    dir: Direction,
    repair: bool,
    thresholds: &ClassifyThresholds,
    view_of: fn(&Csr, &DeviceVerifyInfo) -> repartition::PartitionArrays,
    recovery: &mut RecoveryReport,
) -> MergedVerdict {
    let n = csr.vertex_count();
    let d0 = infos[0].device;
    let mut status = multi.device_ref(d0).mem_ref().view(infos[0].status).to_vec();
    let mut parent = vec![NO_PARENT; n];
    for info in infos {
        let p = multi.device_ref(info.device).mem_ref().view(info.parent);
        for v in 0..n {
            if parent[v] == NO_PARENT && p[v] != NO_PARENT {
                parent[v] = p[v];
            }
        }
    }
    let flagged = check_level(csr, &status, &parent, source, level);
    if flagged.is_empty() {
        return MergedVerdict::Clean;
    }
    recovery.sdc_detected += flagged.len() as u64;
    if repair {
        // Merged checkpoint view, trusted because verification ran before
        // the checkpoint was taken.
        let ckpt_status = &ckpt.devices[d0].status;
        let mut ckpt_parent = vec![NO_PARENT; n];
        for info in infos {
            let p = &ckpt.devices[info.device].parent;
            for v in 0..n {
                if ckpt_parent[v] == NO_PARENT && p[v] != NO_PARENT {
                    ckpt_parent[v] = p[v];
                }
            }
        }
        repair_vertices(csr, &mut status, &mut parent, ckpt_status, &ckpt_parent, &flagged, level);
        if check_level(csr, &status, &parent, source, level).is_empty() {
            recovery.sdc_repaired += flagged.len() as u64;
            // Uploading the healed parents everywhere is safe: unvisited
            // vertices stay NO_PARENT on every device, and expansion only
            // writes parents of *newly* discovered vertices.
            let mut sizes = Vec::with_capacity(infos.len());
            for info in infos {
                let view = view_of(csr, info);
                let rebuilt = repartition::rebuild_queues(
                    &status,
                    dir,
                    level + 1,
                    &info.td_range,
                    &info.bu_range,
                    &view.out_offsets,
                    &view.in_offsets,
                    thresholds,
                );
                let mem = multi.device(info.device).mem();
                mem.upload(info.status, &status);
                mem.upload(info.parent, &parent);
                for (buf, q) in info.queues.iter().zip(&rebuilt.queues) {
                    let mut padded = q.clone();
                    padded.resize(n, 0);
                    mem.upload(*buf, &padded);
                }
                sizes.push((info.device, rebuilt.sizes));
            }
            // Termination recomputed from the healed status alone (queue
            // totals may count a vertex once per block row/column in 2-D,
            // but they are zero exactly when these global counts say so).
            let newly = status.iter().filter(|&&s| s == level + 1).count();
            let unvisited = status.iter().filter(|&&s| s == UNVISITED).count();
            let done = match dir {
                Direction::TopDown => newly == 0,
                Direction::BottomUp => newly == 0 || unvisited == 0,
            };
            return MergedVerdict::Repaired { done, sizes };
        }
    }
    MergedVerdict::Corrupt(ValidationError::SilentCorruption {
        vertex: flagged[0],
        detail: format!(
            "{} vertices failed end-of-level invariants at level {level}",
            flagged.len()
        ),
    })
}

/// 1-D partition view for the shared verifier: the device scans its
/// owned slice in both directions.
pub(crate) fn view_1d(csr: &Csr, info: &DeviceVerifyInfo) -> repartition::PartitionArrays {
    repartition::build_1d(csr, &info.td_range)
}

/// Checks that persisted 1-D slices are a non-empty tiling of `[0, n)`
/// with identical top-down and bottom-up extents per device — the shape
/// every 1-D layout (initial, rebalanced, collapsed 2-D) has. Device
/// order need not follow slice order: a 2-D collapse hands out slices in
/// column-sorted device order, so the per-device ranges tile `[0, n)` as
/// a *set* while the device indices permute it.
pub(crate) fn slices_tile_1d(
    slices: &[(std::ops::Range<usize>, std::ops::Range<usize>)],
    n: usize,
) -> bool {
    if slices.is_empty() {
        return false;
    }
    if slices.iter().any(|(td, bu)| td != bu || td.end <= td.start) {
        return false;
    }
    let mut starts: Vec<(usize, usize)> = slices.iter().map(|(td, _)| (td.start, td.end)).collect();
    starts.sort_unstable();
    let mut next = 0usize;
    for (lo, hi) in starts {
        if lo != next {
            return false;
        }
        next = hi;
    }
    next == n
}

/// A multi-GPU Enterprise system bound to one graph.
pub struct MultiGpuEnterprise {
    config: MultiGpuConfig,
    multi: MultiDevice,
    parts: Vec<PerDevice>,
    vertex_count: usize,
    out_degrees: Vec<u32>,
    /// Host copy of the graph, needed to rebuild a partition view when a
    /// lost device's slice is spliced onto a survivor (and for the CPU
    /// fallback baseline).
    csr: Csr,
    /// Hub threshold τ, reused by repartition-time state allocation.
    tau: u32,
    /// Partitions displaced by in-run evictions, restored at the start of
    /// the next run so device loss stays per-run (bit-reproducibility).
    retired: Vec<(usize, PerDevice)>,
    /// Per-device busy time accumulated by the current level pass
    /// (expansion + queue generation, barriers excluded) — the telemetry
    /// the imbalance detector consumes.
    level_busy: Vec<f64>,
    /// Durable snapshot store, present when persistence is configured.
    store: Option<SnapshotStore>,
    /// Structural identity of the bound graph, for stale-snapshot rejection.
    fingerprint: Option<GraphFingerprint>,
    /// Persistence failures absorbed during setup, surfaced into the next
    /// run's [`RecoveryReport::snapshot_errors`].
    persist_errors: Vec<PersistError>,
    /// Whether setup warm-started from a persisted layout snapshot.
    warm_restart: bool,
    /// Keyframe + delta checkpoint publisher.
    ckpt_writer: CheckpointWriter,
    /// Devices a restored *degraded-fleet* layout recorded as evicted:
    /// every run of this instance re-evicts them at start and resumes on
    /// the survivors (whose restored slices tile the vertex range alone).
    layout_evicted: Vec<usize>,
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
    /// Fleet-shape generation counter: bumped whenever the partition
    /// layout or alive set changes (eviction splice, rebalance, degraded
    /// resume, batch fleet restore). Pipeline lanes opened against an
    /// older epoch hold stale per-device state and must be re-admitted.
    fleet_epoch: u64,
    /// Parked per-slot, per-device lane states (pipelined batch mode).
    /// The simulator never frees device memory, so lane states are
    /// pooled instead of dropped; a pooled state is reused only while
    /// its scan ranges still match the device's current partition.
    lane_pool: Vec<Vec<Option<BfsState>>>,
    /// Devices evicted because routing proved them link-isolated, as
    /// opposed to fault-plane losses — the split the durable fleet
    /// record preserves across a batch kill/resume. Cleared when the
    /// batch pin is released.
    batch_isolated: BTreeSet<usize>,
}

/// Per-source lane state for pipelined (MS-BFS) batch execution on the
/// 1-D fleet: one private [`BfsState`] per surviving device, the host
/// loop variables, and the source's scoped fault universe, all swapped
/// onto the shared fleet for the duration of one level slice.
pub struct MultiLane {
    source: VertexId,
    slot: usize,
    /// Indexed by device id; `None` for devices that were already dead
    /// at admission (their partitions live on survivors).
    states: Vec<Option<BfsState>>,
    vars: MultiLoopVars,
    trace: Vec<LevelRecord>,
    recovery: RecoveryReport,
    level: u32,
    level_cap: u32,
    stall: Option<StallDetector>,
    /// The lane's parked fleet fault universe (installed scoped plan +
    /// per-device straggler/throttle state + link plan), swapped in for
    /// each slice so sibling lanes never draw from it.
    bundle: FleetFaultBundle,
    /// Interconnect bytes this lane's own levels moved (exchanges,
    /// replays and reroutes included; the seed moves none).
    comm_bytes: u64,
}

impl crate::batch::BatchHost for MultiGpuEnterprise {
    type Run = MultiBfsResult;

    fn kind(&self) -> DriverKind {
        DriverKind::OneD
    }

    fn base_faults(&self) -> Option<FaultSpec> {
        self.config.faults
    }

    fn set_faults(&mut self, spec: Option<FaultSpec>) {
        self.config.faults = spec;
    }

    fn set_pinned(&mut self, pinned: bool) {
        self.pinned = pinned;
        if !pinned {
            // The fault/isolation eviction split is batch bookkeeping;
            // it must not leak into the next batch's fleet records.
            self.batch_isolated.clear();
        }
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

    type Lane = MultiLane;

    fn fleet_epoch(&self) -> u64 {
        self.fleet_epoch
    }

    fn sweep_begin(&mut self, width: usize) {
        // Restored-layout evictions must land *before* the fused window
        // opens: evicting a device with its window open would leave the
        // window dangling (a dead device never reaches `end_fused`) and
        // panic the next `begin_fused`.
        for &d in &self.layout_evicted {
            self.multi.evict(d);
        }
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
    ) -> Result<MultiLane, BfsError> {
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

    fn lane_step(&mut self, lane: &mut MultiLane) -> Result<bool, BfsError> {
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
        mut lane: MultiLane,
        time_ms: f64,
    ) -> Result<MultiBfsResult, BfsError> {
        // The lane's fault counters live in its parked bundle; the
        // fleet's installed plans belong to whoever ran last.
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
            // ladder (the sequential engine's full replay) instead of
            // replaying inside the lane.
            if let Err(e) = audit(&self.csr, lane.source, &result.levels, &result.parents) {
                return Err(BfsError::ValidationFailedAfterReplay(e));
            }
        }
        Ok(result)
    }

    fn lane_abort(&mut self, mut lane: MultiLane) {
        self.park_lane_states(&mut lane);
    }

    fn capture_fleet(&mut self) -> Option<FleetRecord> {
        let p = self.parts.len();
        let dead: Vec<usize> = (0..p).filter(|&d| !self.multi.is_alive(d)).collect();
        let verdicts = self.link_verdicts.pairs();
        if dead.is_empty() && verdicts.is_empty() {
            // Pure boundary drift (rebalance without loss) persists via
            // the layout-snapshot channel; no fleet record needed.
            return None;
        }
        // Fault-plane losses first, link-isolated evictions last: the
        // counts split the id list exactly on restore.
        let isolated: Vec<u32> = dead
            .iter()
            .filter(|d| self.batch_isolated.contains(d))
            .map(|&d| d as u32)
            .collect();
        let fault: Vec<u32> = dead
            .iter()
            .filter(|d| !self.batch_isolated.contains(d))
            .map(|&d| d as u32)
            .collect();
        let boundaries = self.parts.iter().map(|p| (p.owned.clone(), p.owned.clone())).collect();
        Some(FleetRecord {
            fault_lost: fault.len() as u32,
            link_isolated: isolated.len() as u32,
            evicted: fault.into_iter().chain(isolated).collect(),
            boundaries,
            verdicts,
        })
    }

    fn restore_fleet(&mut self, rec: &FleetRecord) -> bool {
        let n = self.vertex_count;
        let p = self.parts.len();
        if rec.boundaries.len() != p
            || rec.evicted.len() != (rec.fault_lost + rec.link_isolated) as usize
            || rec.evicted.len() >= p
        {
            return false;
        }
        let mut dead = vec![false; p];
        for &d in &rec.evicted {
            let d = d as usize;
            if d >= p || dead[d] {
                return false;
            }
            dead[d] = true;
        }
        // The survivors' recorded slices must tile the vertex range by
        // themselves (evicted entries are stale).
        let survivor_slices: Vec<_> = rec
            .boundaries
            .iter()
            .enumerate()
            .filter(|(d, _)| !dead[*d])
            .map(|(_, s)| s.clone())
            .collect();
        if !slices_tile_1d(&survivor_slices, n) {
            return false;
        }
        // Rebuild (fallibly) every survivor whose extent moved, before
        // committing anything; a defect leaves the fleet untouched and
        // the batch cold-starts.
        let mut rebuilt: Vec<(usize, PerDevice)> = Vec::new();
        for (d, (td, _bu)) in rec.boundaries.iter().enumerate() {
            if dead[d] || *td == self.parts[d].owned {
                continue;
            }
            let view = repartition::build_1d(&self.csr, td);
            let device = self.multi.device(d);
            let graph = match DeviceGraph::try_upload_parts(
                device,
                self.csr.vertex_count(),
                self.csr.edge_count(),
                self.csr.is_directed(),
                &view.out_offsets,
                &view.out_targets,
                &view.in_offsets,
                &view.in_sources,
            ) {
                Ok(g) => g,
                Err(_) => return false,
            };
            let mut state = match BfsState::try_new_partitioned2(
                device,
                &graph,
                self.config.thresholds,
                self.config.hub_cache_entries,
                self.tau,
                td.clone(),
                td.clone(),
            ) {
                Ok(s) => s,
                Err(_) => return false,
            };
            // T_h is a global graph property, unchanged by splicing.
            state.total_hubs = self.parts[d].state.total_hubs;
            rebuilt.push((d, PerDevice { graph, state, owned: td.clone() }));
        }
        // Commit. The displaced cold partitions are retired so the next
        // *unpinned* run of this instance restores the original layout.
        for &d in &rec.evicted {
            let d = d as usize;
            if self.multi.is_alive(d) {
                self.multi.evict(d);
            }
        }
        for (d, part) in rebuilt {
            let old = std::mem::replace(&mut self.parts[d], part);
            self.retired.push((d, old));
        }
        self.link_verdicts.restore(&rec.verdicts);
        self.batch_isolated.clear();
        let iso_start = rec.evicted.len() - rec.link_isolated as usize;
        for &d in &rec.evicted[iso_start..] {
            self.batch_isolated.insert(d as usize);
        }
        self.fleet_epoch += 1;
        true
    }
}

impl MultiGpuEnterprise {
    /// Partitions and uploads `csr` to `config.gpu_count` devices.
    pub fn new(config: MultiGpuConfig, csr: &Csr) -> Self {
        assert!(config.gpu_count >= 1);
        assert!(
            matches!(config.policy, DirectionPolicy::Gamma { .. } | DirectionPolicy::TopDownOnly),
            "multi-GPU driver supports Gamma and TopDownOnly policies"
        );
        let n = csr.vertex_count();
        let p = config.gpu_count;
        assert!(n >= p, "fewer vertices than devices");
        let mut multi = MultiDevice::new(p, config.device.clone(), config.interconnect);
        multi.set_ecc(config.ecc);
        let tau = hub_threshold_for_capacity(csr, config.hub_cache_entries);

        // Crash-consistent persistence: a valid layout snapshot for this
        // exact graph/configuration restores the boundaries a previous
        // process converged to (rebalanced slices) and the hub census,
        // skipping hub measurement. Defects degrade to a cold start.
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
                    // A degraded-fleet layout records evicted devices;
                    // the *surviving* slices must tile the vertex range
                    // by themselves (evicted entries are stale).
                    let alive_slices: Vec<_> = snap
                        .slices
                        .iter()
                        .enumerate()
                        .filter(|(d, _)| !snap.evicted.contains(&(*d as u32)))
                        .map(|(_, s)| s.clone())
                        .collect();
                    if snap.fingerprint != *fp {
                        persist_errors.push(PersistError::GraphMismatch);
                    } else if snap.kind != DriverKind::OneD
                        || snap.hub_tau != tau
                        || snap.grid != (1, p as u32)
                        || snap.slices.len() != p
                        || snap.evicted.len() >= p
                        || !slices_tile_1d(&alive_slices, n)
                    {
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
        let layout_evicted: Vec<usize> = restored
            .as_ref()
            .map(|snap| snap.evicted.iter().map(|&d| d as usize).collect())
            .unwrap_or_default();

        let mut parts = Vec::with_capacity(p);
        for d in 0..p {
            let (lo, hi) = match &restored {
                Some(snap) => (snap.slices[d].0.start, snap.slices[d].0.end),
                None => (d * n / p, (d + 1) * n / p),
            };
            let device = multi.device(d);
            // Sanitize/deadline before any allocation so initialization
            // tracking covers every buffer from birth.
            if config.sanitize {
                device.enable_sanitizer();
            }
            device.set_kernel_deadline_ms(config.watchdog.kernel_deadline_ms);
            let graph = upload_partition(device, csr, lo..hi);
            let state = BfsState::new_partitioned(
                device,
                &graph,
                config.thresholds,
                config.hub_cache_entries,
                tau,
                lo..hi,
            );
            parts.push(PerDevice { graph, state, owned: lo..hi });
        }
        // T_h is a graph property: measure per-device hub counts once at
        // setup and share the global sum (a scalar all-reduce). A warm
        // restart reuses the persisted census instead.
        let total_hubs = match &restored {
            Some(snap) => snap.total_hubs,
            None => {
                let mut total = 0u64;
                for (d, part) in parts.iter_mut().enumerate() {
                    measure_total_hubs(multi.device(d), &part.graph, &mut part.state);
                    total += part.state.total_hubs;
                }
                total
            }
        };
        for part in &mut parts {
            part.state.total_hubs = total_hubs;
        }
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
            level_busy: vec![0.0; p],
            store,
            fingerprint,
            persist_errors,
            warm_restart,
            ckpt_writer: CheckpointWriter::new(),
            layout_evicted,
            pinned: false,
            detector,
            link_verdicts: crate::route::LinkVerdicts::default(),
            fleet_epoch: 0,
            lane_pool: Vec::new(),
            batch_isolated: BTreeSet::new(),
        }
    }

    /// Number of devices.
    pub fn gpu_count(&self) -> usize {
        self.config.gpu_count
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
    /// fleet (DESIGN.md §5i): per-source fault isolation, retries,
    /// hedging, deadline shedding, graceful brownout on the shrinking
    /// fleet, and — with persistence armed — a durable outcome ledger.
    /// With `policy` disabled this is bit-identical to calling
    /// [`MultiGpuEnterprise::try_bfs`] per source.
    pub fn batch(
        &mut self,
        sources: &[crate::batch::BatchSource],
        policy: &crate::batch::BatchPolicy,
    ) -> crate::batch::BatchReport<MultiBfsResult> {
        crate::batch::run_batch(self, sources, policy)
    }

    /// Simulated milliseconds on the fleet clock since the last run
    /// started. Right after construction this is the setup cost the warm
    /// fleet amortizes across a batch (hub census measurement).
    pub fn sim_elapsed_ms(&self) -> f64 {
        self.multi.elapsed_ms()
    }

    /// Runs one BFS from `source` across all devices, degrading through
    /// the full recovery ladder: in-driver relaunch, level replay,
    /// exchange retry, device eviction + repartitioning, and finally the
    /// host CPU baseline when the typed-error budget is exhausted (the
    /// fallback is recorded in [`RecoveryReport::cpu_fallback`]).
    pub fn bfs(&mut self, source: VertexId) -> MultiBfsResult {
        match self.try_bfs(source) {
            Ok(r) => r,
            Err(_) => self.cpu_fallback(source),
        }
    }

    /// Fallible multi-GPU BFS with level-replay recovery (kernel faults
    /// roll every device back to the level checkpoint), checksummed
    /// exchange retry (dropped or corrupted bitmap broadcasts are
    /// re-sent with exponential backoff), and elastic device eviction:
    /// a permanently lost device's slice is spliced onto a surviving
    /// neighbor and the level resumes on `N - 1` GPUs, down to
    /// [`RecoveryPolicy::min_surviving_devices`].
    pub fn try_bfs(&mut self, source: VertexId) -> Result<MultiBfsResult, BfsError> {
        // Reinstall the fault plan from its seed so repeated runs of this
        // instance draw the same fault sequence (bit-reproducibility).
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
    /// [`MultiGpuEnterprise::try_bfs`], which may invoke it twice when
    /// the audit demands a full replay.
    fn try_bfs_once(&mut self, source: VertexId) -> Result<MultiBfsResult, BfsError> {
        let n = self.vertex_count;
        assert!((source as usize) < n);

        // Device loss is per-run: revive the substrate and restore the
        // original partitions displaced by the previous run's evictions,
        // so repeated runs of one instance stay bit-reproducible. Under
        // a batch brownout pin the restoration is skipped — the shrunken
        // fleet, learned boundaries, detector state, and link verdicts
        // carry to the next source instead (DESIGN.md §5i).
        if !self.pinned {
            self.multi.revive_all();
            for (d, part) in self.retired.drain(..).rev() {
                self.parts[d] = part;
            }
            self.detector = ImbalanceDetector::new(self.config.rebalance);
            self.link_verdicts.clear();
        }
        // A restored degraded-fleet layout pins its evictions for the
        // life of this instance: re-evict before seeding so every run
        // starts on the same survivor set (whose restored slices tile
        // the vertex range by themselves).
        for &d in &self.layout_evicted {
            self.multi.evict(d);
        }
        self.multi.reset_stats();

        // Seed: every device learns the source (initial broadcast);
        // only the owner enqueues it.
        for (d, part) in self.parts.iter_mut().enumerate() {
            if !self.multi.is_alive(d) {
                continue;
            }
            part.state.reset(self.multi.device(d));
            let mem = self.multi.device(d).mem();
            mem.set(part.state.status, source as usize, 0);
            part.state.queue_sizes = [0; 4];
            if part.owned.contains(&(source as usize)) {
                mem.set(part.state.parent, source as usize, source);
                // Classify by this device's (partitioned) out-degree.
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
        self.multi.barrier();

        let mut vars = MultiLoopVars {
            dir: Direction::TopDown,
            switched_at: None,
            cache_filled: false,
        };
        let mut trace = Vec::new();
        let mut recovery =
            RecoveryReport { warm_restart: self.warm_restart, ..RecoveryReport::default() };
        recovery.snapshot_errors.append(&mut self.persist_errors);
        // Warm restart from a durable mid-traversal checkpoint: overwrite
        // the freshly seeded state with the persisted level boundary and
        // continue from there. Defects degrade to the cold start above.
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
            // in the next exchange, so migrate its partition onto
            // reachable survivors *now* — before the watchdog would have
            // to declare the (perfectly healthy) device dead.
            if self.config.route.enabled {
                if let Some(isolated) = crate::route::find_isolated(&self.multi) {
                    let ckpt = self.checkpoint(&vars, trace.len());
                    self.handle_loss(isolated, level, &ckpt, &mut vars, &mut trace, &mut recovery)?;
                    recovery.link_isolated.push(isolated);
                    self.batch_isolated.insert(isolated);
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
                        // Level deadline: replay an overrun, then surface
                        // a typed deadline error.
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
                                view_1d,
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
                        // Permanent device loss: evict, splice the lost
                        // slice onto a survivor, and replay the level on
                        // the shrunken system with a fresh checkpoint.
                        if let Some(lost) = loss_of(&e, &self.multi) {
                            self.handle_loss(lost, level, &ckpt, &mut vars, &mut trace, &mut recovery)?;
                            continue 'levels;
                        }
                        // Slow-but-alive: a kernel-deadline overrun on a
                        // straggler device. Replaying without rebalancing
                        // would deterministically overrun again, so force
                        // a boundary shift (weights estimated from the
                        // observed overrun, since the level never
                        // produced telemetry) and replay on the new
                        // layout.
                        if let Some((slow, overrun)) = slow_of(&e, &self.multi) {
                            if self.detector.force() {
                                recovery.stragglers_detected += 1;
                                self.restore(&ckpt, &mut vars, &mut trace);
                                let weights = self.overrun_weights(slow, overrun);
                                self.rebalance_1d(&weights, level, vars.dir, &mut recovery)?;
                                recovery.rebalances += 1;
                                recovery.levels_replayed += 1;
                                continue 'levels;
                            }
                        }
                        // A transient kernel fault that escaped the
                        // in-driver launch retries: roll every device
                        // back and replay the level.
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
                        self.batch_isolated.insert(device);
                        continue 'levels;
                    }
                    // Exchange-budget exhaustion is terminal, not replayable.
                    Err(other) => return Err(other),
                }
            };
            if done {
                break;
            }
            // Injected livelock (fault plane): device 0's plan is the
            // coordinator draw; the whole grid rolls back while the level
            // counter keeps advancing.
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
            // Background scrubbing across the fleet: clear latent
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
            // Adaptive rebalance (§5f rung 2): feed the level's timing
            // telemetry to the imbalance detector and shift partition
            // boundaries toward the faster devices when a straggler is
            // confirmed. Skipped after a livelock rollback — the state
            // was rewound to the level checkpoint, so this level's queues
            // no longer exist to rebuild.
            if self.config.rebalance.enabled && !livelocked {
                let timings = self.level_timings();
                if let Some(weights) = self.detector.observe(&timings) {
                    recovery.stragglers_detected += 1;
                    self.rebalance_1d(&weights, level + 1, vars.dir, &mut recovery)?;
                    recovery.rebalances += 1;
                } else {
                    // Degraded-link fold (§5f): per-device busy time never
                    // sees a slow wire (exec clocks exclude exchanges), so
                    // the level's growth of the fault plane's accumulated
                    // link slow-down feeds the same streak/cooldown ladder
                    // and shifts work by measured device throughput.
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
                            self.rebalance_1d(&weights, level + 1, vars.dir, &mut recovery)?;
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
        if snap.kind != DriverKind::OneD
            || snap.devices.len() != self.parts.len()
            // Lane-bound checkpoints (written inside a pipelined window)
            // must not be adopted by a sequential resume.
            || !snap.lanes.is_empty()
        {
            recovery.snapshot_errors.push(PersistError::LayoutMismatch);
            return None;
        }
        if snap.evicted.is_empty() {
            // Fleet-intact checkpoint: every image must match the current
            // partitioning exactly.
            let compatible = snap.devices.iter().zip(&self.parts).all(|(dev, part)| {
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
        } else if !self.degraded_resume(&snap, recovery) {
            // The interrupted run had already evicted devices; the
            // survivors were rebuilt to the checkpoint's spliced extents
            // (or, on a typed defect, nothing was committed and the
            // caller cold-starts on the full fleet).
            return None;
        }
        for (d, (dev, part)) in snap.devices.iter().zip(&mut self.parts).enumerate() {
            if !self.multi.is_alive(d) {
                continue;
            }
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

    /// Rebuilds this instance's partitions to match a *degraded-fleet*
    /// checkpoint (one whose `evicted` ledger is non-empty because a kill
    /// interrupted a run after device evictions): every survivor whose
    /// spliced extent differs from the cold layout re-uploads its merged
    /// CSR view, the recorded devices are evicted — inherited losses
    /// count toward this run's eviction ledger — and the displaced cold
    /// partitions are retired so the *next* run of this instance starts
    /// from the original layout again. All fallible work happens before
    /// anything is committed; on a typed defect this returns `false`
    /// with the fleet untouched and the caller cold-starts.
    fn degraded_resume(
        &mut self,
        snap: &CheckpointSnapshot,
        recovery: &mut RecoveryReport,
    ) -> bool {
        let n = self.vertex_count;
        let p = self.parts.len();
        // Eviction records must name distinct, known devices and leave at
        // least one survivor.
        let mut dead = vec![false; p];
        for &d in &snap.evicted {
            let d = d as usize;
            if d >= p || dead[d] {
                recovery.snapshot_errors.push(PersistError::LayoutMismatch);
                return false;
            }
            dead[d] = true;
        }
        if snap.evicted.len() >= p {
            recovery.snapshot_errors.push(PersistError::LayoutMismatch);
            return false;
        }
        // Survivor images must be full-size and their extents must tile
        // the vertex range by themselves (evicted entries are stale).
        let survivors: Vec<(usize, &DeviceCheckpoint)> =
            snap.devices.iter().enumerate().filter(|(d, _)| !dead[*d]).collect();
        let shape_ok = survivors.iter().all(|(d, dev)| {
            dev.td == dev.bu
                && dev.status.len() == n
                && dev.parent.len() == n
                && dev.hub_src.len() == self.parts[*d].state.hub_cache_entries
                && dev.queues.iter().all(|q| q.len() <= n)
        });
        let slices: Vec<_> =
            survivors.iter().map(|(_, dev)| (dev.td.clone(), dev.td.clone())).collect();
        if !shape_ok || !slices_tile_1d(&slices, n) {
            recovery.snapshot_errors.push(PersistError::LayoutMismatch);
            return false;
        }
        // Rebuild (fallibly) every survivor whose extent moved.
        let mut rebuilt: Vec<(usize, PerDevice)> = Vec::new();
        for &(d, dev) in &survivors {
            if dev.td == self.parts[d].owned {
                continue;
            }
            let merged = dev.td.clone();
            let view = repartition::build_1d(&self.csr, &merged);
            let device = self.multi.device(d);
            let graph = match DeviceGraph::try_upload_parts(
                device,
                self.csr.vertex_count(),
                self.csr.edge_count(),
                self.csr.is_directed(),
                &view.out_offsets,
                &view.out_targets,
                &view.in_offsets,
                &view.in_sources,
            ) {
                Ok(g) => g,
                Err(e) => {
                    recovery.snapshot_errors.push(PersistError::Io(e.to_string()));
                    return false;
                }
            };
            let mut state = match BfsState::try_new_partitioned2(
                device,
                &graph,
                self.config.thresholds,
                self.config.hub_cache_entries,
                self.tau,
                merged.clone(),
                merged.clone(),
            ) {
                Ok(s) => s,
                Err(e) => {
                    recovery.snapshot_errors.push(PersistError::Io(e.to_string()));
                    return false;
                }
            };
            // T_h is a global graph property, unchanged by repartitioning.
            state.total_hubs = self.parts[d].state.total_hubs;
            rebuilt.push((d, PerDevice { graph, state, owned: merged }));
        }
        // Commit.
        for &d in &snap.evicted {
            let d = d as usize;
            if self.multi.is_alive(d) {
                self.multi.evict(d);
                recovery.devices_lost.push(d);
            }
        }
        for (d, part) in rebuilt {
            let old = std::mem::replace(&mut self.parts[d], part);
            self.retired.push((d, old));
        }
        self.fleet_epoch += 1;
        true
    }

    /// Publishes a durable mid-traversal checkpoint at the configured
    /// level cadence. A degraded fleet checkpoints too: evicted devices
    /// are listed in the snapshot's eviction ledger with empty images, so
    /// a fresh process can rebuild the survivor splices and resume on the
    /// shrunken fleet. Failures are absorbed. Steady-state checkpoints go
    /// out as sparse deltas against the last keyframe (see
    /// [`CheckpointWriter`]).
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
        let (Some(fp), Some(_)) = (self.fingerprint.as_ref(), self.store.as_ref()) else {
            return;
        };
        let devices = self
            .parts
            .iter()
            .enumerate()
            .map(|(d, part)| {
                if !self.multi.is_alive(d) {
                    // Evicted: its slice lives on a survivor; persist an
                    // empty image so resume never trusts stale state.
                    return DeviceCheckpoint {
                        td: part.state.td_range.clone(),
                        bu: part.state.bu_range.clone(),
                        status: Vec::new(),
                        parent: Vec::new(),
                        queues: [Vec::new(), Vec::new(), Vec::new(), Vec::new()],
                        hub_src: Vec::new(),
                    };
                }
                DeviceCheckpoint {
                    td: part.state.td_range.clone(),
                    bu: part.state.bu_range.clone(),
                    status: ckpt.devices[d].status.clone(),
                    parent: ckpt.devices[d].parent.clone(),
                    queues: truncate_queues(&ckpt.devices[d].queues, &ckpt.devices[d].queue_sizes),
                    hub_src: self.multi.device_ref(d).mem_ref().view(part.state.hub_src).to_vec(),
                }
            })
            .collect();
        let evicted: Vec<u32> = self
            .layout_evicted
            .iter()
            .chain(recovery.devices_lost.iter())
            .map(|&d| d as u32)
            .collect();
        let snap = CheckpointSnapshot {
            kind: DriverKind::OneD,
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
            evicted,
            lanes: Vec::new(),
        };
        let store = self.store.as_mut().expect("checked above");
        match self.ckpt_writer.persist(store, &snap) {
            Ok(()) => recovery.snapshots_persisted += 1,
            Err(e) => recovery.snapshot_errors.push(e),
        }
    }

    /// End-of-run persistence: durably publish the learned layout
    /// (rebalanced boundaries + hub census) and retire the mid-traversal
    /// checkpoint chain. An intact fleet substitutes each retired
    /// partition's original range back in (eviction splices are per-run);
    /// a *degraded* fleet instead publishes the spliced survivor
    /// boundaries plus the eviction ledger, so the next process resumes
    /// on the survivors directly.
    fn persist_finish(&mut self, recovery: &mut RecoveryReport) {
        let (Some(fp), Some(_)) = (self.fingerprint.as_ref(), self.store.as_ref()) else {
            return;
        };
        let degraded = self.multi.alive_count() != self.parts.len();
        let mut slices: Vec<(std::ops::Range<usize>, std::ops::Range<usize>)> =
            self.parts.iter().map(|p| (p.owned.clone(), p.owned.clone())).collect();
        let evicted: Vec<u32> = if degraded {
            self.layout_evicted
                .iter()
                .chain(recovery.devices_lost.iter())
                .map(|&d| d as u32)
                .collect()
        } else {
            for (d, part) in self.retired.iter().rev() {
                slices[*d] = (part.owned.clone(), part.owned.clone());
            }
            Vec::new()
        };
        let layout = LayoutSnapshot {
            kind: DriverKind::OneD,
            fingerprint: *fp,
            hub_tau: self.tau,
            total_hubs: self.parts[0].state.total_hubs,
            grid: (1, self.parts.len() as u32),
            collapsed: false,
            slices,
            evicted,
        };
        // Evicted entries are stale; only the live boundaries must tile.
        let alive_slices: Vec<_> = layout
            .slices
            .iter()
            .enumerate()
            .filter(|(d, _)| self.multi.is_alive(*d))
            .map(|(_, s)| s.clone())
            .collect();
        let store = self.store.as_mut().expect("checked above");
        if slices_tile_1d(&alive_slices, self.vertex_count) {
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
        self.ckpt_writer = CheckpointWriter::new();
        recovery.faults.merge(&store.take_stats());
    }

    /// This level's telemetry for the imbalance detector: each alive
    /// device's accumulated busy time against its slice length.
    fn level_timings(&self) -> Vec<DeviceTiming> {
        self.multi
            .alive_ids()
            .into_iter()
            .map(|d| DeviceTiming {
                device: d,
                busy_ms: self.level_busy[d],
                work_items: self.parts[d].owned.len() as u64,
            })
            .collect()
    }

    /// Weight estimate when a forced rebalance has no telemetry: the
    /// overrunning device is assumed `overrun` times slower than its
    /// peers (`elapsed / budget` from the deadline error).
    fn overrun_weights(&self, slow: usize, overrun: f64) -> Vec<(usize, f64)> {
        self.multi
            .alive_ids()
            .into_iter()
            .map(|d| (d, if d == slow { 1.0 / overrun } else { 1.0 }))
            .collect()
    }

    /// Per-device private *execution* clocks (indexed by device id):
    /// launch overheads, barrier waits and host-charged spans excluded,
    /// so a delta of this clock is pure device-speed signal.
    fn device_clocks(&self) -> Vec<f64> {
        (0..self.parts.len()).map(|d| self.multi.device_ref(d).exec_elapsed_ms()).collect()
    }

    /// Accumulates each device's execution-clock advance since `mark`
    /// into the level telemetry.
    fn add_level_busy(&mut self, mark: &[f64]) {
        for (d, m) in mark.iter().enumerate().take(self.parts.len()) {
            self.level_busy[d] += self.multi.device_ref(d).exec_elapsed_ms() - m;
        }
    }

    /// Shifts the 1-D partition boundaries so slice lengths are
    /// proportional to `weights` (one entry per alive device), splicing
    /// the current traversal state onto the new layout with the same
    /// machinery that absorbs a device loss:
    ///
    /// - the merged status array (identical on every alive device after
    ///   the level merge, or after a checkpoint restore) is re-uploaded
    ///   as-is;
    /// - each device keeps its *own* parent array — it stays alive, so
    ///   its discoveries remain gatherable;
    /// - frontier queues are rebuilt host-side for `rebuild_level` over
    ///   each device's new slice.
    ///
    /// Only the vertices that change owners are charged to the
    /// interconnect ([`RecoveryReport::rebalance_ms`]). Unlike an
    /// eviction splice (undone at the next run's start, because device
    /// loss is per-run), the shifted boundaries *persist* across runs of
    /// this instance: a straggler is a property of the device, so one
    /// boundary move amortizes over every following search of a
    /// multi-source workload — which is where the TEPS recovery comes
    /// from, since moving CSR over the interconnect costs more than
    /// traversing it once on-device.
    fn rebalance_1d(
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
        // Slices are assigned in current boundary order so every device
        // keeps a contiguous range and the ranges keep tiling [0, n).
        let mut order: Vec<(usize, f64)> = weights.to_vec();
        order.sort_by_key(|&(d, _)| self.parts[d].owned.start);
        let w: Vec<f64> = order.iter().map(|&(_, w)| w).collect();
        let slices = if self.config.rebalance.edge_balanced {
            repartition::weighted_slices_by_degree(&self.out_degrees, &w)
        } else {
            rebalance::weighted_slices(n, &w)
        };

        // Any alive device's status is the merged global view.
        let d0 = self.multi.alive_ids()[0];
        let status = self.multi.device_ref(d0).mem_ref().view(self.parts[d0].state.status).to_vec();

        // Interconnect charge: only the vertices that change owners move,
        // priced as compacted CSR deltas (adjacency plus narrow offsets).
        // Each gained range is split by its previous owner, so every
        // piece names the two links it crosses.
        let mut moves = Vec::new();
        for (&(d, _), new_range) in order.iter().zip(&slices) {
            for &(from, _) in order.iter().filter(|&&(from, _)| from != d) {
                let old = &self.parts[from].owned;
                let gained = new_range.start.max(old.start)..new_range.end.min(old.end);
                if !gained.is_empty() {
                    let words = repartition::delta_words(&self.csr, &gained);
                    moves.push(repartition::SliceMove { from, to: d, words });
                }
            }
        }

        let mut moved_any = false;
        for (&(d, _), new_range) in order.iter().zip(&slices) {
            if self.parts[d].owned == *new_range {
                continue;
            }
            moved_any = true;
            let view = repartition::build_1d(&self.csr, new_range);
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
                new_range.clone(),
                new_range.clone(),
            )?;
            // T_h is a global graph property, unchanged by rebalancing.
            state.total_hubs = self.parts[d].state.total_hubs;
            let parent = self.multi.device_ref(d).mem_ref().view(self.parts[d].state.parent).to_vec();
            let rebuilt = repartition::rebuild_queues(
                &status,
                dir,
                rebuild_level,
                new_range,
                new_range,
                &view.out_offsets,
                &view.in_offsets,
                &self.config.thresholds,
            );
            let mem = self.multi.device(d).mem();
            mem.upload(state.status, &status);
            mem.upload(state.parent, &parent);
            for (buf, q) in state.queues.iter().zip(&rebuilt.queues) {
                let mut padded = q.clone();
                padded.resize(n, 0);
                mem.upload(*buf, &padded);
            }
            state.queue_sizes = rebuilt.sizes;
            // Dropped, not retired: the new boundaries outlive this run.
            let _old = std::mem::replace(
                &mut self.parts[d],
                PerDevice { graph, state, owned: new_range.clone() },
            );
        }
        if moved_any {
            self.fleet_epoch += 1;
        }
        // The moves run concurrently and each link serializes only its
        // own traffic, so the busiest link sets the span; every moved
        // word still counts as wire traffic.
        let span_ms = repartition::migration_cost_ms(&self.config.interconnect, &moves, n);
        self.multi.advance_all(span_ms);
        let words = moves.iter().map(|m| m.words).sum();
        self.multi.count_transfer(repartition::migration_bytes(words, n));
        recovery.rebalance_ms += span_ms;
        Ok(())
    }

    /// Verifier handles for every alive device (1-D: both scan ranges
    /// are the owned slice).
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

    /// Snapshots every device's traversal state plus the host loop
    /// variables.
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

    /// Rolls every surviving device back to `ckpt` (a lost device's
    /// buffers are never read again, so it is skipped). Simulated time is
    /// not rolled back: faulted work costs wall-clock, as a real relaunch
    /// would.
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

    /// Evicts `lost` and splices its 1-D slice onto the surviving device
    /// with the adjacent owned range: the survivors roll back to the
    /// level checkpoint, the recipient re-uploads the merged CSR view and
    /// receives the lost device's checkpointed parents plus host-rebuilt
    /// frontier queues, and the caller replays the level on `N - 1` GPUs.
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

        let lost_range = self.parts[lost].owned.clone();
        let alive: Vec<(usize, std::ops::Range<usize>)> = self
            .multi
            .alive_ids()
            .into_iter()
            .map(|d| (d, self.parts[d].owned.clone()))
            .collect();
        let recipient = repartition::choose_recipient_1d(&alive, &lost_range)
            .expect("1-D owned ranges tile the vertex range, so a neighbor survives");
        let merged = repartition::union_range(&self.parts[recipient].owned, &lost_range);

        // Charge the simulated cost of moving the lost slice's CSR view
        // to the recipient (plus one status bitmap) to every survivor.
        let lost_view = repartition::build_1d(&self.csr, &lost_range);
        let moved = lost_view.moved_words();
        let span_ms =
            repartition::repartition_cost_ms(&self.config.interconnect, moved, self.vertex_count);
        self.multi.advance_all(span_ms);
        self.multi.count_transfer(repartition::migration_bytes(moved, self.vertex_count));
        recovery.repartition_ms += span_ms;

        let view = repartition::build_1d(&self.csr, &merged);
        let device = self.multi.device(recipient);
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
            merged.clone(),
            merged.clone(),
        )?;
        // T_h is a global graph property, unchanged by repartitioning.
        state.total_hubs = self.parts[recipient].state.total_hubs;

        // Splice: the recipient's checkpointed status already equals the
        // merged global view; parents it never discovered come from the
        // lost device's checkpoint snapshot.
        let status = ckpt.devices[recipient].status.clone();
        let mut parent = ckpt.devices[recipient].parent.clone();
        repartition::merge_parents(&mut parent, &ckpt.devices[lost].parent);
        let rebuilt = repartition::rebuild_queues(
            &status,
            vars.dir,
            level,
            &merged,
            &merged,
            &view.out_offsets,
            &view.in_offsets,
            &self.config.thresholds,
        );
        let n = self.vertex_count;
        let mem = self.multi.device(recipient).mem();
        mem.upload(state.status, &status);
        mem.upload(state.parent, &parent);
        for (buf, q) in state.queues.iter().zip(&rebuilt.queues) {
            let mut padded = q.clone();
            padded.resize(n, 0);
            mem.upload(*buf, &padded);
        }
        state.queue_sizes = rebuilt.sizes;

        let old = std::mem::replace(
            &mut self.parts[recipient],
            PerDevice { graph, state, owned: merged },
        );
        self.retired.push((recipient, old));
        recovery.devices_lost.push(lost);
        recovery.levels_replayed += 1;
        self.fleet_epoch += 1;
        Ok(())
    }

    /// Host CPU baseline, the recovery ladder's last rung: a correct
    /// traversal carrying the simulated time and faults already spent,
    /// recorded via [`RecoveryReport::cpu_fallback`].
    fn cpu_fallback(&mut self, source: VertexId) -> MultiBfsResult {
        cpu_fallback_result(
            &self.csr,
            &self.out_degrees,
            source,
            self.multi.elapsed_ms(),
            self.multi.transferred_bytes(),
            self.multi.fault_stats(),
        )
    }

    /// One global level: private expansion, bitmap exchange + merge,
    /// private queue generation, direction decision, trace record.
    /// Returns `Ok(true)` when the search has terminated.
    fn level_pass(
        &mut self,
        level: u32,
        vars: &mut MultiLoopVars,
        trace: &mut Vec<LevelRecord>,
        recovery: &mut RecoveryReport,
    ) -> Result<bool, BfsError> {
        let n = self.vertex_count;
        let hc = self.config.hub_cache;
        let policy = self.config.policy;
        let total_hubs = self.parts[0].state.total_hubs;
        let dir = vars.dir;

        // (1) Private expansion (survivors only). Expansion time follows
        // the frontier, which wanders between slices level to level, so
        // it is deliberately *not* part of the straggler telemetry — the
        // slice-proportional queue-generation phase below is.
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
                hc && vars.cache_filled,
            )?;
        }
        // (2) Bitmap exchange + host-side union merge of the newly
        // visited level.
        self.merge_level(level, level + 1, recovery)?;
        let expand_ms = self.multi.elapsed_ms() - t0;

        // (3) Private queue generation over owned ranges. The
        // execution-clock delta around this phase is the straggler
        // telemetry: the scan is O(owned slice) with identical per-vertex
        // cost on every healthy device, so the per-item busy ratio is a
        // direct read of relative device speed.
        let t1 = self.multi.elapsed_ms();
        self.level_busy.iter_mut().for_each(|b| *b = 0.0);
        let gen_mark = self.device_clocks();
        let prev_total: usize = self.alive_frontier();
        let mut hub_frontiers = 0u64;
        let mut sizes = [0usize; 4];
        let mut fills = 0usize;
        for (d, part) in self.parts.iter_mut().enumerate() {
            if !self.multi.is_alive(d) {
                continue;
            }
            let wf = match dir {
                Direction::TopDown => GenWorkflow::TopDown { frontier_level: level + 1 },
                Direction::BottomUp => GenWorkflow::Filter { newly_level: level + 1 },
            };
            let r = try_generate_queues(
                self.multi.device(d),
                &part.graph,
                &mut part.state,
                wf,
                hc && dir == Direction::BottomUp,
            )?;
            hub_frontiers += r.hub_frontiers;
            fills += r.hub_fills;
            for (size, part_size) in sizes.iter_mut().zip(r.sizes) {
                *size += part_size;
            }
        }
        self.add_level_busy(&gen_mark);
        self.multi.barrier();

        let total: usize = sizes.iter().sum();
        let newly = match dir {
            Direction::TopDown => total,
            // Saturating: a bit-flip campaign can corrupt the device
            // counts behind these totals; accounting must not panic.
            Direction::BottomUp => prev_total.saturating_sub(total),
        };
        let gamma_pct = crate::direction::gamma_pct(hub_frontiers, total_hubs);

        let mut next_dir = dir;
        if dir == Direction::TopDown {
            let signals = SwitchSignals {
                gamma_pct,
                frontier_vertices: total,
                total_vertices: n,
                ..Default::default()
            };
            if policy.evaluate_topdown(&signals, vars.switched_at.is_some())
                == SwitchDecision::ToBottomUp
            {
                vars.switched_at = Some(level + 1);
                next_dir = Direction::BottomUp;
                sizes = [0; 4];
                fills = 0;
                let switch_mark = self.device_clocks();
                for (d, part) in self.parts.iter_mut().enumerate() {
                    if !self.multi.is_alive(d) {
                        continue;
                    }
                    let r = try_generate_queues(
                        self.multi.device(d),
                        &part.graph,
                        &mut part.state,
                        GenWorkflow::Switch { newly_level: level + 1 },
                        hc,
                    )?;
                    fills += r.hub_fills;
                    for (size, part_size) in sizes.iter_mut().zip(r.sizes) {
                        *size += part_size;
                    }
                }
                self.add_level_busy(&switch_mark);
                self.multi.barrier();
            }
        }
        let queue_gen_ms = self.multi.elapsed_ms() - t1;
        vars.cache_filled = fills > 0;

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

    /// Step (2): every device broadcasts its just-visited bitmap; the
    /// union is merged into every private status array. The transfer cost
    /// is `ballot_compressed_bytes(n)` per device (§4.4's 90% reduction).
    ///
    /// Under fault injection the broadcast carries a checksum: a dropped
    /// exchange (detected by timeout) or a corrupted one (detected by
    /// checksum mismatch on the received copy) is retried with
    /// exponential backoff, bounded by
    /// [`RecoveryPolicy::max_exchange_retries`]. With the routing ladder
    /// armed ([`MultiGpuConfig::route`]), dead links additionally climb
    /// probe → relay → host bounce (see [`crate::route`]).
    fn merge_level(
        &mut self,
        level: u32,
        newly_level: u32,
        recovery: &mut RecoveryReport,
    ) -> Result<(), BfsError> {
        let n = self.vertex_count;
        if self.multi.alive_count() > 1 {
            if self.config.faults.is_none() {
                // Fault-free substrate: the plain exchange, bit-identical
                // in time and counters to the pre-fault-plane driver.
                self.multi.exchange(ballot_compressed_bytes(n));
            } else {
                // Model the wire payload: the union bitmap of newly
                // visited vertices, with a Fletcher checksum appended.
                let mut bitmap = vec![0u8; ballot_compressed_bytes(n) as usize];
                for (d, part) in self.parts.iter().enumerate() {
                    if !self.multi.is_alive(d) {
                        continue;
                    }
                    let status = self.multi.device_ref(d).mem_ref().view(part.state.status);
                    for (v, &s) in status.iter().enumerate() {
                        if s == newly_level {
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
                    |m| m.exchange_with_faults(ballot_compressed_bytes(n)),
                )?;
            }
        }
        // Host-side union of the newly-visited bits (models each device
        // OR-ing the received bitmaps into its status array).
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
            let state_status = part.state.status;
            let device = self.multi.device(d);
            for (v, &is_new) in newly.iter().enumerate() {
                if is_new && device.mem_ref().get(state_status, v) == UNVISITED {
                    device.mem().set(state_status, v, newly_level);
                }
            }
        }
        Ok(())
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
        // Gather parents: prefer the first surviving device with a
        // recorded parent (a lost device's discoveries were spliced into
        // its recipient at eviction time).
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
            .map(|(_, &d)| d as u64)
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

    /// Swaps a lane's per-device states onto the fleet (and back — the
    /// operation is its own inverse). Devices dead at the lane's
    /// admission hold `None` and keep the fleet's resident state.
    fn swap_lane_states(&mut self, lane: &mut MultiLane) {
        for (part, st) in self.parts.iter_mut().zip(&mut lane.states) {
            if let Some(st) = st.as_mut() {
                std::mem::swap(&mut part.state, st);
            }
        }
    }

    /// Returns a lane's states to its slot's pool. The simulator never
    /// frees device memory, so pooling is how lane buffers get reused;
    /// a pooled state whose scan ranges no longer match the device's
    /// partition is simply never picked up again.
    fn park_lane_states(&mut self, lane: &mut MultiLane) {
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
    /// `source` on it: every survivor learns the source, only the owner
    /// enqueues it — the same initial broadcast as the sequential seed.
    /// Runs inside the fused window with the lane's slot switched in,
    /// so allocation and seeding cost lands on the lane's stream.
    fn lane_open_inner(&mut self, source: VertexId, slot: usize) -> Result<MultiLane, BfsError> {
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
            if self.parts[d].owned.contains(&(source as usize)) {
                mem.set(st.parent, source as usize, source);
                // Classify by this device's (partitioned) out-degree;
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
        self.multi.barrier();
        let mut recovery =
            RecoveryReport { warm_restart: self.warm_restart, ..RecoveryReport::default() };
        recovery.snapshot_errors.append(&mut self.persist_errors);
        Ok(MultiLane {
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
    /// level loop, minus everything that reshapes the fleet. Device loss,
    /// link isolation, and straggler overruns are *lane-fatal* — the
    /// source de-pipelines and the sequential ladder performs the splice
    /// or rebalance (bumping the fleet epoch, which re-admits sibling
    /// lanes). Adaptive rebalance and mid-run checkpoint persistence are
    /// likewise sequential-only. Runs with the lane's states and fault
    /// bundle swapped onto the fleet.
    fn lane_level(&mut self, lane: &mut MultiLane) -> Result<bool, BfsError> {
        if lane.level > lane.level_cap {
            let frontier = self.alive_frontier();
            return Err(BfsError::Hang { level: lane.level, frontier, stalled_levels: 0 });
        }
        // Link-isolation poll: migration reshapes the fleet under every
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
                    // Level deadline: replay an overrun, then surface a
                    // typed deadline error (→ de-pipeline, where the
                    // hedge policy sees the overrun factor).
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
                            view_1d,
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
                    // Fleet reshapes — loss splice, forced straggler
                    // rebalance — are lane-fatal; the de-pipelined
                    // ladder owns them. Note the straggler path does
                    // *not* consult the imbalance detector here: its
                    // streak state belongs to the sequential plane.
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

/// Host CPU BFS shared by both multi-GPU drivers as the recovery ladder's
/// last rung. Carries the simulated time, interconnect bytes, and fault
/// counters already spent before the fallback was taken.
pub(crate) fn cpu_fallback_result(
    csr: &Csr,
    out_degrees: &[u32],
    source: VertexId,
    time_ms: f64,
    communication_bytes: u64,
    faults: gpu_sim::FaultStats,
) -> MultiBfsResult {
    let n = csr.vertex_count();
    let mut levels: Vec<Option<u32>> = vec![None; n];
    let mut parents: Vec<Option<VertexId>> = vec![None; n];
    levels[source as usize] = Some(0);
    parents[source as usize] = Some(source);
    let mut queue = std::collections::VecDeque::new();
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
    let traversed_edges: u64 = levels
        .iter()
        .zip(out_degrees)
        .filter(|(l, _)| l.is_some())
        .map(|(_, &d)| d as u64)
        .sum();
    MultiBfsResult {
        source,
        levels,
        parents,
        visited,
        traversed_edges,
        time_ms,
        teps: 0.0,
        depth,
        switched_at: None,
        communication_bytes,
        level_trace: Vec::new(),
        recovery: RecoveryReport { cpu_fallback: true, faults, ..RecoveryReport::default() },
    }
}

/// Uploads the 1-D partition of `csr` owned by `owned`: out-adjacency for
/// owned sources, in-adjacency for owned targets (what bottom-up needs).
/// The same view builder serves setup and post-eviction repartitioning,
/// so a merged device's partition-view degrees match what two separate
/// devices would have seen.
fn upload_partition(
    device: &mut gpu_sim::Device,
    csr: &Csr,
    owned: std::ops::Range<usize>,
) -> DeviceGraph {
    let view = repartition::build_1d(csr, &owned);
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
    use enterprise_graph::gen::kronecker;

    /// A warm fleet serving pipelined batches keeps a flat timeline:
    /// lane results return no records, so each sweep end drops them and
    /// the per-device record count after batch 10 equals that after
    /// batch 2.
    #[test]
    fn warm_pipelined_fleet_keeps_a_flat_timeline() {
        let g = kronecker(9, 8, 5);
        let queue: Vec<crate::BatchSource> =
            [3u32, 17, 101, 255, 7, 64].iter().map(|&s| crate::BatchSource::new(s)).collect();
        let mut sys = MultiGpuEnterprise::new(MultiGpuConfig::k40s(4), &g);
        let counts = |sys: &MultiGpuEnterprise| -> Vec<usize> {
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
        assert_eq!(counts(&sys), after_two, "1-D fleet timeline grew across batches");
    }

    #[test]
    fn multi_gpu_matches_oracle_levels() {
        let g = kronecker(9, 8, 5);
        for gpus in [1, 2, 4] {
            let mut sys = MultiGpuEnterprise::new(MultiGpuConfig::k40s(gpus), &g);
            let r = sys.bfs(3);
            let oracle = cpu_levels(&g, 3);
            assert_eq!(r.levels, oracle, "{gpus} GPUs");
            assert!(r.visited > 1);
        }
    }

    #[test]
    fn multi_gpu_communicates_compressed_bitmaps() {
        let g = kronecker(9, 8, 5);
        let mut sys = MultiGpuEnterprise::new(MultiGpuConfig::k40s(2), &g);
        let r = sys.bfs(0);
        assert!(r.communication_bytes > 0);
        // Per-level traffic is n/8 bytes per device pair direction.
        let per_level = 2 * ballot_compressed_bytes(g.vertex_count());
        assert_eq!(r.communication_bytes % per_level, 0);
    }

    #[test]
    fn single_gpu_multi_driver_agrees_with_plain_driver() {
        let g = kronecker(9, 8, 7);
        let mut multi = MultiGpuEnterprise::new(MultiGpuConfig::k40s(1), &g);
        let rm = multi.bfs(1);
        let mut single =
            crate::Enterprise::new(crate::EnterpriseConfig::default(), &g);
        let rs = single.bfs(1);
        assert_eq!(rm.levels, rs.levels);
        assert_eq!(rm.visited, rs.visited);
    }
}
