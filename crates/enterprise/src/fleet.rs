//! The fleet core shared by the 1-D and 2-D multi-GPU drivers.
//!
//! Buluç et al. treat 1-D partitioning as the `p x 1` case of 2-D, and
//! the two drivers share everything that does not depend on the
//! partition shape: one part type, one lane type, the seed, level
//! checkpoints, lane-state pooling, straggler telemetry, partition
//! splicing, result collection, the batch-host plumbing, and the one
//! level step that both drivers' sequential runs and pipeline lanes
//! advance through ([`step_level`]). A driver supplies only its
//! [`Topology`]: how a level expands and exchanges, how a lost device
//! is spliced out, how a straggler is rebalanced away, the partition
//! view the verifier rebuilds queues against, and the layout it
//! persists.

use crate::batch::BatchHost;
use crate::bfs::{Checkpoint, DeviceSnapshot, Walk};
use crate::device_graph::DeviceGraph;
use crate::error::{BfsError, RecoveryReport};
use crate::kernels::Direction;
use crate::multi_gpu::{MultiBfsResult, MultiGpuConfig};
use crate::persist::{
    CheckpointSnapshot, DeviceCheckpoint, DriverKind, Durability, FleetRecord, GraphFingerprint,
    LayoutSnapshot, PersistError, SnapshotStore,
};
use crate::rebalance::{DeviceTiming, ImbalanceDetector};
use crate::repartition::{self, PartitionArrays};
use crate::state::BfsState;
use crate::status::{levels_from_raw, NO_PARENT, UNVISITED};
use crate::validate::{audit, check_level, repair_vertices, ValidationError};
use enterprise_graph::{stats::hub_threshold_for_capacity, Csr, VertexId};
use gpu_sim::{DeviceError, ExchangeOutcome, FaultSpec, FleetFaultBundle, MultiDevice};
use std::collections::BTreeSet;
use std::ops::Range;

/// One device's resident partition: its CSR view, its working state,
/// and the vertex slice it expands (the 1-D owned slice, or the 2-D
/// column block).
pub(crate) struct Part {
    pub(crate) graph: DeviceGraph,
    pub(crate) state: BfsState,
    pub(crate) owned: Range<usize>,
}

/// Per-source lane state for pipelined (MS-BFS) batch execution on a
/// fleet: one private [`BfsState`] per surviving device, the source's
/// walk, and its scoped fault universe, all swapped onto the shared
/// fleet for the duration of one level slice.
pub(crate) struct FleetLane {
    slot: usize,
    /// Indexed by device id; `None` for devices that were already dead
    /// at admission (their partitions live on survivors).
    states: Vec<Option<BfsState>>,
    walk: Walk,
    /// The lane's parked fleet fault universe (installed scoped plan +
    /// per-device straggler/throttle state + link plan), swapped in for
    /// each slice so sibling lanes never draw from it.
    bundle: FleetFaultBundle,
    /// Interconnect bytes this lane's own levels moved (exchanges,
    /// replays and reroutes included; the seed moves none).
    comm_bytes: u64,
}

/// The devices, partitions and run-to-run state of a multi-GPU system.
pub(crate) struct Fleet {
    pub(crate) config: MultiGpuConfig,
    pub(crate) multi: MultiDevice,
    /// Indexed by device id (row-major `i * cols + j` on a grid).
    pub(crate) parts: Vec<Part>,
    pub(crate) vertex_count: usize,
    pub(crate) out_degrees: Vec<u32>,
    /// Host copy of the graph, needed to rebuild a partition view when a
    /// lost device's slice is spliced onto a survivor (and for the CPU
    /// fallback baseline).
    pub(crate) csr: Csr,
    /// Hub threshold τ, reused by repartition-time state allocation.
    pub(crate) tau: u32,
    /// Partitions displaced by in-run evictions, restored at the start of
    /// the next run so device loss stays per-run (bit-reproducibility).
    pub(crate) retired: Vec<(usize, Part)>,
    /// Per-device busy time accumulated by the current level pass
    /// (queue generation, barriers excluded) — the telemetry the
    /// imbalance detector consumes.
    pub(crate) level_busy: Vec<f64>,
    /// The durability path: snapshot store, cadence and checkpoint writer.
    pub(crate) persist: Durability,
    /// Devices a restored *degraded-fleet* layout recorded as evicted:
    /// every run of this instance re-evicts them at start and resumes on
    /// the survivors (whose restored slices tile the vertex range alone).
    /// Only the 1-D driver restores such layouts.
    pub(crate) layout_evicted: Vec<usize>,
    /// Brownout pin (batch serving plane, DESIGN.md §5i): while set, the
    /// per-run fleet restoration — revive, retired-partition restore,
    /// detector and link-verdict reset — is skipped, so evictions and
    /// learned layouts carry across the sources of one batch.
    pub(crate) pinned: bool,
    /// Imbalance detector, a field so its streak/cooldown state can
    /// carry across the sources of a pinned batch; reset at run start
    /// otherwise.
    pub(crate) detector: ImbalanceDetector,
    /// Hard-down link verdicts carried across exchanges (and, pinned,
    /// across batch sources); cleared at run start otherwise.
    pub(crate) link_verdicts: crate::route::LinkVerdicts,
    /// The fault plane's accumulated link slow-down when the sequential
    /// walk last fed the degraded-link fold.
    pub(crate) link_mark: u64,
    /// Fleet-shape generation counter: bumped whenever the partition
    /// layout or alive set changes (eviction splice, rebalance, degraded
    /// resume, batch fleet restore). Pipeline lanes opened against an
    /// older epoch hold stale per-device state and must be re-admitted.
    pub(crate) fleet_epoch: u64,
    /// Parked per-slot, per-device lane states (pipelined batch mode).
    /// The simulator never frees device memory, so lane states are
    /// pooled instead of dropped; a pooled state is reused only while
    /// its scan ranges still match the device's current partition.
    pub(crate) lane_pool: Vec<Vec<Option<BfsState>>>,
    /// Devices evicted because routing proved them link-isolated, as
    /// opposed to fault-plane losses — the split the durable fleet
    /// record preserves across a batch kill/resume. Cleared when the
    /// batch pin is released.
    pub(crate) batch_isolated: BTreeSet<usize>,
}

/// What a partition shape adds to the shared fleet core.
pub(crate) trait Topology {
    /// Ledger and snapshot compatibility key.
    const KIND: DriverKind;
    /// Whether the seed ends with a fleet barrier: the 1-D seed is the
    /// initial broadcast of the source, the 2-D seed is not.
    const SEED_BARRIER: bool;

    fn fleet(&self) -> &Fleet;
    fn fleet_mut(&mut self) -> &mut Fleet;
    /// The partition view the end-of-level verifier rebuilds a device's
    /// queues against.
    fn view(csr: &Csr, info: &DeviceVerifyInfo) -> PartitionArrays;
    /// One global level: expansion, exchange and merge, queue
    /// generation, direction decision, trace record. Returns `Ok(true)`
    /// when the search has terminated.
    fn level_pass(&mut self, walk: &mut Walk) -> Result<bool, BfsError>;
    /// Evicts `lost` and reshapes the fleet around the hole, rolling the
    /// survivors back to `ckpt`; the caller replays the level. Fails
    /// with [`BfsError::AllDevicesLost`] when the eviction budget
    /// ([`crate::RecoveryPolicy::min_surviving_devices`]) is exhausted.
    fn handle_loss(
        &mut self,
        lost: usize,
        ckpt: &Checkpoint,
        walk: &mut Walk,
    ) -> Result<(), BfsError>;
    /// Shifts work toward faster devices in proportion to `weights`
    /// (one entry per alive device), rebuilding the frontier queues for
    /// `rebuild_level`.
    fn rebalance(
        &mut self,
        weights: &[(usize, f64)],
        rebuild_level: u32,
        dir: Direction,
        recovery: &mut RecoveryReport,
    ) -> Result<(), BfsError>;
    /// The learned layout a finished run publishes under `fingerprint`,
    /// or `None` when it breaks the driver's shape rule.
    fn layout(
        &self,
        fingerprint: GraphFingerprint,
        recovery: &RecoveryReport,
    ) -> Option<LayoutSnapshot>;
    /// Whether the fleet's current shape may be checkpointed durably.
    fn checkpoints_now(&self) -> bool {
        true
    }
    /// Rebuilds the fleet to a checkpoint taken after evictions, so the
    /// walk resumes on the survivors; `false` (with the defect recorded)
    /// when the driver cannot host it and the walk cold-starts.
    fn degraded_resume(
        &mut self,
        _snap: &CheckpointSnapshot,
        recovery: &mut RecoveryReport,
    ) -> bool {
        recovery.snapshot_errors.push(PersistError::LayoutMismatch);
        false
    }
    /// The fleet's serializable degradation for the batch ledger (see
    /// [`BatchHost::capture_fleet`]); `None` when unsupported.
    fn fleet_record(&mut self) -> Option<FleetRecord> {
        None
    }
    /// Re-applies a recorded degradation (see
    /// [`BatchHost::restore_fleet`]); `false` when unsupported.
    fn adopt_fleet_record(&mut self, _rec: &FleetRecord) -> bool {
        false
    }
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
            if !multi.device_ref(*device).is_lost() && multi.device_ref(*device).is_straggler() =>
        {
            let overrun = *elapsed_us as f64 / (*budget_us).max(1) as f64;
            Some((*device, overrun.max(1.0)))
        }
        _ => None,
    }
}

/// Per-device handles the shared end-of-level verifier needs: the
/// device's buffers and the scan ranges its queues are built over.
pub(crate) struct DeviceVerifyInfo {
    pub(crate) device: usize,
    pub(crate) status: gpu_sim::BufferId,
    pub(crate) parent: gpu_sim::BufferId,
    pub(crate) queues: [gpu_sim::BufferId; 4],
    pub(crate) td_range: Range<usize>,
    pub(crate) bu_range: Range<usize>,
}

/// What the shared end-of-level verifier concluded.
enum MergedVerdict {
    /// All invariants hold on the merged view.
    Clean,
    /// Corruption healed in place; `done` is the recomputed termination
    /// decision and `sizes` the rebuilt queue sizes per device id.
    Repaired { done: bool, sizes: Vec<(usize, [usize; 4])> },
    /// Localized repair could not restore consistency: replay the level.
    Corrupt(ValidationError),
}

/// End-of-level SDC verification on a fleet: the merged global view
/// (first alive device's post-merge status, first-wins parent gather) is
/// checked against the level invariants; on a finding, localized repair
/// restores from the merged checkpoint view and, if the re-check is
/// clean, uploads the healed arrays to **every** alive device and
/// rebuilds each device's queues host-side against its own partition
/// view (`view_of` supplies the driver's 1-D or 2-D block views).
fn verify_merged_level(
    f: &mut Fleet,
    ckpt: &Checkpoint,
    walk: &mut Walk,
    view_of: fn(&Csr, &DeviceVerifyInfo) -> PartitionArrays,
) -> MergedVerdict {
    let (source, level, dir) = (walk.source, walk.level, walk.vars.dir);
    let recovery = &mut walk.recovery;
    let infos = f.verify_infos();
    let (multi, csr) = (&mut f.multi, &f.csr);
    let n = csr.vertex_count();
    let d0 = infos[0].device;
    let mut status = multi.device_ref(d0).mem_ref().view(infos[0].status).to_vec();
    let mut parent = vec![NO_PARENT; n];
    for info in &infos {
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
    if f.config.verify.repair {
        // Merged checkpoint view, trusted because verification ran before
        // the checkpoint was taken.
        let ckpt_status = &ckpt.devices[d0].status;
        let mut ckpt_parent = vec![NO_PARENT; n];
        for info in &infos {
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
            for info in &infos {
                let view = view_of(csr, info);
                let rebuilt = repartition::rebuild_queues(
                    &status,
                    dir,
                    level + 1,
                    &info.td_range,
                    &info.bu_range,
                    &view.out_offsets,
                    &view.in_offsets,
                    &f.config.thresholds,
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

/// Fallible fleet BFS with level-replay recovery, checksummed exchange
/// retry, and elastic device eviction, plus the end-of-run audit (one
/// full replay on a dirty audit).
pub(crate) fn try_bfs<T: Topology>(
    t: &mut T,
    source: VertexId,
) -> Result<MultiBfsResult, BfsError> {
    // Reinstall the fault plan from its seed so repeated runs of this
    // instance draw the same fault sequence (bit-reproducibility).
    let f = t.fleet_mut();
    if let Some(spec) = f.config.faults {
        f.multi.install_faults(spec);
    }
    let result = try_bfs_once(t, source)?;
    let f = t.fleet();
    if !f.config.verify.end_of_run || audit(&f.csr, source, &result.levels, &result.parents).is_ok()
    {
        return Ok(result);
    }
    // Full replay *without* reinstalling the fault plan: the replay
    // continues the fault stream instead of reproducing the exact
    // corruption the audit rejected. Fault counters are cumulative
    // across the replay.
    let mut replay = try_bfs_once(t, source)?;
    replay.recovery.validation_replays += 1;
    match audit(&t.fleet().csr, source, &replay.levels, &replay.parents) {
        Ok(()) => Ok(replay),
        Err(e) => Err(BfsError::ValidationFailedAfterReplay(e)),
    }
}

/// One attempt of the traversal (no end-of-run audit): seed, resume,
/// then step the walk until its frontier drains.
fn try_bfs_once<T: Topology>(t: &mut T, source: VertexId) -> Result<MultiBfsResult, BfsError> {
    let f = t.fleet_mut();
    let mut walk = Walk::open(source, f.vertex_count, false, &f.config.watchdog, &mut f.persist)?;
    // Device loss is per-run: revive the substrate and restore the
    // original partitions displaced by the previous run's evictions, so
    // repeated runs of one instance stay bit-reproducible. Under a batch
    // brownout pin the restoration is skipped — the shrunken fleet,
    // learned layout (including a grid collapse), detector state, and
    // link verdicts carry to the next source instead (DESIGN.md §5i).
    if !f.pinned {
        f.multi.revive_all();
        for (d, part) in f.retired.drain(..).rev() {
            f.parts[d] = part;
        }
        f.detector = ImbalanceDetector::new(f.config.rebalance);
        f.link_verdicts.clear();
    }
    // A restored degraded-fleet layout pins its evictions for the life
    // of this instance: re-evict before seeding so every run starts on
    // the same survivor set (whose restored slices tile the vertex range
    // by themselves).
    for &d in &f.layout_evicted {
        f.multi.evict(d);
    }
    f.multi.reset_stats();
    f.seed(source, T::SEED_BARRIER);
    try_resume(t, &mut walk);
    let f = t.fleet_mut();
    f.link_mark = f.multi.fault_stats().link_slow_us;
    while !step_level(t, &mut walk)? {}
    walk.recovery.faults = t.fleet().multi.fault_stats();
    persist_finish(t, &mut walk.recovery);
    Ok(t.fleet().collect(walk))
}

/// Warm restart from a durable mid-traversal checkpoint: overwrites the
/// freshly seeded survivors with the persisted level boundary (after the
/// driver rebuilds a degraded fleet) and continues from there. Defects
/// degrade to the cold start already seeded.
fn try_resume<T: Topology>(t: &mut T, walk: &mut Walk) {
    let f = t.fleet_mut();
    let states = f.parts.iter().map(|p| &p.state);
    let Some(snap) =
        f.persist.load_checkpoint(walk.source, states, f.vertex_count, true, &mut walk.recovery)
    else {
        return;
    };
    if !snap.evicted.is_empty() && !t.degraded_resume(&snap, &mut walk.recovery) {
        return;
    }
    let f = t.fleet_mut();
    for (d, (dev, part)) in snap.devices.iter().zip(&mut f.parts).enumerate() {
        if f.multi.is_alive(d) {
            dev.upload(f.multi.device(d).mem(), &mut part.state);
        }
    }
    snap.resume(walk);
}

/// End-of-run persistence: publish the driver's learned layout and
/// retire the checkpoint chain.
fn persist_finish<T: Topology>(t: &mut T, recovery: &mut RecoveryReport) {
    if let Some(fingerprint) = t.fleet().persist.fingerprint() {
        let layout = t.layout(fingerprint, recovery);
        t.fleet_mut().persist.finish(layout, recovery);
    }
}

/// Advances `walk` one BFS level on the fleet: checkpoint (published
/// durably on a durable walk's cadence), the driver's level pass under
/// the attempt/replay ladder, then the post-level bookkeeping (livelock,
/// stall, scrub, throttle and link clocks, adaptive rebalance). Returns
/// `Ok(true)` when the frontier drained. A sequential run loops over
/// this; a pipeline lane calls it once per slice with its states and
/// fault bundle swapped in.
///
/// Fleet reshapes — loss splice, isolation migration, forced and
/// adaptive rebalance — happen only on a walk that [`reshapes`]; a lane
/// surfaces their triggers as errors, so the source de-pipelines and its
/// sequential ladder performs the reshape (bumping the fleet epoch,
/// which re-admits sibling lanes).
///
/// [`reshapes`]: Walk::reshapes
pub(crate) fn step_level<T: Topology>(t: &mut T, walk: &mut Walk) -> Result<bool, BfsError> {
    let level = walk.level;
    // Structural liveness bound: a level-synchronous BFS can run at most
    // n+1 levels, so a counter past the cap means the frontier never
    // drained.
    if level > walk.level_cap {
        let frontier = t.fleet().alive_frontier();
        return Err(BfsError::Hang { level, frontier, stalled_levels: 0 });
    }
    // Link-isolation poll (routing ladder rung 5, proactive form): a
    // device whose every route is down cannot take part in the next
    // exchange, so migrate its partition onto reachable survivors *now* —
    // before the watchdog would have to declare the (perfectly healthy)
    // device dead.
    if t.fleet().config.route.enabled {
        if let Some(isolated) = crate::route::find_isolated(&t.fleet().multi) {
            if !walk.reshapes {
                return Err(BfsError::LinkIsolated { level, device: isolated });
            }
            let ckpt = t.fleet().checkpoint(walk);
            return isolate(t, isolated, &ckpt, walk);
        }
    }
    let ckpt = t.fleet().checkpoint(walk);
    if walk.durable && t.fleet().persist.due(level) && t.checkpoints_now() {
        t.fleet_mut().persist_checkpoint(walk, &ckpt);
    }
    let max_retries = t.fleet().config.recovery.max_level_retries;
    let mut attempts: u32 = 0;
    let done = loop {
        let t_level = t.fleet().multi.elapsed_ms();
        match t.level_pass(walk) {
            Ok(done) => {
                let f = t.fleet_mut();
                // Level deadline: replay an overrun, then surface a typed
                // deadline error (a lane de-pipelines, where the hedge
                // policy sees the overrun factor).
                if let Some(budget_ms) = f.config.watchdog.level_deadline_ms {
                    let elapsed_ms = f.multi.elapsed_ms() - t_level;
                    if elapsed_ms > budget_ms {
                        attempts += 1;
                        if attempts > max_retries {
                            return Err(BfsError::Deadline {
                                level,
                                attempts,
                                elapsed_ms,
                                budget_ms,
                            });
                        }
                        walk.recovery.levels_replayed += 1;
                        f.restore(&ckpt, walk);
                        continue;
                    }
                }
                // End-of-level SDC gate on the merged global view: heal
                // from the checkpoint if possible, replay the level if not.
                if f.config.verify.end_of_level {
                    match verify_merged_level(f, &ckpt, walk, T::view) {
                        MergedVerdict::Clean => {}
                        MergedVerdict::Repaired { done, sizes } => {
                            // A lane's states are swapped in, so the
                            // repaired sizes land on the lane.
                            for (d, s) in sizes {
                                f.parts[d].state.queue_sizes = s;
                            }
                            break done;
                        }
                        MergedVerdict::Corrupt(err) => {
                            attempts += 1;
                            if attempts > max_retries {
                                return Err(BfsError::ValidationFailedAfterReplay(err));
                            }
                            walk.recovery.levels_replayed += 1;
                            f.restore(&ckpt, walk);
                            continue;
                        }
                    }
                }
                break done;
            }
            Err(BfsError::Device(e)) => {
                // Permanent device loss: evict, splice the lost partition
                // onto the survivors, and replay the level on the
                // shrunken fleet with a fresh checkpoint.
                if let Some(lost) = loss_of(&e, &t.fleet().multi) {
                    if !walk.reshapes {
                        return Err(BfsError::Device(e));
                    }
                    t.handle_loss(lost, &ckpt, walk)?;
                    return Ok(false);
                }
                // Slow-but-alive: a kernel-deadline overrun on a
                // straggler device. Replaying without rebalancing would
                // deterministically overrun again, so force a rebalance
                // (weights estimated from the observed overrun, since the
                // level never produced telemetry) and replay on the new
                // layout. A lane does not consult the detector: its
                // streak state belongs to the sequential plane.
                if let Some((slow, overrun)) = slow_of(&e, &t.fleet().multi) {
                    if !walk.reshapes {
                        return Err(BfsError::Device(e));
                    }
                    let f = t.fleet_mut();
                    if f.detector.force() {
                        walk.recovery.stragglers_detected += 1;
                        f.restore(&ckpt, walk);
                        let weights = f.overrun_weights(slow, overrun);
                        t.rebalance(&weights, level, walk.vars.dir, &mut walk.recovery)?;
                        walk.recovery.rebalances += 1;
                        walk.recovery.levels_replayed += 1;
                        return Ok(false);
                    }
                }
                // A transient kernel fault that escaped the in-driver
                // launch retries: roll every device back and replay the
                // level.
                attempts += 1;
                if attempts > max_retries {
                    return Err(BfsError::LevelRetriesExhausted { level, attempts, last: e });
                }
                walk.recovery.levels_replayed += 1;
                t.fleet_mut().restore(&ckpt, walk);
            }
            // Routed-exchange verdict: one endpoint of a dead link is
            // unreachable by probe, relay *and* host bounce. Same splice
            // path as a watchdog loss, but the trigger is routing — the
            // device itself is fine.
            Err(BfsError::LinkIsolated { device, .. }) if walk.reshapes => {
                return isolate(t, device, &ckpt, walk);
            }
            // Exchange-budget exhaustion is terminal, not replayable (and
            // a lane's isolation verdict de-pipelines).
            Err(other) => return Err(other),
        }
    };
    if done {
        return Ok(true);
    }
    let f = t.fleet_mut();
    // Injected livelock (fault plane): device 0's plan is the coordinator
    // draw (a lane's scoped plan is installed, so the draw is lane-local);
    // the fleet rolls back while the level counter keeps advancing.
    let livelocked = f.multi.device(0).should_inject_livelock();
    if livelocked {
        f.restore(&ckpt, walk);
    }
    if let Some(det) = walk.stall.as_mut() {
        let frontier = f.alive_frontier();
        let d0 = f.multi.alive_ids()[0];
        let visited = f
            .multi
            .device_ref(d0)
            .mem_ref()
            .view(f.parts[d0].state.status)
            .iter()
            .filter(|&&s| s != UNVISITED)
            .count();
        if let Some(stalled) = det.observe(visited, frontier) {
            return Err(BfsError::Hang { level, frontier, stalled_levels: stalled });
        }
    }
    // Background scrubbing across the fleet: clear latent single-bit ECC
    // errors on cadence. No-op with ECC off.
    if let Some(every) = f.config.scrub_levels {
        if every > 0 && (level + 1) % every == 0 {
            f.multi.scrub_all();
        }
    }
    // Throttle-onset clock: every surviving device has finished one more
    // level (drives `FaultSpec::throttle_onset_levels`).
    for d in f.multi.alive_ids() {
        f.multi.device(d).note_level_end();
    }
    // Per-link flap windows advance on completed levels (no-op without an
    // armed link topology).
    f.multi.tick_link_level();
    // Adaptive rebalance (§5f rung 2): feed the level's timing telemetry
    // to the imbalance detector and shift work toward the faster devices
    // when a straggler is confirmed. Skipped after a livelock rollback —
    // the state was rewound to the level checkpoint, so this level's
    // queues no longer exist to rebuild.
    if walk.reshapes && f.config.rebalance.enabled && !livelocked {
        let timings = f.level_timings();
        if let Some(weights) = f.detector.observe(&timings) {
            walk.recovery.stragglers_detected += 1;
            t.rebalance(&weights, level + 1, walk.vars.dir, &mut walk.recovery)?;
            walk.recovery.rebalances += 1;
        } else {
            // Degraded-link fold (§5f): per-device busy time never sees a
            // slow wire (exec clocks exclude exchanges), so the level's
            // growth of the fault plane's accumulated link slow-down feeds
            // the same streak/cooldown ladder and shifts work by measured
            // device throughput.
            let slow_ms = (f.multi.fault_stats().link_slow_us - f.link_mark) as f64 / 1e3;
            if f.detector.observe_link(slow_ms) {
                walk.recovery.link_slow_detections += 1;
                let usable = timings.len() >= 2
                    && timings.iter().all(|dt| dt.busy_ms > 0.0 && dt.work_items > 0);
                if usable {
                    let weights: Vec<(usize, f64)> = timings
                        .iter()
                        .map(|dt| (dt.device, dt.work_items as f64 / dt.busy_ms))
                        .collect();
                    t.rebalance(&weights, level + 1, walk.vars.dir, &mut walk.recovery)?;
                    walk.recovery.rebalances += 1;
                }
            }
        }
        let f = t.fleet_mut();
        f.link_mark = f.multi.fault_stats().link_slow_us;
    }
    walk.level += 1;
    Ok(false)
}

/// Migrates a link-isolated device's partition onto reachable survivors
/// through the eviction path, recording it as an isolation (not a
/// fault-plane loss); the caller replays the level.
fn isolate<T: Topology>(
    t: &mut T,
    device: usize,
    ckpt: &Checkpoint,
    walk: &mut Walk,
) -> Result<bool, BfsError> {
    t.handle_loss(device, ckpt, walk)?;
    walk.recovery.link_isolated.push(device);
    t.fleet_mut().batch_isolated.insert(device);
    Ok(false)
}

impl Fleet {
    /// An unpartitioned fleet of `config.gpu_count` devices bound to
    /// `csr` for a `kind` driver: every device gets its sanitizer and
    /// kernel deadline before any allocation (so initialization tracking
    /// covers every buffer from birth), and the snapshot store opens when
    /// persistence is configured. The driver then loads its layout and
    /// uploads parts.
    pub(crate) fn open(config: MultiGpuConfig, csr: &Csr, kind: DriverKind) -> Self {
        let p = config.gpu_count;
        let mut multi = MultiDevice::new(p, config.device.clone(), config.interconnect);
        multi.set_ecc(config.ecc);
        for d in 0..p {
            let device = multi.device(d);
            if config.sanitize {
                device.enable_sanitizer();
            }
            device.set_kernel_deadline_ms(config.watchdog.kernel_deadline_ms);
        }
        Fleet {
            multi,
            parts: Vec::with_capacity(p),
            vertex_count: csr.vertex_count(),
            out_degrees: csr.vertices().map(|v| csr.out_degree(v)).collect(),
            csr: csr.clone(),
            tau: hub_threshold_for_capacity(csr, config.hub_cache_entries),
            retired: Vec::new(),
            level_busy: vec![0.0; p],
            persist: Durability::open(kind, config.persist.as_ref(), config.faults.as_ref(), csr),
            layout_evicted: Vec::new(),
            pinned: false,
            detector: ImbalanceDetector::new(config.rebalance),
            link_verdicts: crate::route::LinkVerdicts::default(),
            link_mark: 0,
            fleet_epoch: 0,
            lane_pool: Vec::new(),
            batch_isolated: BTreeSet::new(),
            config,
        }
    }

    /// Seeds a traversal from `source` on every survivor's resident
    /// state: every device learns the source, only the owner of its
    /// expansion slice enqueues it. `barrier` closes the seed with a
    /// fleet barrier (the 1-D initial broadcast).
    fn seed(&mut self, source: VertexId, barrier: bool) {
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
                // Resident graph arrays can carry silent bit rot from an
                // earlier batch source; kernels clamp corrupt offsets, and
                // the host must tolerate them too. A wrong class is caught
                // by the verifier, not here.
                let deg = {
                    let offs = mem.view(part.graph.out_offsets);
                    offs[source as usize + 1].saturating_sub(offs[source as usize])
                };
                let k = part.state.thresholds.classify(deg).index();
                mem.set(part.state.queues[k], 0, source);
                part.state.queue_sizes[k] = 1;
            }
        }
        if barrier {
            self.multi.barrier();
        }
    }

    /// Caps every device's in-driver relaunch budget for faulted kernels
    /// (`0` escalates every injected kernel fault to a level replay).
    pub(crate) fn set_launch_retries(&mut self, retries: u32) {
        for d in self.multi.devices_mut() {
            d.set_launch_retries(retries);
        }
    }

    /// Verifier handles for every alive device.
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

    /// Snapshots every device's traversal state plus the walk's host loop
    /// variables.
    pub(crate) fn checkpoint(&self, walk: &Walk) -> Checkpoint {
        let snapshot = |(d, part): (usize, &Part)| {
            DeviceSnapshot::capture(self.multi.device_ref(d).mem_ref(), &part.state)
        };
        walk.checkpoint(self.parts.iter().enumerate().map(snapshot).collect())
    }

    /// Rolls every surviving device back to `ckpt` (a lost device's
    /// buffers are never read again, so it is skipped). Simulated time is
    /// not rolled back: faulted work costs wall-clock, as a real relaunch
    /// would.
    pub(crate) fn restore(&mut self, ckpt: &Checkpoint, walk: &mut Walk) {
        for ((d, part), snap) in self.parts.iter_mut().enumerate().zip(&ckpt.devices) {
            if self.multi.is_alive(d) {
                snap.restore(self.multi.device(d).mem(), &mut part.state);
            }
        }
        walk.rewind(ckpt);
    }

    /// Devices this run evicted, in eviction order: a restored layout's
    /// first, then the walk's losses.
    pub(crate) fn evicted(&self, recovery: &RecoveryReport) -> Vec<u32> {
        let ids = self.layout_evicted.iter().chain(&recovery.devices_lost);
        ids.map(|&d| d as u32).collect()
    }

    /// Publishes `ckpt` durably. A degraded fleet checkpoints too: an
    /// evicted device gets an empty image at its last extents and a place
    /// in the eviction ledger, so a fresh process can rebuild the survivor
    /// splices and resume on the shrunken fleet.
    fn persist_checkpoint(&mut self, walk: &mut Walk, ckpt: &Checkpoint) {
        let image = |(d, part): (usize, &Part)| {
            if self.multi.is_alive(d) {
                let mem = self.multi.device_ref(d).mem_ref();
                return DeviceCheckpoint::of(&ckpt.devices[d], &part.state, mem);
            }
            let (td, bu) = (part.state.td_range.clone(), part.state.bu_range.clone());
            DeviceCheckpoint { td, bu, ..DeviceCheckpoint::default() }
        };
        let devices = self.parts.iter().enumerate().map(image).collect();
        let evicted = self.evicted(&walk.recovery);
        self.persist.write(walk, devices, evicted);
    }

    /// Frontier total over surviving devices.
    pub(crate) fn alive_frontier(&self) -> usize {
        self.parts
            .iter()
            .enumerate()
            .filter(|(d, _)| self.multi.is_alive(*d))
            .map(|(_, p)| p.state.total_frontier())
            .sum()
    }

    /// Per-device private *execution* clocks (indexed by device id):
    /// launch overheads, barrier waits and host-charged spans excluded,
    /// so a delta of this clock is pure device-speed signal.
    pub(crate) fn device_clocks(&self) -> Vec<f64> {
        (0..self.parts.len()).map(|d| self.multi.device_ref(d).exec_elapsed_ms()).collect()
    }

    /// Accumulates each device's execution-clock advance since `mark`
    /// into the level telemetry. Must be called *before* the next
    /// barrier so wait time is not attributed to fast devices.
    pub(crate) fn add_level_busy(&mut self, mark: &[f64]) {
        for (d, m) in mark.iter().enumerate().take(self.parts.len()) {
            self.level_busy[d] += self.multi.device_ref(d).exec_elapsed_ms() - m;
        }
    }

    /// This level's telemetry for the imbalance detector: each alive
    /// device's accumulated busy time against its expansion slice length.
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

    /// Runs a routed, checksummed exchange of the level's discoveries:
    /// the wire payload is the union bitmap of vertices at
    /// `newly_level`, and `attempt` performs one faulty transfer (see
    /// [`crate::route::exchange_routed`]).
    pub(crate) fn exchange_routed(
        &mut self,
        level: u32,
        recovery: &mut RecoveryReport,
        attempt: impl FnMut(&mut MultiDevice) -> ExchangeOutcome,
    ) -> Result<(), BfsError> {
        let newly_level = level + 1;
        let mut bitmap = vec![0u8; gpu_sim::ballot_compressed_bytes(self.vertex_count) as usize];
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
            attempt,
        )
    }

    /// Host-side union merge of the level's discoveries (models each
    /// device OR-ing the received bitmaps into its status array); returns
    /// how many vertices were newly visited.
    pub(crate) fn merge_newly(&mut self, newly_level: u32) -> usize {
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

    /// Advances every surviving timeline by the serialized cost of
    /// moving `moved_words`, counts the bytes as interconnect traffic,
    /// and returns the span.
    pub(crate) fn charge_migration(&mut self, moved_words: u64) -> f64 {
        let n = self.vertex_count;
        let span_ms = repartition::repartition_cost_ms(&self.config.interconnect, moved_words, n);
        self.multi.advance_all(span_ms);
        self.multi.count_transfer(repartition::migration_bytes(moved_words, n));
        span_ms
    }

    /// Uploads `view` to device `d` and allocates a fresh state scanning
    /// `td` top-down and `bu` bottom-up, carrying the device's hub census
    /// (a global graph property, unchanged by repartitioning).
    pub(crate) fn upload_part(
        &mut self,
        d: usize,
        view: &PartitionArrays,
        td: Range<usize>,
        bu: Range<usize>,
    ) -> Result<Part, DeviceError> {
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
            td.clone(),
            bu,
        )?;
        state.total_hubs = self.parts[d].state.total_hubs;
        Ok(Part { graph, state, owned: td })
    }

    /// Re-uploads device `d`'s partition as `view` over `(td, bu)` and
    /// splices the traversal state onto it: status and parents as given,
    /// frontier queues rebuilt host-side for `level` from the status
    /// array. The displaced partition goes on the retired stack for
    /// restoration at the next run's start.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn splice_device(
        &mut self,
        d: usize,
        td: Range<usize>,
        bu: Range<usize>,
        view: &PartitionArrays,
        status: &[u32],
        parent: &[u32],
        dir: Direction,
        level: u32,
    ) -> Result<(), BfsError> {
        let mut part = self.upload_part(d, view, td.clone(), bu.clone())?;
        let rebuilt = repartition::rebuild_queues(
            status,
            dir,
            level,
            &td,
            &bu,
            &view.out_offsets,
            &view.in_offsets,
            &self.config.thresholds,
        );
        let n = self.vertex_count;
        let state = &mut part.state;
        let mem = self.multi.device(d).mem();
        mem.upload(state.status, status);
        mem.upload(state.parent, parent);
        for (buf, q) in state.queues.iter().zip(&rebuilt.queues) {
            let mut padded = q.clone();
            padded.resize(n, 0);
            mem.upload(*buf, &padded);
        }
        state.queue_sizes = rebuilt.sizes;
        let old = std::mem::replace(&mut self.parts[d], part);
        self.retired.push((d, old));
        Ok(())
    }

    /// Gathers the run's result: levels from any survivor's merged
    /// status (a lost device's buffers are stale — they missed the
    /// post-loss rollback), parents first-wins across survivors (a lost
    /// device's discoveries were spliced into its recipient at eviction
    /// time).
    fn collect(&self, walk: Walk) -> MultiBfsResult {
        let n = self.vertex_count;
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
        let traversed_edges = self.traversed_edges(&levels);
        let depth = levels.iter().flatten().max().copied().unwrap_or(0);
        let time_ms = self.multi.elapsed_ms();
        let teps = if time_ms > 0.0 { traversed_edges as f64 / (time_ms / 1e3) } else { 0.0 };
        MultiBfsResult {
            source: walk.source,
            levels,
            parents,
            visited,
            traversed_edges,
            time_ms,
            teps,
            depth,
            switched_at: walk.vars.switched_at,
            communication_bytes: self.multi.transferred_bytes(),
            level_trace: walk.trace,
            recovery: walk.recovery,
        }
    }

    /// Graph 500 traversed-edge count: out-degrees of every visited
    /// vertex.
    fn traversed_edges(&self, levels: &[Option<u32>]) -> u64 {
        levels
            .iter()
            .zip(&self.out_degrees)
            .filter(|(l, _)| l.is_some())
            .map(|(_, &d)| d as u64)
            .sum()
    }

    /// Host CPU baseline, the recovery ladder's last rung: a correct
    /// traversal carrying the simulated time, interconnect bytes and
    /// faults already spent, recorded via
    /// [`RecoveryReport::cpu_fallback`].
    ///
    /// # Panics
    /// Panics if `source` is not a vertex of the graph.
    pub(crate) fn cpu_fallback(&self, source: VertexId) -> MultiBfsResult {
        let n = self.vertex_count;
        let mut levels: Vec<Option<u32>> = vec![None; n];
        let mut parents: Vec<Option<VertexId>> = vec![None; n];
        levels[source as usize] = Some(0);
        parents[source as usize] = Some(source);
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(source);
        let mut depth = 0u32;
        while let Some(v) = queue.pop_front() {
            let next = levels[v as usize].expect("queued vertex has a level") + 1;
            for &w in self.csr.out_neighbors(v) {
                if levels[w as usize].is_none() {
                    levels[w as usize] = Some(next);
                    parents[w as usize] = Some(v);
                    depth = depth.max(next);
                    queue.push_back(w);
                }
            }
        }
        let faults = self.multi.fault_stats();
        MultiBfsResult {
            source,
            visited: levels.iter().filter(|l| l.is_some()).count(),
            traversed_edges: self.traversed_edges(&levels),
            levels,
            parents,
            time_ms: self.multi.elapsed_ms(),
            teps: 0.0,
            depth,
            switched_at: None,
            communication_bytes: self.multi.transferred_bytes(),
            level_trace: Vec::new(),
            recovery: RecoveryReport { cpu_fallback: true, faults, ..RecoveryReport::default() },
        }
    }

    /// Swaps a lane's per-device states onto the fleet (and back — the
    /// operation is its own inverse). Devices dead at the lane's
    /// admission hold `None` and keep the fleet's resident state.
    fn swap_lane_states(&mut self, states: &mut [Option<BfsState>]) {
        for (part, st) in self.parts.iter_mut().zip(states) {
            if let Some(st) = st.as_mut() {
                std::mem::swap(&mut part.state, st);
            }
        }
    }

    /// Returns a lane's states to its slot's pool. The simulator never
    /// frees device memory, so pooling is how lane buffers get reused;
    /// a pooled state whose scan ranges no longer match the device's
    /// partition is simply never picked up again.
    fn park_lane_states(&mut self, slot: usize, states: &mut [Option<BfsState>]) {
        let pool = self.lane_pool_slot(slot);
        for (d, st) in states.iter_mut().enumerate() {
            if let Some(st) = st.take() {
                pool[d] = Some(st);
            }
        }
    }

    /// Slot `slot`'s pool, grown to one entry per device.
    fn lane_pool_slot(&mut self, slot: usize) -> &mut Vec<Option<BfsState>> {
        if self.lane_pool.len() <= slot {
            self.lane_pool.resize_with(slot + 1, Vec::new);
        }
        let pool = &mut self.lane_pool[slot];
        if pool.len() < self.parts.len() {
            pool.resize_with(self.parts.len(), || None);
        }
        pool
    }

    /// Opens a pipeline lane in `slot` for `source`: takes (or
    /// allocates) per-device lane states matching each survivor's
    /// current scan ranges, then seeds them exactly as a sequential run
    /// seeds the resident states. Runs inside the fused window with the
    /// lane's slot switched in, so allocation and seeding cost lands on
    /// the lane's stream.
    fn lane_open_inner(
        &mut self,
        source: VertexId,
        slot: usize,
        seed_barrier: bool,
    ) -> Result<FleetLane, BfsError> {
        let walk =
            Walk::open(source, self.vertex_count, true, &self.config.watchdog, &mut self.persist)?;
        let p = self.parts.len();
        let mut states: Vec<Option<BfsState>> = Vec::with_capacity(p);
        for d in 0..p {
            if !self.multi.is_alive(d) {
                states.push(None);
                continue;
            }
            let td = self.parts[d].state.td_range.clone();
            let bu = self.parts[d].state.bu_range.clone();
            let pooled = self.lane_pool_slot(slot)[d]
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
            states.push(Some(st));
        }
        self.swap_lane_states(&mut states);
        self.seed(source, seed_barrier);
        self.swap_lane_states(&mut states);
        Ok(FleetLane { slot, states, walk, bundle: FleetFaultBundle::healthy(p), comm_bytes: 0 })
    }
}

impl<T: Topology> BatchHost for T {
    type Run = MultiBfsResult;

    fn kind(&self) -> DriverKind {
        T::KIND
    }

    fn base_faults(&self) -> Option<FaultSpec> {
        self.fleet().config.faults
    }

    fn set_faults(&mut self, spec: Option<FaultSpec>) {
        self.fleet_mut().config.faults = spec;
    }

    fn set_pinned(&mut self, pinned: bool) {
        let f = self.fleet_mut();
        f.pinned = pinned;
        if !pinned {
            // The fault/isolation eviction split is batch bookkeeping;
            // it must not leak into the next batch's fleet records.
            f.batch_isolated.clear();
        }
    }

    fn run_source(&mut self, source: VertexId) -> Result<MultiBfsResult, BfsError> {
        try_bfs(self, source)
    }

    fn run_time_ms(run: &MultiBfsResult) -> f64 {
        run.time_ms
    }

    fn run_digest(run: &MultiBfsResult) -> u64 {
        crate::batch::result_digest(&run.levels, &run.parents)
    }

    fn elapsed_ms(&self) -> f64 {
        self.fleet().multi.elapsed_ms()
    }

    fn relax_deadlines(&mut self) -> (Option<f64>, Option<f64>) {
        let f = self.fleet_mut();
        let saved = (f.config.watchdog.kernel_deadline_ms, f.config.watchdog.level_deadline_ms);
        f.config.watchdog.kernel_deadline_ms = None;
        f.config.watchdog.level_deadline_ms = None;
        for d in f.multi.devices_mut() {
            d.set_kernel_deadline_ms(None);
        }
        saved
    }

    fn restore_deadlines(&mut self, (kernel, level): (Option<f64>, Option<f64>)) {
        let f = self.fleet_mut();
        f.config.watchdog.kernel_deadline_ms = kernel;
        f.config.watchdog.level_deadline_ms = level;
        for d in f.multi.devices_mut() {
            d.set_kernel_deadline_ms(kernel);
        }
    }

    fn manifest_store(&mut self) -> Option<(&mut SnapshotStore, GraphFingerprint)> {
        self.fleet_mut().persist.manifest_store()
    }

    type Lane = FleetLane;

    fn fleet_epoch(&self) -> u64 {
        self.fleet().fleet_epoch
    }

    fn sweep_begin(&mut self, width: usize) {
        // Restored-layout evictions must land *before* the fused window
        // opens: evicting a device with its window open would leave the
        // window dangling (a dead device never reaches `end_fused`) and
        // panic the next `begin_fused`.
        let f = self.fleet_mut();
        for &d in &f.layout_evicted {
            f.multi.evict(d);
        }
        f.multi.begin_fused(width);
    }

    fn sweep_switch(&mut self, slot: usize) {
        self.fleet_mut().multi.fused_switch(slot);
    }

    fn sweep_end(&mut self, width: usize) -> Vec<f64> {
        let multi = &mut self.fleet_mut().multi;
        let charges = multi.end_fused(width);
        // Lane results carry no kernel records, so the sweep's records
        // are dropped here; otherwise a warm fleet's timeline would grow
        // with every batch it serves.
        multi.discard_records();
        charges
    }

    fn lane_open(
        &mut self,
        source: VertexId,
        slot: usize,
        spec: Option<FaultSpec>,
    ) -> Result<FleetLane, BfsError> {
        let f = self.fleet_mut();
        if let Some(spec) = spec {
            f.multi.install_faults(spec);
        }
        let result = f.lane_open_inner(source, slot, T::SEED_BARRIER);
        // Park the lane's universe (even a refused open's) in a bundle,
        // so sibling slices in the same sweep never draw from it.
        let mut bundle = FleetFaultBundle::healthy(f.parts.len());
        f.multi.swap_fleet_fault_bundle(&mut bundle);
        result.map(|mut lane| {
            lane.bundle = bundle;
            lane
        })
    }

    fn lane_step(&mut self, lane: &mut FleetLane) -> Result<bool, BfsError> {
        let f = self.fleet_mut();
        f.multi.swap_fleet_fault_bundle(&mut lane.bundle);
        f.swap_lane_states(&mut lane.states);
        let bytes0 = f.multi.transferred_bytes();
        let out = step_level(self, &mut lane.walk);
        let f = self.fleet_mut();
        lane.comm_bytes += f.multi.transferred_bytes() - bytes0;
        f.swap_lane_states(&mut lane.states);
        f.multi.swap_fleet_fault_bundle(&mut lane.bundle);
        out
    }

    fn lane_finish(
        &mut self,
        mut lane: FleetLane,
        time_ms: f64,
    ) -> Result<MultiBfsResult, BfsError> {
        // The lane's fault counters live in its parked bundle; the
        // fleet's installed plans belong to whoever ran last.
        lane.walk.recovery.faults = lane.bundle.stats();
        let source = lane.walk.source;
        self.fleet_mut().swap_lane_states(&mut lane.states);
        persist_finish(self, &mut lane.walk.recovery);
        let mut result = self.fleet().collect(lane.walk);
        let f = self.fleet_mut();
        f.swap_lane_states(&mut lane.states);
        f.park_lane_states(lane.slot, &mut lane.states);
        // The run's time is its lane stream's serial charge, not the
        // fleet clock (which advanced by the overlapped sweep spans);
        // likewise its traffic is what its own levels moved, not the
        // fleet's cumulative total.
        result.time_ms = time_ms;
        result.communication_bytes = lane.comm_bytes;
        result.teps =
            if time_ms > 0.0 { result.traversed_edges as f64 / (time_ms / 1e3) } else { 0.0 };
        if f.config.verify.end_of_run {
            // A dirty audit demotes the source to the de-pipelined
            // ladder (the sequential engine's full replay) instead of
            // replaying inside the lane.
            if let Err(e) = audit(&f.csr, source, &result.levels, &result.parents) {
                return Err(BfsError::ValidationFailedAfterReplay(e));
            }
        }
        Ok(result)
    }

    fn lane_abort(&mut self, mut lane: FleetLane) {
        self.fleet_mut().park_lane_states(lane.slot, &mut lane.states);
    }

    fn capture_fleet(&mut self) -> Option<FleetRecord> {
        self.fleet_record()
    }

    fn restore_fleet(&mut self, rec: &FleetRecord) -> bool {
        self.adopt_fleet_record(rec)
    }
}
