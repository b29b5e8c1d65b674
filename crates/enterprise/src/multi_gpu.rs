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
use crate::fleet::{
    DeviceVerifyInfo, Fleet, FleetWalk, MultiCheckpoint, MultiLoopVars, Part, Topology,
};
use crate::frontier::{measure_total_hubs, try_generate_queues, GenWorkflow};
use crate::kernels::{try_expand_level, Direction};
use crate::persist::{
    load_checkpoint_chain, truncate_queues, CheckpointSnapshot, CheckpointWriter,
    DeviceCheckpoint, DriverKind, FleetRecord, LayoutSnapshot, PersistError, PersistPolicy,
    CHECKPOINT_FILE, DELTA_FILE,
};
use crate::rebalance::{self, RebalancePolicy};
use crate::repartition::{self, PartitionArrays};
use crate::state::BfsState;
use crate::validate::VerifyPolicy;
use crate::watchdog::WatchdogPolicy;
use enterprise_graph::{Csr, VertexId};
use gpu_sim::{
    ballot_compressed_bytes, payload_checksum, DeviceConfig, EccMode, ExchangeFault, FaultSpec,
    InterconnectConfig, MultiDevice,
};
use std::ops::Range;

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
    fleet: Fleet,
    /// Keyframe + delta checkpoint publisher.
    ckpt_writer: CheckpointWriter,
}

impl Topology for MultiGpuEnterprise {
    const KIND: DriverKind = DriverKind::OneD;
    const SEED_BARRIER: bool = true;

    fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    fn fleet_mut(&mut self) -> &mut Fleet {
        &mut self.fleet
    }

    /// 1-D partition view: the device scans its owned slice in both
    /// directions.
    fn view(csr: &Csr, info: &DeviceVerifyInfo) -> PartitionArrays {
        repartition::build_1d(csr, &info.td_range)
    }

    /// One global level: private expansion, bitmap exchange + merge,
    /// private queue generation, direction decision, trace record.
    fn level_pass(&mut self, walk: &mut FleetWalk) -> Result<bool, BfsError> {
        let f = &mut self.fleet;
        let (level, vars) = (walk.level, &mut walk.vars);
        let n = f.vertex_count;
        let hc = f.config.hub_cache;
        let policy = f.config.policy;
        let total_hubs = f.parts[0].state.total_hubs;
        let dir = vars.dir;

        // (1) Private expansion (survivors only). Expansion time follows
        // the frontier, which wanders between slices level to level, so
        // it is deliberately *not* part of the straggler telemetry — the
        // slice-proportional queue-generation phase below is.
        let t0 = f.multi.elapsed_ms();
        for (d, part) in f.parts.iter().enumerate() {
            if !f.multi.is_alive(d) {
                continue;
            }
            try_expand_level(
                f.multi.device(d),
                &part.graph,
                &part.state,
                level,
                dir,
                true,
                hc && vars.cache_filled,
            )?;
        }
        // (2) Every device broadcasts its just-visited bitmap; the union
        // is merged into every private status array. The transfer cost
        // is `ballot_compressed_bytes(n)` per device (§4.4's 90%
        // reduction). Under fault injection the broadcast carries a
        // checksum: a dropped exchange (detected by timeout) or a
        // corrupted one (detected by checksum mismatch on the received
        // copy) is retried with exponential backoff, bounded by
        // [`RecoveryPolicy::max_exchange_retries`]. With the routing
        // ladder armed ([`MultiGpuConfig::route`]), dead links
        // additionally climb probe → relay → host bounce (see
        // [`crate::route`]).
        if f.multi.alive_count() > 1 {
            let bytes = ballot_compressed_bytes(n);
            if f.config.faults.is_none() {
                // Fault-free substrate: the plain exchange, bit-identical
                // in time and counters to the pre-fault-plane driver.
                f.multi.exchange(bytes);
            } else {
                f.exchange_routed(level, &mut walk.recovery, |m| m.exchange_with_faults(bytes))?;
            }
        }
        f.merge_newly(level + 1);
        let expand_ms = f.multi.elapsed_ms() - t0;

        // (3) Private queue generation over owned ranges. The
        // execution-clock delta around this phase is the straggler
        // telemetry: the scan is O(owned slice) with identical per-vertex
        // cost on every healthy device, so the per-item busy ratio is a
        // direct read of relative device speed.
        let t1 = f.multi.elapsed_ms();
        f.level_busy.iter_mut().for_each(|b| *b = 0.0);
        let gen_mark = f.device_clocks();
        let prev_total: usize = f.alive_frontier();
        let mut hub_frontiers = 0u64;
        let mut sizes = [0usize; 4];
        let mut fills = 0usize;
        for (d, part) in f.parts.iter_mut().enumerate() {
            if !f.multi.is_alive(d) {
                continue;
            }
            let wf = match dir {
                Direction::TopDown => GenWorkflow::TopDown { frontier_level: level + 1 },
                Direction::BottomUp => GenWorkflow::Filter { newly_level: level + 1 },
            };
            let r = try_generate_queues(
                f.multi.device(d),
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
        f.add_level_busy(&gen_mark);
        f.multi.barrier();

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
                let switch_mark = f.device_clocks();
                for (d, part) in f.parts.iter_mut().enumerate() {
                    if !f.multi.is_alive(d) {
                        continue;
                    }
                    let r = try_generate_queues(
                        f.multi.device(d),
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
                f.add_level_busy(&switch_mark);
                f.multi.barrier();
            }
        }
        let queue_gen_ms = f.multi.elapsed_ms() - t1;
        vars.cache_filled = fills > 0;

        walk.trace.push(LevelRecord {
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
        walk.vars.dir = next_dir;
        Ok(done)
    }

    /// Evicts `lost` and splices its 1-D slice onto the surviving device
    /// with the adjacent owned range: the survivors roll back to the
    /// level checkpoint, the recipient re-uploads the merged CSR view and
    /// receives the lost device's checkpointed parents plus host-rebuilt
    /// frontier queues, and the caller replays the level on `N - 1` GPUs.
    fn handle_loss(
        &mut self,
        lost: usize,
        ckpt: &MultiCheckpoint,
        walk: &mut FleetWalk,
    ) -> Result<(), BfsError> {
        let f = &mut self.fleet;
        let level = walk.level;
        let min_survivors = f.config.recovery.min_surviving_devices.max(1);
        if f.multi.alive_count() <= min_survivors {
            let lost = walk.recovery.devices_lost.len() as u32 + 1;
            return Err(BfsError::AllDevicesLost { level, lost });
        }
        f.multi.evict(lost);
        f.restore(ckpt, walk);

        let lost_range = f.parts[lost].owned.clone();
        let alive: Vec<(usize, Range<usize>)> =
            f.multi.alive_ids().into_iter().map(|d| (d, f.parts[d].owned.clone())).collect();
        let recipient = repartition::choose_recipient_1d(&alive, &lost_range)
            .expect("1-D owned ranges tile the vertex range, so a neighbor survives");
        let merged = repartition::union_range(&f.parts[recipient].owned, &lost_range);

        // Charge the simulated cost of moving the lost slice's CSR view
        // to the recipient (plus one status bitmap) to every survivor.
        let moved = repartition::build_1d(&f.csr, &lost_range).moved_words();
        walk.recovery.repartition_ms += f.charge_migration(moved);

        // Splice: the recipient's checkpointed status already equals the
        // merged global view; parents it never discovered come from the
        // lost device's checkpoint snapshot.
        let view = repartition::build_1d(&f.csr, &merged);
        let status = &ckpt.devices[recipient].status;
        let mut parent = ckpt.devices[recipient].parent.clone();
        repartition::merge_parents(&mut parent, &ckpt.devices[lost].parent);
        let dir = walk.vars.dir;
        f.splice_device(recipient, merged.clone(), merged, &view, status, &parent, dir, level)?;
        walk.recovery.devices_lost.push(lost);
        walk.recovery.levels_replayed += 1;
        f.fleet_epoch += 1;
        Ok(())
    }

    /// Shifts the 1-D partition boundaries so slice lengths are
    /// proportional to `weights`, splicing the current traversal state
    /// onto the new layout with the same machinery that absorbs a device
    /// loss:
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
    fn rebalance(
        &mut self,
        weights: &[(usize, f64)],
        rebuild_level: u32,
        dir: Direction,
        recovery: &mut RecoveryReport,
    ) -> Result<(), BfsError> {
        if weights.len() < 2 {
            return Ok(());
        }
        let f = &mut self.fleet;
        let n = f.vertex_count;
        // Slices are assigned in current boundary order so every device
        // keeps a contiguous range and the ranges keep tiling [0, n).
        let mut order: Vec<(usize, f64)> = weights.to_vec();
        order.sort_by_key(|&(d, _)| f.parts[d].owned.start);
        let w: Vec<f64> = order.iter().map(|&(_, w)| w).collect();
        let slices = if f.config.rebalance.edge_balanced {
            repartition::weighted_slices_by_degree(&f.out_degrees, &w)
        } else {
            rebalance::weighted_slices(n, &w)
        };

        // Any alive device's status is the merged global view.
        let d0 = f.multi.alive_ids()[0];
        let status = f.multi.device_ref(d0).mem_ref().view(f.parts[d0].state.status).to_vec();

        // Interconnect charge: only the vertices that change owners move,
        // priced as compacted CSR deltas (adjacency plus narrow offsets).
        // Each gained range is split by its previous owner, so every
        // piece names the two links it crosses.
        let mut moves = Vec::new();
        for (&(d, _), new_range) in order.iter().zip(&slices) {
            for &(from, _) in order.iter().filter(|&&(from, _)| from != d) {
                let old = &f.parts[from].owned;
                let gained = new_range.start.max(old.start)..new_range.end.min(old.end);
                if !gained.is_empty() {
                    let words = repartition::delta_words(&f.csr, &gained);
                    moves.push(repartition::SliceMove { from, to: d, words });
                }
            }
        }

        // The splice retires each displaced partition, but the new
        // boundaries outlive this run: drop what it retired, even when a
        // later splice fails.
        let mark = f.retired.len();
        let mut spliced = Ok(());
        let mut moved_any = false;
        for (&(d, _), new_range) in order.iter().zip(&slices) {
            if f.parts[d].owned == *new_range {
                continue;
            }
            moved_any = true;
            let view = repartition::build_1d(&f.csr, new_range);
            let parent = f.multi.device_ref(d).mem_ref().view(f.parts[d].state.parent).to_vec();
            let (td, bu) = (new_range.clone(), new_range.clone());
            spliced = f.splice_device(d, td, bu, &view, &status, &parent, dir, rebuild_level);
            if spliced.is_err() {
                break;
            }
        }
        f.retired.truncate(mark);
        spliced?;
        if moved_any {
            f.fleet_epoch += 1;
        }
        // The moves run concurrently and each link serializes only its
        // own traffic, so the busiest link sets the span; every moved
        // word still counts as wire traffic.
        let span_ms = repartition::migration_cost_ms(&f.config.interconnect, &moves, n);
        f.multi.advance_all(span_ms);
        let words = moves.iter().map(|m| m.words).sum();
        f.multi.count_transfer(repartition::migration_bytes(words, n));
        recovery.rebalance_ms += span_ms;
        Ok(())
    }

    fn try_resume(&mut self, walk: &mut FleetWalk) -> Option<u32> {
        let f = &mut self.fleet;
        let recovery = &mut walk.recovery;
        let fp = *f.fingerprint.as_ref()?;
        let store = f.store.as_mut()?;
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
        if snap.source != walk.source {
            recovery.snapshot_errors.push(PersistError::SourceMismatch);
            return None;
        }
        let n = f.vertex_count;
        if snap.kind != DriverKind::OneD
            || snap.devices.len() != f.parts.len()
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
            let compatible = snap.devices.iter().zip(&f.parts).all(|(dev, part)| {
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
        } else if !degraded_resume(f, &snap, recovery) {
            // The interrupted run had already evicted devices; the
            // survivors were rebuilt to the checkpoint's spliced extents
            // (or, on a typed defect, nothing was committed and the
            // caller cold-starts on the full fleet).
            return None;
        }
        for (d, (dev, part)) in snap.devices.iter().zip(&mut f.parts).enumerate() {
            if !f.multi.is_alive(d) {
                continue;
            }
            let mem = f.multi.device(d).mem();
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
        walk.vars = MultiLoopVars {
            dir: if snap.dir_bottom_up { Direction::BottomUp } else { Direction::TopDown },
            switched_at: snap.switched_at,
            cache_filled: snap.cache_filled,
        };
        walk.recovery.resumed_at_level = Some(snap.level);
        Some(snap.level)
    }

    /// Publishes a durable mid-traversal checkpoint at the configured
    /// level cadence. A degraded fleet checkpoints too: evicted devices
    /// are listed in the snapshot's eviction ledger with empty images, so
    /// a fresh process can rebuild the survivor splices and resume on the
    /// shrunken fleet. Failures are absorbed. Steady-state checkpoints go
    /// out as sparse deltas against the last keyframe (see
    /// [`CheckpointWriter`]).
    fn maybe_persist_checkpoint(&mut self, walk: &mut FleetWalk, ckpt: &MultiCheckpoint) {
        let f = &mut self.fleet;
        let level = walk.level;
        let every = match f.config.persist.as_ref().and_then(|p| p.checkpoint_levels) {
            Some(e) => e,
            None => return,
        };
        if level == 0 || level % every != 0 {
            return;
        }
        let (Some(fp), Some(store)) = (f.fingerprint, f.store.as_mut()) else {
            return;
        };
        let devices = f
            .parts
            .iter()
            .enumerate()
            .map(|(d, part)| {
                if !f.multi.is_alive(d) {
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
                    hub_src: f.multi.device_ref(d).mem_ref().view(part.state.hub_src).to_vec(),
                }
            })
            .collect();
        let evicted: Vec<u32> = f
            .layout_evicted
            .iter()
            .chain(walk.recovery.devices_lost.iter())
            .map(|&d| d as u32)
            .collect();
        let snap = CheckpointSnapshot {
            kind: DriverKind::OneD,
            fingerprint: fp,
            source: walk.source,
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
        match self.ckpt_writer.persist(store, &snap) {
            Ok(()) => walk.recovery.snapshots_persisted += 1,
            Err(e) => walk.recovery.snapshot_errors.push(e),
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
        let f = &mut self.fleet;
        let (Some(fp), Some(store)) = (f.fingerprint, f.store.as_mut()) else {
            return;
        };
        let degraded = f.multi.alive_count() != f.parts.len();
        let mut slices: Vec<(Range<usize>, Range<usize>)> =
            f.parts.iter().map(|p| (p.owned.clone(), p.owned.clone())).collect();
        let evicted: Vec<u32> = if degraded {
            f.layout_evicted.iter().chain(recovery.devices_lost.iter()).map(|&d| d as u32).collect()
        } else {
            for (d, part) in f.retired.iter().rev() {
                slices[*d] = (part.owned.clone(), part.owned.clone());
            }
            Vec::new()
        };
        let layout = LayoutSnapshot {
            kind: DriverKind::OneD,
            fingerprint: fp,
            hub_tau: f.tau,
            total_hubs: f.parts[0].state.total_hubs,
            grid: (1, f.parts.len() as u32),
            collapsed: false,
            slices,
            evicted,
        };
        // Evicted entries are stale; only the live boundaries must tile.
        let alive_slices: Vec<_> = layout
            .slices
            .iter()
            .enumerate()
            .filter(|(d, _)| f.multi.is_alive(*d))
            .map(|(_, s)| s.clone())
            .collect();
        if slices_tile_1d(&alive_slices, f.vertex_count) {
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

    fn fleet_record(&mut self) -> Option<FleetRecord> {
        let f = &self.fleet;
        let p = f.parts.len();
        let dead: Vec<usize> = (0..p).filter(|&d| !f.multi.is_alive(d)).collect();
        let verdicts = f.link_verdicts.pairs();
        if dead.is_empty() && verdicts.is_empty() {
            // Pure boundary drift (rebalance without loss) persists via
            // the layout-snapshot channel; no fleet record needed.
            return None;
        }
        // Fault-plane losses first, link-isolated evictions last: the
        // counts split the id list exactly on restore.
        let isolated: Vec<u32> =
            dead.iter().filter(|d| f.batch_isolated.contains(d)).map(|&d| d as u32).collect();
        let fault: Vec<u32> =
            dead.iter().filter(|d| !f.batch_isolated.contains(d)).map(|&d| d as u32).collect();
        let boundaries = f.parts.iter().map(|p| (p.owned.clone(), p.owned.clone())).collect();
        Some(FleetRecord {
            fault_lost: fault.len() as u32,
            link_isolated: isolated.len() as u32,
            evicted: fault.into_iter().chain(isolated).collect(),
            boundaries,
            verdicts,
        })
    }

    fn adopt_fleet_record(&mut self, rec: &FleetRecord) -> bool {
        let f = &mut self.fleet;
        let n = f.vertex_count;
        let p = f.parts.len();
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
        let mut rebuilt: Vec<(usize, Part)> = Vec::new();
        for (d, (td, _bu)) in rec.boundaries.iter().enumerate() {
            if dead[d] || *td == f.parts[d].owned {
                continue;
            }
            let view = repartition::build_1d(&f.csr, td);
            match f.upload_part(d, &view, td.clone(), td.clone()) {
                Ok(part) => rebuilt.push((d, part)),
                Err(_) => return false,
            }
        }
        // Commit. The displaced cold partitions are retired so the next
        // *unpinned* run of this instance restores the original layout.
        for &d in &rec.evicted {
            let d = d as usize;
            if f.multi.is_alive(d) {
                f.multi.evict(d);
            }
        }
        for (d, part) in rebuilt {
            let old = std::mem::replace(&mut f.parts[d], part);
            f.retired.push((d, old));
        }
        f.link_verdicts.restore(&rec.verdicts);
        f.batch_isolated.clear();
        let iso_start = rec.evicted.len() - rec.link_isolated as usize;
        for &d in &rec.evicted[iso_start..] {
            f.batch_isolated.insert(d as usize);
        }
        f.fleet_epoch += 1;
        true
    }
}

/// Rebuilds the fleet's partitions to match a *degraded-fleet* checkpoint
/// (one whose `evicted` ledger is non-empty because a kill interrupted a
/// run after device evictions): every survivor whose spliced extent
/// differs from the cold layout re-uploads its merged CSR view, the
/// recorded devices are evicted — inherited losses count toward this
/// run's eviction ledger — and the displaced cold partitions are retired
/// so the *next* run of this instance starts from the original layout
/// again. All fallible work happens before anything is committed; on a
/// typed defect this returns `false` with the fleet untouched and the
/// caller cold-starts.
fn degraded_resume(
    f: &mut Fleet,
    snap: &CheckpointSnapshot,
    recovery: &mut RecoveryReport,
) -> bool {
    let n = f.vertex_count;
    let p = f.parts.len();
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
    // Survivor images must be full-size and their extents must tile the
    // vertex range by themselves (evicted entries are stale).
    let survivors: Vec<(usize, &DeviceCheckpoint)> =
        snap.devices.iter().enumerate().filter(|(d, _)| !dead[*d]).collect();
    let shape_ok = survivors.iter().all(|(d, dev)| {
        dev.td == dev.bu
            && dev.status.len() == n
            && dev.parent.len() == n
            && dev.hub_src.len() == f.parts[*d].state.hub_cache_entries
            && dev.queues.iter().all(|q| q.len() <= n)
    });
    let slices: Vec<_> =
        survivors.iter().map(|(_, dev)| (dev.td.clone(), dev.td.clone())).collect();
    if !shape_ok || !slices_tile_1d(&slices, n) {
        recovery.snapshot_errors.push(PersistError::LayoutMismatch);
        return false;
    }
    // Rebuild (fallibly) every survivor whose extent moved.
    let mut rebuilt: Vec<(usize, Part)> = Vec::new();
    for &(d, dev) in &survivors {
        if dev.td == f.parts[d].owned {
            continue;
        }
        let view = repartition::build_1d(&f.csr, &dev.td);
        match f.upload_part(d, &view, dev.td.clone(), dev.td.clone()) {
            Ok(part) => rebuilt.push((d, part)),
            Err(e) => {
                recovery.snapshot_errors.push(PersistError::Io(e.to_string()));
                return false;
            }
        }
    }
    // Commit.
    for &d in &snap.evicted {
        let d = d as usize;
        if f.multi.is_alive(d) {
            f.multi.evict(d);
            recovery.devices_lost.push(d);
        }
    }
    for (d, part) in rebuilt {
        let old = std::mem::replace(&mut f.parts[d], part);
        f.retired.push((d, old));
    }
    f.fleet_epoch += 1;
    true
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
        let mut fleet = Fleet::open(config, csr);
        let tau = fleet.tau;

        // Crash-consistent persistence: a valid layout snapshot for this
        // exact graph/configuration restores the boundaries a previous
        // process converged to (rebalanced slices) and the hub census,
        // skipping hub measurement. Defects degrade to a cold start.
        let restored = fleet.load_layout(|snap| {
            // A degraded-fleet layout records evicted devices; the
            // *surviving* slices must tile the vertex range by themselves
            // (evicted entries are stale).
            let alive_slices: Vec<_> = snap
                .slices
                .iter()
                .enumerate()
                .filter(|(d, _)| !snap.evicted.contains(&(*d as u32)))
                .map(|(_, s)| s.clone())
                .collect();
            snap.kind == DriverKind::OneD
                && snap.hub_tau == tau
                && snap.grid == (1, p as u32)
                && snap.slices.len() == p
                && snap.evicted.len() < p
                && slices_tile_1d(&alive_slices, n)
        });
        fleet.warm_restart = restored.is_some();
        if let Some(snap) = &restored {
            fleet.layout_evicted = snap.evicted.iter().map(|&d| d as usize).collect();
        }

        for d in 0..p {
            let owned = match &restored {
                Some(snap) => snap.slices[d].0.clone(),
                None => (d * n / p)..((d + 1) * n / p),
            };
            let device = fleet.multi.device(d);
            let graph = upload_partition(device, csr, owned.clone());
            let state = BfsState::new_partitioned(
                device,
                &graph,
                fleet.config.thresholds,
                fleet.config.hub_cache_entries,
                tau,
                owned.clone(),
            );
            fleet.parts.push(Part { graph, state, owned });
        }
        // T_h is a graph property: measure per-device hub counts once at
        // setup and share the global sum (a scalar all-reduce). A warm
        // restart reuses the persisted census instead.
        let total_hubs = match &restored {
            Some(snap) => snap.total_hubs,
            None => {
                let mut total = 0u64;
                for (d, part) in fleet.parts.iter_mut().enumerate() {
                    measure_total_hubs(fleet.multi.device(d), &part.graph, &mut part.state);
                    total += part.state.total_hubs;
                }
                total
            }
        };
        for part in &mut fleet.parts {
            part.state.total_hubs = total_hubs;
        }
        Self { fleet, ckpt_writer: CheckpointWriter::new() }
    }

    /// Number of devices.
    pub fn gpu_count(&self) -> usize {
        self.fleet.config.gpu_count
    }

    /// Devices still alive (not evicted by the current/last run).
    pub fn alive_devices(&self) -> usize {
        self.fleet.multi.alive_count()
    }

    /// Caps every device's in-driver relaunch budget for faulted kernels
    /// (`0` escalates every injected kernel fault to a level replay).
    pub fn set_launch_retries(&mut self, retries: u32) {
        self.fleet.set_launch_retries(retries);
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
        self.fleet.multi.elapsed_ms()
    }

    /// Runs one BFS from `source` across all devices, degrading through
    /// the full recovery ladder: in-driver relaunch, level replay,
    /// exchange retry, device eviction + repartitioning, and finally the
    /// host CPU baseline when the typed-error budget is exhausted (the
    /// fallback is recorded in [`RecoveryReport::cpu_fallback`]).
    ///
    /// # Panics
    /// Panics if `source` is not a vertex of the graph.
    pub fn bfs(&mut self, source: VertexId) -> MultiBfsResult {
        match self.try_bfs(source) {
            Ok(r) => r,
            Err(_) => self.fleet.cpu_fallback(source),
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
        crate::fleet::try_bfs(self, source)
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
            let multi = &sys.fleet.multi;
            (0..multi.count()).map(|d| multi.device_ref(d).records().len()).collect()
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
