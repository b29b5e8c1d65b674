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

use crate::bfs::{Checkpoint, LevelRecord, Walk};
use crate::classify::ClassifyThresholds;
use crate::device_graph::DeviceGraph;
use crate::direction::{DirectionPolicy, SwitchDecision, SwitchSignals};
use crate::error::{BfsError, RecoveryPolicy, RecoveryReport};
use crate::fleet::{DeviceVerifyInfo, Fleet, Part, Topology};
use crate::frontier::{measure_total_hubs, try_generate_queues, GenWorkflow};
use crate::kernels::{try_expand_level, Direction};
use crate::multi_gpu::{slices_tile_1d, MultiBfsResult, MultiGpuConfig};
use crate::persist::{DriverKind, GraphFingerprint, LayoutSnapshot, PersistPolicy};
use crate::rebalance::{self, RebalancePolicy};
use crate::repartition::{self, PartitionArrays};
use crate::state::BfsState;
use crate::validate::VerifyPolicy;
use crate::watchdog::WatchdogPolicy;
use enterprise_graph::{Csr, VertexId};
use gpu_sim::{ballot_compressed_bytes, DeviceConfig, EccMode, FaultSpec, InterconnectConfig};
use std::ops::Range;

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

/// A 2-D partitioned Enterprise system.
pub struct MultiGpu2DEnterprise {
    /// The grid's devices, row-major: index = `i * cols + j`.
    fleet: Fleet,
    rows: usize,
    cols: usize,
    /// Whether the grid has collapsed to rebalanced 1-D slices (set by a
    /// straggler rebalance, which outlives the run, or restored from a
    /// persisted collapsed layout).
    collapsed: bool,
}

/// The grid's fleet settings. 1-D partitioning is the `p x 1` case of
/// 2-D, so a grid is a fleet of `rows * cols` devices — one that never
/// uses the hub cache, since a device's out-degree view covers only its
/// column block.
fn fleet_config(config: Grid2DConfig) -> MultiGpuConfig {
    MultiGpuConfig {
        gpu_count: config.rows * config.cols,
        device: config.device,
        interconnect: config.interconnect,
        thresholds: config.thresholds,
        hub_cache_entries: config.hub_cache_entries,
        hub_cache: false,
        policy: config.policy,
        faults: config.faults,
        recovery: config.recovery,
        sanitize: config.sanitize,
        watchdog: config.watchdog,
        verify: config.verify,
        ecc: config.ecc,
        scrub_levels: config.scrub_levels,
        rebalance: config.rebalance,
        persist: config.persist,
        route: config.route,
    }
}

impl Topology for MultiGpu2DEnterprise {
    const KIND: DriverKind = DriverKind::TwoD;
    const SEED_BARRIER: bool = false;

    fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    fn fleet_mut(&mut self) -> &mut Fleet {
        &mut self.fleet
    }

    /// 2-D block view: out-view over the device's column block
    /// restricted to its row block, in-view transposed.
    fn view(csr: &Csr, info: &DeviceVerifyInfo) -> PartitionArrays {
        repartition::build_2d(csr, &info.bu_range, &info.td_range)
    }

    /// One global level of the 2-D traversal. Returns `Ok(true)` when the
    /// search has terminated.
    fn level_pass(&mut self, walk: &mut Walk) -> Result<bool, BfsError> {
        let (r, c) = (self.rows, self.cols);
        let f = &mut self.fleet;
        let (level, vars) = (walk.level, &mut walk.vars);
        let n = f.vertex_count;
        let policy = f.config.policy;
        let total_hubs = f.parts[0].state.total_hubs;
        let dir = vars.dir;

        // Expansion is deliberately *not* straggler telemetry: it
        // follows the frontier, which wanders between column blocks from
        // level to level, so its skew reads graph shape, not device
        // speed. The queue-generation scan below is slice-proportional
        // and is what the detector consumes.
        let t0 = f.multi.elapsed_ms();
        for (d, part) in f.parts.iter().enumerate() {
            if !f.multi.is_alive(d) {
                continue;
            }
            try_expand_level(f.multi.device(d), &part.graph, &part.state, level, dir, true, false)?;
        }
        // Row-merge + column-share of the freshly visited bits. The wire
        // cost keeps the configured grid shape even after an eviction
        // shrinks it — a conservative (over-charging) simplification of
        // the degraded communication pattern.
        let wire_bits = (c - 1 + r - 1) as u64 * ballot_compressed_bytes(n.div_ceil(r));
        if f.config.faults.is_none() {
            // Fault-free substrate: bit-identical to the pre-fault-plane
            // driver.
            f.multi.exchange_serialized(wire_bits);
        } else {
            // The logical wire content is the union bitmap of newly
            // visited vertices; checksummed, retried on drop/corruption.
            f.exchange_routed(level, &mut walk.recovery, |m| {
                m.exchange_serialized_with_faults(wire_bits)
            })?;
        }
        let newly = f.merge_newly(level + 1);
        let expand_ms = f.multi.elapsed_ms() - t0;

        let t1 = f.multi.elapsed_ms();
        // Straggler telemetry window: the queue-generation scan walks
        // each device's owned slice, so per-device exec time here is
        // directly proportional to slice length — a clean read of
        // relative device speed.
        f.level_busy.iter_mut().for_each(|b| *b = 0.0);
        let gen_mark = f.device_clocks();
        let mut hub_frontiers = 0u64;
        let mut sizes = [0usize; 4];
        for (d, part) in f.parts.iter_mut().enumerate() {
            if !f.multi.is_alive(d) {
                continue;
            }
            let wf = match dir {
                Direction::TopDown => GenWorkflow::TopDown { frontier_level: level + 1 },
                Direction::BottomUp => GenWorkflow::Filter { newly_level: level + 1 },
            };
            let res =
                try_generate_queues(f.multi.device(d), &part.graph, &mut part.state, wf, false)?;
            hub_frontiers += res.hub_frontiers;
            for (size, part_size) in sizes.iter_mut().zip(res.sizes) {
                *size += part_size;
            }
        }
        f.add_level_busy(&gen_mark);
        f.multi.barrier();

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
                let switch_mark = f.device_clocks();
                for (d, part) in f.parts.iter_mut().enumerate() {
                    if !f.multi.is_alive(d) {
                        continue;
                    }
                    let res = try_generate_queues(
                        f.multi.device(d),
                        &part.graph,
                        &mut part.state,
                        GenWorkflow::Switch { newly_level: level + 1 },
                        false,
                    )?;
                    for (size, part_size) in sizes.iter_mut().zip(res.sizes) {
                        *size += part_size;
                    }
                }
                f.add_level_busy(&switch_mark);
                f.multi.barrier();
            }
        }
        let queue_gen_ms = f.multi.elapsed_ms() - t1;

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
    fn handle_loss(
        &mut self,
        lost: usize,
        ckpt: &Checkpoint,
        walk: &mut Walk,
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
        let dir = walk.vars.dir;
        let recovery = &mut walk.recovery;

        let lost_rows = f.parts[lost].state.bu_range.clone();
        let lost_cols = f.parts[lost].owned.clone();
        let alive = f.multi.alive_ids();
        let same_row = alive.iter().copied().find(|&d| {
            f.parts[d].state.bu_range == lost_rows
                && repartition::adjacent(&f.parts[d].owned, &lost_cols)
        });
        let same_col = alive.iter().copied().find(|&d| {
            f.parts[d].owned == lost_cols
                && repartition::adjacent(&f.parts[d].state.bu_range, &lost_rows)
        });
        let absorb = match (same_row, same_col) {
            (Some(rcv), _) => {
                let cols = repartition::union_range(&f.parts[rcv].owned, &lost_cols);
                Some((rcv, lost_rows.clone(), cols))
            }
            (None, Some(rcv)) => {
                let rows = repartition::union_range(&f.parts[rcv].state.bu_range, &lost_rows);
                Some((rcv, rows, lost_cols.clone()))
            }
            (None, None) => None,
        };

        if let Some((rcv, rows, cols)) = absorb {
            // Rules 1 and 2: only the lost block moves.
            let moved = repartition::build_2d(&f.csr, &lost_rows, &lost_cols).moved_words();
            recovery.repartition_ms += f.charge_migration(moved);
            let view = repartition::build_2d(&f.csr, &rows, &cols);
            let status = &ckpt.devices[rcv].status;
            let mut parent = ckpt.devices[rcv].parent.clone();
            repartition::merge_parents(&mut parent, &ckpt.devices[lost].parent);
            f.splice_device(rcv, cols, rows, &view, status, &parent, dir, level)?;
        } else {
            // Rule 3: every survivor is re-laid-out, so the whole graph
            // moves once across the interconnect.
            let p = alive.len();
            let n = f.vertex_count;
            let views: Vec<(usize, Range<usize>, PartitionArrays)> = alive
                .iter()
                .enumerate()
                .map(|(k, &d)| {
                    let slice = (k * n / p)..((k + 1) * n / p);
                    let view = repartition::build_1d(&f.csr, &slice);
                    (d, slice, view)
                })
                .collect();
            let moved: u64 = views.iter().map(|(_, _, v)| v.moved_words()).sum();
            recovery.repartition_ms += f.charge_migration(moved);
            for (k, (d, slice, view)) in views.iter().enumerate() {
                let status = &ckpt.devices[*d].status;
                let mut parent = ckpt.devices[*d].parent.clone();
                // The lost device's discoveries survive on exactly one
                // recipient (collect() takes the first recorded parent).
                if k == 0 {
                    repartition::merge_parents(&mut parent, &ckpt.devices[lost].parent);
                }
                let s = slice.clone();
                f.splice_device(*d, s.clone(), s, view, status, &parent, dir, level)?;
            }
        }
        recovery.devices_lost.push(lost);
        recovery.levels_replayed += 1;
        f.fleet_epoch += 1;
        Ok(())
    }

    /// Straggler mitigation for the grid: collapse every alive device to
    /// a contiguous 1-D slice whose length is proportional to its
    /// measured throughput (`weights`), via the same splice machinery
    /// rule 3 of [`handle_loss`](Topology::handle_loss) uses. Each
    /// device keeps its *own* parent array (it stays alive), the merged
    /// status is re-uploaded as-is, and queues are rebuilt for
    /// `rebuild_level` over the new slices. The whole layout moves once
    /// across the interconnect, charged to
    /// [`RecoveryReport::rebalance_ms`].
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
        // Stable layout order: current column block, then row position.
        let mut order: Vec<(usize, f64)> = weights.to_vec();
        order.sort_by_key(|&(d, _)| (f.parts[d].owned.start, d));
        let w: Vec<f64> = order.iter().map(|&(_, w)| w).collect();
        let slices = if f.config.rebalance.edge_balanced {
            repartition::weighted_slices_by_degree(&f.out_degrees, &w)
        } else {
            rebalance::weighted_slices(n, &w)
        };

        // Any alive device's status is the merged global view.
        let d0 = f.multi.alive_ids()[0];
        let status = f.multi.device_ref(d0).mem_ref().view(f.parts[d0].state.status).to_vec();

        let views: Vec<PartitionArrays> =
            slices.iter().map(|s| repartition::build_1d(&f.csr, s)).collect();
        // Serialized, not per-link: every device receives a whole new
        // view gathered from the old block owners, so one charge covers
        // the fleet-wide volume.
        let moved: u64 = views.iter().map(|v| v.moved_words()).sum();
        recovery.rebalance_ms += f.charge_migration(moved);

        // The splice retires the old parts so *eviction* splices can be
        // undone at the next run start (device loss is per-run). A
        // rebalanced layout is different: the collapsed boundaries
        // outlive this run, so one interconnect move amortizes over a
        // multi-source workload. Drop what the splice loop retired.
        let mark = f.retired.len();
        for ((&(d, _), slice), view) in order.iter().zip(&slices).zip(&views) {
            let parent = f.multi.device_ref(d).mem_ref().view(f.parts[d].state.parent).to_vec();
            let s = slice.clone();
            f.splice_device(d, s.clone(), s, view, &status, &parent, dir, rebuild_level)?;
        }
        f.retired.truncate(mark);
        self.collapsed = true;
        f.fleet_epoch += 1;
        Ok(())
    }

    /// Checkpoints stop once any device has been evicted this run:
    /// eviction splices are per-run state a fresh process cannot rebuild
    /// (it starts with all devices revived).
    fn checkpoints_now(&self) -> bool {
        let f = &self.fleet;
        f.retired.is_empty() && f.multi.alive_count() == f.parts.len()
    }

    /// The learned layout — the original grid blocks, or the
    /// straggler-collapsed 1-D slices that outlive the run — plus the hub
    /// census. Eviction splices are per-run, so the persisted slices
    /// substitute each retired partition's range back in: exactly the
    /// layout the next run (or process) starts from.
    fn layout(
        &self,
        fingerprint: GraphFingerprint,
        _recovery: &RecoveryReport,
    ) -> Option<LayoutSnapshot> {
        let f = &self.fleet;
        let ranges = |p: &Part| (p.state.td_range.clone(), p.state.bu_range.clone());
        let mut slices: Vec<(Range<usize>, Range<usize>)> = f.parts.iter().map(ranges).collect();
        for (d, part) in f.retired.iter().rev() {
            slices[*d] = ranges(part);
        }
        let (r, c, collapsed) = (self.rows, self.cols, self.collapsed);
        grid_fits(f.vertex_count, r, c, collapsed, &slices).then(|| LayoutSnapshot {
            kind: DriverKind::TwoD,
            fingerprint,
            hub_tau: f.tau,
            total_hubs: f.parts[0].state.total_hubs,
            grid: (r as u32, c as u32),
            collapsed,
            slices,
            evicted: Vec::new(),
        })
    }

    // Durable degraded-fleet records belong to the elastic 1-D driver:
    // a degraded grid has merged *block* views (or collapsed outright)
    // whose shape the record's 1-D boundary list cannot express, and
    // the 2-D setup path rejects evicted layouts anyway. A killed
    // degraded 2-D batch therefore resumes on the cold grid.
}

/// Device `(i, j)`'s cold block on an `r x c` grid over `n` vertices:
/// its column block (sources it expands) and row block (targets it
/// inspects).
fn grid_block(n: usize, r: usize, c: usize, i: usize, j: usize) -> (Range<usize>, Range<usize>) {
    ((j * n / c)..((j + 1) * n / c), (i * n / r)..((i + 1) * n / r))
}

/// The grid's shape rule for a persisted layout: one slice per device,
/// either 1-D slices that tile the vertex range (`collapsed`) or exactly
/// the cold grid blocks.
fn grid_fits(
    n: usize,
    r: usize,
    c: usize,
    collapsed: bool,
    slices: &[(Range<usize>, Range<usize>)],
) -> bool {
    slices.len() == r * c
        && if collapsed {
            slices_tile_1d(slices, n)
        } else {
            (0..r).all(|i| (0..c).all(|j| slices[i * c + j] == grid_block(n, r, c, i, j)))
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
        let mut fleet = Fleet::open(fleet_config(config), csr, Self::KIND);
        let tau = fleet.tau;

        // Crash-consistent persistence: a valid layout snapshot for this
        // exact graph/grid restores the layout a previous process
        // converged to — including a straggler-collapsed 1-D layout —
        // plus the hub census, skipping hub measurement. Defects degrade
        // to a cold start.
        let restored = fleet.persist.load_layout(tau, |snap| {
            // A degraded-fleet (evicted) layout belongs to the elastic
            // 1-D driver; this grid cannot host it.
            snap.evicted.is_empty()
                && snap.grid == (r as u32, c as u32)
                && grid_fits(n, r, c, snap.collapsed, &snap.slices)
        });
        let collapsed = restored.as_ref().map(|s| s.collapsed).unwrap_or(false);

        for i in 0..r {
            for j in 0..c {
                let d = i * c + j;
                let device = fleet.multi.device(d);
                let (td, bu) = match &restored {
                    Some(snap) => snap.slices[d].clone(),
                    None => grid_block(n, r, c, i, j),
                };
                // A collapsed layout stores contiguous 1-D slices, so the
                // device view is the full out/in view over the slice, not
                // a 2-D adjacency block.
                let view = if collapsed {
                    repartition::build_1d(csr, &td)
                } else {
                    repartition::build_2d(csr, &bu, &td)
                };
                let graph = DeviceGraph::upload_parts(
                    device,
                    n,
                    csr.edge_count(),
                    csr.is_directed(),
                    &view.out_offsets,
                    &view.out_targets,
                    &view.in_offsets,
                    &view.in_sources,
                );
                let mut state = BfsState::new_partitioned2(
                    device,
                    &graph,
                    fleet.config.thresholds,
                    fleet.config.hub_cache_entries,
                    tau,
                    td.clone(),
                    bu,
                );
                if restored.is_none() {
                    measure_total_hubs(device, &graph, &mut state);
                }
                fleet.parts.push(Part { graph, state, owned: td });
            }
        }
        // Share the global hub total (each column's devices count the
        // same hubs; summing over one row of the grid gives T_h). A warm
        // restart reuses the persisted census instead.
        let total: u64 = match &restored {
            Some(snap) => snap.total_hubs,
            None => (0..c).map(|j| fleet.parts[j].state.total_hubs).sum(),
        };
        for p in &mut fleet.parts {
            p.state.total_hubs = total;
        }
        fleet.multi.barrier();
        Self { fleet, rows: r, cols: c, collapsed }
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
        self.fleet.multi.elapsed_ms()
    }

    /// Runs one BFS from `source` across the grid, degrading through the
    /// full recovery ladder: in-driver relaunch, level replay, exchange
    /// retry, device eviction + grid repartitioning, and finally the host
    /// CPU baseline when the typed-error budget is exhausted (the
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

    /// Fallible 2-D BFS with level-replay recovery, checksummed exchange
    /// retry, and elastic device eviction, mirroring
    /// [`MultiGpuEnterprise::try_bfs`](crate::multi_gpu::MultiGpuEnterprise::try_bfs).
    /// A permanent loss shrinks the grid: the lost block merges into a
    /// row- or column-adjacent survivor when one exists, else the whole
    /// grid collapses to a 1-D layout over the survivors.
    pub fn try_bfs(&mut self, source: VertexId) -> Result<MultiBfsResult, BfsError> {
        crate::fleet::try_bfs(self, source)
    }
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
