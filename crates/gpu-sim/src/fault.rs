//! Deterministic fault injection for the simulated substrate.
//!
//! A production BFS service must survive device OOM, transient kernel
//! faults, and lossy interconnects; the simulator makes those failures
//! first-class, *deterministic* events so recovery policies can be tested
//! exactly. A [`FaultPlan`] is seeded from a user `u64` (SplitMix64 →
//! xoshiro via [`sim_rng::DetRng`] — no wall-clock randomness) and draws
//! one Bernoulli decision per injection point:
//!
//! * **allocation failures** — [`crate::Device::try_alloc`] fails as if
//!   the device were out of memory;
//! * **transient kernel-launch faults** — [`crate::Device::try_launch`]
//!   aborts *before* the kernel body runs (no memory side effects), so a
//!   relaunch is always safe;
//! * **interconnect faults** — a [`crate::MultiDevice`] exchange drops or
//!   corrupts one device's compressed bitmap on the wire.
//!
//! A plan with all rates at zero (or no plan at all) is a strict no-op:
//! no RNG draws, no time, no counters. Determinism contract: for a fixed
//! seed and a fixed sequence of injection-point calls, the injected
//! faults are identical on every run.

use sim_rng::{splitmix64, DetRng};

/// User-facing description of a fault campaign: a seed plus per-class
/// injection rates (probability per injection point, in `[0, 1]`).
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct FaultSpec {
    /// Seed for the deterministic fault stream.
    pub seed: u64,
    /// Probability that a device allocation fails.
    pub alloc_fail_rate: f64,
    /// Probability that a kernel launch faults (before any side effect).
    pub kernel_fault_rate: f64,
    /// Probability that an interconnect exchange drops a message.
    pub exchange_drop_rate: f64,
    /// Probability that an interconnect exchange corrupts a message.
    pub exchange_corrupt_rate: f64,
    /// Probability (per completed BFS level) that the traversal state is
    /// perturbed into a livelock: the just-generated frontier's vertices
    /// are reverted to unvisited, so on a connected undirected graph they
    /// are perpetually rediscovered and the frontier never drains. This
    /// exercises the watchdog's stall detector. Deliberately *not* part
    /// of [`FaultSpec::uniform`]: a lost status update corrupts traversal
    /// state rather than failing an operation, so only the watchdog — not
    /// level replay — can recover from it.
    pub livelock_rate: f64,
    /// Probability (per kernel launch) that the device dies *permanently*:
    /// the launch never completes, the device is marked lost, and every
    /// subsequent operation on it fails fast with
    /// [`DeviceError::DeviceLost`]. Unlike a transient kernel fault, no
    /// amount of relaunching or level replay recovers a lost device — only
    /// eviction plus repartitioning over the survivors does — so this
    /// rate, like `livelock_rate`, is *not* part of
    /// [`FaultSpec::uniform`].
    pub device_loss_rate: f64,
    /// Probability (per kernel launch) that one bit of one live device
    /// buffer flips between launches (a cosmic-ray / weak-cell event).
    /// With [`crate::EccMode::Off`] the flip lands in live data as
    /// *silent* corruption — no error is raised; only a downstream
    /// verifier can notice — so this rate, like `livelock_rate` and
    /// `device_loss_rate`, is *not* part of [`FaultSpec::uniform`]: it
    /// corrupts state rather than failing an operation, and must be
    /// requested explicitly (or via [`FaultSpec::chaos`]).
    pub bitflip_rate: f64,
    /// Probability (drawn once per device, at plan installation) that the
    /// device is a *straggler*: alive and correct, but every kernel's
    /// charged time is multiplied by [`FaultSpec::straggler_slowdown`]
    /// (thermal throttling, a contended PCIe slot, an ECC-scrub storm).
    /// A straggler never fails an operation — a level-synchronous
    /// traversal simply waits for it at every barrier — so no amount of
    /// retry or replay recovers the lost throughput; only load
    /// rebalancing toward the fast devices does. Like the other
    /// non-retryable classes, *not* part of [`FaultSpec::uniform`];
    /// armed by [`FaultSpec::chaos`].
    pub straggler_rate: f64,
    /// Multiplicative slowdown on a straggler device's charged kernel
    /// time. Values at or below 1.0 disarm the class even when
    /// `straggler_rate` fires.
    pub straggler_slowdown: f64,
    /// Completed BFS levels (reported via
    /// [`crate::Device::note_level_end`]) before a straggler's throttle
    /// engages. `0` throttles from the first kernel — a device that was
    /// always slow; a positive onset models mid-run thermal throttling.
    pub throttle_onset_levels: u32,
    /// Probability (drawn once per system, at plan installation) that the
    /// interconnect is *degraded*: every exchange span is multiplied by
    /// [`FaultSpec::link_degrade_factor`] (a renegotiated PCIe link, a
    /// congested switch). Exchanges still deliver — this is a
    /// performance fault, not a drop — so, like `straggler_rate`, it is
    /// *not* part of [`FaultSpec::uniform`] and is armed by
    /// [`FaultSpec::chaos`].
    pub link_degrade_rate: f64,
    /// Multiplicative slowdown on a degraded interconnect's exchange
    /// spans. Values at or below 1.0 disarm the class.
    pub link_degrade_factor: f64,
    /// Probability (drawn once per link, at plan installation) that the
    /// link is permanently *down*: no message crosses it for the rest of
    /// the run. Unlike `link_degrade_rate` (one draw for the shared
    /// root), this is a *per-link* class: every device pair and every
    /// device's host lane draws independently, so a topology-aware
    /// router can steer around the dead edges. Retry never recovers a
    /// down link — only rerouting (relay, host bounce) or migrating the
    /// unreachable partition does — so, like the other non-retryable
    /// classes, the rate is *not* part of [`FaultSpec::uniform`] and is
    /// armed by [`FaultSpec::chaos`].
    pub link_down_rate: f64,
    /// Probability (same per-link draw point) that the link *flaps*:
    /// it alternates up/down windows of
    /// [`FaultSpec::link_flap_period_levels`] completed BFS levels (a
    /// renegotiating PCIe lane, a marginal cable). A flapping link in a
    /// down window heals under bounded retry — each probe walks the
    /// flap forward — which is what distinguishes it from a hard-down
    /// link. Same opt-in contract as `link_down_rate`.
    pub link_flap_rate: f64,
    /// Width, in completed BFS levels, of a flapping link's up/down
    /// windows. `0` disarms flapping even when `link_flap_rate` fires
    /// (mirroring the slowdown-factor contract of the performance
    /// classes).
    pub link_flap_period_levels: u32,
    /// Probability (per snapshot write) that the write is *torn*: the
    /// process dies mid-write and only a strict prefix of the snapshot
    /// bytes reaches the disk. A durable-persistence layer must detect
    /// the truncation on load (length/checksum) and fall back to a cold
    /// start. Storage faults corrupt persisted state rather than failing
    /// an operation, so — like the other non-retryable classes — they are
    /// *not* part of [`FaultSpec::uniform`] and are armed by
    /// [`FaultSpec::chaos`].
    pub torn_write_rate: f64,
    /// Probability (per snapshot load) that one bit of the on-disk
    /// snapshot flipped at rest (media decay, a firmware bug). The
    /// persistence layer must detect the flip by checksum and fall back
    /// to a cold start. Same opt-in contract as
    /// [`FaultSpec::torn_write_rate`].
    pub snapshot_corrupt_rate: f64,
}

/// Default straggler slowdown used by [`FaultSpec::chaos`] (a thermally
/// throttled Kepler drops from boost to base clocks and loses memory
/// parallelism — 4x end-to-end is the severe end of what clusters report).
pub const CHAOS_STRAGGLER_SLOWDOWN: f64 = 4.0;

/// Default interconnect degradation factor used by [`FaultSpec::chaos`]
/// (a PCIe 3.0 x16 link renegotiated down to x4).
pub const CHAOS_LINK_DEGRADE_FACTOR: f64 = 4.0;

/// Default flap window used by [`FaultSpec::chaos`]: a flapping link
/// alternates up/down every this many completed BFS levels.
pub const CHAOS_LINK_FLAP_PERIOD_LEVELS: u32 = 2;

impl FaultSpec {
    /// A spec with every rate at zero (useful as a base for struct update
    /// syntax).
    pub fn none(seed: u64) -> Self {
        Self { seed, ..Self::default() }
    }

    /// A spec injecting every fault class at the same `rate`.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be a probability, got {rate}");
        Self {
            seed,
            alloc_fail_rate: rate,
            kernel_fault_rate: rate,
            exchange_drop_rate: rate,
            exchange_corrupt_rate: rate,
            // Deliberately excluded from the uniform campaign: livelock
            // injection and bit flips corrupt traversal state (only a
            // watchdog or verifier can recover), device loss is
            // unrecoverable without repartitioning, the performance
            // faults (stragglers, link degradation) defeat retry entirely
            // — only rebalancing recovers them — the per-link topology
            // faults (down and flapping links) need a router or a
            // partition migration rather than a blind re-exchange — and
            // the storage faults
            // (torn writes, at-rest corruption) damage *persisted* state
            // that only a checksum-gated cold start recovers; so all are
            // opt-in via explicit fields or `chaos`.
            livelock_rate: 0.0,
            device_loss_rate: 0.0,
            bitflip_rate: 0.0,
            straggler_rate: 0.0,
            straggler_slowdown: 0.0,
            throttle_onset_levels: 0,
            link_degrade_rate: 0.0,
            link_degrade_factor: 0.0,
            link_down_rate: 0.0,
            link_flap_rate: 0.0,
            link_flap_period_levels: 0,
            torn_write_rate: 0.0,
            snapshot_corrupt_rate: 0.0,
        }
    }

    /// A spec arming *every* fault class — including the state-corrupting
    /// and performance ones `uniform` deliberately excludes
    /// (`livelock_rate`, `device_loss_rate`, `bitflip_rate`,
    /// `straggler_rate`, `link_degrade_rate`) — at the same `rate`, with
    /// the straggler and link slowdown factors at their chaos defaults.
    /// This is the full chaos campaign: a system under it must finish
    /// with a verified result or a typed error, never a panic and never a
    /// silently wrong answer.
    pub fn chaos(seed: u64, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be a probability, got {rate}");
        Self {
            seed,
            alloc_fail_rate: rate,
            kernel_fault_rate: rate,
            exchange_drop_rate: rate,
            exchange_corrupt_rate: rate,
            livelock_rate: rate,
            device_loss_rate: rate,
            bitflip_rate: rate,
            straggler_rate: rate,
            straggler_slowdown: CHAOS_STRAGGLER_SLOWDOWN,
            throttle_onset_levels: 0,
            link_degrade_rate: rate,
            link_degrade_factor: CHAOS_LINK_DEGRADE_FACTOR,
            link_down_rate: rate,
            link_flap_rate: rate,
            link_flap_period_levels: CHAOS_LINK_FLAP_PERIOD_LEVELS,
            torn_write_rate: rate,
            snapshot_corrupt_rate: rate,
        }
    }

    /// Derives the spec for one scoped unit of work — e.g. one source of
    /// a multi-source batch, one retry attempt, or one hedged
    /// re-execution. Rates are preserved; only the seed is remixed, with
    /// the same `splitmix64` derivation as [`FaultPlan::for_stream`] but
    /// a distinct odd multiplier, so scope and per-device stream
    /// universes never alias. Because the derivation is a pure function
    /// of `(self.seed, scope)`, every fault drawn under a scoped spec is
    /// bit-reproducible no matter in which order scoped units run, how
    /// many other units ran before them, or whether a unit is executed
    /// once, retried, or hedged.
    ///
    /// Scoping nests: `spec.scoped(a).scoped(b)` is itself deterministic
    /// and distinct from `spec.scoped(b).scoped(a)` — callers use this to
    /// give each `(source, attempt)` pair its own fault universe.
    pub fn scoped(mut self, scope: u64) -> Self {
        let mut sm = self.seed ^ scope.wrapping_mul(0xA24B_AED4_963E_E407);
        self.seed = splitmix64(&mut sm);
        self
    }

    /// True when no fault class can ever fire. (The slowdown *factors*
    /// don't gate anything on their own — a factor without its rate never
    /// fires.)
    pub fn is_zero(&self) -> bool {
        self.alloc_fail_rate <= 0.0
            && self.kernel_fault_rate <= 0.0
            && self.exchange_drop_rate <= 0.0
            && self.exchange_corrupt_rate <= 0.0
            && self.livelock_rate <= 0.0
            && self.device_loss_rate <= 0.0
            && self.bitflip_rate <= 0.0
            && self.straggler_rate <= 0.0
            && self.link_degrade_rate <= 0.0
            && self.link_down_rate <= 0.0
            && self.link_flap_rate <= 0.0
            && self.torn_write_rate <= 0.0
            && self.snapshot_corrupt_rate <= 0.0
    }
}

/// Counters of injected fault events, in the style of the
/// [`crate::counters`] hardware counters: one monotone count per event
/// class plus the retries the substrate performed itself.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Allocations that were failed by injection.
    pub alloc_faults: u64,
    /// Kernel launches that faulted by injection.
    pub kernel_faults: u64,
    /// Faulted launches that were re-attempted by the device's bounded
    /// retry loop (a recovery action; see [`crate::Device::set_launch_retries`]).
    pub kernel_retries: u64,
    /// Exchanges in which a message was dropped on the wire.
    pub exchanges_dropped: u64,
    /// Exchanges in which a message was corrupted on the wire.
    pub exchanges_corrupted: u64,
    /// BFS levels whose frontier was reverted to unvisited (livelock
    /// injection; see [`FaultSpec::livelock_rate`]).
    pub livelocks_injected: u64,
    /// Devices permanently lost by injection (see
    /// [`FaultSpec::device_loss_rate`]).
    pub devices_lost: u64,
    /// Injected bit flips that landed in live data as silent corruption
    /// (ECC off; see [`FaultSpec::bitflip_rate`]).
    pub sdc_injected: u64,
    /// Injected single-bit flips absorbed by SECDED ECC (ECC on; each
    /// charged a correction penalty but never visible to data).
    pub ecc_corrected: u64,
    /// Injected flips that compounded into an uncorrectable double-bit
    /// error in one 64-bit word (surfaced as
    /// [`DeviceError::UncorrectableEcc`]).
    pub ecc_uncorrectable: u64,
    /// Devices armed as stragglers by injection (see
    /// [`FaultSpec::straggler_rate`]); at most one per device per plan.
    pub stragglers_armed: u64,
    /// Extra simulated microseconds of kernel time charged by straggler
    /// throttling (the inflation over what the same kernels would have
    /// cost un-throttled).
    pub straggler_slow_us: u64,
    /// Interconnects degraded by injection (see
    /// [`FaultSpec::link_degrade_rate`]); at most one per plan.
    pub links_degraded: u64,
    /// Extra simulated microseconds of exchange span charged by link
    /// degradation.
    pub link_slow_us: u64,
    /// Links (device pairs or host lanes) drawn permanently down at plan
    /// installation (see [`FaultSpec::link_down_rate`]).
    pub links_down: u64,
    /// Links drawn flapping at plan installation (see
    /// [`FaultSpec::link_flap_rate`]).
    pub links_flapping: u64,
    /// Up/down transitions taken by flapping links as levels ticked or
    /// probes walked them forward (behavior of an already-counted fault,
    /// like `kernel_retries` — not itself a fault event).
    pub link_flaps: u64,
    /// Snapshot writes torn by injection: only a prefix of the bytes
    /// reached the disk (see [`FaultSpec::torn_write_rate`]).
    pub torn_writes: u64,
    /// Snapshot loads that observed an injected at-rest bit flip (see
    /// [`FaultSpec::snapshot_corrupt_rate`]).
    pub snapshots_corrupted: u64,
}

impl FaultStats {
    /// Total injected fault events (retries are recovery, not faults,
    /// ECC-corrected flips are absorbed by the hardware model before they
    /// become faults, and the `*_slow_us` accumulators measure the cost
    /// of the performance faults rather than being events themselves).
    pub fn total_faults(&self) -> u64 {
        self.alloc_faults
            + self.kernel_faults
            + self.exchanges_dropped
            + self.exchanges_corrupted
            + self.livelocks_injected
            + self.devices_lost
            + self.sdc_injected
            + self.ecc_uncorrectable
            + self.stragglers_armed
            + self.links_degraded
            + self.links_down
            + self.links_flapping
            + self.torn_writes
            + self.snapshots_corrupted
    }

    /// Accumulates `other` into `self` (for multi-device aggregation).
    pub fn merge(&mut self, other: &FaultStats) {
        self.alloc_faults += other.alloc_faults;
        self.kernel_faults += other.kernel_faults;
        self.kernel_retries += other.kernel_retries;
        self.exchanges_dropped += other.exchanges_dropped;
        self.exchanges_corrupted += other.exchanges_corrupted;
        self.livelocks_injected += other.livelocks_injected;
        self.devices_lost += other.devices_lost;
        self.sdc_injected += other.sdc_injected;
        self.ecc_corrected += other.ecc_corrected;
        self.ecc_uncorrectable += other.ecc_uncorrectable;
        self.stragglers_armed += other.stragglers_armed;
        self.straggler_slow_us += other.straggler_slow_us;
        self.links_degraded += other.links_degraded;
        self.link_slow_us += other.link_slow_us;
        self.links_down += other.links_down;
        self.links_flapping += other.links_flapping;
        self.link_flaps += other.link_flaps;
        self.torn_writes += other.torn_writes;
        self.snapshots_corrupted += other.snapshots_corrupted;
    }
}

/// A seeded, deterministic fault-injection campaign over one device (or
/// one interconnect). Construct with [`FaultPlan::new`] or derive
/// per-device streams with [`FaultPlan::for_stream`].
#[derive(Clone, Debug)]
pub struct FaultPlan {
    spec: FaultSpec,
    rng: DetRng,
    stats: FaultStats,
}

impl FaultPlan {
    /// Builds the root plan for `spec`.
    pub fn new(spec: FaultSpec) -> Self {
        Self { spec, rng: DetRng::seed_from_u64(spec.seed), stats: FaultStats::default() }
    }

    /// Derives an independent plan for substream `stream` (e.g. one per
    /// device, plus one for the interconnect) so injection decisions on
    /// one device do not perturb another device's stream.
    pub fn for_stream(spec: FaultSpec, stream: u64) -> Self {
        let mut sm = spec.seed ^ stream.wrapping_mul(0x9E3779B97F4A7C15);
        let derived = splitmix64(&mut sm);
        Self { spec, rng: DetRng::seed_from_u64(derived), stats: FaultStats::default() }
    }

    /// The spec this plan was built from.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Injected-event counters since construction (or the last
    /// [`FaultPlan::reset_stats`]).
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Clears the event counters; the RNG stream position is preserved so
    /// determinism over the whole run is unaffected.
    pub fn reset_stats(&mut self) {
        self.stats = FaultStats::default();
    }

    /// One Bernoulli decision. A rate at (or below) zero is a strict
    /// no-op: no RNG draw, so attaching a rate-0 plan leaves the fault
    /// stream — and everything downstream — untouched.
    fn decide(&mut self, rate: f64) -> bool {
        rate > 0.0 && self.rng.gen_f64() < rate
    }

    /// Should the next allocation fail?
    pub fn should_fail_alloc(&mut self) -> bool {
        let fail = self.decide(self.spec.alloc_fail_rate);
        if fail {
            self.stats.alloc_faults += 1;
        }
        fail
    }

    /// Should the next kernel launch fault?
    pub fn should_fault_launch(&mut self) -> bool {
        let fault = self.decide(self.spec.kernel_fault_rate);
        if fault {
            self.stats.kernel_faults += 1;
        }
        fault
    }

    pub(crate) fn count_kernel_retry(&mut self) {
        self.stats.kernel_retries += 1;
    }

    /// Should this device permanently die at the next kernel launch?
    /// Drawn once per launch by the substrate (a zero rate draws
    /// nothing); after a firing the device must be treated as lost for
    /// the remainder of the run.
    pub fn should_lose_device(&mut self) -> bool {
        let lose = self.decide(self.spec.device_loss_rate);
        if lose {
            self.stats.devices_lost += 1;
        }
        lose
    }

    /// Draws — once, at plan installation — whether the device owning
    /// this plan is a straggler, returning the multiplicative slowdown on
    /// its charged kernel time (`1.0` = not a straggler). A zero rate
    /// draws nothing — strict no-op — and a slowdown factor at or below
    /// 1.0 disarms the class even when the rate fires.
    pub fn draw_straggler_factor(&mut self) -> f64 {
        let hit = self.decide(self.spec.straggler_rate);
        if hit && self.spec.straggler_slowdown > 1.0 {
            self.stats.stragglers_armed += 1;
            self.spec.straggler_slowdown
        } else {
            1.0
        }
    }

    /// Draws — once, at plan installation — whether the interconnect
    /// owning this plan is degraded, returning the multiplicative
    /// slowdown on exchange spans (`1.0` = healthy). Same no-op contract
    /// as [`FaultPlan::draw_straggler_factor`].
    pub fn draw_link_degrade_factor(&mut self) -> f64 {
        let hit = self.decide(self.spec.link_degrade_rate);
        if hit && self.spec.link_degrade_factor > 1.0 {
            self.stats.links_degraded += 1;
            self.spec.link_degrade_factor
        } else {
            1.0
        }
    }

    /// Draws — once per link, at plan installation — the link's health
    /// state for the per-link topology model. Down is checked before
    /// flapping (a severed link cannot also flap), mirroring the
    /// drop-before-corrupt ordering of [`FaultPlan::draw_exchange_fault`].
    /// A flap draw with `link_flap_period_levels == 0` disarms the class
    /// (like a slowdown factor at or below 1.0). Zero rates draw nothing
    /// — strict no-op.
    pub fn draw_link_state(&mut self) -> LinkHealth {
        if self.decide(self.spec.link_down_rate) {
            self.stats.links_down += 1;
            return LinkHealth::Down;
        }
        let flap = self.decide(self.spec.link_flap_rate);
        if flap && self.spec.link_flap_period_levels > 0 {
            self.stats.links_flapping += 1;
            return LinkHealth::Flapping { period_levels: self.spec.link_flap_period_levels };
        }
        LinkHealth::Healthy
    }

    /// Counts one up/down transition of a flapping link.
    pub(crate) fn count_link_flap(&mut self) {
        self.stats.link_flaps += 1;
    }

    /// Accumulates extra kernel microseconds charged by straggler
    /// throttling.
    pub(crate) fn charge_straggler_us(&mut self, us: u64) {
        self.stats.straggler_slow_us += us;
    }

    /// Accumulates extra exchange microseconds charged by link
    /// degradation.
    pub(crate) fn charge_link_slow_us(&mut self, us: u64) {
        self.stats.link_slow_us += us;
    }

    /// Draws the bit-flip decision for one kernel launch over a device
    /// arena of `total_elems` 32-bit words. Returns the (arena-global
    /// element, bit) target of the flip, weighted uniformly over the
    /// arena so large buffers absorb proportionally more hits. A zero
    /// rate (or an empty arena) draws nothing — strict no-op.
    pub fn draw_bitflip(&mut self, total_elems: usize) -> Option<(usize, u32)> {
        if total_elems == 0 || !self.decide(self.spec.bitflip_rate) {
            return None;
        }
        let elem = self.rng.gen_index(total_elems);
        let bit = self.rng.gen_index(32) as u32;
        Some((elem, bit))
    }

    /// Counts one flip that landed as silent data corruption (ECC off).
    pub(crate) fn count_sdc(&mut self) {
        self.stats.sdc_injected += 1;
    }

    /// Counts one flip absorbed by SECDED correction (ECC on).
    pub(crate) fn count_ecc_corrected(&mut self) {
        self.stats.ecc_corrected += 1;
    }

    /// Counts one flip that compounded into an uncorrectable error.
    pub(crate) fn count_ecc_uncorrectable(&mut self) {
        self.stats.ecc_uncorrectable += 1;
    }

    /// Draws the torn-write outcome for one snapshot write of
    /// `total_bytes`. Returns `Some(keep)` — the strict-prefix byte count
    /// that survives on disk (always shorter than `total_bytes`) — when
    /// the write tears. A zero rate (or an empty payload) draws nothing —
    /// strict no-op.
    pub fn draw_torn_write(&mut self, total_bytes: usize) -> Option<usize> {
        if total_bytes == 0 || !self.decide(self.spec.torn_write_rate) {
            return None;
        }
        self.stats.torn_writes += 1;
        Some(self.rng.gen_index(total_bytes))
    }

    /// Draws the at-rest corruption outcome for one snapshot load of
    /// `total_bytes`. Returns `Some(bit)` — the global bit index to flip
    /// in the on-disk image — when the medium decayed. A zero rate (or an
    /// empty file) draws nothing — strict no-op.
    pub fn draw_snapshot_corruption(&mut self, total_bytes: usize) -> Option<usize> {
        if total_bytes == 0 || !self.decide(self.spec.snapshot_corrupt_rate) {
            return None;
        }
        self.stats.snapshots_corrupted += 1;
        Some(self.rng.gen_index(total_bytes * 8))
    }

    /// Should the traversal state be perturbed into a livelock after the
    /// current BFS level? (Drawn once per completed level by the
    /// drivers; a zero rate draws nothing.)
    pub fn should_inject_livelock(&mut self) -> bool {
        let inject = self.decide(self.spec.livelock_rate);
        if inject {
            self.stats.livelocks_injected += 1;
        }
        inject
    }

    /// Draws the fault outcome for one exchange among `peers` devices
    /// carrying `payload_bytes` per message. Drop is checked before
    /// corruption (a dropped message cannot also be corrupted).
    pub fn draw_exchange_fault(
        &mut self,
        peers: usize,
        payload_bytes: u64,
    ) -> Option<ExchangeFault> {
        if peers < 2 {
            return None;
        }
        if self.decide(self.spec.exchange_drop_rate) {
            let (from, to) = self.pick_link(peers);
            self.stats.exchanges_dropped += 1;
            return Some(ExchangeFault::Dropped { from, to });
        }
        if self.decide(self.spec.exchange_corrupt_rate) {
            let (from, to) = self.pick_link(peers);
            let bit = if payload_bytes == 0 {
                0
            } else {
                self.rng.gen_index((payload_bytes * 8) as usize) as u64
            };
            self.stats.exchanges_corrupted += 1;
            return Some(ExchangeFault::Corrupted { from, to, bit });
        }
        None
    }

    fn pick_link(&mut self, peers: usize) -> (usize, usize) {
        let from = self.rng.gen_index(peers);
        let mut to = self.rng.gen_index(peers - 1);
        if to >= from {
            to += 1;
        }
        (from, to)
    }
}

/// Health state of one interconnect link, drawn at plan installation by
/// [`FaultPlan::draw_link_state`]. The degraded state (a slow but
/// delivering link) is modeled separately via
/// [`FaultSpec::link_degrade_rate`] and overlaid by the topology.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkHealth {
    /// The link delivers at full speed.
    Healthy,
    /// The link alternates up/down windows of `period_levels` completed
    /// BFS levels; a probe during a down window walks the flap forward,
    /// so bounded retry converges.
    Flapping {
        /// Width of each up/down window in completed BFS levels.
        period_levels: u32,
    },
    /// The link is permanently severed for the rest of the run.
    Down,
}

/// One injected interconnect fault, identifying the affected link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExchangeFault {
    /// The message from device `from` to device `to` never arrived.
    Dropped {
        /// Sending device id.
        from: usize,
        /// Receiving device id.
        to: usize,
    },
    /// The message from `from` to `to` arrived with `bit` flipped.
    Corrupted {
        /// Sending device id.
        from: usize,
        /// Receiving device id.
        to: usize,
        /// Index of the flipped bit within the payload.
        bit: u64,
    },
    /// The direct link between `from` and `to` is down (severed or in a
    /// flapping link's down window): nothing crossed it. Raised by the
    /// per-link topology, not by a per-exchange draw; recovery needs a
    /// probe (flapping), a reroute, or a partition migration.
    LinkDown {
        /// One endpoint of the dead link.
        from: usize,
        /// The other endpoint.
        to: usize,
    },
}

impl std::fmt::Display for ExchangeFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExchangeFault::Dropped { from, to } => {
                write!(f, "message {from}->{to} dropped on the wire")
            }
            ExchangeFault::Corrupted { from, to, bit } => {
                write!(f, "message {from}->{to} corrupted (bit {bit} flipped)")
            }
            ExchangeFault::LinkDown { from, to } => {
                write!(f, "link {from}<->{to} is down; nothing crossed it")
            }
        }
    }
}

/// Typed error for every fallible device operation, carrying the device
/// id, the buffer or kernel name, and the byte counts involved.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeviceError {
    /// A genuine out-of-memory: the arena cannot fit the request.
    OutOfMemory {
        /// Device id.
        device: usize,
        /// Buffer name requested.
        buffer: String,
        /// Bytes requested (transaction-aligned).
        requested_bytes: u64,
        /// Bytes already allocated.
        used_bytes: u64,
        /// Arena capacity in bytes.
        capacity_bytes: u64,
    },
    /// An allocation failed by fault injection.
    InjectedAllocFault {
        /// Device id.
        device: usize,
        /// Buffer name requested.
        buffer: String,
        /// Bytes requested.
        requested_bytes: u64,
    },
    /// Host upload whose length does not match the buffer.
    UploadSizeMismatch {
        /// Device id.
        device: usize,
        /// Buffer name.
        buffer: String,
        /// Buffer length in elements.
        buffer_len: usize,
        /// Supplied data length in elements.
        data_len: usize,
    },
    /// A transient kernel-launch fault (injected before any side effect,
    /// so relaunching is safe).
    KernelFault {
        /// Device id.
        device: usize,
        /// Kernel name.
        kernel: String,
        /// Index the kernel would have had in the device's record list
        /// (counted since the last reset or drain).
        launch_index: usize,
    },
    /// A host-side device-memory access outside a buffer's bounds
    /// (the typed replacement for the old `DeviceMem::write` panic).
    OutOfBounds {
        /// Device id.
        device: usize,
        /// Buffer name.
        buffer: String,
        /// Offending element index.
        index: usize,
        /// Buffer length in elements.
        len: usize,
    },
    /// The sanitizer flagged the launch (or concurrent window); the
    /// payload is the first finding. Execution ran to the end of the
    /// launch deterministically before the error was raised. (Boxed so
    /// the happy-path `Result` size stays small.)
    Sanitizer(Box<crate::sanitizer::SanitizerError>),
    /// A kernel exceeded the device's simulated-time deadline budget
    /// (see [`crate::Device::set_kernel_deadline_ms`]). Durations are in
    /// integer microseconds of simulated time so the error stays `Eq`
    /// and bit-reproducible.
    KernelDeadline {
        /// Device id.
        device: usize,
        /// Kernel name.
        kernel: String,
        /// Simulated kernel duration, µs.
        elapsed_us: u64,
        /// Configured budget, µs.
        budget_us: u64,
    },
    /// The device died permanently (injected via
    /// [`FaultSpec::device_loss_rate`] or marked by the host). Every
    /// operation on a lost device fails with this error; recovery
    /// requires evicting the device and repartitioning over survivors.
    DeviceLost {
        /// Device id of the lost device.
        device: usize,
    },
    /// A double-bit error in one ECC-protected 64-bit word: SECDED
    /// detects it but cannot correct it (see [`crate::EccMode::On`]).
    /// The word's contents must be treated as lost; recovery means
    /// restoring the affected state from a host-side checkpoint.
    UncorrectableEcc {
        /// Device id.
        device: usize,
        /// Name of the affected buffer.
        buffer: String,
        /// Index of the poisoned 64-bit word within the buffer.
        word: usize,
    },
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceError::OutOfMemory { device, buffer, requested_bytes, used_bytes, capacity_bytes } => {
                write!(
                    f,
                    "device OOM allocating {buffer:?} ({requested_bytes} B) on device {device}: \
                     {used_bytes} of {capacity_bytes} B used"
                )
            }
            DeviceError::InjectedAllocFault { device, buffer, requested_bytes } => {
                write!(
                    f,
                    "injected allocation fault for {buffer:?} ({requested_bytes} B) on device {device}"
                )
            }
            DeviceError::UploadSizeMismatch { device, buffer, buffer_len, data_len } => {
                write!(
                    f,
                    "upload size mismatch for {buffer:?} on device {device}: \
                     buffer {buffer_len} vs data {data_len}"
                )
            }
            DeviceError::KernelFault { device, kernel, launch_index } => {
                write!(
                    f,
                    "transient launch fault in kernel {kernel:?} (launch #{launch_index}) on device {device}"
                )
            }
            DeviceError::OutOfBounds { device, buffer, index, len } => {
                write!(
                    f,
                    "device access out of bounds: {buffer:?}[{index}], len {len}, on device {device}"
                )
            }
            DeviceError::Sanitizer(e) => write!(f, "{e}"),
            DeviceError::KernelDeadline { device, kernel, elapsed_us, budget_us } => {
                write!(
                    f,
                    "kernel {kernel:?} on device {device} exceeded its deadline: \
                     {elapsed_us} us elapsed vs {budget_us} us budget"
                )
            }
            DeviceError::DeviceLost { device } => {
                write!(f, "device {device} was permanently lost")
            }
            DeviceError::UncorrectableEcc { device, buffer, word } => {
                write!(
                    f,
                    "uncorrectable double-bit ECC error in {buffer:?} word {word} on device {device}"
                )
            }
        }
    }
}

impl std::error::Error for DeviceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DeviceError::Sanitizer(e) => Some(&**e),
            _ => None,
        }
    }
}

/// Fletcher-style 32-bit checksum over a byte payload; used by drivers to
/// detect corrupted compressed bitmaps before merging them.
pub fn payload_checksum(bytes: &[u8]) -> u32 {
    let mut a: u32 = 0xABCD;
    let mut b: u32 = 0x1234;
    for &x in bytes {
        a = (a.wrapping_add(x as u32)) % 65521;
        b = (b.wrapping_add(a)) % 65521;
    }
    (b << 16) | a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_plan_never_fires_and_never_draws() {
        let mut p = FaultPlan::new(FaultSpec::none(7));
        let before = p.clone();
        for _ in 0..100 {
            assert!(!p.should_fail_alloc());
            assert!(!p.should_fault_launch());
            assert!(!p.should_inject_livelock());
            assert!(!p.should_lose_device());
            assert!(p.draw_bitflip(1024).is_none());
            assert!(p.draw_exchange_fault(4, 128).is_none());
            assert_eq!(p.draw_straggler_factor(), 1.0);
            assert_eq!(p.draw_link_degrade_factor(), 1.0);
            assert_eq!(p.draw_link_state(), LinkHealth::Healthy);
            assert!(p.draw_torn_write(4096).is_none());
            assert!(p.draw_snapshot_corruption(4096).is_none());
        }
        assert_eq!(p.stats().total_faults(), 0);
        // Strict no-op: the RNG stream has not moved.
        assert_eq!(format!("{:?}", p.rng), format!("{:?}", before.rng));
    }

    #[test]
    fn plans_are_deterministic_in_seed() {
        let run = || {
            let mut p = FaultPlan::new(FaultSpec::uniform(42, 0.3));
            (0..200).map(|_| p.should_fault_launch()).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
        let mut p = FaultPlan::new(FaultSpec::uniform(42, 0.3));
        let fired = (0..200).filter(|_| p.should_fault_launch()).count();
        assert!(fired > 20 && fired < 120, "rate 0.3 should fire ~60/200, got {fired}");
        assert_eq!(p.stats().kernel_faults, fired as u64);
    }

    #[test]
    fn streams_are_independent() {
        let spec = FaultSpec::uniform(9, 0.5);
        let mut a = FaultPlan::for_stream(spec, 0);
        let mut b = FaultPlan::for_stream(spec, 1);
        let va: Vec<bool> = (0..64).map(|_| a.should_fault_launch()).collect();
        let vb: Vec<bool> = (0..64).map(|_| b.should_fault_launch()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn scoped_specs_are_deterministic_independent_and_rate_preserving() {
        let base = FaultSpec::uniform(42, 0.5);
        // Pure function of (seed, scope): same scope, same universe.
        assert_eq!(base.scoped(7), base.scoped(7));
        // Distinct scopes diverge, and scoping composes order-sensitively
        // so (source, attempt) pairs get distinct universes.
        assert_ne!(base.scoped(7).seed, base.scoped(8).seed);
        assert_ne!(base.scoped(1).scoped(2).seed, base.scoped(2).scoped(1).seed);
        // Scope universes must not alias the per-device stream universe
        // derived from the same seed.
        let mut scoped_plan = FaultPlan::new(base.scoped(3));
        let mut stream_plan = FaultPlan::for_stream(base, 3);
        let vs: Vec<bool> = (0..64).map(|_| scoped_plan.should_fault_launch()).collect();
        let vt: Vec<bool> = (0..64).map(|_| stream_plan.should_fault_launch()).collect();
        assert_ne!(vs, vt);
        // Rates ride along untouched; a zero spec stays zero.
        assert_eq!(base.scoped(9).kernel_fault_rate, base.kernel_fault_rate);
        assert!(FaultSpec::none(42).scoped(9).is_zero());
    }

    #[test]
    fn exchange_fault_links_are_valid() {
        let mut p = FaultPlan::new(FaultSpec::uniform(5, 0.5));
        for _ in 0..200 {
            match p.draw_exchange_fault(4, 64) {
                Some(ExchangeFault::Dropped { from, to })
                | Some(ExchangeFault::Corrupted { from, to, .. }) => {
                    assert!(from < 4 && to < 4 && from != to);
                }
                Some(ExchangeFault::LinkDown { .. }) => {
                    panic!("per-exchange draws never produce topology faults")
                }
                None => {}
            }
        }
        assert!(p.stats().exchanges_dropped > 0);
        assert!(p.stats().exchanges_corrupted > 0);
    }

    #[test]
    fn corrupted_bit_is_in_payload() {
        let spec = FaultSpec { seed: 3, exchange_corrupt_rate: 1.0, ..FaultSpec::default() };
        let mut p = FaultPlan::new(spec);
        for _ in 0..100 {
            if let Some(ExchangeFault::Corrupted { bit, .. }) = p.draw_exchange_fault(2, 16) {
                assert!(bit < 128);
            } else {
                panic!("corrupt rate 1.0 must corrupt");
            }
        }
    }

    #[test]
    fn checksum_detects_single_bit_flips() {
        let payload: Vec<u8> = (0..64).map(|i| (i * 37 % 251) as u8).collect();
        let base = payload_checksum(&payload);
        for bit in [0usize, 13, 255, 511] {
            let mut flipped = payload.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(payload_checksum(&flipped), base, "bit {bit} undetected");
        }
    }

    #[test]
    fn device_loss_is_opt_in_and_counted() {
        // `uniform` must not arm loss: an unrecoverable class has to be
        // requested explicitly.
        assert_eq!(FaultSpec::uniform(1, 0.5).device_loss_rate, 0.0);
        assert!(!FaultSpec { device_loss_rate: 0.1, ..FaultSpec::none(1) }.is_zero());
        let spec = FaultSpec { device_loss_rate: 1.0, ..FaultSpec::none(2) };
        let mut p = FaultPlan::new(spec);
        assert!(p.should_lose_device());
        assert_eq!(p.stats().devices_lost, 1);
        assert_eq!(p.stats().total_faults(), 1);
    }

    #[test]
    fn device_loss_draws_are_deterministic() {
        let run = || {
            let spec = FaultSpec { device_loss_rate: 0.25, ..FaultSpec::none(77) };
            let mut p = FaultPlan::for_stream(spec, 3);
            (0..64).map(|_| p.should_lose_device()).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn bitflip_is_opt_in_and_deterministic() {
        // `uniform` must not arm bit flips: silent corruption has to be
        // requested explicitly (or via `chaos`).
        assert_eq!(FaultSpec::uniform(1, 0.5).bitflip_rate, 0.0);
        assert!(!FaultSpec { bitflip_rate: 0.1, ..FaultSpec::none(1) }.is_zero());
        let run = || {
            let spec = FaultSpec { bitflip_rate: 0.5, ..FaultSpec::none(11) };
            let mut p = FaultPlan::for_stream(spec, 2);
            (0..64).map(|_| p.draw_bitflip(4096)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
        let flips: Vec<_> = run().into_iter().flatten().collect();
        assert!(!flips.is_empty(), "rate 0.5 over 64 launches must fire");
        for (elem, bit) in flips {
            assert!(elem < 4096 && bit < 32);
        }
        // An empty arena cannot be hit, rate notwithstanding.
        let spec = FaultSpec { bitflip_rate: 1.0, ..FaultSpec::none(11) };
        assert!(FaultPlan::new(spec).draw_bitflip(0).is_none());
    }

    #[test]
    fn chaos_arms_every_rate() {
        let spec = FaultSpec::chaos(4, 0.2);
        assert_eq!(spec.alloc_fail_rate, 0.2);
        assert_eq!(spec.kernel_fault_rate, 0.2);
        assert_eq!(spec.exchange_drop_rate, 0.2);
        assert_eq!(spec.exchange_corrupt_rate, 0.2);
        assert_eq!(spec.livelock_rate, 0.2);
        assert_eq!(spec.device_loss_rate, 0.2);
        assert_eq!(spec.bitflip_rate, 0.2);
        assert_eq!(spec.straggler_rate, 0.2);
        assert_eq!(spec.straggler_slowdown, CHAOS_STRAGGLER_SLOWDOWN);
        assert_eq!(spec.link_degrade_rate, 0.2);
        assert_eq!(spec.link_degrade_factor, CHAOS_LINK_DEGRADE_FACTOR);
        assert_eq!(spec.link_down_rate, 0.2);
        assert_eq!(spec.link_flap_rate, 0.2);
        assert_eq!(spec.link_flap_period_levels, CHAOS_LINK_FLAP_PERIOD_LEVELS);
        assert_eq!(spec.torn_write_rate, 0.2);
        assert_eq!(spec.snapshot_corrupt_rate, 0.2);
        assert!(!spec.is_zero());
        assert!(FaultSpec::chaos(4, 0.0).is_zero());
    }

    #[test]
    fn performance_faults_are_opt_in_and_counted() {
        // `uniform` must not arm the performance classes: slow-but-alive
        // defeats retry, so it has to be requested explicitly.
        assert_eq!(FaultSpec::uniform(1, 0.5).straggler_rate, 0.0);
        assert_eq!(FaultSpec::uniform(1, 0.5).link_degrade_rate, 0.0);
        let spec = FaultSpec {
            straggler_rate: 0.1,
            straggler_slowdown: 4.0,
            ..FaultSpec::none(1)
        };
        assert!(!spec.is_zero());
        let armed = FaultSpec {
            straggler_rate: 1.0,
            straggler_slowdown: 4.0,
            link_degrade_rate: 1.0,
            link_degrade_factor: 2.0,
            ..FaultSpec::none(2)
        };
        let mut p = FaultPlan::new(armed);
        assert_eq!(p.draw_straggler_factor(), 4.0);
        assert_eq!(p.draw_link_degrade_factor(), 2.0);
        assert_eq!(p.stats().stragglers_armed, 1);
        assert_eq!(p.stats().links_degraded, 1);
        assert_eq!(p.stats().total_faults(), 2);
        // A factor at or below 1.0 disarms the class even at rate 1.0.
        let disarmed = FaultSpec {
            straggler_rate: 1.0,
            straggler_slowdown: 1.0,
            link_degrade_rate: 1.0,
            link_degrade_factor: 0.5,
            ..FaultSpec::none(2)
        };
        let mut p = FaultPlan::new(disarmed);
        assert_eq!(p.draw_straggler_factor(), 1.0);
        assert_eq!(p.draw_link_degrade_factor(), 1.0);
        assert_eq!(p.stats().total_faults(), 0);
    }

    #[test]
    fn straggler_draws_are_deterministic_per_stream() {
        let run = |stream| {
            let spec = FaultSpec {
                straggler_rate: 0.5,
                straggler_slowdown: 4.0,
                ..FaultSpec::none(33)
            };
            FaultPlan::for_stream(spec, stream).draw_straggler_factor()
        };
        let factors: Vec<f64> = (0..16).map(run).collect();
        assert_eq!(factors, (0..16).map(run).collect::<Vec<f64>>());
        assert!(factors.iter().any(|&f| f > 1.0), "rate 0.5 over 16 streams must fire");
        assert!(factors.contains(&1.0), "rate 0.5 must also spare some streams");
    }

    #[test]
    fn storage_faults_are_opt_in_counted_and_deterministic() {
        // `uniform` must not arm storage faults: damaged persisted state
        // is unrecoverable by retry, so the class has to be requested
        // explicitly (or via `chaos`).
        assert_eq!(FaultSpec::uniform(1, 0.5).torn_write_rate, 0.0);
        assert_eq!(FaultSpec::uniform(1, 0.5).snapshot_corrupt_rate, 0.0);
        assert!(!FaultSpec { torn_write_rate: 0.1, ..FaultSpec::none(1) }.is_zero());
        assert!(!FaultSpec { snapshot_corrupt_rate: 0.1, ..FaultSpec::none(1) }.is_zero());
        let armed = FaultSpec {
            torn_write_rate: 1.0,
            snapshot_corrupt_rate: 1.0,
            ..FaultSpec::none(2)
        };
        let mut p = FaultPlan::new(armed);
        let keep = p.draw_torn_write(100).expect("rate 1.0 must tear");
        assert!(keep < 100, "a torn write keeps a strict prefix, got {keep}");
        let bit = p.draw_snapshot_corruption(100).expect("rate 1.0 must corrupt");
        assert!(bit < 800, "flipped bit must land in the file, got {bit}");
        assert_eq!(p.stats().torn_writes, 1);
        assert_eq!(p.stats().snapshots_corrupted, 1);
        assert_eq!(p.stats().total_faults(), 2);
        // An empty payload cannot tear or decay, rate notwithstanding.
        assert!(p.draw_torn_write(0).is_none());
        assert!(p.draw_snapshot_corruption(0).is_none());
        let run = |stream| {
            let spec = FaultSpec {
                torn_write_rate: 0.5,
                snapshot_corrupt_rate: 0.5,
                ..FaultSpec::none(19)
            };
            let mut p = FaultPlan::for_stream(spec, stream);
            (0..32)
                .map(|_| (p.draw_torn_write(256), p.draw_snapshot_corruption(256)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "streams must be independent");
    }

    #[test]
    fn link_states_are_opt_in_counted_and_deterministic() {
        // `uniform` must not arm the topology classes: a severed link
        // defeats blind retry, so it has to be requested explicitly.
        assert_eq!(FaultSpec::uniform(1, 0.5).link_down_rate, 0.0);
        assert_eq!(FaultSpec::uniform(1, 0.5).link_flap_rate, 0.0);
        assert!(!FaultSpec { link_down_rate: 0.1, ..FaultSpec::none(1) }.is_zero());
        assert!(!FaultSpec { link_flap_rate: 0.1, ..FaultSpec::none(1) }.is_zero());
        let down = FaultSpec { link_down_rate: 1.0, ..FaultSpec::none(2) };
        let mut p = FaultPlan::new(down);
        assert_eq!(p.draw_link_state(), LinkHealth::Down);
        assert_eq!(p.stats().links_down, 1);
        assert_eq!(p.stats().total_faults(), 1);
        // Down is checked first: at rate 1.0 it shadows flapping.
        let both = FaultSpec {
            link_down_rate: 1.0,
            link_flap_rate: 1.0,
            link_flap_period_levels: 2,
            ..FaultSpec::none(2)
        };
        assert_eq!(FaultPlan::new(both).draw_link_state(), LinkHealth::Down);
        let flap = FaultSpec {
            link_flap_rate: 1.0,
            link_flap_period_levels: 3,
            ..FaultSpec::none(2)
        };
        let mut p = FaultPlan::new(flap);
        assert_eq!(p.draw_link_state(), LinkHealth::Flapping { period_levels: 3 });
        assert_eq!(p.stats().links_flapping, 1);
        // A zero flap window disarms the class even at rate 1.0.
        let disarmed = FaultSpec { link_flap_rate: 1.0, ..FaultSpec::none(2) };
        let mut p = FaultPlan::new(disarmed);
        assert_eq!(p.draw_link_state(), LinkHealth::Healthy);
        assert_eq!(p.stats().total_faults(), 0);
        let run = |stream| {
            let spec = FaultSpec {
                link_down_rate: 0.3,
                link_flap_rate: 0.3,
                link_flap_period_levels: 2,
                ..FaultSpec::none(29)
            };
            let mut p = FaultPlan::for_stream(spec, stream);
            (0..32).map(|_| p.draw_link_state()).collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6), "streams must be independent");
    }

    #[test]
    fn stats_merge_adds() {
        let mut a = FaultStats { alloc_faults: 1, kernel_faults: 2, ..Default::default() };
        let b = FaultStats { kernel_faults: 3, exchanges_dropped: 4, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.kernel_faults, 5);
        assert_eq!(a.exchanges_dropped, 4);
        assert_eq!(a.total_faults(), 10);
    }
}
