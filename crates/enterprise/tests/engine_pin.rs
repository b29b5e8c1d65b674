//! Engine pin: one fingerprint per (driver, fault setting, run mode)
//! cell, asserted against a constant captured from the reference
//! engine. Refactors of the traversal loops must leave every cell
//! bit-identical: the result digest, simulated time, interconnect bytes
//! and every recovery counter of every run.
//!
//! The cells cross three drivers (single GPU, 1-D x4, 2-D 2x2), two
//! fault settings (clean and `FaultSpec::chaos`) and two run modes
//! (sequential `try_bfs` per source, and one 8-source
//! `BatchPolicy::pipelined(4)` batch). A mismatch prints the cell and
//! its new fingerprint.
//!
//! A second table pins the persistence plane, one row per driver: the
//! bytes a doomed checkpointing run leaves on disk, the run that resumes
//! from them (with the layout it publishes), and three storage-faulted
//! instances in turn over one layout-only state directory.

use enterprise::multi_gpu::{MultiBfsResult, MultiGpuConfig, MultiGpuEnterprise};
use enterprise::multi_gpu_2d::{Grid2DConfig, MultiGpu2DEnterprise};
use enterprise::{
    BatchPolicy, BatchReport, BatchSource, BfsError, BfsResult, Enterprise, EnterpriseConfig,
    FaultSpec, PersistPolicy, RebalancePolicy, RecoveryReport, RoutePolicy, VerifyPolicy,
    WatchdogPolicy,
};
use enterprise_graph::gen::{kronecker, road_grid};
use enterprise_graph::Csr;
use std::fmt::Write;
use std::path::{Path, PathBuf};

const SOURCES: [u32; 8] = [1, 8, 15, 22, 29, 36, 43, 50];
const CHAOS_SEED: u64 = 3;
/// Per-launch chaos rate on the fleets; one device sees far fewer
/// launches per level, so the single-GPU cells run hotter.
const CHAOS_RATE: f64 = 0.004;
const SINGLE_CHAOS_RATE: f64 = 0.02;

/// FNV-1a over the canonical text of a cell (or a file's bytes).
fn fnv(data: impl AsRef<[u8]>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data.as_ref() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn digest(levels: &[Option<u32>], parents: &[Option<u32>]) -> u64 {
    let mut text = String::new();
    for (l, p) in levels.iter().zip(parents) {
        write!(text, "{l:?}/{p:?},").unwrap();
    }
    fnv(&text)
}

/// Every recovery counter, f64s as raw bits (the Debug form of the
/// whole report also covers the fault counters and eviction lists).
fn recovery_text(r: &RecoveryReport) -> String {
    format!(
        "{:?}|{:x}|{:x}|{:x}|{:x}",
        r,
        r.backoff_ms.to_bits(),
        r.repartition_ms.to_bits(),
        r.rebalance_ms.to_bits(),
        r.levels_replayed
    )
}

fn single_text(r: &BfsResult) -> String {
    format!(
        "{:x}|{:x}|0|{}|{}",
        digest(&r.levels, &r.parents),
        r.time_ms.to_bits(),
        r.traversed_edges,
        recovery_text(&r.recovery)
    )
}

fn multi_text(r: &MultiBfsResult) -> String {
    format!(
        "{:x}|{:x}|{}|{}|{}",
        digest(&r.levels, &r.parents),
        r.time_ms.to_bits(),
        r.communication_bytes,
        r.traversed_edges,
        recovery_text(&r.recovery)
    )
}

fn sequential<R>(run: &mut dyn FnMut(u32) -> Result<R, BfsError>, text: fn(&R) -> String) -> u64 {
    let mut all = String::new();
    for &s in &SOURCES {
        match run(s) {
            Ok(r) => writeln!(all, "{s}: ok {}", text(&r)).unwrap(),
            Err(e) => writeln!(all, "{s}: err {e:?}").unwrap(),
        }
    }
    fnv(&all)
}

fn batch<R>(report: &BatchReport<R>, text: fn(&R) -> String) -> u64 {
    assert!(report.accounted(), "batch accounting broken");
    let mut all = format!(
        "{} {} {} {} {} {} {:x}\n",
        report.completed,
        report.hedge_wins,
        report.poisoned,
        report.shed,
        report.retries,
        report.hedges,
        report.batch_ms.to_bits()
    );
    for run in &report.runs {
        writeln!(
            all,
            "{}: {:?} {} {:x} {:x} {}",
            run.source,
            run.outcome,
            run.attempts,
            run.time_ms.to_bits(),
            run.digest,
            run.result.as_ref().map(text).unwrap_or_default()
        )
        .unwrap();
    }
    fnv(&all)
}

fn queue() -> Vec<BatchSource> {
    SOURCES.iter().map(|&s| BatchSource::new(s)).collect()
}

fn faults(chaos: bool, rate: f64) -> Option<FaultSpec> {
    // Every fault class at a rate that leaves a mix of completed,
    // replayed, spliced and poisoned sources, with stragglers and dead
    // links raised so the routing ladder reroutes and bounces.
    chaos.then(|| FaultSpec {
        straggler_rate: 0.5,
        link_down_rate: 0.2,
        link_degrade_rate: 0.3,
        ..FaultSpec::chaos(CHAOS_SEED, rate)
    })
}

fn single_config(chaos: bool) -> EnterpriseConfig {
    EnterpriseConfig {
        faults: faults(chaos, SINGLE_CHAOS_RATE),
        sanitize: false,
        verify: if chaos {
            VerifyPolicy::full()
        } else {
            VerifyPolicy::disabled()
        },
        watchdog: if chaos {
            WatchdogPolicy::hang_detection(4)
        } else {
            WatchdogPolicy::disabled()
        },
        scrub_levels: chaos.then_some(2),
        ..EnterpriseConfig::default()
    }
}

fn one_d_config(chaos: bool) -> MultiGpuConfig {
    MultiGpuConfig {
        faults: faults(chaos, CHAOS_RATE),
        sanitize: false,
        verify: if chaos {
            VerifyPolicy::full()
        } else {
            VerifyPolicy::disabled()
        },
        watchdog: if chaos {
            WatchdogPolicy::hang_detection(4)
        } else {
            WatchdogPolicy::disabled()
        },
        scrub_levels: chaos.then_some(2),
        rebalance: if chaos {
            RebalancePolicy::on()
        } else {
            RebalancePolicy::disabled()
        },
        route: if chaos {
            RoutePolicy::on()
        } else {
            RoutePolicy::disabled()
        },
        ..MultiGpuConfig::k40s(4)
    }
}

fn two_d_config(chaos: bool) -> Grid2DConfig {
    Grid2DConfig {
        faults: faults(chaos, CHAOS_RATE),
        sanitize: false,
        verify: if chaos {
            VerifyPolicy::full()
        } else {
            VerifyPolicy::disabled()
        },
        watchdog: if chaos {
            WatchdogPolicy::hang_detection(4)
        } else {
            WatchdogPolicy::disabled()
        },
        scrub_levels: chaos.then_some(2),
        rebalance: if chaos {
            RebalancePolicy::on()
        } else {
            RebalancePolicy::disabled()
        },
        route: if chaos {
            RoutePolicy::on()
        } else {
            RoutePolicy::disabled()
        },
        ..Grid2DConfig::k40s(2, 2)
    }
}

fn cell(g: &Csr, driver: &str, chaos: bool, lanes: bool) -> u64 {
    match (driver, lanes) {
        ("single", false) => {
            let mut sys = Enterprise::new(single_config(chaos), g);
            sequential(&mut |s| sys.try_bfs(s), single_text)
        }
        ("single", true) => {
            let mut sys = Enterprise::new(single_config(chaos), g);
            batch(
                &sys.batch(&queue(), &BatchPolicy::pipelined(4)),
                single_text,
            )
        }
        ("1d", false) => {
            let mut sys = MultiGpuEnterprise::new(one_d_config(chaos), g);
            sequential(&mut |s| sys.try_bfs(s), multi_text)
        }
        ("1d", true) => {
            let mut sys = MultiGpuEnterprise::new(one_d_config(chaos), g);
            batch(&sys.batch(&queue(), &BatchPolicy::pipelined(4)), multi_text)
        }
        ("2d", false) => {
            let mut sys = MultiGpu2DEnterprise::new(two_d_config(chaos), g);
            sequential(&mut |s| sys.try_bfs(s), multi_text)
        }
        ("2d", true) => {
            let mut sys = MultiGpu2DEnterprise::new(two_d_config(chaos), g);
            batch(&sys.batch(&queue(), &BatchPolicy::pipelined(4)), multi_text)
        }
        _ => unreachable!("unknown driver {driver}"),
    }
}

/// `(driver, chaos, pipelined lanes, fingerprint)`.
const PINS: [(&str, bool, bool, u64); 12] = [
    ("single", false, false, 0xe5e4b0b88c5a270d),
    ("single", false, true, 0x1524b5fec22e827a),
    ("single", true, false, 0x4a6a7e1f10696078),
    ("single", true, true, 0xc930c229c26e272d),
    ("1d", false, false, 0xe8ad25a9a2e05142),
    ("1d", false, true, 0xb62046e5950e1a01),
    ("1d", true, false, 0xe7a1581608487a8c),
    ("1d", true, true, 0x1923a4c6faa9a5c5),
    ("2d", false, false, 0xbfbf1e8d773e78a4),
    ("2d", false, true, 0xe001f870f814b2f6),
    ("2d", true, false, 0xbb82ef0dd1172ec1),
    ("2d", true, true, 0x60a39740af730e4e),
];

#[test]
fn every_engine_cell_matches_its_pin() {
    let g = kronecker(9, 8, 5);
    let mut mismatches = Vec::new();
    for &(driver, chaos, lanes, pin) in &PINS {
        let got = cell(&g, driver, chaos, lanes);
        if got != pin {
            mismatches.push(format!(
                "(\"{driver}\", {chaos}, {lanes}, 0x{got:016x}), // was 0x{pin:016x}"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "engine pins moved:\n{}",
        mismatches.join("\n")
    );
}

/// Source of every persistence cell: deep enough on the road grid that a
/// run capped at four levels dies mid-traversal.
const PERSIST_SOURCE: u32 = 1;
/// Seed of the storage-faulted layout-only instances.
const STORAGE_SEED: u64 = 11;

/// Builds and runs one instance of a driver from `PERSIST_SOURCE`, with a
/// persistence policy, a level cap and a fault spec.
type PersistRun<'a, R> =
    &'a dyn Fn(PersistPolicy, Option<u32>, Option<FaultSpec>) -> Result<R, BfsError>;

fn pin_dir(name: &str) -> PathBuf {
    let d = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("engine_pin")
        .join(name);
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// FNV of a file's bytes, or `absent`.
fn file_pin(path: &Path) -> String {
    std::fs::read(path).map_or("absent".into(), |b| format!("{:x}", fnv(b)))
}

/// One driver's three persistence pins: (a) the checkpoint files a run
/// capped at four levels leaves behind, (b) the resumed run plus the
/// layout it publishes, (c) the full recovery report of each of three
/// fresh instances over one layout-only directory with torn writes and
/// snapshot corruption at 0.5.
fn persist_pins<R>(
    driver: &str,
    run: PersistRun<'_, R>,
    text: fn(&R) -> String,
    report: fn(&R) -> &RecoveryReport,
) -> [u64; 3] {
    let dir = pin_dir(&format!("{driver}-ckpt"));
    let doomed = run(PersistPolicy::with_checkpoints(&dir, 1), Some(4), None);
    assert!(
        doomed.is_err(),
        "{driver}: the capped run must die mid-traversal"
    );
    let a = fnv(format!(
        "{}|{}",
        file_pin(&dir.join("checkpoint.snap")),
        file_pin(&dir.join("checkpoint.delta.snap"))
    ));
    let resumed = run(PersistPolicy::with_checkpoints(&dir, 1), None, None)
        .unwrap_or_else(|e| panic!("{driver}: restart must recover: {e}"));
    assert_eq!(report(&resumed).resumed_at_level, Some(4), "{driver}");
    let b = fnv(format!(
        "{}|{}",
        text(&resumed),
        file_pin(&dir.join("layout.snap"))
    ));
    let dir = pin_dir(&format!("{driver}-storage"));
    let spec = FaultSpec {
        torn_write_rate: 0.5,
        snapshot_corrupt_rate: 0.5,
        ..FaultSpec::none(STORAGE_SEED)
    };
    let mut all = String::new();
    for _ in 0..3 {
        match run(PersistPolicy::layout_only(&dir), None, Some(spec)) {
            Ok(r) => writeln!(all, "ok {}", recovery_text(report(&r))).unwrap(),
            Err(e) => writeln!(all, "err {e:?}").unwrap(),
        }
    }
    [a, b, fnv(all)]
}

fn watchdog(max_levels: Option<u32>) -> WatchdogPolicy {
    WatchdogPolicy {
        max_levels,
        ..WatchdogPolicy::default()
    }
}

fn persist_cell(g: &Csr, driver: &str) -> [u64; 3] {
    match driver {
        "single" => persist_pins(
            driver,
            &|persist, cap, faults| {
                let cfg = EnterpriseConfig {
                    persist: Some(persist),
                    watchdog: watchdog(cap),
                    faults,
                    ..EnterpriseConfig::default()
                };
                Enterprise::new(cfg, g).try_bfs(PERSIST_SOURCE)
            },
            single_text,
            |r| &r.recovery,
        ),
        "1d" => persist_pins(
            driver,
            &|persist, cap, faults| {
                let cfg = MultiGpuConfig {
                    persist: Some(persist),
                    watchdog: watchdog(cap),
                    faults,
                    ..MultiGpuConfig::k40s(4)
                };
                MultiGpuEnterprise::new(cfg, g).try_bfs(PERSIST_SOURCE)
            },
            multi_text,
            |r| &r.recovery,
        ),
        "2d" => persist_pins(
            driver,
            &|persist, cap, faults| {
                let cfg = Grid2DConfig {
                    persist: Some(persist),
                    watchdog: watchdog(cap),
                    faults,
                    ..Grid2DConfig::k40s(2, 2)
                };
                MultiGpu2DEnterprise::new(cfg, g).try_bfs(PERSIST_SOURCE)
            },
            multi_text,
            |r| &r.recovery,
        ),
        _ => unreachable!("unknown driver {driver}"),
    }
}

/// `(driver, [checkpoint files, resumed run + layout, storage-faulted
/// reports])`.
const PERSIST_PINS: [(&str, [u64; 3]); 3] = [
    (
        "single",
        [0xe89cd5d0cdafb3ee, 0x212e3dd5fa575ab0, 0x1f5208ecff65e125],
    ),
    (
        "1d",
        [0xbabb35583363b61f, 0x0d169520514e9860, 0x1f5208ecff65e125],
    ),
    (
        "2d",
        [0x8604b82ccd0c8e53, 0x50517b2e6b2d4194, 0x1f5208ecff65e125],
    ),
];

#[test]
fn every_persistence_cell_matches_its_pin() {
    let g = road_grid(16, 16, 0.05, 7);
    let mut mismatches = Vec::new();
    for &(driver, pins) in &PERSIST_PINS {
        let got = persist_cell(&g, driver);
        if got != pins {
            mismatches.push(format!(
                "(\"{driver}\", [0x{:016x}, 0x{:016x}, 0x{:016x}]), // was {pins:x?}",
                got[0], got[1], got[2]
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "persistence pins moved:\n{}",
        mismatches.join("\n")
    );
}
