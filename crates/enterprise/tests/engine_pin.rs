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

use enterprise::multi_gpu::{MultiBfsResult, MultiGpuConfig, MultiGpuEnterprise};
use enterprise::multi_gpu_2d::{Grid2DConfig, MultiGpu2DEnterprise};
use enterprise::{
    BatchPolicy, BatchReport, BatchSource, BfsError, BfsResult, Enterprise, EnterpriseConfig,
    FaultSpec, RebalancePolicy, RecoveryReport, RoutePolicy, VerifyPolicy, WatchdogPolicy,
};
use enterprise_graph::gen::kronecker;
use enterprise_graph::Csr;
use std::fmt::Write;

const SOURCES: [u32; 8] = [1, 8, 15, 22, 29, 36, 43, 50];
const CHAOS_SEED: u64 = 3;
/// Per-launch chaos rate on the fleets; one device sees far fewer
/// launches per level, so the single-GPU cells run hotter.
const CHAOS_RATE: f64 = 0.004;
const SINGLE_CHAOS_RATE: f64 = 0.02;

/// FNV-1a over the canonical text of a cell.
fn fnv(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
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
