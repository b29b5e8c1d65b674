//! Crash-recovery drill for the persistence plane (not a paper figure):
//! runs a multi-source BFS campaign with durable checkpoints on each
//! driver in turn — single GPU, 1-D x4, 2-D 2x2 — and can kill every
//! campaign mid-traversal so CI can restart it and assert bit-identical
//! results across the crash.
//!
//! ```text
//! persist --state-dir=DIR [--sources=K] [--kill-after=N]
//! ```
//!
//! One line per completed (driver, source) goes to stdout, drivers in
//! campaign order and sources ascending:
//!
//! ```text
//! driver=<single|1d|2d> source=<s> depth=<d> visited=<v> digest=<hex>
//! ```
//!
//! Campaign progress is a manifest (`manifest.txt` in the state
//! directory) holding exactly those lines, rewritten via
//! write-temp-then-rename after every completed source — the same
//! atomicity protocol as the snapshots underneath. A restarted process
//! replays the manifest lines verbatim, skips the completed sources,
//! and finishes the rest, so the concatenated stdout of any
//! kill/restart sequence must equal the stdout of one uninterrupted
//! run. With `--kill-after=N`, the N+1-th unfinished source of each
//! driver's campaign runs under a doomed level cap that aborts
//! mid-traversal (leaving its durable checkpoint behind) and the rest
//! of that campaign is skipped; once every driver has crashed this way
//! the process exits with status 3, so one restart resumes a checkpoint
//! on every driver. Timing goes to stderr only; stdout is deterministic
//! by construction.

use bench::{arg_value, pick_sources, result_digest};
use enterprise::multi_gpu::{MultiGpuConfig, MultiGpuEnterprise};
use enterprise::multi_gpu_2d::{Grid2DConfig, MultiGpu2DEnterprise};
use enterprise::{
    BfsError, Enterprise, EnterpriseConfig, PersistPolicy, RecoveryReport, WatchdogPolicy,
};
use enterprise_graph::{gen::kronecker, Csr, VertexId};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

const MANIFEST: &str = "manifest.txt";

/// The drivers, in campaign order.
const DRIVERS: [&str; 3] = ["single", "1d", "2d"];

/// What the drill keeps of one finished traversal.
struct Run {
    depth: u32,
    visited: usize,
    digest: u64,
    time_ms: f64,
    recovery: RecoveryReport,
}

/// Runs one traversal from `source` on a fresh instance of `driver`
/// with persistence `persist` and watchdog `watchdog`.
fn run(
    driver: &str,
    g: &Csr,
    source: VertexId,
    persist: PersistPolicy,
    watchdog: WatchdogPolicy,
) -> Result<Run, BfsError> {
    let persist = Some(persist);
    macro_rules! keep {
        ($r:expr) => {
            $r.map(|r| Run {
                depth: r.depth,
                visited: r.visited,
                digest: result_digest(&r.levels, &r.parents),
                time_ms: r.time_ms,
                recovery: r.recovery,
            })
        };
    }
    match driver {
        "single" => {
            let cfg = EnterpriseConfig { persist, watchdog, ..EnterpriseConfig::default() };
            keep!(Enterprise::new(cfg, g).try_bfs(source))
        }
        "1d" => {
            let cfg = MultiGpuConfig { persist, watchdog, ..MultiGpuConfig::k40s(4) };
            keep!(MultiGpuEnterprise::new(cfg, g).try_bfs(source))
        }
        "2d" => {
            let cfg = Grid2DConfig { persist, watchdog, ..Grid2DConfig::k40s(2, 2) };
            keep!(MultiGpu2DEnterprise::new(cfg, g).try_bfs(source))
        }
        other => unreachable!("unknown driver {other}"),
    }
}

/// Parses the completed-source lines out of a manifest body, keyed by
/// (campaign position of the driver, source).
fn parse_manifest(body: &str) -> BTreeMap<(usize, u32), String> {
    let mut done = BTreeMap::new();
    for line in body.lines() {
        let Some(rest) = line.strip_prefix("driver=") else { continue };
        let Some((driver, rest)) = rest.split_once(" source=") else { continue };
        let Some(d) = DRIVERS.iter().position(|&name| name == driver) else { continue };
        let Some((s, _)) = rest.split_once(' ') else { continue };
        let Ok(s) = s.parse::<u32>() else { continue };
        done.insert((d, s), line.to_owned());
    }
    done
}

/// Rewrites the manifest atomically (temp file + rename).
fn write_manifest(dir: &Path, done: &BTreeMap<(usize, u32), String>) {
    let body: String = done.values().map(|l| format!("{l}\n")).collect();
    let tmp = dir.join(format!("{MANIFEST}.tmp"));
    std::fs::write(&tmp, body).expect("write manifest temp");
    std::fs::rename(&tmp, dir.join(MANIFEST)).expect("commit manifest");
}

fn main() {
    let state_dir = PathBuf::from(
        arg_value("state-dir").expect("usage: persist --state-dir=DIR [--sources=K] [--kill-after=N]"),
    );
    let source_count: usize =
        arg_value("sources").map_or(4, |s| s.parse().expect("invalid --sources"));
    let kill_after: Option<usize> =
        arg_value("kill-after").map(|s| s.parse().expect("invalid --kill-after"));
    std::fs::create_dir_all(&state_dir).expect("create state dir");

    let g = kronecker(12, 16, bench::run_seed());
    let sources = pick_sources(&g, source_count, bench::run_seed() ^ 0x9E75);

    let mut done = std::fs::read_to_string(state_dir.join(MANIFEST))
        .map(|b| parse_manifest(&b))
        .unwrap_or_default();
    if !done.is_empty() {
        eprintln!(
            "resuming campaign: {} of {} runs already durable",
            done.len(),
            DRIVERS.len() * sources.len()
        );
    }

    let mut finished = 0usize;
    let mut warm_restarts = 0u32;
    let mut crashed = false;
    for (d, &driver) in DRIVERS.iter().enumerate() {
        let mut ran_this_process = 0usize;
        for &s in &sources {
            if done.contains_key(&(d, s)) {
                continue;
            }
            // Each source checkpoints into its own subdirectory: the layout
            // snapshot is shared per (graph, config) but the mid-traversal
            // checkpoint is per-source, and the drill must resume each
            // interrupted source from *its* checkpoint.
            let src_dir = state_dir.join(format!("{driver}_src_{s}"));
            let doomed = kill_after == Some(ran_this_process);
            // A level cap of 2 aborts the traversal after its durable
            // level-2 checkpoint — a deterministic stand-in for `kill -9`
            // that still exercises the restart path.
            let watchdog = WatchdogPolicy {
                max_levels: doomed.then_some(2),
                ..WatchdogPolicy::default()
            };
            match run(driver, &g, s, PersistPolicy::with_checkpoints(&src_dir, 1), watchdog) {
                Ok(r) => {
                    if r.recovery.warm_restart || r.recovery.resumed_at_level.is_some() {
                        warm_restarts += 1;
                    }
                    let line = format!(
                        "driver={driver} source={s} depth={} visited={} digest={:016x}",
                        r.depth, r.visited, r.digest,
                    );
                    done.insert((d, s), line);
                    write_manifest(&state_dir, &done);
                    eprintln!(
                        "{driver} source {s}: {:.3} sim-ms, {} snapshot(s) persisted{}",
                        r.time_ms,
                        r.recovery.snapshots_persisted,
                        r.recovery
                            .resumed_at_level
                            .map_or(String::new(), |l| format!(", resumed at level {l}")),
                    );
                }
                Err(e) if doomed => {
                    eprintln!(
                        "simulated crash on {driver} source {s} ({e}); durable state left in place"
                    );
                    crashed = true;
                    break;
                }
                Err(e) => panic!("{driver} source {s} failed outside the scripted crash: {e}"),
            }
            ran_this_process += 1;
            finished += 1;
        }
    }
    if crashed {
        std::process::exit(3);
    }

    // Deterministic stdout: the manifest IS the output, so any
    // kill/restart sequence prints exactly what one clean run prints.
    for line in done.values() {
        println!("{line}");
    }
    eprintln!(
        "campaign complete: {} runs, {} finished this process, {} warm restart(s)",
        done.len(),
        finished,
        warm_restarts
    );
}
