//! Result-cache soundness: a warm `--cache` replay must be byte-identical
//! to the cold run (stdout, exit code, and artifacts), corruption of any
//! entry must degrade to recomputation without a panic or a wrong answer,
//! and the `bbv cache` admin subcommands must report and repair the store.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::time::Instant;

fn bbv(args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_bbv"));
    cmd.args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("bbv runs")
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bbv-cache-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Backdates `path`'s mtime past the gc grace window, simulating a file
/// whose writer is long dead (vs. a concurrent writer's in-flight state).
fn age_past_grace(path: &std::path::Path) {
    let f = std::fs::File::options().write(true).open(path).unwrap();
    f.set_modified(std::time::SystemTime::now() - bb_persist::TEMP_GRACE * 2)
        .unwrap();
}

fn entry_files(dir: &std::path::Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "bbc"))
        .collect();
    files.sort();
    files
}

#[test]
fn warm_verify_replays_byte_identically_and_faster() {
    let dir = tmp_dir("warm");
    let args = [
        "verify", "ms-queue", "--threads", "2", "--ops", "2",
        "--cache", dir.to_str().unwrap(),
    ];
    let t0 = Instant::now();
    let cold = bbv(&args, &[]);
    let cold_time = t0.elapsed();
    assert_eq!(cold.status.code(), Some(0), "{}", String::from_utf8_lossy(&cold.stderr));
    assert_eq!(entry_files(&dir).len(), 1, "one conclusive verdict, one entry");

    let t1 = Instant::now();
    let warm = bbv(&args, &[]);
    let warm_time = t1.elapsed();
    assert_eq!(warm.status.code(), Some(0));
    assert_eq!(stdout_of(&warm), stdout_of(&cold), "cache hit must replay stdout verbatim");

    // A hit does no exploration or refinement; it should beat a full
    // verification by a wide margin. Only assert when the cold run was slow
    // enough for the comparison to be noise-free.
    if cold_time.as_millis() > 400 {
        assert!(
            warm_time * 2 < cold_time,
            "warm {warm_time:?} should be well under cold {cold_time:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn refuted_verdicts_are_cached_with_their_exit_code() {
    let dir = tmp_dir("refuted");
    let args = [
        "verify", "hm-list-buggy", "--threads", "2", "--ops", "2", "--domain", "1",
        "--cache", dir.to_str().unwrap(),
    ];
    let cold = bbv(&args, &[]);
    assert_eq!(cold.status.code(), Some(1));
    let warm = bbv(&args, &[]);
    assert_eq!(warm.status.code(), Some(1), "a hit must replay the refuted exit code");
    assert_eq!(stdout_of(&warm), stdout_of(&cold));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn inconclusive_runs_are_never_cached() {
    let dir = tmp_dir("inconclusive");
    let args = [
        "verify", "ms-queue", "--threads", "2", "--ops", "2",
        "--max-states", "200", "--no-fallback",
        "--cache", dir.to_str().unwrap(),
    ];
    let run = bbv(&args, &[]);
    assert_eq!(run.status.code(), Some(2));
    assert_eq!(
        entry_files(&dir).len(),
        0,
        "budget-dependent inconclusive outcomes must not be memoized"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_entry_recomputes_then_self_heals() {
    let dir = tmp_dir("corrupt");
    let args = [
        "verify", "treiber", "--threads", "2", "--ops", "1", "--domain", "1",
        "--cache", dir.to_str().unwrap(),
    ];
    let cold = bbv(&args, &[]);
    assert_eq!(cold.status.code(), Some(0));
    let files = entry_files(&dir);
    assert_eq!(files.len(), 1);

    // Flip a byte in the middle of the entry: checksum breaks.
    let mut bytes = std::fs::read(&files[0]).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&files[0], &bytes).unwrap();
    let verify = bbv(&["cache", "verify", dir.to_str().unwrap()], &[]);
    assert_eq!(verify.status.code(), Some(1), "cache verify must flag the corrupt entry");

    // The corrupted entry misses; the run recomputes the same answer and
    // re-stores an intact entry.
    let recomputed = bbv(&args, &[]);
    assert_eq!(recomputed.status.code(), Some(0), "corruption must never crash a run");
    assert_eq!(stdout_of(&recomputed), stdout_of(&cold));
    let verify = bbv(&["cache", "verify", dir.to_str().unwrap()], &[]);
    assert_eq!(verify.status.code(), Some(0), "the recompute must heal the entry");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_read_fault_degrades_to_recompute() {
    let dir = tmp_dir("fault");
    let args = [
        "verify", "treiber", "--threads", "2", "--ops", "1", "--domain", "1",
        "--cache", dir.to_str().unwrap(),
    ];
    let cold = bbv(&args, &[]);
    assert_eq!(cold.status.code(), Some(0));

    // The fault sabotages the (intact) entry read: the run must miss,
    // recompute, and still answer identically.
    let faulted = bbv(&args, &[("BB_FAULT", "cache-read:1")]);
    assert_eq!(faulted.status.code(), Some(0));
    assert_eq!(stdout_of(&faulted), stdout_of(&cold));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quotient_artifacts_replay_byte_identically_from_cache() {
    let dir = tmp_dir("quotient");
    let aut1 = std::env::temp_dir().join(format!("bbv-q1-{}.aut", std::process::id()));
    let aut2 = std::env::temp_dir().join(format!("bbv-q2-{}.aut", std::process::id()));
    let common = [
        "quotient", "treiber", "--threads", "2", "--ops", "1", "--domain", "1",
        "--cache", dir.to_str().unwrap(),
    ];
    let mut args1: Vec<&str> = common.to_vec();
    args1.extend(["--aut", aut1.to_str().unwrap()]);
    let cold = bbv(&args1, &[]);
    assert_eq!(cold.status.code(), Some(0), "{}", String::from_utf8_lossy(&cold.stderr));

    // The hit writes the memoized .aut bytes to *this* invocation's path.
    let mut args2: Vec<&str> = common.to_vec();
    args2.extend(["--aut", aut2.to_str().unwrap()]);
    let warm = bbv(&args2, &[]);
    assert_eq!(warm.status.code(), Some(0));
    let a1 = std::fs::read(&aut1).expect("cold .aut written");
    let a2 = std::fs::read(&aut2).expect("warm .aut written from cache");
    assert_eq!(a1, a2, "cached quotient artifact must be byte-identical");
    let _ = std::fs::remove_file(&aut1);
    let _ = std::fs::remove_file(&aut2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn distinct_configurations_use_distinct_entries() {
    let dir = tmp_dir("keys");
    let base = [
        "verify", "treiber", "--threads", "2", "--ops", "1", "--domain", "1",
        "--cache", dir.to_str().unwrap(),
    ];
    assert_eq!(bbv(&base, &[]).status.code(), Some(0));
    assert_eq!(entry_files(&dir).len(), 1);

    // A different property selection is a different result: new entry.
    let mut lin_only: Vec<&str> = base.to_vec();
    lin_only.push("--no-lock-freedom");
    assert_eq!(bbv(&lin_only, &[]).status.code(), Some(0));
    assert_eq!(entry_files(&dir).len(), 2);

    // A different --jobs is the *same* result: must hit entry one.
    let mut jobs: Vec<&str> = base.to_vec();
    jobs.extend(["--jobs", "4"]);
    assert_eq!(bbv(&jobs, &[]).status.code(), Some(0));
    assert_eq!(entry_files(&dir).len(), 2, "--jobs must not be part of the cache key");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The gc-vs-writer interleaving, replayed deterministically: a sabotaged
/// read (`BB_FAULT=cache-read`) makes a run judge an *intact* entry corrupt
/// and rewrite it; a gc interleaved anywhere around that rewrite must never
/// delete the entry (its mtime is inside the grace window) nor the writer's
/// pending temp file.
#[test]
fn gc_interleaved_with_rewriting_run_never_deletes_live_state() {
    let dir = tmp_dir("gc-race");
    let args = [
        "verify", "treiber", "--threads", "2", "--ops", "1", "--domain", "1",
        "--cache", dir.to_str().unwrap(),
    ];
    let cold = bbv(&args, &[]);
    assert_eq!(cold.status.code(), Some(0));
    let files = entry_files(&dir);
    assert_eq!(files.len(), 1);

    // Interleaving step 1: a run whose cache read is sabotaged misses and
    // rewrites the entry — the slot now carries a just-renamed file.
    let rewrite = bbv(&args, &[("BB_FAULT", "cache-read:1")]);
    assert_eq!(rewrite.status.code(), Some(0));
    assert_eq!(stdout_of(&rewrite), stdout_of(&cold));

    // Interleaving step 2: another writer is mid-store (temp file written,
    // rename pending — the `checkpoint-write` crash window).
    let pending = dir.join(".0123456789abcdef.bbc.tmp.424242");
    std::fs::write(&pending, b"half-written entry").unwrap();

    // Interleaving step 3: gc runs. It must spare both the just-renamed
    // entry and the pending temp file.
    let gc = bbv(&["cache", "gc", dir.to_str().unwrap()], &[]);
    assert_eq!(gc.status.code(), Some(0));
    assert!(stdout_of(&gc).contains("removed : 0"), "{}", stdout_of(&gc));
    assert!(pending.exists(), "gc deleted a live writer's temp file");
    assert_eq!(entry_files(&dir), files, "gc deleted a just-renamed entry");

    // The entry still replays byte-identically after the gc.
    let warm = bbv(&args, &[]);
    assert_eq!(warm.status.code(), Some(0));
    assert_eq!(stdout_of(&warm), stdout_of(&cold));

    // Epilogue: once the temp file ages out (its writer is dead), gc
    // reclaims it while still keeping the intact entry.
    age_past_grace(&pending);
    let gc = bbv(&["cache", "gc", dir.to_str().unwrap()], &[]);
    assert_eq!(gc.status.code(), Some(0));
    assert!(!pending.exists(), "aged temp residue must be swept");
    assert_eq!(entry_files(&dir), files);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_admin_stats_verify_gc_roundtrip() {
    let dir = tmp_dir("admin");
    let args = [
        "verify", "treiber", "--threads", "2", "--ops", "1", "--domain", "1",
        "--cache", dir.to_str().unwrap(),
    ];
    assert_eq!(bbv(&args, &[]).status.code(), Some(0));
    std::fs::write(dir.join("00000000deadbeef.bbc"), b"garbage").unwrap();
    // Age it past the gc grace window: a *fresh* unreadable file is treated
    // as a concurrent writer's in-flight state and spared.
    age_past_grace(&dir.join("00000000deadbeef.bbc"));

    let stats = bbv(&["cache", "stats", dir.to_str().unwrap()], &[]);
    assert_eq!(stats.status.code(), Some(0));
    let text = stdout_of(&stats);
    assert!(text.contains("entries : 1"), "{text}");
    assert!(text.contains("corrupt : 1"), "{text}");

    let verify = bbv(&["cache", "verify", dir.to_str().unwrap()], &[]);
    assert_eq!(verify.status.code(), Some(1));
    assert!(stdout_of(&verify).contains("corrupt : 1"));

    let gc = bbv(&["cache", "gc", dir.to_str().unwrap()], &[]);
    assert_eq!(gc.status.code(), Some(0));
    assert!(stdout_of(&gc).contains("removed : 1"));

    let verify = bbv(&["cache", "verify", dir.to_str().unwrap()], &[]);
    assert_eq!(verify.status.code(), Some(0), "gc must leave only intact entries");
    assert!(stdout_of(&verify).contains("intact  : 1"));
    let _ = std::fs::remove_dir_all(&dir);
}
