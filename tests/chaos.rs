//! End-to-end chaos engineering gate: deterministic fault injection driven
//! through the Monte Carlo campaign every figure binary runs.
//!
//! The headline test arms a plan of Newton stalls and worker panics over
//! a small QLC campaign and asserts the whole degraded-run contract at
//! once: every failed run leaves a hole exactly where the plan's schedule
//! says, the surviving runs are bit-identical to a clean campaign, the
//! streaming tracker saw successes only, and every failed run leaves
//! exactly one post-mortem bundle carrying its run index and seed.
//!
//! Chaos state is process-global, so every test that arms a plan
//! serializes on [`CHAOS_LOCK`] and disarms on drop.

use oxterm_bench::campaigns::{health_line, mc_campaign};
use oxterm_chaos::{FaultKind, FaultPlan};
use oxterm_mlc::levels::LevelAllocation;
use oxterm_rram::params::OxramParams;
use oxterm_telemetry::LevelTracker;
use std::sync::{Mutex, MutexGuard};

static CHAOS_LOCK: Mutex<()> = Mutex::new(());

/// Serializes chaos-arming tests and guarantees a disarmed exit even when
/// an assertion panics mid-test.
struct ChaosSession(#[allow(dead_code)] MutexGuard<'static, ()>);

impl ChaosSession {
    fn arm(plan: FaultPlan) -> Self {
        let guard = CHAOS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        oxterm_chaos::arm(plan);
        let _ = oxterm_chaos::drain_injections();
        ChaosSession(guard)
    }
}

impl Drop for ChaosSession {
    fn drop(&mut self) {
        oxterm_chaos::disarm();
        let _ = oxterm_chaos::drain_injections();
    }
}

#[test]
fn fault_schedule_is_deterministic_and_seed_sensitive() {
    let spec = "newton_stall:p=0.05,nan_stamp:p=0.02,panic:p=0.01,seed=42";
    let a = FaultPlan::parse(spec).expect("spec parses");
    let b = FaultPlan::parse(spec).expect("spec parses");
    assert_eq!(a.canonical(), b.canonical());
    assert_eq!(a.schedule(400), b.schedule(400));
    assert!(
        !a.schedule(400).is_empty(),
        "a 400-run schedule at these rates must fire"
    );

    let reseeded = FaultPlan::parse("newton_stall:p=0.05,nan_stamp:p=0.02,panic:p=0.01,seed=43")
        .expect("spec parses");
    assert_ne!(a.canonical(), reseeded.canonical());
    assert_ne!(
        a.schedule(400),
        reseeded.schedule(400),
        "the seed must decorrelate the schedule"
    );
}

/// Pulls the integer value of `"key":N` out of a post-mortem bundle.
fn json_u64(text: &str, key: &str) -> Option<u64> {
    let rest = &text[text.find(&format!("\"{key}\":"))? + key.len() + 3..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[test]
fn degraded_campaign_completes_with_one_bundle_per_exhausted_run() {
    // Over 16 runs this plan stalls runs 4, 5, 12 and 13 and panics run
    // 13 (the panic fires first, so run 13 fails once).
    let plan = FaultPlan::parse("newton_stall:p=0.1,panic:p=0.1,seed=5").expect("spec parses");
    let runs = 16usize;
    let hit = |run: usize, kind| plan.injects(run as u64, kind);
    let holes: Vec<usize> = (0..runs)
        .filter(|&r| hit(r, FaultKind::NewtonStall) || hit(r, FaultKind::Panic))
        .collect();
    assert!(
        (0..runs).any(|r| hit(r, FaultKind::NewtonStall))
            && (0..runs).any(|r| hit(r, FaultKind::Panic)),
        "the plan must exercise both fault kinds"
    );

    let session = ChaosSession::arm(plan);
    let params = OxramParams::calibrated();
    let alloc = LevelAllocation::paper_qlc();
    let seed = 0x5EED_CAFE;
    // The clean reference, run under the lock with the plan disarmed.
    oxterm_chaos::disarm();
    let clean = mc_campaign(&params, &alloc, runs, seed);
    oxterm_chaos::arm(plan);

    let dir = std::env::temp_dir().join(format!("oxterm_chaos_e2e_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    oxterm_telemetry::postmortem::set_artifacts_dir(dir.to_string_lossy().to_string());
    // First-wins process-global install: only this test reads the tracker.
    LevelTracker::install(LevelTracker::enabled());
    let degraded = mc_campaign(&params, &alloc, runs, seed);
    oxterm_telemetry::postmortem::set_capture(false);

    // Each level's holes sit exactly on the schedule: the survivors are
    // the clean campaign's outcomes at the unscheduled run indices.
    let snap = LevelTracker::global().snapshot();
    for (lc, reference) in degraded.iter().zip(&clean) {
        assert_eq!(lc.failed, holes.len(), "level {:04b}", lc.spec.code);
        let survivors: Vec<_> = (0..runs)
            .filter(|r| !holes.contains(r))
            .map(|r| reference.outcomes[r])
            .collect();
        assert_eq!(lc.outcomes, survivors, "level {:04b}", lc.spec.code);
        let level = snap
            .levels
            .iter()
            .find(|l| l.code == lc.spec.code)
            .expect("tracked level");
        assert_eq!(
            level.n as usize,
            lc.outcomes.len(),
            "tracker sees successes only"
        );
    }
    let failed: usize = degraded.iter().map(|lc| lc.failed).sum();
    assert_eq!(failed, alloc.levels().len() * holes.len());
    assert_eq!(
        health_line(&degraded).as_deref(),
        Some(format!("campaign health: {failed} of {} runs failed", 16 * runs).as_str())
    );

    // Exactly one bundle per failed run, each carrying its run index and
    // replay seed.
    let bundles: Vec<String> = std::fs::read_dir(&dir)
        .expect("artifacts dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .map(|n| n.to_string_lossy().starts_with("postmortem_"))
                .unwrap_or(false)
        })
        .map(|p| std::fs::read_to_string(p).expect("bundle readable"))
        .collect();
    assert_eq!(bundles.len(), failed, "exactly one bundle per failed run");
    let mut seeds = Vec::new();
    for text in &bundles {
        let run = json_u64(text, "run_index").expect("bundle carries run_index") as usize;
        assert!(holes.contains(&run), "bundle for unscheduled run {run}");
        seeds.push(json_u64(text, "seed").expect("bundle carries seed"));
    }
    for &run in &holes {
        let n = bundles
            .iter()
            .filter(|t| json_u64(t, "run_index") == Some(run as u64))
            .count();
        assert_eq!(
            n,
            alloc.levels().len(),
            "one bundle per level for run {run}"
        );
    }
    seeds.sort_unstable();
    seeds.dedup();
    assert_eq!(seeds.len(), failed, "every failed run has its own seed");

    let _ = std::fs::remove_dir_all(&dir);
    drop(session);
}

#[test]
fn disarmed_hooks_never_fire() {
    let _guard = CHAOS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    // Arm a certain-fire plan, then disarm: the hooks must go quiet.
    oxterm_chaos::arm(FaultPlan::parse("newton_stall:p=1.0,seed=1").expect("spec parses"));
    oxterm_chaos::disarm();
    let before = oxterm_chaos::injected_count();
    oxterm_chaos::begin_run(0);
    for kind in oxterm_chaos::ALL_KINDS {
        assert!(!oxterm_chaos::should_inject(kind));
    }
    oxterm_chaos::end_run();
    assert_eq!(oxterm_chaos::injected_count(), before);
}
