//! Disarmed observers and the probe record path must not allocate.
//!
//! Every observation hook compiled into the solvers and the campaign —
//! the flight-recorder tracer, the chaos fault hooks, the phase
//! profiler, the level tracker and the joule ledger — promises that a
//! binary which never arms it pays one branch per call: no clock read,
//! no lock, no heap traffic. The probe recorder promises that once its
//! buffers exist, recording a solution vector (including the in-place
//! min/max decimation a long run triggers) touches no heap. The sparse LU
//! behind every Newton iteration promises that refactorizing and solving
//! a system whose pattern it has already seen touches no heap either.
//!
//! This binary installs one counting `#[global_allocator]` and holds
//! each path to its promise. The count is per thread, so the tests may
//! run concurrently: each one measures only the allocations of its own
//! thread. None of them arms a process-global handle.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use oxterm_chaos::ALL_KINDS;
use oxterm_devices::passive::{Capacitor, Resistor};
use oxterm_devices::sources::{SourceWave, VoltageSource};
use oxterm_numerics::sparse::CscMatrix;
use oxterm_numerics::sparse_lu::SparseLu;
use oxterm_spice::circuit::Circuit;
use oxterm_spice::probe::{ProbePlan, ProbeRecorder};
use oxterm_telemetry::joule::{DeviceClass, JouleLedger, Role};
use oxterm_telemetry::{Arg, LevelTracker, PhaseId, Profiler, Tracer, Track};

struct CountingAlloc;

thread_local! {
    // Per-thread count: the libtest harness and the other tests allocate
    // concurrently, and each contract is about the measuring thread only.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn local_allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL_ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn disabled_tracer_emit_path_allocates_nothing() {
    // Never install a global tracer here: the point is the disabled path
    // every un-flagged binary takes.
    let tracer = Tracer::global();
    assert!(!tracer.is_enabled());

    // Warm up thread-locals and lazy statics outside the window.
    tracer.instant(Track::Solver, "warmup", &[Arg::f64("x", 1.0)]);
    drop(tracer.span(Track::Program, "warmup"));

    let before = local_allocations();
    for i in 0..10_000u64 {
        tracer.instant(
            Track::Solver,
            "step",
            &[Arg::f64("t_sim_s", i as f64 * 1e-9), Arg::u64("iters", i)],
        );
        let mut span = tracer.span(Track::McWorker(0), "run");
        span.arg(Arg::u64("run", i));
        span.finish();
        let mut scoped = tracer.span(Track::Program, "pulse");
        scoped.arg(Arg::f64("i_ref_a", 10e-6));
        // Dropped at scope end, like the instrumented call sites.
        drop(scoped);
    }
    let after = local_allocations();
    assert_eq!(
        after - before,
        0,
        "disabled emit path allocated {} times over 30k emits",
        after - before
    );

    // Sanity: the same sequence against an enabled tracer does record
    // (so the zero above measures the branch, not dead code).
    let enabled = Tracer::enabled();
    enabled.instant(Track::Solver, "step", &[Arg::u64("iters", 1)]);
    assert_eq!(enabled.snapshot().events.len(), 1);
}

#[test]
fn probe_record_path_allocates_nothing_after_warmup() {
    // A small circuit so the probe specs resolve against real unknowns.
    let mut c = Circuit::new();
    let a = c.node("a");
    let b = c.node("b");
    c.add(VoltageSource::new(
        "v1",
        a,
        Circuit::gnd(),
        SourceWave::dc(1.0),
    ));
    c.add(Resistor::new("r1", a, b, 1e3));
    c.add(Capacitor::new("c1", b, Circuit::gnd(), 1e-9));

    let plan = ProbePlan::parse("v(a),v(b),i(v1)")
        .expect("spec parses")
        .with_budget(64);
    let mut rec = ProbeRecorder::resolve(&plan, &c).expect("targets exist");

    // Fake solution vector shaped like the MNA system (2 nodes + 1 branch).
    let x = [1.0f64, 0.5, -0.5e-3];

    // Warm-up: construction pre-allocated every buffer; a few records and
    // one full decimation cycle make sure any lazy statics are settled.
    for i in 0..200u64 {
        rec.record(i as f64 * 1e-9, &x, Some(i));
    }

    let before = local_allocations();
    // 10k records over a 64-sample budget forces many decimation passes;
    // none of it may allocate.
    for i in 200..10_200u64 {
        rec.record(i as f64 * 1e-9, &x, Some(i));
    }
    let after = local_allocations();
    assert_eq!(
        after - before,
        0,
        "probe record path allocated {} times over 10k records",
        after - before
    );

    // Sanity: the recorder really was capturing (the zero above measures
    // the hot path, not dead code).
    let capture = rec.into_capture();
    let trace = capture.trace("v(b)").expect("captured");
    assert_eq!(trace.offered, 10_200);
    assert!(trace.compactions > 0, "budget never hit — test too short");
    assert!(!trace.samples.is_empty());
}

#[test]
fn disarmed_should_inject_allocates_nothing() {
    // Never arm a plan here: the point is the disarmed path every
    // un-flagged binary takes through the solver hooks.
    assert!(!oxterm_chaos::is_armed());

    // Warm up thread-locals and lazy statics outside the window, both
    // inside and outside a run context.
    for kind in ALL_KINDS {
        assert!(!oxterm_chaos::should_inject(kind));
    }
    oxterm_chaos::begin_run(0);

    let before = local_allocations();
    for _ in 0..100_000u64 {
        for kind in ALL_KINDS {
            assert!(!oxterm_chaos::should_inject(kind));
        }
    }
    let after = local_allocations();
    oxterm_chaos::end_run();

    assert_eq!(
        after - before,
        0,
        "disarmed should_inject must be one atomic load, zero allocations"
    );
    assert_eq!(oxterm_chaos::injected_count(), 0);
}

#[test]
fn disarmed_profiler_scope_path_allocates_nothing() {
    // Never install a global profiler here: the point is the disarmed path
    // every un-flagged binary takes.
    let prof = Profiler::global();
    assert!(!prof.is_enabled());

    // Warm up lazy statics outside the window.
    drop(prof.phase(PhaseId::TranNewton));

    let before = local_allocations();
    for _ in 0..10_000u64 {
        let _newton = prof.phase(PhaseId::TranNewton);
        let stamp = prof.phase(PhaseId::NewtonStamp);
        assert!(!stamp.is_active());
        stamp.finish();
        drop(prof.phase(PhaseId::NewtonSolveLu));
    }
    let after = local_allocations();
    assert_eq!(
        after - before,
        0,
        "disarmed scope path allocated {} times over 30k scopes",
        after - before
    );

    // Sanity: the same scopes against an armed handle do record (so the
    // zero above measures the branch, not dead code).
    let armed = Profiler::enabled();
    {
        let _g = armed.phase(PhaseId::NewtonSolveLu);
    }
    let snap = armed.snapshot();
    assert_eq!(snap.phase(PhaseId::NewtonSolveLu).unwrap().calls, 1);
}

#[test]
fn disarmed_observe_path_allocates_nothing() {
    // Never install a global tracker here: the point is the disarmed
    // path every un-flagged binary takes.
    let tracker = LevelTracker::global();
    assert!(!tracker.is_enabled());

    // Warm up lazy statics outside the measurement window.
    tracker.observe(0, 6e-6, 267e3);
    let _ = tracker.counts();

    let before = local_allocations();
    for i in 0..10_000u64 {
        tracker.observe((i % 16) as u16, 10e-6, 40e3 + i as f64);
    }
    let after = local_allocations();
    assert_eq!(
        after - before,
        0,
        "disarmed observe path allocated {} times over 10k observations",
        after - before
    );

    // Sanity: an armed handle really records (the zero above measures
    // the branch, not dead code).
    let armed = LevelTracker::enabled();
    armed.observe(5, 20e-6, 120e3);
    assert_eq!(armed.counts().total, 1);
}

#[test]
fn disarmed_observe_paths_allocate_nothing() {
    // Never install a global ledger here: the point is the disarmed path
    // every un-flagged binary takes.
    let ledger = JouleLedger::global();
    assert!(!ledger.is_enabled());

    // Warm up lazy statics outside the measurement window.
    ledger.observe_level(0, 6e-6, 80e-12, 4e-6);
    ledger.record_energy(DeviceClass::RramCell, Role::RramCell, 1e-12);
    ledger.mark(1);
    let _ = ledger.counts();

    let before = local_allocations();
    for i in 0..10_000u64 {
        ledger.observe_level((i % 16) as u16, 10e-6, 20e-12 + i as f64 * 1e-15, 1e-6);
        ledger.record_energy(DeviceClass::Resistor, Role::AccessTransistor, 1e-13);
        ledger.mark(i);
    }
    let after = local_allocations();
    assert_eq!(
        after - before,
        0,
        "disarmed joule paths allocated {} times over 10k iterations",
        after - before
    );

    // Sanity: an armed handle really records (the zero above measures
    // the branch, not dead code).
    let armed = JouleLedger::enabled();
    armed.observe_level(5, 20e-6, 30e-12, 0.8e-6);
    armed.record_energy(DeviceClass::RramCell, Role::RramCell, 2e-12);
    let counts = armed.counts();
    assert_eq!(counts.total_obs, 1);
    assert!(counts.dissipated_j > 0.0);
}

#[test]
fn warmed_sparse_refactorization_allocates_nothing() {
    // A 69-unknown ladder with a branch row, the size of the 8-cell word,
    // whose pivot order changes with its values.
    let n = 69;
    let pattern = (0..n)
        .flat_map(|i| [(i, i), (i, (i + 1) % n), ((i + 1) % n, i)])
        .chain([(0, n - 1), (n - 1, 0)]);
    let mut a = CscMatrix::from_pattern(n, n, pattern);
    let fill = |a: &mut CscMatrix, k: u64| {
        for (j, v) in a.values_mut().iter_mut().enumerate() {
            *v = 1.0 + ((j as u64 * 7 + k * 13) % 11) as f64;
        }
    };
    fill(&mut a, 0);
    let b = vec![1.0; n];
    let mut x = vec![0.0; n];
    // The values cycle with period 11 in `k`. Partial pivoting makes the
    // fill depend on the values, so warming means one pass over the cycle:
    // the buffers then fit every pivot order the loop below meets.
    let mut lu = SparseLu::factorize(&a).expect("nonsingular");
    let mut fills = vec![lu.nnz()];
    for k in 1..11u64 {
        fill(&mut a, k);
        lu.factorize_into(&a).expect("nonsingular");
        fills.push(lu.nnz());
    }
    fills.sort_unstable();
    fills.dedup();
    assert!(fills.len() > 1, "pivot order never changed: fill {fills:?}");

    let before = local_allocations();
    for k in 11..200u64 {
        fill(&mut a, k);
        lu.factorize_into(&a).expect("nonsingular");
        lu.solve_into(&b, &mut x).expect("sized");
    }
    let after = local_allocations();
    assert_eq!(
        after - before,
        0,
        "warmed refactorization allocated {} times over 189 factor+solves",
        after - before
    );
    // The solves are real: the last one satisfies A·x = b.
    let r = a.mul_vec(&x).expect("sized");
    for (ri, bi) in r.iter().zip(&b) {
        assert!((ri - bi).abs() < 1e-9, "{ri} vs {bi}");
    }
}
