//! Signal probes: named node-voltage / branch-current capture during
//! transient analysis.
//!
//! A [`ProbePlan`] (attached to [`crate::options::TranOptions`]) names the
//! signals to record using a small spec grammar:
//!
//! ```text
//! v(NODE)      — voltage of the named node ("gnd"/"0" records constant 0)
//! i(DEV)       — branch current of the named single-branch device
//! i(DEV:K)     — K-th branch current of a multi-branch device
//! ```
//!
//! Comma-separated lists combine probes: `v(sl),v(bl_sense),i(vsense)`.
//!
//! Capture is **bounded-memory**: each probe owns a [`ProbeBuffer`]
//! pre-allocated at the plan's sample budget. When a buffer fills, it
//! compacts itself in place by min/max decimation — each group of four
//! consecutive samples is replaced by its minimum- and maximum-value
//! samples in time order — halving occupancy while preserving the exact
//! global extremes and only ever keeping *genuine* samples (no synthetic
//! averages). Past warm-up the capture path performs **zero heap
//! allocations per accepted step**, so probes never stall the solver hot
//! loop (pinned by `tests/zero_alloc.rs`).
//!
//! Samples carry two clocks: simulated seconds (the CSV / [`Waveform`]
//! x-axis) and, when the flight recorder is enabled, wall nanoseconds from
//! [`oxterm_telemetry::Tracer::now_ns`] — which lets a captured probe
//! render as a Perfetto *counter track* on the same timeline as the
//! solver/program spans.

use oxterm_telemetry::CounterTrack;

use crate::circuit::Circuit;
use crate::waveform::Waveform;
use crate::SpiceError;

/// What a probe measures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProbeTarget {
    /// Voltage of a named node (ground records constant zero).
    NodeVoltage(String),
    /// The `k`-th branch current of a named device.
    BranchCurrent {
        /// Device name as registered in the circuit.
        device: String,
        /// Branch index within the device (0 for single-branch devices).
        branch: usize,
    },
}

/// One parsed probe specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeSpec {
    /// What to measure.
    pub target: ProbeTarget,
}

impl ProbeSpec {
    /// Parses a single spec: `v(NODE)`, `i(DEV)` or `i(DEV:K)`.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidCircuit`] for malformed specs (the
    /// probe grammar is part of the analysis configuration).
    pub fn parse(spec: &str) -> Result<Self, SpiceError> {
        let s = spec.trim();
        let bad = |why: &str| SpiceError::InvalidCircuit {
            reason: format!("probe spec '{s}': {why} (expected v(NODE), i(DEV) or i(DEV:K))"),
        };
        let inner = |prefix: &str| -> Option<&str> { s.strip_prefix(prefix)?.strip_suffix(')') };
        if let Some(node) = inner("v(").or_else(|| inner("V(")) {
            let node = node.trim();
            if node.is_empty() {
                return Err(bad("empty node name"));
            }
            return Ok(ProbeSpec {
                target: ProbeTarget::NodeVoltage(node.to_string()),
            });
        }
        if let Some(body) = inner("i(").or_else(|| inner("I(")) {
            let body = body.trim();
            let (device, branch) = match body.rsplit_once(':') {
                Some((dev, k)) => {
                    let k: usize = k
                        .trim()
                        .parse()
                        .map_err(|_| bad("branch index is not an integer"))?;
                    (dev.trim(), k)
                }
                None => (body, 0),
            };
            if device.is_empty() {
                return Err(bad("empty device name"));
            }
            return Ok(ProbeSpec {
                target: ProbeTarget::BranchCurrent {
                    device: device.to_string(),
                    branch,
                },
            });
        }
        Err(bad("unrecognized form"))
    }

    /// Canonical display label, also used for CSV headers and counter
    /// tracks: `v(node)` / `i(dev)` / `i(dev:k)`.
    pub fn label(&self) -> String {
        match &self.target {
            ProbeTarget::NodeVoltage(node) => format!("v({node})"),
            ProbeTarget::BranchCurrent { device, branch } => {
                if *branch == 0 {
                    format!("i({device})")
                } else {
                    format!("i({device}:{branch})")
                }
            }
        }
    }

    /// Physical unit of the probed quantity (`V` or `A`).
    pub fn unit(&self) -> &'static str {
        match self.target {
            ProbeTarget::NodeVoltage(_) => "V",
            ProbeTarget::BranchCurrent { .. } => "A",
        }
    }
}

/// Default per-probe sample budget (samples retained after decimation).
pub const DEFAULT_SAMPLE_BUDGET: usize = 4096;

/// A set of probes plus the capture policy, attached to
/// [`crate::options::TranOptions`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbePlan {
    /// Parsed probe specs, capture order = spec order.
    pub specs: Vec<ProbeSpec>,
    /// Per-probe retained-sample budget; capture decimates past this.
    pub budget: usize,
}

impl Default for ProbePlan {
    fn default() -> Self {
        ProbePlan {
            specs: Vec::new(),
            budget: DEFAULT_SAMPLE_BUDGET,
        }
    }
}

impl ProbePlan {
    /// An empty plan: transient analysis captures nothing.
    pub fn none() -> Self {
        ProbePlan::default()
    }

    /// Parses a comma-separated spec list (`v(sl),i(vsense)`). An empty
    /// or all-whitespace string yields an empty plan.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidCircuit`] for any malformed item.
    pub fn parse(specs: &str) -> Result<Self, SpiceError> {
        let mut plan = ProbePlan::default();
        for item in specs.split(',') {
            if item.trim().is_empty() {
                continue;
            }
            plan.specs.push(ProbeSpec::parse(item)?);
        }
        Ok(plan)
    }

    /// Same plan with a different sample budget (min 8; budgets are
    /// rounded up so decimation groups divide evenly).
    pub fn with_budget(mut self, budget: usize) -> Self {
        self.budget = budget.max(8);
        self
    }

    /// Whether any probes are configured.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

/// One captured sample: simulated time, value, and (when tracing) the
/// wall-clock nanosecond stamp aligning it with flight-recorder spans.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeSample {
    /// Simulated time (s).
    pub t: f64,
    /// Probed value (V or A).
    pub y: f64,
    /// Wall nanoseconds since tracer creation, if the tracer was enabled.
    pub wall_ns: Option<u64>,
}

/// Bounded sample storage with in-place min/max decimation.
///
/// Pushing beyond the budget triggers a compaction that replaces each run
/// of four consecutive samples with its min- and max-value samples (kept
/// in time order), halving occupancy. All retained points are genuine
/// captured samples and the global extremes always survive. No allocation
/// ever happens after construction.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeBuffer {
    samples: Vec<ProbeSample>,
    budget: usize,
    /// Total samples ever offered (retained + decimated away).
    offered: u64,
    /// Number of compaction passes run.
    compactions: u32,
}

impl ProbeBuffer {
    /// A buffer retaining at most `budget` samples (min 8), with storage
    /// fully pre-allocated.
    pub fn new(budget: usize) -> Self {
        let budget = budget.max(8);
        ProbeBuffer {
            samples: Vec::with_capacity(budget),
            budget,
            offered: 0,
            compactions: 0,
        }
    }

    /// Records one sample; compacts in place when the budget is reached.
    #[inline]
    pub fn push(&mut self, t: f64, y: f64, wall_ns: Option<u64>) {
        if self.samples.len() >= self.budget {
            self.compact();
        }
        self.offered += 1;
        self.samples.push(ProbeSample { t, y, wall_ns });
    }

    /// Min/max decimation: each group of four consecutive samples keeps
    /// its minimum- and maximum-value members in time order. Groups with
    /// a shared extreme keep one sample. In place, no allocation.
    fn compact(&mut self) {
        self.compactions += 1;
        let n = self.samples.len();
        let mut w = 0usize;
        let mut r = 0usize;
        while r < n {
            let end = (r + 4).min(n);
            let mut imin = r;
            let mut imax = r;
            for j in r..end {
                if self.samples[j].y < self.samples[imin].y {
                    imin = j;
                }
                if self.samples[j].y > self.samples[imax].y {
                    imax = j;
                }
            }
            let (first, second) = if imin <= imax {
                (imin, imax)
            } else {
                (imax, imin)
            };
            self.samples[w] = self.samples[first];
            w += 1;
            if second != first {
                self.samples[w] = self.samples[second];
                w += 1;
            }
            r = end;
        }
        self.samples.truncate(w);
    }

    /// Retained samples, time-ordered.
    pub fn samples(&self) -> &[ProbeSample] {
        &self.samples
    }

    /// Total samples ever pushed (before decimation).
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// How many decimation passes have run (0 ⇒ the record is dense).
    pub fn compactions(&self) -> u32 {
        self.compactions
    }

    /// The configured retained-sample budget.
    pub fn budget(&self) -> usize {
        self.budget
    }
}

/// A resolved probe: spec + unknown index + its buffer.
#[derive(Debug, Clone, PartialEq)]
struct ResolvedProbe {
    spec: ProbeSpec,
    /// MNA unknown index, or `None` for ground (constant zero).
    unknown: Option<usize>,
    buffer: ProbeBuffer,
}

/// Resolves a [`ProbePlan`] against a circuit and captures samples during
/// a transient run. Created by `run_transient`; the finished capture comes
/// back on `TranResult::probes`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProbeRecorder {
    probes: Vec<ResolvedProbe>,
}

impl ProbeRecorder {
    /// Resolves every spec to its MNA unknown.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::NotFound`] when a named node or device does
    /// not exist (or a branch index is out of range) — probing a missing
    /// signal is a configuration error, caught before the run starts.
    pub fn resolve(plan: &ProbePlan, circuit: &Circuit) -> Result<Self, SpiceError> {
        let mut probes = Vec::with_capacity(plan.specs.len());
        for spec in &plan.specs {
            let unknown = match &spec.target {
                ProbeTarget::NodeVoltage(node) => {
                    let id = circuit.find_node(node)?;
                    id.unknown()
                }
                ProbeTarget::BranchCurrent { device, branch } => {
                    let id = circuit.find_device(device)?;
                    Some(circuit.branch_unknown(id, *branch)?)
                }
            };
            probes.push(ResolvedProbe {
                spec: spec.clone(),
                unknown,
                buffer: ProbeBuffer::new(plan.budget),
            });
        }
        Ok(ProbeRecorder { probes })
    }

    /// Whether any probes are attached.
    pub fn is_empty(&self) -> bool {
        self.probes.is_empty()
    }

    /// Records one accepted-step solution into every probe buffer.
    /// Zero-allocation past buffer warm-up.
    #[inline]
    pub fn record(&mut self, t: f64, x: &[f64], wall_ns: Option<u64>) {
        for probe in &mut self.probes {
            let y = match probe.unknown {
                Some(u) => x[u],
                None => 0.0,
            };
            probe.buffer.push(t, y, wall_ns);
        }
    }

    /// The most recent `n` samples of every probe as
    /// `(label, [(t, y), …])` — what post-mortem artifacts embed when a
    /// run dies mid-capture.
    pub fn tails(&self, n: usize) -> Vec<(String, Vec<(f64, f64)>)> {
        self.probes
            .iter()
            .map(|p| {
                let s = p.buffer.samples();
                let start = s.len().saturating_sub(n);
                (
                    p.spec.label(),
                    s[start..].iter().map(|x| (x.t, x.y)).collect(),
                )
            })
            .collect()
    }

    /// Finishes the capture, consuming the recorder.
    pub fn into_capture(self) -> ProbeCapture {
        ProbeCapture {
            traces: self
                .probes
                .into_iter()
                .map(|p| ProbeTrace {
                    label: p.spec.label(),
                    unit: p.spec.unit().to_string(),
                    offered: p.buffer.offered(),
                    compactions: p.buffer.compactions(),
                    samples: p.buffer.samples,
                })
                .collect(),
        }
    }
}

/// One finished probe record.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProbeTrace {
    /// Canonical label (`v(sl)`, `i(vsense)`).
    pub label: String,
    /// Physical unit (`V` or `A`).
    pub unit: String,
    /// Retained samples, time-ordered.
    pub samples: Vec<ProbeSample>,
    /// Total samples captured before decimation.
    pub offered: u64,
    /// Decimation passes that ran (0 ⇒ dense record).
    pub compactions: u32,
}

impl ProbeTrace {
    /// The record as a [`Waveform`] for measurement operators, or `None`
    /// for an empty record.
    pub fn waveform(&self) -> Option<Waveform> {
        if self.samples.is_empty() {
            return None;
        }
        let t = self.samples.iter().map(|s| s.t).collect();
        let y = self.samples.iter().map(|s| s.y).collect();
        Some(Waveform::from_parts(t, y))
    }

    /// Serializes the record as a two-column CSV (`t_s,<label>`).
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(32 + self.samples.len() * 32);
        out.push_str(&format!("t_s,{} [{}]\n", self.label, self.unit));
        for s in &self.samples {
            out.push_str(&format!("{:e},{:e}\n", s.t, s.y));
        }
        out
    }

    /// The record as a Perfetto counter track.
    ///
    /// Uses wall-clock stamps when every sample has one (aligning the
    /// signal with flight-recorder spans); otherwise falls back to
    /// simulated time scaled to nanoseconds, which still renders the
    /// waveform shape.
    pub fn counter_track(&self) -> CounterTrack {
        let wall_complete =
            !self.samples.is_empty() && self.samples.iter().all(|s| s.wall_ns.is_some());
        let points = self
            .samples
            .iter()
            .map(|s| {
                let ts = match (wall_complete, s.wall_ns) {
                    (true, Some(ns)) => ns,
                    _ => (s.t.max(0.0) * 1e9) as u64,
                };
                (ts, s.y)
            })
            .collect();
        CounterTrack {
            name: self.label.clone(),
            unit: self.unit.clone(),
            points,
        }
    }

    /// The most recent `n` samples as `(t, y)` pairs — what post-mortem
    /// artifacts embed.
    pub fn tail(&self, n: usize) -> Vec<(f64, f64)> {
        let start = self.samples.len().saturating_sub(n);
        self.samples[start..].iter().map(|s| (s.t, s.y)).collect()
    }
}

/// Every probe captured in one transient run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProbeCapture {
    /// One trace per configured probe, in spec order.
    pub traces: Vec<ProbeTrace>,
}

impl ProbeCapture {
    /// Whether any traces were captured.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Looks up a trace by its canonical label.
    pub fn trace(&self, label: &str) -> Option<&ProbeTrace> {
        self.traces.iter().find(|t| t.label == label)
    }

    /// Counter tracks for every trace (Perfetto merge).
    pub fn counter_tracks(&self) -> Vec<CounterTrack> {
        self.traces.iter().map(ProbeTrace::counter_track).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_grammar_round_trips() {
        let v = ProbeSpec::parse("v(sl)").unwrap();
        assert_eq!(v.target, ProbeTarget::NodeVoltage("sl".into()));
        assert_eq!(v.label(), "v(sl)");
        assert_eq!(v.unit(), "V");

        let i = ProbeSpec::parse(" I( vsense ) ").unwrap();
        assert_eq!(
            i.target,
            ProbeTarget::BranchCurrent {
                device: "vsense".into(),
                branch: 0
            }
        );
        assert_eq!(i.label(), "i(vsense)");
        assert_eq!(i.unit(), "A");

        let ik = ProbeSpec::parse("i(xfer:2)").unwrap();
        assert_eq!(ik.label(), "i(xfer:2)");

        for bad in ["", "v()", "i()", "w(sl)", "v(sl", "i(dev:x)"] {
            assert!(ProbeSpec::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn plan_parses_lists_and_tolerates_blanks() {
        let plan = ProbePlan::parse("v(sl), i(vsense),, v(bl_sense)").unwrap();
        assert_eq!(plan.specs.len(), 3);
        assert_eq!(plan.budget, DEFAULT_SAMPLE_BUDGET);
        assert!(ProbePlan::parse("").unwrap().is_empty());
        assert!(ProbePlan::parse("v(sl),w(x)").is_err());
        assert_eq!(ProbePlan::none().with_budget(3).budget, 8);
    }

    #[test]
    fn buffer_compacts_at_budget_and_keeps_extremes() {
        let mut buf = ProbeBuffer::new(16);
        // A triangle wave with a global max of 100 and min of -50 buried
        // mid-record.
        let values: Vec<f64> = (0..200)
            .map(|i| match i {
                77 => 100.0,
                130 => -50.0,
                i => (i % 10) as f64,
            })
            .collect();
        for (i, v) in values.iter().enumerate() {
            buf.push(i as f64 * 1e-9, *v, None);
        }
        assert!(buf.samples().len() <= 16);
        assert_eq!(buf.offered(), 200);
        assert!(buf.compactions() > 0);
        let ys: Vec<f64> = buf.samples().iter().map(|s| s.y).collect();
        assert!(ys.contains(&100.0), "global max lost: {ys:?}");
        assert!(ys.contains(&-50.0), "global min lost: {ys:?}");
        // Time-ordered and every sample genuine.
        for w in buf.samples().windows(2) {
            assert!(w[0].t < w[1].t);
        }
        for s in buf.samples() {
            let i = (s.t / 1e-9).round() as usize;
            assert_eq!(s.y, values[i], "synthetic sample at {i}");
        }
    }

    #[test]
    fn recorder_resolves_and_captures() {
        use crate::device::StampContext;

        #[derive(Debug)]
        struct Dummy {
            name: String,
            branches: usize,
        }
        impl crate::device::Device for Dummy {
            fn name(&self) -> &str {
                &self.name
            }
            fn n_branches(&self) -> usize {
                self.branches
            }
            fn stamp(&self, _ctx: &mut StampContext<'_>) {}
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }

        let mut c = Circuit::new();
        c.node("sl");
        c.node("bl");
        c.add(Dummy {
            name: "vsense".into(),
            branches: 1,
        });

        let plan = ProbePlan::parse("v(sl),v(gnd),i(vsense)").unwrap();
        let mut rec = ProbeRecorder::resolve(&plan, &c).unwrap();
        // Unknowns: v(sl)=0, v(bl)=1, i(vsense)=2.
        rec.record(0.0, &[1.0, 2.0, 3.0], None);
        rec.record(1e-9, &[1.5, 2.5, 3.5], Some(42));
        let cap = rec.into_capture();
        assert_eq!(cap.traces.len(), 3);
        let sl = cap.trace("v(sl)").unwrap();
        assert_eq!(sl.samples[1].y, 1.5);
        assert_eq!(sl.samples[1].wall_ns, Some(42));
        let gnd = cap.trace("v(gnd)").unwrap();
        assert_eq!(gnd.samples[0].y, 0.0);
        let isense = cap.trace("i(vsense)").unwrap();
        assert_eq!(isense.samples[0].y, 3.0);
        assert_eq!(isense.unit, "A");

        // Unresolvable specs fail before the run.
        let missing = ProbePlan::parse("v(nope)").unwrap();
        assert!(ProbeRecorder::resolve(&missing, &c).is_err());
        let badbranch = ProbePlan::parse("i(vsense:3)").unwrap();
        assert!(ProbeRecorder::resolve(&badbranch, &c).is_err());
    }

    #[test]
    fn trace_exports_csv_waveform_and_counters() {
        let trace = ProbeTrace {
            label: "v(sl)".into(),
            unit: "V".into(),
            samples: vec![
                ProbeSample {
                    t: 0.0,
                    y: 1.0,
                    wall_ns: Some(10),
                },
                ProbeSample {
                    t: 1e-9,
                    y: 2.0,
                    wall_ns: Some(20),
                },
            ],
            offered: 2,
            compactions: 0,
        };
        let csv = trace.to_csv();
        assert!(csv.starts_with("t_s,v(sl) [V]\n"), "{csv}");
        assert_eq!(csv.lines().count(), 3);
        let wf = trace.waveform().unwrap();
        assert_eq!(wf.last(), 2.0);
        let ct = trace.counter_track();
        assert_eq!(ct.points, vec![(10, 1.0), (20, 2.0)]);
        assert_eq!(ct.unit, "V");

        // Missing wall stamps fall back to scaled simulated time.
        let mut no_wall = trace.clone();
        no_wall.samples[1].wall_ns = None;
        let ct = no_wall.counter_track();
        assert_eq!(ct.points[1].0, 1);

        assert_eq!(trace.tail(1), vec![(1e-9, 2.0)]);
        assert_eq!(trace.tail(10).len(), 2);
    }
}
