//! `oxbench`: one benchmark process.
//!
//! ```text
//! oxbench workload --workload <qlc_mc|qlc_mc_observed|word_rw> --seed N
//!                  --seconds S [--threads T] [--trace-out PATH]
//!                  [--setup-only] [--chaos PLAN] [--t0-unix-ns NS]
//! oxbench ladder [--trace-out PATH]
//! oxbench spice --seed N [--trace-out PATH]
//! ```
//!
//! Each invocation prints one JSON object on stdout. Observers are
//! installed once per process, so every workload and every layer probe
//! runs in a process of its own; `run.py` in this directory spawns them
//! and turns their reports into the benchmark's metrics.

mod layers;
mod spans;
mod stats;
mod workloads;

use workloads::{fail, Settings, Workload};

fn main() {
    let mut args = std::env::args().skip(1);
    let cmd = args.next().unwrap_or_default();
    let mut flags = std::collections::BTreeMap::<String, String>::new();
    let mut setup_only = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--setup-only" => setup_only = true,
            k if k.starts_with("--") => {
                let v = args
                    .next()
                    .unwrap_or_else(|| fail(&format!("{k} needs a value")));
                flags.insert(k[2..].to_string(), v);
            }
            other => fail(&format!("unexpected argument {other:?}")),
        }
    }
    let get = |k: &str| flags.get(k).map(String::as_str);
    let num = |k: &str, default: Option<&str>| -> String {
        get(k)
            .or(default)
            .unwrap_or_else(|| fail(&format!("--{k} is required")))
            .to_string()
    };
    let parse_u64 = |k: &str, default: Option<&str>| -> u64 {
        let v = num(k, default);
        v.parse()
            .unwrap_or_else(|_| fail(&format!("--{k}: not a whole number: {v:?}")))
    };
    let trace_out = get("trace-out");
    let line = match cmd.as_str() {
        "workload" => {
            let name = num("workload", None);
            let workload = Workload::parse(&name)
                .unwrap_or_else(|| fail(&format!("unknown workload {name:?}")));
            let seconds: f64 = num("seconds", None)
                .parse()
                .ok()
                .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                .unwrap_or_else(|| fail("--seconds: not a non-negative number"));
            let threads = match get("threads") {
                Some(_) => parse_u64("threads", None).max(1) as usize,
                None => std::thread::available_parallelism().map_or(1, |n| n.get()),
            };
            workloads::run(&Settings {
                workload,
                seed: parse_u64("seed", None),
                seconds,
                threads,
                trace_out: trace_out.map(str::to_string),
                setup_only,
                chaos: get("chaos").map(str::to_string),
                t0_unix_ns: get("t0-unix-ns").map(|v| {
                    v.parse()
                        .unwrap_or_else(|_| fail("--t0-unix-ns: not a whole number"))
                }),
            })
        }
        "ladder" => layers::ladder(trace_out),
        "spice" => layers::spice(parse_u64("seed", None), trace_out),
        other => fail(&format!(
            "unknown command {other:?} (expected workload, ladder or spice)"
        )),
    };
    println!("{line}");
}
