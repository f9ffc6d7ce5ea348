//! `peak-trace` — inspect PEAK telemetry traces.
//!
//! Traces are JSONL files written by `table1 --trace`, `figure7 --trace`,
//! `fault_matrix --trace`, or any [`peak_obs::JsonlSink`] user. Each line
//! is one event: `{"seq":..,"span":..,"kind":..,<fields>}`.
//!
//! ```text
//! peak-trace summary  <trace.jsonl>       # aggregate view of a whole run
//! peak-trace ts <id>  <trace.jsonl>       # events for one tuning section
//! peak-trace degrades <trace.jsonl>       # §3 cascade downgrades
//! peak-trace diff <a.jsonl> <b.jsonl>     # structural diff (wall_ns ignored)
//! ```
//!
//! `diff` ignores the `wall_ns` self-profiling field so a wall-clock
//! trace still compares equal to a deterministic one from the same seed.

use peak_obs::TraceEvent;
use peak_util::Json;
use std::collections::BTreeMap;

const USAGE: &str = "\
peak-trace — inspect PEAK telemetry traces (JSONL)

USAGE:
    peak-trace summary  <trace.jsonl>
    peak-trace ts <id>  <trace.jsonl>
    peak-trace degrades <trace.jsonl>
    peak-trace diff <a.jsonl> <b.jsonl>
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("summary") if args.len() == 2 => summary(&load(&args[1])),
        Some("ts") if args.len() == 3 => ts_view(&args[1], &load(&args[2])),
        Some("degrades") if args.len() == 2 => degrades(&load(&args[1])),
        Some("diff") if args.len() == 3 => diff(&load(&args[1]), &load(&args[2])),
        _ => {
            eprint!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

/// Read and parse a trace file; malformed lines are fatal (a trace that
/// does not round-trip indicates a writer bug, not user error).
fn load(path: &str) -> Vec<TraceEvent> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    let mut events = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match TraceEvent::parse_line(line) {
            Ok(e) => events.push(e),
            Err(e) => {
                eprintln!("error: {path}:{}: bad trace line: {}", lineno + 1, e.message);
                std::process::exit(2);
            }
        }
    }
    events
}

fn f_str<'a>(e: &'a TraceEvent, name: &str) -> Option<&'a str> {
    e.field(name).and_then(Json::as_str)
}

fn f_u64(e: &TraceEvent, name: &str) -> Option<u64> {
    e.field(name).and_then(Json::as_u64)
}

/// Attribute each event to a tuning section. Events stamped with a `ts`
/// field use it directly; otherwise an enclosing `table1.collect` span
/// region (scanned sequentially — per-job buffers never interleave in a
/// trace file) provides the attribution.
fn attribute_ts(events: &[TraceEvent]) -> Vec<Option<String>> {
    let mut current: Option<String> = None;
    let mut out = Vec::with_capacity(events.len());
    for e in events {
        if let Some(ts) = f_str(e, "ts") {
            out.push(Some(ts.to_owned()));
            if e.kind == "span.enter" && f_str(e, "name") == Some("table1.collect") {
                current = Some(ts.to_owned());
            }
            continue;
        }
        if e.kind == "span.exit" && f_str(e, "name") == Some("table1.collect") {
            out.push(current.clone());
            current = None;
            continue;
        }
        out.push(current.clone());
    }
    out
}

#[derive(Default)]
struct MethodAgg {
    outcomes: u64,
    samples: u64,
    trimmed: u64,
    dropouts: u64,
    crashes: u64,
    unconverged: u64,
    runs: u64,
    invocations: u64,
    cycles: u64,
    wall_ns: u64,
    has_wall: bool,
}

fn rating_aggregate(events: &[TraceEvent]) -> BTreeMap<String, MethodAgg> {
    let mut per_method: BTreeMap<String, MethodAgg> = BTreeMap::new();
    for e in events.iter().filter(|e| e.kind == "rating.outcome") {
        let method = f_str(e, "method").unwrap_or("?").to_owned();
        let a = per_method.entry(method).or_default();
        a.outcomes += 1;
        a.samples += f_u64(e, "samples").unwrap_or(0);
        a.trimmed += f_u64(e, "trimmed").unwrap_or(0);
        a.dropouts += f_u64(e, "dropouts").unwrap_or(0);
        a.crashes += f_u64(e, "crashes").unwrap_or(0);
        a.unconverged += f_u64(e, "unconverged").unwrap_or(0);
        a.runs += f_u64(e, "runs").unwrap_or(0);
        a.invocations += f_u64(e, "invocations").unwrap_or(0);
        a.cycles += f_u64(e, "cycles").unwrap_or(0);
        if let Some(w) = f_u64(e, "wall_ns") {
            a.wall_ns += w;
            a.has_wall = true;
        }
    }
    per_method
}

fn print_rating_table(per_method: &BTreeMap<String, MethodAgg>) {
    if per_method.is_empty() {
        println!("ratings: none recorded");
        return;
    }
    let any_wall = per_method.values().any(|a| a.has_wall);
    println!(
        "{:<6} {:>9} {:>9} {:>9} {:>9} {:>8} {:>12} {:>9} {:>14}{}",
        "method",
        "outcomes",
        "samples",
        "trimmed",
        "dropouts",
        "crashes",
        "unconverged",
        "runs",
        "sim cycles",
        if any_wall { "   overhead ms" } else { "" },
    );
    for (m, a) in per_method {
        let wall = if any_wall {
            format!("   {:>11.3}", a.wall_ns as f64 / 1.0e6)
        } else {
            String::new()
        };
        println!(
            "{:<6} {:>9} {:>9} {:>9} {:>9} {:>8} {:>12} {:>9} {:>14}{}",
            m, a.outcomes, a.samples, a.trimmed, a.dropouts, a.crashes, a.unconverged, a.runs,
            a.cycles, wall,
        );
    }
}

fn print_sim_totals(events: &[TraceEvent]) {
    let runs: Vec<&TraceEvent> = events.iter().filter(|e| e.kind == "sim.run").collect();
    if runs.is_empty() {
        println!("simulator: no sim.run events");
        return;
    }
    let sum = |k: &str| runs.iter().map(|e| f_u64(e, k).unwrap_or(0)).sum::<u64>();
    let (instr, cycles) = (sum("instructions"), sum("cycles"));
    let (l1h, l1m) = (sum("l1_hits"), sum("l1_misses"));
    let (l2h, l2m) = (sum("l2_hits"), sum("l2_misses"));
    let (bc, bw) = (sum("branch_correct"), sum("branch_wrong"));
    let pct = |num: u64, den: u64| {
        if den == 0 { 100.0 } else { num as f64 / den as f64 * 100.0 }
    };
    println!(
        "simulator: {} runs, {} instructions, {} cycles",
        runs.len(),
        instr,
        cycles
    );
    println!(
        "  L1 {:.1}% hit ({l1h}/{})  L2 {:.1}% hit ({l2h}/{})  branch {:.1}% correct ({bc}/{})",
        pct(l1h, l1h + l1m),
        l1h + l1m,
        pct(l2h, l2h + l2m),
        l2h + l2m,
        pct(bc, bc + bw),
        bc + bw,
    );
    let faults: u64 = ["fault_spikes", "fault_bursts", "fault_dropouts", "fault_perturbations"]
        .iter()
        .map(|k| sum(k))
        .sum();
    if faults > 0 {
        println!(
            "  faults: {} spikes, {} bursts, {} dropouts, {} perturbations",
            sum("fault_spikes"),
            sum("fault_bursts"),
            sum("fault_dropouts"),
            sum("fault_perturbations"),
        );
    }
}

fn summary(events: &[TraceEvent]) -> i32 {
    println!("{} events", events.len());
    if events.is_empty() {
        return 0;
    }
    let mut kinds: BTreeMap<&str, u64> = BTreeMap::new();
    for e in events {
        *kinds.entry(&e.kind).or_default() += 1;
    }
    println!();
    println!("event kinds:");
    for (k, n) in &kinds {
        println!("  {k:<24} {n}");
    }
    println!();
    print_rating_table(&rating_aggregate(events));
    println!();
    print_sim_totals(events);
    let degrades = kinds.get("supervisor.degrade").copied().unwrap_or(0);
    if degrades > 0 {
        println!();
        println!("supervisor: {degrades} downgrades (see `peak-trace degrades`)");
    }
    // Per-TS breakdown, when the trace carries attribution.
    let attribution = attribute_ts(events);
    #[derive(Default)]
    struct TsAgg {
        methods: Vec<String>,
        events: u64,
        runs: u64,
        outcomes: u64,
    }
    let mut per_ts: BTreeMap<String, TsAgg> = BTreeMap::new();
    for (e, ts) in events.iter().zip(&attribution) {
        if let Some(ts) = ts {
            let slot = per_ts.entry(ts.clone()).or_default();
            slot.events += 1;
            match e.kind.as_str() {
                "sim.run" => slot.runs += 1,
                "rating.outcome" => slot.outcomes += 1,
                _ => {}
            }
            // Method provenance: rating outcomes, Table-1 rows, and
            // span enters all carry it.
            if matches!(e.kind.as_str(), "rating.outcome" | "table1.row" | "span.enter") {
                if let Some(m) = f_str(e, "method") {
                    if !slot.methods.iter().any(|s| s == m) {
                        slot.methods.push(m.to_owned());
                    }
                }
            }
        }
    }
    if !per_ts.is_empty() {
        println!();
        println!("tuning sections:");
        println!(
            "  {:<28} {:<12} {:>8} {:>6} {:>9}",
            "ts", "methods", "events", "runs", "outcomes"
        );
        for (ts, a) in &per_ts {
            println!(
                "  {:<28} {:<12} {:>8} {:>6} {:>9}",
                ts,
                a.methods.join(","),
                a.events,
                a.runs,
                a.outcomes
            );
        }
    }
    0
}

fn ts_view(id: &str, events: &[TraceEvent]) -> i32 {
    let attribution = attribute_ts(events);
    let selected: Vec<&TraceEvent> = events
        .iter()
        .zip(&attribution)
        .filter(|(_, ts)| ts.as_deref().is_some_and(|t| t.eq_ignore_ascii_case(id)))
        .map(|(e, _)| e)
        .collect();
    if selected.is_empty() {
        eprintln!("no events attributed to tuning section `{id}`");
        let mut known: Vec<String> = attribution.into_iter().flatten().collect();
        known.sort();
        known.dedup();
        if !known.is_empty() {
            eprintln!("known sections: {}", known.join(", "));
        }
        return 1;
    }
    println!("tuning section {id}: {} events", selected.len());
    println!();
    let owned: Vec<TraceEvent> = selected.iter().map(|e| (*e).clone()).collect();
    print_rating_table(&rating_aggregate(&owned));
    println!();
    print_sim_totals(&owned);
    // Notable events in stream order; bulk kinds are already aggregated.
    const BULK: &[&str] = &["sim.run", "span.enter", "span.exit", "window.state", "counter"];
    let notable: Vec<&&TraceEvent> =
        selected.iter().filter(|e| !BULK.contains(&e.kind.as_str())).collect();
    if !notable.is_empty() {
        println!();
        println!("notable events:");
        const CAP: usize = 200;
        for e in notable.iter().take(CAP) {
            println!("  {}", e.to_line());
        }
        if notable.len() > CAP {
            println!("  … {} more", notable.len() - CAP);
        }
    }
    0
}

fn degrades(events: &[TraceEvent]) -> i32 {
    let mut any = false;
    for e in events.iter().filter(|e| e.kind == "supervisor.degrade") {
        any = true;
        println!(
            "degrade  {} -> {}: {} (rating {}){}",
            f_str(e, "from").unwrap_or("?"),
            f_str(e, "to").unwrap_or("?"),
            f_str(e, "trigger").unwrap_or("?"),
            f_u64(e, "rating").unwrap_or(0),
            ctx_suffix(e),
        );
    }
    if !any {
        println!("no downgrades recorded");
    }
    0
}

/// ` [benchmark/ts]` context suffix for degrade lines, when stamped.
fn ctx_suffix(e: &TraceEvent) -> String {
    match (f_str(e, "benchmark"), f_str(e, "ts")) {
        (Some(b), Some(t)) => format!("  [{b}/{t}]"),
        (Some(b), None) => format!("  [{b}]"),
        (None, Some(t)) => format!("  [{t}]"),
        (None, None) => String::new(),
    }
}

/// Re-render an event with self-profiling fields removed, for diffing.
fn canonical_line(e: &TraceEvent) -> String {
    let mut e = e.clone();
    e.fields.retain(|(k, _)| k != "wall_ns");
    e.to_line()
}

fn diff(a: &[TraceEvent], b: &[TraceEvent]) -> i32 {
    let mut divergences = 0usize;
    let mut first: Option<usize> = None;
    for i in 0..a.len().max(b.len()) {
        let la = a.get(i).map(canonical_line);
        let lb = b.get(i).map(canonical_line);
        if la != lb {
            divergences += 1;
            if first.is_none() {
                first = Some(i);
                println!("first divergence at event {i}:");
                println!("  a: {}", la.as_deref().unwrap_or("<end of trace>"));
                println!("  b: {}", lb.as_deref().unwrap_or("<end of trace>"));
            }
        }
    }
    if divergences == 0 {
        println!("traces identical ({} events, wall_ns ignored)", a.len());
        0
    } else {
        println!(
            "{divergences} differing events ({} vs {} total, wall_ns ignored)",
            a.len(),
            b.len()
        );
        1
    }
}
