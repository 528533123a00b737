//! `perfbench` — the measuring half of the repository benchmark.
//!
//! `perfbench/run.py` builds this binary and drives it. Each measurement
//! runs in a fresh process, so its CPU time and peak RSS belong to one
//! pipeline call and none of the checking:
//!
//! ```text
//! perfbench rep   <workload> <seed> <n>            one untraced, checked call: one JSON line
//! perfbench trace <workload> <seed> <n> <seconds>  traced calls, references, checks: spans as JSON
//! perfbench shard <net_shard argv>                 one netplane shard, as `net_shard` runs it
//! ```

mod check;
mod probe;
mod workload;

use d2color::congest::{NetTables, RuntimeMode};
use d2color::graphs::{verify, D2View, Graph};
use d2color::netharness::{self, RunProfile};
use probe::{usage, Who};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use workload::{Inputs, Output, Workload};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let line = match args.first().map(String::as_str) {
        Some(workload::SHARD_SUBCOMMAND) => {
            let Some((addr, spec, opts)) = netharness::parse_shard_argv(&args[1..]) else {
                usage_exit()
            };
            netharness::shard_main(addr, &spec, &opts).expect("shard transport failure");
            return;
        }
        Some("rep") => match parse(&args[1..], 3) {
            Some((w, inputs, _)) => rep(w, &inputs),
            None => usage_exit(),
        },
        Some("trace") => match parse(&args[1..], 4) {
            Some((w, inputs, seconds)) => trace(w, &inputs, seconds),
            None => usage_exit(),
        },
        _ => usage_exit(),
    };
    println!("{line}");
}

fn usage_exit() -> ! {
    eprintln!(
        "usage: perfbench rep <workload> <seed> <n>\n       \
         perfbench trace <workload> <seed> <n> <seconds>\n       \
         perfbench shard <net_shard argv>"
    );
    std::process::exit(2);
}

/// `<workload> <seed> <n> [<seconds>]`.
fn parse(args: &[String], len: usize) -> Option<(Workload, Inputs, f64)> {
    if args.len() != len {
        return None;
    }
    let w = Workload::parse(&args[0])?;
    let seed = args[1].parse().ok()?;
    let n: usize = args[2].parse().ok()?;
    if n <= workload::DEGREE {
        return None;
    }
    let seconds = match args.get(3) {
        Some(s) => s.parse().ok()?,
        None => 0.0,
    };
    Some((w, Inputs::from_seed(n, seed), seconds))
}

/// Runs a pipeline call, turning a `SimError` or a panic (a dead shard,
/// an engine fault) into a failure message.
fn guarded(
    f: impl FnOnce() -> Result<Output, d2color::congest::SimError>,
) -> Result<Output, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(out)) => Ok(out),
        Ok(Err(e)) => Err(format!("SimError: {e}")),
        Err(panic) => Err(format!(
            "panic: {}",
            panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string payload>")
        )),
    }
}

/// Graph generations per call process. Set-up is single-threaded and
/// ~0.1 s; on a shared host single generations vary by up to a third, so
/// a call reports the fastest of a few, timed by thread CPU time.
const SETUPS: usize = 4;

/// One untraced, checked pipeline call, after [`SETUPS`] set-ups.
fn rep(w: Workload, inputs: &Inputs) -> String {
    let mut setup_s = f64::INFINITY;
    let mut g = None;
    for _ in 0..SETUPS {
        let t = probe::thread_cpu_s();
        g = Some(inputs.graph());
        setup_s = setup_s.min(probe::thread_cpu_s() - t);
    }
    let g = g.expect("SETUPS > 0");

    probe::reset_peak_rss();
    let (p0, c0) = (usage(Who::Process), usage(Who::Children));
    let t = Instant::now();
    let out = guarded(|| workload::run(w, &g, inputs));
    let wall_s = t.elapsed().as_secs_f64();
    let (p1, c1) = (usage(Who::Process), usage(Who::Children));
    // The netplane's pipeline runs in the shards; the largest one is the
    // peak. In-process, the mark was reset after set-up.
    let peak_rss_mb = match w {
        Workload::NetDetSmall => c1.maxrss_mb,
        _ => probe::peak_rss_mb(),
    };

    let out = verdict(&D2View::build(&g), &g, &out);
    let mut j = Json::default();
    match &out {
        Ok(_) => j.raw("ok", "true").raw("error", "null"),
        Err(why) => j.raw("ok", "false").str("error", why),
    };
    j.num("setup_s", setup_s)
        .num("wall_s", wall_s)
        .num("cpu_s", (p1.cpu_s - p0.cpu_s) + (c1.cpu_s - c0.cpu_s))
        .num("peak_rss_mb", peak_rss_mb);
    if let Ok(o) = &out {
        counts(&mut j, &o.metrics);
        j.int("palette", verify::palette_size(&o.colors) as u64);
    }
    j.finish()
}

/// A call's checked output, or why it failed: a `SimError`, a panic, or
/// a failed output check.
fn verdict<'a>(
    view: &D2View,
    g: &Graph,
    out: &'a Result<Output, String>,
) -> Result<&'a Output, String> {
    let o = out.as_ref().map_err(Clone::clone)?;
    match check::output(view, g.max_degree(), &o.colors, &o.metrics) {
        None => Ok(o),
        Some(why) => Err(why),
    }
}

fn counts(j: &mut Json, m: &d2color::congest::Metrics) {
    j.int("rounds", m.rounds)
        .int("messages", m.messages)
        .int("total_bits", m.total_bits)
        .int("stepped_nodes", m.stepped_nodes);
}

/// One recorded interval.
struct Span {
    name: &'static str,
    label: String,
    parent: Option<usize>,
    rep: usize,
    start_s: f64,
    end_s: f64,
    attrs: Vec<(&'static str, f64)>,
}

/// Spans kept in memory and written when the run ends.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Times `f` as a top-level span; returns the span's index and `f`'s
    /// result.
    fn span<T>(&mut self, name: &'static str, rep: usize, f: impl FnOnce() -> T) -> (usize, T) {
        let start_s = self.now();
        let out = f();
        let end_s = self.now();
        self.spans.push(Span {
            name,
            label: String::new(),
            parent: None,
            rep,
            start_s,
            end_s,
            attrs: Vec::new(),
        });
        (self.spans.len() - 1, out)
    }

    /// Adds the call's `PhaseReport`s of the named layers as children of
    /// span `parent`. A report carries a duration but no start, so the
    /// phases are placed back to back from the parent's start; durations
    /// are as measured. A phase outside the named layers (the rand Reduce
    /// cascade, which at d = 8 runs only below n ≈ 3000) gets no span and
    /// stays in the parent's self time.
    fn phases(&mut self, parent: usize, out: &Output) {
        let (rep, mut at) = (self.spans[parent].rep, self.spans[parent].start_s);
        for p in &out.phases {
            let end = at + p.wall_ms / 1e3;
            if let Some(layer) = workload::layer_of(&p.name) {
                self.spans.push(Span {
                    name: layer,
                    label: p.name.clone(),
                    parent: Some(parent),
                    rep,
                    start_s: at,
                    end_s: end,
                    attrs: vec![
                        ("rounds", p.metrics.rounds as f64),
                        ("messages", p.metrics.messages as f64),
                        ("stepped_nodes", p.metrics.stepped_nodes as f64),
                    ],
                });
            }
            at = end;
        }
    }

    fn to_json(&self, workload: &str) -> String {
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let mut j = Json::default();
                j.str("name", s.name)
                    .str("label", &s.label)
                    .str("workload", workload)
                    .int("rep", s.rep as u64)
                    .raw("parent", &s.parent.map_or("null".into(), |p| p.to_string()))
                    .num("start_s", s.start_s)
                    .num("end_s", s.end_s);
                for &(k, v) in &s.attrs {
                    j.num(k, v);
                }
                j.finish()
            })
            .collect();
        format!("[{}]", spans.join(","))
    }
}

/// The traced run: set-up, `NetTables`, pipeline calls for `seconds`
/// (untraced and traced in turn, on the same graph, so their difference
/// is the tracing overhead), the sequential reference(s), then every
/// check.
fn trace(w: Workload, inputs: &Inputs, seconds: f64) -> String {
    let mut tr = Tracer {
        origin: Instant::now(),
        spans: Vec::new(),
    };
    let (_, g) = tr.span("setup", 0, || inputs.graph());
    let cfg = match w {
        Workload::NetDetSmall => inputs.net_spec().config_with(&RunProfile::active_set()),
        _ => inputs.config(RuntimeMode::Parallel(workload::WORKERS)),
    };
    tr.span("net_tables", 0, || NetTables::build(&g, &cfg));

    let mut outs = Vec::new();
    let mut untraced_s = Vec::new();
    for rep in 0.. {
        let t = Instant::now();
        outs.push(guarded(|| workload::run(w, &g, inputs)));
        untraced_s.push(t.elapsed().as_secs_f64());

        let (p0, c0) = (usage(Who::Process), usage(Who::Children));
        let (id, out) = tr.span("pipeline", rep, || guarded(|| workload::run(w, &g, inputs)));
        let (p1, c1) = (usage(Who::Process), usage(Who::Children));
        tr.spans[id].attrs = vec![
            ("cpu_s", (p1.cpu_s - p0.cpu_s) + (c1.cpu_s - c0.cpu_s)),
            ("shard_cpu_s", c1.cpu_s - c0.cpu_s),
            ("shard_peak_rss_mb", c1.maxrss_mb),
        ];
        if let Ok(o) = &out {
            tr.phases(id, o);
        }
        outs.push(out);
        if tr.now() >= seconds {
            break;
        }
    }

    let mut refs: Vec<(&str, Result<Output, String>)> = Vec::new();
    let seq_cfg = inputs.config(RuntimeMode::Sequential);
    let (_, seq) = tr.span("sequential_reference", 0, || match w {
        Workload::DetSmall => guarded(|| workload::det_small(&g, &seq_cfg)),
        Workload::RandStressed => guarded(|| workload::rand_stressed(&g, &seq_cfg)),
        Workload::NetDetSmall => guarded(|| {
            Ok(netharness::run_sequential(&inputs.net_spec(), &RunProfile::active_set()).into())
        }),
    });
    refs.push(("the sequential reference", seq));
    if w == Workload::NetDetSmall {
        // det-small-rr100k's own pipeline call: the netplane must match
        // its model counts.
        let par_cfg = inputs.config(RuntimeMode::Parallel(workload::WORKERS));
        let (_, par) = tr.span("inprocess_reference", 0, || {
            guarded(|| workload::det_small(&g, &par_cfg))
        });
        refs.push(("det-small-rr100k", par));
    }

    let (_, (failed, errors)) = tr.span("checks", 0, || checks(&g, &outs, &refs));
    let errors: Vec<String> = errors.iter().map(|e| quote(e)).collect();
    let untraced: Vec<String> = untraced_s.iter().map(f64::to_string).collect();
    let mut j = Json::default();
    j.str("workload", w.name())
        .int("n", inputs.n as u64)
        .int("graph_seed", inputs.graph_seed)
        .int("run_seed", inputs.run_seed)
        .int("attempted", (outs.len() + refs.len()) as u64)
        .int("failed", failed as u64)
        .raw("errors", &format!("[{}]", errors.join(",")))
        .raw("untraced_wall_s", &format!("[{}]", untraced.join(",")));
    if let Some(Ok(o)) = outs.first() {
        counts(&mut j, &o.metrics);
    }
    j.raw("spans", &tr.to_json(w.name()));
    j.finish()
}

/// Every check of the traced run, where each call and each reference is
/// one attempt: a call fails when its output fails a check or its model
/// counts differ from those most of the calls share; a reference fails
/// when it errs or differs from those calls. Returns the number of failed
/// attempts and why each failed.
fn checks(
    g: &Graph,
    outs: &[Result<Output, String>],
    refs: &[(&str, Result<Output, String>)],
) -> (usize, Vec<String>) {
    let view = D2View::build(g);
    let mut errors = Vec::new();
    let mut ok = Vec::new();
    for (rep, out) in outs.iter().enumerate() {
        match verdict(&view, g, out) {
            Ok(o) => ok.push((rep, o)),
            Err(why) => errors.push(format!("call {rep}: {why}")),
        }
    }
    let shared = |o: &Output| ok.iter().filter(|(_, p)| p.metrics == o.metrics).count();
    let Some(&(_, model)) = ok.iter().max_by_key(|(_, o)| shared(o)) else {
        errors.extend(
            refs.iter()
                .map(|(name, _)| format!("{name}: no call to compare with")),
        );
        return (errors.len(), errors);
    };
    for (rep, o) in &ok {
        if o.metrics != model.metrics {
            errors.push(format!(
                "call {rep}: model counts differ from the other calls'"
            ));
        }
    }
    for (name, r) in refs {
        match r {
            Err(why) => errors.push(format!("{name}: {why}")),
            Ok(r) if r.metrics != model.metrics => {
                errors.push(format!("metrics differ from {name}"));
            }
            Ok(r) if r.colors != model.colors => {
                errors.push(format!("colouring differs from {name}"));
            }
            Ok(_) => {}
        }
    }
    (errors.len(), errors)
}

/// A flat JSON object, built field by field.
#[derive(Default)]
struct Json(Vec<String>);

impl Json {
    fn raw(&mut self, k: &str, v: &str) -> &mut Self {
        self.0.push(format!("{}:{v}", quote(k)));
        self
    }

    fn str(&mut self, k: &str, v: &str) -> &mut Self {
        self.raw(k, &quote(v))
    }

    fn int(&mut self, k: &str, v: u64) -> &mut Self {
        self.raw(k, &v.to_string())
    }

    /// A finite float with all its digits (`Display` never uses an
    /// exponent, so the text is valid JSON).
    fn num(&mut self, k: &str, v: f64) -> &mut Self {
        assert!(v.is_finite(), "{k} = {v} is not finite");
        self.raw(k, &v.to_string())
    }

    fn finish(&self) -> String {
        format!("{{{}}}", self.0.join(","))
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_colouring_or_a_mismatch_counts_as_a_failed_attempt() {
        let inputs = Inputs::from_seed(400, 5);
        let g = inputs.graph();
        let good = workload::det_small(&g, &inputs.config(RuntimeMode::Sequential))
            .expect("pipeline runs");
        let mut bad = good.clone();
        bad.colors[g.neighbors(0)[0] as usize] = bad.colors[0];
        let mut other = good.clone();
        other.metrics.messages += 1;

        assert_eq!(checks(&g, &[Ok(good.clone())], &[]), (0, vec![]));
        let (failed, errors) = checks(
            &g,
            &[Ok(good.clone()), Ok(bad.clone()), Err("panic: x".into())],
            &[],
        );
        assert_eq!((failed, errors.len()), (2, 2), "{errors:?}");

        // A call whose counts differ from the others', and references
        // that differ from the calls.
        let calls = [Ok(good.clone()), Ok(other.clone()), Ok(good.clone())];
        let refs = [
            ("same", Ok(good.clone())),
            ("counts", Ok(other)),
            ("colours", Ok(bad)),
            ("crashed", Err("SimError: x".into())),
        ];
        let (failed, errors) = checks(&g, &calls, &refs);
        assert_eq!((failed, errors.len()), (4, 4), "{errors:?}");
    }
}
