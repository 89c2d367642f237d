//! `metamut` — command-line front door to the reproduction.
//!
//! ```text
//! metamut list                          # list the mutator library
//! metamut mutate FILE -m NAME [-s N]    # apply one mutator to a C file
//! metamut compile FILE [-p gcc|clang] [-O N] [--flags ...]
//! metamut generate [-n N] [-s N]        # run the MetaMut pipeline
//! metamut fuzz [-i N] [-s N] [-p gcc|clang] [-w N]
//!              [--no-ub-filter] [--no-lint-penalty] [--reduce]
//!              [--status-addr HOST:PORT]
//! metamut analyze FILE [--json]         # dataflow UB/validity findings
//! metamut reduce FILE [-p gcc|clang] [-O N] [--flags ...]   # minimize one crasher
//! metamut triage FILE... [-p gcc|clang] [-O N] [--out DIR] [--append]
//! metamut status ADDR [PATH]            # query a live campaign's HTTP endpoint
//! metamut report [--snapshot F] [--timeseries F] [--triage F] [--out F]
//! ```
//!
//! Observatory flags on any subcommand: `--trace-out PATH` (Chrome
//! trace-event JSON), `--timeseries-out PATH` (sampled series JSONL).

use metamut::prelude::*;
use metamut_fuzzing::mucfuzz::MuCFuzz;
use metamut_fuzzing::parallel::run_parallel_campaign;
use metamut_simcomp::OptFlags;
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(|s| s.as_str()).unwrap_or("help");
    let rest = &args[1.min(args.len())..];
    // Global flags: --telemetry PATH (or METAMUT_TELEMETRY=PATH) streams
    // JSONL events to PATH plus a status line to stderr; --status-every
    // SECS (or METAMUT_STATUS_EVERY) retunes the status cadence (0 = off).
    let telemetry_path = metamut_telemetry::init_from_args(
        opt(rest, "--telemetry").as_deref(),
        opt(rest, "--status-every").and_then(|s| s.parse().ok()),
    );
    // Observatory outputs: --trace-out PATH writes a Chrome trace-event
    // JSON at exit; --timeseries-out PATH writes the sampled campaign
    // time-series as JSONL. Either flag enables telemetry on its own.
    metamut_telemetry::init_outputs(
        opt(rest, "--trace-out").as_deref(),
        opt(rest, "--timeseries-out").as_deref(),
    );
    let code = match cmd {
        "list" => list(),
        "mutate" => mutate(rest),
        "compile" => compile_cmd(rest),
        "generate" => generate(rest),
        "fuzz" => fuzz(rest),
        "analyze" => analyze_cmd(rest),
        "reduce" => reduce_cmd(rest),
        "triage" => triage_cmd(rest),
        "status" => status_cmd(rest),
        "report" => report_cmd(rest),
        "serve" => serve_cmd(rest),
        "submit" => submit_cmd(rest),
        "jobs" => jobs_cmd(rest),
        _ => {
            eprintln!(
                "usage: metamut <list|mutate|compile|generate|fuzz|analyze|reduce|triage|serve> [options]\n\
                 \n  list                         list the mutator library\
                 \n  mutate FILE -m NAME [-s N]   apply one mutator to a C file\
                 \n  compile FILE [-p gcc|clang] [-O N] [--no-tree-vrp] [--unroll-loops]\
                 \n  generate [-n N] [-s N]       run the MetaMut generation pipeline\
                 \n  fuzz [-i N] [-s N] [-p gcc|clang] [-w N]  run a μCFuzz campaign\
                 \n                               -w N: worker threads (0 = one per CPU; default 1)\
                 \n                               --no-ub-filter: compile UB mutants too\
                 \n                               --no-lint-penalty: uniform seed picks (ignore lints)\
                 \n                               --reduce: triage + reduce discovered crashes\
                 \n                               --reduce-out DIR: write triage.json/.md to DIR\
                 \n  analyze FILE [--json]        report dataflow UB/validity findings\
                 \n  reduce FILE [-p gcc|clang] [-O N] [--no-tree-vrp] [--unroll-loops]\
                 \n                               minimize one crashing program (stdout)\
                 \n  triage FILE... [-p gcc|clang] [-O N] [-w N] [--out DIR] [--append]\
                 \n                               bucket crashing files by signature and reduce each\
                 \n                               --append: merge into DIR/triage.json (and the\
                 \n                               telemetry snapshot in DIR/telemetry.json) from prior runs\
                 \n  status ADDR [PATH]           query a live campaign's HTTP status endpoint\
                 \n                               (PATH: /metrics, /timeseries, or /spans)\
                 \n  report [--snapshot F] [--timeseries F] [--triage F] [--out F]\
                 \n                               render a markdown campaign report\
                 \n  serve [--store DIR] [--addr HOST:PORT] [--http HOST:PORT] [-w N]\
                 \n        [--slice N] [--checkpoint-every N] [--addr-out FILE]\
                 \n                               run the multi-tenant fuzzing daemon\
                 \n  submit ADDR fuzz [-i N] [-s N] [-p gcc|clang] [-O N] [--reduce] [--wait]\
                 \n  submit ADDR <analyze|reduce> FILE / triage FILE...  submit a one-shot job\
                 \n  jobs ADDR [ID] [--status] [--cancel ID]  inspect or cancel daemon jobs\
                 \n  (any subcommand) --telemetry PATH  stream telemetry JSONL to PATH\
                 \n  (any subcommand) --status-every SECS  status-line cadence (0 = off)\
                 \n  (any subcommand) --trace-out PATH  write a Chrome trace-event JSON at exit\
                 \n  (any subcommand) --timeseries-out PATH  write sampled time-series JSONL at exit\
                 \n  (fuzz) --status-addr HOST:PORT  serve /metrics, /timeseries, /spans while fuzzing"
            );
            ExitCode::from(2)
        }
    };
    if let Some(path) = telemetry_path {
        // Flush the event log and leave a metrics snapshot next to it.
        if let Some(snapshot) = metamut_telemetry::global_snapshot_json() {
            let snap_path = path.with_extension("snapshot.json");
            if let Err(e) = std::fs::write(&snap_path, snapshot) {
                eprintln!("telemetry: cannot write {}: {e}", snap_path.display());
            }
        }
    }
    // Writes any --trace-out / --timeseries-out files and flushes sinks.
    metamut_telemetry::global_finalize();
    code
}

fn opt(rest: &[String], flag: &str) -> Option<String> {
    rest.iter()
        .position(|a| a == flag)
        .and_then(|i| rest.get(i + 1))
        .cloned()
}

const VALUE_FLAGS: [&str; 26] = [
    "-m",
    "-s",
    "-p",
    "-O",
    "-i",
    "-n",
    "-w",
    "--workers",
    "--telemetry",
    "--status-every",
    "--out",
    "--reduce-out",
    "--trace-out",
    "--timeseries-out",
    "--status-addr",
    "--status-addr-out",
    "--snapshot",
    "--timeseries",
    "--triage",
    "--store",
    "--addr",
    "--http",
    "--slice",
    "--checkpoint-every",
    "--addr-out",
    "--cancel",
];

/// Value flags every subcommand accepts (see `main`).
const GLOBAL_VALUE_FLAGS: [&str; 4] = [
    "--telemetry",
    "--status-every",
    "--trace-out",
    "--timeseries-out",
];

/// Rejects arguments a subcommand does not take: every argument must be
/// one of `switches`, a global or listed value flag followed by its
/// value, or one of the first `max_positionals` positional arguments. A
/// violation is a usage error: exit 2.
fn check_args(
    cmd: &str,
    rest: &[String],
    value_flags: &[&str],
    switches: &[&str],
    max_positionals: usize,
) -> Result<(), ExitCode> {
    let usage = |msg: String| {
        eprintln!("{cmd}: {msg}");
        ExitCode::from(2)
    };
    let mut args = rest.iter();
    let mut positionals = 0;
    while let Some(a) = args.next() {
        if value_flags.contains(&a.as_str()) || GLOBAL_VALUE_FLAGS.contains(&a.as_str()) {
            if args.next().is_none() {
                return Err(usage(format!("{a} needs a value")));
            }
        } else if a.starts_with('-') {
            if !switches.contains(&a.as_str()) {
                return Err(usage(format!("unknown flag {a:?}")));
            }
        } else {
            positionals += 1;
            if positionals > max_positionals {
                return Err(usage(format!("unexpected argument {a:?}")));
            }
        }
    }
    Ok(())
}

/// The value of the first of `flags` present, parsed as `T`; `default`
/// when none is. An unparsable value is a usage error: exit 2.
fn num_opt<T: std::str::FromStr>(
    cmd: &str,
    rest: &[String],
    flags: &[&str],
    default: T,
) -> Result<T, ExitCode> {
    let Some((flag, value)) = flags.iter().find_map(|f| Some((f, opt(rest, f)?))) else {
        return Ok(default);
    };
    value.parse().map_err(|_| {
        eprintln!("{cmd}: invalid value {value:?} for {flag} (expected an unsigned integer)");
        ExitCode::from(2)
    })
}

fn positionals(rest: &[String]) -> Vec<&String> {
    let mut out = Vec::new();
    let mut skip_next = false;
    for a in rest {
        if skip_next {
            skip_next = false;
            continue;
        }
        if VALUE_FLAGS.contains(&a.as_str()) {
            skip_next = true;
            continue;
        }
        if !a.starts_with('-') {
            out.push(a);
        }
    }
    out
}

fn positional(rest: &[String]) -> Option<&String> {
    positionals(rest).into_iter().next()
}

fn list() -> ExitCode {
    let reg = metamut::mutators::full_registry();
    println!("{} mutators:", reg.len());
    for m in reg.iter() {
        let tag = match m.provenance {
            metamut::muast::Provenance::Supervised => "M_s",
            metamut::muast::Provenance::Unsupervised => "M_u",
        };
        println!(
            "  {:<34} [{:<10} {tag}]  {}",
            m.mutator.name(),
            m.mutator.category().to_string(),
            m.mutator.description()
        );
    }
    ExitCode::SUCCESS
}

fn mutate(rest: &[String]) -> ExitCode {
    let Some(file) = positional(rest) else {
        eprintln!("mutate: missing FILE");
        return ExitCode::from(2);
    };
    let src = match std::fs::read_to_string(file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("mutate: cannot read {file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let seed: u64 = opt(rest, "-s").and_then(|s| s.parse().ok()).unwrap_or(1);
    let reg = metamut::mutators::full_registry();
    let name = opt(rest, "-m");
    let entries: Vec<_> = match &name {
        Some(n) => match reg.get(n) {
            Some(e) => vec![e.clone()],
            None => {
                eprintln!("mutate: unknown mutator {n} (try `metamut list`)");
                return ExitCode::from(2);
            }
        },
        None => reg.iter().cloned().collect(),
    };
    for attempt in 0..200u64 {
        let e = &entries[(seed.wrapping_add(attempt) % entries.len() as u64) as usize];
        match mutate_source(e.mutator.as_ref(), &src, seed.wrapping_add(attempt)) {
            Ok(MutationOutcome::Mutated(m)) => {
                eprintln!("-- applied {}", e.mutator.name());
                print!("{m}");
                return ExitCode::SUCCESS;
            }
            _ => continue,
        }
    }
    eprintln!("mutate: no mutator applied (is the input valid C?)");
    ExitCode::FAILURE
}

/// The `-p` profile (gcc when absent), resolved exactly as the daemon
/// resolves job profiles. An unknown name is a usage error: exit 2.
fn parse_profile(cmd: &str, rest: &[String]) -> Result<Profile, ExitCode> {
    let name = opt(rest, "-p").unwrap_or_else(|| "gcc".to_string());
    metamut_serve::job::parse_profile(&name).ok_or_else(|| {
        eprintln!("{cmd}: unknown profile {name:?} (expected gcc or clang)");
        ExitCode::from(2)
    })
}

fn parse_options(rest: &[String], default_opt: u8) -> CompileOptions {
    CompileOptions {
        opt_level: opt(rest, "-O")
            .and_then(|s| s.parse().ok())
            .unwrap_or(default_opt),
        flags: OptFlags {
            no_tree_vrp: rest.iter().any(|a| a == "--no-tree-vrp"),
            unroll_loops: rest.iter().any(|a| a == "--unroll-loops"),
            strict_aliasing: true,
        },
    }
}

fn compile_cmd(rest: &[String]) -> ExitCode {
    let Some(file) = positional(rest) else {
        eprintln!("compile: missing FILE");
        return ExitCode::from(2);
    };
    let src = match std::fs::read_to_string(file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("compile: cannot read {file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let profile = match parse_profile("compile", rest) {
        Ok(profile) => profile,
        Err(code) => return code,
    };
    let compiler = Compiler::new(profile, parse_options(rest, 2));
    let r = compiler.compile(&src);
    println!(
        "{} {} → {:?} ({} branches covered)",
        compiler.profile().name(),
        compiler.options().render(),
        r.outcome,
        r.coverage.count()
    );
    match r.outcome {
        Outcome::Success { .. } => ExitCode::SUCCESS,
        Outcome::Rejected { .. } => ExitCode::FAILURE,
        Outcome::Crash(_) => ExitCode::from(101),
    }
}

fn generate(rest: &[String]) -> ExitCode {
    let n: usize = opt(rest, "-n").and_then(|s| s.parse().ok()).unwrap_or(10);
    let seed: u64 = opt(rest, "-s").and_then(|s| s.parse().ok()).unwrap_or(7);
    std::panic::set_hook(Box::new(|_| {}));
    let mut mm = metamut::core::default_framework(seed);
    let records = mm.run_many(n, seed ^ 0xFACE);
    let _ = std::panic::take_hook();
    for r in &records {
        match (&r.status, &r.blueprint) {
            (metamut::core::GenerationStatus::Valid, Some(bp)) => println!(
                "VALID   {:<30} behavior={:<28} tokens={} rounds={}",
                bp.name,
                bp.behavior,
                r.cost.tokens_total(),
                r.cost.qa_total()
            ),
            (status, _) => println!("INVALID {status:?}"),
        }
    }
    let valid = records.iter().filter(|r| r.status.is_valid()).count();
    println!("{valid}/{n} valid mutators generated");
    ExitCode::SUCCESS
}

/// `metamut analyze FILE [--json]` — runs the dataflow UB/validity analyzer
/// over one C file and reports every finding, either as a JSON array or as
/// human-readable diagnostics with caret-underlined source spans. Exits 0
/// when no UB was found (lints alone don't fail the run), 1 on UB, 2 on a
/// parse error.
fn analyze_cmd(rest: &[String]) -> ExitCode {
    use metamut::analyze::analyze_source;
    use metamut_lang::SourceFile;
    let Some(file) = positional(rest) else {
        eprintln!("analyze: missing FILE");
        return ExitCode::from(2);
    };
    let src = match std::fs::read_to_string(file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("analyze: cannot read {file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let source = SourceFile::new(file.as_str(), src.as_str());
    let findings = match analyze_source(&src) {
        Ok(f) => f,
        Err(diags) => {
            for d in diags.iter() {
                eprintln!("{}", d.render(&source));
            }
            return ExitCode::from(2);
        }
    };
    if rest.iter().any(|a| a == "--json") {
        match serde_json::to_string_pretty(&findings) {
            Ok(json) => println!("{json}"),
            Err(e) => {
                eprintln!("analyze: cannot serialize findings: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else if findings.is_empty() {
        println!("{file}: no findings");
    } else {
        for f in &findings {
            let pos = source.line_col(f.span.lo);
            println!(
                "{file}:{pos}: {} [{}] in '{}': {}",
                f.severity, f.analysis, f.function, f.message
            );
            // Interprocedural findings: show the call path, outermost
            // call site first, down to where the defect actually fires.
            for link in &f.chain {
                let at = source.line_col(link.span.lo);
                println!("  via '{}' at {file}:{at}", link.function);
            }
            // Caret-underline the finding's span on its first source line.
            if let Some(line) = source.line_span(pos.line) {
                let text = source.snippet(line);
                let start = (f.span.lo - line.lo) as usize;
                let width = (f.span.hi.min(line.hi).saturating_sub(f.span.lo)).max(1) as usize;
                println!("  {text}");
                println!("  {:start$}{}", "", "^".repeat(width));
            }
        }
        let ub = findings.iter().filter(|f| f.is_ub()).count();
        println!(
            "{file}: {} finding(s), {ub} UB, {} lint",
            findings.len(),
            findings.len() - ub
        );
    }
    if findings.iter().any(|f| f.is_ub()) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn reduce_cmd(rest: &[String]) -> ExitCode {
    use metamut::reduce::{reduce, ReduceConfig, ReductionOracle};
    let Some(file) = positional(rest) else {
        eprintln!("reduce: missing FILE");
        return ExitCode::from(2);
    };
    let src = match std::fs::read_to_string(file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("reduce: cannot read {file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let profile = match parse_profile("reduce", rest) {
        Ok(profile) => profile,
        Err(code) => return code,
    };
    let options = parse_options(rest, 2);
    let Some(oracle) = ReductionOracle::for_witness(profile, options.clone(), &src) else {
        eprintln!(
            "reduce: {file} does not crash {} {}",
            profile.name(),
            options.render()
        );
        return ExitCode::FAILURE;
    };
    let result = reduce(&oracle, &src, &ReduceConfig::default());
    eprintln!(
        "reduce: {} → {} bytes ({:.0}%), {} oracle calls, {} rounds",
        result.original_bytes,
        result.reduced_bytes,
        result.ratio() * 100.0,
        result.oracle_calls,
        result.rounds
    );
    for (pass, bytes) in &result.pass_bytes {
        eprintln!("  {pass:<16} -{bytes} bytes");
    }
    print!("{}", result.reduced);
    if !result.reduced.ends_with('\n') {
        println!();
    }
    ExitCode::SUCCESS
}

fn triage_cmd(rest: &[String]) -> ExitCode {
    use metamut::fuzzing::campaign::CrashRecord;
    use metamut::reduce::{triage_crashes, TriageConfig};
    let files = positionals(rest);
    if files.is_empty() {
        eprintln!("triage: missing FILE...");
        return ExitCode::from(2);
    }
    let profile = match parse_profile("triage", rest) {
        Ok(profile) => profile,
        Err(code) => return code,
    };
    let options = parse_options(rest, 2);
    let compiler = Compiler::new(profile, options.clone());
    let mut records = Vec::new();
    for file in files {
        let src = match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("triage: cannot read {file}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match compiler.compile(&src).outcome.crash() {
            Some(info) => records.push(CrashRecord {
                signature: info.signature(),
                info: info.clone(),
                first_iteration: records.len(),
                witness: src,
                options: options.clone(),
            }),
            None => eprintln!(
                "triage: {file} does not crash {} {} — skipped",
                profile.name(),
                options.render()
            ),
        }
    }
    if records.is_empty() {
        eprintln!("triage: no crashing inputs");
        return ExitCode::FAILURE;
    }
    let workers: usize = opt(rest, "-w")
        .or_else(|| opt(rest, "--workers"))
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let config = TriageConfig {
        workers,
        ..Default::default()
    };
    let mut report = triage_crashes(&records, profile, &options, &config);
    let out = opt(rest, "--out");
    let append = rest.iter().any(|a| a == "--append");
    if append {
        // Fold a previous run's triage.json (if any) into this report:
        // bugs dedup by signature, keeping the smallest reduced witness.
        let Some(dir) = out.as_deref() else {
            eprintln!("triage: --append requires --out DIR");
            return ExitCode::from(2);
        };
        let path = std::path::Path::new(dir).join("triage.json");
        if path.exists() {
            let merged = std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|text| {
                    let mut base = metamut::reduce::TriageReport::from_json(&text)?;
                    base.merge(report.clone())?;
                    Ok(base)
                });
            match merged {
                Ok(m) => {
                    eprintln!(
                        "triage: appended to {} ({} bug(s) total)",
                        path.display(),
                        m.bugs.len()
                    );
                    report = m;
                }
                Err(e) => {
                    eprintln!("triage: cannot append to {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    if let Some(dir) = out.as_deref() {
        emit_telemetry_snapshot(dir, append);
    }
    emit_triage(&report, out.as_deref())
}

/// Writes (or, on `--append`, merges into) `DIR/telemetry.json` — the
/// telemetry snapshot riding along with a triage output directory so
/// multi-run campaigns accumulate counters (sums) and gauges (maxima)
/// alongside the merged bug list. No-op when telemetry is disabled.
fn emit_telemetry_snapshot(dir: &str, append: bool) {
    let telemetry = metamut_telemetry::handle();
    if !telemetry.enabled() {
        return;
    }
    let mut snapshot = telemetry.snapshot();
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("triage: cannot create {dir}: {e}");
        return;
    }
    let path = std::path::Path::new(dir).join("telemetry.json");
    if append && path.exists() {
        match std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| {
                serde_json::from_str::<metamut_telemetry::Snapshot>(&text)
                    .map_err(|e| format!("malformed snapshot: {e}"))
            }) {
            Ok(previous) => snapshot.merge(&previous),
            Err(e) => {
                eprintln!("triage: cannot merge {}: {e}", path.display());
                return;
            }
        }
    }
    match serde_json::to_string_pretty(&snapshot) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("triage: cannot write {}: {e}", path.display());
            } else {
                eprintln!("triage: wrote {}", path.display());
            }
        }
        Err(e) => eprintln!("triage: cannot serialize telemetry snapshot: {e}"),
    }
}

/// `metamut status ADDR [PATH]` — one-shot client for the live status
/// endpoint: fetches PATH (default `/metrics`) and prints the body.
fn status_cmd(rest: &[String]) -> ExitCode {
    let mut args = positionals(rest).into_iter();
    let Some(addr) = args.next() else {
        eprintln!("status: missing ADDR (e.g. 127.0.0.1:8433)");
        return ExitCode::from(2);
    };
    let path = rest
        .iter()
        .find(|a| a.starts_with('/'))
        .map(|s| s.as_str())
        .unwrap_or("/metrics");
    match metamut_telemetry::fetch(addr, path) {
        Ok(body) => {
            print!("{body}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("status: {addr}{path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `metamut report` — joins a telemetry snapshot, a time-series JSONL,
/// and a triage JSON into one markdown campaign report.
fn report_cmd(rest: &[String]) -> ExitCode {
    let snapshot = match opt(rest, "--snapshot") {
        Some(path) => match std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| {
                serde_json::from_str::<metamut_telemetry::Snapshot>(&text)
                    .map_err(|e| format!("malformed snapshot: {e}"))
            }) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("report: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => metamut_telemetry::Snapshot::default(),
    };
    let series = match opt(rest, "--timeseries") {
        Some(path) => match std::fs::read_to_string(&path) {
            Ok(text) => metamut_telemetry::parse_jsonl(&text),
            Err(e) => {
                eprintln!("report: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => Vec::new(),
    };
    let triage = match opt(rest, "--triage") {
        Some(path) => match std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| metamut::reduce::TriageReport::from_json(&text))
        {
            Ok(t) => Some(t),
            Err(e) => {
                eprintln!("report: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    if opt(rest, "--snapshot").is_none()
        && opt(rest, "--timeseries").is_none()
        && opt(rest, "--triage").is_none()
    {
        eprintln!("report: nothing to report (pass --snapshot, --timeseries, and/or --triage)");
        return ExitCode::from(2);
    }
    let md = metamut::report::campaign_report(&snapshot, &series, triage.as_ref());
    match opt(rest, "--out") {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, md) {
                eprintln!("report: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("report: wrote {path}");
            ExitCode::SUCCESS
        }
        None => {
            print!("{md}");
            ExitCode::SUCCESS
        }
    }
}

/// Prints a triage report (markdown to stdout), optionally also writing
/// `triage.json` and `triage.md` into a directory.
fn emit_triage(report: &metamut::reduce::TriageReport, out_dir: Option<&str>) -> ExitCode {
    if let Some(dir) = out_dir {
        let dir = std::path::Path::new(dir);
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("triage: cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
        for (name, contents) in [
            ("triage.json", report.to_json()),
            ("triage.md", report.to_markdown()),
        ] {
            let path = dir.join(name);
            if let Err(e) = std::fs::write(&path, contents) {
                eprintln!("triage: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("triage: wrote {}", path.display());
        }
    } else {
        print!("{}", report.to_markdown());
    }
    ExitCode::SUCCESS
}

/// `metamut serve` — runs the multi-tenant fuzzing daemon until SIGTERM,
/// SIGINT, or a client `shutdown` command, then checkpoints in-flight
/// campaigns into the store so the next `metamut serve --store DIR`
/// resumes them.
fn serve_cmd(rest: &[String]) -> ExitCode {
    use metamut_serve::{Daemon, DaemonConfig};
    let defaults = DaemonConfig::default();
    let config = DaemonConfig {
        store: opt(rest, "--store")
            .map(std::path::PathBuf::from)
            .unwrap_or(defaults.store),
        addr: opt(rest, "--addr").unwrap_or(defaults.addr),
        http_addr: opt(rest, "--http"),
        workers: opt(rest, "-w")
            .or_else(|| opt(rest, "--workers"))
            .and_then(|s| s.parse().ok())
            .unwrap_or(defaults.workers),
        slice: opt(rest, "--slice")
            .and_then(|s| s.parse().ok())
            .unwrap_or(defaults.slice),
        checkpoint_every: opt(rest, "--checkpoint-every")
            .and_then(|s| s.parse().ok())
            .unwrap_or(defaults.checkpoint_every),
    };
    let daemon = match Daemon::start(config) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("serve: cannot start daemon: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "serve: protocol at {} (store {})",
        daemon.local_addr(),
        daemon.store_root().display()
    );
    if let Some(http) = daemon.http_addr() {
        eprintln!("serve: observatory at http://{http}/");
    }
    if let Some(path) = opt(rest, "--addr-out") {
        if let Err(e) = std::fs::write(&path, daemon.local_addr().to_string()) {
            eprintln!("serve: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    daemon.run_until_shutdown();
    eprintln!("serve: stopped");
    ExitCode::SUCCESS
}

/// `metamut submit ADDR <fuzz|analyze|reduce|triage> [FILE...]` — submits
/// one job to a running daemon; `--wait` blocks for the result document.
fn submit_cmd(rest: &[String]) -> ExitCode {
    use serde_json::json;
    let pos = positionals(rest);
    let (Some(addr), Some(verb)) = (pos.first().copied(), pos.get(1).copied()) else {
        eprintln!("submit: usage: metamut submit ADDR <fuzz|analyze|reduce|triage> [FILE...]");
        return ExitCode::from(2);
    };
    let files = &pos[2..];
    let read = |file: &String| {
        std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))
    };
    let profile = match parse_profile("submit", rest) {
        Ok(Profile::Clang) => "clang",
        Ok(Profile::Gcc) => "gcc",
        Err(code) => return code,
    };
    let opt_level: u8 = opt(rest, "-O").and_then(|s| s.parse().ok()).unwrap_or(2);
    let request = match verb.as_str() {
        "fuzz" => {
            let (iterations, seed) = match submit_fuzz_args(rest) {
                Ok(args) => args,
                Err(code) => return code,
            };
            json!({
                "cmd": "fuzz",
                "iterations": iterations,
                "seed": seed,
                "profile": profile,
                "opt_level": opt_level,
                "reduce": (rest.iter().any(|a| a == "--reduce")),
            })
        }
        "analyze" | "reduce" => {
            let Some(file) = files.first() else {
                eprintln!("submit {verb}: missing FILE");
                return ExitCode::from(2);
            };
            match read(file) {
                Ok(program) => json!({
                    "cmd": (verb.as_str()),
                    "program": program,
                    "profile": profile,
                    "opt_level": opt_level,
                }),
                Err(e) => {
                    eprintln!("submit: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        "triage" => {
            if files.is_empty() {
                eprintln!("submit triage: missing FILE...");
                return ExitCode::from(2);
            }
            let mut programs = Vec::new();
            for file in files {
                match read(file) {
                    Ok(p) => programs.push(p),
                    Err(e) => {
                        eprintln!("submit: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            json!({
                "cmd": "triage",
                "programs": programs,
                "profile": profile,
                "opt_level": opt_level,
            })
        }
        other => {
            eprintln!("submit: unknown job kind {other:?}");
            return ExitCode::from(2);
        }
    };
    let mut client = match metamut_serve::Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("submit: cannot connect to {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match client.submit(&request) {
        Ok(id) => {
            eprintln!("submit: job {id} queued at {addr}");
            if rest.iter().any(|a| a == "--wait") {
                match client.wait(id) {
                    Ok(job) => match serde_json::to_string_pretty(&job) {
                        Ok(text) => println!("{text}"),
                        Err(e) => {
                            eprintln!("submit: cannot render job {id}: {e}");
                            return ExitCode::FAILURE;
                        }
                    },
                    Err(e) => {
                        eprintln!("submit: wait for job {id} failed: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            } else {
                println!("{id}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("submit: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `metamut jobs ADDR [ID]` — lists a daemon's jobs, shows one record,
/// prints daemon status (`--status`), or cancels a job (`--cancel ID`).
fn jobs_cmd(rest: &[String]) -> ExitCode {
    let pos = positionals(rest);
    let Some(addr) = pos.first() else {
        eprintln!("jobs: missing ADDR (e.g. 127.0.0.1:9933)");
        return ExitCode::from(2);
    };
    let mut client = match metamut_serve::Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("jobs: cannot connect to {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let render = |value: &serde::Value| match serde_json::to_string_pretty(value) {
        Ok(text) => {
            println!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("jobs: cannot render response: {e}");
            ExitCode::FAILURE
        }
    };
    if let Some(id) = opt(rest, "--cancel").and_then(|s| s.parse::<u64>().ok()) {
        return match client.cancel(id) {
            Ok(status) => {
                println!("job {id}: {status}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("jobs: cancel {id}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if rest.iter().any(|a| a == "--status") {
        return match client.status() {
            Ok(status) => render(&status),
            Err(e) => {
                eprintln!("jobs: status: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if let Some(id) = pos.get(1).and_then(|s| s.parse::<u64>().ok()) {
        return match client.job(id) {
            Ok(job) => render(&job),
            Err(e) => {
                eprintln!("jobs: job {id}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match client.jobs() {
        Ok(rows) => {
            println!(
                "{:>5}  {:<8}  {:<10}  {:>16}",
                "id", "kind", "status", "progress"
            );
            for row in &rows {
                let field = |k: &str| row.get(k).and_then(|v| v.as_u64()).unwrap_or(0);
                let text = |k: &str| {
                    row.get(k)
                        .and_then(|v| v.as_str())
                        .unwrap_or_default()
                        .to_string()
                };
                println!(
                    "{:>5}  {:<8}  {:<10}  {:>7}/{:<8}",
                    field("id"),
                    text("kind"),
                    text("status"),
                    field("consumed"),
                    field("total"),
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("jobs: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `submit … fuzz`'s iteration count and RNG seed, after rejecting any
/// argument it does not take.
fn submit_fuzz_args(rest: &[String]) -> Result<(u64, u64), ExitCode> {
    let cmd = "submit fuzz";
    check_args(
        cmd,
        rest,
        &["-i", "-s", "-p", "-O"],
        &["--reduce", "--wait"],
        2,
    )?;
    Ok((
        num_opt(cmd, rest, &["-i"], 500)?,
        num_opt(cmd, rest, &["-s"], 7)?,
    ))
}

/// `fuzz`'s iteration count, RNG seed and worker count, after rejecting
/// any argument it does not take.
fn fuzz_args(rest: &[String]) -> Result<(usize, u64, usize), ExitCode> {
    let value_flags = [
        "-i",
        "-s",
        "-p",
        "-w",
        "--workers",
        "--reduce-out",
        "--status-addr",
        "--status-addr-out",
    ];
    let switches = ["--no-ub-filter", "--no-lint-penalty", "--reduce"];
    check_args("fuzz", rest, &value_flags, &switches, 0)?;
    Ok((
        num_opt("fuzz", rest, &["-i"], 500)?,
        num_opt("fuzz", rest, &["-s"], 7)?,
        // Default to one worker: a one-worker campaign is bit-for-bit
        // reproducible for a given seed. `-w 0` asks for one worker per CPU.
        num_opt("fuzz", rest, &["-w", "--workers"], 1)?,
    ))
}

fn fuzz(rest: &[String]) -> ExitCode {
    let (iterations, seed, workers) = match fuzz_args(rest) {
        Ok(args) => args,
        Err(code) => return code,
    };
    let seeds: Vec<String> = metamut::fuzzing::corpus::seed_corpus()
        .iter()
        .map(|s| s.to_string())
        .collect();
    let profile = match parse_profile("fuzz", rest) {
        Ok(profile) => profile,
        Err(code) => return code,
    };
    let options = CompileOptions::o2();
    let compiler = Compiler::new(profile, options.clone());
    // One query database spans the campaign and (with --reduce) triage,
    // so reduction oracles start from the UB-gate summaries fuzzing
    // already built.
    let query_db = Arc::new(metamut_analyze::QueryDb::new());
    let config = CampaignConfig {
        iterations,
        seed,
        sample_every: (iterations / 10).max(1),
        workers,
        ub_filter: !rest.iter().any(|a| a == "--no-ub-filter"),
        query_db: Some(Arc::clone(&query_db)),
        ..Default::default()
    };
    // Live observatory: serve /metrics, /timeseries, and /spans over HTTP
    // for the duration of the campaign. Binding enables the global
    // telemetry pipeline (plus span and series recording) so there is
    // something to serve even without --telemetry.
    let _status_server = match opt(rest, "--status-addr") {
        Some(addr) => {
            let telemetry = metamut_telemetry::handle().clone();
            telemetry.set_enabled(true);
            match metamut_telemetry::StatusServer::bind(&addr, telemetry) {
                Ok(server) => {
                    eprintln!("fuzz: status endpoint at http://{}/", server.local_addr());
                    // With `--status-addr 127.0.0.1:0` the kernel picks the
                    // port; --status-addr-out FILE tells scripts (and CI)
                    // where the endpoint actually landed.
                    if let Some(path) = opt(rest, "--status-addr-out") {
                        if let Err(e) = std::fs::write(&path, server.local_addr().to_string()) {
                            eprintln!("fuzz: cannot write {path}: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                    Some(server)
                }
                Err(e) => {
                    eprintln!("fuzz: cannot bind status endpoint {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => None,
    };
    let lint_penalty = !rest.iter().any(|a| a == "--no-lint-penalty");
    let registry = Arc::new(metamut::mutators::full_registry());
    let report = run_parallel_campaign(
        &seeds,
        |_w, shard| MuCFuzz::new("uCFuzz", registry.clone(), shard).lint_penalty(lint_penalty),
        &compiler,
        &config,
    );
    let dedup_note = report
        .dedup
        .map(|d| format!(", {:.0}% dedup hits", 100.0 * d.hit_rate()))
        .unwrap_or_default();
    println!(
        "{} on {}: {} iterations × {} workers, {} branches covered, {:.1}% compilable, {} unique crashes{}",
        report.fuzzer,
        report.compiler,
        report.mutants.total,
        report.workers,
        report.final_coverage,
        report.mutants.ratio(),
        report.crashes.len(),
        dedup_note
    );
    for c in &report.crashes {
        println!(
            "  crash at iter {}: {} [{} / {}] frames {}::{}",
            c.first_iteration,
            c.info.bug_id,
            c.info.stage,
            c.info.kind.label(),
            c.info.frames[0],
            c.info.frames[1]
        );
    }
    if rest.iter().any(|a| a == "--reduce") && !report.crashes.is_empty() {
        use metamut::reduce::{triage_crashes, TriageConfig};
        let config = TriageConfig {
            workers,
            query_db: Some(Arc::clone(&query_db)),
        };
        let triage = triage_crashes(&report.crashes, profile, &options, &config);
        println!(
            "triage: {} bug(s), {} → {} witness bytes, {} oracle calls",
            triage.bugs.len(),
            triage.total_bytes_before,
            triage.total_bytes_after,
            triage.total_oracle_calls
        );
        for b in &triage.bugs {
            println!(
                "  {}: {} → {} bytes ({:.0}%), {} oracle calls",
                b.bug_id,
                b.original_bytes,
                b.reduced_bytes,
                b.reduction_ratio * 100.0,
                b.oracle_calls
            );
        }
        return emit_triage(&triage, opt(rest, "--reduce-out").as_deref());
    }
    ExitCode::SUCCESS
}
