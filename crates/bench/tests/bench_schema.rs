//! Every committed `BENCH_*.json` at the repository root uses the one
//! envelope `metamut_bench::write_bench` writes. This pins the schema, not
//! the measurements: a file whose gate failed still passes here as long
//! as its `passed` flag says so.

use serde::Value;
use std::path::Path;

fn bench_files() -> Vec<std::path::PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files: Vec<_> = std::fs::read_dir(&root)
        .expect("list the repository root")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    files.sort();
    files
}

#[test]
fn committed_bench_files_share_one_envelope() {
    let files = bench_files();
    assert!(!files.is_empty(), "no BENCH_*.json at the repository root");
    for path in files {
        let name = path.display();
        let text = std::fs::read_to_string(&path).expect("read bench file");
        let doc: Value = serde_json::from_str(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let bench = doc.get("bench").and_then(|v| v.as_str());
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
        assert_eq!(
            bench.map(|b| format!("BENCH_{b}")).as_deref(),
            Some(stem),
            "{name}: `bench` names the file"
        );
        assert!(
            doc.get("host_cores").and_then(|v| v.as_u64()).is_some(),
            "{name}: host_cores"
        );
        assert!(
            doc.get("repeats").and_then(|v| v.as_u64()).is_some(),
            "{name}: repeats"
        );
        assert!(
            doc.get("smoke").and_then(|v| v.as_bool()).is_some(),
            "{name}: smoke"
        );
        assert!(
            doc.get("results").and_then(|v| v.as_object()).is_some(),
            "{name}: results object"
        );
        let checks = doc
            .get("checks")
            .and_then(|v| v.as_array())
            .unwrap_or_else(|| panic!("{name}: checks array"));
        assert!(!checks.is_empty(), "{name}: at least one check");
        let mut all_passed = true;
        for check in checks {
            let check_name = check.get("name").and_then(|v| v.as_str());
            assert!(check_name.is_some(), "{name}: check without a name");
            assert!(
                check.get("value").and_then(|v| v.as_f64()).is_some(),
                "{name}: {check_name:?} has no numeric value"
            );
            assert!(
                check.get("bound").and_then(|v| v.as_str()).is_some(),
                "{name}: {check_name:?} has no bound"
            );
            assert!(
                check.get("timing").and_then(|v| v.as_bool()).is_some(),
                "{name}: {check_name:?} has no timing flag"
            );
            // `passed` is a verdict, or null for a skipped check.
            match check.get("passed") {
                Some(Value::Bool(ok)) => all_passed &= ok,
                Some(Value::Null) => {}
                other => panic!("{name}: {check_name:?} has passed = {other:?}"),
            }
        }
        assert_eq!(
            doc.get("passed").and_then(|v| v.as_bool()),
            Some(all_passed),
            "{name}: top-level passed must be the AND of the checks not skipped"
        );
    }
}
