//! CLI argument validation: drive the real `metamut` binary and check that
//! arguments it cannot honour are usage errors (exit 2) instead of being
//! silently replaced by defaults.

use std::process::Command;

fn metamut() -> Command {
    Command::new(env!("CARGO_BIN_EXE_metamut"))
}

#[test]
fn unknown_profile_is_a_usage_error() {
    let file = std::env::temp_dir().join(format!("metamut-cli-args-{}.c", std::process::id()));
    std::fs::write(&file, "int main(void) { return 0; }\n").expect("write program");
    let path = file.to_str().expect("utf-8 temp path");

    let invocations: [&[&str]; 5] = [
        &["compile", path, "-p", "tcc"],
        &["reduce", path, "-p", "tcc"],
        &["triage", path, "-p", "tcc"],
        &["fuzz", "-i", "1", "-p", "tcc"],
        // Rejected before any connection attempt.
        &["submit", "127.0.0.1:1", "analyze", path, "-p", "tcc"],
    ];
    for args in invocations {
        let out = metamut().args(args).output().expect("spawn metamut");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr}");
        assert!(
            stderr.contains("unknown profile \"tcc\""),
            "{args:?}: {stderr}"
        );
    }

    // The known names still work.
    for profile in ["gcc", "clang"] {
        let out = metamut()
            .args(["compile", path, "-p", profile])
            .output()
            .expect("spawn metamut");
        assert!(out.status.success(), "-p {profile}: {out:?}");
    }
    let _ = std::fs::remove_file(&file);
}

/// `metamut fuzz` (and `submit … fuzz`) refuse what they cannot honour
/// instead of silently running a different campaign: an unknown flag, or a
/// count or seed that does not parse.
#[test]
fn fuzz_rejects_bad_arguments() {
    let invocations: [(&[&str], &str); 9] = [
        (&["fuzz", "-i", "5k"], "invalid value \"5k\" for -i"),
        (&["fuzz", "-s", "abc"], "invalid value \"abc\" for -s"),
        (&["fuzz", "-w", "two"], "invalid value \"two\" for -w"),
        (
            &["fuzz", "--workers", "-1"],
            "invalid value \"-1\" for --workers",
        ),
        (
            &["fuzz", "-i", "1", "--cache-cap", "64"],
            "unknown flag \"--cache-cap\"",
        ),
        (
            &["fuzz", "-i", "1", "--no-dedup"],
            "unknown flag \"--no-dedup\"",
        ),
        (&["fuzz", "-i"], "-i needs a value"),
        // Rejected before any connection attempt.
        (
            &["submit", "127.0.0.1:1", "fuzz", "-i", "5k"],
            "invalid value \"5k\" for -i",
        ),
        (
            &["submit", "127.0.0.1:1", "fuzz", "--frobnicate"],
            "unknown flag \"--frobnicate\"",
        ),
    ];
    for (args, message) in invocations {
        let out = metamut().args(args).output().expect("spawn metamut");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
    }

    // Every flag fuzz documents, plus the global ones, is still accepted.
    let dir = std::env::temp_dir().join(format!("metamut-cli-fuzz-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let events = dir.join("events.jsonl");
    let out = metamut()
        .args(["fuzz", "-i", "20", "-s", "3", "-p", "clang", "-w", "1"])
        .args(["--no-ub-filter", "--no-lint-penalty", "--status-every", "0"])
        .arg("--telemetry")
        .arg(&events)
        .output()
        .expect("spawn metamut");
    assert!(out.status.success(), "{out:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
