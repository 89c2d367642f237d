//! CLI argument validation: drive the real `metamut` binary and check that
//! a `-p` profile name the daemon would reject is a usage error here too,
//! instead of silently compiling with gcc-sim.

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
