//! The output check end to end: a run against the committed reference
//! digests passes, and the same run against a tampered digest fails, counts
//! its calls as failed and exits non-zero.

use std::process::Command;

fn run(reference: Option<&std::path::Path>) -> (bool, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args([
        "--workload",
        "keyswitch",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    if let Some(path) = reference {
        cmd.arg("--reference").arg(path);
    }
    let out = cmd.output().expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().unwrap_or("").to_string();
    (out.status.success(), last)
}

#[test]
fn committed_reference_passes() {
    let (ok, last) = run(None);
    assert!(ok, "run failed: {last}");
    assert!(last.starts_with("{\"correct\":true,"), "{last}");
    assert!(last.contains("\"failed\":0,"), "{last}");
}

#[test]
fn tampered_reference_fails_the_run() {
    let committed = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/reference.txt"))
        .expect("reference file");
    let tampered: String = committed
        .lines()
        .map(|line| match line.strip_prefix("keyswitch 1 ") {
            // Flip the last hex digit of the keyswitch digest.
            Some(hex) => {
                let last = hex.chars().last().expect("digest");
                let flipped = if last == '0' { '1' } else { '0' };
                format!("keyswitch 1 {}{flipped}\n", &hex[..hex.len() - 1])
            }
            None => format!("{line}\n"),
        })
        .collect();
    assert_ne!(tampered, committed, "the keyswitch line was tampered");
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("tampered-reference.txt");
    std::fs::write(&path, tampered).expect("write tampered reference");

    let (ok, last) = run(Some(&path));
    assert!(!ok, "a tampered digest must fail the run: {last}");
    assert!(last.starts_with("{\"correct\":false,"), "{last}");
    assert!(
        !last.contains("\"failed\":0,"),
        "every call counts as failed: {last}"
    );
}
