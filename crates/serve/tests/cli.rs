//! CLI-surface regression tests for the `wattd` binary: flag parsing
//! outcomes that unit tests cannot see because `parse_args` lives in the
//! binary. Each case drives the real executable (`CARGO_BIN_EXE_wattd`)
//! with an address that can never bind, so a successfully *parsed*
//! command line fails at bind time (exit 1, "cannot bind") instead of
//! holding a port, while a rejected one exits 2 before touching the
//! network.

use std::process::Command;

fn wattd(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_wattd"))
        .args(args)
        .output()
        .expect("spawn wattd")
}

/// `--snapshot-secs 0` is the explicit "periodic snapshots disabled"
/// spelling and must parse: the command line gets past argument
/// validation (exit 2 is the parse-error code) and dies at the
/// deliberately unbindable address instead.
#[test]
fn snapshot_secs_zero_parses_as_explicit_disable() {
    let out = wattd(&[
        "serve",
        "--gpus",
        "a100",
        "--addr",
        "256.256.256.256:0",
        "--snapshot-secs",
        "0",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(1),
        "exit must be the bind failure, not a parse rejection: {stderr}"
    );
    assert!(stderr.contains("cannot bind"), "{stderr}");
    assert!(
        !stderr.contains("positive count"),
        "0 must not be rejected as non-positive: {stderr}"
    );
}

/// Garbage snapshot intervals are still parse errors (exit 2), with the
/// non-negative wording.
#[test]
fn snapshot_secs_rejects_non_numbers() {
    for bad in ["-1", "soon", ""] {
        let out = wattd(&[
            "serve",
            "--gpus",
            "a100",
            "--addr",
            "256.256.256.256:0",
            "--snapshot-secs",
            bad,
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bad:?}: {stderr}");
        assert!(stderr.contains("non-negative"), "{bad:?}: {stderr}");
    }
}

/// `--budget` and `--cap` take finite watts only: NaN passed every
/// comparison the fleet checks make and panicked in the fleet builder,
/// and infinity spells "no limit", which leaving the flag out already
/// means. Both modes parse the flags alike; a rejection exits 2 before
/// the daemon touches stdin or the network.
#[test]
fn non_finite_watts_are_rejected_naming_the_flag() {
    for (flag, bad) in [("--budget", "nan"), ("--budget", "inf"), ("--cap", "nan")] {
        for mode in [&[][..], &["serve", "--addr", "256.256.256.256:0"][..]] {
            let mut args = mode.to_vec();
            args.extend(["--gpus", "a100", flag, bad]);
            let out = wattd(&args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
            assert!(
                stderr.contains(&format!("{flag} needs a finite number of watts")),
                "{args:?}: {stderr}"
            );
        }
    }
}
