//! The `figures` command line: a mistyped selector or flag is an error,
//! never a silent run that prints nothing, and every selector given is
//! printed.

use std::process::{Command, Output};

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("the figures binary runs")
}

#[test]
fn unknown_arguments_are_rejected_and_selectors_still_work() {
    for args in [&["table4"][..], &["--threads", "2"]] {
        let out = figures(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(args[0]), "names the argument: {stderr}");
        assert!(stderr.contains("table1"), "lists the selectors: {stderr}");
    }

    // Every selector given is printed, not just the last.
    let out = figures(&["--insts", "1000", "table1", "table2"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Table 1."), "{stdout}");
    assert!(stdout.contains("Table 2."), "{stdout}");
}
