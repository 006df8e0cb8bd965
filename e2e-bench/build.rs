//! Records build provenance (compiler version, source revision) for the
//! benchmark's result records.

use std::path::Path;
use std::process::Command;

fn run(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    Some(text.trim().to_owned())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    let version = run(&rustc, &["-V"]).unwrap_or_else(|| "unknown".to_owned());
    println!("cargo:rustc-env=E2E_RUSTC_VERSION={version}");

    // Only ask git when the repository root itself is a checkout: a copy of
    // the sources nested inside some other repository must not report that
    // repository's revision.
    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let root = Path::new(&manifest).join("..");
    let rev = if root.join(".git").exists() {
        // a path that does not exist would make cargo rerun this script,
        // and relink the benchmark, on every build
        println!("cargo:rerun-if-changed=../.git/HEAD");
        let root = root.to_string_lossy().into_owned();
        run("git", &["-C", &root, "rev-parse", "HEAD"])
    } else {
        None
    };
    println!(
        "cargo:rustc-env=E2E_GIT_REV={}",
        rev.unwrap_or_else(|| "none".to_owned())
    );
    println!("cargo:rerun-if-changed=build.rs");
}
