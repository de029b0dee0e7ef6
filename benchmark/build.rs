//! Records whether this package's `[profile.release]` still equals the
//! repository root's, plus the compiler version, for the environment stamp.
//! The program refuses to report numbers when the two profiles differ.

use std::path::Path;
use std::process::Command;

/// The `key = value` lines of `[profile.release]`, whitespace-stripped and
/// sorted, or `None` when the file or the section is missing.
fn release_profile(manifest: &Path) -> Option<Vec<String>> {
    let text = std::fs::read_to_string(manifest).ok()?;
    let mut inside = false;
    let mut found = false;
    let mut settings = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            inside = line == "[profile.release]";
            found |= inside;
        } else if inside && !line.is_empty() && !line.starts_with('#') {
            settings.push(line.replace(' ', ""));
        }
    }
    settings.sort();
    found.then_some(settings)
}

fn main() {
    let here = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let mine = Path::new(&here).join("Cargo.toml");
    let root = Path::new(&here).join("../Cargo.toml");
    println!("cargo:rerun-if-changed={}", mine.display());
    println!("cargo:rerun-if-changed={}", root.display());
    let (mine, root) = (release_profile(&mine), release_profile(&root));
    let matches = mine.is_some() && mine == root;
    println!("cargo:rustc-env=UMON_BENCH_PROFILE_MATCHES_ROOT={matches}");
    println!(
        "cargo:rustc-env=UMON_BENCH_PROFILE={}",
        mine.unwrap_or_default().join(" ")
    );
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=UMON_BENCH_RUSTC={}", version.trim());
}
