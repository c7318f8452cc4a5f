//! Records the compiler version and CPU model for the host fingerprint
//! printed with every result (the benchmark itself reads nothing outside
//! its checkout at run time).

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().replace('"', "'"))
        })
        .unwrap_or_else(|| "unknown".to_string());
    println!(
        "cargo:rustc-env=LAYERBENCH_RUSTC={}",
        version.replace('"', "'")
    );
    println!("cargo:rustc-env=LAYERBENCH_CPU={cpu}");
    println!("cargo:rerun-if-changed=build.rs");
}
