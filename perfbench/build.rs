//! Records the toolchain and build profile the benchmark was compiled
//! with, so every result line can name them.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(&rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    for var in ["PROFILE", "OPT_LEVEL"] {
        let v = std::env::var(var).unwrap_or_else(|_| "unknown".into());
        println!("cargo:rustc-env=PERFBENCH_{var}={v}");
    }
    println!("cargo:rerun-if-changed=build.rs");
    println!("cargo:rerun-if-env-changed=RUSTC");
}
