//! Dumps the validated transition tables of every table-driven coherence
//! machine (the guard's two variants and two personas, modified host
//! controllers, the Table 1 accelerator L1 and the shared accelerator L2)
//! as markdown and Graphviz DOT.
//!
//! ```text
//! cargo run -p xg-bench --bin xg-tables -- --out docs/tables    # regenerate goldens
//! cargo run -p xg-bench --bin xg-tables -- --check docs/tables  # CI drift gate
//! cargo run -p xg-bench --bin xg-tables                         # markdown to stdout
//! ```
//!
//! The dumps are deterministic, so the written files double as golden
//! files: `--check` exits `1` if any committed table differs from what the
//! code builds, forcing table drift through review instead of letting it
//! slip in silently.

use std::path::Path;

use xg_bench::cli::{self, arg_value};

/// `(file stem, markdown, dot)` for every table-driven machine.
fn dumps() -> Vec<(&'static str, String, String)> {
    let xg_full = xg_core::tables::xg_full();
    let xg_tx = xg_core::tables::xg_tx();
    let hammer_persona = xg_core::tables::hammer_persona();
    let mesi_persona = xg_core::tables::mesi_persona();
    let hammer_dir = xg_host_hammer::directory::table();
    let mesi_l2 = xg_host_mesi::l2::table();
    let accel_l1 = xg_accel::l1::table();
    let accel_l2 = xg_accel::l2::table();
    vec![
        ("xg_full", xg_full.to_markdown(), xg_full.to_dot()),
        ("xg_tx", xg_tx.to_markdown(), xg_tx.to_dot()),
        (
            "hammer_persona",
            hammer_persona.to_markdown(),
            hammer_persona.to_dot(),
        ),
        (
            "mesi_persona",
            mesi_persona.to_markdown(),
            mesi_persona.to_dot(),
        ),
        ("hammer_dir", hammer_dir.to_markdown(), hammer_dir.to_dot()),
        ("mesi_l2", mesi_l2.to_markdown(), mesi_l2.to_dot()),
        ("accel_l1", accel_l1.to_markdown(), accel_l1.to_dot()),
        ("accel_l2", accel_l2.to_markdown(), accel_l2.to_dot()),
    ]
}

fn write_all(dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for (stem, md, dot) in dumps() {
        std::fs::write(dir.join(format!("{stem}.md")), md)?;
        std::fs::write(dir.join(format!("{stem}.dot")), dot)?;
    }
    Ok(())
}

fn check_all(dir: &Path) -> Vec<String> {
    let mut drifted = Vec::new();
    for (stem, md, dot) in dumps() {
        for (ext, expected) in [("md", md), ("dot", dot)] {
            let path = dir.join(format!("{stem}.{ext}"));
            match std::fs::read_to_string(&path) {
                Ok(on_disk) if on_disk == expected => {}
                Ok(_) => drifted.push(format!("{} differs from the code", path.display())),
                Err(e) => drifted.push(format!("{}: {e}", path.display())),
            }
        }
    }
    drifted
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    cli::refuse_unknown(&args, &["--check", "--out"], &[]);
    if let Some(dir) = arg_value(&args, "--check") {
        let drifted = check_all(Path::new(&dir));
        if drifted.is_empty() {
            println!("golden tables up to date in {dir}");
            return;
        }
        eprintln!("GOLDEN TABLE DRIFT ({}):", drifted.len());
        for d in &drifted {
            eprintln!("  {d}");
        }
        eprintln!("regenerate with: cargo run -p xg-bench --bin xg-tables -- --out {dir}");
        std::process::exit(1);
    }
    if let Some(dir) = arg_value(&args, "--out") {
        if let Err(e) = write_all(Path::new(&dir)) {
            eprintln!("failed to write tables to {dir}: {e}");
            std::process::exit(1);
        }
        println!("tables written to {dir}");
        return;
    }
    for (_, md, _) in dumps() {
        println!("{md}");
    }
}
