//! Documentation cross-checks: every `smarttrack <subcommand>` invocation
//! inside a code fence of `docs/*.md` must name a real CLI subcommand, so
//! the prose cannot drift from the binary. CI runs this explicitly next to
//! `cargo doc` (see `.github/workflows/ci.yml`).

use std::path::{Path, PathBuf};

/// The subcommands the real CLI advertises, parsed from its own help text
/// (the COMMANDS section lists one per entry at four-space indent).
fn cli_subcommands() -> Vec<String> {
    let mut out = Vec::new();
    smarttrack_cli::run(&["help".to_string()], &mut out).expect("help prints");
    let help = String::from_utf8(out).expect("utf-8 help");

    let mut commands = Vec::new();
    let mut in_commands = false;
    for line in help.lines() {
        if line.starts_with("COMMANDS:") {
            in_commands = true;
            continue;
        }
        if in_commands {
            if !line.starts_with(' ') && !line.is_empty() {
                break; // next section (ANALYSES:, …)
            }
            // Command entries sit at exactly four spaces; continuation/help
            // lines are indented deeper.
            if let Some(rest) = line.strip_prefix("    ") {
                if !rest.starts_with(' ') {
                    if let Some(name) = rest.split_whitespace().next() {
                        commands.push(name.to_string());
                    }
                }
            }
        }
    }
    assert!(
        commands.contains(&"analyze".to_string()) && commands.contains(&"convert".to_string()),
        "help parsing broke: {commands:?}"
    );
    commands
}

/// `smarttrack <word>` tokens found inside ``` fences of one markdown file.
fn fenced_cli_invocations(path: &Path) -> Vec<(usize, String)> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let mut found = Vec::new();
    let mut in_fence = false;
    for (i, line) in text.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if !in_fence {
            continue;
        }
        let mut tokens = line.split_whitespace().peekable();
        while let Some(token) = tokens.next() {
            if token == "smarttrack" {
                if let Some(&next) = tokens.peek() {
                    // Flags (`--format`), placeholders (`<COMMAND>`), and
                    // parenthetical annotations (the crate map's
                    // `smarttrack (core)`) are not subcommand references.
                    if !next.starts_with('-') && !next.starts_with('<') && !next.starts_with('(') {
                        found.push((i + 1, next.to_string()));
                    }
                }
            }
        }
    }
    found
}

fn doc_files() -> Vec<PathBuf> {
    let docs = Path::new(env!("CARGO_MANIFEST_DIR")).join("docs");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&docs)
        .expect("docs/ exists")
        .filter_map(|entry| {
            let path = entry.expect("readable dir entry").path();
            (path.extension().and_then(|e| e.to_str()) == Some("md")).then_some(path)
        })
        .collect();
    files.sort();
    files
}

#[test]
fn docs_code_fences_name_real_cli_subcommands() {
    let commands = cli_subcommands();
    let files = doc_files();
    assert!(
        files.len() >= 2,
        "expected at least TRACE_FORMATS.md and ARCHITECTURE.md, found {files:?}"
    );
    let mut checked = 0;
    for file in &files {
        for (line, sub) in fenced_cli_invocations(file) {
            assert!(
                commands.contains(&sub),
                "{}:{line}: `smarttrack {sub}` is not a real subcommand (known: {commands:?})",
                file.display()
            );
            checked += 1;
        }
    }
    assert!(
        checked > 0,
        "no `smarttrack <subcommand>` fences found — the check is vacuous"
    );
}

#[test]
fn docs_exist_and_cover_every_format() {
    let formats_doc = Path::new(env!("CARGO_MANIFEST_DIR")).join("docs/TRACE_FORMATS.md");
    let text = std::fs::read_to_string(formats_doc).expect("docs/TRACE_FORMATS.md exists");
    for needle in [
        "STB",
        "native",
        "CSV",
        "STD",
        "89 53 54 42",
        "varint",
        "acqr",
        "acqw",
        "tryf",
        "0x03",
    ] {
        assert!(text.contains(needle), "TRACE_FORMATS.md lost `{needle}`");
    }
    let arch_doc = Path::new(env!("CARGO_MANIFEST_DIR")).join("docs/ARCHITECTURE.md");
    let text = std::fs::read_to_string(arch_doc).expect("docs/ARCHITECTURE.md exists");
    for needle in [
        "smarttrack-trace",
        "smarttrack-detect",
        "Engine",
        "Session",
        "StbReader",
        "acqr",
        "read section",
        "rwlock_differential",
        "rwmix",
        "SyncP",
        "sync-preserving",
        "syncp_differential",
        "OSR",
        "abort-and-commit",
        "validate_reversal_witness",
        "LockOrderReversed",
        "osr_differential",
        "R = ∅ runs SyncP's linear `check_pair`",
        "resumes one closure per thread pair",
        "one detector, generic over the pair check",
        "rule (b) queues keep a running byte counter",
    ] {
        assert!(text.contains(needle), "ARCHITECTURE.md lost `{needle}`");
    }
    let serve_doc = Path::new(env!("CARGO_MANIFEST_DIR")).join("docs/SERVE_PROTOCOL.md");
    let text = std::fs::read_to_string(serve_doc).expect("docs/SERVE_PROTOCOL.md exists");
    for needle in [
        "Hello",
        "Welcome",
        "Busy",
        "Report",
        "MAX_FRAME_BYTES",
        "u32 LE",
        "StbAssembler",
    ] {
        assert!(text.contains(needle), "SERVE_PROTOCOL.md lost `{needle}`");
    }
    let capture_doc = Path::new(env!("CARGO_MANIFEST_DIR")).join("docs/CAPTURE.md");
    let text = std::fs::read_to_string(capture_doc).expect("docs/CAPTURE.md exists");
    for needle in [
        "CaptureSession",
        "CaptureSink",
        "watermark",
        "#[track_caller]",
        "--captured",
        "--nudge",
        "twins",
        "AcqRead",
        "AcqWrite",
        "TryAcqFail",
        "reader-overlap",
    ] {
        assert!(text.contains(needle), "CAPTURE.md lost `{needle}`");
    }
}

/// The serve/load help text must document the wire-facing knobs the
/// protocol spec references, so `smarttrack serve --help` cannot drift
/// from `docs/SERVE_PROTOCOL.md`.
#[test]
fn serve_and_load_help_cover_their_knobs() {
    for (cmd, needles) in [
        (
            "serve",
            &["--listen", "--workers", "--idle-timeout", "--analysis"][..],
        ),
        (
            "load",
            &[
                "--clients",
                "--scale",
                "--chunk-bytes",
                "--captured",
                "--nudge",
            ][..],
        ),
    ] {
        let mut out = Vec::new();
        smarttrack_cli::run(&["help".to_string(), cmd.to_string()], &mut out)
            .unwrap_or_else(|e| panic!("help {cmd}: {e:?}"));
        let help = String::from_utf8(out).expect("utf-8 help");
        for needle in needles {
            assert!(
                help.contains(needle),
                "`smarttrack {cmd}` help lost `{needle}`"
            );
        }
    }
}
