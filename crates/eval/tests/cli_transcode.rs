//! End-to-end tests of the `transcode` command-line binary: argument
//! parsing, the synthetic and Y4M input paths, the output file, and the
//! failure modes a user will actually hit.

use std::process::Command;

fn transcode() -> Command {
    Command::new(env!("CARGO_BIN_EXE_transcode"))
}

#[test]
fn synthetic_roundtrip_writes_a_playable_y4m() {
    let out = std::env::temp_dir().join(format!("pbpair_cli_{}.y4m", std::process::id()));
    let output = transcode()
        .args([
            "--synth",
            "akiyo",
            "--scheme",
            "pbpair",
            "--plr",
            "0.1",
            "--frames",
            "12",
            "--output",
            out.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("PBPAIR"), "{stdout}");
    assert!(stdout.contains("avg PSNR"), "{stdout}");

    // The output must be a parseable Y4M with 12 QCIF frames.
    let bytes = std::fs::read(&out).unwrap();
    let mut reader =
        pbpair_media::y4m::Y4mReader::new(std::io::Cursor::new(bytes)).expect("valid y4m");
    use pbpair_media::synth::FrameSource;
    assert_eq!(reader.format(), pbpair_media::VideoFormat::QCIF);
    let mut n = 0;
    while reader.try_next_frame().is_some() {
        n += 1;
    }
    assert_eq!(n, 12);
    let _ = std::fs::remove_file(&out);
}

#[test]
fn y4m_input_path_works() {
    // Produce a tiny clip with the library, feed it back through the CLI.
    use pbpair_media::synth::SyntheticSequence;
    use pbpair_media::y4m::Y4mWriter;
    let input = std::env::temp_dir().join(format!("pbpair_cli_in_{}.y4m", std::process::id()));
    {
        let file = std::fs::File::create(&input).unwrap();
        let mut w = Y4mWriter::new(
            std::io::BufWriter::new(file),
            pbpair_media::VideoFormat::QCIF,
            30,
        )
        .unwrap();
        let mut seq = SyntheticSequence::garden_class(9);
        for _ in 0..6 {
            w.write_frame(&seq.next_frame()).unwrap();
        }
        use std::io::Write as _;
        w.finish().unwrap().flush().unwrap();
    }
    let output = transcode()
        .args([
            "--input",
            input.to_str().unwrap(),
            "--scheme",
            "gop-3",
            "--frames",
            "6",
            "--plr",
            "0",
        ])
        .output()
        .expect("binary runs");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("GOP-3"), "{stdout}");
    assert!(stdout.contains("frames lost       : 0"), "{stdout}");
    let _ = std::fs::remove_file(&input);
}

#[test]
fn bad_arguments_exit_nonzero_with_usage() {
    let output = transcode()
        .args(["--scheme", "nonsense-42"])
        .output()
        .expect("binary runs");
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("usage:"));
}

#[test]
fn out_of_range_numbers_are_bad_arguments_not_panics() {
    // At least one frame; probabilities in [0, 1] (NaN is not one); the
    // quantizer in 1..=31.
    for flags in [
        ["--frames", "0"],
        ["--plr", "1.5"],
        ["--plr", "nan"],
        ["--plr", "-0.5"],
        ["--intra-th", "7"],
        ["--qp", "0"],
        ["--qp", "32"],
    ] {
        let output = transcode()
            .args(["--synth", "akiyo", "--scheme", "no", "--frames", "2"])
            .args(flags)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{flags:?}: {stderr}");
        assert!(stderr.contains("usage: transcode"), "{flags:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flags:?}: {stderr}");
        assert!(output.stdout.is_empty(), "{flags:?}: nothing is encoded");
    }
}

#[test]
fn an_input_with_no_frames_fails_but_a_short_one_is_summarized() {
    use pbpair_media::synth::SyntheticSequence;
    use pbpair_media::y4m::Y4mWriter;
    use std::io::Write as _;
    let dir = std::env::temp_dir();
    let empty = dir.join(format!("pbpair_cli_empty_{}.y4m", std::process::id()));
    let never = dir.join(format!("pbpair_cli_never_{}.y4m", std::process::id()));
    std::fs::write(&empty, "YUV4MPEG2 W176 H144 F30:1 Ip A1:1 C420jpeg\n").unwrap();
    let output = transcode()
        .args(["--input", empty.to_str().unwrap(), "--scheme", "no"])
        .args(["--output", never.to_str().unwrap()])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("transcode failed:"), "{stderr}");
    assert!(stderr.contains(empty.to_str().unwrap()), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(output.stdout.is_empty(), "no summary for no frames");
    assert!(!never.exists(), "a failed run writes no output file");
    let _ = std::fs::remove_file(&empty);

    // Two frames asked to run for five: the note and the summary stay.
    let short = dir.join(format!("pbpair_cli_short_{}.y4m", std::process::id()));
    {
        let file = std::fs::File::create(&short).unwrap();
        let mut w = Y4mWriter::new(
            std::io::BufWriter::new(file),
            pbpair_media::VideoFormat::QCIF,
            30,
        )
        .unwrap();
        let mut seq = SyntheticSequence::garden_class(9);
        for _ in 0..2 {
            w.write_frame(&seq.next_frame()).unwrap();
        }
        w.finish().unwrap().flush().unwrap();
    }
    let output = transcode()
        .args(["--input", short.to_str().unwrap(), "--scheme", "no"])
        .args(["--frames", "5"])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "{stderr}");
    assert!(stderr.contains("input ended after 2 frames"), "{stderr}");
    assert!(stdout.contains("frames            : 2"), "{stdout}");
    assert!(!stdout.contains("NaN"), "{stdout}");
    let _ = std::fs::remove_file(&short);
}

#[test]
fn zero_period_schemes_fail_and_an_out_of_range_period_is_a_bad_argument() {
    for (scheme, code, message) in [
        ("gop-0", 1, "transcode failed: GOP-0 has no P-frame per GOP"),
        ("pgop-0", 1, "transcode failed: PGOP-0 refreshes no column"),
        // 2^32 does not fit GOP's u32 period.
        ("gop-4294967296", 2, "usage:"),
    ] {
        let output = transcode()
            .args(["--scheme", scheme, "--frames", "2"])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(code), "{scheme}: {stderr}");
        assert!(stderr.contains(message), "{scheme}: {stderr}");
        assert!(!stderr.contains("panicked"), "{scheme}: {stderr}");
    }
}

#[test]
fn missing_input_file_reports_cleanly() {
    let output = transcode()
        .args(["--input", "/definitely/not/here.y4m"])
        .output()
        .expect("binary runs");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("cannot open"), "{stderr}");
}
