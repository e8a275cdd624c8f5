//! Smoke test: a tiny run of every workload, untraced and traced, must
//! print every metric `BENCHMARK.json` names with its unit, fail no op,
//! and (traced) write a trace file that parses as JSON.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (a debug build works too, but the interpreter references are slow).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// A parsed JSON value (just enough for the result line, the trace file
/// and `BENCHMARK.json`).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key `{key}`")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("not an array: {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing bytes at {}", p.i));
        }
        Ok(v)
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i).copied() {
            Some(b'{') => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(m));
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value()? else {
                        return Err("object key".into());
                    };
                    self.eat(b':')?;
                    m.insert(k, self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(m));
                        }
                        _ => return Err(format!("object at {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(v));
                }
                loop {
                    v.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(v));
                        }
                        _ => return Err(format!("array at {}", self.i)),
                    }
                }
            }
            Some(b'"') => {
                self.i += 1;
                let mut out = String::new();
                loop {
                    match self.s.get(self.i).copied() {
                        Some(b'"') => {
                            self.i += 1;
                            return Ok(Json::Str(out));
                        }
                        Some(b'\\') => {
                            let esc = self.s.get(self.i + 1).copied().ok_or("escape")?;
                            self.i += 2;
                            match esc {
                                b'u' => {
                                    let hex = std::str::from_utf8(&self.s[self.i..self.i + 4])
                                        .map_err(|e| e.to_string())?;
                                    let code =
                                        u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                                    out.push(char::from_u32(code).unwrap_or('?'));
                                    self.i += 4;
                                }
                                b'n' => out.push('\n'),
                                b't' => out.push('\t'),
                                b'r' => out.push('\r'),
                                other => out.push(other as char),
                            }
                        }
                        Some(_) => {
                            let rest = std::str::from_utf8(&self.s[self.i..])
                                .map_err(|e| e.to_string())?;
                            let c = rest.chars().next().ok_or("string")?;
                            out.push(c);
                            self.i += c.len_utf8();
                        }
                        None => return Err("unterminated string".into()),
                    }
                }
            }
            Some(b't') if self.s[self.i..].starts_with(b"true") => {
                self.i += 4;
                Ok(Json::Bool(true))
            }
            Some(b'f') if self.s[self.i..].starts_with(b"false") => {
                self.i += 5;
                Ok(Json::Bool(false))
            }
            Some(b'n') if self.s[self.i..].starts_with(b"null") => {
                self.i += 4;
                Ok(Json::Null)
            }
            Some(_) => {
                let start = self.i;
                while self.i < self.s.len() && b"+-0123456789.eE".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text =
                    std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?;
                text.parse()
                    .map(Json::Num)
                    .map_err(|_| format!("number `{text}` at {start}"))
            }
            None => Err("unexpected end".into()),
        }
    }
}

/// `target/<profile>` of this test binary (`target/<profile>/deps/smoke-*`).
fn profile_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("test exe path");
    exe.parent()
        .and_then(Path::parent)
        .expect("target/<profile>/deps")
        .to_path_buf()
}

/// Build the `accmos` CLI next to the benchmark binary, where the
/// serve workload looks for its daemon, once per test process.
fn build_accmos() {
    static BUILT: std::sync::OnceLock<()> = std::sync::OnceLock::new();
    BUILT.get_or_init(|| {
        let profile = profile_dir();
        let mut cmd = Command::new(option_env!("CARGO").unwrap_or("cargo"));
        cmd.args([
            "build",
            "--offline",
            "--quiet",
            "-p",
            "accmos",
            "--bin",
            "accmos",
            "--manifest-path",
        ])
        .arg(Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml"))
        .env("CARGO_TARGET_DIR", profile.parent().expect("target dir"));
        if profile.file_name().is_some_and(|n| n == "release") {
            cmd.arg("--release");
        }
        let status = cmd.status().expect("cargo runs");
        assert!(status.success(), "building the accmos CLI failed");
    });
}

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Parser::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
        .expect("BENCHMARK.json parses")
}

fn smoke(workload: &str, trace: u8) {
    let spec = benchmark_json();

    build_accmos();
    let dir = profile_dir().join(format!("smoke-{workload}-{trace}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            &trace.to_string(),
            "--tiny",
        ])
        .current_dir(&dir)
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );

    let result =
        Parser::parse(stdout.lines().last().expect("a result line")).expect("result line parses");
    assert_eq!(result.get("correct"), &Json::Bool(true), "{stdout}");
    assert_eq!(
        result.get("failed"),
        &Json::Num(0.0),
        "failed_ops must be 0: {stdout}"
    );
    assert!(matches!(result.get("attempted"), Json::Num(n) if *n >= 1.0));
    let Json::Obj(metrics) = result.get("metrics") else {
        panic!("metrics is not an object")
    };
    let wanted = spec
        .get(if trace == 1 {
            "per_layer"
        } else {
            "end_to_end"
        })
        .arr();
    assert_eq!(
        metrics.len(),
        wanted.len(),
        "exactly the metrics BENCHMARK.json names"
    );
    for m in wanted {
        let name = m.get("name").str();
        let got = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: metric {name} missing"));
        assert_eq!(got.get("unit").str(), m.get("unit").str(), "{name} unit");
        let Json::Num(v) = got.get("value") else {
            panic!("{name} value is not a number")
        };
        assert!(v.is_finite(), "{name} = {v}");
        if trace == 0 {
            assert!(
                *v > 0.0,
                "end-to-end metric {name} must be positive, got {v}"
            );
        }
    }

    if trace == 1 {
        let path = dir
            .join(".perfbench")
            .join(format!("trace-{workload}-7.json"));
        let text = std::fs::read_to_string(&path).expect("trace file written");
        let trace = Parser::parse(&text).expect("trace parses as JSON");
        let events = trace.get("traceEvents").arr();
        assert!(!events.is_empty(), "trace has spans");
        for e in events {
            assert_eq!(e.get("ph").str(), "X");
            let args = e.get("args");
            args.get("op");
            args.get("parent");
        }
        // Full-size ops spend >= 90 % in named layers; tiny ops are short
        // enough for compiler detection to show, so only sanity-check.
        let cover = metrics["trace.layer_cover_pct"].get("value");
        assert!(
            matches!(cover, Json::Num(c) if *c > 0.0 && *c <= 100.0),
            "layer cover {cover:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cold_compile_untraced() {
    smoke("cold_compile", 0);
}

#[test]
fn cold_compile_traced() {
    smoke("cold_compile", 1);
}

#[test]
fn warm_stepping_untraced() {
    smoke("warm_stepping", 0);
}

#[test]
fn warm_stepping_traced() {
    smoke("warm_stepping", 1);
}

#[test]
fn serve_stream_untraced() {
    smoke("serve_stream", 0);
}

#[test]
fn serve_stream_traced() {
    smoke("serve_stream", 1);
}
