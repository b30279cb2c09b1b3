//! Derives of `cb_json::Serialize` and `cb_json::Deserialize` for plain
//! (non-generic) structs and enums, built on `proc_macro` alone.
//!
//! The JSON shapes are serde's defaults: named structs are objects, newtype
//! structs are their field, other tuple structs are arrays, unit structs
//! are `null`, and enums are externally tagged (`"Unit"`,
//! `{"Newtype":v}`, `{"Tuple":[..]}`, `{"Struct":{..}}`). Field attributes
//! keep serde's spelling: `#[serde(skip)]` leaves a field out and fills it
//! with `Default::default()`; `#[serde(default)]` and
//! `#[serde(default = "path")]` fill an absent key. A container-level
//! `#[serde(default)]` fills every absent key from the type's `Default`.
//! As in serde, unknown keys are skipped and a repeated known key is an
//! error.

use proc_macro::{Delimiter, Group, TokenStream, TokenTree};

#[derive(Default)]
struct Attrs {
    skip: bool,
    /// `Some(None)` for `default`, `Some(Some(path))` for `default = "path"`.
    default: Option<Option<String>>,
}

struct Field {
    name: String,
    attrs: Attrs,
}

impl Field {
    /// The JSON key: the field name without a raw-identifier prefix.
    fn key(&self) -> &str {
        self.name.trim_start_matches("r#")
    }
}

enum Shape {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
}

struct Variant {
    name: String,
    shape: Shape,
}

enum Item {
    Struct { shape: Shape, attrs: Attrs },
    Enum(Vec<Variant>),
}

fn parse_serde_attr(group: &Group, attrs: &mut Attrs) {
    let toks: Vec<TokenTree> = group.stream().into_iter().collect();
    if !matches!(toks.first(), Some(TokenTree::Ident(i)) if i.to_string() == "serde") {
        return;
    }
    let Some(TokenTree::Group(args)) = toks.get(1) else {
        return;
    };
    let args: Vec<TokenTree> = args.stream().into_iter().collect();
    let mut i = 0;
    while i < args.len() {
        if let TokenTree::Ident(id) = &args[i] {
            match id.to_string().as_str() {
                "skip" => attrs.skip = true,
                "default" => {
                    if matches!(args.get(i + 1), Some(TokenTree::Punct(p)) if p.as_char() == '=') {
                        let lit = args.get(i + 2).map(ToString::to_string).unwrap_or_default();
                        attrs.default = Some(Some(lit.trim_matches('"').to_string()));
                        i += 2;
                    } else {
                        attrs.default = Some(None);
                    }
                }
                other => panic!("cb-json-derive: unsupported attribute serde({other})"),
            }
        }
        i += 1;
    }
}

/// Consume leading `#[..]` attributes and a visibility qualifier.
fn take_attrs(toks: &[TokenTree], mut i: usize, attrs: &mut Attrs) -> usize {
    loop {
        match toks.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                if let Some(TokenTree::Group(g)) = toks.get(i + 1) {
                    parse_serde_attr(g, attrs);
                }
                i += 2;
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                i += 1;
                if let Some(TokenTree::Group(g)) = toks.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1;
                    }
                }
            }
            _ => return i,
        }
    }
}

/// Split a token list on commas outside `<..>` (a `->` is not a closer).
fn split_commas(toks: TokenStream) -> Vec<Vec<TokenTree>> {
    let mut out = vec![Vec::new()];
    let mut depth = 0i32;
    let mut prev_dash = false;
    for t in toks {
        let mut dash = false;
        if let TokenTree::Punct(p) = &t {
            match p.as_char() {
                '<' => depth += 1,
                '>' if !prev_dash => depth -= 1,
                '-' => dash = true,
                ',' if depth == 0 => {
                    out.push(Vec::new());
                    prev_dash = false;
                    continue;
                }
                _ => {}
            }
        }
        prev_dash = dash;
        out.last_mut().expect("non-empty").push(t);
    }
    out.retain(|v| !v.is_empty());
    out
}

fn parse_shape(tok: Option<&TokenTree>) -> Shape {
    match tok {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Shape::Named(
            split_commas(g.stream())
                .into_iter()
                .map(|toks| {
                    let mut attrs = Attrs::default();
                    let i = take_attrs(&toks, 0, &mut attrs);
                    Field {
                        name: toks[i].to_string(),
                        attrs,
                    }
                })
                .collect(),
        ),
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            Shape::Tuple(split_commas(g.stream()).len())
        }
        _ => Shape::Unit,
    }
}

fn parse(input: TokenStream) -> (String, Item) {
    let toks: Vec<TokenTree> = input.into_iter().collect();
    let mut attrs = Attrs::default();
    let i = take_attrs(&toks, 0, &mut attrs);
    let kind = toks[i].to_string();
    let name = toks[i + 1].to_string();
    if matches!(toks.get(i + 2), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("cb-json-derive: generic type {name} is not supported");
    }
    let body = toks.get(i + 2);
    let item = match kind.as_str() {
        "struct" => Item::Struct {
            shape: parse_shape(body),
            attrs,
        },
        "enum" => {
            let Some(TokenTree::Group(g)) = body else {
                panic!("cb-json-derive: enum {name} has no body")
            };
            Item::Enum(
                split_commas(g.stream())
                    .into_iter()
                    .map(|toks| {
                        let i = take_attrs(&toks, 0, &mut Attrs::default());
                        Variant {
                            name: toks[i].to_string(),
                            shape: parse_shape(toks.get(i + 1)),
                        }
                    })
                    .collect(),
            )
        }
        other => panic!("cb-json-derive: cannot derive for {other} {name}"),
    };
    (name, item)
}

const OK: &str = "::core::result::Result::Ok";
const ERR: &str = "::core::result::Result::Err";

fn ser_named(fields: &[Field], access: impl Fn(&str) -> String) -> String {
    let mut code = String::from("__out.push('{');");
    for (n, f) in fields.iter().filter(|f| !f.attrs.skip).enumerate() {
        let key = format!("{}\"{}\":", if n == 0 { "" } else { "," }, f.key());
        code += &format!(
            "__out.push_str({key:?}); ::cb_json::Serialize::write_json({}, __out);",
            access(&f.name)
        );
    }
    code + "__out.push('}');"
}

fn de_named(ctor: &str, fields: &[Field], container_default: bool) -> String {
    let mut code = String::from("__de.begin_object()?;");
    let live = || fields.iter().enumerate().filter(|(_, f)| !f.attrs.skip);
    for (i, _) in live() {
        code += &format!("let mut __f{i} = ::core::option::Option::None;");
    }
    code += "let mut __first = true; \
             while let ::core::option::Option::Some(__k) = __de.next_key(__first)? { \
             __first = false; match &*__k {";
    for (i, f) in live() {
        code += &format!(
            "{key:?} => {{ if __f{i}.is_some() {{ \
             return {ERR}(__de.err(\"duplicate field `{key}`\")); }} \
             __f{i} = ::core::option::Option::Some(::cb_json::Deserialize::deserialize(__de)?); }}",
            key = f.key()
        );
    }
    code += "_ => __de.skip_value()?, } }";
    if container_default {
        code += "let __dflt: Self = ::core::default::Default::default();";
    }
    code += &format!("{OK}({ctor} {{");
    for (i, f) in fields.iter().enumerate() {
        let n = &f.name;
        if f.attrs.skip {
            code += &format!("{n}: ::core::default::Default::default(),");
            continue;
        }
        let missing = match (&f.attrs.default, container_default) {
            (Some(Some(path)), _) => format!("{path}()"),
            (Some(None), _) => "::core::default::Default::default()".to_string(),
            (None, true) => format!("__dflt.{n}"),
            (None, false) => format!("::cb_json::Deserialize::missing_field({:?})?", f.key()),
        };
        code += &format!(
            "{n}: match __f{i} {{ ::core::option::Option::Some(__x) => __x, \
             ::core::option::Option::None => {missing} }},"
        );
    }
    code + "})"
}

fn ser_tuple(n: usize, access: impl Fn(usize) -> String) -> String {
    if n == 1 {
        return format!("::cb_json::Serialize::write_json({}, __out);", access(0));
    }
    let mut code = String::from("__out.push('[');");
    for i in 0..n {
        if i > 0 {
            code += "__out.push(',');";
        }
        code += &format!("::cb_json::Serialize::write_json({}, __out);", access(i));
    }
    code + "__out.push(']');"
}

fn de_tuple(ctor: &str, n: usize) -> String {
    if n == 1 {
        return format!("{OK}({ctor}(::cb_json::Deserialize::deserialize(__de)?))");
    }
    let mut code = format!("__de.begin_array()?; let __r = {ctor}(");
    for i in 0..n {
        code += &format!(
            "{{ if !__de.next_element({})? {{ return {ERR}(__de.err(\"tuple too short\")); }} \
             ::cb_json::Deserialize::deserialize(__de)? }},",
            i == 0
        );
    }
    code + &format!(
        "); if __de.next_element(false)? {{ return {ERR}(__de.err(\"tuple too long\")); }} {OK}(__r)"
    )
}

/// Derive `cb_json::Serialize`: compact JSON straight into a `String`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let (name, item) = parse(input);
    let body = match item {
        Item::Struct { shape, .. } => match &shape {
            Shape::Unit => "__out.push_str(\"null\");".to_string(),
            Shape::Tuple(n) => ser_tuple(*n, |i| format!("&self.{i}")),
            Shape::Named(fields) => ser_named(fields, |f| format!("&self.{f}")),
        },
        Item::Enum(variants) => {
            let mut arms = String::new();
            for v in &variants {
                let vn = &v.name;
                let open = format!("__out.push_str(\"{{\\\"{vn}\\\":\");");
                arms += &match &v.shape {
                    Shape::Unit => format!("Self::{vn} => __out.push_str(\"\\\"{vn}\\\"\"),"),
                    Shape::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                        format!(
                            "Self::{vn}({}) => {{ {open} {} __out.push('}}'); }}",
                            binds.join(","),
                            ser_tuple(*n, |i| format!("__f{i}"))
                        )
                    }
                    Shape::Named(fields) => {
                        let binds: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                        format!(
                            "Self::{vn} {{ {} }} => {{ {open} {} __out.push('}}'); }}",
                            binds.join(","),
                            ser_named(fields, ToString::to_string)
                        )
                    }
                };
            }
            format!("match self {{ {arms} }}")
        }
    };
    format!(
        "#[automatically_derived] #[allow(unused_variables, clippy::all)] \
         impl ::cb_json::Serialize for {name} {{ \
         fn write_json(&self, __out: &mut ::std::string::String) {{ {body} }} }}"
    )
    .parse()
    .expect("cb-json-derive: generated Serialize impl parses")
}

/// Derive `cb_json::Deserialize`: built straight from JSON bytes through
/// the pull parser, unknown keys skipped.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let (name, item) = parse(input);
    let unknown = format!(
        "__other => {ERR}(::cb_json::Error::custom(format!(\"unknown variant {{__other}} of {name}\"))),"
    );
    let body = match item {
        Item::Struct { shape, attrs } => match &shape {
            Shape::Unit => format!("__de.skip_value()?; {OK}(Self)"),
            Shape::Tuple(n) => de_tuple("Self", *n),
            Shape::Named(fields) => de_named("Self", fields, attrs.default.is_some()),
        },
        Item::Enum(variants) => {
            let mut unit_arms = String::new();
            let mut data_arms = String::new();
            for v in &variants {
                let vn = &v.name;
                match &v.shape {
                    Shape::Unit => unit_arms += &format!("{vn:?} => {OK}(Self::{vn}),"),
                    Shape::Tuple(n) => {
                        data_arms +=
                            &format!("{vn:?} => {{ {} }},", de_tuple(&format!("Self::{vn}"), *n))
                    }
                    Shape::Named(fields) => {
                        data_arms += &format!(
                            "{vn:?} => {{ {} }},",
                            de_named(&format!("Self::{vn}"), fields, false)
                        )
                    }
                }
            }
            format!(
                "match __de.peek() {{ \
                   ::core::option::Option::Some(b'\"') => {{ \
                     let __s = __de.str()?; match &*__s {{ {unit_arms} {unknown} }} }}, \
                   ::core::option::Option::Some(b'{{') => {{ \
                     __de.begin_object()?; \
                     let __k = __de.next_key(true)?.ok_or_else(|| __de.err(\"expected enum {name}\"))?; \
                     let __r: ::core::result::Result<Self, ::cb_json::Error> = \
                       match &*__k {{ {data_arms} {unknown} }}; \
                     let __r = __r?; \
                     if __de.next_key(false)?.is_some() {{ \
                       return {ERR}(__de.err(\"expected one entry for enum {name}\")); }} \
                     {OK}(__r) }} \
                   _ => {ERR}(__de.err(\"expected enum {name}\")) }}"
            )
        }
    };
    format!(
        "#[automatically_derived] \
         #[allow(unused_variables, unused_mut, unreachable_code, clippy::all)] \
         impl ::cb_json::Deserialize for {name} {{ \
         fn deserialize(__de: &mut ::cb_json::Deserializer<'_>) \
           -> ::core::result::Result<Self, ::cb_json::Error> {{ {body} }} }}"
    )
    .parse()
    .expect("cb-json-derive: generated Deserialize impl parses")
}
