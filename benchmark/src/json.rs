//! A few lines of JSON writing (the reading side is
//! `sofbyz::obs::json::parse`). Numbers are written with every digit
//! `f64` carries, so a timing never reads the same twice by rounding.

use std::fmt::Write as _;

pub use sofbyz::obs::json::{parse, Value};

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (which no measurement here should
/// produce) become `null` so the document stays parseable.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// `[a,b,…]` over already-rendered values.
pub fn array(items: &[String]) -> String {
    format!("[{}]", items.join(","))
}

/// `[1.5,2,…]`.
pub fn numbers(values: &[f64]) -> String {
    array(&values.iter().map(|v| number(*v)).collect::<Vec<_>>())
}

/// An object under construction; keys keep insertion order.
#[derive(Default)]
pub struct Obj(Vec<String>);

impl Obj {
    pub fn new() -> Self {
        Obj::default()
    }

    /// Adds an already-rendered value.
    pub fn raw(mut self, key: &str, rendered: &str) -> Self {
        self.0.push(format!("{}:{rendered}", quote(key)));
        self
    }

    pub fn str(self, key: &str, v: &str) -> Self {
        let v = quote(v);
        self.raw(key, &v)
    }

    pub fn num(self, key: &str, v: f64) -> Self {
        self.raw(key, &number(v))
    }

    pub fn bool(self, key: &str, v: bool) -> Self {
        self.raw(key, if v { "true" } else { "false" })
    }

    pub fn finish(self) -> String {
        format!("{{{}}}", self.0.join(","))
    }
}

/// Object member as a number.
pub fn num_field(v: &Value, key: &str) -> Option<f64> {
    v.get(key).and_then(Value::as_f64)
}

/// Array member as numbers.
pub fn nums_field(v: &Value, key: &str) -> Option<Vec<f64>> {
    v.get(key)?.as_array()?.iter().map(Value::as_f64).collect()
}
