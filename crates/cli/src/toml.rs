//! Minimal TOML-subset parser for scenario files.
//!
//! Supported (everything the example scenarios need): comments, `[section]`
//! headers one level deep, and `key = value` pairs where a value is a
//! double-quoted string (with `\"`, `\\`, `\n`, `\t` escapes), an integer,
//! a float, a boolean, or a single-line array of those scalars. Not
//! supported: nested tables/dotted keys, arrays of tables, multi-line
//! strings, and datetimes — the parser reports those as errors rather than
//! silently misreading them.
//!
//! The [`TomlDoc`] tree is also the one document shape the scenario schema
//! reads: a `.json` scenario is lowered into it once at load
//! ([`TomlDoc::from_json`]), so both formats go through the same rows.

use crate::json::Json;
use std::collections::BTreeMap;

/// A scalar or array value.
#[derive(Clone, Debug, PartialEq)]
pub enum TomlValue {
    Str(String),
    Int(i64),
    Float(f64),
    Bool(bool),
    Arr(Vec<TomlValue>),
}

impl TomlValue {
    pub fn as_str(&self) -> Option<&str> {
        match self {
            TomlValue::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            TomlValue::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Float accessor that also accepts integers (TOML writers often drop
    /// the `.0`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            TomlValue::Float(v) => Some(*v),
            TomlValue::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            TomlValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[TomlValue]> {
        match self {
            TomlValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Lower a JSON scalar or array (`None` for null and objects, which no
    /// scenario key takes). Whole numbers below 2^53 become `Int` and
    /// everything else `Float`, so an integer key rejects exactly the
    /// values JSON may already have rounded.
    pub fn from_json(value: &Json) -> Option<TomlValue> {
        Some(match value {
            Json::Str(s) => TomlValue::Str(s.clone()),
            Json::Bool(b) => TomlValue::Bool(*b),
            Json::Num(v) if v.fract() == 0.0 && v.abs() < (1u64 << 53) as f64 => {
                TomlValue::Int(*v as i64)
            }
            Json::Num(v) => TomlValue::Float(*v),
            Json::Arr(items) => TomlValue::Arr(
                items
                    .iter()
                    .map(TomlValue::from_json)
                    .collect::<Option<_>>()?,
            ),
            Json::Null | Json::Obj(_) => return None,
        })
    }
}

/// A parsed document: the root table plus one level of named sections.
/// Key order within a section is not preserved (scenarios are declarative).
#[derive(Clone, Debug, Default)]
pub struct TomlDoc {
    sections: BTreeMap<String, BTreeMap<String, TomlValue>>,
}

impl TomlDoc {
    /// Parse a document; errors carry 1-based line numbers.
    pub fn parse(text: &str) -> Result<TomlDoc, String> {
        let mut doc = TomlDoc::default();
        let mut current = String::new(); // "" = root table
        for (idx, raw_line) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = strip_comment(raw_line).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('[') {
                let name = rest
                    .strip_suffix(']')
                    .ok_or(format!("line {lineno}: unterminated section header"))?
                    .trim();
                if name.is_empty() || name.starts_with('[') {
                    return Err(format!(
                        "line {lineno}: arrays of tables / empty sections unsupported"
                    ));
                }
                if name.contains('.') {
                    return Err(format!("line {lineno}: nested sections unsupported"));
                }
                current = name.to_string();
                doc.sections.entry(current.clone()).or_default();
                continue;
            }
            let (key, value_text) = line
                .split_once('=')
                .ok_or(format!("line {lineno}: expected `key = value`"))?;
            let key = key.trim();
            if key.is_empty() || key.contains('.') || key.contains(' ') {
                return Err(format!("line {lineno}: unsupported key {key:?}"));
            }
            let value = parse_value(value_text.trim(), lineno)?;
            let table = doc.sections.entry(current.clone()).or_default();
            if table.insert(key.to_string(), value).is_some() {
                return Err(format!("line {lineno}: duplicate key {key:?}"));
            }
        }
        Ok(doc)
    }

    /// Lower a JSON scenario into the same tree: top-level objects are
    /// the sections, every other top-level member is a root key.
    pub fn from_json(root: &Json) -> Result<TomlDoc, String> {
        let mut doc = TomlDoc::default();
        let Json::Obj(members) = root else {
            return Ok(doc);
        };
        for member in members {
            let (section, entries) = match member {
                (name, Json::Obj(entries)) => (name.as_str(), entries.as_slice()),
                root_key => ("", std::slice::from_ref(root_key)),
            };
            let table = doc.sections.entry(section.to_string()).or_default();
            for (key, value) in entries {
                let value = TomlValue::from_json(value)
                    .ok_or(format!("{key}: null and objects are not scenario values"))?;
                table.insert(key.clone(), value);
            }
        }
        Ok(doc)
    }

    /// Look up `key` in `section` (`""` for the root table).
    pub fn get(&self, section: &str, key: &str) -> Option<&TomlValue> {
        self.sections.get(section)?.get(key)
    }

    /// Whether a section exists (root `""` exists once any root key does).
    pub fn has_section(&self, section: &str) -> bool {
        self.sections.contains_key(section)
    }

    /// All keys of a section, for unknown-key validation.
    pub fn section_keys(&self, section: &str) -> Vec<&str> {
        self.sections
            .get(section)
            .map(|t| t.keys().map(String::as_str).collect())
            .unwrap_or_default()
    }

    /// All section names (excluding the root table).
    pub fn section_names(&self) -> Vec<&str> {
        self.sections
            .keys()
            .map(String::as_str)
            .filter(|s| !s.is_empty())
            .collect()
    }
}

/// Strip a `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_string => escaped = !escaped,
            '"' if !escaped => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => escaped = false,
        }
    }
    line
}

fn parse_value(text: &str, lineno: usize) -> Result<TomlValue, String> {
    if text.is_empty() {
        return Err(format!("line {lineno}: missing value"));
    }
    if let Some(rest) = text.strip_prefix('"') {
        let mut out = String::new();
        let mut chars = rest.chars();
        loop {
            match chars.next() {
                None => return Err(format!("line {lineno}: unterminated string")),
                Some('"') => break,
                Some('\\') => match chars.next() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    _ => return Err(format!("line {lineno}: unsupported escape")),
                },
                Some(c) => out.push(c),
            }
        }
        if !chars.as_str().trim().is_empty() {
            return Err(format!("line {lineno}: trailing input after string"));
        }
        return Ok(TomlValue::Str(out));
    }
    if text.starts_with('[') {
        let inner = text
            .strip_prefix('[')
            .and_then(|t| t.strip_suffix(']'))
            .ok_or(format!("line {lineno}: arrays must be single-line"))?;
        let mut items = Vec::new();
        for part in split_array_items(inner) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let item = parse_value(part, lineno)?;
            if matches!(item, TomlValue::Arr(_)) {
                return Err(format!("line {lineno}: nested arrays unsupported"));
            }
            items.push(item);
        }
        return Ok(TomlValue::Arr(items));
    }
    match text {
        "true" => return Ok(TomlValue::Bool(true)),
        "false" => return Ok(TomlValue::Bool(false)),
        _ => {}
    }
    // Integer (allowing underscores and hex), then float.
    let cleaned = text.replace('_', "");
    if let Some(hex) = cleaned.strip_prefix("0x") {
        return i64::from_str_radix(hex, 16)
            .map(TomlValue::Int)
            .map_err(|_| format!("line {lineno}: invalid hex integer {text:?}"));
    }
    if let Ok(v) = cleaned.parse::<i64>() {
        return Ok(TomlValue::Int(v));
    }
    if let Ok(v) = cleaned.parse::<f64>() {
        return Ok(TomlValue::Float(v));
    }
    Err(format!("line {lineno}: cannot parse value {text:?}"))
}

/// Split array items on commas outside quotes.
fn split_array_items(inner: &str) -> Vec<&str> {
    let mut items = Vec::new();
    let mut start = 0;
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in inner.char_indices() {
        match c {
            '\\' if in_string => escaped = !escaped,
            '"' if !escaped => in_string = !in_string,
            ',' if !in_string => {
                items.push(&inner[start..i]);
                start = i + 1;
            }
            _ => escaped = false,
        }
    }
    items.push(&inner[start..]);
    items
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scenario_shape() {
        let doc = TomlDoc::parse(
            r#"
# a scenario
name = "demo run"   # inline comment
seed = 0xBE7C4
parties = 3

[data]
kind = "synthetic-classification"
class_sep = 1.5
flip_y = 0.01

[sweep]
values = [2, 3, 4]
algorithms = ["pivot-basic", "npd-dt"]

[params]
parallel_decrypt = false
"#,
        )
        .unwrap();
        assert_eq!(doc.get("", "name").unwrap().as_str(), Some("demo run"));
        assert_eq!(doc.get("", "seed").unwrap().as_i64(), Some(0xBE7C4));
        assert_eq!(doc.get("data", "class_sep").unwrap().as_f64(), Some(1.5));
        assert_eq!(
            doc.get("params", "parallel_decrypt").unwrap().as_bool(),
            Some(false)
        );
        let values = doc.get("sweep", "values").unwrap().as_array().unwrap();
        assert_eq!(values.len(), 3);
        assert_eq!(values[1].as_i64(), Some(3));
        let algos = doc.get("sweep", "algorithms").unwrap().as_array().unwrap();
        assert_eq!(algos[1].as_str(), Some("npd-dt"));
        assert_eq!(doc.section_names(), vec!["data", "params", "sweep"]);
    }

    #[test]
    fn hash_inside_string_is_not_comment() {
        let doc = TomlDoc::parse("name = \"a # b\"").unwrap();
        assert_eq!(doc.get("", "name").unwrap().as_str(), Some("a # b"));
    }

    #[test]
    fn ints_accept_underscores_and_negatives() {
        let doc = TomlDoc::parse("a = 1_000_000\nb = -5\nc = 2.5e3").unwrap();
        assert_eq!(doc.get("", "a").unwrap().as_i64(), Some(1_000_000));
        assert_eq!(doc.get("", "b").unwrap().as_i64(), Some(-5));
        assert_eq!(doc.get("", "c").unwrap().as_f64(), Some(2500.0));
    }

    #[test]
    fn errors_are_line_numbered() {
        let err = TomlDoc::parse("ok = 1\nbroken").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(TomlDoc::parse("[unclosed").is_err());
        assert!(TomlDoc::parse("a = 1\na = 2")
            .unwrap_err()
            .contains("duplicate"));
        assert!(TomlDoc::parse("[a.b]\nk = 1")
            .unwrap_err()
            .contains("nested"));
    }

    #[test]
    fn unknown_key_listing() {
        let doc = TomlDoc::parse("[data]\nkind = \"csv\"\npath = \"x.csv\"").unwrap();
        assert_eq!(doc.section_keys("data"), vec!["kind", "path"]);
        assert!(doc.section_keys("absent").is_empty());
    }
}
