//! The little JSON the benchmark reads and writes, over the serde
//! stand-in's value tree (which has no map type to derive through).

pub use serde::Value;

/// Lets a bare [`Value`] through `serde_json::{to_string, from_str}`.
pub struct Json(pub Value);

impl serde::Serialize for Json {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(self.0.clone())
    }
}

impl<'de> serde::Deserialize<'de> for Json {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer.deserialize_value().map(Json)
    }
}

pub fn obj<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

pub fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

pub fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

pub fn fields(v: &Value) -> &[(String, Value)] {
    match v {
        Value::Object(fields) => fields,
        _ => &[],
    }
}

pub fn items(v: &Value) -> &[Value] {
    match v {
        Value::Array(items) => items,
        _ => &[],
    }
}

pub fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::F64(x) => Some(*x),
        Value::U64(x) => Some(*x as f64),
        Value::I64(x) => Some(*x as f64),
        _ => None,
    }
}

pub fn as_str(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

pub fn compact(v: &Value) -> String {
    serde_json::to_string(&Json(v.clone())).expect("a value tree always renders")
}

pub fn pretty(v: &Value) -> String {
    serde_json::to_string_pretty(&Json(v.clone())).expect("a value tree always renders")
}

pub fn parse(s: &str) -> Result<Value, String> {
    serde_json::from_str::<Json>(s).map(|j| j.0).map_err(|e| e.to_string())
}

pub fn read(path: &std::path::Path) -> Result<Value, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&body).map_err(|e| format!("{}: {e}", path.display()))
}
