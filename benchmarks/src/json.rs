//! JSON in and out through the workspace's vendored `serde_json`, whose data
//! model is the concrete `Content` tree.

use serde::content::Content;
use serde::{DeError, Deserialize, Serialize};
use std::path::Path;

/// A whole JSON document as a `Content` tree.
pub struct Json(pub Content);

impl Serialize for Json {
    fn to_content(&self) -> Content {
        self.0.clone()
    }
}

impl Deserialize for Json {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        Ok(Json(content.clone()))
    }
}

pub fn to_line(content: Content) -> String {
    serde_json::to_string(&Json(content)).expect("a content tree always serialises")
}

pub fn read_file(path: &Path) -> Result<Content, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str::<Json>(&text)
        .map(|json| json.0)
        .map_err(|e| format!("{}: {e}", path.display()))
}

pub fn object(fields: Vec<(&str, Content)>) -> Content {
    Content::Map(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Field `key` of a JSON object.
pub fn get<'a>(content: &'a Content, key: &str) -> Option<&'a Content> {
    match content {
        Content::Map(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

pub fn as_str(content: &Content) -> Option<&str> {
    match content {
        Content::Str(s) => Some(s),
        _ => None,
    }
}

pub fn as_seq(content: &Content) -> Option<&[Content]> {
    match content {
        Content::Seq(items) => Some(items),
        _ => None,
    }
}

/// `{"<name>": {"value": v, "unit": u}, ...}` — the shape of a result's
/// `metrics` object.
pub fn metrics_object(metrics: &[(String, f64, &str)]) -> Content {
    Content::Map(
        metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    object(vec![
                        ("value", Content::F64(*value)),
                        ("unit", Content::Str(unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}
