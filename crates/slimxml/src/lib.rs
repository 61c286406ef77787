#![warn(missing_docs)]

//! A minimal, dependency-free XML parser and writer.
//!
//! This crate stands in for the TinyXML library that the CFTCG paper uses to
//! load Simulink model files. It supports the subset of XML that the CFTCG
//! model format (`.mdlx`) needs:
//!
//! * elements with attributes (single- or double-quoted),
//! * nested elements and text content,
//! * XML declarations (`<?xml ...?>`), comments, and CDATA sections,
//! * the five predefined entities plus decimal/hex character references.
//!
//! It intentionally omits DTDs, namespaces-aware processing, and processing
//! instructions beyond the leading declaration.
//!
//! # Examples
//!
//! ```
//! # use std::error::Error;
//! # fn main() -> Result<(), Box<dyn Error>> {
//! use cftcg_slimxml::{parse, Element};
//!
//! let doc = parse("<model name=\"demo\"><block kind=\"Sum\"/></model>")?;
//! assert_eq!(doc.root.name, "model");
//! assert_eq!(doc.root.attr("name"), Some("demo"));
//!
//! let roundtrip = parse(&doc.to_xml())?;
//! assert_eq!(roundtrip.root, doc.root);
//!
//! let built = Element::new("model")
//!     .with_attr("name", "demo")
//!     .with_child(Element::new("block").with_attr("kind", "Sum"));
//! assert_eq!(built, doc.root);
//! # Ok(())
//! # }
//! ```

mod parse;
mod write;

pub use parse::{parse, ParseXmlError, MAX_DEPTH};

/// A parsed XML document: the optional declaration plus a single root element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    /// `true` when the source began with an `<?xml ...?>` declaration.
    pub has_declaration: bool,
    /// The document's root element.
    pub root: Element,
}

impl Document {
    /// Wraps a root element into a document that serializes with a
    /// declaration.
    ///
    /// ```
    /// use cftcg_slimxml::{Document, Element};
    /// let doc = Document::new(Element::new("model"));
    /// assert!(doc.to_xml().starts_with("<?xml"));
    /// ```
    pub fn new(root: Element) -> Self {
        Document { has_declaration: true, root }
    }

    /// Serializes the document, indented with two spaces per level.
    pub fn to_xml(&self) -> String {
        let mut out = String::new();
        if self.has_declaration {
            out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
        }
        write::write_element(&mut out, &self.root, 0);
        out
    }
}

/// One node in the document tree: either a child element or a run of text.
///
/// Whitespace-only text between elements is dropped during parsing; mixed
/// content that actually carries non-whitespace text is preserved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// A nested element.
    Element(Element),
    /// Decoded character data (entities already resolved).
    Text(String),
}

impl Node {
    /// Returns the contained element, if this node is one.
    pub fn as_element(&self) -> Option<&Element> {
        match self {
            Node::Element(e) => Some(e),
            Node::Text(_) => None,
        }
    }

    /// Returns the contained text, if this node is character data.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Node::Element(_) => None,
            Node::Text(t) => Some(t),
        }
    }
}

/// An XML element: a name, ordered attributes, and ordered child nodes.
///
/// Attribute order is preserved so that serialization is deterministic and
/// diffs on model files stay readable.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Element {
    /// Tag name.
    pub name: String,
    /// Attributes in source/insertion order.
    pub attributes: Vec<(String, String)>,
    /// Child nodes in source/insertion order.
    pub children: Vec<Node>,
}

impl Element {
    /// Creates an empty element with the given tag name.
    pub fn new(name: impl Into<String>) -> Self {
        Element { name: name.into(), attributes: Vec::new(), children: Vec::new() }
    }

    /// Adds (or replaces) an attribute, builder style.
    pub fn with_attr(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.set_attr(key, value);
        self
    }

    /// Appends a child element, builder style.
    pub fn with_child(mut self, child: Element) -> Self {
        self.children.push(Node::Element(child));
        self
    }

    /// Appends a text node, builder style.
    pub fn with_text(mut self, text: impl Into<String>) -> Self {
        self.children.push(Node::Text(text.into()));
        self
    }

    /// Sets an attribute, replacing any previous value for the same key.
    pub fn set_attr(&mut self, key: impl Into<String>, value: impl Into<String>) {
        let key = key.into();
        let value = value.into();
        if let Some(slot) = self.attributes.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            self.attributes.push((key, value));
        }
    }

    /// Looks up an attribute value by key.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attributes.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Returns the first child element with the given tag name.
    pub fn child(&self, name: &str) -> Option<&Element> {
        self.elements().find(|e| e.name == name)
    }

    /// Iterates over all child elements (skipping text nodes).
    pub fn elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(Node::as_element)
    }

    /// Iterates over child elements with the given tag name.
    pub fn children_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Element> + 'a {
        self.elements().filter(move |e| e.name == name)
    }

    /// Concatenates the element's direct text content, trimmed.
    ///
    /// ```
    /// # use cftcg_slimxml::parse;
    /// let doc = parse("<a> hi </a>").unwrap();
    /// assert_eq!(doc.root.text(), "hi");
    /// ```
    pub fn text(&self) -> String {
        let mut out = String::new();
        for child in &self.children {
            if let Node::Text(t) = child {
                out.push_str(t);
            }
        }
        out.trim().to_string()
    }

    /// Serializes just this element (no declaration), indented.
    pub fn to_xml(&self) -> String {
        let mut out = String::new();
        write::write_element(&mut out, self, 0);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_query() {
        let e = Element::new("model")
            .with_attr("name", "m")
            .with_attr("rate", "1")
            .with_child(Element::new("block").with_attr("kind", "Sum"))
            .with_child(Element::new("block").with_attr("kind", "Gain"));
        assert_eq!(e.attr("name"), Some("m"));
        assert_eq!(e.attr("rate"), Some("1"));
        assert_eq!(e.attr("missing"), None);
        assert_eq!(e.children_named("block").count(), 2);
        assert_eq!(e.child("block").unwrap().attr("kind"), Some("Sum"));
    }

    #[test]
    fn set_attr_replaces() {
        let mut e = Element::new("a");
        e.set_attr("k", "1");
        e.set_attr("k", "2");
        assert_eq!(e.attributes.len(), 1);
        assert_eq!(e.attr("k"), Some("2"));
    }

    #[test]
    fn document_serializes_with_declaration() {
        let doc = Document::new(Element::new("root"));
        let xml = doc.to_xml();
        assert!(xml.starts_with("<?xml version=\"1.0\""));
        assert!(xml.contains("<root/>"));
    }

    #[test]
    fn text_concatenation_is_trimmed() {
        let doc = parse("<a>  one <b/> two  </a>").unwrap();
        assert_eq!(doc.root.text(), "one  two");
    }

    #[test]
    fn node_accessors() {
        let e = Node::Element(Element::new("x"));
        let t = Node::Text("y".into());
        assert!(e.as_element().is_some());
        assert!(e.as_text().is_none());
        assert!(t.as_element().is_none());
        assert_eq!(t.as_text(), Some("y"));
    }
}
