//! Offline stand-in for `serde_derive`: `#[derive(Serialize)]` and
//! `#[derive(Deserialize)]` over the compat `serde` data model.
//!
//! There is no `syn`/`quote` in the container, so the input item is parsed
//! directly from the `proc_macro::TokenStream`. Supported shapes — exactly
//! what this workspace derives on:
//!
//! * structs with named fields (a JSON object),
//! * newtype structs, `struct Id(u32);` (the field's own encoding),
//! * enums whose variants are units (`"Variant"`) or newtypes
//!   (`{"Variant": payload}`).
//!
//! Any other shape — generics, unit structs, tuple structs or tuple variants
//! of more than one field, struct variants — fails to compile with a message
//! naming the type. `#[serde(...)]` attributes are not accepted.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derives `serde::Serialize`.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("generated Serialize impl parses")
}

/// Derives `serde::Deserialize`.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("generated Deserialize impl parses")
}

/// An enum variant.
struct Variant {
    name: String,
    /// Whether it carries one field (otherwise it is a unit variant).
    newtype: bool,
}

enum Shape {
    /// Field names.
    Named(Vec<String>),
    Newtype,
    Enum(Vec<Variant>),
}

struct Item {
    name: String,
    shape: Shape,
}

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;

    skip_attrs(&tokens, &mut i);
    skip_visibility(&tokens, &mut i);

    let kind = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("expected `struct` or `enum`, found {other}"),
    };
    i += 1;
    let name = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("expected item name, found {other}"),
    };
    i += 1;
    if matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde compat derive does not support generic type `{name}`");
    }

    let shape = match (kind.as_str(), tokens.get(i)) {
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Shape::Named(parse_named_fields(g.stream()))
        }
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Parenthesis => {
            if count_tuple_fields(g.stream()) != 1 {
                panic!("serde compat derive supports tuple struct `{name}` only with one field");
            }
            Shape::Newtype
        }
        ("enum", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Shape::Enum(parse_variants(&name, g.stream()))
        }
        _ => panic!("serde compat derive does not support the shape of `{name}`"),
    };
    Item { name, shape }
}

/// Advances past any `#[...]` attributes (doc comments included).
fn skip_attrs(tokens: &[TokenTree], i: &mut usize) {
    while matches!(tokens.get(*i), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        *i += 2;
    }
}

fn skip_visibility(tokens: &[TokenTree], i: &mut usize) {
    if matches!(tokens.get(*i), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        *i += 1;
        if matches!(tokens.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            *i += 1;
        }
    }
}

/// Advances past a type (field type or discriminant) up to a top-level comma,
/// tracking angle-bracket depth so `HashMap<K, V>` stays intact.
fn skip_until_comma(tokens: &[TokenTree], i: &mut usize) {
    let mut angle: i32 = 0;
    while let Some(t) = tokens.get(*i) {
        if let TokenTree::Punct(p) = t {
            match p.as_char() {
                '<' => angle += 1,
                '>' => angle -= 1,
                ',' if angle == 0 => return,
                _ => {}
            }
        }
        *i += 1;
    }
}

fn parse_named_fields(stream: TokenStream) -> Vec<String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut i = 0;
    let mut fields = Vec::new();
    while i < tokens.len() {
        skip_attrs(&tokens, &mut i);
        skip_visibility(&tokens, &mut i);
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => panic!("expected field name, found {other:?}"),
        };
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => panic!("expected `:` after field `{name}`, found {other:?}"),
        }
        skip_until_comma(&tokens, &mut i);
        i += 1; // consume the comma (or run off the end after the last field)
        fields.push(name);
    }
    fields
}

/// Counts fields of a tuple struct / tuple variant body. Attributes and
/// visibility are part of the field they precede.
fn count_tuple_fields(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut i = 0;
    let mut count = 0;
    while i < tokens.len() {
        skip_until_comma(&tokens, &mut i);
        i += 1;
        count += 1;
    }
    count
}

fn parse_variants(enum_name: &str, stream: TokenStream) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut i = 0;
    let mut variants = Vec::new();
    while i < tokens.len() {
        skip_attrs(&tokens, &mut i);
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => panic!("expected variant name, found {other:?}"),
        };
        i += 1;
        let newtype = match tokens.get(i) {
            Some(TokenTree::Group(g))
                if g.delimiter() == Delimiter::Parenthesis
                    && count_tuple_fields(g.stream()) == 1 =>
            {
                i += 1;
                true
            }
            Some(TokenTree::Group(_)) => panic!(
                "serde compat derive supports variant `{enum_name}::{name}` only as a unit or a newtype"
            ),
            _ => false,
        };
        // Optional discriminant, then the separating comma.
        if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '=') {
            i += 1;
            skip_until_comma(&tokens, &mut i);
        }
        if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            i += 1;
        }
        variants.push(Variant { name, newtype });
    }
    variants
}

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.shape {
        Shape::Named(fields) => {
            let mut pushes = String::new();
            for f in fields {
                pushes.push_str(&format!(
                    "__m.push((\"{f}\".to_string(), ::serde::Serialize::serialize(&self.{f})));\n"
                ));
            }
            format!(
                "let mut __m: Vec<(String, ::serde::Value)> = Vec::new();\n{pushes}::serde::Value::Object(__m)"
            )
        }
        Shape::Newtype => "::serde::Serialize::serialize(&self.0)".to_string(),
        Shape::Enum(variants) => {
            let mut arms = String::new();
            for Variant { name: vn, newtype } in variants {
                if *newtype {
                    arms.push_str(&format!(
                        "{name}::{vn}(__f0) => ::serde::Value::Object(vec![(\"{vn}\".to_string(), ::serde::Serialize::serialize(__f0))]),\n"
                    ));
                } else {
                    arms.push_str(&format!(
                        "{name}::{vn} => ::serde::Value::Str(\"{vn}\".to_string()),\n"
                    ));
                }
            }
            format!("match self {{\n{arms}}}")
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
             fn serialize(&self) -> ::serde::Value {{\n{body}\n}}\n\
         }}"
    )
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.shape {
        Shape::Named(fields) => {
            let mut inits = String::new();
            for f in fields {
                inits.push_str(&format!("{f}: ::serde::field(__obj, \"{f}\")?,\n"));
            }
            format!(
                "let __obj = __v.as_object().ok_or_else(|| ::serde::Error::expected(\"object\", \"{name}\"))?;\n\
                 Ok({name} {{\n{inits}}})"
            )
        }
        Shape::Newtype => format!("Ok({name}(::serde::Deserialize::deserialize(__v)?))"),
        Shape::Enum(variants) => {
            let mut unit_arms = String::new();
            let mut data_arms = String::new();
            for Variant { name: vn, newtype } in variants {
                if *newtype {
                    data_arms.push_str(&format!(
                        "\"{vn}\" => return Ok({name}::{vn}(::serde::Deserialize::deserialize(__payload)?)),\n"
                    ));
                } else {
                    unit_arms.push_str(&format!("\"{vn}\" => return Ok({name}::{vn}),\n"));
                }
            }
            format!(
                "if let Some(__tag) = __v.as_str() {{\n\
                     match __tag {{\n{unit_arms}_ => {{}}\n}}\n\
                 }}\n\
                 if let Some(__obj) = __v.as_object() {{\n\
                     if __obj.len() == 1 {{\n\
                         let (__tag, __payload) = (&__obj[0].0, &__obj[0].1);\n\
                         match __tag.as_str() {{\n{data_arms}_ => {{}}\n}}\n\
                     }}\n\
                 }}\n\
                 Err(::serde::Error::expected(\"known variant\", \"{name}\"))"
            )
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
             fn deserialize(__v: &::serde::Value) -> ::std::result::Result<{name}, ::serde::Error> {{\n{body}\n}}\n\
         }}"
    )
}
