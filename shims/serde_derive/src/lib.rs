//! Offline stand-in for `serde_derive`.
//!
//! Implements `#[derive(Serialize)]` / `#[derive(Deserialize)]` with a
//! hand-rolled token parser (no `syn`/`quote` available offline). Covers
//! the shapes the workspace uses: named/tuple/unit structs and enums with
//! unit/tuple/struct variants (externally tagged), none of them generic,
//! and the field attributes `#[serde(default)]` /
//! `#[serde(default = "path")]`. Generated code targets the sibling
//! `serde` shim's [`Value`] tree.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug)]
struct Field {
    name: String,
    default: Option<FieldDefault>,
}

#[derive(Debug)]
enum FieldDefault {
    /// `#[serde(default)]` — `Default::default()`.
    Std,
    /// `#[serde(default = "path")]` — call `path()`.
    Path(String),
}

#[derive(Debug)]
enum VariantData {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
}

#[derive(Debug)]
struct Variant {
    name: String,
    data: VariantData,
}

#[derive(Debug)]
enum Kind {
    NamedStruct(Vec<Field>),
    TupleStruct(usize),
    UnitStruct,
    Enum(Vec<Variant>),
}

#[derive(Debug)]
struct Input {
    name: String,
    kind: Kind,
}

struct Cursor {
    toks: Vec<TokenTree>,
    pos: usize,
}

impl Cursor {
    fn new(stream: TokenStream) -> Self {
        Cursor { toks: stream.into_iter().collect(), pos: 0 }
    }

    fn peek(&self) -> Option<&TokenTree> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<TokenTree> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_punct(&mut self, c: char) -> bool {
        if let Some(TokenTree::Punct(p)) = self.peek() {
            if p.as_char() == c {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn eat_ident(&mut self, name: &str) -> bool {
        if let Some(TokenTree::Ident(i)) = self.peek() {
            if i.to_string() == name {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_ident(&mut self) -> String {
        match self.next() {
            Some(TokenTree::Ident(i)) => i.to_string(),
            other => panic!("serde derive: expected identifier, got {:?}", other),
        }
    }

    /// Skips one leading attribute if present, returning its serde
    /// payload tokens when it is a `#[serde(...)]` attribute.
    fn eat_attr(&mut self) -> Option<Option<Vec<TokenTree>>> {
        if let Some(TokenTree::Punct(p)) = self.peek() {
            if p.as_char() == '#' {
                self.pos += 1;
                match self.next() {
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => {
                        let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                        if let Some(TokenTree::Ident(i)) = inner.first() {
                            if i.to_string() == "serde" {
                                if let Some(TokenTree::Group(payload)) = inner.get(1) {
                                    return Some(Some(payload.stream().into_iter().collect()));
                                }
                            }
                        }
                        return Some(None);
                    }
                    other => panic!("serde derive: malformed attribute: {:?}", other),
                }
            }
        }
        None
    }
}

/// Strips the surrounding quotes and simple escapes from a string
/// literal's token text.
fn unquote(lit: &str) -> String {
    let inner = lit.strip_prefix('"').and_then(|s| s.strip_suffix('"')).unwrap_or(lit);
    inner.replace("\\\"", "\"").replace("\\\\", "\\")
}

/// Field-level serde payload: `default` / `default = "path"`.
fn parse_field_attr(tokens: &[TokenTree], default: &mut Option<FieldDefault>) {
    let mut i = 0;
    while i < tokens.len() {
        if let TokenTree::Ident(id) = &tokens[i] {
            if id.to_string() == "default" {
                if matches!(tokens.get(i+1), Some(TokenTree::Punct(p)) if p.as_char() == '=') {
                    if let Some(TokenTree::Literal(lit)) = tokens.get(i + 2) {
                        *default = Some(FieldDefault::Path(unquote(&lit.to_string())));
                        i += 3;
                        continue;
                    }
                }
                *default = Some(FieldDefault::Std);
            }
        }
        i += 1;
    }
}

/// Consumes a type from `cur` until a top-level `,` (angle-bracket depth
/// aware; `()`/`[]`/`{}` arrive as atomic groups). Returns true if a
/// comma was consumed.
fn skip_type(cur: &mut Cursor) -> bool {
    let mut angle: i32 = 0;
    while let Some(tok) = cur.peek() {
        if let TokenTree::Punct(p) = tok {
            let c = p.as_char();
            if c == ',' && angle == 0 {
                cur.pos += 1;
                return true;
            }
            if c == '<' {
                angle += 1;
            }
            if c == '>' {
                angle -= 1;
            }
        }
        cur.pos += 1;
    }
    false
}

fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    let mut cur = Cursor::new(stream);
    let mut fields = Vec::new();
    while cur.peek().is_some() {
        let mut default = None;
        while let Some(serde_payload) = cur.eat_attr() {
            if let Some(tokens) = serde_payload {
                parse_field_attr(&tokens, &mut default);
            }
        }
        if cur.peek().is_none() {
            break;
        }
        if cur.eat_ident("pub") {
            // `pub(crate)` and friends.
            if let Some(TokenTree::Group(g)) = cur.peek() {
                if g.delimiter() == Delimiter::Parenthesis {
                    cur.pos += 1;
                }
            }
        }
        let name = cur.expect_ident();
        assert!(cur.eat_punct(':'), "serde derive: expected `:` after field `{name}`");
        skip_type(&mut cur);
        fields.push(Field { name, default });
    }
    fields
}

fn count_tuple_fields(stream: TokenStream) -> usize {
    let mut cur = Cursor::new(stream);
    let mut count = 0;
    loop {
        while cur.eat_attr().is_some() {}
        if cur.peek().is_none() {
            break;
        }
        if cur.eat_ident("pub") {
            if let Some(TokenTree::Group(g)) = cur.peek() {
                if g.delimiter() == Delimiter::Parenthesis {
                    cur.pos += 1;
                }
            }
        }
        if cur.peek().is_none() {
            break;
        }
        count += 1;
        skip_type(&mut cur);
    }
    count
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let mut cur = Cursor::new(stream);
    let mut variants = Vec::new();
    while cur.peek().is_some() {
        while cur.eat_attr().is_some() {}
        if cur.peek().is_none() {
            break;
        }
        let name = cur.expect_ident();
        let data = match cur.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let n = count_tuple_fields(g.stream());
                cur.pos += 1;
                VariantData::Tuple(n)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(g.stream());
                cur.pos += 1;
                VariantData::Named(fields)
            }
            _ => VariantData::Unit,
        };
        // Skip an explicit discriminant, then the separating comma.
        if cur.eat_punct('=') {
            while let Some(tok) = cur.peek() {
                if matches!(tok, TokenTree::Punct(p) if p.as_char() == ',') {
                    break;
                }
                cur.pos += 1;
            }
        }
        cur.eat_punct(',');
        variants.push(Variant { name, data });
    }
    variants
}

fn parse_input(input: TokenStream) -> Input {
    let mut cur = Cursor::new(input);
    while cur.eat_attr().is_some() {}
    if cur.eat_ident("pub") {
        if let Some(TokenTree::Group(g)) = cur.peek() {
            if g.delimiter() == Delimiter::Parenthesis {
                cur.pos += 1;
            }
        }
    }
    let is_enum = if cur.eat_ident("struct") {
        false
    } else if cur.eat_ident("enum") {
        true
    } else {
        panic!("serde derive: expected `struct` or `enum`");
    };
    let name = cur.expect_ident();
    assert!(
        !cur.eat_punct('<'),
        "serde derive: `{name}` is generic, which this shim does not derive"
    );

    let kind = match cur.peek() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            if is_enum {
                Kind::Enum(parse_variants(g.stream()))
            } else {
                Kind::NamedStruct(parse_named_fields(g.stream()))
            }
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            Kind::TupleStruct(count_tuple_fields(g.stream()))
        }
        _ => Kind::UnitStruct,
    };

    Input { name, kind }
}

const SER_ERR: &str = "<__S::Error as ::serde::ser::Error>::custom";
const DE_ERR: &str = "<__D::Error as ::serde::de::Error>::custom";

/// Derives `Serialize` against the offline serde shim.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let input = parse_input(input);
    let body = match &input.kind {
        Kind::NamedStruct(fields) => {
            let mut s = String::from(
                "let mut __obj: ::std::vec::Vec<(::std::string::String, ::serde::Value)> = ::std::vec::Vec::new();\n",
            );
            for f in fields {
                s.push_str(&format!(
                    "__obj.push((\"{n}\".to_string(), ::serde::to_value(&self.{n}).map_err({err})?));\n",
                    n = f.name,
                    err = SER_ERR,
                ));
            }
            s.push_str(
                "::serde::Serializer::serialize_value(__s, ::serde::Value::Object(__obj))\n",
            );
            s
        }
        Kind::TupleStruct(1) => "::serde::Serialize::serialize(&self.0, __s)\n".to_string(),
        Kind::TupleStruct(n) => {
            let mut s = String::from(
                "let mut __arr: ::std::vec::Vec<::serde::Value> = ::std::vec::Vec::new();\n",
            );
            for i in 0..*n {
                s.push_str(&format!(
                    "__arr.push(::serde::to_value(&self.{i}).map_err({err})?);\n",
                    err = SER_ERR
                ));
            }
            s.push_str("::serde::Serializer::serialize_value(__s, ::serde::Value::Array(__arr))\n");
            s
        }
        Kind::UnitStruct => {
            "::serde::Serializer::serialize_value(__s, ::serde::Value::Null)\n".to_string()
        }
        Kind::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                match &v.data {
                    VariantData::Unit => {
                        arms.push_str(&format!(
                            "{ty}::{v} => ::serde::Serializer::serialize_value(__s, ::serde::Value::Str(\"{v}\".to_string())),\n",
                            ty = input.name,
                            v = v.name,
                        ));
                    }
                    VariantData::Tuple(1) => {
                        arms.push_str(&format!(
                            "{ty}::{v}(__f0) => {{\n\
                             let __inner = ::serde::to_value(__f0).map_err({err})?;\n\
                             ::serde::Serializer::serialize_value(__s, ::serde::Value::Object(vec![(\"{v}\".to_string(), __inner)]))\n\
                             }}\n",
                            ty = input.name,
                            v = v.name,
                            err = SER_ERR,
                        ));
                    }
                    VariantData::Tuple(n) => {
                        let binders: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                        let mut pushes = String::new();
                        for b in &binders {
                            pushes.push_str(&format!(
                                "__arr.push(::serde::to_value({b}).map_err({err})?);\n",
                                err = SER_ERR
                            ));
                        }
                        arms.push_str(&format!(
                            "{ty}::{v}({binders}) => {{\n\
                             let mut __arr: ::std::vec::Vec<::serde::Value> = ::std::vec::Vec::new();\n\
                             {pushes}\
                             ::serde::Serializer::serialize_value(__s, ::serde::Value::Object(vec![(\"{v}\".to_string(), ::serde::Value::Array(__arr))]))\n\
                             }}\n",
                            ty = input.name,
                            v = v.name,
                            binders = binders.join(", "),
                        ));
                    }
                    VariantData::Named(fields) => {
                        let names: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                        let mut pushes = String::new();
                        for n in &names {
                            pushes.push_str(&format!(
                                "__inner.push((\"{n}\".to_string(), ::serde::to_value({n}).map_err({err})?));\n",
                                err = SER_ERR
                            ));
                        }
                        arms.push_str(&format!(
                            "{ty}::{v} {{ {names} }} => {{\n\
                             let mut __inner: ::std::vec::Vec<(::std::string::String, ::serde::Value)> = ::std::vec::Vec::new();\n\
                             {pushes}\
                             ::serde::Serializer::serialize_value(__s, ::serde::Value::Object(vec![(\"{v}\".to_string(), ::serde::Value::Object(__inner))]))\n\
                             }}\n",
                            ty = input.name,
                            v = v.name,
                            names = names.join(", "),
                        ));
                    }
                }
            }
            format!("match self {{\n{arms}}}\n")
        }
    };
    let out = format!(
        "#[automatically_derived]\n\
         impl ::serde::Serialize for {ty} {{\n\
         fn serialize<__S: ::serde::Serializer>(&self, __s: __S) -> ::core::result::Result<__S::Ok, __S::Error> {{\n\
         {body}\
         }}\n\
         }}\n",
        ty = input.name,
    );
    out.parse().expect("serde derive: generated Serialize impl failed to parse")
}

/// Emits the binding statements for a list of named fields taken out of
/// `__fields`, honoring `#[serde(default)]`.
fn named_field_bindings(fields: &[Field], ctor_prefix: &str) -> (String, String) {
    let mut binds = String::new();
    let mut ctor = String::new();
    for f in fields {
        let missing = match &f.default {
            Some(FieldDefault::Std) => "::core::default::Default::default()".to_string(),
            Some(FieldDefault::Path(p)) => format!("{p}()"),
            None => format!(
                "::serde::from_value(::serde::Value::Null).map_err(|_| {err}(\"missing field `{n}`\"))?",
                err = DE_ERR,
                n = f.name
            ),
        };
        binds.push_str(&format!(
            "let __field_{n} = match ::serde::__private::take(&mut __fields, \"{n}\") {{\n\
             ::core::option::Option::Some(__val) => ::serde::from_value(__val).map_err({err})?,\n\
             ::core::option::Option::None => {missing},\n\
             }};\n",
            n = f.name,
            err = DE_ERR,
        ));
        ctor.push_str(&format!("{n}: __field_{n}, ", n = f.name));
    }
    (binds, format!("{ctor_prefix} {{ {ctor} }}"))
}

/// Derives `Deserialize` against the offline serde shim.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let input = parse_input(input);
    let body = match &input.kind {
        Kind::NamedStruct(fields) => {
            let (binds, ctor) = named_field_bindings(fields, &input.name);
            format!(
                "let __v = ::serde::Deserializer::deserialize_value(__d)?;\n\
                 let mut __fields = match __v {{\n\
                 ::serde::Value::Object(__f) => __f,\n\
                 _ => return ::core::result::Result::Err({err}(\"expected object for struct {ty}\")),\n\
                 }};\n\
                 let _ = &mut __fields;\n\
                 {binds}\
                 ::core::result::Result::Ok({ctor})\n",
                err = DE_ERR,
                ty = input.name,
            )
        }
        Kind::TupleStruct(1) => {
            format!(
                "let __v = ::serde::Deserializer::deserialize_value(__d)?;\n\
                 ::core::result::Result::Ok({ty}(::serde::from_value(__v).map_err({err})?))\n",
                ty = input.name,
                err = DE_ERR,
            )
        }
        Kind::TupleStruct(n) => {
            let mut binds = String::new();
            let mut ctor = String::new();
            for i in 0..*n {
                binds.push_str(&format!(
                    "let __field_{i} = ::serde::from_value(__it.next().unwrap()).map_err({err})?;\n",
                    err = DE_ERR
                ));
                ctor.push_str(&format!("__field_{i}, "));
            }
            format!(
                "let __v = ::serde::Deserializer::deserialize_value(__d)?;\n\
                 let __items = match __v {{\n\
                 ::serde::Value::Array(__a) if __a.len() == {n} => __a,\n\
                 _ => return ::core::result::Result::Err({err}(\"expected {n}-element array for {ty}\")),\n\
                 }};\n\
                 let mut __it = __items.into_iter();\n\
                 {binds}\
                 ::core::result::Result::Ok({ty}({ctor}))\n",
                err = DE_ERR,
                ty = input.name,
            )
        }
        Kind::UnitStruct => {
            format!(
                "let _ = ::serde::Deserializer::deserialize_value(__d)?;\n\
                 ::core::result::Result::Ok({ty})\n",
                ty = input.name
            )
        }
        Kind::Enum(variants) => {
            let mut unit_arms = String::new();
            let mut data_arms = String::new();
            for v in variants {
                match &v.data {
                    VariantData::Unit => {
                        unit_arms.push_str(&format!(
                            "\"{v}\" => ::core::result::Result::Ok({ty}::{v}),\n",
                            ty = input.name,
                            v = v.name,
                        ));
                    }
                    VariantData::Tuple(1) => {
                        data_arms.push_str(&format!(
                            "\"{v}\" => ::core::result::Result::Ok({ty}::{v}(::serde::from_value(__content).map_err({err})?)),\n",
                            ty = input.name,
                            v = v.name,
                            err = DE_ERR,
                        ));
                    }
                    VariantData::Tuple(n) => {
                        let mut binds = String::new();
                        let mut ctor = String::new();
                        for i in 0..*n {
                            binds.push_str(&format!(
                                "let __field_{i} = ::serde::from_value(__it.next().unwrap()).map_err({err})?;\n",
                                err = DE_ERR
                            ));
                            ctor.push_str(&format!("__field_{i}, "));
                        }
                        data_arms.push_str(&format!(
                            "\"{v}\" => {{\n\
                             let __items = match __content {{\n\
                             ::serde::Value::Array(__a) if __a.len() == {n} => __a,\n\
                             _ => return ::core::result::Result::Err({err}(\"expected {n}-element array for variant {v}\")),\n\
                             }};\n\
                             let mut __it = __items.into_iter();\n\
                             {binds}\
                             ::core::result::Result::Ok({ty}::{v}({ctor}))\n\
                             }}\n",
                            ty = input.name,
                            v = v.name,
                            err = DE_ERR,
                        ));
                    }
                    VariantData::Named(fields) => {
                        let (binds, ctor) =
                            named_field_bindings(fields, &format!("{}::{}", input.name, v.name));
                        data_arms.push_str(&format!(
                            "\"{v}\" => {{\n\
                             let mut __fields = match __content {{\n\
                             ::serde::Value::Object(__f) => __f,\n\
                             _ => return ::core::result::Result::Err({err}(\"expected object for variant {v}\")),\n\
                             }};\n\
                             let _ = &mut __fields;\n\
                             {binds}\
                             ::core::result::Result::Ok({ctor})\n\
                             }}\n",
                            v = v.name,
                            err = DE_ERR,
                        ));
                    }
                }
            }
            format!(
                "let __v = ::serde::Deserializer::deserialize_value(__d)?;\n\
                 match __v {{\n\
                 ::serde::Value::Str(__s) => match __s.as_str() {{\n\
                 {unit_arms}\
                 __other => ::core::result::Result::Err({err}(format!(\"unknown variant `{{}}` of {ty}\", __other))),\n\
                 }},\n\
                 ::serde::Value::Object(__o) if __o.len() == 1 => {{\n\
                 let (__tag, __content) = __o.into_iter().next().unwrap();\n\
                 let _ = &__content;\n\
                 match __tag.as_str() {{\n\
                 {data_arms}\
                 __other => ::core::result::Result::Err({err}(format!(\"unknown variant `{{}}` of {ty}\", __other))),\n\
                 }}\n\
                 }},\n\
                 _ => ::core::result::Result::Err({err}(\"expected string or single-key object for enum {ty}\")),\n\
                 }}\n",
                err = DE_ERR,
                ty = input.name,
            )
        }
    };
    let out = format!(
        "#[automatically_derived]\n\
         impl<'de> ::serde::Deserialize<'de> for {ty} {{\n\
         fn deserialize<__D: ::serde::Deserializer<'de>>(__d: __D) -> ::core::result::Result<Self, __D::Error> {{\n\
         {body}\
         }}\n\
         }}\n",
        ty = input.name,
    );
    out.parse().expect("serde derive: generated Deserialize impl failed to parse")
}
